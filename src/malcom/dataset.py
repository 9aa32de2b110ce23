"""Loading, validation and scope-filtering of feature-vector corpora.

A corpus is a JSON Lines file, one sample per line:

    {"id": "s1", "family": "Opfake", "features": {"perm/INTERNET": 1}}

Feature names are namespaced as ``<prefix>/<name>`` so the category is
recoverable without the dictionary.  The optional feature dictionary is a
CSV with header ``feature,category,scope,value_kind`` mapping each feature
to one of the 11 categories and a platform-defined / app-specific scope.

A ``Dataset`` holds the corpus once, as columns: the sample ids, their
families and the stored values as CSR arrays (``FeatureColumns``, 12 bytes
per stored value), which tf-idf, feature frequencies and the pair weights
read.  One builder, ``_columns``, appends feature maps to those arrays:
``load_dataset`` feeds it each line's map as it reads, and keeps none.  A
dataset built in code from ``Sample`` objects (``generate``, the tests)
keeps them and feeds it their maps on the first ``columns()`` call; a
loaded or scope-filtered one builds ``Sample`` maps from its columns only
when ``samples`` is read, and does not keep them.  A ``Dataset`` is not
modified after construction, so every reader shares its columns.
"""
from __future__ import annotations

import csv
import json
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import filterfalse
from typing import Container, Iterable, Iterator, Optional

import numpy as np

from .errors import MalcomError, ParameterError

CATEGORIES = frozenset(f"FS{i}" for i in range(1, 12))
SCOPES = ("platform-defined", "app-specific")
VALUE_KINDS = ("boolean", "numeric")

# Mnemonic namespace prefixes, one per category.
PREFIX_CATEGORY = {
    "perm": "FS1",       # requested permissions
    "intent": "FS2",     # filtered intents
    "api": "FS3",        # restricted API calls
    "comp": "FS4",       # component names
    "code": "FS5",       # code patterns
    "cert": "FS6",       # certification information
    "payload": "FS7",    # payload file types
    "str": "FS8",        # strings
    "usedperm": "FS9",   # used permissions
    "hw": "FS10",        # hardware
    "call": "FS11",      # suspicious calls
}


class DatasetError(MalcomError):
    """Malformed corpus or dictionary input."""


def check_not_empty(n: int) -> None:
    """DatasetError for an empty corpus, before any check against its n."""
    if n == 0:
        raise DatasetError("empty dataset: no samples")


@contextmanager
def open_text(path, error: type[MalcomError] = DatasetError, newline=None):
    """``path`` opened for reading as UTF-8 text.  A byte sequence that is
    not UTF-8, or a CSV field over the csv module's size limit, raises
    ``error`` naming the file."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise error(f"{path}: {exc}") from None


def _breaks_fields(label: str) -> bool:
    """True when label holds a tab, CR or LF: the TSV and CSV outputs write
    each sample id, family and feature name as one field of a line."""
    return "\t" in label or "\n" in label or "\r" in label


def split_feature(name: str) -> tuple[str, str]:
    """Split a namespaced feature name into (prefix, local name).

    Only the first "/" separates prefix from name; the local name may itself
    contain slashes (e.g. ``str/http://x.com``), but no tab or line break.
    """
    if _breaks_fields(name):
        raise DatasetError(f"feature name {name!r} holds a tab or line break")
    if not name or "/" not in name:
        raise DatasetError(f"feature name {name!r} lacks a category prefix")
    prefix, local = name.split("/", 1)
    if not prefix or not local:
        raise DatasetError(f"feature name {name!r} has an empty component")
    if prefix not in PREFIX_CATEGORY:
        raise DatasetError(f"feature name {name!r} has unknown prefix {prefix!r}")
    return prefix, local


@dataclass(frozen=True)
class FeatureDictionaryEntry:
    feature: str
    category: str
    scope: str
    value_kind: str

    def __post_init__(self):
        split_feature(self.feature)
        if self.category not in CATEGORIES:
            raise DatasetError(f"unknown category {self.category!r}")
        if self.scope not in SCOPES:
            raise DatasetError(f"unknown scope {self.scope!r}")
        if self.value_kind not in VALUE_KINDS:
            raise DatasetError(f"unknown value kind {self.value_kind!r}")


@dataclass(frozen=True)
class Sample:
    id: str
    family: Optional[str]
    features: dict[str, float]

    def __post_init__(self):
        if _breaks_fields(self.id):
            raise DatasetError(f"sample id {self.id!r} holds a tab or line break")
        if self.family is not None and _breaks_fields(self.family):
            raise DatasetError(f"family {self.family!r} holds a tab or line break")
        values = self.features.values()
        # all finite and > 0: a NaN or an infinity makes the sum non-finite
        if min(values, default=1.0) > 0 and math.isfinite(sum(values)):
            return
        for name, value in self.features.items():
            if not math.isfinite(value):
                raise DatasetError(
                    f"sample {self.id!r}: non-finite value for feature {name!r}"
                )
            if value < 0:
                raise DatasetError(
                    f"sample {self.id!r}: negative value for feature {name!r}"
                )
            if value == 0:
                raise DatasetError(
                    f"sample {self.id!r}: zero value stored for feature {name!r}"
                )


@dataclass(frozen=True)
class FeatureColumns:
    """The stored feature values of a dataset as CSR arrays.  Row r is
    sample r: its entries ``indptr[r]:indptr[r + 1]`` are the sample's
    features in the order its map holds them.  The arrays are read-only:
    every reader shares them."""

    names: list[str]     # every stored feature name, ascending
    indptr: np.ndarray   # int64, one more than there are samples
    ids: np.ndarray      # int32 index into names, one per stored value
    values: np.ndarray   # float64, finite and > 0

    def __post_init__(self):
        for a in (self.indptr, self.ids, self.values):
            a.flags.writeable = False


class Dataset:
    """Sample ids, families and stored values (as ``FeatureColumns``).

    ``Dataset(samples)`` keeps the given samples and builds the columns
    from their maps on the first ``columns()`` call.  A dataset made by
    ``from_columns`` (every loaded or scope-filtered one) holds no maps:
    its ``samples`` are built from the columns on each access.
    """

    def __init__(self, samples: list[Sample]):
        seen = set()
        for s in samples:
            if s.id in seen:
                raise DatasetError(f"duplicate sample id {s.id!r}")
            seen.add(s.id)
        self.ids = [s.id for s in samples]
        self.families = [s.family for s in samples]
        self._samples: Optional[list[Sample]] = samples
        self._columns: Optional[FeatureColumns] = None

    @classmethod
    def from_columns(
        cls, ids: list[str], families: list[Optional[str]], columns: FeatureColumns
    ) -> Dataset:
        """The dataset of already checked ids, their families and their
        stored values."""
        d = cls.__new__(cls)
        d.ids, d.families = ids, families
        d._samples, d._columns = None, columns
        return d

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def samples(self) -> list[Sample]:
        """The samples with their feature maps.  When the dataset holds only
        columns, each access builds every sample's map anew, in
        O(stored values), and keeps none: read ``ids``, ``families`` and
        ``columns()`` instead wherever they suffice."""
        if self._samples is not None:
            return self._samples
        cols = self._columns
        names = list(map(cols.names.__getitem__, cols.ids.tolist()))
        values = cols.values.tolist()
        at = cols.indptr.tolist()
        return [
            Sample(sid, family, dict(zip(names[a:b], values[a:b])))
            for sid, family, a, b in zip(self.ids, self.families, at, at[1:])
        ]

    def columns(self) -> FeatureColumns:
        """The columnar view of the stored values, built on the first call."""
        if self._columns is None:
            self._columns = _columns((s.features for s in self._samples), {})
        return self._columns

    def in_id_order(self) -> Dataset:
        """The dataset with its samples by ascending id: itself if they ascend."""
        ids = self.ids
        if all(map(str.__lt__, ids, ids[1:])):
            return self
        order = sorted(range(len(ids)), key=ids.__getitem__)
        cols = self.columns()
        size = np.diff(cols.indptr)[order]
        indptr = np.concatenate(([0], np.cumsum(size)))
        take = np.repeat(cols.indptr[order] - indptr[:-1], size) + np.arange(indptr[-1])
        columns = FeatureColumns(cols.names, indptr, cols.ids[take], cols.values[take])
        families = [self.families[k] for k in order]
        return Dataset.from_columns(sorted(ids), families, columns)

    def labels(self) -> list[Optional[str]]:
        return list(self.families)

    def fully_labeled(self) -> bool:
        return None not in self.families


def _parse_sample(obj: dict, known: Container[str]) -> Sample:
    """The sample a corpus line holds.  Feature names not in ``known`` are
    checked."""
    if not isinstance(obj, dict):
        raise DatasetError("expected a JSON object")
    try:
        sid = obj["id"]
        raw = obj["features"]
    except KeyError as exc:
        raise DatasetError(f"missing field {exc}") from None
    if not isinstance(sid, str) or not sid:
        raise DatasetError("id must be a non-empty string")
    family = obj.get("family")
    if family is not None and not isinstance(family, str):
        raise DatasetError("family must be a string or null")
    if not isinstance(raw, dict):
        raise DatasetError("features must be an object")
    features: dict[str, float] = {}
    for name, value in raw.items():
        if name not in known:
            split_feature(name)
        if type(value) is not float:
            if not isinstance(value, int) or isinstance(value, bool):
                raise DatasetError(f"feature {name!r} value not numeric")
            try:
                value = float(value)
            except OverflowError:  # an int beyond the float range
                value = math.inf
        if not 0.0 < value < math.inf:
            if value == 0:
                continue  # absence means 0; never store zeros
            why = "negative" if math.isfinite(value) else "not finite"
            raise DatasetError(f"feature {name!r} value {why}")
        features[name] = value
    return Sample(id=sid, family=family, features=features)


def _columns(maps: Iterable[dict], index: dict[str, int]) -> FeatureColumns:
    """The columns of the feature maps, a row per map, each appended as it
    is drawn.  ``index`` numbers the names in order of first use: a map's
    new names are in it before the next map is drawn."""
    name_ids, values, ends = array("i"), array("d"), array("q", [0])
    for features in maps:
        for name in filterfalse(index.__contains__, features):
            index[name] = len(index)
        name_ids.extend(map(index.__getitem__, features))
        values.extend(features.values())
        ends.append(len(values))
    # ids in order of first use -> ids in ascending name order
    names = sorted(index)
    first_use = np.fromiter(map(index.__getitem__, names), np.int64, len(names))
    rank = np.empty(len(names), dtype=np.int32)
    rank[first_use] = np.arange(len(names), dtype=np.int32)
    return FeatureColumns(
        names,
        np.frombuffer(ends, dtype=np.int64),
        rank[np.frombuffer(name_ids, dtype=np.intc)],
        np.frombuffer(values, dtype=np.float64),
    )


def load_dataset(path) -> Dataset:
    """Read a JSON Lines corpus, preserving line order, straight into
    columns: no feature map outlives its line.  An error in a line's
    sample names the line."""
    sids: list[str] = []
    families: list[Optional[str]] = []
    lines = []  # the line of each sample
    index: dict[str, int] = {}  # stored names; _parse_sample checks the others

    def parsed(fh) -> Iterator[dict[str, float]]:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                why = getattr(exc, "msg", "nested too deeply")
                raise DatasetError(f"line {lineno}: invalid JSON ({why})") from None
            try:
                s = _parse_sample(obj, index)
            except DatasetError as exc:
                raise DatasetError(f"line {lineno}: {exc}") from None
            sids.append(s.id)
            families.append(s.family)
            lines.append(lineno)
            yield s.features

    with open_text(path) as fh:
        columns = _columns(parsed(fh), index)
    # ids are checked after the read, so a malformed line is reported before
    # a repeated id wherever the two are in the file
    first: dict[str, int] = {}  # sample id -> its line
    for sid, at in zip(sids, lines):
        if first.setdefault(sid, at) != at:
            dup = f"line {at}: duplicate sample id {sid!r}"
            raise DatasetError(f"{dup} (first on line {first[sid]})")
    return Dataset.from_columns(sids, families, columns)


def save_dataset(d: Dataset, path) -> None:
    samples = d.samples
    for name in set().union(*(s.features for s in samples)):
        split_feature(name)  # a name load_dataset rejects writes no file
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            obj = {"id": s.id, "family": s.family, "features": s.features}
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def load_dictionary(path) -> list[FeatureDictionaryEntry]:
    entries = []
    with open_text(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = ["feature", "category", "scope", "value_kind"]
        if reader.fieldnames != expected:
            raise DatasetError(
                f"dictionary header must be {','.join(expected)}, "
                f"got {reader.fieldnames}"
            )
        first: dict[str, int] = {}  # feature -> its line
        for row in reader:
            at = reader.line_num
            try:
                entries.append(
                    FeatureDictionaryEntry(
                        feature=row["feature"],
                        category=row["category"],
                        scope=row["scope"],
                        value_kind=row["value_kind"],
                    )
                )
            except DatasetError as exc:
                raise DatasetError(f"line {at}: {exc}") from None
            name = entries[-1].feature
            if first.setdefault(name, at) != at:
                dup = f"line {at}: duplicate feature {name!r}"
                raise DatasetError(f"{dup} (first on line {first[name]})")
    return entries


def save_dictionary(entries: Iterable[FeatureDictionaryEntry], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "category", "scope", "value_kind"])
        for e in entries:
            writer.writerow([e.feature, e.category, e.scope, e.value_kind])


def filter_by_scope(
    d: Dataset, scope: str, dictionary: Optional[list[FeatureDictionaryEntry]]
) -> Dataset:
    """Keep only features whose scope in ``dictionary`` matches.

    ``scope`` is "platform-defined", "app-specific" or "all", which returns
    ``d`` and reads no dictionary.  Samples left with no features are
    retained; they participate as low-similarity vertices.  A feature absent
    from the dictionary raises DatasetError.
    """
    if scope == "all":
        return d
    if scope not in SCOPES:
        raise ParameterError(f"unknown scope {scope!r}")
    if dictionary is None:
        raise DatasetError("scope filtering requires a feature dictionary")
    scope_of = {e.feature: e.scope for e in dictionary}
    cols = d.columns()
    scopes = [scope_of.get(name) for name in cols.names]
    if None in scopes:  # name the first entry, in sample order
        listed = np.array([s is not None for s in scopes])
        first = int(np.argmin(listed[cols.ids]))
        row = int(np.searchsorted(cols.indptr, first, side="right")) - 1
        raise DatasetError(
            f"feature {cols.names[cols.ids[first]]!r} (sample {d.ids[row]!r})"
            " missing from dictionary"
        )
    in_scope = np.array([s == scope for s in scopes], dtype=bool)
    kept = in_scope[cols.ids]
    at = np.zeros(len(kept) + 1, dtype=np.int64)
    np.cumsum(kept, out=at[1:])
    new_id = np.cumsum(in_scope, dtype=np.int32) - 1  # names left stored
    columns = FeatureColumns(
        [name for name, keep in zip(cols.names, in_scope.tolist()) if keep],
        at[cols.indptr],
        new_id[cols.ids[kept]],
        cols.values[kept],
    )
    return Dataset.from_columns(d.ids, d.families, columns)
