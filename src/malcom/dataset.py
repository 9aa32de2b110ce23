"""Loading, validation and scope-filtering of feature-vector corpora.

A corpus is a JSON Lines file, one sample per line:

    {"id": "s1", "family": "Opfake", "features": {"perm/INTERNET": 1}}

Feature names are namespaced as ``<prefix>/<name>`` so the category is
recoverable without the dictionary.  The optional feature dictionary is a
CSV with header ``feature,category,scope,value_kind`` mapping each feature
to one of the 11 categories and a platform-defined / app-specific scope.

A ``Dataset`` is not modified after construction: its samples, their
feature maps and its dictionary stay as they were built.  That lets it
cache derived data.  ``Dataset.columns()`` is the stored values as CSR
arrays (``FeatureColumns``), built from the samples' maps on its first
call and returned as the same object afterwards; tf-idf, feature
frequencies and the pair weights read it, not the per-sample maps.  A
dataset derived from another one, such as ``filter_by_scope``'s result,
builds its own view.
"""
from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Optional

import numpy as np

from .errors import MalcomError

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


def split_feature(name: str) -> tuple[str, str]:
    """Split a namespaced feature name into (prefix, local name).

    Only the first "/" separates prefix from name; the local name may itself
    contain slashes (e.g. ``str/http://x.com``).
    """
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
    features in the order its map holds them."""

    names: list[str]     # every stored feature name, ascending
    indptr: np.ndarray   # int64, one more than there are samples
    ids: np.ndarray      # int32 index into names, one per stored value
    values: np.ndarray   # float64, finite and > 0


@dataclass
class Dataset:
    samples: list[Sample]
    dictionary: Optional[list[FeatureDictionaryEntry]] = None
    _scope_index: Optional[dict[str, str]] = field(
        default=None, repr=False, compare=False
    )
    _columns: Optional[FeatureColumns] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        seen = set()
        for s in self.samples:
            if s.id in seen:
                raise DatasetError(f"duplicate sample id {s.id!r}")
            seen.add(s.id)

    def __len__(self) -> int:
        return len(self.samples)

    def scope_of(self, feature: str) -> Optional[str]:
        if self.dictionary is None:
            return None
        if self._scope_index is None:
            self._scope_index = {e.feature: e.scope for e in self.dictionary}
        return self._scope_index.get(feature)

    def columns(self) -> FeatureColumns:
        """The columnar view of the stored values, built on the first call."""
        if self._columns is None:
            maps = [s.features for s in self.samples]
            indptr = np.zeros(len(maps) + 1, dtype=np.int64)
            np.cumsum(np.fromiter(map(len, maps), np.int64, len(maps)), out=indptr[1:])
            size = int(indptr[-1])
            flat = list(chain.from_iterable(maps))
            names = sorted(set(flat))
            index = dict(zip(names, range(len(names))))
            ids = np.fromiter(map(index.__getitem__, flat), np.int32, size)
            values = np.fromiter(
                chain.from_iterable(m.values() for m in maps), np.float64, size
            )
            for a in (indptr, ids, values):
                a.flags.writeable = False  # shared by every reader
            self._columns = FeatureColumns(names, indptr, ids, values)
        return self._columns

    def labels(self) -> list[Optional[str]]:
        return [s.family for s in self.samples]

    def fully_labeled(self) -> bool:
        return all(s.family is not None for s in self.samples)


def _parse_sample(obj: dict, lineno: int, names: dict[str, str]) -> Sample:
    """The sample on line ``lineno``.  ``names`` maps each feature name the
    file has used so far to its validated, interned string; new names are
    checked and added."""
    if not isinstance(obj, dict):
        raise DatasetError(f"line {lineno}: expected a JSON object")
    try:
        sid = obj["id"]
        raw = obj["features"]
    except KeyError as exc:
        raise DatasetError(f"line {lineno}: missing field {exc}") from None
    if not isinstance(sid, str) or not sid:
        raise DatasetError(f"line {lineno}: id must be a non-empty string")
    family = obj.get("family")
    if family is not None and not isinstance(family, str):
        raise DatasetError(f"line {lineno}: family must be a string or null")
    if not isinstance(raw, dict):
        raise DatasetError(f"line {lineno}: features must be an object")
    features: dict[str, float] = {}
    for name, value in raw.items():
        key = names.get(name)
        if key is None:
            split_feature(name)
            # interned: every sample that has the feature shares one string
            key = names[name] = sys.intern(name)
        if type(value) is not float:
            if not isinstance(value, int) or isinstance(value, bool):
                raise DatasetError(f"line {lineno}: feature {name!r} value not numeric")
            try:
                value = float(value)
            except OverflowError:  # an int beyond the float range
                value = math.inf
        if not 0.0 < value < math.inf:
            if value == 0:
                continue  # absence means 0; never store zeros
            why = "negative" if math.isfinite(value) else "not finite"
            raise DatasetError(f"line {lineno}: feature {name!r} value {why}")
        features[key] = value
    return Sample(id=sid, family=family, features=features)


def load_dataset(path) -> Dataset:
    """Read a JSON Lines corpus, preserving line order."""
    samples = []
    names: dict[str, str] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                why = getattr(exc, "msg", "nested too deeply")
                raise DatasetError(f"line {lineno}: invalid JSON ({why})") from None
            samples.append(_parse_sample(obj, lineno, names))
    return Dataset(samples=samples)


def save_dataset(d: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in d.samples:
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
        for row in reader:
            entries.append(
                FeatureDictionaryEntry(
                    feature=row["feature"],
                    category=row["category"],
                    scope=row["scope"],
                    value_kind=row["value_kind"],
                )
            )
    return entries


def save_dictionary(entries: Iterable[FeatureDictionaryEntry], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "category", "scope", "value_kind"])
        for e in entries:
            writer.writerow([e.feature, e.category, e.scope, e.value_kind])


def filter_by_scope(d: Dataset, scope: str) -> Dataset:
    """Keep only features whose dictionary scope matches.

    ``scope`` is "platform-defined", "app-specific" or "all".  Samples left
    with no features are retained; they participate as low-similarity
    vertices.  A feature absent from the dictionary raises DatasetError.
    """
    if scope == "all":
        return d
    if scope not in SCOPES:
        raise DatasetError(f"unknown scope {scope!r}")
    if d.dictionary is None:
        raise DatasetError("scope filtering requires a feature dictionary")
    filtered = []
    for s in d.samples:
        kept = {}
        for name, value in s.features.items():
            fscope = d.scope_of(name)
            if fscope is None:
                raise DatasetError(
                    f"feature {name!r} (sample {s.id!r}) missing from dictionary"
                )
            if fscope == scope:
                kept[name] = value
        filtered.append(Sample(id=s.id, family=s.family, features=kept))
    return Dataset(samples=filtered, dictionary=d.dictionary)
