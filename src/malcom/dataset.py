"""Loading, validation and scope-filtering of feature-vector corpora.

A corpus is a JSON Lines file, one sample per line:

    {"id": "s1", "family": "Opfake", "features": {"perm/INTERNET": 1}}

Feature names are namespaced as ``<prefix>/<name>`` so the category is
recoverable without the dictionary.  The optional feature dictionary is a
CSV with header ``feature,category,scope,value_kind`` mapping each feature
to one of the 11 categories and a platform-defined / app-specific scope.
"""
from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional

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


@dataclass
class Dataset:
    samples: list[Sample]
    dictionary: Optional[list[FeatureDictionaryEntry]] = None
    _scope_index: Optional[dict[str, str]] = field(
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

    def labels(self) -> list[Optional[str]]:
        return [s.family for s in self.samples]

    def fully_labeled(self) -> bool:
        return all(s.family is not None for s in self.samples)


def _parse_sample(obj: dict, lineno: int) -> Sample:
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
        split_feature(name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise DatasetError(f"line {lineno}: feature {name!r} value not numeric")
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise DatasetError(f"line {lineno}: feature {name!r} value not finite")
        if value < 0:
            raise DatasetError(f"line {lineno}: feature {name!r} value negative")
        if value == 0:
            continue  # absence means 0; never store zeros
        # interned: every sample that has the feature shares one name string
        features[sys.intern(name)] = value
    return Sample(id=sid, family=family, features=features)


def load_dataset(path) -> Dataset:
    """Read a JSON Lines corpus, preserving line order."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"line {lineno}: invalid JSON ({exc.msg})") from None
            samples.append(_parse_sample(obj, lineno))
    return Dataset(samples=samples)


def save_dataset(d: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in d.samples:
            obj = {"id": s.id, "family": s.family, "features": s.features}
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def load_dictionary(path) -> list[FeatureDictionaryEntry]:
    entries = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
