"""Tf-idf importances and pairwise sample weights.

tfidf(m, j) = tf(m, j) * ln(n / s_m), with tf the raw stored feature value,
n the sample count and s_m the number of samples containing feature m.
The weight of a sample pair is the sum over shared features of the mean of
the two tf-idf values.  Accumulation happens feature by feature in
ascending feature-name order, so results are bit-reproducible and match a
brute-force double loop exactly.  Pairs are accumulated one block of rows
at a time, with no dense n x n buffer: memory is O(b * n + |W|) for a
block of b rows and |W| weighted pairs.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .dataset import Dataset, DatasetError

# Cells of one row block of the pair-weight accumulator (4 MiB of float64).
_BLOCK_CELLS = 1 << 19


@dataclass
class TfIdfModel:
    n: int
    sample_ids: list[str]
    doc_freq: dict[str, int]
    # per-sample sparse maps, parallel to sample_ids; zeros never stored
    values: list[dict[str, float]]


class WeightSet:
    """Sparse symmetric positive pair weights over n vertices.

    Stored as parallel arrays (i, j, w) with i < j (vertex indices in
    dataset order) and w > 0.
    """

    def __init__(self, ids: list[str], i: np.ndarray, j: np.ndarray, w: np.ndarray):
        self.ids = ids
        self.i = np.asarray(i, dtype=np.int64)
        self.j = np.asarray(j, dtype=np.int64)
        self.w = np.asarray(w, dtype=np.float64)
        self._index: Optional[dict[tuple[int, int], float]] = None

    @property
    def n(self) -> int:
        return len(self.ids)

    def __len__(self) -> int:
        return len(self.w)

    def pairs(self) -> Iterator[tuple[int, int, float]]:
        yield from zip(self.i.tolist(), self.j.tolist(), self.w.tolist())

    def get(self, a: int, b: int) -> float:
        """Weight between vertex indices a and b; 0 when the pair is absent."""
        if a == b:
            raise ValueError("no self-pairs in a weight set")
        if self._index is None:
            self._index = {
                (ii, jj): ww for ii, jj, ww in zip(self.i, self.j, self.w)
            }
        key = (a, b) if a < b else (b, a)
        return self._index.get(key, 0.0)


@dataclass
class FamilySimilarityMatrix:
    families: list[str]
    matrix: np.ndarray  # symmetric, diagonal = mean intra-family pair weight


def compute_tfidf(d: Dataset) -> TfIdfModel:
    if len(d) == 0:
        raise DatasetError("cannot compute tf-idf on an empty dataset")
    n = len(d)
    doc_freq: dict[str, int] = {}
    for s in d.samples:
        for name in s.features:
            doc_freq[name] = doc_freq.get(name, 0) + 1
    values = []
    for s in d.samples:
        row = {}
        for name, tf in s.features.items():
            idf = math.log(n / doc_freq[name])
            v = tf * idf
            if v != 0.0:
                row[name] = v
        values.append(row)
    return TfIdfModel(
        n=n,
        sample_ids=[s.id for s in d.samples],
        doc_freq=doc_freq,
        values=values,
    )


def pairwise_weights(m: TfIdfModel) -> WeightSet:
    """Symmetric pair weights via an inverted index over features.

    For each feature (ascending name) the tf-idf values of the samples
    containing it are combined pairwise as (t_i + t_j) / 2 and accumulated
    into the pair's weight.  Accumulation streams through blocks of b rows
    [r0, r1) against the columns j >= r0, b = _BLOCK_CELLS // n, so there
    is no dense n x n buffer.  The output arrays reserve room for all
    n(n-1)/2 pairs, but only the |W| positive pairs are written and kept,
    so resident memory is O(b * n + |W|).  Every pair still sums its
    features from 0.0 in the same order, so the weights do not depend on b.
    """
    n = m.n
    inverted: dict[str, tuple[list[int], list[float]]] = {}
    for idx, row in enumerate(m.values):
        for name, v in row.items():
            bucket = inverted.setdefault(name, ([], []))
            bucket[0].append(idx)
            bucket[1].append(v)
    # ix is ascending: samples were appended in index order
    features = [
        (np.asarray(idx, dtype=np.int64), np.asarray(vals, dtype=np.float64))
        for idx, vals in (inverted[name] for name in sorted(inverted))
        if len(idx) >= 2
    ]

    rows = max(1, _BLOCK_CELLS // n)
    # room for every pair; pages past the last positive pair stay untouched
    size = n * (n - 1) // 2
    i, j = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    w = np.empty(size, dtype=np.float64)
    count = 0
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        width = n - r0
        acc = np.zeros((r1 - r0) * width, dtype=np.float64)
        for ix, t in features:
            lo, hi = np.searchsorted(ix, (r0, r1))
            if hi == lo:
                continue
            cols = ix[lo:] - r0
            flat = (cols[: hi - lo, None] * width + cols[None, :]).ravel()
            acc[flat] += ((t[lo:hi, None] + t[None, lo:]) * 0.5).ravel()
        acc = acc.reshape(r1 - r0, width)
        # row-major (i, j) with j > i and w > 0
        bi, bj = np.nonzero(np.triu(acc > 0, k=1))
        end = count + len(bi)
        w[count:end] = acc[bi, bj]
        np.add(bi, r0, out=i[count:end])
        np.add(bj, r0, out=j[count:end])
        count = end
    for a in (i, j, w):
        a.resize(count, refcheck=False)  # in place: no copy of the pairs
    return WeightSet(ids=list(m.sample_ids), i=i, j=j, w=w)


def family_similarity(d: Dataset, ws: WeightSet) -> FamilySimilarityMatrix:
    """Mean pair weight between (and within) ground-truth families."""
    if not d.fully_labeled():
        raise DatasetError("family similarity requires every sample labeled")
    families = sorted({s.family for s in d.samples})
    fam_index = {f: k for k, f in enumerate(families)}
    sample_fam = np.array([fam_index[s.family] for s in d.samples], dtype=np.int64)
    sizes = np.bincount(sample_fam, minlength=len(families)).astype(np.float64)

    sums = np.zeros((len(families), len(families)), dtype=np.float64)
    for i, j, w in zip(ws.i, ws.j, ws.w):
        a, b = sample_fam[i], sample_fam[j]
        sums[a, b] += w
        if a != b:
            sums[b, a] += w

    counts = np.outer(sizes, sizes)
    np.fill_diagonal(counts, sizes * (sizes - 1) / 2.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        matrix = np.where(counts > 0, sums / counts, 0.0)
    return FamilySimilarityMatrix(families=families, matrix=matrix)


def feature_frequency(d: Dataset, top: int) -> list[tuple[str, float]]:
    """Top features ranked by fraction of samples containing them.

    Descending by fraction, ties broken by ascending feature name.
    """
    n = len(d)
    if n == 0:
        return []
    counts: dict[str, int] = {}
    for s in d.samples:
        for name in s.features:
            counts[name] = counts.get(name, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(name, c / n) for name, c in ranked[:top]]


def dump_tfidf(m: TfIdfModel, path) -> None:
    """Write the model as JSON Lines with 10-significant-digit values."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, row in zip(m.sample_ids, m.values):
            parts = ",".join(
                f'{json.dumps(k)}:{v:.10g}' for k, v in sorted(row.items())
            )
            fh.write(f'{{"id":{json.dumps(sid)},"tfidf":{{{parts}}}}}\n')
