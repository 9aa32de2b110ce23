"""Tf-idf importances and pairwise sample weights.

tfidf(m, j) = tf(m, j) * ln(n / s_m), with tf the raw stored feature value,
n the sample count and s_m the number of samples containing feature m.
The weight of a sample pair is the sum over shared features of the mean of
the two tf-idf values.  Accumulation happens feature by feature in
ascending feature-name order, so results are bit-reproducible and match a
brute-force double loop exactly.  Pairs are accumulated one block of rows
at a time, with no dense n x n buffer.  The complete set holds all |W|
positive pairs.  A set pruned to the top p percent holds O(b * n + m)
pairs for a block of b rows and m = ceil(p/100 * n(n-1)/2), plus any
ties at its threshold: all that an epsilon or E-N graph at that p reads.
Vertex ids are int32 (``VERTEX_ID``), so a held pair takes 16 bytes: two
ids and its weight.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import Dataset, DatasetError
from .errors import MalcomError

# Cells of one row block of the pair-weight accumulator (4 MiB of float64).
_BLOCK_CELLS = 1 << 19
# dtype of vertex ids in pair, edge and CSR arrays; a key that multiplies
# two ids (a * m + b) is built in int64, where the product cannot overflow
VERTEX_ID = np.int32


def check_vertex_count(n: int) -> None:
    """Raise MalcomError when n vertices do not fit ``VERTEX_ID``."""
    if n > np.iinfo(VERTEX_ID).max:
        raise MalcomError(f"{n} vertices exceed the {2**31 - 1} that int32 ids hold")


@dataclass
class TfIdfModel:
    n: int
    sample_ids: list[str]
    doc_freq: dict[str, int]
    # per-sample sparse maps, parallel to sample_ids; zeros never stored
    values: list[dict[str, float]]


# (sample indices ascending, their tf-idf values) of one feature
Feature = tuple[np.ndarray, np.ndarray]


class WeightSet:
    """Sparse symmetric positive pair weights over n vertices.

    Stored as parallel arrays (i, j, w) with i < j (int32 vertex indices
    in dataset order), w > 0, in row-major order.  A complete set holds all
    ``total`` positive pairs and has ``top_p`` None.  A pruned set holds
    exactly the pairs at or above some weight, which include the top
    ``top_p`` percent of all pairs, and keeps the feature lists it was
    weighed from so that ``pairs_of`` can recompute whole rows.
    """

    def __init__(
        self,
        ids: list[str],
        i: np.ndarray,
        j: np.ndarray,
        w: np.ndarray,
        top_p: Optional[float] = None,
        total: Optional[int] = None,
        min_w: Optional[float] = None,
        features: Optional[list[Feature]] = None,
    ):
        self.ids = ids
        self.i = np.asarray(i, dtype=VERTEX_ID)
        self.j = np.asarray(j, dtype=VERTEX_ID)
        self.w = np.asarray(w, dtype=np.float64)
        self.top_p = top_p
        # |W| and the smallest positive weight of the complete set
        self.total = len(self.w) if total is None else total
        if min_w is None and len(self.w):
            min_w = float(self.w.min())
        self.min_w = min_w
        self._features = features

    @property
    def n(self) -> int:
        return len(self.ids)

    def __len__(self) -> int:
        return len(self.w)

    def pairs_of(
        self, vertices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, w) of every positive pair with an endpoint where the
        boolean mask ``vertices`` is set, in row-major order: the held pairs
        of a complete set, or the vertices' rows recomputed for a pruned one."""
        if self.top_p is None:
            touch = vertices[self.i] | vertices[self.j]
            return self.i[touch], self.j[touch], self.w[touch]
        return _rows_of(self._features, self.n, vertices)


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
    idf = {name: math.log(n / c) for name, c in doc_freq.items()}
    values = []
    for s in d.samples:
        row = {}
        for name, tf in s.features.items():
            v = tf * idf[name]
            if not math.isfinite(v):
                raise DatasetError(
                    f"sample {s.id!r}: tf-idf of feature {name!r} overflows"
                )
            if v != 0.0:
                row[name] = v
        values.append(row)
    return TfIdfModel(
        n=n,
        sample_ids=[s.id for s in d.samples],
        doc_freq=doc_freq,
        values=values,
    )


def pairwise_weights(m: TfIdfModel, top_p: Optional[float] = None) -> WeightSet:
    """Symmetric pair weights via an inverted index over features.

    For each feature (ascending name) the tf-idf values of the samples
    containing it are combined pairwise as (t_i + t_j) / 2 and accumulated
    into the pair's weight.  Accumulation streams through blocks of b rows
    [r0, r1) against the columns j >= r0, b = _BLOCK_CELLS // n, so there
    is no dense n x n buffer.  Every pair sums its features from 0.0 in
    the same order, so the weights do not depend on b.

    With ``top_p`` None every positive pair is kept.  With ``top_p`` set,
    a pair is kept when its weight is at or above a running threshold:
    whenever more than 2 * m_max pairs are held, m_max = ceil(top_p/100 *
    n(n-1)/2), the threshold rises to the m_max-th largest held weight and
    the pairs below it are dropped.  The top ceil(p/100 * |W|) <= m_max
    pairs of any p <= top_p are never dropped.  If the threshold never
    rose, the set is complete.  The output arrays reserve room for all
    n(n-1)/2 pairs, but only the pairs held are written, so resident
    memory is O(b * n + held pairs), 16 bytes per held pair.  A weight
    that overflows the float64 range raises DatasetError.
    """
    if top_p is not None and not 0 < top_p <= 100:
        raise ValueError(f"top_p must be in (0, 100], got {top_p}")
    n = m.n
    check_vertex_count(n)
    features = _feature_lists(m)
    rows = max(1, _BLOCK_CELLS // n)
    # room for every pair; pages past the last pair held stay untouched
    size = n * (n - 1) // 2
    m_max = size if top_p is None else math.ceil(top_p / 100.0 * size)
    i, j = np.empty(size, dtype=VERTEX_ID), np.empty(size, dtype=VERTEX_ID)
    w = np.empty(size, dtype=np.float64)
    count = total = 0
    min_w = math.inf
    threshold = 0.0
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        width = n - r0
        acc = _accumulate(features, r0, r1, width)
        # row-major (i, j) with j > i and w > 0
        keep = np.triu(acc > 0, k=1)
        total += int(np.count_nonzero(keep))
        min_w = min(min_w, float(acc.min(where=keep, initial=math.inf)))
        if threshold > 0:
            keep &= acc >= threshold
        flat = np.flatnonzero(keep)
        del keep
        end = count + len(flat)
        np.take(acc, flat, out=w[count:end], mode="clip")  # unbuffered
        # cell (a, b) of the block is flat index a * width + b; ids < 2**31
        np.floor_divide(flat, width, out=i[count:end], casting="unsafe")
        i[count:end] += r0
        np.remainder(flat, width, out=j[count:end], casting="unsafe")
        j[count:end] += r0
        count = end
        if count > 2 * m_max:
            threshold = float(np.partition(w[:count], count - m_max)[count - m_max])
            held = w[:count] >= threshold
            count = int(np.count_nonzero(held))
            for a in (i, j, w):
                a[:count] = a[: len(held)][held]  # a stable, in-place compaction
    for a in (i, j, w):
        a.resize(count, refcheck=False)  # in place: no copy of the pairs
    pruned = threshold > 0
    return WeightSet(
        list(m.sample_ids),
        i,
        j,
        w,
        top_p=top_p if pruned else None,
        total=total,
        min_w=min_w if total else None,
        features=features if pruned else None,
    )


def _accumulate(features: list[Feature], r0: int, r1: int, width: int) -> np.ndarray:
    """Pair weights of rows [r0, r1) against columns [r0, r0 + width), as a
    (r1 - r0, width) block; DatasetError when a weight overflows."""
    acc = np.zeros((r1 - r0) * width, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflow is reported below
        for ix, t in features:
            lo, hi = np.searchsorted(ix, (r0, r1))
            if hi == lo:
                continue
            cols = ix[lo:] - r0
            # a feature's cells are distinct: each gets one add, in order
            flat = np.add.outer(cols[: hi - lo] * width, cols).ravel()
            vals = np.add.outer(t[lo:hi], t[lo:]).ravel()
            vals *= 0.5
            np.add.at(acc, flat, vals)
    _reject_overflow(acc)
    return acc.reshape(r1 - r0, width)


def _reject_overflow(acc: np.ndarray) -> None:
    """DatasetError when a block of pair weights holds an overflowed sum."""
    if acc.max(initial=0.0) == math.inf:
        raise DatasetError("a pair weight overflows the float64 range")


def _feature_lists(m: TfIdfModel) -> list[Feature]:
    """(sample indices, tf-idf values) of every feature present in at
    least two samples, in ascending feature-name order."""
    inverted: dict[str, tuple[list[int], list[float]]] = {}
    for idx, row in enumerate(m.values):
        for name, v in row.items():
            bucket = inverted.setdefault(name, ([], []))
            bucket[0].append(idx)
            bucket[1].append(v)
    # ix is ascending: samples were appended in index order; it stays
    # int64, since the kernel's cols * width overflows int32 once n > 46,340
    return [
        (np.asarray(idx, dtype=np.int64), np.asarray(vals, dtype=np.float64))
        for idx, vals in (inverted[name] for name in sorted(inverted))
        if len(idx) >= 2
    ]


def _rows_of(
    features: list[Feature], n: int, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``WeightSet.pairs_of`` recomputed from the feature lists.

    Row v sums its features in the same ascending order from 0.0 as the
    block kernel, and t_v + t_u == t_u + t_v in IEEE arithmetic, so every
    weight is the double ``pairwise_weights`` computes.  A pair of two
    listed vertices is taken from the row of the smaller one."""
    chosen = np.flatnonzero(vertices)
    pos = np.full(n, -1, dtype=np.int64)
    none = np.empty(0, dtype=VERTEX_ID)
    parts = [(none, none, np.empty(0, dtype=np.float64))]
    rows = max(1, _BLOCK_CELLS // n)
    for s in range(0, len(chosen), rows):
        block = chosen[s : s + rows]
        pos[block] = np.arange(len(block))
        acc = np.zeros(len(block) * n, dtype=np.float64)
        with np.errstate(over="ignore"):  # an overflow is reported below
            for ix, t in features:
                r = pos[ix]
                sel = np.flatnonzero(r >= 0)
                if len(sel) == 0:
                    continue
                flat = np.add.outer(r[sel] * n, ix).ravel()
                vals = np.add.outer(t[sel], t).ravel()
                vals *= 0.5
                np.add.at(acc, flat, vals)
        _reject_overflow(acc)
        pos[block] = -1
        acc = acc.reshape(len(block), n)
        # drop the self-pair, and the pairs the smaller vertex's row lists
        keep = (acc > 0) & ~((np.arange(n) <= block[:, None]) & vertices)
        bi, bj = np.nonzero(keep)
        v = block[bi]
        parts.append(
            (
                np.minimum(v, bj).astype(VERTEX_ID),
                np.maximum(v, bj).astype(VERTEX_ID),
                acc[bi, bj],
            )
        )
    i, j, w = (np.concatenate(col) for col in zip(*parts))
    order = np.lexsort((j, i))
    return i[order], j[order], w[order]


def family_similarity(d: Dataset, ws: WeightSet) -> FamilySimilarityMatrix:
    """Mean pair weight between (and within) ground-truth families."""
    if not d.fully_labeled():
        raise DatasetError("family similarity requires every sample labeled")
    families = sorted({s.family for s in d.samples})
    fam_index = {f: k for k, f in enumerate(families)}
    sample_fam = np.array([fam_index[s.family] for s in d.samples], dtype=np.int64)
    nf = len(families)
    sizes = np.bincount(sample_fam, minlength=nf).astype(np.float64)

    # one sum per unordered family pair (min, max), adding the pairs in
    # input order as the per-pair loop did; then mirror it below the diagonal
    a, b = sample_fam[ws.i], sample_fam[ws.j]
    key = np.minimum(a, b)
    key *= nf
    key += np.maximum(a, b, out=a)  # in place: a is not read again
    sums = np.bincount(key, weights=ws.w, minlength=nf * nf).reshape(nf, nf)
    sums = np.triu(sums) + np.triu(sums, k=1).T

    counts = np.outer(sizes, sizes)
    np.fill_diagonal(counts, sizes * (sizes - 1) / 2.0)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        matrix = np.where(counts > 0, sums / counts, 0.0)
    if not np.isfinite(matrix).all():
        raise DatasetError("a family's summed pair weight overflows the float64 range")
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
