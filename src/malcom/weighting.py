"""Tf-idf importances and pairwise sample weights.

tfidf(m, j) = tf(m, j) * ln(n / s_m), with tf the raw stored feature value,
n the sample count and s_m the number of samples containing feature m.
``compute_tfidf`` reads the dataset's columnar view (``Dataset.columns()``,
built on its first use and cached by the dataset, so a sweep that computes
tf-idf at every point reads the samples' maps once) and returns CSR arrays
over the same feature-name ids.
The weight of a sample pair is the sum over shared features of the mean of
the two tf-idf values.  One kernel, ``_weight_rows``, sums each pair's
features from 0.0 in ascending feature-name order, so weights are
bit-reproducible and match a brute-force double loop exactly.  Weighing
streams it over blocks of rows (no dense n x n buffer), and
``WeightSet.row_blocks`` recomputes whole rows with it.  Weighed at p, a
set holds O(b * n + m) pairs for a block of b rows and m = ceil(p/100 *
n(n-1)/2), plus any ties at its threshold: all that an epsilon or E-N graph
at that p reads; at p = 100 it holds all |W| positive pairs.  The k-NN
rules read recomputed rows, not held pairs.  Vertex ids are int32
(``VERTEX_ID``), so a held pair takes 16 bytes: two ids and its weight.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .dataset import Dataset, DatasetError
from .errors import MalcomError

# Cells of one row block of the pair-weight accumulator (4 MiB of float64).
_BLOCK_CELLS = 1 << 19
# dtype of vertex ids in pair, edge and CSR arrays; a key that multiplies
# two ids (a * m + b) is built in int64, where the product cannot overflow
VERTEX_ID = np.int32


class WeightingError(MalcomError):
    """Invalid pair-weighting parameters."""


def check_vertex_count(n: int) -> None:
    """Raise MalcomError when n vertices do not fit ``VERTEX_ID``."""
    if n > np.iinfo(VERTEX_ID).max:
        raise MalcomError(f"{n} vertices exceed the {2**31 - 1} that int32 ids hold")


@dataclass
class TfIdfModel:
    """Tf-idf values as CSR arrays: row r holds sample r's nonzero values,
    in the order of the dataset's columnar view."""

    n: int
    sample_ids: list[str]
    names: list[str]     # every stored feature name, ascending
    df: np.ndarray       # samples that store each name
    indptr: np.ndarray   # int64, n + 1
    indices: np.ndarray  # int32 index into names
    data: np.ndarray     # float64, no zeros

    @property
    def doc_freq(self) -> dict[str, int]:
        """Feature name -> number of samples that store it."""
        return dict(zip(self.names, self.df.tolist()))

    @property
    def values(self) -> list[dict[str, float]]:
        """Per-sample maps name -> tf-idf value, parallel to sample_ids."""
        names = [self.names[k] for k in self.indices.tolist()]
        data = self.data.tolist()
        bounds = self.indptr.tolist()
        return [dict(zip(names[a:b], data[a:b])) for a, b in zip(bounds, bounds[1:])]


# (sample indices ascending, their tf-idf values) of one feature
Feature = tuple[np.ndarray, np.ndarray]


class WeightSet:
    """Sparse symmetric positive pair weights over n vertices.

    Stored as parallel arrays (i, j, w) with i < j (int32 vertex indices
    in dataset order), w > 0, in row-major order.  The set holds either
    all ``total`` positive pairs, or exactly the pairs at or above its
    smallest held weight; what it can serve follows from that alone.  It
    keeps the feature lists it was weighed from, and ``row_blocks``
    recomputes whole rows from them.
    """

    def __init__(
        self,
        ids: list[str],
        i: np.ndarray,
        j: np.ndarray,
        w: np.ndarray,
        features: list[Feature],
        total: Optional[int] = None,
        min_w: Optional[float] = None,
    ):
        self.ids = ids
        self.i = np.asarray(i, dtype=VERTEX_ID)
        self.j = np.asarray(j, dtype=VERTEX_ID)
        self.w = np.asarray(w, dtype=np.float64)
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

    def row_blocks(
        self, vertices: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(rows, block) for the vertices where the boolean mask ``vertices``
        is set, ascending, about ``_BLOCK_CELLS`` cells per block:
        ``block[r, u]`` is the weight of the pair (rows[r], u), 0.0 for an
        absent pair and on the diagonal, recomputed from the feature lists;
        DatasetError when a weight overflows."""
        chosen = np.flatnonzero(vertices)
        step = max(1, _BLOCK_CELLS // self.n)
        for s in range(0, len(chosen), step):
            rows = chosen[s : s + step]
            block = _weight_rows(self._features, self.n, rows, 0)
            block[np.arange(len(rows)), rows] = 0.0  # no self-pair
            yield rows, block


@dataclass
class FamilySimilarityMatrix:
    families: list[str]
    matrix: np.ndarray  # symmetric, diagonal = mean intra-family pair weight


def compute_tfidf(d: Dataset) -> TfIdfModel:
    if len(d) == 0:
        raise DatasetError("cannot compute tf-idf on an empty dataset")
    n = len(d)
    cols = d.columns()
    df = np.bincount(cols.ids, minlength=len(cols.names))
    # math.log per name, not np.log: numpy's SIMD log may round differently
    idf = np.array([math.log(n / c) for c in df.tolist()], dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflow is reported below
        data = cols.values * idf[cols.ids]
    if data.max(initial=0.0) == math.inf:
        first = int(np.argmax(data == math.inf))  # in sample order
        s = d.samples[int(np.searchsorted(cols.indptr, first, side="right")) - 1]
        raise DatasetError(
            f"sample {s.id!r}: tf-idf of feature {cols.names[cols.ids[first]]!r}"
            " overflows"
        )
    indptr, indices = cols.indptr, cols.ids
    kept = data != 0.0  # idf 0 (a feature in every sample), or an underflow
    if not kept.all():
        at = np.zeros(len(kept) + 1, dtype=np.int64)
        np.cumsum(kept, out=at[1:])
        indptr, indices, data = at[indptr], indices[kept], data[kept]
    return TfIdfModel(
        n=n,
        sample_ids=[s.id for s in d.samples],
        names=cols.names,
        df=df,
        indptr=indptr,
        indices=indices,
        data=data,
    )


def pairwise_weights(m: TfIdfModel, top_p: float = 100.0) -> WeightSet:
    """Symmetric pair weights via an inverted index over features.

    For each feature (ascending name) the tf-idf values of the samples
    containing it are combined pairwise as (t_i + t_j) / 2 and accumulated
    into the pair's weight.  Accumulation streams through blocks of b rows
    [r0, r1) against the columns j >= r0, b = _BLOCK_CELLS // n, so there
    is no dense n x n buffer.  Every pair sums its features from 0.0 in
    the same order, so the weights do not depend on b.

    A pair is kept when its weight is at or above a running threshold:
    whenever more than 2 * m_max pairs are held, m_max = ceil(top_p/100 *
    n(n-1)/2), the threshold rises to the m_max-th largest held weight and
    the pairs below it are dropped.  The top ceil(p/100 * |W|) <= m_max
    pairs of any p <= top_p are never dropped.  If the threshold never
    rose, as at top_p = 100 (m_max = n(n-1)/2), the set is complete.  The
    output arrays reserve room for all n(n-1)/2 pairs, but only the pairs
    held are written, so resident memory is O(b * n + held pairs), 16
    bytes per held pair.  A weight that overflows the float64 range raises
    DatasetError.
    """
    if not 0 < top_p <= 100:
        raise WeightingError(f"top_p must be in (0, 100], got {top_p}")
    n = m.n
    check_vertex_count(n)
    features = _feature_lists(m)
    rows = max(1, _BLOCK_CELLS // n)
    # room for every pair; pages past the last pair held stay untouched
    size = n * (n - 1) // 2
    m_max = math.ceil(top_p / 100.0 * size)
    i, j = np.empty(size, dtype=VERTEX_ID), np.empty(size, dtype=VERTEX_ID)
    w = np.empty(size, dtype=np.float64)
    count = total = 0
    min_w = math.inf
    threshold = 0.0
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        width = n - r0
        acc = _weight_rows(features, n, np.arange(r0, r1), r0)
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
    return WeightSet(
        list(m.sample_ids), i, j, w, features, total, min_w if total else None
    )


def _weight_rows(
    features: list[Feature], n: int, rows: np.ndarray, c0: int
) -> np.ndarray:
    """Pair weights of the ascending vertices ``rows`` against the columns
    [c0, n), as a (len(rows), n - c0) block; DatasetError when a weight
    overflows.  Cell (r, u), the pair (rows[r], c0 + u), sums (t_a + t_b) / 2
    over the features both hold, from 0.0 in ascending feature-name order;
    t_a + t_b == t_b + t_a in IEEE arithmetic, so every cell is the double a
    brute-force double loop computes.  A row's cell against itself holds a
    sum too: callers drop or zero it."""
    width = n - c0
    pos = np.full(n, -1, dtype=np.int64)
    pos[rows] = np.arange(len(rows))
    acc = np.zeros(len(rows) * width, dtype=np.float64)
    span = (rows[0], rows[-1] + 1, c0)
    with np.errstate(over="ignore"):  # an overflow is reported below
        for ix, t in features:
            lo, hi, c = np.searchsorted(ix, span)
            if hi == lo:
                continue
            r = pos[ix[lo:hi]]
            hit = r >= 0
            # a feature's cells are distinct: each gets one add, in order
            flat = np.add.outer(r[hit] * width, ix[c:] - c0).ravel()
            vals = np.add.outer(t[lo:hi][hit], t[c:]).ravel()
            vals *= 0.5
            np.add.at(acc, flat, vals)
    if acc.max(initial=0.0) == math.inf:
        raise DatasetError("a pair weight overflows the float64 range")
    return acc.reshape(len(rows), width)


def _feature_lists(m: TfIdfModel) -> list[Feature]:
    """(sample indices, tf-idf values) of every feature present in at
    least two samples, in ascending feature-name order."""
    # a stable transpose: each feature's entries stay in row order, so its
    # sample indices ascend; they are int64, since the kernel's cols * width
    # overflows int32 once n > 46,340
    order = np.argsort(m.indices, kind="stable")
    rows = np.repeat(np.arange(m.n, dtype=np.int64), np.diff(m.indptr))[order]
    data = m.data[order]
    ends = np.cumsum(np.bincount(m.indices, minlength=len(m.names))).tolist()
    return [
        (rows[a:b], data[a:b])
        for a, b in zip([0] + ends, ends)
        if b - a >= 2
    ]


def family_similarity(d: Dataset, ws: WeightSet) -> FamilySimilarityMatrix:
    """Mean pair weight between (and within) ground-truth families, from a
    weight set that holds every pair (else DatasetError)."""
    if not d.fully_labeled():
        raise DatasetError("family similarity requires every sample labeled")
    if len(ws) < ws.total:
        raise DatasetError(
            f"family similarity needs all {ws.total} pairs, not {len(ws)}"
        )
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
    cols = d.columns()
    counts = np.bincount(cols.ids, minlength=len(cols.names))
    # names ascend, so a stable sort on -count breaks ties by name
    ranked = np.argsort(-counts, kind="stable")[:top].tolist()
    return [(cols.names[k], int(counts[k]) / n) for k in ranked]


def dump_tfidf(m: TfIdfModel, path) -> None:
    """Write the model as JSON Lines with 10-significant-digit values."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, row in zip(m.sample_ids, m.values):
            parts = ",".join(
                f'{json.dumps(k)}:{v:.10g}' for k, v in sorted(row.items())
            )
            fh.write(f'{{"id":{json.dumps(sid)},"tfidf":{{{parts}}}}}\n')
