"""Tf-idf importances and pairwise sample weights.

tfidf(m, j) = tf(m, j) * ln(n / s_m), with tf the raw stored feature value,
n the sample count and s_m the number of samples containing feature m.
``compute_tfidf`` reads the dataset's columnar view (``Dataset.columns()``,
the form a loaded corpus is held in) and returns CSR arrays over the same
feature-name ids.
The weight of a sample pair is the sum over shared features of the mean of
the two tf-idf values.  One kernel, ``_weight_rows``, sums each pair's
features from 0.0 in ascending feature-name order, so weights are
bit-reproducible and match a brute-force double loop exactly.  Weighing
streams it over blocks of rows (no dense n x n buffer), and
``WeightSet.row_blocks`` recomputes whole rows with it.  When the kernel
would add far more cells than the top p need, and every value it reads
lies in float32's normal range with room to sum, weighing takes the bound
path instead: float32 BLAS products over a dense n x F float32 tf-idf
matrix approximate every weight within a certified bound, the pairs that
can reach the top p are held, and only those are summed exactly, from a
float64 matrix built once the float32 one is freed, in the kernel's
order; both paths give the same set, bit for bit.  Weighed at p, a
set holds exactly the top ceil(p/100 * |W|) pairs, ties included: all that
an epsilon or E-N graph at that p reads, and while weighing at most about
1.25 m pairs plus a row chunk's, m = ceil(p/100 * n(n-1)/2); at p = 100
it holds all |W| positive pairs.  The k-NN rules read recomputed rows, not
held pairs.  Vertex ids are int32 (``VERTEX_ID``), so a held pair takes 16
bytes: two ids and its weight.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .dataset import Dataset, DatasetError, check_not_empty
from .errors import MalcomError, ParameterError

# Cells of one row block of the pair-weight accumulator (4 MiB of float64).
_BLOCK_CELLS = 1 << 19
# Cells of the kernel's outer products of one feature: about 16 B each
# (index and value), built and added one row slice at a time
_OUTER_CELLS = 1 << 16
# A weight's bucket is the top 16 bits of its IEEE pattern: for positive
# doubles they order as the values do, 16 buckets per power of two
_KEY_SHIFT = 48
_KEYS = 1 << 16
# dtype of vertex ids in pair, edge and CSR arrays; a key that multiplies
# two ids (a * m + b) is built in int64, where the product cannot overflow
VERTEX_ID = np.int32
# dtype of the edge ids in the detector's CSR: an entry names its edge by
# its position in the edge arrays
EDGE_ID = np.int32
# The bound path runs when the kernel's sum(df^2) / 2 cell adds exceed
# _BOUND_GAIN times the exact pass's m_max * (stored values / n) (about
# the cells it sums).  Weighing the seed-7 benchmark corpora on one BLAS
# thread, kernel against the float32 bound path (s, medians of 5), at
# that ratio: n = 3900 easy 1.34/0.51 at 29.5, 1.48/0.87 at 5.9,
# 1.12/0.97 at 2.95 (en-easy, p = 10); hard 1.38/0.45 at 29.6
# (en-fallback, p = 1), 1.45/0.83 at 5.9, 1.57/1.44 at 2.96; n = 650 hard
# 0.068/0.028 at 29.9, 0.094/0.121 at 0.75 (the sweep's p = 40),
# 0.091/0.232 at 0.3 (p = 100).
_BOUND_GAIN = 4


def check_vertex_count(n: int) -> None:
    """Raise MalcomError when n vertices do not fit ``VERTEX_ID``."""
    if n > np.iinfo(VERTEX_ID).max:
        raise MalcomError(f"{n} vertices exceed the {2**31 - 1} that int32 ids hold")


def check_edge_count(m: int, dtype) -> None:
    """Raise MalcomError when m edges do not fit edge ids of ``dtype``, the
    dtype the caller allocates its ids in (``EDGE_ID``)."""
    limit = int(np.iinfo(dtype).max)
    if m > limit:
        raise MalcomError(f"{m} edges exceed the {limit} that edge ids hold")


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

    Stored as parallel read-only arrays (i, j, w) with i < j (int32 vertex
    indices in dataset order), w > 0, in row-major order; an epsilon or
    E-N graph that keeps every held pair aliases them.  The set holds
    either all ``total`` positive pairs, or exactly the pairs at or above
    its smallest held weight (weighed at p: the top ceil(p/100 * total),
    ties included); what it can serve follows from that alone, and the
    cutoff of any p it serves is a rank of ``w`` (``top_value``).  It keeps
    the feature lists it was weighed from, and ``row_blocks`` recomputes
    whole rows from them.
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
        for a in (self.i, self.j, self.w):
            a.setflags(write=False)  # graphs may share them
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
    n = len(d)
    check_not_empty(n)
    cols = d.columns()
    df = np.bincount(cols.ids, minlength=len(cols.names))
    # math.log per name, not np.log: numpy's SIMD log may round differently
    idf = np.array([math.log(n / c) for c in df.tolist()], dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflow is reported below
        data = cols.values * idf[cols.ids]
    if data.max(initial=0.0) == math.inf:
        first = int(np.argmax(data == math.inf))  # in sample order
        sid = d.ids[int(np.searchsorted(cols.indptr, first, side="right")) - 1]
        raise DatasetError(
            f"sample {sid!r}: tf-idf of feature {cols.names[cols.ids[first]]!r}"
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
        sample_ids=d.ids,
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

    The set holds exactly the top ceil(top_p/100 * |W|) pairs, ties
    included, in row-major order; at top_p = 100 it is complete.  A block
    is appended a row chunk of about _BLOCK_CELLS / 8 cells at a time, and
    a chunk keeps the pairs at or above a threshold that starts at 0.
    Once more than ceil(1.25 * m_max) pairs are held, m_max =
    ceil(top_p/100 * n(n-1)/2), they are compacted in place, a block's
    cells at a time, to those at or above the m_max-th largest, and the
    threshold rises to that weight; at the end they are trimmed to the top
    ceil(top_p/100 * |W|).  Either rank is found by ``top_value``.  The
    output arrays reserve min(n(n-1)/2, ceil(1.25 * m_max) + max(
    _BLOCK_CELLS / 8, n)) pairs, what the pairs held before a chunk and
    the chunk's own can fill; when ties at the threshold hold more, they
    grow in place.  Memory is O(b * n + held pairs): a block's cells, 16
    bytes per held pair, and 8 more per member of a rank's bucket while it
    is partitioned.  A weight that overflows the float64 range raises
    DatasetError.

    Two paths compute the weights, and give the same set bit for bit.  The
    kernel (``_weight_rows``) adds sum(df^2) / 2 cells over the F features
    held by two samples or more.  The bound path runs when that exceeds
    ``_BOUND_GAIN`` times m_max * (stored values / n), about the cells its
    exact pass sums, and every value of those F features lies in
    [2**-126, 2**127 / (2F + 2)] (``_bound_features``): float32's normal
    range, where no approximation can overflow.  Any other input takes the
    kernel, which reports an overflow.  The bound path builds the dense
    n x F tf-idf matrix T in float32 (4 n F bytes) and, per block, the
    approximations A = (T B^T + B T^T) / 2, B the 0/1 pattern of T, by
    float32 BLAS products in column chunks, stored as float64 before any
    test.  Every product is exact and every term >= 0, so in any summation
    order |A - w| <= delta * w (``_slack``).  The threshold t is read from
    the held A, and chunks and compactions keep A >= t * (1 - 3 delta):
    every pair of the top p is held.  ``total`` counts A > 0, which holds
    exactly when a pair shares a feature; ``min_w`` is the smallest exact
    weight of the pairs whose A lies within the bound of the smallest A
    (``_near_min``, per block).  Then T in float32 is freed, T is built
    again in float64 (8 n F bytes), and the held pairs are summed exactly,
    row by row (``_exact_weights``), and trimmed as the kernel's are.  The
    feature lists the set keeps are built last, once T is freed.
    """
    if not 0 < top_p <= 100:
        raise ParameterError(f"top_p must be in (0, 100], got {top_p}")
    n = m.n
    check_vertex_count(n)
    rows = max(1, _BLOCK_CELLS // n)
    size = n * (n - 1) // 2
    m_max = top_count(top_p, size)
    shared = _bound_features(m, m_max)
    if shared is None:
        features, dense = _feature_lists(m), None
        drop = rise = 1.0
    else:
        features, dense = None, _dense(m, shared, np.float32)
        # a threshold t is lowered to t * drop, and the smallest
        # approximation a raised to a * rise: three times the bound between
        # an approximation and its weight (_slack), which covers the bound
        # both ways and the rounding of these products
        delta = _slack(dense.shape[1])
        drop, rise = 1 - 3 * delta, 1 + 3 * delta
    cap = math.ceil(1.25 * m_max)
    room = min(size, cap + max(_BLOCK_CELLS >> 3, n))
    i, j = np.empty(room, dtype=VERTEX_ID), np.empty(room, dtype=VERTEX_ID)
    w = np.empty(room, dtype=np.float64)
    count = total = 0
    limit = cap  # held pairs that start a compaction
    min_w = math.inf
    threshold = 0.0
    a_min = math.inf  # the smallest positive approximation so far
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        width = n - r0
        if dense is None:
            acc = _weight_rows(features, n, np.arange(r0, r1), r0)
        else:
            acc = _bound_rows(dense, r0, r1)
        # row-major (i, j) with j > i and w > 0 (then A > 0 too)
        keep = np.triu(acc > 0, k=1)
        total += int(np.count_nonzero(keep))
        low = float(acc.min(where=keep, initial=math.inf))
        if dense is None:
            min_w = min(min_w, low)
        elif low < math.inf and low <= a_min * rise:
            # the smallest weight's approximation lies within the bound of
            # the smallest approximation: weigh those pairs exactly
            a_min = min(a_min, low)
            near = np.flatnonzero(keep & (acc <= low * rise))
            near_w = _near_min(m, shared, near // width + r0, near % width + r0)
            min_w = min(min_w, near_w)
            del near
        # appended a row chunk at a time, each filtered at the threshold
        # the pairs held before it give
        step = max(1, (_BLOCK_CELLS >> 3) // width)
        for s in range(0, r1 - r0, step):
            floor = threshold * drop
            if floor > 0:
                keep[s : s + step] &= acc[s : s + step] >= floor
            flat = np.flatnonzero(keep[s : s + step])
            end = count + len(flat)
            if end > len(w):  # ties at the threshold hold more than reserved
                for a in (i, j, w):
                    a.resize(min(size, max(end, 2 * len(a))), refcheck=False)
            # mode="clip" writes into ``out`` unbuffered
            np.take(acc[s : s + step], flat, out=w[count:end], mode="clip")
            # cell (a, b) of the chunk is flat index a * width + b; ids < 2**31
            np.floor_divide(flat, width, out=i[count:end], casting="unsafe")
            i[count:end] += r0 + s
            np.remainder(flat, width, out=j[count:end], casting="unsafe")
            j[count:end] += r0
            count = end
            if count > limit:
                count, cutoff = _keep_top(i, j, w, count, m_max, drop)
                threshold = max(threshold, cutoff)
                limit = max(cap, count + cap - m_max)  # ties may hold over cap
        del acc, keep
    if dense is not None:
        # the exact pass: every held approximation becomes its weight, over
        # T in float64, built once T in float32 is freed
        del dense
        dense = _dense(m, shared, np.float64)
        starts = np.searchsorted(i[:count], np.arange(0, n + rows, rows))
        for s, e in zip(starts[:-1].tolist(), starts[1:].tolist()):
            w[s:e] = _exact_weights(dense, i[s:e], j[s:e])
        del dense
    top = top_count(top_p, total)
    if count > top:
        count, _ = _keep_top(i, j, w, count, top)
    for a in (i, j, w):
        a.resize(count, refcheck=False)  # in place: no copy of the pairs
    if features is None:
        features = _feature_lists(m)
    return WeightSet(
        list(m.sample_ids), i, j, w, features, total, min_w if total else None
    )


def top_count(p: float, total: int) -> int:
    """How many of ``total`` pairs the top p percent are: ceil(p/100 * total),
    at most total.  The one rule for trimming a set weighed at p and for
    the percentile cutoff read from it."""
    return min(math.ceil(p / 100.0 * total), total)


def top_value(w: np.ndarray, rank: int) -> float:
    """The rank-th largest of the positive doubles ``w``, 1 <= rank <=
    len(w).  The weights' buckets (the top 16 bits of a positive double,
    which order as the values do) are counted a chunk at a time, and only
    the members of the rank's bucket are copied and partitioned: all of
    ``w`` only when it shares that bucket (ties, or weights within 1/16 of
    an octave of each other)."""
    step = max(1, _BLOCK_CELLS >> 3)
    chunks = [w[s : s + step] for s in range(0, len(w), step)]
    hist = np.zeros(_KEYS, dtype=np.int64)
    for c in chunks:
        hist += np.bincount(c.view(np.int64) >> _KEY_SHIFT, minlength=_KEYS)
    above = np.cumsum(hist[::-1])
    r = int(np.searchsorted(above, rank))
    key, rank = _KEYS - 1 - r, rank - (int(above[r - 1]) if r else 0)
    del hist, above
    lo, hi = _bucket_floor(key), _bucket_floor(key + 1)
    members = np.concatenate([c[(c >= lo) & (c < hi)] for c in chunks])
    at = len(members) - rank
    members.partition(at)
    return float(members[at])


def _bucket_floor(key: int) -> float:
    """The smallest double in bucket ``key`` (+inf past the finite ones)."""
    return float(np.array(key << _KEY_SHIFT, dtype=np.uint64).view(np.float64))


def _keep_top(
    i: np.ndarray, j: np.ndarray, w: np.ndarray, count: int, rank: int,
    drop: float = 1.0,
) -> tuple[int, float]:
    """Keep the first ``count`` pairs whose weight is at or above the
    rank-th largest of them, t, lowered to t * drop; ties included, in
    place and in order.  Returns (pairs kept, t)."""
    cutoff = top_value(w[:count], rank)
    floor = cutoff * drop
    kept = 0
    for s in range(0, count, _BLOCK_CELLS):
        e = min(s + _BLOCK_CELLS, count)
        held = np.flatnonzero(w[s:e] >= floor)
        for a in (i, j, w):
            # the kept pairs are copied out before the write, which starts
            # at or before the chunk: in place and stable
            a[kept : kept + len(held)] = a[s:e][held]
        kept += len(held)
    return kept, cutoff


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
            starts, t_rows = r[r >= 0] * width, t[lo:hi][r >= 0]
            cols, t_cols = ix[c:] - c0, t[c:]
            # a feature's cells are distinct: each gets one add, in order
            step = max(1, _OUTER_CELLS // max(1, len(cols)))
            for s in range(0, len(starts), step):
                flat = np.add.outer(starts[s : s + step], cols).ravel()
                vals = np.add.outer(t_rows[s : s + step], t_cols).ravel()
                vals *= 0.5
                np.add.at(acc, flat, vals)
                del flat, vals  # before the next slice's are built
    if acc.max(initial=0.0) == math.inf:
        raise DatasetError("a pair weight overflows the float64 range")
    return acc.reshape(len(rows), width)


def _bound_features(m: TfIdfModel, m_max: int) -> Optional[np.ndarray]:
    """Which feature names the bound path's tf-idf matrix T holds, those of
    two samples or more, or None when the kernel weighs.  The bound path
    runs when the kernel would add more than ``_BOUND_GAIN`` times the
    exact pass's cells and every value of these F features lies in
    [2**-126, 2**127 / (2F + 2)]: float32's normal range, where A sums at
    most 2F + 2 such values and cannot overflow.  The values are read
    _BLOCK_CELLS / 8 at a time."""
    counts = np.bincount(m.indices, minlength=len(m.names))
    shared = counts >= 2
    df = counts[shared].tolist()
    k = len(df)
    # the kernel adds sum(df^2) / 2 cells, the exact pass about m_max
    # pairs times the stored values per sample
    if not _BOUND_GAIN * m_max * sum(df) < sum(c * c for c in df) // 2 * m.n:
        return None
    if not (2 * k + 2) * 2.0**-24 < 0.1:  # 3 delta >= 1: it would hold every pair
        return None
    top = 2.0**127 / (2 * k + 2)
    step = max(1, _BLOCK_CELLS >> 3)
    for s in range(0, len(m.data), step):
        t = m.data[s : s + step][shared[m.indices[s : s + step]]]
        if len(t) and not (t.min() >= 2.0**-126 and t.max() <= top):
            return None
    return shared


def _dense(
    m: TfIdfModel, shared: np.ndarray, dtype, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """The tf-idf matrix T in ``dtype`` over the F feature names where
    ``shared`` is set, ascending, for the vertices ``rows`` (all n when
    None): T[r, f] is vertex rows[r]'s value of the f-th of them, 0.0
    where it has none.  Filled from the model's CSR a chunk of rows at a
    time, about _BLOCK_CELLS / 8 stored values on average, so no temporary
    is as long as the stored values."""
    col = np.cumsum(shared) - 1  # the column of each name where shared
    rows = np.arange(m.n) if rows is None else rows
    lo = m.indptr[rows]
    count = m.indptr[rows + 1] - lo
    dense = np.zeros((len(rows), int(np.count_nonzero(shared))), dtype=dtype)
    step = max(1, (_BLOCK_CELLS >> 3) * len(rows) // max(1, int(count.sum())))
    for s in range(0, len(rows), step):
        c = count[s : s + step]
        r = np.repeat(np.arange(s, s + len(c)), c)
        # a value's place in the CSR: its row's start, plus its rank there
        at = np.arange(len(r)) + np.repeat(lo[s : s + step] - (np.cumsum(c) - c), c)
        f = m.indices[at]
        held = np.flatnonzero(shared[f])
        dense[r[held], col[f[held]]] = m.data[at[held]]
    return dense


def _near_min(
    m: TfIdfModel, shared: np.ndarray, i: np.ndarray, j: np.ndarray
) -> float:
    """The smallest weight of the pairs (i[c], j[c]), i ascending, each
    the double the kernel computes (``_exact_weights``), over float64 rows
    of T built from the model's CSR: the second vertices a group of about
    _BLOCK_CELLS / 8 cells at a time, with the first vertices of their
    pairs.  Every pair shares a feature."""
    # distinct and ascending by a sort: np.unique imports numpy.ma on its
    # first call, about 1 MB
    second = np.sort(j)
    second = second[np.diff(second, prepend=-1) > 0]
    step = max(1, (_BLOCK_CELLS >> 3) // max(1, int(np.count_nonzero(shared))))
    low = math.inf
    for s in range(0, len(second), step):
        group = second[s : s + step]
        at = np.flatnonzero((j >= group[0]) & (j <= group[-1]))
        rows = np.sort(np.concatenate((i[at], group)))
        rows = rows[np.diff(rows, prepend=-1) > 0]
        dense = _dense(m, shared, np.float64, rows)
        w = _exact_weights(
            dense, np.searchsorted(rows, i[at]), np.searchsorted(rows, j[at])
        )
        low = min(low, float(w.min()))
    return low


def _slack(k: int) -> float:
    """delta such that |A - w| <= delta * w for a pair's approximation A
    (``_bound_rows``) and weight w over F = k features, every value in
    [2**-126, 2**127 / (2F + 2)].

    Every term is >= 0, so a float sum of m of them, in any order, is
    within gamma_m * S of the real sum S, gamma_m = m u / (1 - m u)
    (Higham, Accuracy and Stability of Numerical Algorithms, section
    3.1).  In A, each value is rounded once to float32 (u = 2**-24), its
    products with B are exact, and the two sums of F of them and their sum
    round in float32: at most F + 2 roundings per term.  The halving, in
    float64, is exact.  w rounds at most F + 1 times per term, in float64
    (u = 2**-53).  Every value is a normal float32, so no sum leaves the
    normal range and none overflows.  So A and w both lie within gamma *
    S of S, gamma = gamma_{2F+2} at u = 2**-24, and |A - w| <= 2 gamma S
    <= 2 gamma w / (1 - gamma) <= 3 gamma w while gamma <= 1/3."""
    m = 2 * k + 2
    return 3 * (m * 2.0**-24 / (1 - m * 2.0**-24))


def _bound_rows(dense: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """A = (T B^T + B T^T) / 2 for the rows [r0, r1) of the float32 T
    against the columns [r0, n), B the 0/1 pattern of T, as a float64
    (r1 - r0, n - r0) block.  The products and their sum are float32, and
    each cell is within ``_slack`` of the pair's weight."""
    n, k = dense.shape
    out = np.empty((r1 - r0, n - r0), dtype=np.float64)
    t_rows = dense[r0:r1]
    b_rows = np.sign(t_rows)  # every value is > 0
    step = max(1, (_BLOCK_CELLS >> 3) // max(k, 1))  # columns of B per product
    for c0 in range(r0, n, step):
        cols = dense[c0 : c0 + step]
        at = slice(c0 - r0, c0 - r0 + len(cols))
        out[:, at] = t_rows @ np.sign(cols).T + b_rows @ cols.T
    out *= 0.5
    return out


def _exact_weights(dense: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The weights of the pairs (i[c], j[c]), i ascending, each the double
    the kernel computes.  Per run of equal i, row i's terms (t_i + t_j) *
    0.5 over its own features, ascending, +0.0 where j lacks one (no
    padding), are gathered _BLOCK_CELLS / 8 cells at a time and summed by
    a cumsum from the first: the kernel adds them to 0.0 in the same order,
    and adding +0.0 to a sum >= 0 leaves it.  Every row of i holds a feature."""
    out = np.empty(len(i), dtype=np.float64)
    flat, k = dense.ravel(), dense.shape[1]
    starts = np.flatnonzero(np.diff(i, prepend=-1)).tolist()  # runs of equal i
    for s, e in zip(starts, starts[1:] + [len(i)]):
        f = dense[i[s]].nonzero()[0]
        t = dense[i[s], f]
        step = max(1, (_BLOCK_CELLS >> 3) // len(f))
        for a in range(s, e, step):
            b = min(a + step, e)
            # j's value of each feature: T[v, f] is flat[v * k + f]
            terms = flat.take(np.multiply(j[a:b, None], k, dtype=np.int64) + f)
            present = np.sign(terms)  # 1.0 where j holds the feature, else 0.0
            terms += t
            terms *= present  # exact; +0.0 where j lacks it, as t is finite
            terms *= 0.5
            terms.cumsum(axis=1, out=terms)
            out[a:b] = terms[:, -1]
    return out


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


def family_similarity(d: Dataset, m: TfIdfModel) -> FamilySimilarityMatrix:
    """Mean pair weight between (and within) ground-truth families.  The
    weights stream in the row blocks ``pairwise_weights`` weighs, and no
    pair is held."""
    if not d.fully_labeled():
        raise DatasetError("family similarity requires every sample labeled")
    families = sorted(set(d.families))
    fam_index = {f: k for k, f in enumerate(families)}
    sample_fam = np.array([fam_index[f] for f in d.families], dtype=np.int64)
    nf = len(families)
    sizes = np.bincount(sample_fam, minlength=nf).astype(np.float64)

    # one sum per unordered family pair (min, max) that adds the positive
    # pairs from 0.0 in row-major order, as a complete weight set lists
    # them; then mirror it below the diagonal
    n, features = m.n, _feature_lists(m)
    sums = np.zeros(nf * nf)
    step = max(1, _BLOCK_CELLS // n)
    for r0 in range(0, n, step):
        acc = _weight_rows(features, n, np.arange(r0, min(r0 + step, n)), r0)
        a, b = np.nonzero(np.triu(acc > 0, k=1))  # row-major
        fa, fb = sample_fam[a + r0], sample_fam[b + r0]
        key = np.minimum(fa, fb) * nf + np.maximum(fa, fb)
        with np.errstate(over="ignore"):  # an overflow is reported below
            np.add.at(sums, key, acc[a, b])
    sums = np.triu(sums.reshape(nf, nf))
    sums += np.triu(sums, k=1).T

    counts = np.outer(sizes, sizes)
    np.fill_diagonal(counts, sizes * (sizes - 1) / 2.0)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        matrix = np.where(counts > 0, sums / counts, 0.0)
    if not np.isfinite(matrix).all():
        raise DatasetError("a family's summed pair weight overflows the float64 range")
    return FamilySimilarityMatrix(families=families, matrix=matrix)


def feature_frequency(d: Dataset, top: int) -> list[tuple[str, float]]:
    """Top features ranked by fraction of samples containing them.

    Descending by fraction, ties broken by ascending feature name.  An empty
    corpus is a DatasetError, as for every other stage.
    """
    if top < 0:
        raise ParameterError(f"top must be >= 0, got {top}")
    n = len(d)
    check_not_empty(n)
    cols = d.columns()
    counts = np.bincount(cols.ids, minlength=len(cols.names))
    # names ascend, so a stable sort on -count breaks ties by name
    ranked = np.argsort(-counts, kind="stable")[:top].tolist()
    return [(cols.names[k], int(counts[k]) / n) for k in ranked]


def dump_tfidf(m: TfIdfModel, path) -> None:
    """Write the model as JSON Lines with 10-significant-digit values, each
    row's entries in ascending feature-name order."""
    keys = [json.dumps(name) + ":" for name in m.names]
    rows = np.repeat(np.arange(m.n), np.diff(m.indptr))
    order = np.lexsort((m.indices, rows))  # names ascend with their ids
    entries = [
        f"{keys[k]}{v:.10g}"
        for k, v in zip(m.indices[order].tolist(), m.data[order].tolist())
    ]
    bounds = m.indptr.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for sid, a, b in zip(m.sample_ids, bounds, bounds[1:]):
            parts = ",".join(entries[a:b])
            fh.write(f'{{"id":{json.dumps(sid)},"tfidf":{{{parts}}}}}\n')
