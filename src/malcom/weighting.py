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
set holds exactly the top ceil(p/100 * |W|) pairs, ties included: all that
an epsilon or E-N graph at that p reads, and while weighing O(b * n + m)
pairs for a block of b rows and m = ceil(p/100 * n(n-1)/2); at p = 100 it
holds all |W| positive pairs.  The k-NN rules read recomputed rows, not
held pairs.  Vertex ids are int32 (``VERTEX_ID``), so a held pair takes 16
bytes: two ids and its weight.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .dataset import Dataset, DatasetError
from .errors import MalcomError, ParameterError

# Cells of one row block of the pair-weight accumulator (4 MiB of float64).
_BLOCK_CELLS = 1 << 19
# A weight's bucket is the top 16 bits of its IEEE pattern: for positive
# doubles they order as the values do, 16 buckets per power of two
_KEY_SHIFT = 48
_KEYS = 1 << 16
# dtype of vertex ids in pair, edge and CSR arrays; a key that multiplies
# two ids (a * m + b) is built in int64, where the product cannot overflow
VERTEX_ID = np.int32


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
    ties included); what it can serve follows from that alone.  It keeps
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

    The set holds exactly the top ceil(top_p/100 * |W|) pairs, ties
    included, in row-major order; at top_p = 100 it is complete.  While
    weighing, a pair is kept when its weight is at or above a running
    threshold: the lower edge of the bucket that holds the m_max-th
    largest held weight, m_max = ceil(top_p/100 * n(n-1)/2), read from a
    count of the held weights per bucket (the top 16 bits of a positive
    double, which order as the values do).  Once more than ceil(1.25 *
    m_max) pairs are held, they are compacted in place, a block's cells at
    a time, to those at or above the m_max-th largest; at the end, to the
    top ceil(top_p/100 * |W|).  Either rank is found by partitioning a
    copy of the members of its bucket alone, which is all held weights
    only when they share that bucket (ties, or weights within 1/16 of an
    octave of each other).  The output arrays reserve min(n(n-1)/2,
    ceil(1.25 * m_max) + b * n) pairs, what the pairs held before a block
    and the block's own can fill; when ties at the threshold hold more,
    they grow in place.  Memory is O(b * n + held pairs): 16 bytes per
    held pair, and 8 more per member of a rank's bucket while it is
    partitioned.  A weight that overflows the float64 range raises
    DatasetError.
    """
    if not 0 < top_p <= 100:
        raise ParameterError(f"top_p must be in (0, 100], got {top_p}")
    n = m.n
    check_vertex_count(n)
    features = _feature_lists(m)
    rows = max(1, _BLOCK_CELLS // n)
    size = n * (n - 1) // 2
    m_max = top_count(top_p, size)
    cap = math.ceil(1.25 * m_max)
    room = min(size, cap + rows * n)
    i, j = np.empty(room, dtype=VERTEX_ID), np.empty(room, dtype=VERTEX_ID)
    w = np.empty(room, dtype=np.float64)
    hist = np.zeros(_KEYS, dtype=np.int64)  # held pairs per bucket
    count = total = 0
    limit = cap  # held pairs that start a compaction
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
        if end > len(w):  # ties at the threshold hold more than reserved
            for a in (i, j, w):
                a.resize(min(size, max(end, 2 * len(a))), refcheck=False)
        np.take(acc, flat, out=w[count:end], mode="clip")  # unbuffered
        # cell (a, b) of the block is flat index a * width + b; ids < 2**31
        np.floor_divide(flat, width, out=i[count:end], casting="unsafe")
        i[count:end] += r0
        np.remainder(flat, width, out=j[count:end], casting="unsafe")
        j[count:end] += r0
        del acc
        # the new weights' buckets, in the buffer of their cell indices
        bits = w[count:end].view(np.uint64)
        np.right_shift(bits, _KEY_SHIFT, out=flat.view(np.uint64))
        hist += np.bincount(flat, minlength=_KEYS)
        del flat, bits  # views: a resize may move their buffers
        count = end
        if count > limit:
            count, threshold = _keep_top(i, j, w, count, hist, m_max)
            limit = max(cap, count + cap - m_max)  # ties may hold over cap
        elif count >= m_max:
            key, _ = _rank_bucket(hist, m_max)
            threshold = max(threshold, _bucket_floor(key))
    top = top_count(top_p, total)
    if count > top:
        count, _ = _keep_top(i, j, w, count, hist, top)
    for a in (i, j, w):
        a.resize(count, refcheck=False)  # in place: no copy of the pairs
    return WeightSet(
        list(m.sample_ids), i, j, w, features, total, min_w if total else None
    )


def top_count(p: float, total: int) -> int:
    """How many of ``total`` pairs the top p percent are: ceil(p/100 * total),
    at most total.  The one rule for trimming a set weighed at p and for
    the percentile cutoff read from it."""
    return min(math.ceil(p / 100.0 * total), total)


def _bucket_floor(key: int) -> float:
    """The smallest double in bucket ``key`` (+inf past the finite ones)."""
    return float(np.array(key << _KEY_SHIFT, dtype=np.uint64).view(np.float64))


def _rank_bucket(hist: np.ndarray, rank: int) -> tuple[int, int]:
    """(key, above): the bucket of the rank-th largest counted weight, and
    the count of weights in the buckets above it."""
    above = np.cumsum(hist[::-1])
    r = int(np.searchsorted(above, rank))
    return _KEYS - 1 - r, int(above[r - 1]) if r else 0


def _keep_top(
    i: np.ndarray, j: np.ndarray, w: np.ndarray, count: int, hist: np.ndarray,
    rank: int,
) -> tuple[int, float]:
    """Keep the first ``count`` pairs whose weight is at or above the
    rank-th largest of them, ties included, in place and in order, and
    count them in ``hist``.  Returns (pairs kept, that weight)."""
    key, above = _rank_bucket(hist, rank)
    lo, hi = _bucket_floor(key), _bucket_floor(key + 1)
    # held pairs are read a block's cells at a time, and only the bucket's
    # members are copied and partitioned
    starts = range(0, count, _BLOCK_CELLS)
    chunks = (w[s : min(s + _BLOCK_CELLS, count)] for s in starts)
    members = np.concatenate([c[(c >= lo) & (c < hi)] for c in chunks])
    at = len(members) - (rank - above)
    members.partition(at)
    cutoff = float(members[at])
    del members
    kept = 0
    for s in starts:
        e = min(s + _BLOCK_CELLS, count)
        held = np.flatnonzero(w[s:e] >= cutoff)
        for a in (i, j, w):
            # the kept pairs are copied out before the write, which starts
            # at or before the chunk: in place and stable
            a[kept : kept + len(held)] = a[s:e][held]
        kept += len(held)
    hist[:key] = 0
    hist[key] = kept - above
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


def family_similarity(d: Dataset, m: TfIdfModel) -> FamilySimilarityMatrix:
    """Mean pair weight between (and within) ground-truth families.  The
    weights stream in the row blocks ``pairwise_weights`` weighs, and no
    pair is held."""
    if not d.fully_labeled():
        raise DatasetError("family similarity requires every sample labeled")
    families = sorted({s.family for s in d.samples})
    fam_index = {f: k for k, f in enumerate(families)}
    sample_fam = np.array([fam_index[s.family] for s in d.samples], dtype=np.int64)
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

    Descending by fraction, ties broken by ascending feature name.
    """
    if top < 0:
        raise ParameterError(f"top must be >= 0, got {top}")
    n = len(d)
    if n == 0:
        return []
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
