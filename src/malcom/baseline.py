"""Lloyd k-means on tf-idf vectors, the traditional-clustering baseline.

k-means++ seeding from a fixed seed, squared Euclidean distances computed
sparsely as ||x||^2 - 2 x.c + ||c||^2, an empty cluster reseeded to the
point farthest from its current center whose cluster keeps another member.
Deterministic for a fixed seed.

The vectors are CSR arrays (indptr, indices, data), columns in ascending
feature name.  Every sum adds the doubles scipy.sparse would add, in its
order: x.c and a cluster's coordinate sums start at 0.0 and add entries
in CSR order (samples ascending), and ||x||^2 is np.add.reduceat over the
row's nonzero squares.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import check_not_empty
from .errors import MalcomError, ParameterError

MAX_ITERATIONS = 100
TOLERANCE = 1e-6  # relative objective improvement that ends the iterations


class KMeansError(MalcomError):
    pass


@dataclass
class KMeansConfig:
    c: int
    rng_seed: int = 0

    def validate(self, n: int) -> None:
        check_not_empty(n)
        if not (1 <= self.c <= n):
            raise ParameterError(f"cluster count must be in [1, {n}], got {self.c}")
        if self.rng_seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.rng_seed}")


@dataclass
class KMeansResult:
    assignment: list[int]  # sample index -> cluster id
    centers: np.ndarray    # c x d dense
    objective: float       # sum of squared distances


def tfidf_matrix(model) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays (indptr, indices, data) of tf-idf values: the columns
    number the features that hold a value in ascending name order, and
    each row lists its columns ascending."""
    ids = model.indices
    rows = np.repeat(np.arange(model.n), np.diff(model.indptr))
    order = np.lexsort((ids, rows))
    col = np.cumsum(np.bincount(ids, minlength=len(model.names)) > 0) - 1
    return model.indptr, col[ids[order]], model.data[order]


def _set_row(out: np.ndarray, X, i: int) -> None:
    """out = row i of X, dense."""
    indptr, indices, data = X
    s = slice(indptr[i], indptr[i + 1])
    out[:] = 0.0
    out[indices[s]] = data[s]


def _sq_dists(
    X, rows: np.ndarray, x_sq: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    # X @ centers.T, one column per center: bincount adds each row's
    # products from 0.0 in CSR order (rows: the row of each entry)
    _, indices, data = X
    cols = [np.bincount(rows, data * c[indices], len(x_sq)) for c in centers]
    dots = np.stack(cols, axis=1)
    c_sq = (centers * centers).sum(axis=1)
    d = x_sq[:, None] - 2.0 * dots + c_sq[None, :]
    np.maximum(d, 0.0, out=d)
    return d


def _plusplus_seed(
    X, rows: np.ndarray, x_sq: np.ndarray, c: int, dim: int, rng: np.random.Generator
) -> np.ndarray:
    n = len(x_sq)
    centers = np.zeros((c, dim), dtype=np.float64)
    _set_row(centers[0], X, int(rng.integers(n)))
    d2 = _sq_dists(X, rows, x_sq, centers[:1]).ravel()
    for k in range(1, c):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        _set_row(centers[k], X, idx)
        d2 = np.minimum(d2, _sq_dists(X, rows, x_sq, centers[k : k + 1]).ravel())
    return centers


def _assign(
    X, rows: np.ndarray, x_sq: np.ndarray, centers: np.ndarray, c: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center assignment with empty-cluster repair.

    An empty cluster is reseeded to the point farthest from its assigned
    center among the points whose cluster keeps another member, which
    does not raise the objective and leaves no cluster empty (c <= n).
    Returns (assignment, per-point cost).
    """
    n = len(x_sq)
    d = _sq_dists(X, rows, x_sq, centers)
    assignment = d.argmin(axis=1)
    cost = d[np.arange(n), assignment].copy()
    counts = np.bincount(assignment, minlength=c)
    for k in np.flatnonzero(counts == 0):
        donors = np.flatnonzero(counts[assignment] > 1)
        far = int(donors[cost[donors].argmax()])
        counts[assignment[far]] -= 1
        counts[k] = 1
        assignment[far] = k
        _set_row(centers[k], X, far)
        cost[far] = 0.0
    return assignment, cost


def kmeans(model, cfg: KMeansConfig) -> KMeansResult:
    cfg.validate(model.n)
    X = indptr, indices, data = tfidf_matrix(model)
    n, dim = model.n, int(indices.max(initial=-1)) + 1
    rows = np.repeat(np.arange(n), np.diff(indptr))  # row of each entry
    with np.errstate(over="ignore"):  # an overflow is reported below
        sq = data * data
        r, sq = rows[sq != 0.0], sq[sq != 0.0]  # scipy stores no zero product
        first = np.flatnonzero(np.diff(r, prepend=-1))  # each row's first entry
        x_sq = np.zeros(n)
        x_sq[r[first]] = np.add.reduceat(sq, first)
        # every squared distance is <= 4 max(x_sq), and a sum of n of them
        # must stay finite too
        bound = 4.0 * n * float(x_sq.max(initial=0.0))
    if not np.isfinite(bound):
        raise KMeansError("squared tf-idf distances overflow the float64 range")
    rng = np.random.default_rng(cfg.rng_seed)

    centers = _plusplus_seed(X, rows, x_sq, cfg.c, dim, rng)
    prev_obj = np.inf
    for _ in range(MAX_ITERATIONS):
        assignment, cost = _assign(X, rows, x_sq, centers, cfg.c)
        obj = float(cost.sum())
        if obj > prev_obj * (1.0 + 1e-12) + 1e-12:
            raise KMeansError("objective increased across Lloyd iterations")

        # center update: per-cluster mean, each coordinate summed from 0.0
        # over the cluster's points in ascending sample index
        sums = np.zeros((cfg.c, dim))
        np.add.at(sums, (assignment[rows], indices), data)
        centers = sums / np.bincount(assignment, minlength=cfg.c)[:, None]

        if np.isfinite(prev_obj) and prev_obj - obj <= TOLERANCE * max(
            prev_obj, 1e-300
        ):
            break
        prev_obj = obj

    # final nearest-center pass so the returned assignment matches the
    # returned centers
    assignment, cost = _assign(X, rows, x_sq, centers, cfg.c)
    return KMeansResult(
        assignment=assignment.tolist(), centers=centers, objective=float(cost.sum())
    )
