"""Lloyd k-means on tf-idf vectors, the traditional-clustering baseline.

k-means++ seeding from a fixed seed, squared Euclidean distances computed
sparsely as ||x||^2 - 2 x.c + ||c||^2, empty clusters reseeded to the
point farthest from its current center.  Deterministic for a fixed seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import MalcomError

if TYPE_CHECKING:
    from scipy import sparse

MAX_ITERATIONS = 100
TOLERANCE = 1e-6  # relative objective improvement that ends the iterations


class KMeansError(MalcomError):
    pass


@dataclass
class KMeansConfig:
    c: int
    rng_seed: int = 0

    def validate(self, n: int) -> None:
        if not (1 <= self.c <= n):
            raise KMeansError(f"cluster count must be in [1, {n}], got {self.c}")


@dataclass
class KMeansResult:
    assignment: list[int]  # sample index -> cluster id
    centers: np.ndarray    # c x d dense
    objective: float       # sum of squared distances
    iterations: int
    feature_names: list[str]


def tfidf_matrix(model) -> tuple[sparse.csr_matrix, list[str]]:
    """CSR matrix of tf-idf values, columns in ascending feature name."""
    from scipy import sparse  # deferred: scipy's import cost only k-means pays

    names = sorted({name for row in model.values for name in row})
    col = {name: k for k, name in enumerate(names)}
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for row in model.values:
        for name in sorted(row):
            indices.append(col[name])
            data.append(row[name])
        indptr.append(len(indices))
    X = sparse.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr)),
        shape=(model.n, len(names)),
    )
    return X, names


def _sq_dists(
    X: sparse.csr_matrix, x_sq: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    c_sq = (centers * centers).sum(axis=1)
    d = x_sq[:, None] - 2.0 * np.asarray(X @ centers.T) + c_sq[None, :]
    np.maximum(d, 0.0, out=d)
    return d


def _plusplus_seed(
    X: sparse.csr_matrix, x_sq: np.ndarray, c: int, rng: np.random.Generator
) -> np.ndarray:
    n = X.shape[0]
    centers = np.zeros((c, X.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = X[first].toarray().ravel()
    d2 = _sq_dists(X, x_sq, centers[:1]).ravel()
    for k in range(1, c):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[k] = X[idx].toarray().ravel()
        d2 = np.minimum(d2, _sq_dists(X, x_sq, centers[k : k + 1]).ravel())
    return centers


def _assign(
    X: sparse.csr_matrix,
    x_sq: np.ndarray,
    centers: np.ndarray,
    c: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center assignment with empty-cluster repair.

    An empty cluster is reseeded to the point currently farthest from its
    assigned center, which strictly lowers the objective.  Returns
    (assignment, per-point cost).
    """
    n = X.shape[0]
    d = _sq_dists(X, x_sq, centers)
    assignment = d.argmin(axis=1)
    cost = d[np.arange(n), assignment].copy()
    counts = np.bincount(assignment, minlength=c)
    for k in np.flatnonzero(counts == 0):
        far = int(cost.argmax())
        assignment[far] = k
        centers[k] = X[far].toarray().ravel()
        cost[far] = 0.0
    return assignment, cost


def kmeans(model, cfg: KMeansConfig) -> KMeansResult:
    from scipy import sparse

    cfg.validate(model.n)
    X, names = tfidf_matrix(model)
    n = model.n
    with np.errstate(over="ignore"):  # an overflow is reported below
        x_sq = np.asarray(X.multiply(X).sum(axis=1)).ravel()
        # every squared distance is <= 4 max(x_sq), and a sum of n of them
        # must stay finite too
        bound = 4.0 * n * float(x_sq.max(initial=0.0))
    if not np.isfinite(bound):
        raise KMeansError("squared tf-idf distances overflow the float64 range")
    rng = np.random.default_rng(cfg.rng_seed)

    centers = _plusplus_seed(X, x_sq, cfg.c, rng)
    prev_obj = np.inf
    assignment = np.zeros(n, dtype=np.int64)
    obj = 0.0
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        assignment, cost = _assign(X, x_sq, centers, cfg.c)
        obj = float(cost.sum())
        if obj > prev_obj * (1.0 + 1e-12) + 1e-12:
            raise KMeansError("objective increased across Lloyd iterations")

        # center update: per-cluster mean; the indicator product sums
        # points in ascending sample index, fixed for determinism
        indicator = sparse.csr_matrix(
            (np.ones(n), (assignment, np.arange(n))), shape=(cfg.c, n)
        )
        sums = np.asarray((indicator @ X).todense())
        counts = np.bincount(assignment, minlength=cfg.c).astype(np.float64)
        centers = sums / counts[:, None]

        if np.isfinite(prev_obj) and prev_obj - obj <= TOLERANCE * max(
            prev_obj, 1e-300
        ):
            prev_obj = obj
            break
        prev_obj = obj

    # final nearest-center pass so the returned assignment matches the
    # returned centers
    assignment, cost = _assign(X, x_sq, centers, cfg.c)
    return KMeansResult(
        assignment=assignment.tolist(),
        centers=centers,
        objective=float(cost.sum()),
        iterations=iterations,
        feature_names=names,
    )
