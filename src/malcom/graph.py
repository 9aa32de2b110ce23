"""Relation-graph construction: epsilon threshold, k-NN, and the combined
E-N method (epsilon edges plus k-NN fallback for isolated vertices).

The percentile cutoff counts only strictly positive stored weights and is
found by selection (introselect via numpy.partition), never by a full sort.
The k-NN builder deliberately performs a per-vertex full sort; it is the
slow baseline the E-N method is benchmarked against.

Code that walks neighbours reads the CSR adjacency from ``csr``: row v,
``indices[indptr[v]:indptr[v + 1]]`` with ``weights`` alongside, lists v's
neighbours in edge order.  Sums over it use ``np.bincount``/``np.cumsum``,
which add in input order like an edge-by-edge loop (``np.sum`` does not).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .weighting import WeightSet

# Fallback edges for vertices with no positive weight at all get this
# fraction of the smallest positive weight, keeping them flow-connected
# without perturbing any ranking.
FLOOR_FACTOR = 1e-3
DEFAULT_FLOOR = 1e-3  # used when the weight set has no positive entry


class GraphError(ValueError):
    pass


@dataclass
class RelationGraph:
    vertices: list[str]
    edge_i: np.ndarray  # int64, edge_i < edge_j
    edge_j: np.ndarray
    edge_w: np.ndarray  # float64, all > 0
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edge_w)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_i, minlength=self.n) + np.bincount(
            self.edge_j, minlength=self.n
        )

    def edge_set(self) -> set[tuple[int, int]]:
        return set(zip(self.edge_i.tolist(), self.edge_j.tolist()))


@dataclass
class GraphBuildParams:
    method: str = "en"  # epsilon | knn | en
    p: float = 10.0
    k: int = 1
    epsilon: Optional[float] = None

    def validate(self, n: int) -> None:
        """The one check of graph parameters; the CLI exits 2 on its errors."""
        if self.method not in ("epsilon", "knn", "en"):
            raise GraphError(f"unknown graph method {self.method!r}")
        if self.epsilon is None and not (0 < self.p <= 100):
            raise GraphError(f"p must be in (0, 100], got {self.p}")
        if self.epsilon is not None and not self.epsilon >= 0:
            raise GraphError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.k < 1:
            raise GraphError(f"k must be >= 1, got {self.k}")
        if self.method in ("knn", "en") and self.k >= n:
            raise GraphError(f"k must be < n ({n}), got {self.k}")


def percentile_cutoff(ws: WeightSet, p: float) -> tuple[float, int]:
    """Threshold for keeping the top p percent of stored weights.

    Returns (cutoff, m) where m = ceil(p/100 * |W|) and the cutoff is the
    m-th largest weight.  All pairs with weight >= cutoff become edges, so
    ties at the cutoff can push the edge count above m.
    """
    if len(ws) == 0:
        raise GraphError("cannot take a percentile of an empty weight set")
    if not (0 < p <= 100):
        raise GraphError(f"p must be in (0, 100], got {p}")
    total = len(ws)
    m = math.ceil(p / 100.0 * total)
    m = min(m, total)
    # m-th largest == (total - m)-th smallest; introselect, no full sort
    cutoff = float(np.partition(ws.w, total - m)[total - m])
    return cutoff, m


def build_epsilon(ws: WeightSet, epsilon: float) -> RelationGraph:
    """Edge for every pair with weight >= epsilon; isolated vertices allowed."""
    if epsilon < 0:
        raise GraphError(f"epsilon must be >= 0, got {epsilon}")
    mask = ws.w >= epsilon
    return RelationGraph(
        vertices=list(ws.ids),
        edge_i=ws.i[mask].copy(),
        edge_j=ws.j[mask].copy(),
        edge_w=ws.w[mask].copy(),
        meta={"method": "epsilon", "epsilon": epsilon},
    )


def _floor_weight(ws: WeightSet) -> float:
    if len(ws) == 0:
        return DEFAULT_FLOOR
    return float(ws.w.min()) * FLOOR_FACTOR


def csr(
    n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric CSR adjacency ``(indptr, indices, weights)`` of the
    undirected edges (i[e], j[e], w[e]) over n vertices.

    Each edge appears in both endpoint rows.  A stable sort of the
    interleaved list (i0->j0, j0->i0, i1->j1, ...) keeps every row in edge
    order, exactly as appending both directions edge by edge would.
    """
    src = np.column_stack((i, j)).ravel()
    dst = np.column_stack((j, i)).ravel()
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order], np.repeat(w, 2)[order]


def _k_nearest(
    v: int,
    k: int,
    adj: tuple[np.ndarray, np.ndarray, np.ndarray],
    ids: list[str],
    floor: float,
    full_sort: bool,
) -> list[tuple[int, float]]:
    """Top-k neighbors of v by descending weight, ties by ascending id.

    Absent pairs count as weight 0 and, if selected, carry the floor weight.
    """
    indptr, indices, weights = adj
    nbr = indices[indptr[v] : indptr[v + 1]]
    wts = weights[indptr[v] : indptr[v + 1]]
    if not full_sort and len(wts) > k:
        # partial selection: partition by weight, then resolve the boundary
        keep = wts >= -np.partition(-wts, k - 1)[k - 1]
        nbr, wts = nbr[keep], wts[keep]
    ranked = sorted(
        zip(nbr.tolist(), wts.tolist()), key=lambda t: (-t[1], ids[t[0]])
    )
    chosen = ranked[:k]
    if len(chosen) < k:
        have = {u for u, _ in chosen} | {v}
        fill = sorted(
            (u for u in range(len(ids)) if u not in have), key=lambda u: ids[u]
        )
        chosen.extend((u, floor) for u in fill[: k - len(chosen)])
    return chosen


def _knn_union(
    ws: WeightSet, base: tuple, vertices, adj: tuple, k: int, full_sort: bool
) -> RelationGraph:
    """The base edges (i, j, w) plus an edge from each listed vertex to each
    of its k nearest neighbours in ``adj``, a CSR adjacency of ws, as
    distinct pairs sorted by (i, j).  A pair picked twice has one weight."""
    floor = _floor_weight(ws)
    picks = np.array(
        [
            (min(v, u), max(v, u), w if w > 0 else floor)
            for v in vertices
            for u, w in _k_nearest(v, k, adj, ws.ids, floor, full_sort)
        ],
        dtype=[("i", np.int64), ("j", np.int64), ("w", np.float64)],
    )
    ei, ej, ew = (np.concatenate((col, picks[f])) for col, f in zip(base, "ijw"))
    order = np.lexsort((ej, ei))
    ei, ej, ew = ei[order], ej[order], ew[order]
    first = np.ones(len(ei), dtype=bool)
    first[1:] = (ei[1:] != ei[:-1]) | (ej[1:] != ej[:-1])
    return RelationGraph(list(ws.ids), ei[first], ej[first], ew[first])


def build_knn(ws: WeightSet, k: int) -> RelationGraph:
    """Undirected union of every vertex's k largest-weight neighbors.

    Uses a per-vertex full sort on purpose: this is the quadratic baseline
    whose construction time the E-N method must beat.
    """
    n = ws.n
    if not (1 <= k < n):
        raise GraphError(f"k must satisfy 1 <= k < n ({n}), got {k}")
    no_base = (ws.i[:0], ws.j[:0], ws.w[:0])
    g = _knn_union(ws, no_base, range(n), csr(n, ws.i, ws.j, ws.w), k, True)
    g.meta = {"method": "knn", "k": k}
    return g


def build_en(ws: WeightSet, p: float, k: int) -> RelationGraph:
    """Epsilon graph at the top-p-percent cutoff, then k-NN fallback edges
    for every vertex the first step left isolated, chosen among the pairs
    that touch an isolated vertex."""
    n = ws.n
    if not (1 <= k < n):
        raise GraphError(f"k must satisfy 1 <= k < n ({n}), got {k}")
    epsilon, _ = percentile_cutoff(ws, p)
    base = build_epsilon(ws, epsilon)
    is_iso = base.degrees() == 0
    touch = is_iso[ws.i] | is_iso[ws.j]
    adj = csr(n, ws.i[touch], ws.j[touch], ws.w[touch])
    isolated = np.flatnonzero(is_iso).tolist()
    g = _knn_union(
        ws, (base.edge_i, base.edge_j, base.edge_w), isolated, adj, k, False
    )
    g.meta = {
        "method": "en",
        "p": p,
        "k": k,
        "epsilon": epsilon,
        "isolated_before_fallback": len(isolated),
        # an isolated vertex has no epsilon edge to duplicate
        "fallback_edges": g.num_edges - base.num_edges,
    }
    return g


def build_graph(ws: WeightSet, params: GraphBuildParams) -> RelationGraph:
    params.validate(ws.n)
    if params.method == "epsilon":
        eps = params.epsilon
        if eps is None:
            eps, _ = percentile_cutoff(ws, params.p)
        return build_epsilon(ws, eps)
    if params.method == "knn":
        return build_knn(ws, params.k)
    return build_en(ws, params.p, params.k)


def write_edges(g: RelationGraph, path) -> None:
    """TSV edge list: ``src<TAB>dst<TAB>weight`` with src < dst
    lexicographically.  Epsilon graphs list isolated vertices as
    placeholder lines ``id<TAB><TAB>0``."""
    ids = g.vertices
    lines = []
    for i, j, w in zip(g.edge_i.tolist(), g.edge_j.tolist(), g.edge_w.tolist()):
        a, b = ids[i], ids[j]
        if b < a:
            a, b = b, a
        lines.append((a, b, f"{w:.10g}"))
    lines.sort()
    extra = []
    if g.meta.get("method") == "epsilon":
        deg = g.degrees()
        extra = sorted(ids[v] for v in range(g.n) if deg[v] == 0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# vertices: {g.n}\n")
        for a, b, w in lines:
            fh.write(f"{a}\t{b}\t{w}\n")
        for vid in extra:
            fh.write(f"{vid}\t\t0\n")


def read_edges(path) -> RelationGraph:
    """Inverse of write_edges (placeholder lines restore isolated vertices).

    Raises GraphError for a line without three tab-separated fields, a
    non-numeric value, or an edge weight that is not finite and > 0.
    """
    ids: list[str] = []
    index: dict[str, int] = {}

    def vid(name: str) -> int:
        if name not in index:
            index[name] = len(ids)
            ids.append(name)
        return index[name]

    triples = []
    n_declared = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# vertices:"):
                n_declared = _parse_number(int, line.split(":", 1)[1], lineno)
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise GraphError(
                    f"line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            src, dst, w = fields
            if dst == "":
                vid(src)
                continue
            weight = _parse_number(float, w, lineno)
            if not (math.isfinite(weight) and weight > 0):
                raise GraphError(
                    f"line {lineno}: edge weight must be finite and > 0, got {w!r}"
                )
            triples.append((vid(src), vid(dst), weight))
    ei = np.array([a for a, _, _ in triples], dtype=np.int64)
    ej = np.array([b for _, b, _ in triples], dtype=np.int64)
    ew = np.array([w for _, _, w in triples], dtype=np.float64)
    swap = ei > ej
    ei[swap], ej[swap] = ej[swap], ei[swap]
    g = RelationGraph(vertices=ids, edge_i=ei, edge_j=ej, edge_w=ew)
    if n_declared is not None and n_declared != g.n:
        raise GraphError(
            f"edge file declares {n_declared} vertices but lists {g.n}"
        )
    return g


def _parse_number(kind, text: str, lineno: int):
    try:
        return kind(text)
    except ValueError:
        raise GraphError(f"line {lineno}: {text!r} is not a number") from None
