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

from .errors import MalcomError
from .weighting import WeightSet

# Fallback edges for vertices with no positive weight at all get this
# fraction of the smallest positive weight, keeping them flow-connected
# without perturbing any ranking.
FLOOR_FACTOR = 1e-3
DEFAULT_FLOOR = 1e-3  # used when the weight set has no positive entry
_WRITE_CHUNK = 1 << 16  # edge lines formatted per write


class GraphError(MalcomError):
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


@dataclass
class GraphBuildParams:
    method: str = "en"  # epsilon | knn | en
    p: float = 10.0
    k: int = 1
    epsilon: Optional[float] = None

    def weights_top_p(self) -> Optional[float]:
        """The top percent of pair weights this build reads: p for E-N and
        for epsilon by percent; None (every pair) for k-NN and for an
        epsilon given as a value."""
        if self.method == "en" or (self.method == "epsilon" and self.epsilon is None):
            return self.p
        return None

    def validate(self, n: int) -> None:
        """The one check of graph parameters; the CLI exits 2 on its errors."""
        if self.method not in ("epsilon", "knn", "en"):
            raise GraphError(f"unknown graph method {self.method!r}")
        if (self.epsilon is None or self.method == "en") and not (0 < self.p <= 100):
            raise GraphError(f"p must be in (0, 100], got {self.p}")
        if self.epsilon is not None and not self.epsilon >= 0:
            raise GraphError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.k < 1:
            raise GraphError(f"k must be >= 1, got {self.k}")
        if self.method in ("knn", "en") and self.k >= n:
            raise GraphError(f"k must be < n ({n}), got {self.k}")


def percentile_cutoff(ws: WeightSet, p: float) -> tuple[float, int]:
    """Threshold for keeping the top p percent of all |W| positive weights.

    Returns (cutoff, m) where m = ceil(p/100 * |W|) and the cutoff is the
    m-th largest weight.  All pairs with weight >= cutoff become edges, so
    ties at the cutoff can push the edge count above m.  A weight set
    pruned to its top_p percent holds the top m pairs of every p <= top_p,
    and raises GraphError for a larger p.
    """
    if ws.total == 0:
        raise GraphError("cannot take a percentile of an empty weight set")
    if not (0 < p <= 100):
        raise GraphError(f"p must be in (0, 100], got {p}")
    if ws.top_p is not None and p > ws.top_p:
        raise GraphError(
            f"the weight set holds only the top {ws.top_p:g}% of pair weights,"
            f" not the top {p:g}%"
        )
    total = ws.total
    m = math.ceil(p / 100.0 * total)
    m = min(m, total)
    # m-th largest == (held - m)-th smallest; introselect, no full sort
    held = len(ws)
    cutoff = float(np.partition(ws.w, held - m)[held - m])
    return cutoff, m


def build_epsilon(ws: WeightSet, epsilon: float) -> RelationGraph:
    """Edge for every pair with weight >= epsilon; isolated vertices allowed."""
    if epsilon < 0:
        raise GraphError(f"epsilon must be >= 0, got {epsilon}")
    mask = ws.w >= epsilon
    return RelationGraph(
        vertices=list(ws.ids),
        edge_i=ws.i[mask],
        edge_j=ws.j[mask],
        edge_w=ws.w[mask],
        meta={"method": "epsilon", "epsilon": epsilon},
    )


def _floor_weight(ws: WeightSet) -> float:
    if ws.min_w is None:
        return DEFAULT_FLOOR
    return ws.min_w * FLOOR_FACTOR


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
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    del src  # each temporary is freed once read: E can be millions
    indices = np.column_stack((j, i)).ravel()[order]
    order >>= 1  # entry k of the interleaved list is edge k // 2
    return indptr, indices, w[order]


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
    adj = csr(n, *ws.pairs_of(is_iso))
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
    if ws.top_p is not None and params.weights_top_p() is None:
        raise GraphError(f"{params.method} needs the complete weight set")
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
    lexicographically, lines sorted by (src, dst).  Epsilon graphs list
    isolated vertices as placeholder lines ``id<TAB><TAB>0``."""
    ids = g.vertices
    by_name = sorted(range(g.n), key=ids.__getitem__)
    names = [ids[v] for v in by_name]
    rank = np.empty(g.n, dtype=np.int64)
    rank[by_name] = np.arange(g.n)
    ri, rj = rank[g.edge_i], rank[g.edge_j]
    lo, hi = np.minimum(ri, rj), np.maximum(ri, rj)
    # pairs are distinct, so (lo, hi) orders the lines as sorting them would
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], g.edge_w[order]
    extra = []
    if g.meta.get("method") == "epsilon":
        deg = g.degrees()
        extra = sorted(ids[v] for v in range(g.n) if deg[v] == 0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# vertices: {g.n}\n")
        for s in range(0, len(order), _WRITE_CHUNK):
            e = s + _WRITE_CHUNK
            fh.write(
                "".join(
                    f"{names[a]}\t{names[b]}\t{x:.10g}\n"
                    for a, b, x in zip(
                        lo[s:e].tolist(), hi[s:e].tolist(), w[s:e].tolist()
                    )
                )
            )
        for vid in extra:
            fh.write(f"{vid}\t\t0\n")


def read_edges(path) -> RelationGraph:
    """Inverse of write_edges (placeholder lines restore isolated vertices).

    Raises GraphError for a line without three tab-separated fields, a
    non-numeric value, an edge weight that is not finite and > 0, a
    self-loop, or a pair listed before (in either order).
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
            if src == dst:
                raise GraphError(f"line {lineno}: self-loop on {src!r}")
            triples.append((vid(src), vid(dst), weight, lineno))
    ei = np.array([t[0] for t in triples], dtype=np.int64)
    ej = np.array([t[1] for t in triples], dtype=np.int64)
    ew = np.array([t[2] for t in triples], dtype=np.float64)
    swap = ei > ej
    ei[swap], ej[swap] = ej[swap], ei[swap]
    # a stable sort keeps each pair's lines in file order: all but the
    # first of a run repeat it, and the earliest of those is reported
    key = ei * len(ids) + ej
    order = np.argsort(key, kind="stable")
    repeats = order[1:][key[order[1:]] == key[order[:-1]]]
    if len(repeats):
        a, b, _, lineno = triples[repeats.min()]
        raise GraphError(f"line {lineno}: repeats the pair {ids[a]!r}, {ids[b]!r}")
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
