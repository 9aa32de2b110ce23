"""Relation-graph construction: epsilon threshold, k-NN, and the combined
E-N method (epsilon edges plus k-NN fallback for isolated vertices).

The percentile cutoff counts only strictly positive stored weights and is
found by selection (introselect via numpy.partition), never by a full sort.
Both k-NN rules, the k-NN graph and the E-N fallback, pick a vertex's k
nearest by one full sort of its dense weight row, which
``WeightSet.row_blocks`` recomputes for complete and pruned sets alike; the
k-NN graph, which sorts every row, is the slow baseline the E-N method is
benchmarked against.

The detector walks neighbours through the CSR adjacency from ``csr``: row v,
``indices[indptr[v]:indptr[v + 1]]`` with ``weights`` alongside, lists v's
neighbours in edge order.  Sums over it use ``np.bincount``/``np.cumsum``,
which add in input order like an edge-by-edge loop (``np.sum`` does not).
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dataset import open_text
from .errors import MalcomError
from .weighting import VERTEX_ID, WeightSet, check_vertex_count

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
    edge_i: np.ndarray  # int32 (VERTEX_ID), edge_i < edge_j
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

    def weights_top_p(self) -> float:
        """The top percent of pair weights to weigh for this build: 100 for
        an epsilon given as a value, else p (k-NN reads no held pair)."""
        if self.method == "epsilon" and self.epsilon is not None:
            return 100.0
        return self.p

    def validate(self, n: int) -> None:
        """The one check of graph parameters; the CLI exits 2 on its errors."""
        if self.method not in ("epsilon", "knn", "en"):
            raise GraphError(f"unknown graph method {self.method!r}")
        if self.epsilon is not None and self.method != "epsilon":
            raise GraphError(f"method {self.method!r} reads no epsilon")
        if not 0 < self.weights_top_p() <= 100:
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
    ties at the cutoff can push the edge count above m.  GraphError when
    the set holds fewer than m pairs; else it holds the top m.
    """
    if ws.total == 0:
        raise GraphError("cannot take a percentile of an empty weight set")
    if not (0 < p <= 100):
        raise GraphError(f"p must be in (0, 100], got {p}")
    total, held = ws.total, len(ws)
    m = min(math.ceil(p / 100.0 * total), total)
    if m > held:
        raise GraphError(f"the top {p:g}% are {m} pairs; the set holds only {held}")
    # m-th largest == (held - m)-th smallest; introselect, no full sort
    cutoff = float(np.partition(ws.w, held - m)[held - m])
    return cutoff, m


def build_epsilon(ws: WeightSet, epsilon: float) -> RelationGraph:
    """Edge for every pair with weight >= epsilon; isolated vertices allowed.
    GraphError when pairs the set dropped would be edges."""
    if not epsilon >= 0:  # NaN too: every comparison with it is false
        raise GraphError(f"epsilon must be >= 0, got {epsilon}")
    if len(ws) < ws.total and epsilon < ws.w.min():
        raise GraphError(f"the set holds only the pair weights >= {ws.w.min():.10g}")
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
    ``indptr`` is int64 and ``indices`` int32 (``VERTEX_ID``).
    """
    check_vertex_count(n)
    src = np.column_stack((i, j)).ravel()
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    del src  # each temporary is freed once read: E can be millions
    indices = np.column_stack((j, i)).ravel()[order].astype(VERTEX_ID, copy=False)
    order >>= 1  # entry k of the interleaved list is edge k // 2
    return indptr, indices, w[order]


def _name_rank(ids: list[str]) -> np.ndarray:
    """``rank[v]``, the position of ids[v] in ascending id order (int32)."""
    by_name = sorted(range(len(ids)), key=ids.__getitem__)
    rank = np.empty(len(ids), dtype=VERTEX_ID)
    rank[by_name] = np.arange(len(ids))
    return rank


def _knn_union(ws: WeightSet, base: tuple, mask: np.ndarray, k: int) -> RelationGraph:
    """The base edges (i, j, w) plus an edge from each vertex where the
    boolean mask is set to each of its k nearest neighbours, as distinct
    pairs sorted by (i, j).  A pair picked twice has one weight.

    The k nearest are the k largest pair weights, ties by ascending id,
    found by a full sort of each masked row.  An absent pair counts, and is
    picked, at the floor weight, below every present one."""
    floor = _floor_weight(ws)
    rank = _name_rank(ws.ids)
    parts = [base]
    for rows, block in ws.row_blocks(mask):
        block[block == 0] = floor
        block[np.arange(len(rows)), rows] = -np.inf  # never its own neighbour
        np.negative(block, out=block)
        nearest = np.lexsort((np.broadcast_to(rank, block.shape), block))[:, :k]
        v, u = np.repeat(rows, k), nearest.ravel()
        parts.append(
            (
                np.minimum(v, u).astype(VERTEX_ID),
                np.maximum(v, u).astype(VERTEX_ID),
                -np.take_along_axis(block, nearest, axis=1).ravel(),
            )
        )
    ei, ej, ew = (np.concatenate(col) for col in zip(*parts))
    order = np.lexsort((ej, ei))
    ei, ej, ew = ei[order], ej[order], ew[order]
    first = np.ones(len(ei), dtype=bool)
    first[1:] = (ei[1:] != ei[:-1]) | (ej[1:] != ej[:-1])
    return RelationGraph(list(ws.ids), ei[first], ej[first], ew[first])


def build_knn(ws: WeightSet, k: int) -> RelationGraph:
    """Undirected union of every vertex's k largest-weight neighbors.

    Sorts every row, recomputed from the feature lists, in full on
    purpose: this is the quadratic baseline whose construction time the E-N
    method must beat.  It reads no held pair.
    """
    n = ws.n
    if not (1 <= k < n):
        raise GraphError(f"k must satisfy 1 <= k < n ({n}), got {k}")
    no_base = (ws.i[:0], ws.j[:0], ws.w[:0])
    g = _knn_union(ws, no_base, np.ones(n, dtype=bool), k)
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
    g = _knn_union(ws, (base.edge_i, base.edge_j, base.edge_w), is_iso, k)
    g.meta = {
        "method": "en",
        "p": p,
        "k": k,
        "epsilon": epsilon,
        "isolated_before_fallback": int(np.count_nonzero(is_iso)),
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
    lexicographically, lines sorted by (src, dst), then a placeholder line
    ``id<TAB><TAB>0`` for each isolated vertex, ascending by id."""
    ids = g.vertices
    names = np.array(sorted(ids), dtype=object)
    rank = _name_rank(ids)
    a, b = rank[g.edge_i], rank[g.edge_j]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b, out=a)
    del a, b
    # pairs are distinct, so (lo, hi) orders the lines as sorting them would
    order = np.lexsort((hi, lo))
    lo = lo[order]
    hi = hi[order]
    w = g.edge_w[order]
    del order  # only the sorted columns stay while the lines are formatted
    extra = sorted(ids[v] for v in np.flatnonzero(g.degrees() == 0).tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# vertices: {g.n}\n")
        for s in range(0, len(w), _WRITE_CHUNK):
            e = min(s + _WRITE_CHUNK, len(w))
            # one % over the chunk's (src, dst, weight) cells, row by row
            cells = np.empty((e - s, 3), dtype=object)
            cells[:, 0] = names[lo[s:e]]
            cells[:, 1] = names[hi[s:e]]
            cells[:, 2] = w[s:e].tolist()
            fh.write(("%s\t%s\t%.10g\n" * (e - s)) % tuple(cells.ravel().tolist()))
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
            check_vertex_count(len(ids) + 1)
            index[name] = len(ids)
            ids.append(name)
        return index[name]

    # one typed entry per column and edge line: no per-line Python tuple
    ends_i, ends_j = array("i"), array("i")
    weights, linenos = array("d"), array("q")
    add_i, add_j, add_w, add_line = (
        a.append for a in (ends_i, ends_j, weights, linenos)
    )
    n_declared = None
    with open_text(path, GraphError) as fh:
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
            add_i(vid(src))
            add_j(vid(dst))
            add_w(weight)
            add_line(lineno)
    # views of the arrays' buffers ("i" is a C int, int32 where numpy's is)
    ei = np.frombuffer(ends_i, dtype=np.intc).astype(VERTEX_ID, copy=False)
    ej = np.frombuffer(ends_j, dtype=np.intc).astype(VERTEX_ID, copy=False)
    ew = np.frombuffer(weights, dtype=np.float64)
    swap = ei > ej
    ei[swap], ej[swap] = ej[swap], ei[swap]
    # a stable sort keeps each pair's lines in file order: all but the
    # first of a run repeat it, and the earliest of those is reported
    key = ei.astype(np.int64)  # int64: ei * n overflows int32 ids
    key *= len(ids)
    key += ej
    order = np.argsort(key, kind="stable")
    repeats = order[1:][key[order[1:]] == key[order[:-1]]]
    if len(repeats):
        e = repeats.min()
        a, b = (ej[e], ei[e]) if swap[e] else (ei[e], ej[e])  # as the line lists them
        raise GraphError(
            f"line {linenos[e]}: repeats the pair {ids[a]!r}, {ids[b]!r}"
        )
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
