"""Relation-graph construction: epsilon threshold, k-NN, and the combined
E-N method (epsilon edges plus k-NN fallback for isolated vertices).

The percentile cutoff counts only strictly positive stored weights and is
found by ``weighting.top_value``, which partitions only the weights of the
cutoff's bucket, never by a full sort or a copy of every weight.
Both k-NN rules, the k-NN graph and the E-N fallback, pick a vertex's k
nearest by one full sort of its dense weight row, which
``WeightSet.row_blocks`` recomputes for complete and pruned sets alike; the
k-NN graph, which sorts every row, is the slow baseline the E-N method is
benchmarked against.  E-N keeps the epsilon edges as they are and inserts
only its fallback picks among them.

The detector walks neighbours through the CSR adjacency from ``csr``: row v,
``indices[indptr[v]:indptr[v + 1]]`` with the ids of their edges alongside,
lists v's neighbours in edge order, and each edge's weight is read from the
edge arrays themselves.  Sums over it use ``np.bincount``/``np.cumsum``,
which add in input order like an edge-by-edge loop (``np.sum`` does not).
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dataset import check_not_empty, open_text
from .errors import MalcomError, ParameterError
from .weighting import (
    EDGE_ID,
    VERTEX_ID,
    WeightSet,
    check_edge_count,
    check_vertex_count,
    top_count,
    top_value,
)

# Fallback edges for vertices with no positive weight at all get this
# fraction of the smallest positive weight, keeping them flow-connected
# without perturbing any ranking.
FLOOR_FACTOR = 1e-3
DEFAULT_FLOOR = 1e-3  # used when the weight set has no positive entry
_WRITE_CHUNK = 1 << 16  # edge lines formatted per write
_CSR_CHUNK = 1 << 13  # edges placed per step of ``csr``
_DEGREE_CHUNK = 1 << 16  # edges counted per step of ``RelationGraph.degrees``


class GraphError(MalcomError):
    pass


@dataclass
class RelationGraph:
    """Undirected weighted edges over ``vertices``; ``check()`` owns their invariants."""

    vertices: list[str]
    edge_i: np.ndarray  # int32 (VERTEX_ID); built graphs: edge_i < edge_j
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
        """Edges at each vertex, counted ``_DEGREE_CHUNK`` edges at a time:
        ``np.bincount`` copies the int32 ids it counts to int64."""
        deg = np.zeros(self.n, dtype=np.int64)
        for s in range(0, self.num_edges, _DEGREE_CHUNK):
            for ids in (self.edge_i, self.edge_j):
                deg += np.bincount(ids[s : s + _DEGREE_CHUNK], minlength=self.n)
        return deg

    def check(self, where: Callable[[int], str] = "edge {}".format) -> None:
        """GraphError naming, by ``where(e)``, the first edge e with an id
        outside [0, n), a self-loop, a weight not finite and > 0, or an
        earlier edge's pair in either order.  Pairs listed ascending, as built
        graphs list them, cannot repeat; any other order takes a stable sort."""
        i, j, w, n, names = self.edge_i, self.edge_j, self.edge_w, self.n, self.vertices
        bad = (i < 0) | (i >= n) | (j < 0) | (j >= n) | (i == j)
        bad |= ~((0 < w) & (w < math.inf))  # NaN fails both
        first_bad = e = int(bad.argmax()) if bad.any() else len(w)
        lo, hi = i[:e], j[:e]  # valid ids
        up = lo[1:] > lo[:-1]
        up |= (lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1])
        if not (up.all() and (lo < hi).all()):
            key = np.minimum(lo, hi) * np.int64(n) + np.maximum(lo, hi)  # int64 keys
            order = np.argsort(key, kind="stable")  # a run's later edges repeat it
            key = key[order]
            e = int(order[1:][key[1:] == key[:-1]].min(initial=e))
        if e == len(w):
            return
        a, b = int(i[e]), int(j[e])
        if e < first_bad:
            fault = f"repeats the pair {names[a]!r}, {names[b]!r}"  # as listed
        elif not (0 <= a < n and 0 <= b < n):
            fault = f"vertex ids {a}, {b} not in [0, {n})"
        elif a == b:
            fault = f"self-loop on {names[a]!r}"
        else:
            fault = f"edge weight must be finite and > 0, got {float(w[e])!r}"
        raise GraphError(f"{where(e)}: {fault}")


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
        """The one check of graph parameters for an n-vertex graph."""
        check_not_empty(n)
        if self.method not in ("epsilon", "knn", "en"):
            raise ParameterError(f"unknown graph method {self.method!r}")
        if self.epsilon is not None and self.method != "epsilon":
            raise ParameterError(f"method {self.method!r} reads no epsilon")
        if not 0 < self.p <= 100:  # for every method, as report.json records p
            raise ParameterError(f"p must be in (0, 100], got {self.p}")
        if self.epsilon is not None and not self.epsilon >= 0:
            raise ParameterError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if self.method in ("knn", "en") and self.k >= n:
            raise ParameterError(f"k must be < n ({n}), got {self.k}")


def percentile_cutoff(ws: WeightSet, p: float) -> tuple[float, int]:
    """Threshold for keeping the top p percent of all |W| positive weights.

    Returns (cutoff, m) where m = ceil(p/100 * |W|) and the cutoff is the
    m-th largest weight.  All pairs with weight >= cutoff become edges, so
    ties at the cutoff can push the edge count above m.  GraphError when
    the set holds fewer than m pairs; else it holds the top m.
    """
    if ws.total == 0:
        raise GraphError("cannot take a percentile of an empty weight set")
    GraphBuildParams("epsilon", p=p).validate(ws.n)
    total, held = ws.total, len(ws)
    m = top_count(p, total)
    if m > held:
        raise GraphError(f"the top {p:g}% are {m} pairs; the set holds only {held}")
    return top_value(ws.w, m), m


def build_epsilon(ws: WeightSet, epsilon: float) -> RelationGraph:
    """Edge for every pair with weight >= epsilon; isolated vertices allowed.
    GraphError when pairs the set dropped would be edges.  When every held
    pair passes, as for E-N and epsilon-at-p at the p the set was weighed
    at, the graph takes the set's read-only arrays themselves, no copy."""
    GraphBuildParams("epsilon", epsilon=epsilon).validate(ws.n)
    low = float(ws.w.min(initial=math.inf))
    if len(ws) < ws.total and epsilon < low:
        raise GraphError(f"the set holds only the pair weights >= {low:.10g}")
    if epsilon <= low:
        edges = ws.i, ws.j, ws.w
    else:
        mask = ws.w >= epsilon
        edges = ws.i[mask], ws.j[mask], ws.w[mask]
    meta = {"method": "epsilon", "epsilon": epsilon}
    return RelationGraph(list(ws.ids), *edges, meta)


def _floor_weight(ws: WeightSet) -> float:
    if ws.min_w is None:
        return DEFAULT_FLOOR
    return ws.min_w * FLOOR_FACTOR


def csr(
    n: int, i: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric CSR adjacency ``(indptr, indices, eids)`` of the undirected
    edges (i[e], j[e]) over n vertices: entry k of a row names the neighbour
    ``indices[k]`` across the edge ``eids[k]``, whose weight a reader takes
    from its own edge array, ``w.take(eids[s:e])`` for a row slice.

    Each edge appears in both endpoint rows, every row in edge order,
    exactly as appending i0->j0, j0->i0, i1->j1, ... edge by edge would.
    A stable counting placement: each chunk of ``_CSR_CHUNK`` edges sorts
    its entries by row and writes them straight to their final slots,
    after the earlier chunks' entries of the same row.  No temporary is
    longer than a chunk, apart from n-sized ones.  ``indptr`` is int64,
    ``indices`` int32 (``VERTEX_ID``) and ``eids`` int32 (``EDGE_ID``), so
    an entry takes 8 B; ``check_edge_count`` rejects more edges than int32
    ids can name.
    """
    check_vertex_count(n)
    check_edge_count(len(i), EDGE_ID)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.bincount(i, minlength=n)
    indptr[1:] += np.bincount(j, minlength=n)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=VERTEX_ID)
    eids = np.empty(indptr[-1], dtype=EDGE_ID)
    fill = indptr[:-1].copy()  # each row's next free slot
    shift = (2 * _CSR_CHUNK - 1).bit_length()  # bits of a position in a chunk
    for s in range(0, len(i), _CSR_CHUNK):
        e = min(s + _CSR_CHUNK, len(i))
        c = 2 * (e - s)
        # the interleaved entries keyed (row, position in the chunk): one
        # sort orders them by row, each row in edge order; ids < 2**31
        key = np.empty(c, dtype=np.int64)
        key[0::2], key[1::2] = i[s:e], j[s:e]
        key <<= shift
        key += np.arange(c)
        key.sort()
        row = key >> shift
        key &= (1 << shift) - 1
        # slot = the row's next free slot + the entry's rank in its row
        first = np.flatnonzero(np.diff(row, prepend=-1))
        run = np.diff(first, append=c)
        slot = np.arange(c) - np.repeat(first - fill[row[first]], run)
        indices[slot] = np.column_stack((j[s:e], i[s:e])).ravel()[key]
        key >>= 1  # entry k of the interleaved list is edge s + k // 2
        key += s
        eids[slot] = key
        fill[row[first]] += run
    return indptr, indices, eids


def _name_rank(ids: list[str]) -> np.ndarray:
    """``rank[v]``, the position of ids[v] in ascending id order (int32)."""
    by_name = sorted(range(len(ids)), key=ids.__getitem__)
    rank = np.empty(len(ids), dtype=VERTEX_ID)
    rank[by_name] = np.arange(len(ids))
    return rank


def _nearest(ws: WeightSet, mask: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs from each vertex where the boolean mask is set (at least
    one) to each of its k nearest neighbours, as distinct ascending int64
    pair keys i·n + j (i < j) and their weights.  A pair picked twice keeps
    its first pick.

    The k nearest are the k largest pair weights, ties by ascending id,
    found by a full sort of each masked row.  An absent pair counts, and is
    picked, at the floor weight, below every present one."""
    n = ws.n
    floor = _floor_weight(ws)
    rank = _name_rank(ws.ids)
    keys, weights = [], []
    for rows, block in ws.row_blocks(mask):
        block[block == 0] = floor
        block[np.arange(len(rows)), rows] = -np.inf  # never its own neighbour
        np.negative(block, out=block)
        nearest = np.lexsort((np.broadcast_to(rank, block.shape), block))[:, :k]
        v, u = np.repeat(rows, k), nearest.ravel()
        keys.append(np.minimum(v, u) * n + np.maximum(v, u))
        weights.append(-np.take_along_axis(block, nearest, axis=1).ravel())
    # the first occurrence of each key, as a stable sort would keep it
    keys, first = np.unique(np.concatenate(keys), return_index=True)
    return keys, np.concatenate(weights)[first]


def build_knn(ws: WeightSet, k: int) -> RelationGraph:
    """Undirected union of every vertex's k largest-weight neighbors.

    Sorts every row, recomputed from the feature lists, in full on
    purpose: this is the quadratic baseline whose construction time the E-N
    method must beat.  It reads no held pair.
    """
    GraphBuildParams("knn", k=k).validate(ws.n)
    keys, w = _nearest(ws, np.ones(ws.n, dtype=bool), k)
    i, j = (a.astype(VERTEX_ID) for a in np.divmod(keys, ws.n))
    return RelationGraph(list(ws.ids), i, j, w, {"method": "knn", "k": k})


def build_en(ws: WeightSet, p: float, k: int) -> RelationGraph:
    """Epsilon graph at the top-p-percent cutoff, then k-NN fallback edges
    for every vertex the first step left isolated, chosen among the pairs
    that touch an isolated vertex.  The epsilon edges stay as they are, in
    the weight set's row-major (i, j) order, and only the picks are inserted
    among them: an isolated vertex has no epsilon edge for a pick to repeat."""
    GraphBuildParams("en", p=p, k=k).validate(ws.n)
    epsilon, _ = percentile_cutoff(ws, p)
    g = build_epsilon(ws, epsilon)
    is_iso = g.degrees() == 0
    keys = ()
    if is_iso.any():  # np.insert copies every edge, even to insert nothing
        keys, w = _nearest(ws, is_iso, k)
        # int64: i * n overflows int32 ids
        at = np.searchsorted(g.edge_i.astype(np.int64) * ws.n + g.edge_j, keys)
        g.edge_i = np.insert(g.edge_i, at, keys // ws.n)
        g.edge_j = np.insert(g.edge_j, at, keys % ws.n)
        g.edge_w = np.insert(g.edge_w, at, w)
    g.meta = {
        "method": "en",
        "p": p,
        "k": k,
        "epsilon": epsilon,
        "isolated_before_fallback": int(np.count_nonzero(is_iso)),
        "fallback_edges": len(keys),
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
    ``id<TAB><TAB>0`` for each isolated vertex, ascending by id.

    Each edge's line is keyed by lo * n + hi (int64), lo < hi the name
    ranks of its ends; pairs are distinct, so the keys order the lines as
    sorting them would.  A chunk at a time (each overlapping the previous
    by one edge) the keys are checked to ascend already, as they do for a
    built graph whose vertices are listed in ascending id order; otherwise
    one argsort of all the keys orders the edges.  Lines are formatted
    ``_WRITE_CHUNK`` at a time, their keys and weights gathered through
    that order: no sorted copy of a column is made, and an ordered graph
    has no |E|-long temporary at all.
    """
    ids, n, m = g.vertices, g.n, g.num_edges
    names = np.array(sorted(ids), dtype=object)
    rank = _name_rank(ids)
    chunks = range(0, m, _WRITE_CHUNK)

    def keys(edges) -> np.ndarray:
        a, b = rank[g.edge_i[edges]], rank[g.edge_j[edges]]
        key = np.minimum(a, b).astype(np.int64)  # int64: lo * n overflows int32
        key *= n
        key += np.maximum(a, b)
        return key

    def ascends(s: int) -> bool:
        key = keys(slice(max(s - 1, 0), s + _WRITE_CHUNK))
        return bool((key[1:] > key[:-1]).all())

    order = None
    if not all(ascends(s) for s in chunks):
        key = np.empty(m, dtype=np.int64)
        for s in chunks:
            key[s : s + _WRITE_CHUNK] = keys(slice(s, s + _WRITE_CHUNK))
        order = np.argsort(key)
        del key
    listed = np.zeros(n, dtype=bool)  # by name rank
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# vertices: {n}\n")
        for s in chunks:
            edges = slice(s, s + _WRITE_CHUNK)
            if order is not None:
                edges = order[edges]
            lo, hi = np.divmod(keys(edges), n)
            w = g.edge_w[edges]
            listed[lo] = listed[hi] = True
            # one % over the chunk's (src, dst, weight) cells, row by row
            cells = np.empty((len(w), 3), dtype=object)
            cells[:, 0] = names[lo]
            cells[:, 1] = names[hi]
            cells[:, 2] = w.tolist()
            fh.write(("%s\t%s\t%.10g\n" * len(w)) % tuple(cells.ravel().tolist()))
        for vid in names[~listed].tolist():
            fh.write(f"{vid}\t\t0\n")


def read_edges(path) -> RelationGraph:
    """Inverse of write_edges (placeholder lines restore isolated vertices).
    The ``# vertices:`` header is read on line 1 only, where write_edges
    puts it, so a vertex id may begin with that text.

    Raises GraphError for a line without three tab-separated fields, a
    non-numeric value, or an edge line that ``RelationGraph.check`` rejects.
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
            if lineno == 1 and line.startswith("# vertices:"):
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
            add_w(_parse_number(float, w, lineno))
            add_i(vid(src))
            add_j(vid(dst))
            add_line(lineno)
    # views of the arrays' buffers ("i" is a C int, int32 where numpy's is)
    ei = np.frombuffer(ends_i, dtype=np.intc).astype(VERTEX_ID, copy=False)
    ej = np.frombuffer(ends_j, dtype=np.intc).astype(VERTEX_ID, copy=False)
    ew = np.frombuffer(weights, dtype=np.float64)
    g = RelationGraph(vertices=ids, edge_i=ei, edge_j=ej, edge_w=ew)
    g.check(lambda e: f"line {linenos[e]}")
    if n_declared is not None and n_declared != g.n:
        raise GraphError(f"edge file declares {n_declared} vertices but lists {g.n}")
    return g


def _parse_number(kind, text: str, lineno: int):
    try:
        return kind(text)
    except ValueError:
        raise GraphError(f"line {lineno}: {text!r} is not a number") from None
