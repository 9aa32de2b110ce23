"""Two-level map-equation community detection on undirected weighted graphs.

The objective is the expected per-step description length of a random walk
under one index codebook plus one codebook per community:

    L = q * H(Q) + sum_i p_i * H(P_i)

where q is the total community-exit rate, H(Q) the entropy of the
normalized exit rates, p_i the usage rate of community i's codebook and
H(P_i) the entropy of its exit-plus-visit rates.  Visit rates follow the
undirected flow model p_v = strength(v) / (2 * total_weight), with no
teleportation.  All entropies are base 2 (codelengths in bits).

Optimization is a Louvain-style local-move pass (strictly improving moves
only, scan order shuffled per pass by a seeded RNG) with multilevel
aggregation into super-vertices; an exhaustive Bell-number oracle is
provided for small graphs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graph import RelationGraph, csr


class InfomapError(ValueError):
    pass


def _plogp(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


def _sum_by(index: np.ndarray, w: np.ndarray, m: int) -> np.ndarray:
    """Float64 sums of w per index in 0..m-1, added in input order."""
    # np.bincount yields an int64 array when index is empty
    return np.bincount(index, weights=w, minlength=m).astype(np.float64)


@dataclass
class FlowModel:
    total_weight: float
    visit_rates: np.ndarray  # p_v per vertex; sums to 1


@dataclass
class Partition:
    assignment: list[int]  # vertex -> community id, dense 0..m-1
    m: int

    @staticmethod
    def from_labels(labels: list[int]) -> "Partition":
        """Canonicalize arbitrary labels to dense ids by first appearance."""
        remap: dict[int, int] = {}
        dense = []
        for lab in labels:
            if lab not in remap:
                remap[lab] = len(remap)
            dense.append(remap[lab])
        return Partition(assignment=dense, m=len(remap))

    def communities(self) -> list[list[int]]:
        groups: list[list[int]] = [[] for _ in range(self.m)]
        for v, c in enumerate(self.assignment):
            groups[c].append(v)
        return groups


@dataclass
class MapEquationBreakdown:
    q_exit: np.ndarray        # per-community exit rate q_i
    q_total: float            # sum of q_i
    index_entropy: float      # H(Q)
    module_usage: np.ndarray  # p_i = q_i + sum of visit rates in i
    module_entropy: np.ndarray
    codelength: float         # bits


@dataclass
class DetectorConfig:
    rng_seed: int = 0
    convergence_tolerance: float = 1e-10  # bits

    def __post_init__(self):
        if self.convergence_tolerance <= 0:
            raise InfomapError("convergence tolerance must be > 0")


class _Net:
    """One aggregation level, built from edge arrays (ei, ej, ew).

    Non-loop edges form the CSR adjacency of ``graph.csr`` (``indptr``,
    ``indices``, ``weights``; ``rows`` is each entry's row vertex).  Loop
    weight lives in ``loop``, counts twice toward strength and once toward
    total weight, so aggregation preserves flows exactly.  All sums run in
    edge order (bincount, cumsum), as an edge-by-edge loop would add.
    """

    def __init__(self, n: int, ei: np.ndarray, ej: np.ndarray, ew: np.ndarray):
        self.n = n
        is_loop = ei == ej
        self.loop = _sum_by(ei[is_loop], ew[is_loop], n)
        # both endpoints in edge order; a loop adds 2w once, at its edge
        ends = np.column_stack((ei, ej)).ravel()
        end_w = np.column_stack(
            (np.where(is_loop, 2.0 * ew, ew), np.where(is_loop, 0.0, ew))
        ).ravel()
        self.strength = _sum_by(ends, end_w, n)
        self.total_weight = float(np.cumsum(ew)[-1]) if len(ew) else 0.0
        keep = ~is_loop
        self.indptr, self.indices, self.weights = csr(
            n, ei[keep], ej[keep], ew[keep]
        )
        self.rows = np.repeat(np.arange(n), np.diff(self.indptr))
        # sum of plogp over the FINEST level's visit rates; aggregated nets
        # inherit it so codelengths stay comparable across levels
        self.fine_vertex_plogp: Optional[float] = None

    def own_vertex_plogp(self) -> float:
        return float(sum(_plogp(pv) for pv in self.visit_rates()))

    def visit_rates(self) -> np.ndarray:
        if not math.isfinite(self.total_weight):
            raise InfomapError(f"graph total weight is {self.total_weight}")
        if self.total_weight <= 0.0:
            if self.n == 1:
                return np.array([1.0])
            raise InfomapError("graph with >= 2 vertices has zero total weight")
        return self.strength / (2.0 * self.total_weight)


def _net_from_graph(g: RelationGraph) -> _Net:
    net = _Net(g.n, g.edge_i, g.edge_j, g.edge_w)
    net.fine_vertex_plogp = net.own_vertex_plogp()
    return net


def compute_flows(g: RelationGraph) -> FlowModel:
    if g.n == 0:
        raise InfomapError("empty graph")
    net = _net_from_graph(g)
    return FlowModel(total_weight=net.total_weight, visit_rates=net.visit_rates())


def _exits(net: _Net, assignment: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Community and weight of every CSR entry that leaves its row
    vertex's community, in CSR order."""
    row_comm = assignment[net.rows]
    leaves = row_comm != assignment[net.indices]
    return row_comm[leaves], net.weights[leaves]


def _breakdown(net: _Net, assignment: list[int], m: int) -> MapEquationBreakdown:
    p = net.visit_rates()
    two_w = 2.0 * net.total_weight if net.total_weight > 0 else 1.0
    comm = np.asarray(assignment, dtype=np.int64)

    # raw inter-community weight per community
    cut = _sum_by(*_exits(net, comm), m)
    q_exit = cut / two_w
    q_total = float(q_exit.sum())

    if q_total > 0.0:
        index_entropy = -sum(
            _plogp(qi / q_total) for qi in q_exit if qi > 0.0
        )
    else:
        index_entropy = 0.0

    usage = q_exit + _sum_by(comm, p, m)

    module_entropy = np.zeros(m, dtype=np.float64)
    groups: list[list[int]] = [[] for _ in range(m)]
    for v in range(net.n):
        groups[assignment[v]].append(v)
    for c in range(m):
        if usage[c] <= 0.0:
            continue
        h = 0.0
        if q_exit[c] > 0.0:
            h -= _plogp(q_exit[c] / usage[c])
        for v in groups[c]:
            if p[v] > 0.0:
                h -= _plogp(p[v] / usage[c])
        module_entropy[c] = h

    codelength = q_total * index_entropy + float(
        np.dot(usage, module_entropy)
    )
    # on an aggregated net, re-express per-super-vertex entropy in terms of
    # the finest level's vertices (constant shift; zero at the fine level)
    if net.fine_vertex_plogp is not None:
        codelength += net.own_vertex_plogp() - net.fine_vertex_plogp
    return MapEquationBreakdown(
        q_exit=q_exit,
        q_total=q_total,
        index_entropy=index_entropy,
        module_usage=usage,
        module_entropy=module_entropy,
        codelength=codelength,
    )


def codelength(g: RelationGraph, part: Partition) -> MapEquationBreakdown:
    if len(part.assignment) != g.n:
        raise InfomapError(
            f"partition covers {len(part.assignment)} vertices, graph has {g.n}"
        )
    if sorted(set(part.assignment)) != list(range(part.m)):
        raise InfomapError("community ids must be dense 0..m-1")
    return _breakdown(_net_from_graph(g), part.assignment, part.m)


def _codelength_terms(q_tot: float, q: np.ndarray, usage: np.ndarray) -> float:
    """L minus the constant -sum plogp(p_v) term, in expanded form."""
    return (
        _plogp(q_tot)
        - 2.0 * sum(_plogp(x) for x in q)
        + sum(_plogp(x) for x in usage)
    )


class _LocalState:
    """Incrementally maintained codelength state for one level."""

    def __init__(self, net: _Net, assignment: list[int]):
        self.net = net
        self.assignment = assignment
        self.p = net.visit_rates()
        two_w = 2.0 * net.total_weight if net.total_weight > 0 else 1.0
        self.inv_two_w = 1.0 / two_w
        m = max(assignment) + 1
        comm = np.asarray(assignment, dtype=np.int64)
        self.sum_p = _sum_by(comm, self.p, m)
        exit_comm, exit_w = _exits(net, comm)
        self.q = _sum_by(exit_comm, exit_w * self.inv_two_w, m)
        self.q_total = float(self.q.sum())
        fine = net.fine_vertex_plogp
        self.const = -(fine if fine is not None else net.own_vertex_plogp())

    def codelength(self) -> float:
        usage = self.q + self.sum_p
        return _codelength_terms(self.q_total, self.q, usage) + self.const

    def move_delta(self, v: int, target: int, w_va: float, w_vb: float) -> float:
        """Codelength change of moving v from its community to target.

        w_va / w_vb: normalized edge weight from v into its current /
        target community (excluding v itself).
        """
        a = self.assignment[v]
        d_v = (self.net.strength[v] - 2.0 * self.net.loop[v]) * self.inv_two_w
        p_v = self.p[v]

        qa, qb = self.q[a], self.q[target]
        qa_new = qa - d_v + 2.0 * w_va
        qb_new = qb + d_v - 2.0 * w_vb
        q_tot_new = self.q_total + (qa_new - qa) + (qb_new - qb)

        ua = qa + self.sum_p[a]
        ub = qb + self.sum_p[target]
        ua_new = qa_new + self.sum_p[a] - p_v
        ub_new = qb_new + self.sum_p[target] + p_v

        return (
            _plogp(q_tot_new)
            - _plogp(self.q_total)
            - 2.0 * (_plogp(qa_new) + _plogp(qb_new) - _plogp(qa) - _plogp(qb))
            + (_plogp(ua_new) + _plogp(ub_new) - _plogp(ua) - _plogp(ub))
        )

    def apply_move(self, v: int, target: int, w_va: float, w_vb: float) -> None:
        a = self.assignment[v]
        d_v = (self.net.strength[v] - 2.0 * self.net.loop[v]) * self.inv_two_w
        p_v = self.p[v]
        qa_new = self.q[a] - d_v + 2.0 * w_va
        qb_new = self.q[target] + d_v - 2.0 * w_vb
        self.q_total += (qa_new - self.q[a]) + (qb_new - self.q[target])
        self.q[a] = qa_new
        self.q[target] = qb_new
        self.sum_p[a] -= p_v
        self.sum_p[target] += p_v
        self.assignment[v] = target


def _local_move_passes(
    net: _Net, rng: np.random.Generator, tol: float
) -> list[int]:
    """Run shuffled local-move passes from all-singletons to convergence."""
    assignment = list(range(net.n))
    state = _LocalState(net, assignment)
    indptr = net.indptr.tolist()
    nbrs = net.indices.tolist()
    wts = net.weights.tolist()
    while True:
        moved = False
        order = rng.permutation(net.n)
        for v in order.tolist():
            a = state.assignment[v]
            # normalized weight from v into each neighbor community
            w_to: dict[int, float] = {}
            s, e = indptr[v], indptr[v + 1]
            for u, w in zip(nbrs[s:e], wts[s:e]):
                c = state.assignment[u]
                w_to[c] = w_to.get(c, 0.0) + w * state.inv_two_w
            w_va = w_to.get(a, 0.0)
            best_c, best_delta = a, 0.0
            for c in sorted(w_to):
                if c == a:
                    continue
                delta = state.move_delta(v, c, w_va, w_to[c])
                if delta < best_delta:
                    best_delta, best_c = delta, c
            if best_c != a and best_delta < -tol:
                state.apply_move(v, best_c, w_va, w_to[best_c])
                moved = True
        if not moved:
            break
    return state.assignment


def _aggregate(net: _Net, assignment: list[int], m: int) -> _Net:
    """Net with one super-vertex per community, edges in (a, b) order.

    Vertex by vertex, its self-loop and then its upper-triangle CSR entries
    are summed per community pair in that order, by bincount.
    """
    comm = np.asarray(assignment, dtype=np.int64)
    looped = np.flatnonzero(net.loop > 0)
    upper = net.indices > net.rows
    src = np.concatenate((looped, net.rows[upper]))
    dst = np.concatenate((looped, net.indices[upper]))
    w = np.concatenate((net.loop[looped], net.weights[upper]))
    # stable by fine vertex; loops were listed first
    order = np.argsort(src, kind="stable")
    ca, cb = comm[src[order]], comm[dst[order]]
    keys, inverse = np.unique(
        np.minimum(ca, cb) * m + np.maximum(ca, cb), return_inverse=True
    )
    out = _Net(m, keys // m, keys % m, _sum_by(inverse, w[order], len(keys)))
    out.fine_vertex_plogp = net.fine_vertex_plogp
    return out


def detect(
    g: RelationGraph, cfg: DetectorConfig | None = None
) -> tuple[Partition, MapEquationBreakdown]:
    """Minimize the map equation by local moves plus multilevel aggregation.

    Deterministic for a fixed seed; returns the flat vertex-level partition
    (canonical ids by first appearance in vertex order) and its breakdown.
    """
    if cfg is None:
        cfg = DetectorConfig()
    if g.n == 0:
        raise InfomapError("empty graph")
    rng = np.random.default_rng(cfg.rng_seed)
    tol = cfg.convergence_tolerance

    fine = net = _net_from_graph(g)
    vertex_node = list(range(g.n))  # original vertex -> current-level node
    while True:
        assignment = _local_move_passes(net, rng, tol)
        dense = Partition.from_labels(assignment)
        if dense.m == net.n:
            break  # no merges at this level; converged
        vertex_node = [dense.assignment[node] for node in vertex_node]
        net = _aggregate(net, dense.assignment, dense.m)

    part = Partition.from_labels(vertex_node)
    return part, _breakdown(fine, part.assignment, part.m)


def _set_partitions(n: int):
    """All set partitions of range(n) as restricted-growth label lists,
    in lexicographic order (first yield: everything in one block)."""
    labels = [0] * n

    def rec(i: int, used: int):
        if i == n:
            yield labels.copy()
            return
        for c in range(used + 1):
            labels[i] = c
            yield from rec(i + 1, max(used, c + 1))

    yield from rec(1, 1) if n > 1 else iter([labels.copy()])


def exhaustive_min_codelength(
    g: RelationGraph,
) -> tuple[Partition, MapEquationBreakdown]:
    """Global minimizer by Bell-number enumeration; |V| <= 12 only.

    Ties resolve to the first partition in enumeration order.
    """
    if g.n > 12:
        raise InfomapError(f"exhaustive search limited to 12 vertices, got {g.n}")
    if g.n == 0:
        raise InfomapError("empty graph")
    net = _net_from_graph(g)
    best_labels = None
    best_len = math.inf
    for labels in _set_partitions(g.n):
        m = max(labels) + 1
        length = _breakdown(net, labels, m).codelength
        if length < best_len:
            best_len = length
            best_labels = labels
    part = Partition.from_labels(best_labels)
    return part, _breakdown(net, part.assignment, part.m)
