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

A local move scores every neighbor community of a vertex.  Five of the
eight plogp terms of a move's codelength change do not depend on the
target: they are computed once per vertex (``_LocalState.best_move``) or
kept per community in caches that each applied move refreshes.  The
scores are still bit-identical to ``_LocalState.move_delta``: each
candidate adds the same doubles in the same order.  plogp stays
``math.log2`` on Python floats and is not vectorized with numpy, whose
SIMD log2 may differ in the last ulp and so flip a near-tied choice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import MalcomError
from .graph import RelationGraph, csr

CONVERGENCE_TOLERANCE = 1e-10  # bits a local move must gain to be applied


class InfomapError(MalcomError):
    pass


def _plogp(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


def _sum_by(index: np.ndarray, w: np.ndarray, m: int) -> np.ndarray:
    """Float64 sums of w per index in 0..m-1, added in input order."""
    # np.bincount yields an int64 array when index is empty
    return np.bincount(index, weights=w, minlength=m).astype(np.float64)


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


class _Net:
    """One aggregation level, built from edge arrays (ei, ej, ew).

    Non-loop edges form the CSR adjacency of ``graph.csr`` (``indptr``,
    ``indices``, ``weights``; ``rows()`` is each entry's row vertex).  Loop
    weight lives in ``loop``, counts twice toward strength and once toward
    total weight, so aggregation preserves flows exactly.  All sums run in
    edge order (bincount, cumsum), as an edge-by-edge loop would add.
    """

    def __init__(self, n: int, ei: np.ndarray, ej: np.ndarray, ew: np.ndarray):
        self.n = n
        is_loop = ei == ej
        self.loop = _sum_by(ei[is_loop], ew[is_loop], n)
        # both endpoints in edge order; a loop adds 2w once, at its edge
        end_w = np.repeat(ew, 2)
        end_w[0::2][is_loop] *= 2.0
        end_w[1::2][is_loop] = 0.0
        self.strength = _sum_by(np.column_stack((ei, ej)).ravel(), end_w, n)
        del end_w  # each temporary is freed once read: E can be millions
        self.total_weight = float(np.cumsum(ew)[-1]) if len(ew) else 0.0
        if is_loop.any():
            keep = ~is_loop
            ei, ej, ew = ei[keep], ej[keep], ew[keep]
        self.indptr, self.indices, self.weights = csr(n, ei, ej, ew)
        # sum of plogp over the FINEST level's visit rates; aggregated nets
        # inherit it so codelengths stay comparable across levels
        self.fine_vertex_plogp: Optional[float] = None

    def rows(self) -> np.ndarray:
        """Row vertex of every CSR entry; built per call, not kept."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

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


def _exits(net: _Net, assignment: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Community and weight of every CSR entry that leaves its row
    vertex's community, in CSR order."""
    row_comm = assignment[net.rows()]
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


def _codelength_terms(q_tot: float, q: list[float], usage: list[float]) -> float:
    """L minus the constant -sum plogp(p_v) term, in expanded form."""
    return (
        _plogp(q_tot)
        - 2.0 * sum(_plogp(x) for x in q)
        + sum(_plogp(x) for x in usage)
    )


class _LocalState:
    """Incrementally maintained codelength state for one level.

    Per-vertex values (``p``; ``d``, the exit rate of v as a singleton) and
    per-community values (``q``, ``sum_p``) are Python float lists: the
    scalar loop reads them faster than numpy elements, and each operation on
    them is the same IEEE double operation.  ``plogp_q[c]`` and
    ``plogp_u[c]`` cache plogp(q[c]) and plogp(q[c] + sum_p[c]), the terms
    of community c's codelength that do not depend on a candidate move;
    ``apply_move`` refreshes both for the two communities it changes.
    """

    def __init__(self, net: _Net, assignment: list[int]):
        self.net = net
        self.assignment = assignment
        p = net.visit_rates()
        two_w = 2.0 * net.total_weight if net.total_weight > 0 else 1.0
        self.inv_two_w = 1.0 / two_w
        self.d = ((net.strength - 2.0 * net.loop) * self.inv_two_w).tolist()
        m = max(assignment) + 1
        comm = np.asarray(assignment, dtype=np.int64)
        exit_comm, exit_w = _exits(net, comm)
        q = _sum_by(exit_comm, exit_w * self.inv_two_w, m)
        self.q_total = float(q.sum())
        self.p = p.tolist()
        self.q = q.tolist()
        self.sum_p = _sum_by(comm, p, m).tolist()
        self.plogp_q = [_plogp(x) for x in self.q]
        self.plogp_u = [_plogp(x + y) for x, y in zip(self.q, self.sum_p)]
        fine = net.fine_vertex_plogp
        self.const = -(fine if fine is not None else net.own_vertex_plogp())

    def codelength(self) -> float:
        usage = [x + y for x, y in zip(self.q, self.sum_p)]
        return _codelength_terms(self.q_total, self.q, usage) + self.const

    def move_delta(self, v: int, target: int, w_va: float, w_vb: float) -> float:
        """Codelength change of moving v from its community to target.

        w_va / w_vb: normalized edge weight from v into its current /
        target community (excluding v itself).
        """
        a = self.assignment[v]
        d_v = self.d[v]
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

    def best_move(self, v: int, w_to: dict[int, float]) -> tuple[int, float]:
        """First strict minimum of ``move_delta`` over the communities in
        sorted(w_to) other than v's own, as (community, delta), or
        (own community, 0.0) when no delta is negative.

        w_to: normalized edge weight from v into each neighbor community.
        The terms of the delta that do not depend on the target are
        computed once per call or read from the caches.  Each candidate's
        delta is still move_delta's expression, added in the same order
        (``base`` is the left operand Python adds first), so it is the same
        double, bit for bit.
        """
        q, sum_p, plogp_q, plogp_u = self.q, self.sum_p, self.plogp_q, self.plogp_u
        a = self.assignment[v]
        d_v = self.d[v]
        p_v = self.p[v]
        qa = q[a]
        qa_new = qa - d_v + 2.0 * w_to.get(a, 0.0)
        base = self.q_total + (qa_new - qa)
        old_total = _plogp(self.q_total)
        plogp_qa_new = _plogp(qa_new)
        plogp_ua_new = _plogp(qa_new + sum_p[a] - p_v)
        plogp_qa = plogp_q[a]
        plogp_ua = plogp_u[a]

        best_c, best_delta = a, 0.0
        for b in sorted(w_to):
            if b == a:
                continue
            qb = q[b]
            qb_new = qb + d_v - 2.0 * w_to[b]
            delta = (
                _plogp(base + (qb_new - qb))
                - old_total
                - 2.0 * (plogp_qa_new + _plogp(qb_new) - plogp_qa - plogp_q[b])
                + (
                    plogp_ua_new
                    + _plogp(qb_new + sum_p[b] + p_v)
                    - plogp_ua
                    - plogp_u[b]
                )
            )
            if delta < best_delta:
                best_c, best_delta = b, delta
        return best_c, best_delta

    def apply_move(self, v: int, target: int, w_va: float, w_vb: float) -> None:
        a = self.assignment[v]
        d_v = self.d[v]
        p_v = self.p[v]
        qa_new = self.q[a] - d_v + 2.0 * w_va
        qb_new = self.q[target] + d_v - 2.0 * w_vb
        self.q_total += (qa_new - self.q[a]) + (qb_new - self.q[target])
        self.q[a] = qa_new
        self.q[target] = qb_new
        self.sum_p[a] -= p_v
        self.sum_p[target] += p_v
        for c in (a, target):
            self.plogp_q[c] = _plogp(self.q[c])
            self.plogp_u[c] = _plogp(self.q[c] + self.sum_p[c])
        self.assignment[v] = target


def _local_move_passes(
    net: _Net, rng: np.random.Generator, tol: float
) -> list[int]:
    """Run shuffled local-move passes from all-singletons to convergence."""
    assignment = list(range(net.n))
    state = _LocalState(net, assignment)
    indptr = net.indptr.tolist()
    inv_two_w = state.inv_two_w
    while True:
        moved = False
        order = rng.permutation(net.n)
        for v in order.tolist():
            # normalized weight from v into each neighbor community
            w_to: dict[int, float] = {}
            s, e = indptr[v], indptr[v + 1]
            for u, w in zip(net.indices[s:e].tolist(), net.weights[s:e].tolist()):
                c = assignment[u]
                w_to[c] = w_to.get(c, 0.0) + w * inv_two_w
            a = assignment[v]
            best_c, best_delta = state.best_move(v, w_to)
            if best_c != a and best_delta < -tol:
                state.apply_move(v, best_c, w_to.get(a, 0.0), w_to[best_c])
                moved = True
        if not moved:
            break
    return assignment


def _aggregate(net: _Net, assignment: list[int], m: int) -> _Net:
    """Net with one super-vertex per community, edges in (a, b) order.

    Vertex by vertex, its self-loop and then its upper-triangle CSR entries
    are summed per community pair in that order, by bincount.
    """
    comm = np.asarray(assignment, dtype=np.int64)
    looped = np.flatnonzero(net.loop > 0)
    # each temporary is freed once read: the first level has |E| entries
    rows = net.rows()
    upper = net.indices > rows
    src = np.concatenate((looped, rows[upper]))
    del rows
    # stable by fine vertex; loops were listed first
    order = np.argsort(src, kind="stable")
    ca = comm[src[order]]
    del src
    cb = comm[np.concatenate((looped, net.indices[upper]))[order]]
    w = np.concatenate((net.loop[looped], net.weights[upper]))[order]
    del upper, order
    key = np.minimum(ca, cb)
    key *= m
    key += np.maximum(ca, cb, out=ca)
    del ca, cb
    keys, inverse = np.unique(key, return_inverse=True)
    del key
    out = _Net(m, keys // m, keys % m, _sum_by(inverse, w, len(keys)))
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

    fine = net = _net_from_graph(g)
    vertex_node = list(range(g.n))  # original vertex -> current-level node
    while True:
        assignment = _local_move_passes(net, rng, CONVERGENCE_TOLERANCE)
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
