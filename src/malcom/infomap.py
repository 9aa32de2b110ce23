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
aggregation into super-vertices.  The shuffle (``_PcgShuffle``) reproduces
numpy's seeded PCG64 permutations, so outputs do not depend on numpy.random.

A local move scores every neighbor community of a vertex.  Five of the
eight plogp terms of a move's codelength change do not depend on the
target: they are computed once per vertex (``_LocalState.best_move``) or
kept per community in caches that each applied move refreshes.  The
scores are still bit-identical to the scalar ``move_delta`` of
``tests/test_infomap.py``, which evaluates all eight terms: each
candidate adds the same doubles in the same order, with ``math.log2``.
The local moves choose exactly the moves of that scalar search, the
first strict minimum of ``move_delta`` in sorted candidate order, while
skipping repeated work (``_local_move_passes``):

- A vertex's neighbor-community weights ``w_to`` read only its
  neighbors' communities, so they are cached per vertex until a neighbor
  moves; each move drops the cached ``w_to`` of the mover's neighbors.
- A row of at least ``_ARRAY_MIN`` entries sums ``w_to`` with one
  ``np.bincount``, which adds in row order and so gives the same doubles.
  A visit with at least ``_ARRAY_MIN`` candidates is scored with numpy in
  ``best_move``'s order (``_LocalState.near_best``).  numpy's SIMD log2
  may differ from ``math.log2`` in the last ulp, so each numpy delta is
  within ``_DELTA_EPS`` of the exact one, and the numpy scores serve only
  as a certificate: the exact ``best_move`` re-scores the candidates
  within 2 * ``_DELTA_EPS`` of their minimum, among which the exact first
  minimum must lie.

A level's CSR holds no weights: each entry is an int32 neighbour id and
the int32 id of its edge, 8 B per entry, and a reader takes a row's
weights from the level's own edge weights, ``ew.take(eid[s:e])``, in row
order (at the first level, the graph's array, which is the weight set's).
Community exit sums and the aggregated edge weights walk the CSR rows in
slices of about ``_CHUNK`` entries, and a level's strengths walk its
edges ``_CHUNK`` at a time; each adds with ``np.add.at``, one term at a
time in order, as a bincount over all entries would: the sums are the
same doubles, and no temporary is |E| long.  Vertex and community ids
are int32.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import MalcomError, ParameterError
from .graph import RelationGraph, csr
from .weighting import VERTEX_ID

CONVERGENCE_TOLERANCE = 1e-10  # bits a local move must gain to be applied
# CSR entries per row slice of the exit and pair sums, and edges per slice
# of a level's strength, loop and total sums
_CHUNK = 1 << 16
# Row entries, and neighbor communities of a visit, from which numpy beats
# the scalar loop at summing w_to and at scoring candidates: of 24 to 192,
# 96 ran the benchmark's seed-7 graphs fastest (48 to 128 within noise).
_ARRAY_MIN = 96
# Bound on |numpy delta - exact delta| of one candidate, the exact delta
# being the tests' scalar move_delta and best_move's double.  Its three
# target-dependent plogp terms take x in [0, 2] (exit and visit rates sum
# to at most 1 each), where |x * log2(x)| <= 2, so a log2 off by k ulp
# moves a term by under (k + 1) * 4.4e-16: 2.2e-15 at k = 4 (numpy 2.4's
# np.log2 was measured within 1 ulp on x86-64).  The delta counts one term
# twice and rounds about ten sums of magnitude below 16 (3.6e-15 each):
# under 5e-14 in all, which 1e-12 covers 20-fold.
_DELTA_EPS = 1e-12


class InfomapError(MalcomError):
    pass


def _plogp(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(h: int, mult: int):
    """numpy SeedSequence's hash of successive 32-bit words."""
    def hashmix(v: int) -> int:
        nonlocal h
        h, v = h * mult & _M32, v ^ h
        v = v * h & _M32
        return v ^ v >> 16
    return hashmix


class _PcgShuffle:
    """``np.random.default_rng(seed).permutation(n)``, call after call,
    without importing ``numpy.random`` (5.5 MiB of RSS with its OpenSSL):
    ``SeedSequence``'s hash of the seed, PCG64 (O'Neill 2014), and
    ``Generator.shuffle``'s Fisher-Yates over 32-bit draws (low half of a
    64-bit output, then high), masked and redrawn while above the index."""

    def __init__(self, seed: int):
        words = [seed >> b & _M32 for b in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(words[k] if k < len(words) else 0) for k in range(4)]
        for src in range(max(4, len(words))):  # the pool, then words past it
            for dst in range(4):
                if src != dst:
                    v = hashmix(pool[src] if src < 4 else words[src])
                    v = (0xCA01F9DD * pool[dst] - 0x4973F715 * v) & _M32
                    pool[dst] = v ^ v >> 16
        draw = _hasher(0x8B51F9DD, 0x58F38DED)
        w = [draw(pool[k % 4]) for k in range(8)]
        s = [w[2 * k] | w[2 * k + 1] << 32 for k in range(4)]
        self._inc = ((s[2] << 64 | s[3]) << 1 | 1) & _M128
        start = self._inc + (s[0] << 64 | s[1])  # step from 0, add the seed state
        self._state = (start * _PCG_MULT + self._inc) & _M128
        self._high: Optional[int] = None  # the buffered half of a 64-bit draw

    def permutation(self, n: int) -> list[int]:
        a = list(range(n))
        state, inc, high = self._state, self._inc, self._high
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            v = i + 1
            while v > i:
                if high is None:
                    state = (state * _PCG_MULT + inc) & _M128
                    x, rot = (state >> 64 ^ state) & _M64, state >> 122
                    x = (x >> rot | x << (64 - rot)) & _M64
                    v, high = x & mask, x >> 32
                else:
                    v, high = high & mask, None
            a[i], a[v] = a[v], a[i]
        self._state, self._high = state, high
        return a


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

    def validate(self) -> None:
        if self.rng_seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.rng_seed}")


class _Net:
    """One aggregation level, built from edge arrays (ei, ej, ew).

    Non-loop edges form the CSR adjacency of ``graph.csr``: ``indptr``,
    ``indices`` with int32 vertex ids and ``eid`` with int32 edge ids, 8 B
    per entry.  ``ew`` keeps the non-loop weights the ids index, the given
    array itself when no edge is a loop (always at the first level), so an
    entry's weight is ``ew[eid[k]]`` and no CSR copy of it exists.  Loop
    weight lives in ``loop``, counts twice toward strength and once toward
    total weight, so aggregation preserves flows exactly.  All sums run in
    edge order, as an edge-by-edge loop would add, ``_CHUNK`` edges at a
    time: ``np.add.at`` for the loop and strength sums, and for the total
    a cumsum that starts from the previous chunk's, so no temporary is |E|
    long.  A sum that overflows is kept as inf, and ``visit_rates``
    rejects the graph.
    """

    def __init__(self, n: int, ei: np.ndarray, ej: np.ndarray, ew: np.ndarray):
        self.n = n
        self.loop = np.zeros(n, dtype=np.float64)
        self.strength = np.zeros(n, dtype=np.float64)
        total = np.zeros(1, dtype=np.float64)
        loops = False
        with np.errstate(over="ignore"):  # visit_rates rejects an inf total
            for s in range(0, len(ew), _CHUNK):
                i, j, w = ei[s : s + _CHUNK], ej[s : s + _CHUNK], ew[s : s + _CHUNK]
                is_loop = i == j
                loops = loops or bool(is_loop.any())
                np.add.at(self.loop, i[is_loop], w[is_loop])
                # both endpoints in edge order; a loop adds 2w once, at its edge
                end_w = np.repeat(w, 2)
                end_w[0::2][is_loop] *= 2.0
                end_w[1::2][is_loop] = 0.0
                np.add.at(self.strength, np.column_stack((i, j)).ravel(), end_w)
                total = np.cumsum(np.concatenate((total[-1:], w)))
        self.total_weight = float(total[-1])
        if loops:
            keep = ei != ej
            ei, ej, ew = ei[keep], ej[keep], ew[keep]
        self.ew = ew
        self.indptr, self.indices, self.eid = csr(n, ei, ej)
        # sum of plogp over the FINEST level's visit rates; aggregated nets
        # inherit it so codelengths stay comparable across levels
        self.fine_vertex_plogp: Optional[float] = None

    def own_vertex_plogp(self) -> float:
        return float(sum(_plogp(pv) for pv in self.visit_rates()))

    def visit_rates(self) -> np.ndarray:
        # strengths sum to twice the total weight, which must be finite too
        if not math.isfinite(2.0 * self.total_weight):
            raise InfomapError(
                f"graph total weight {self.total_weight} overflows the float64 range"
            )
        if self.total_weight <= 0.0:
            if self.n == 1:
                return np.array([1.0])
            raise InfomapError("graph with >= 2 vertices has zero total weight")
        return self.strength / (2.0 * self.total_weight)


def _net_from_graph(g: RelationGraph) -> _Net:
    # the one entry of detect and codelength
    if g.n == 0:
        raise InfomapError("empty graph")
    g.check()
    w = g.edge_w
    top = float(w.max(initial=0.0))
    if 0.0 < top < 2.0**-500:  # 1 / (2W) may overflow: an exact power-of-two
        w = np.ldexp(w, 1 - np.frexp(top)[1])  # scale, the largest to [1, 2)
    net = _Net(g.n, g.edge_i, g.edge_j, w)
    net.fine_vertex_plogp = net.own_vertex_plogp()
    return net


def _row_slices(net: _Net):
    """(r0, r1, entries, rows) of row ranges [r0, r1), in order and
    covering every row, of about _CHUNK CSR entries each (more when one
    row alone has more): ``entries`` slices their CSR entries, and
    ``rows`` holds each such entry's row vertex."""
    indptr = net.indptr
    r0 = 0
    while r0 < net.n:
        r1 = int(np.searchsorted(indptr, indptr[r0] + _CHUNK, side="right")) - 1
        r1 = max(r1, r0 + 1)
        counts = np.diff(indptr[r0 : r1 + 1])
        rows = np.repeat(np.arange(r0, r1, dtype=VERTEX_ID), counts)
        yield r0, r1, slice(indptr[r0], indptr[r1]), rows
        r0 = r1


def _exit_sums(net: _Net, assignment: np.ndarray, m: int, scale: float) -> np.ndarray:
    """Per community, the sum of weight * scale over the CSR entries that
    leave their row vertex's community, added in CSR order.

    Rows are walked in slices of about _CHUNK entries.  np.add.at adds a
    slice's terms one by one, in order, as np.bincount over all entries
    would, so every sum is the same double while only one slice's
    temporaries are alive, not |E|-long arrays.
    """
    sums = np.zeros(m, dtype=np.float64)
    for _, _, entries, rows in _row_slices(net):
        row_comm = assignment[rows]
        leaves = row_comm != assignment[net.indices[entries]]
        w = net.ew.take(net.eid[entries][leaves])
        np.add.at(sums, row_comm[leaves], w * scale)
    return sums


def _breakdown(net: _Net, assignment: list[int], m: int) -> MapEquationBreakdown:
    p = net.visit_rates()
    two_w = 2.0 * net.total_weight if net.total_weight > 0 else 1.0
    comm = np.asarray(assignment, dtype=VERTEX_ID)

    # raw inter-community weight per community
    q_exit = _exit_sums(net, comm, m, 1.0) / two_w
    q_total = float(q_exit.sum())

    if q_total > 0.0:
        index_entropy = -sum(
            _plogp(qi / q_total) for qi in q_exit if qi > 0.0
        )
    else:
        index_entropy = 0.0

    usage = q_exit + _sum_by(comm, p, m)

    # each module's exit term, then its members' terms in vertex order;
    # 0.0 - x, not -x, keeps a zero term +0.0
    u = usage.tolist()
    h = [0.0 - _plogp(q / uc) if q > 0.0 else 0.0 for q, uc in zip(q_exit.tolist(), u)]
    for pv, c in zip(p.tolist(), assignment):
        if pv > 0.0:
            h[c] -= _plogp(pv / u[c])
    module_entropy = np.array(h, dtype=np.float64)

    # the modules' terms added in module order: np.dot's order follows the
    # BLAS kernel picked for the CPU, which would change the last bit
    terms = usage * module_entropy
    codelength = q_total * index_entropy + (float(terms.cumsum()[-1]) if m else 0.0)
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


def _plogp_array(x: np.ndarray) -> np.ndarray:
    """plogp of each element with np.log2: within _DELTA_EPS / 8 of
    ``_plogp`` on [0, 2], and not always the same double."""
    out = np.zeros_like(x)
    np.log2(x, out=out, where=x > 0.0)
    out *= x
    return out


@dataclass
class MoveCounts:
    """What the local moves of a level did, summed over its passes."""

    visits: int = 0
    cached: int = 0  # visits that reused v's w_to
    cleared: int = 0  # cached w_to dropped because a neighbor moved
    array_rows: int = 0  # w_to summed by np.bincount
    wide: int = 0  # visits scored with numpy, then exactly near its minimum


class _LocalState:
    """Incrementally maintained codelength state for one level.

    Per-vertex values (``p``; ``d``, the exit rate of v as a singleton) and
    per-community values (``q``, ``sum_p``) are Python float lists: the
    scalar loop reads them faster than numpy elements, and each operation on
    them is the same IEEE double operation.  ``plogp_q[c]`` and
    ``plogp_u[c]`` cache plogp(q[c]) and plogp(q[c] + sum_p[c]), the terms
    of community c's codelength that do not depend on a candidate move;
    ``apply_move`` refreshes both for the two communities it changes.
    ``arrays`` mirrors q, sum_p, plogp_q and plogp_u as float64 arrays for
    ``near_best``, and ``comm`` the assignment as an int32 array.
    """

    def __init__(self, net: _Net, assignment: list[int]):
        self.net = net
        self.assignment = assignment
        p = net.visit_rates()
        two_w = 2.0 * net.total_weight if net.total_weight > 0 else 1.0
        self.inv_two_w = 1.0 / two_w
        self.d = ((net.strength - 2.0 * net.loop) * self.inv_two_w).tolist()
        m = max(assignment) + 1
        self.comm = np.asarray(assignment, dtype=VERTEX_ID)
        q = _exit_sums(net, self.comm, m, self.inv_two_w)
        self.q_total = float(q.sum())
        self.p = p.tolist()
        self.q = q.tolist()
        self.sum_p = _sum_by(self.comm, p, m).tolist()
        self.plogp_q = [_plogp(x) for x in self.q]
        self.plogp_u = [_plogp(x + y) for x, y in zip(self.q, self.sum_p)]
        self.arrays = np.array([self.q, self.sum_p, self.plogp_q, self.plogp_u])

    def _own_terms(self, v: int, w_va: float) -> tuple[float, ...]:
        """The terms of v's move deltas that do not depend on the target."""
        a = self.assignment[v]
        qa = self.q[a]
        qa_new = qa - self.d[v] + 2.0 * w_va
        return (
            self.q_total + (qa_new - qa),
            _plogp(self.q_total),
            _plogp(qa_new),
            _plogp(qa_new + self.sum_p[a] - self.p[v]),
            self.plogp_q[a],
            self.plogp_u[a],
        )

    def best_move(self, v: int, w_to: dict[int, float]) -> tuple[int, float]:
        """First strict minimum of the tests' scalar ``move_delta`` over the
        communities in sorted(w_to) other than v's own, as (community,
        delta), or (own community, 0.0) when no delta is negative.

        w_to: normalized edge weight from v into each neighbor community.
        The terms of the delta that do not depend on the target are
        computed once per call or read from the caches.  Each candidate's
        delta is still move_delta's expression, added in the same order
        (``base`` is the left operand Python adds first), with plogp
        inlined, so it is the same double, bit for bit.  w_to is walked in
        any order: among equal deltas the smaller id wins, and a zero delta
        never beats staying, as a walk in sorted order would choose.
        """
        log2 = math.log2
        q, sum_p, plogp_q, plogp_u = self.q, self.sum_p, self.plogp_q, self.plogp_u
        a = self.assignment[v]
        d_v = self.d[v]
        p_v = self.p[v]
        base, old_total, plogp_qa_new, plogp_ua_new, plogp_qa, plogp_ua = (
            self._own_terms(v, w_to.get(a, 0.0))
        )

        best_c, best_delta = a, 0.0
        for b, w_vb in w_to.items():
            if b == a:
                continue
            qb = q[b]
            qb_new = qb + d_v - 2.0 * w_vb
            x = base + (qb_new - qb)
            u = qb_new + sum_p[b] + p_v
            delta = (
                (x * log2(x) if x > 0.0 else 0.0)
                - old_total
                - 2.0 * (
                    plogp_qa_new
                    + (qb_new * log2(qb_new) if qb_new > 0.0 else 0.0)
                    - plogp_qa
                    - plogp_q[b]
                )
                + (
                    plogp_ua_new
                    + (u * log2(u) if u > 0.0 else 0.0)
                    - plogp_ua
                    - plogp_u[b]
                )
            )
            if delta < best_delta or (
                delta == best_delta and best_c != a and b < best_c
            ):
                best_c, best_delta = b, delta
        return best_c, best_delta

    def near_best(self, v: int, comms: np.ndarray, w: np.ndarray) -> dict[int, float]:
        """The part of w_to = dict(zip(comms, w)) that holds ``best_move``'s
        choice.

        Every candidate's delta is computed with numpy, in best_move's
        order; it differs from best_move's double (the tests' scalar
        ``move_delta``) only through np.log2, by
        less than _DELTA_EPS.  So each candidate at the exact minimum lies
        within 2 * _DELTA_EPS of the numpy minimum, and the candidates
        there, with v's own community, decide best_move.
        """
        a = self.assignment[v]
        own = comms == a
        w_va = float(w[own][0]) if own.any() else 0.0
        b, w_vb = comms[~own], w[~own]
        q, sum_p, plogp_q, plogp_u = self.arrays[:, b]
        d_v = self.d[v]
        p_v = self.p[v]
        base, old_total, plogp_qa_new, plogp_ua_new, plogp_qa, plogp_ua = (
            self._own_terms(v, w_va)
        )
        qb_new = q + d_v - 2.0 * w_vb
        delta = (
            _plogp_array(base + (qb_new - q))
            - old_total
            - 2.0 * (plogp_qa_new + _plogp_array(qb_new) - plogp_qa - plogp_q)
            + (plogp_ua_new + _plogp_array(qb_new + sum_p + p_v) - plogp_ua - plogp_u)
        )
        near = delta <= delta.min(initial=math.inf) + 2.0 * _DELTA_EPS
        w_to = dict(zip(b[near].tolist(), w_vb[near].tolist()))
        w_to[a] = w_va
        return w_to

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
            self.arrays[:, c] = (
                self.q[c], self.sum_p[c], self.plogp_q[c], self.plogp_u[c]
            )
        self.assignment[v] = target
        self.comm[v] = target


def _local_move_passes(
    net: _Net, rng: _PcgShuffle, counts: Optional[MoveCounts] = None
) -> list[int]:
    """Run shuffled local-move passes from all-singletons to convergence.

    Each visit moves v to ``best_move``'s choice when it gains more than
    CONVERGENCE_TOLERANCE.  Two rules skip work without changing a choice:

    - w_to reads only the communities of v's neighbors, so v keeps it in
      ``cache`` until a neighbor moves; a move drops the cached w_to of
      every neighbor of the mover.  Only w_to of fewer than _ARRAY_MIN
      communities are kept, so the cache holds < n * _ARRAY_MIN entries.
    - A row of >= _ARRAY_MIN entries sums w_to with one np.bincount, which
      adds in row order as the dict loop does, and a visit with
      >= _ARRAY_MIN neighbor communities is scored by ``near_best``.
    """
    assignment = list(range(net.n))
    state = _LocalState(net, assignment)
    indptr = net.indptr.tolist()
    indices, eid, ew, inv_two_w = net.indices, net.eid, net.ew, state.inv_two_w
    cache: list[Optional[dict[int, float]]] = [None] * net.n
    c = counts if counts is not None else MoveCounts()
    moved = True
    while moved:
        moved = False
        c.visits += net.n
        for v in rng.permutation(net.n):
            s, e = indptr[v], indptr[v + 1]
            w_to = cache[v]
            if w_to is not None:
                c.cached += 1
            elif e - s < _ARRAY_MIN:
                w_to = {}
                for u, w in zip(
                    indices[s:e].tolist(), (ew.take(eid[s:e]) * inv_two_w).tolist()
                ):
                    k = assignment[u]
                    if k in w_to:
                        w_to[k] += w
                    else:
                        w_to[k] = w  # == 0.0 + w, as a bincount adds it
                cache[v] = w_to
            else:
                c.array_rows += 1
                row_comm = state.comm[indices[s:e]]
                comms = np.flatnonzero(np.bincount(row_comm))
                sums = np.bincount(row_comm, weights=ew.take(eid[s:e]) * inv_two_w)
                if len(comms) < _ARRAY_MIN:
                    w_to = dict(zip(comms.tolist(), sums[comms].tolist()))
                    cache[v] = w_to
                else:
                    c.wide += 1
                    w_to = state.near_best(v, comms, sums[comms])
            a = assignment[v]
            best_c, best_delta = state.best_move(v, w_to)
            if best_c != a and best_delta < -CONVERGENCE_TOLERANCE:
                state.apply_move(v, best_c, w_to.get(a, 0.0), w_to[best_c])
                moved = True
                for u in indices[s:e].tolist():
                    if cache[u] is not None:
                        cache[u] = None
                        c.cleared += 1
    return assignment


def _aggregate(net: _Net, assignment: list[int], m: int) -> _Net:
    """Net with one super-vertex per community, edges in (a, b) order.

    Vertex by vertex, its self-loop and then its upper-triangle CSR entries
    are summed per community pair in that order.  The rows are walked
    twice, in the slices of ``_row_slices``: once for the sorted set of
    community-pair keys, once to add each term to its key's sum with
    np.add.at, in the order one bincount over all terms would add them.
    """
    comm = np.asarray(assignment, dtype=VERTEX_ID)
    keys = np.unique(
        np.concatenate(
            [np.unique(_pair_terms(net, comm, m, *r)[0]) for r in _row_slices(net)]
        )
    )
    sums = np.zeros(len(keys), dtype=np.float64)
    for r in _row_slices(net):
        key, w = _pair_terms(net, comm, m, *r)
        np.add.at(sums, np.searchsorted(keys, key), w)
    out = _Net(m, keys // m, keys % m, sums)
    out.fine_vertex_plogp = net.fine_vertex_plogp
    return out


def _pair_terms(
    net: _Net,
    comm: np.ndarray,
    m: int,
    r0: int,
    r1: int,
    entries: slice,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(community-pair key min * m + max, weight) of the self-loops and
    upper-triangle CSR entries of one ``_row_slices`` slice: by row
    vertex, each vertex's loop before its entries, in CSR order."""
    upper = net.indices[entries] > rows
    rows = rows[upper]
    ca, cb = comm[rows], comm[net.indices[entries][upper]]
    w = net.ew.take(net.eid[entries][upper])
    looped = r0 + np.flatnonzero(net.loop[r0:r1] > 0)
    if len(looped):  # only aggregated nets have loops
        at = np.searchsorted(rows, looped)  # before the vertex's own entries
        ca, cb = np.insert(ca, at, comm[looped]), np.insert(cb, at, comm[looped])
        w = np.insert(w, at, net.loop[looped])
    key = np.minimum(ca, cb).astype(np.int64)  # int64: a * m overflows int32
    key *= m
    key += np.maximum(ca, cb)
    return key, w


def detect(
    g: RelationGraph, cfg: DetectorConfig | None = None
) -> tuple[Partition, MapEquationBreakdown]:
    """Minimize the map equation by local moves plus multilevel aggregation.

    Deterministic for a fixed seed; returns the flat vertex-level partition
    (canonical ids by first appearance in vertex order) and its breakdown.
    """
    if cfg is None:
        cfg = DetectorConfig()
    cfg.validate()
    rng = _PcgShuffle(cfg.rng_seed)

    fine = net = _net_from_graph(g)
    vertex_node = list(range(g.n))  # original vertex -> current-level node
    while True:
        assignment = _local_move_passes(net, rng)
        dense = Partition.from_labels(assignment)
        if dense.m == net.n:
            break  # no merges at this level; converged
        vertex_node = [dense.assignment[node] for node in vertex_node]
        net = _aggregate(net, dense.assignment, dense.m)

    part = Partition.from_labels(vertex_node)
    return part, _breakdown(fine, part.assignment, part.m)

