import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import entropy_bits, make_graph, random_graph
from malcom import infomap
from malcom.graph import RelationGraph, row_ids, row_pointer
from malcom.infomap import (
    DetectorConfig,
    InfomapError,
    MoveCounts,
    Partition,
    _aggregate,
    _breakdown,
    _exit_sums,
    _local_move_passes,
    _LocalState,
    _Net,
    _net_from_graph,
    _plogp,
    _PcgShuffle,
    _plogp_array,
    _sum_by,
    codelength,
    detect,
)


class TestComputeFlows:
    def test_barbell_bridge_vertex(self, barbell):
        visit_rates = _net_from_graph(barbell).visit_rates()
        assert visit_rates[barbell.vertices.index("3")] == pytest.approx(3 / 14)
        assert visit_rates.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_edge_symmetric(self):
        g = make_graph(["a", "b"], {("a", "b"): 1.0})
        visit_rates = _net_from_graph(g).visit_rates()
        assert list(visit_rates) == [0.5, 0.5]

    def test_star(self):
        g = make_graph(
            ["c", "l1", "l2", "l3"],
            {("c", "l1"): 1.0, ("c", "l2"): 1.0, ("c", "l3"): 1.0},
        )
        visit_rates = _net_from_graph(g).visit_rates()
        assert visit_rates[0] == pytest.approx(0.5)
        assert visit_rates[1] == pytest.approx(1 / 6)

    def test_zero_weight_multivertex_rejected(self):
        g = make_graph(["a", "b"], {})
        with pytest.raises(InfomapError):
            _net_from_graph(g).visit_rates()


def reference_net_arrays(n, ei, ej, ew):
    """strength, indptr, indices and weights as _Net built them with every
    temporary alive at once; the arrays it must still produce."""
    is_loop = ei == ej
    ends = np.column_stack((ei, ej)).ravel()
    end_w = np.column_stack(
        (np.where(is_loop, 2.0 * ew, ew), np.where(is_loop, 0.0, ew))
    ).ravel()
    strength = _sum_by(ends, end_w, n)
    i, j, w = ei[~is_loop], ej[~is_loop], ew[~is_loop]
    src = np.column_stack((i, j)).ravel()
    dst = np.column_stack((j, i)).ravel()
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return strength, indptr, dst[order], np.repeat(w, 2)[order]


def entry_weights(net):
    """Weight of every CSR entry, gathered through its edge id."""
    return net.ew.take(net.eid)


def rows_of(net):
    """Row vertex of every CSR entry, as one |E|-long array."""
    return np.repeat(np.arange(net.n), np.diff(net.indptr))


def exits(net, assignment):
    """Community and weight of every CSR entry that leaves its row vertex's
    community, in CSR order: the whole-array form of ``_exit_sums``."""
    row_comm = assignment[rows_of(net)]
    leaves = row_comm != assignment[net.indices]
    return row_comm[leaves], entry_weights(net)[leaves]


def reference_aggregate(net, assignment, m):
    """``_aggregate`` in one pass over |E|-long arrays: each fine vertex's
    loop, then its upper-triangle entries, summed per community pair by one
    bincount."""
    comm = np.asarray(assignment, dtype=np.int64)
    looped = np.flatnonzero(net.loop > 0)
    rows = rows_of(net)
    upper = net.indices > rows
    src = np.concatenate((looped, rows[upper]))
    order = np.argsort(src, kind="stable")
    ca = comm[src[order]]
    cb = comm[np.concatenate((looped, net.indices[upper]))[order]]
    w = np.concatenate((net.loop[looped], entry_weights(net)[upper]))[order]
    key = np.minimum(ca, cb) * m + np.maximum(ca, cb)
    keys, inverse = np.unique(key, return_inverse=True)
    return _Net(row_pointer(keys // m, m), keys % m, _sum_by(inverse, w, len(keys)))


def net_of(n, ei, ej, ew):
    """The net of the edges (ei[e], ej[e], ew[e]), ei ascending."""
    return _Net(row_pointer(ei, n), ej, ew)


@st.composite
def edge_arrays_with_loops(draw):
    n = draw(st.integers(1, 10))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.floats(0.001, 100.0)),
                          max_size=30))
    edges.sort(key=lambda e: e[0])  # stored by row: stable, rows as drawn
    cols = list(zip(*edges)) or [(), (), ()]
    return (
        n,
        np.array(cols[0], dtype=np.int64),
        np.array(cols[1], dtype=np.int64),
        np.array(cols[2], dtype=np.float64),
    )


@given(edge_arrays_with_loops())
def test_net_arrays_match_reference(case):
    net = net_of(*case)
    got = (net.strength, net.indptr, net.indices, entry_weights(net))
    dtypes = (np.float64, np.int64, np.int32, np.float64)
    for a, b, dtype in zip(got, reference_net_arrays(*case), dtypes):
        assert a.dtype == dtype and a.tobytes() == b.astype(dtype).tobytes()


MILLIS = st.integers(1, 10**6).map(lambda k: k / 1000)


@st.composite
def layout_edge_arrays(draw):
    """Edge arrays as detect lists every level: distinct pairs sorted by
    (min, max), so at most one loop per vertex, first in its row.  Weights
    of three decimals are inexact in binary: a sum's order shows."""
    n = draw(st.integers(1, 10))
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex).map(lambda t: (min(t), max(t)))
    pairs = sorted(draw(st.sets(pair, max_size=30)))
    w = draw(st.lists(MILLIS, min_size=len(pairs), max_size=len(pairs)))
    cols = list(zip(*pairs)) or [(), ()]
    i, j = (np.array(c, dtype=np.int64) for c in cols)
    return n, i, j, np.array(w, dtype=np.float64)


@st.composite
def nets_with_partitions(draw, edges=edge_arrays_with_loops()):
    """A random net with loops, or such a net aggregated by a random
    partition (super-vertices carry loops), and a random partition of it;
    partitions of few communities sum many terms per community pair."""
    net = net_of(*draw(edges))
    n = net.n
    label = st.integers(0, draw(st.integers(0, 9)))
    if draw(st.booleans()):
        coarse = Partition.from_labels(draw(st.lists(label, min_size=n, max_size=n)))
        net = reference_aggregate(net, coarse.assignment, coarse.m)
    labels = draw(st.lists(label, min_size=net.n, max_size=net.n))
    return net, Partition.from_labels(labels)


@pytest.mark.parametrize("chunk", [1, 3, 1 << 20])
@given(case=nets_with_partitions(), scale=st.floats(0.001, 10.0))
def test_exit_sums_match_bincount_over_all_exits(chunk, case, scale):
    net, part = case
    comm = np.asarray(part.assignment, dtype=np.int32)
    exit_comm, exit_w = exits(net, comm)
    want = _sum_by(exit_comm, exit_w * scale, part.m)
    with mock.patch.object(infomap, "_CHUNK", chunk):
        got = _exit_sums(net, comm, part.m, scale)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk", [1, 3, 1 << 20])
@given(case=nets_with_partitions(layout_edge_arrays()))
def test_aggregate_matches_reference(chunk, case):
    """On a net listed as detect lists its levels, the edge order is the
    reference's CSR order: the same doubles."""
    net, part = case
    want = reference_aggregate(net, part.assignment, part.m)
    with mock.patch.object(infomap, "_CHUNK", chunk):
        got = _aggregate(net, part.assignment, part.m)
    assert (got.n, got.total_weight) == (want.n, want.total_weight)
    for name in ("loop", "strength", "indptr", "indices", "eid", "ew"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def layout_graphs(draw):
    """Graphs in RelationGraph's layout (ids ascending, pairs i < j listed
    row-major) with weights whose sums depend on their order."""
    n = draw(st.integers(2, 16))
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex).filter(lambda t: t[0] < t[1])
    pairs = sorted(draw(st.sets(pair, min_size=1, max_size=40)))
    w = draw(st.lists(MILLIS, min_size=len(pairs), max_size=len(pairs)))
    i, j = (np.array(c) for c in zip(*pairs))
    return RelationGraph.from_pairs([f"v{v:02d}" for v in range(n)], i, j, np.array(w))


@given(layout_graphs(), st.integers(0, 3))
def test_detect_aggregates_as_the_reference(g, seed):
    """Every level detect aggregates lists its edges by strictly ascending
    (min, max) key, so the edge-order sums are the CSR-order reference's:
    the same partition and codelength double."""
    def checked(aggregate):
        def run(net, assignment, m):
            ei = row_ids(net.ptr)
            lo, hi = np.minimum(ei, net.ej), np.maximum(ei, net.ej)
            key = lo.astype(np.int64) * net.n + hi
            assert (key[1:] > key[:-1]).all()
            return aggregate(net, assignment, m)
        return run

    results = []
    for aggregate in (_aggregate, reference_aggregate):
        with mock.patch.object(infomap, "_aggregate", checked(aggregate)):
            results.append(detect(g, DetectorConfig(rng_seed=seed)))
    (got, got_bd), (want, want_bd) = results
    assert got == want and got_bd.codelength == want_bd.codelength


def random_400k_graph(rng):
    """3000 vertices and 400k distinct random pairs, listed row-major."""
    n, edges = 3000, 400_000
    a, b = rng.integers(0, n, size=(2, 2 * edges))
    key = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    key = rng.permutation(key[key // n != key % n])[:edges]
    return RelationGraph.from_pairs(
        [f"v{v}" for v in range(n)], key // n, key % n, rng.uniform(0.1, 5.0, edges)
    )


def test_first_level_net_holds_eight_bytes_per_csr_entry():
    """The net of a graph holds (tracemalloc counts numpy buffers) its CSR
    at 8 B per entry, an int32 neighbour and an int32 edge id, plus
    n-sized arrays: the weights are the graph's own.  A CSR that keeps a
    float64 weight per entry as well, 12 B in all, fails this."""
    g = random_400k_graph(np.random.default_rng(5))
    tracemalloc.start()
    try:
        net = _net_from_graph(g)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    entries = 2 * g.num_edges
    assert held <= 8 * entries + 64 * (g.n + 1)
    assert net.ew is g.edge_w


def test_first_level_sums_allocate_a_fraction_of_the_csr():
    """The local-move state at singletons, the breakdown and the
    aggregation hold one row slice of temporaries, not |E|-long arrays:
    each allocates (tracemalloc counts numpy buffers) under a fixed share
    of the CSR bytes above the net it reads."""
    rng = np.random.default_rng(3)
    g = random_400k_graph(rng)
    n = g.n
    net = _net_from_graph(g)
    csr_bytes = net.indptr.nbytes + net.indices.nbytes + entry_weights(net).nbytes
    labels = rng.integers(0, 40, size=n).tolist()
    part = Partition.from_labels(labels)

    def allocated(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert allocated(lambda: _LocalState(net, list(range(n)))) < 0.4 * csr_bytes
    assert allocated(lambda: _breakdown(net, part.assignment, part.m)) < 0.4 * csr_bytes
    assert allocated(lambda: _aggregate(net, part.assignment, part.m)) < 0.4 * csr_bytes


class TestCodelength:
    def test_barbell_two_communities(self, barbell):
        bd = codelength(barbell, Partition.from_labels([0, 0, 0, 1, 1, 1]))
        assert bd.codelength == pytest.approx(2.3207, abs=1e-3)
        assert bd.q_total == pytest.approx(1 / 7)
        assert bd.index_entropy == pytest.approx(1.0)
        assert bd.module_usage[0] == pytest.approx(4 / 7)
        assert bd.module_entropy[0] == pytest.approx(1.90564, abs=1e-5)

    def test_barbell_one_community(self, barbell):
        bd = codelength(barbell, Partition.from_labels([0] * 6))
        assert bd.q_total == 0.0
        visit = [2 / 14] * 2 + [3 / 14] * 2 + [2 / 14] * 2
        assert bd.codelength == pytest.approx(entropy_bits(visit), abs=1e-12)
        assert bd.codelength == pytest.approx(2.5567, abs=1e-3)

    def test_barbell_singletons(self, barbell):
        bd = codelength(barbell, Partition.from_labels(list(range(6))))
        assert bd.codelength == pytest.approx(4.5567, abs=1e-3)

    def test_breakdown_recomposes(self, barbell, two_cliques):
        for g, labels in (
            (barbell, [0, 0, 1, 1, 2, 2]),
            (two_cliques, [0, 0, 0, 0, 1, 1, 1, 1]),
        ):
            bd = codelength(g, Partition.from_labels(labels))
            recomposed = bd.q_total * bd.index_entropy + float(
                np.dot(bd.module_usage, bd.module_entropy)
            )
            assert bd.codelength == pytest.approx(recomposed, abs=1e-12)

    def test_partition_mismatch_rejected(self, barbell):
        with pytest.raises(InfomapError):
            codelength(barbell, Partition.from_labels([0, 0, 1]))

    def test_empty_graph_rejected(self):
        with pytest.raises(InfomapError, match="^empty graph$"):
            codelength(make_graph([], {}), Partition([], 0))

    def test_entropy_bounds(self, barbell):
        part = Partition.from_labels([0, 0, 1, 1, 2, 2])
        bd = codelength(barbell, part)
        assert 0 <= bd.index_entropy <= math.log2(part.m)
        sizes = [2, 2, 2]
        for h, size in zip(bd.module_entropy, sizes):
            assert 0 <= h <= math.log2(size + 1)  # members + exit symbol


class TestDetect:
    def test_barbell_any_seed(self, barbell):
        for seed in (0, 1, 2, 3, 42):
            part, bd = detect(barbell, DetectorConfig(rng_seed=seed))
            assert part.assignment == [0, 0, 0, 1, 1, 1]
            assert bd.codelength == pytest.approx(2.3207, abs=1e-3)

    def test_single_edge_one_community(self):
        g = make_graph(["a", "b"], {("a", "b"): 1.0})
        part, bd = detect(g)
        assert part.m == 1
        assert bd.codelength == pytest.approx(1.0, abs=1e-12)

    def test_single_vertex(self):
        g = make_graph(["a"], {})
        part, bd = detect(g)
        assert part.m == 1
        assert bd.codelength == 0.0

    def test_empty_graph_rejected(self):
        with pytest.raises(InfomapError, match="^empty graph$"):
            detect(make_graph([], {}))

    def test_deterministic_per_seed(self, two_cliques):
        a1 = detect(two_cliques, DetectorConfig(rng_seed=9))[0].assignment
        a2 = detect(two_cliques, DetectorConfig(rng_seed=9))[0].assignment
        assert a1 == a2

    def test_improves_on_singletons(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_graph(rng)
            part, bd = detect(g, DetectorConfig(rng_seed=1))
            singleton = codelength(g, Partition.from_labels(list(range(g.n))))
            assert bd.codelength <= singleton.codelength + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**200 - 1),
    sizes=st.lists(st.integers(0, 5000), min_size=1, max_size=8),
)
def test_shuffle_is_numpys_permutation_stream(seed, sizes):
    """detect's shuffle draws numpy's default_rng(seed) permutations, call
    after call: odd sizes leave half a 64-bit draw buffered for the next."""
    ours, numpys = _PcgShuffle(seed), np.random.default_rng(seed)
    for n in sizes:
        assert ours.permutation(n) == numpys.permutation(n).tolist()


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


def exhaustive_min_codelength(g):
    """Global minimizer by Bell-number enumeration; |V| <= 12 only.

    Ties resolve to the first partition in enumeration order.
    """
    if g.n > 12:
        raise InfomapError(f"exhaustive search limited to 12 vertices, got {g.n}")
    net = _net_from_graph(g)
    best_labels = None
    best_len = math.inf
    for labels in _set_partitions(g.n):
        length = _breakdown(net, labels, max(labels) + 1).codelength
        if length < best_len:
            best_len = length
            best_labels = labels
    part = Partition.from_labels(best_labels)
    return part, _breakdown(net, part.assignment, part.m)


class TestExhaustive:
    def test_barbell(self, barbell):
        part, bd = exhaustive_min_codelength(barbell)
        assert part.assignment == [0, 0, 0, 1, 1, 1]
        assert bd.codelength == pytest.approx(2.3207, abs=1e-3)

    def test_single_edge(self):
        g = make_graph(["a", "b"], {("a", "b"): 1.0})
        part, bd = exhaustive_min_codelength(g)
        assert part.m == 1
        assert bd.codelength == pytest.approx(1.0, abs=1e-12)

    def test_triangle(self, triangle):
        part, bd = exhaustive_min_codelength(triangle)
        assert part.m == 1
        assert bd.codelength == pytest.approx(math.log2(3), abs=1e-12)

    def test_size_limit(self):
        g = random_graph(np.random.default_rng(0), n=13)
        with pytest.raises(InfomapError):
            exhaustive_min_codelength(g)

    def test_detect_never_beats_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            g = random_graph(rng, n=int(rng.integers(2, 8)))
            _, got = detect(g, DetectorConfig(rng_seed=3))
            _, best = exhaustive_min_codelength(g)
            assert got.codelength >= best.codelength - 1e-9


def random_partition(rng, n):
    labels = [int(rng.integers(0, max(1, n // 2 + 1))) for _ in range(n)]
    return Partition.from_labels(labels)


class TestIncrementalConsistency:
    def test_move_delta_matches_recompute(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            g = random_graph(rng, n=int(rng.integers(3, 12)))
            net = _net_from_graph(g)
            part = random_partition(rng, g.n)
            state = _LocalState(net, list(part.assignment))
            v = int(rng.integers(g.n))
            target = int(rng.integers(part.m))
            if target == state.assignment[v]:
                continue
            w_to = {}
            s, e = net.indptr[v], net.indptr[v + 1]
            wts = entry_weights(net)[s:e].tolist()
            for u, w in zip(net.indices[s:e].tolist(), wts):
                c = state.assignment[u]
                w_to[c] = w_to.get(c, 0.0) + w * state.inv_two_w
            w_va = w_to.get(state.assignment[v], 0.0)
            w_vb = w_to.get(target, 0.0)
            before = local_codelength(state)
            delta = move_delta(state, v, target, w_va, w_vb)
            state.apply_move(v, target, w_va, w_vb)
            after = local_codelength(state)
            assert delta == pytest.approx(after - before, abs=1e-9)

    def test_aggregation_preserves_codelength(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            g = random_graph(rng, n=int(rng.integers(3, 12)))
            net = _net_from_graph(g)
            part = random_partition(rng, g.n)
            original = _breakdown(net, part.assignment, part.m).codelength
            identity = aggregated_codelength(net, part)
            assert identity == pytest.approx(original, abs=1e-9)


def vertex_plogp(net):
    """Sum of plogp over a net's visit rates: the constant by which a
    codelength in its vertices' terms differs from one in others'."""
    return sum(_plogp(pv) for pv in net.visit_rates())


def aggregated_codelength(net, part):
    """Codelength of the singletons of net aggregated by part, stated in
    the vertices of net: the codelength of part on net."""
    agg = _aggregate(net, part.assignment, part.m)
    identity = _breakdown(agg, list(range(part.m)), part.m).codelength
    return identity + vertex_plogp(agg) - vertex_plogp(net)


def local_codelength(state):
    """L of a _LocalState in expanded form, from its cached plogp terms:
    the value whose change ``move_delta`` must predict."""
    return (
        _plogp(state.q_total) - 2.0 * sum(state.plogp_q) + sum(state.plogp_u)
    ) - vertex_plogp(state.net)


def move_delta(state, v, target, w_va, w_vb):
    """Codelength change of moving v from its community to target, with
    all eight plogp terms evaluated: the scalar reference that best_move
    and near_best are checked against.  ``state`` is a _LocalState or a
    _ScalarState.

    w_va / w_vb: normalized edge weight from v into its current /
    target community (excluding v itself).
    """
    a = state.assignment[v]
    d_v = (state.net.strength[v] - 2.0 * state.net.loop[v]) * state.inv_two_w
    p_v = state.p[v]
    qa, qb = state.q[a], state.q[target]
    qa_new = qa - d_v + 2.0 * w_va
    qb_new = qb + d_v - 2.0 * w_vb
    q_tot_new = state.q_total + (qa_new - qa) + (qb_new - qb)
    ua = qa + state.sum_p[a]
    ub = qb + state.sum_p[target]
    ua_new = qa_new + state.sum_p[a] - p_v
    ub_new = qb_new + state.sum_p[target] + p_v
    return (
        _plogp(q_tot_new)
        - _plogp(state.q_total)
        - 2.0 * (_plogp(qa_new) + _plogp(qb_new) - _plogp(qa) - _plogp(qb))
        + (_plogp(ua_new) + _plogp(ub_new) - _plogp(ua) - _plogp(ub))
    )


class _ScalarState:
    """The local-move state as it was before best_move: numpy arrays, no
    plogp caches; ``move_delta`` scores every candidate on it."""

    def __init__(self, net, assignment):
        self.net = net
        self.assignment = assignment
        self.p = net.visit_rates()
        two_w = 2.0 * net.total_weight if net.total_weight > 0 else 1.0
        self.inv_two_w = 1.0 / two_w
        m = max(assignment) + 1
        comm = np.asarray(assignment, dtype=np.int64)
        self.sum_p = _sum_by(comm, self.p, m)
        exit_comm, exit_w = exits(net, comm)
        self.q = _sum_by(exit_comm, exit_w * self.inv_two_w, m)
        self.q_total = float(self.q.sum())

    def apply_move(self, v, target, w_va, w_vb):
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


def scalar_local_move_passes(net, rng):
    """Reference local-move loop: every candidate scored by move_delta."""
    assignment = list(range(net.n))
    state = _ScalarState(net, assignment)
    indptr = net.indptr.tolist()
    nbrs = net.indices.tolist()
    wts = entry_weights(net).tolist()
    while True:
        moved = False
        # numpy's Generator gives an ndarray, detect's _PcgShuffle a list
        for v in np.asarray(rng.permutation(net.n)).tolist():
            a = state.assignment[v]
            w_to = {}
            s, e = indptr[v], indptr[v + 1]
            for u, w in zip(nbrs[s:e], wts[s:e]):
                c = state.assignment[u]
                w_to[c] = w_to.get(c, 0.0) + w * state.inv_two_w
            w_va = w_to.get(a, 0.0)
            best_c, best_delta = a, 0.0
            for c in sorted(w_to):
                if c == a:
                    continue
                delta = move_delta(state, v, c, w_va, w_to[c])
                if delta < best_delta:
                    best_delta, best_c = delta, c
            if best_c != a and best_delta < -infomap.CONVERGENCE_TOLERANCE:
                state.apply_move(v, best_c, w_va, w_to[best_c])
                moved = True
        if not moved:
            break
    return state.assignment


def oracle_graph(rng):
    """Random graph of 2-60 vertices in up to 6 planted groups, denser
    inside a group than across; every other graph has integer weights, so
    equal deltas and near-ties between candidates are common."""
    n = int(rng.integers(2, 61))
    group = rng.integers(0, rng.integers(1, 7), size=n)
    i, j = np.triu_indices(n, k=1)
    p_edge = np.where(
        group[i] == group[j], rng.uniform(0.2, 0.9), rng.uniform(0.0, 0.15)
    )
    keep = rng.random(len(i)) < p_edge
    i, j = i[keep], j[keep]
    if rng.random() < 0.5:
        w = rng.integers(1, 4, size=len(i)).astype(np.float64)
    else:
        w = rng.uniform(0.01, 5.0, size=len(i))
    if len(w) == 0:
        i, j, w = np.array([0]), np.array([1]), np.array([1.0])
    return RelationGraph.from_pairs([f"v{k}" for k in range(n)], i, j, w)


def neighbor_weights(state, net, v):
    w_to = {}
    s, e = net.indptr[v], net.indptr[v + 1]
    for u, w in zip(net.indices[s:e].tolist(), entry_weights(net)[s:e].tolist()):
        c = state.assignment[u]
        w_to[c] = w_to.get(c, 0.0) + w * state.inv_two_w
    return w_to


class TestBestMove:
    def test_matches_first_strict_minimum_of_move_delta(self):
        rng = np.random.default_rng(31)
        for trial in range(300):
            net = _net_from_graph(oracle_graph(rng))
            if trial % 2:
                # an aggregated net: super-vertices carry self-loops
                coarse = random_partition(rng, net.n)
                net = _aggregate(net, coarse.assignment, coarse.m)
            part = random_partition(rng, net.n)
            state = _LocalState(net, list(part.assignment))
            for _ in range(10):
                v = int(rng.integers(net.n))
                a = state.assignment[v]
                w_to = neighbor_weights(state, net, v)
                w_va = w_to.get(a, 0.0)
                want_c, want_delta = a, 0.0
                for c in sorted(w_to):
                    if c == a:
                        continue
                    delta = move_delta(state, v, c, w_va, w_to[c])
                    if delta < want_delta:
                        want_c, want_delta = c, delta
                got_c, got_delta = state.best_move(v, w_to)
                assert got_c == want_c
                assert got_delta.hex() == want_delta.hex()
                # move v somewhere, so later checks read updated caches
                target = int(rng.integers(part.m))
                if target != a:
                    state.apply_move(v, target, w_va, w_to.get(target, 0.0))

    def test_detect_matches_scalar_oracle(self, monkeypatch):
        """At the measured _ARRAY_MIN, with every row and visit on the array
        paths (1) and with none on them (above any degree), and on the array
        paths with a np.log2 that errs by up to the bound's budget."""
        rng = np.random.default_rng(37)
        graphs = [oracle_graph(rng) for _ in range(240)]
        seeds = [int(s) for s in rng.integers(0, 2**31, size=len(graphs))]
        noise = np.random.default_rng(43)

        def plogp_off_by_up_to_eps_over_8(x):
            return _plogp_array(x) + noise.uniform(-1.0, 1.0, len(x)) * (
                infomap._DELTA_EPS / 8
            )

        variants = {
            "measured": {"_ARRAY_MIN": infomap._ARRAY_MIN},
            "all-array": {"_ARRAY_MIN": 1},
            "no-array": {"_ARRAY_MIN": 1 << 30},
            "all-array-noisy-log2": {
                "_ARRAY_MIN": 1, "_plogp_array": plogp_off_by_up_to_eps_over_8
            },
        }
        got = {}
        for name, patches in variants.items():
            with mock.patch.multiple(infomap, **patches):
                got[name] = [
                    detect(g, DetectorConfig(rng_seed=s)) for g, s in zip(graphs, seeds)
                ]
        monkeypatch.setattr(infomap, "_local_move_passes", scalar_local_move_passes)
        for k, (g, s) in enumerate(zip(graphs, seeds)):
            want_part, want_bd = detect(g, DetectorConfig(rng_seed=s))
            for name in variants:
                part, bd = got[name][k]
                assert part.assignment == want_part.assignment, name
                assert bd.codelength == want_bd.codelength, name

    @pytest.mark.parametrize("array_min", [1, 16, 1 << 30])
    def test_multi_pass_local_moves_match_scalar_oracle(self, array_min):
        """300-vertex planted graphs that take >= 3 passes, so that cached
        w_to are dropped: the same partition as the scalar loop."""
        rng = np.random.default_rng(47)
        totals = MoveCounts()
        for trial in range(4):
            net = _net_from_graph(planted_graph(rng, 300))
            counts = MoveCounts()
            with mock.patch.object(infomap, "_ARRAY_MIN", array_min):
                got = _local_move_passes(net, _PcgShuffle(trial), counts)
            want = scalar_local_move_passes(net, np.random.default_rng(trial))
            assert got == want
            assert counts.visits >= 3 * net.n
            for field in dataclasses.fields(MoveCounts):
                name = field.name
                setattr(totals, name, getattr(totals, name) + getattr(counts, name))
        if array_min > 1:  # the cache holds only w_to of < array_min communities
            assert totals.cleared > 0 and totals.cached > 0
        if array_min < 1 << 30:
            assert totals.array_rows > 0 and totals.wide > 0

    def test_twin_communities_are_both_rescored(self):
        """v joins two unit-weight 4-cliques, each a community, by edges of
        weight 2.  Moving v into either one gains, and the two moves tie
        exactly: both lie inside the certificate's bound, so near_best hands
        both to the exact re-score, which picks the smaller id as best_move
        over all of w_to does."""
        ids = [f"v{k}" for k in range(9)]
        edges = {(ids[0], ids[1]): 2.0, (ids[0], ids[5]): 2.0}
        for block in ((1, 2, 3, 4), (5, 6, 7, 8)):
            for x in block:
                for y in block:
                    if x < y:
                        edges[(ids[x], ids[y])] = 1.0
        net = _net_from_graph(make_graph(ids, edges))
        state = _LocalState(net, [0, 1, 1, 1, 1, 2, 2, 2, 2])
        w_to = neighbor_weights(state, net, 0)
        assert w_to[1] == w_to[2]
        tol = infomap.CONVERGENCE_TOLERANCE
        near = state.near_best(0, np.array([1, 2]), np.array([w_to[1], w_to[2]]))
        assert near == {0: 0.0, 1: w_to[1], 2: w_to[2]}
        best = state.best_move(0, near)
        assert best == state.best_move(0, w_to) and best[0] == 1
        assert best[1] < -tol


def planted_graph(rng, n):
    """n vertices in 12 planted groups, integer weights 1-3, denser inside
    a group than across."""
    group = rng.integers(0, 12, size=n)
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(len(i)) < np.where(group[i] == group[j], 0.3, 0.02)
    w = rng.integers(1, 4, size=int(keep.sum())).astype(np.float64)
    return RelationGraph.from_pairs([f"v{k}" for k in range(n)], i[keep], j[keep], w)


def test_vectorised_plogp_within_delta_bound():
    """Each np.log2 plogp term on (0, 2], subnormals included, is far
    inside the _DELTA_EPS / 8 that the certificate grants each term."""
    rng = np.random.default_rng(41)
    tiny = np.finfo(np.float64).smallest_normal
    x = np.concatenate([
        rng.uniform(0.0, 2.0, 200_000),
        2.0 ** rng.uniform(-1074.0, 1.0, 50_000),
        [5e-324, np.nextafter(tiny, 0.0), tiny, np.nextafter(tiny, 1.0), 0.5, 1.0, 2.0],
    ])
    x = x[x > 0.0]
    err = np.abs(_plogp_array(x) - np.array([_plogp(t) for t in x.tolist()]))
    assert err.max() < infomap._DELTA_EPS / 8 / 64
    assert _plogp_array(np.array([0.0]))[0] == 0.0


TWO_TRIANGLES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]


@pytest.mark.parametrize("w", [1.0, 1e-300, 1e-310, 1e-318, 5e-324])
def test_two_triangles_found_at_any_edge_weight(w):
    """Below 2W of about 2**-1024, 1 / (2W) would overflow and leave every
    vertex alone; the detector scales such weights by a power of two."""
    i, j = (np.array(a) for a in zip(*TWO_TRIANGLES))
    g = RelationGraph.from_pairs(list("abcdef"), i, j, np.full(len(i), w))
    part, breakdown = detect(g, DetectorConfig(rng_seed=1))
    assert part.assignment == [0, 0, 0, 1, 1, 1]
    assert breakdown.codelength == pytest.approx(math.log2(3), abs=1e-12)


def test_detect_reports_the_codelength_of_its_partition():
    """detect's codelength is codelength(g, part)'s, bit for bit, however
    many levels it aggregated: both are the fine level's breakdown."""
    rng = np.random.default_rng(47)
    graphs = [random_graph(rng, n=int(rng.integers(2, 12))) for _ in range(30)]
    graphs += [planted_graph(rng, n) for n in (60, 150, 300)]
    levels = []

    def counted(net, assignment, m):
        levels[-1] += 1
        return _aggregate(net, assignment, m)

    for seed, g in enumerate(graphs):
        levels.append(0)
        with mock.patch.object(infomap, "_aggregate", counted):
            part, bd = detect(g, DetectorConfig(rng_seed=seed))
        assert bd.codelength.hex() == codelength(g, part).codelength.hex()
    assert max(levels) >= 2


@st.composite
def integer_weight_graphs(draw):
    n = draw(st.integers(2, 10))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = sorted(draw(st.sets(pair.filter(lambda t: t[0] < t[1]), min_size=1)))
    w = draw(st.lists(st.integers(1, 8), min_size=len(pairs), max_size=len(pairs)))
    i, j = (np.array(a) for a in zip(*pairs))
    return RelationGraph.from_pairs(
        [f"v{v}" for v in range(n)], i, j, np.array(w, dtype=float)
    )


# a third of the draws where 2W < 2**-1024 may hold, a third where W may
# overflow, the rest over the whole range
SCALES = st.one_of(
    st.integers(-1064, -1020), st.integers(1000, 1020), st.integers(-1064, 1020)
)


@given(integer_weight_graphs(), SCALES, st.integers(0, 3))
def test_power_of_two_scaled_weights_change_nothing(g, k, seed):
    """Weights scaled by 2**k, subnormal ones included, are exact, and so
    is the detector's own rescale: the same partition and codelength."""
    scaled = dataclasses.replace(g, edge_w=np.ldexp(g.edge_w, k))
    assert (scaled.edge_w > 0).all() and np.isfinite(scaled.edge_w).all()
    want, want_bd = detect(g, DetectorConfig(rng_seed=seed))
    got, got_bd = detect(scaled, DetectorConfig(rng_seed=seed))
    assert got == want
    assert got_bd.codelength == want_bd.codelength
    assert codelength(scaled, want).codelength == codelength(g, want).codelength
