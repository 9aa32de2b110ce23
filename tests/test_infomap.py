import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import entropy_bits, make_graph, random_graph
from malcom import infomap
from malcom.graph import RelationGraph
from malcom.infomap import (
    DetectorConfig,
    InfomapError,
    Partition,
    _aggregate,
    _breakdown,
    _exits,
    _LocalState,
    _Net,
    _net_from_graph,
    _plogp,
    _sum_by,
    codelength,
    detect,
    exhaustive_min_codelength,
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
    """strength, indptr, indices, weights and rows as _Net built them with
    every temporary alive at once; the arrays it must still produce."""
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
    rows = np.repeat(np.arange(n), np.diff(indptr))
    return strength, indptr, dst[order], np.repeat(w, 2)[order], rows


@st.composite
def edge_arrays_with_loops(draw):
    n = draw(st.integers(1, 10))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.floats(0.001, 100.0)),
                          max_size=30))
    cols = list(zip(*edges)) or [(), (), ()]
    return (
        n,
        np.array(cols[0], dtype=np.int64),
        np.array(cols[1], dtype=np.int64),
        np.array(cols[2], dtype=np.float64),
    )


@given(edge_arrays_with_loops())
def test_net_arrays_match_reference(case):
    net = _Net(*case)
    got = (net.strength, net.indptr, net.indices, net.weights, net.rows())
    for a, b in zip(got, reference_net_arrays(*case)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
            for u, w in zip(net.indices[s:e].tolist(), net.weights[s:e].tolist()):
                c = state.assignment[u]
                w_to[c] = w_to.get(c, 0.0) + w * state.inv_two_w
            w_va = w_to.get(state.assignment[v], 0.0)
            w_vb = w_to.get(target, 0.0)
            before = state.codelength()
            delta = state.move_delta(v, target, w_va, w_vb)
            state.apply_move(v, target, w_va, w_vb)
            after = state.codelength()
            assert delta == pytest.approx(after - before, abs=1e-9)

    def test_aggregation_preserves_codelength(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            g = random_graph(rng, n=int(rng.integers(3, 12)))
            net = _net_from_graph(g)
            part = random_partition(rng, g.n)
            original = _breakdown(net, part.assignment, part.m).codelength
            agg = _aggregate(net, part.assignment, part.m)
            identity = _breakdown(agg, list(range(part.m)), part.m).codelength
            assert identity == pytest.approx(original, abs=1e-9)


class _ScalarState:
    """The local-move state as it was before best_move: numpy arrays and
    all eight plogp terms of the delta evaluated for every candidate."""

    def __init__(self, net, assignment):
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

    def move_delta(self, v, target, w_va, w_vb):
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


def scalar_local_move_passes(net, rng, tol):
    """Reference local-move loop: every candidate scored by move_delta."""
    assignment = list(range(net.n))
    state = _ScalarState(net, assignment)
    indptr = net.indptr.tolist()
    nbrs = net.indices.tolist()
    wts = net.weights.tolist()
    while True:
        moved = False
        order = rng.permutation(net.n)
        for v in order.tolist():
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
                delta = state.move_delta(v, c, w_va, w_to[c])
                if delta < best_delta:
                    best_delta, best_c = delta, c
            if best_c != a and best_delta < -tol:
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
    return RelationGraph([f"v{k}" for k in range(n)], i, j, w)


def neighbor_weights(state, net, v):
    w_to = {}
    s, e = net.indptr[v], net.indptr[v + 1]
    for u, w in zip(net.indices[s:e].tolist(), net.weights[s:e].tolist()):
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
                    delta = state.move_delta(v, c, w_va, w_to[c])
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
        rng = np.random.default_rng(37)
        graphs = [oracle_graph(rng) for _ in range(240)]
        seeds = [int(s) for s in rng.integers(0, 2**31, size=len(graphs))]
        got = [detect(g, DetectorConfig(rng_seed=s)) for g, s in zip(graphs, seeds)]
        monkeypatch.setattr(infomap, "_local_move_passes", scalar_local_move_passes)
        for g, s, (part, bd) in zip(graphs, seeds, got):
            want_part, want_bd = detect(g, DetectorConfig(rng_seed=s))
            assert part.assignment == want_part.assignment
            assert bd.codelength == want_bd.codelength
