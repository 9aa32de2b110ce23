import math

import numpy as np
import pytest

from conftest import entropy_bits, make_graph, random_graph
from malcom.infomap import (
    DetectorConfig,
    InfomapError,
    Partition,
    _aggregate,
    _breakdown,
    _LocalState,
    _net_from_graph,
    codelength,
    compute_flows,
    detect,
    exhaustive_min_codelength,
)


class TestComputeFlows:
    def test_barbell_bridge_vertex(self, barbell):
        fm = compute_flows(barbell)
        assert fm.visit_rates[barbell.vertices.index("3")] == pytest.approx(3 / 14)
        assert fm.visit_rates.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_edge_symmetric(self):
        g = make_graph(["a", "b"], {("a", "b"): 1.0})
        fm = compute_flows(g)
        assert list(fm.visit_rates) == [0.5, 0.5]

    def test_star(self):
        g = make_graph(
            ["c", "l1", "l2", "l3"],
            {("c", "l1"): 1.0, ("c", "l2"): 1.0, ("c", "l3"): 1.0},
        )
        fm = compute_flows(g)
        assert fm.visit_rates[0] == pytest.approx(0.5)
        assert fm.visit_rates[1] == pytest.approx(1 / 6)

    def test_zero_weight_multivertex_rejected(self):
        g = make_graph(["a", "b"], {})
        with pytest.raises(InfomapError):
            compute_flows(g)


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
