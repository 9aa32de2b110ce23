"""Acceptance gate: exact hand-checked values, oracle equivalences, and
directional end-to-end quality on synthetic corpora.  Each criterion
prints one pass/fail line."""
import itertools
import statistics
import time

import numpy as np
import pytest

from conftest import make_graph, random_graph
from malcom.baseline import KMeansConfig, kmeans
from malcom.cli import main as cli_main
from malcom.graph import (
    GraphBuildParams,
    build_en,
    build_epsilon,
    build_knn,
    percentile_cutoff,
)
from malcom.infomap import (
    DetectorConfig,
    Partition,
    _breakdown,
    _LocalState,
    _net_from_graph,
    codelength,
    detect,
)
from malcom.metrics import accuracy, rand_statistic
from malcom.pipeline import run_pipeline
from malcom.synth import SynthConfig, generate
from malcom.weighting import compute_tfidf, pairwise_weights

from test_infomap import (
    aggregated_codelength,
    exhaustive_min_codelength,
    local_codelength,
    move_delta,
)
from test_metrics import brute_force_accuracy, brute_force_rand


def report(criterion, name, ok):
    print(f"[criterion {criterion}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} ({name}) failed"


def test_criterion_1_map_equation_exactness(barbell):
    t0 = time.perf_counter()
    two = codelength(barbell, Partition.from_labels([0, 0, 0, 1, 1, 1]))
    one = codelength(barbell, Partition.from_labels([0] * 6))
    singles = codelength(barbell, Partition.from_labels(list(range(6))))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(two.codelength - 2.3207) <= 1e-3
        and abs(one.codelength - 2.5567) <= 1e-3
        and abs(singles.codelength - 4.5567) <= 1e-3
        and elapsed < 1.0
    )
    report(1, "map-equation exactness on the barbell graph", ok)


def test_criterion_2_oracle_equivalence(barbell, triangle, two_cliques):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(50):
        g = random_graph(rng, n=int(rng.integers(2, 9)))
        _, got = detect(g, DetectorConfig(rng_seed=5))
        _, best = exhaustive_min_codelength(g)
        ok &= got.codelength >= best.codelength - 1e-9
    for g in (barbell, triangle, two_cliques):
        part, got = detect(g, DetectorConfig(rng_seed=5))
        _, best = exhaustive_min_codelength(g)
        ok &= abs(got.codelength - best.codelength) <= 1e-9
    part, _ = detect(barbell, DetectorConfig(rng_seed=5))
    ok &= part.assignment == [0, 0, 0, 1, 1, 1]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(2, "detector vs exhaustive oracle on small graphs", ok)


def test_criterion_3_delta_and_aggregation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(1000):
        g = random_graph(rng, n=int(rng.integers(3, 12)))
        net = _net_from_graph(g)
        labels = [int(rng.integers(0, g.n // 2 + 1)) for _ in range(g.n)]
        part = Partition.from_labels(labels)
        state = _LocalState(net, list(part.assignment))
        v = int(rng.integers(g.n))
        target = int(rng.integers(part.m))
        if target == state.assignment[v]:
            target = (target + 1) % part.m
            if target == state.assignment[v]:
                continue
        w_to = {}
        s, e = net.indptr[v], net.indptr[v + 1]
        for u, w in zip(net.indices[s:e].tolist(), net.ew.take(net.eid[s:e]).tolist()):
            c = state.assignment[u]
            w_to[c] = w_to.get(c, 0.0) + w * state.inv_two_w
        w_va = w_to.get(state.assignment[v], 0.0)
        w_vb = w_to.get(target, 0.0)
        before = local_codelength(state)
        delta = move_delta(state, v, target, w_va, w_vb)
        state.apply_move(v, target, w_va, w_vb)
        ok &= abs(delta - (local_codelength(state) - before)) <= 1e-9
    for _ in range(1000):
        g = random_graph(rng, n=int(rng.integers(3, 12)))
        net = _net_from_graph(g)
        part = Partition.from_labels(
            [int(rng.integers(0, g.n // 2 + 1)) for _ in range(g.n)]
        )
        original = _breakdown(net, part.assignment, part.m).codelength
        identity = aggregated_codelength(net, part)
        ok &= abs(identity - original) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(3, "incremental delta and aggregation invariance", ok)


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(500):
        n = int(rng.integers(2, 201))
        P = rng.integers(0, 8, size=n).tolist()
        C = rng.integers(0, 9, size=n).tolist()
        pc, rs = rand_statistic(P, C)
        (ss, sd, ds, dd), rs_ref = brute_force_rand(P, C)
        ok &= (pc.ss, pc.sd, pc.ds, pc.dd) == (ss, sd, ds, dd) and rs == rs_ref
    for _ in range(40):
        nf = int(rng.integers(1, 8))
        nc = int(rng.integers(1, 8))
        n = int(rng.integers(max(nf, nc), 40))
        P = rng.integers(0, nf, size=n).tolist()
        C = rng.integers(0, nc, size=n).tolist()
        _, acc = accuracy(P, C)
        ok &= abs(acc - brute_force_accuracy(P, C)) <= 1e-12
    ok &= rand_statistic([1, 1, 2, 2], [1, 1, 1, 2])[1] == 0.5
    ok &= accuracy(["a", "a", "b", "b"], [1, 1, 1, 2])[1] == 0.75
    report(4, "contingency RS and Hungarian accuracy vs brute force", ok)


@pytest.fixture(scope="module")
def synthetic_13x50():
    d = generate(SynthConfig(rng_seed=7))
    model = compute_tfidf(d)
    return d, model


def test_criterion_5_end_to_end_quality(synthetic_13x50):
    t0 = time.perf_counter()
    d, model = synthetic_13x50
    rep = run_pipeline(d, GraphBuildParams(method="en", p=10, k=1), seed=7)
    ev = rep.evaluation
    km = kmeans(model, KMeansConfig(c=13, rng_seed=7))
    _, km_acc = accuracy(d.labels(), km.assignment)
    elapsed = time.perf_counter() - t0
    ok = (
        ev.rand_statistic >= 0.95
        and ev.accuracy >= 0.90
        and ev.accuracy > km_acc
        and elapsed < 120.0
    )
    print(
        f"  RS={ev.rand_statistic:.4f} Acc={ev.accuracy:.4f} "
        f"kmeans Acc={km_acc:.4f} ({elapsed:.1f}s)"
    )
    report(5, "E-N pipeline quality and margin over k-means", ok)


def test_criterion_6_sweep_shape(synthetic_13x50):
    d, _ = synthetic_13x50
    acc = {}
    for p in (1, 10, 40):
        rep = run_pipeline(d, GraphBuildParams(method="en", p=p, k=1), seed=7)
        acc[p] = rep.evaluation.accuracy
    ok = acc[10] >= acc[1] and acc[10] >= acc[40]
    print(f"  Acc(p=1)={acc[1]:.4f} Acc(p=10)={acc[10]:.4f} Acc(p=40)={acc[40]:.4f}")
    report(6, "accuracy peaks at moderate p", ok)


def test_criterion_7_en_structure():
    ok = True
    for seed in (0, 1, 2, 7, 11):
        d = generate(
            SynthConfig(num_families=5, samples_per_family=12, rng_seed=seed)
        )
        ws = pairwise_weights(compute_tfidf(d))
        for p in (2, 10, 30):
            cutoff, _ = percentile_cutoff(ws, p)
            eps_g = build_epsilon(ws, cutoff)
            en_g = build_en(ws, p, 1)
            ok &= bool((en_g.degrees() >= 1).all())
            eps_edges = set(zip(eps_g.edge_i.tolist(), eps_g.edge_j.tolist()))
            en_edges = set(zip(en_g.edge_i.tolist(), en_g.edge_j.tolist()))
            ok &= eps_edges <= en_edges
            deg = eps_g.degrees()
            isolated = set(np.flatnonzero(deg == 0).tolist())
            ok &= all(
                i in isolated or j in isolated for i, j in en_edges - eps_edges
            )
    report(7, "E-N edges = epsilon plus fallback for isolated vertices", ok)


def test_criterion_8_construction_time_ordering():
    d1000 = generate(
        SynthConfig(samples_per_family=77, common_features=5, rng_seed=1)
    )
    ws1000 = pairwise_weights(compute_tfidf(d1000))
    t0 = time.perf_counter()
    build_en(ws1000, 10, 1)
    en_1000 = time.perf_counter() - t0

    d2000 = generate(
        SynthConfig(samples_per_family=154, common_features=5, rng_seed=1)
    )
    ws2000 = pairwise_weights(compute_tfidf(d2000))
    en_times, knn_times = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        build_en(ws2000, 10, 1)
        en_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        build_knn(ws2000, 1)
        knn_times.append(time.perf_counter() - t0)
    en_med = statistics.median(en_times)
    knn_med = statistics.median(knn_times)
    ok = en_med <= knn_med and en_1000 < 5.0
    print(
        f"  E-N n=1000: {en_1000:.3f}s; n=2000 medians: "
        f"E-N {en_med:.3f}s vs full-sort k-NN {knn_med:.3f}s"
    )
    report(8, "E-N construction no slower than full-sort k-NN", ok)


def test_criterion_9_pipeline_determinism(tmp_path):
    data = tmp_path / "data.jsonl"
    assert (
        cli_main(
            [
                "synth",
                "--out", str(data),
                "--families", "6",
                "--samples-per-family", "10",
                "--seed", "3",
            ]
        )
        == 0
    )
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli_main(
            [
                "pipeline",
                "--input", str(data),
                "--out-dir", str(out),
                "--seed", "3",
            ]
        )
        assert code == 0
        outs.append(out)
    ok = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("edges.tsv", "partition.csv", "eval.json")
    )
    report(9, "byte-identical outputs across identical runs", ok)
