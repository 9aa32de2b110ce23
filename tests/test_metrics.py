import itertools
import json

import numpy as np
import pytest

from malcom.metrics import (
    EvalError,
    accuracy,
    community_family_matrix,
    evaluate,
    rand_statistic,
    write_json,
    write_report,
)


def brute_force_rand(P, C):
    n = len(P)
    ss = sd = ds = dd = 0
    for a, b in itertools.combinations(range(n), 2):
        same_p = P[a] == P[b]
        same_c = C[a] == C[b]
        if same_p and same_c:
            ss += 1
        elif same_p:
            sd += 1
        elif same_c:
            ds += 1
        else:
            dd += 1
    return (ss, sd, ds, dd), (ss + dd) / (n * (n - 1) // 2)


def brute_force_accuracy(P, C):
    """Max over all injective community -> family mappings.

    Each matching of k communities to k families is enumerated once: a set
    of communities, then an ordered choice of families to pair with them.
    """
    families = sorted(set(P), key=str)
    communities = sorted(set(C), key=str)
    counts = {}
    for p, c in zip(P, C):
        counts[(p, c)] = counts.get((p, c), 0) + 1
    best = 0
    k = min(len(families), len(communities))
    for comms in itertools.combinations(communities, k):
        for chosen in itertools.permutations(families, k):
            total = sum(
                counts.get((f, c), 0) for f, c in zip(chosen, comms)
            )
            best = max(best, total)
    return best / len(P)


class TestRandStatistic:
    def test_worked_example(self):
        pc, rs = rand_statistic([1, 1, 2, 2], [1, 1, 1, 2])
        assert (pc.ss, pc.sd, pc.ds, pc.dd) == (1, 1, 2, 2)
        assert rs == 0.5

    def test_identical_up_to_relabel(self):
        P = ["a", "a", "b", "c", "c"]
        C = [9, 9, 7, 3, 3]
        assert rand_statistic(P, C)[1] == 1.0

    def test_all_same_vs_singletons(self):
        pc, rs = rand_statistic([1, 1, 1], [1, 2, 3])
        assert rs == 0.0
        assert pc.ss == pc.dd == 0

    def test_pair_count_identity_and_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            P = rng.integers(0, 5, size=n).tolist()
            C = rng.integers(0, 6, size=n).tolist()
            pc, rs = rand_statistic(P, C)
            assert pc.total == n * (n - 1) // 2
            assert rand_statistic(C, P)[1] == rs

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            P = rng.integers(0, 6, size=n).tolist()
            C = rng.integers(0, 7, size=n).tolist()
            pc, rs = rand_statistic(P, C)
            (ss, sd, ds, dd), rs_ref = brute_force_rand(P, C)
            assert (pc.ss, pc.sd, pc.ds, pc.dd) == (ss, sd, ds, dd)
            assert rs == rs_ref  # exact

    def test_length_mismatch(self):
        with pytest.raises(EvalError):
            rand_statistic([1, 2], [1])

    def test_too_small(self):
        with pytest.raises(EvalError):
            rand_statistic([1], [1])


class TestAccuracy:
    def test_worked_example(self):
        cm, acc = accuracy(["a", "a", "b", "b"], [1, 1, 1, 2])
        assert acc == 0.75
        assert cm.mapping == {1: "a", 2: "b"}

    def test_identical_partitions(self):
        P = ["x", "y", "y", "z"]
        assert accuracy(P, P)[1] == 1.0

    def test_more_communities_than_families(self):
        cm, acc = accuracy(["a", "a", "a"], [1, 2, 3])
        assert acc == pytest.approx(1 / 3)
        assert len(cm.mapping) == 1

    def test_relabel_invariance(self):
        P = ["a", "a", "b", "b", "c"]
        C = [0, 0, 1, 2, 2]
        base = accuracy(P, C)[1]
        relabeled = [{0: 5, 1: 9, 2: 0}[c] for c in C]
        assert accuracy(P, relabeled)[1] == base

    def test_matches_brute_force_up_to_7x7(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            nf = int(rng.integers(1, 8))
            nc = int(rng.integers(1, 8))
            n = int(rng.integers(max(nf, nc), 30))
            P = (rng.integers(0, nf, size=n)).tolist()
            C = (rng.integers(0, nc, size=n)).tolist()
            _, acc = accuracy(P, C)
            assert acc == pytest.approx(brute_force_accuracy(P, C), abs=1e-12)

    def test_at_least_largest_cell(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            P = rng.integers(0, 4, size=n).tolist()
            C = rng.integers(0, 5, size=n).tolist()
            cm, acc = accuracy(P, C)
            assert acc >= cm.counts.max() / n


class TestCommunityFamilyMatrix:
    def test_single_community_row(self):
        families, communities, m = community_family_matrix(
            ["a", "a"], [1, 1]
        )
        assert m.tolist() == [[1.0]]

    def test_worked_example(self):
        families, communities, m = community_family_matrix(
            ["a", "a", "b", "b"], [1, 1, 1, 2]
        )
        assert families == ["a", "b"]
        assert m[0].tolist() == [1.0, 0.0]
        assert m[1].tolist() == [0.5, 0.5]

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(41)
        P = rng.integers(0, 5, size=50).tolist()
        C = rng.integers(0, 7, size=50).tolist()
        _, _, m = community_family_matrix(P, C)
        assert np.allclose(m.sum(axis=1), 1.0)


def test_report_file_shape(tmp_path):
    report = evaluate(["a", "a", "b", "b"], [1, 1, 1, 2])
    out = tmp_path / "eval.json"
    write_report(report, out)
    obj = json.loads(out.read_text())
    assert set(obj) == {
        "rs",
        "accuracy",
        "num_families",
        "num_communities",
        "pair_counts",
        "mapping",
        "community_family_matrix",
    }
    assert obj["pair_counts"] == {"ss": 1, "sd": 1, "ds": 2, "dd": 2}
    assert obj["rs"] == 0.5
    assert obj["accuracy"] == 0.75


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_write_json_rejects_non_finite(tmp_path, value):
    out = tmp_path / "report.json"
    with pytest.raises(ValueError):
        write_json({"codelength_bits": value}, out)
    assert not out.exists()
