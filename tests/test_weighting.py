import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_weights, pair_weight, tfidf_model, weight_set
from malcom import weighting
from malcom.dataset import Dataset, DatasetError, Sample
from malcom.errors import MalcomError
from malcom.synth import SynthConfig, generate
from malcom.weighting import (
    compute_tfidf,
    dump_tfidf,
    family_similarity,
    feature_frequency,
    pairwise_weights,
)

LN2 = math.log(2.0)


def loop_family_similarity(d, ws):
    """family_similarity's matrix summed by the per-pair loop its bincount
    replaced; the reference it must match byte for byte."""
    families = sorted({s.family for s in d.samples})
    fam_index = {f: k for k, f in enumerate(families)}
    sample_fam = np.array([fam_index[s.family] for s in d.samples], dtype=np.int64)
    sizes = np.bincount(sample_fam, minlength=len(families)).astype(np.float64)
    sums = np.zeros((len(families), len(families)), dtype=np.float64)
    for i, j, w in zip(ws.i, ws.j, ws.w):
        a, b = sample_fam[i], sample_fam[j]
        sums[a, b] += w
        if a != b:
            sums[b, a] += w
    counts = np.outer(sizes, sizes)
    np.fill_diagonal(counts, sizes * (sizes - 1) / 2.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(counts > 0, sums / counts, 0.0)


def random_model(rng, n):
    """Tf-idf model of n samples, each with up to 8 of 30 features."""
    names = [f"perm/f{i}" for i in range(30)]
    samples = []
    for i in range(n):
        k = int(rng.integers(0, 9))
        chosen = rng.choice(len(names), size=k, replace=False)
        feats = {names[c]: float(rng.integers(1, 5)) for c in chosen}
        samples.append(Sample(f"s{i}", None, feats))
    return compute_tfidf(Dataset(samples=samples))


class TestComputeTfidf:
    def test_hand_values(self, four_sample_dataset):
        m = compute_tfidf(four_sample_dataset)
        assert m.n == 4
        # feature b: value 2 in s1, present in 2 of 4 samples
        assert m.values[0]["perm/b"] == pytest.approx(2 * LN2, abs=1e-12)
        # feature d: only in s4 with value 1
        assert m.values[3]["perm/d"] == pytest.approx(math.log(4), abs=1e-12)

    def test_ubiquitous_feature_zeroed(self):
        d = Dataset(
            samples=[
                Sample(f"s{i}", None, {"perm/x": 1.0, "perm/y": float(i + 1)})
                for i in range(3)
            ]
        )
        m = compute_tfidf(d)
        for row in m.values:
            assert "perm/x" not in row  # ln(n/n) = 0, zeros never stored
            assert "perm/y" not in row

    def test_doc_freq_bounds(self, four_sample_dataset):
        m = compute_tfidf(four_sample_dataset)
        for s_m in m.doc_freq.values():
            assert 1 <= s_m <= m.n

    def test_empty_dataset_rejected(self):
        with pytest.raises(DatasetError):
            compute_tfidf(Dataset(samples=[]))

    def test_invariant_to_sample_order(self, four_sample_dataset):
        m1 = compute_tfidf(four_sample_dataset)
        reversed_d = Dataset(samples=list(reversed(four_sample_dataset.samples)))
        m2 = compute_tfidf(reversed_d)
        by_id1 = dict(zip(m1.sample_ids, m1.values))
        by_id2 = dict(zip(m2.sample_ids, m2.values))
        assert by_id1 == by_id2


def dict_tfidf(d):
    """(doc_freq, values): tf-idf by the per-sample dict formula that the
    CSR arrays replaced, the reference they must match bit for bit.  An
    overflow raises the DatasetError the formula raised."""
    n = len(d)
    doc_freq: dict[str, int] = {}
    for s in d.samples:
        for name in s.features:
            doc_freq[name] = doc_freq.get(name, 0) + 1
    idf = {name: math.log(n / c) for name, c in doc_freq.items()}
    values = []
    for s in d.samples:
        row = {}
        for name, tf in s.features.items():
            v = tf * idf[name]
            if not math.isfinite(v):
                raise DatasetError(
                    f"sample {s.id!r}: tf-idf of feature {name!r} overflows"
                )
            if v != 0.0:
                row[name] = v
        values.append(row)
    return doc_freq, values


def dict_feature_lists(values):
    """(sample indices, values) per feature held by >= 2 samples, ascending
    name, from per-sample dicts."""
    inverted: dict[str, tuple[list[int], list[float]]] = {}
    for idx, row in enumerate(values):
        for name, v in row.items():
            bucket = inverted.setdefault(name, ([], []))
            bucket[0].append(idx)
            bucket[1].append(v)
    return [inverted[name] for name in sorted(inverted) if len(inverted[name][0]) >= 2]


def as_bytes(floats):
    return np.array(floats, dtype=np.float64).tobytes()


@st.composite
def tfidf_corpora(draw):
    """Up to 12 samples over 8 names in random map order, optionally one
    name in every sample (idf 0).  Values include the smallest subnormals,
    whose tf-idf underflows to 0 at idf < 1/2, and 1.7e308, whose tf-idf
    overflows at idf > 1.06."""
    n = draw(st.integers(1, 12))
    every = draw(st.booleans())
    value = st.one_of(
        st.floats(0.5, 9.0), st.sampled_from([5e-324, 1e-323, 1.7e308, 3.0])
    )
    names = [f"perm/f{k}" for k in range(8)]
    samples = []
    for i in range(n):
        chosen = draw(st.lists(st.sampled_from(names), unique=True, max_size=8))
        if every:
            chosen.insert(draw(st.integers(0, len(chosen))), "api/all")
        features = {name: draw(value) for name in chosen}
        samples.append(Sample(f"s{i}", None, features))
    return Dataset(samples=samples)


@settings(max_examples=200, deadline=None)
@given(tfidf_corpora())
def test_csr_tfidf_equals_dict_formula(d):
    try:
        doc_freq, values = dict_tfidf(d)
    except DatasetError as exc:
        with pytest.raises(DatasetError) as got:
            compute_tfidf(d)
        assert str(got.value) == str(exc)  # the first bad sample and feature
        return
    m = compute_tfidf(d)
    assert m.names == sorted(doc_freq)
    assert dict(zip(m.names, m.df.tolist())) == doc_freq
    assert m.doc_freq == doc_freq
    # each row lists the sample's nonzero values in its map order
    for r, row in enumerate(values):
        at = slice(m.indptr[r], m.indptr[r + 1])
        assert [m.names[k] for k in m.indices[at]] == list(row)
        assert m.data[at].tobytes() == as_bytes(list(row.values()))
    assert m.indptr[-1] == len(m.data) == len(m.indices)
    assert [list(row.items()) for row in m.values] == [
        list(row.items()) for row in values
    ]
    got = weighting._feature_lists(m)
    expect = dict_feature_lists(values)
    assert len(got) == len(expect)
    for (ix, t), (eix, et) in zip(got, expect):
        assert ix.dtype == np.int64 and ix.tolist() == eix
        assert t.tobytes() == as_bytes(et)


def test_tfidf_overflow_names_the_first_sample_and_feature():
    # n = 6 and df = 2, so idf = ln 3 > 1 for every name; s1 maps perm/b
    # before perm/a
    d = Dataset(
        samples=[
            Sample("s0", None, {"perm/c": 1.0}),
            Sample("s1", None, {"perm/c": 1.0, "perm/b": 1.7e308, "perm/a": 1.7e308}),
            Sample("s2", None, {"perm/b": 1.0, "perm/a": 1.7e308}),
        ]
        + [Sample(f"s{i}", None, {}) for i in range(3, 6)]
    )
    with pytest.raises(DatasetError) as exc:
        compute_tfidf(d)
    assert str(exc.value) == "sample 's1': tf-idf of feature 'perm/b' overflows"


class TestPairwiseWeights:
    def test_hand_values(self, four_sample_dataset):
        ws = pairwise_weights(compute_tfidf(four_sample_dataset))
        expected = (2 * LN2 + 1 * LN2) / 2
        assert pair_weight(ws, 0, 1) == pytest.approx(expected, abs=1e-12)
        assert pair_weight(ws, 0, 3) == pytest.approx(LN2, abs=1e-12)

    def test_no_shared_feature_pair_absent(self, four_sample_dataset):
        ws = pairwise_weights(compute_tfidf(four_sample_dataset))
        assert pair_weight(ws, 0, 2) == 0.0
        assert (0, 2) not in set(zip(ws.i.tolist(), ws.j.tolist()))

    def test_symmetry(self, four_sample_dataset):
        ws = pairwise_weights(compute_tfidf(four_sample_dataset))
        for a, b, _ in zip(ws.i.tolist(), ws.j.tolist(), ws.w.tolist()):
            assert pair_weight(ws, a, b) == pair_weight(ws, b, a)

    def test_monotone_in_shared_features(self, four_sample_dataset):
        base = pair_weight(pairwise_weights(compute_tfidf(four_sample_dataset)), 0, 1)
        d = four_sample_dataset
        grown = Dataset(
            samples=[
                Sample("s1", "A", dict(d.samples[0].features, **{"perm/e": 1.0})),
                Sample("s2", "B", dict(d.samples[1].features, **{"perm/e": 1.0})),
                d.samples[2],
                d.samples[3],
            ]
        )
        assert pair_weight(pairwise_weights(compute_tfidf(grown)), 0, 1) >= base

    def test_matches_brute_force_bit_identical(self):
        rng = np.random.default_rng(42)
        for trial in range(40):
            model = random_model(rng, int(rng.integers(2, 65)))
            ws = pairwise_weights(model)
            expect = brute_force_weights(model)
            got = {(a, b): w for a, b, w in zip(ws.i.tolist(), ws.j.tolist(), ws.w.tolist())}
            assert got == expect  # exact, not approximate

    @pytest.mark.parametrize(
        "budget",
        [
            pytest.param(lambda n: 1, id="one-row"),
            pytest.param(lambda n: 3 * n, id="three-rows"),
            pytest.param(lambda n: 7 * n + n // 2, id="ragged"),
        ],
    )
    def test_row_blocks_match_brute_force(self, monkeypatch, budget):
        rng = np.random.default_rng(7)
        # 23, 64 and 80 leave a short last block for 3 and 7 rows
        for n in (2, 23, 64, 80, 80):
            model = random_model(rng, n)
            monkeypatch.setattr(weighting, "_BLOCK_CELLS", budget(n))
            ws = pairwise_weights(model)
            assert (ws.i < ws.j).all()
            assert (np.diff(ws.i * n + ws.j) > 0).all()  # row-major order
            got = {(a, b): w for a, b, w in zip(ws.i.tolist(), ws.j.tolist(), ws.w.tolist())}
            assert got == brute_force_weights(model)  # exact


class TestFamilySimilarity:
    def test_single_pair(self):
        d = Dataset(
            samples=[
                Sample("s1", "A", {"perm/x": 1.0}),
                Sample("s2", "B", {"perm/x": 1.0}),
            ]
        )
        ws = pairwise_weights(compute_tfidf(d))
        # idf is 0 here, so synthesize a weight set directly
        ws = weight_set(["s1", "s2"], {("s1", "s2"): 2.5})
        sim = family_similarity(d, ws)
        a, b = sim.families.index("A"), sim.families.index("B")
        assert sim.matrix[a, b] == 2.5

    def test_absent_intra_weight_is_zero(self, four_sample_dataset):
        ws = pairwise_weights(compute_tfidf(four_sample_dataset))
        sim = family_similarity(four_sample_dataset, ws)
        a = sim.families.index("A")
        # family A = {s1, s3}; w_13 absent
        assert sim.matrix[a, a] == 0.0

    def test_mean_of_pairs(self, four_sample_dataset):
        ws = pairwise_weights(compute_tfidf(four_sample_dataset))
        sim = family_similarity(four_sample_dataset, ws)
        a, b = sim.families.index("A"), sim.families.index("B")
        # pairs across {s1,s3} x {s2,s4}: w12, w14 positive, w32=w23, w34 absent? w23 shared c
        expected = sum(pair_weight(ws, a, b) for a in (0, 2) for b in (1, 3)) / 4
        assert sim.matrix[a, b] == pytest.approx(expected, abs=1e-12)
        assert np.allclose(sim.matrix, sim.matrix.T)

    def test_sums_match_pair_loop_bytewise(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            n = int(rng.integers(2, 60))
            fams = [f"F{int(x)}" for x in rng.integers(0, int(rng.integers(1, 7)), n)]
            d = Dataset(samples=[Sample(f"s{v}", fams[v], {}) for v in range(n)])
            i, j = np.triu_indices(n, k=1)
            keep = rng.random(len(i)) < 0.6
            w = rng.uniform(0.01, 10.0, int(keep.sum()))
            ws = weight_set(
                [s.id for s in d.samples],
                {(f"s{a}", f"s{b}"): x for a, b, x in zip(i[keep], j[keep], w)},
            )
            expect = loop_family_similarity(d, ws)
            assert family_similarity(d, ws).matrix.tobytes() == expect.tobytes()

    def test_unlabeled_rejected(self):
        d = Dataset(samples=[Sample("s1", None, {}), Sample("s2", "A", {})])
        ws = weight_set(["s1", "s2"], {("s1", "s2"): 1.0})
        with pytest.raises(DatasetError):
            family_similarity(d, ws)

    def test_pruned_set_rejected(self):
        d = generate(SynthConfig(samples_per_family=10, rng_seed=7))
        model = compute_tfidf(d)
        family_similarity(d, pairwise_weights(model))
        top = pairwise_weights(model, top_p=1)
        assert len(top) < top.total
        with pytest.raises(DatasetError, match=f"needs all {top.total} pairs, not {len(top)}$"):
            family_similarity(d, top)


class TestFeatureFrequency:
    def test_fractions_and_order(self, four_sample_dataset):
        ranked = feature_frequency(four_sample_dataset, top=10)
        as_dict = dict(ranked)
        assert as_dict["perm/a"] == 0.5
        assert as_dict["perm/b"] == 0.5
        fractions = [f for _, f in ranked]
        assert fractions == sorted(fractions, reverse=True)

    def test_ubiquitous_feature_ranks_first(self):
        d = Dataset(
            samples=[
                Sample("s1", None, {"perm/x": 1.0, "perm/y": 1.0}),
                Sample("s2", None, {"perm/x": 1.0}),
            ]
        )
        assert feature_frequency(d, top=1) == [("perm/x", 1.0)]

    def test_ties_broken_lexicographically(self):
        d = Dataset(
            samples=[Sample("s1", None, {"perm/b": 1.0, "perm/a": 1.0})]
        )
        assert [name for name, _ in feature_frequency(d, top=2)] == [
            "perm/a",
            "perm/b",
        ]


def test_dump_tfidf_ten_significant_digits(tmp_path, four_sample_dataset):
    model = compute_tfidf(four_sample_dataset)
    out = tmp_path / "tfidf.jsonl"
    dump_tfidf(model, out)
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    import json

    first = json.loads(lines[0])
    assert first["id"] == "s1"
    assert first["tfidf"]["perm/b"] == pytest.approx(2 * LN2, rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_recomputed_rows_reject_an_overflowing_weight():
    features = [(np.array([0, 1, 2]), np.array([1.0, 1e308, 1e308]))]
    none = np.empty(0)
    ws = weighting.WeightSet(["a", "b", "c"], none, none, none, features=features)
    with pytest.raises(DatasetError, match="overflows"):
        list(ws.row_blocks(np.array([False, True, False])))


@pytest.mark.parametrize("top_p", [0, -1, 100.5, math.nan])
def test_top_p_outside_range_is_a_malcom_error(four_sample_dataset, top_p):
    model = compute_tfidf(four_sample_dataset)
    with pytest.raises(MalcomError, match="top_p must be in"):
        pairwise_weights(model, top_p=top_p)


def test_int32_vertex_ids_bound_the_sample_count():
    weighting.check_vertex_count(2**31 - 1)
    model = tfidf_model([], n=2**31)
    with pytest.raises(MalcomError, match="int32"):
        pairwise_weights(model)
