import argparse
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_weights, pair_weight, tfidf_model
from test_graph import tied_models
from malcom import cli, weighting
from malcom.dataset import Dataset, DatasetError, Sample
from malcom.errors import MalcomError, ParameterError
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
    """family_similarity's matrix summed by a per-pair loop over a complete
    weight set; the reference it must match byte for byte."""
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


# _BOUND_GAIN that forces each path: the bound path runs when the kernel's
# cells exceed the gain times the exact pass's, so at 0 whenever the kernel
# has a cell, and at inf never
PATHS = {"kernel": math.inf, "bound": 0}


def force_path(monkeypatch, path):
    monkeypatch.setattr(weighting, "_BOUND_GAIN", PATHS[path])


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
        assert ((1 <= m.df) & (m.df <= m.n)).all()

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

    def test_matches_brute_force_bit_identical(self, monkeypatch):
        rng = np.random.default_rng(42)
        for trial in range(40):
            model = random_model(rng, int(rng.integers(2, 65)))
            expect = brute_force_weights(model)
            for path in PATHS:
                force_path(monkeypatch, path)
                ws = pairwise_weights(model)
                got = {
                    (a, b): w
                    for a, b, w in zip(ws.i.tolist(), ws.j.tolist(), ws.w.tolist())
                }
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
            for path in PATHS:
                force_path(monkeypatch, path)
                ws = pairwise_weights(model)
                assert (ws.i < ws.j).all()
                assert (np.diff(ws.i * n + ws.j) > 0).all()  # row-major order
                got = {
                    (a, b): w
                    for a, b, w in zip(ws.i.tolist(), ws.j.tolist(), ws.w.tolist())
                }
                assert got == brute_force_weights(model)  # exact


class TestFamilySimilarity:
    def test_single_pair(self):
        d = Dataset(
            samples=[
                Sample("s1", "A", {"perm/x": 1.0}),
                Sample("s2", "B", {"perm/x": 3.0}),
                Sample("s3", "C", {"perm/y": 1.0}),
            ]
        )
        sim = family_similarity(d, compute_tfidf(d))
        a, b = sim.families.index("A"), sim.families.index("B")
        idf = math.log(3 / 2)
        assert sim.matrix[a, b] == sim.matrix[b, a] == (1.0 * idf + 3.0 * idf) * 0.5
        assert np.count_nonzero(sim.matrix) == 2  # C shares nothing

    def test_absent_intra_weight_is_zero(self, four_sample_dataset):
        sim = family_similarity(four_sample_dataset, compute_tfidf(four_sample_dataset))
        a = sim.families.index("A")
        # family A = {s1, s3}; w_13 absent
        assert sim.matrix[a, a] == 0.0

    def test_mean_of_pairs(self, four_sample_dataset):
        model = compute_tfidf(four_sample_dataset)
        sim = family_similarity(four_sample_dataset, model)
        ws = pairwise_weights(model)
        a, b = sim.families.index("A"), sim.families.index("B")
        # pairs across {s1,s3} x {s2,s4}: w12, w14 positive, w32=w23, w34 absent? w23 shared c
        expected = sum(pair_weight(ws, a, b) for a in (0, 2) for b in (1, 3)) / 4
        assert sim.matrix[a, b] == pytest.approx(expected, abs=1e-12)
        assert np.allclose(sim.matrix, sim.matrix.T)

    def test_sums_match_pair_loop_bytewise(self, monkeypatch):
        """Streamed over blocks of one row, of a few rows and of every row,
        the sums equal the per-pair loop over the complete weight set."""
        rng = np.random.default_rng(11)
        for trial in range(60):
            monkeypatch.setattr(weighting, "_BLOCK_CELLS", [1, 97, 1 << 19][trial % 3])
            n = int(rng.integers(2, 60))
            fams = [f"F{int(x)}" for x in rng.integers(0, int(rng.integers(1, 7)), n)]
            samples = []
            for v in range(n):
                chosen = rng.choice(12, size=int(rng.integers(0, 6)), replace=False)
                feats = {f"perm/f{c}": float(rng.uniform(0.1, 5.0)) for c in chosen}
                samples.append(Sample(f"s{v}", fams[v], feats))
            d = Dataset(samples=samples)
            model = compute_tfidf(d)
            expect = loop_family_similarity(d, pairwise_weights(model))
            assert family_similarity(d, model).matrix.tobytes() == expect.tobytes()

    def test_unlabeled_rejected(self):
        d = Dataset(
            samples=[Sample("s1", None, {"perm/x": 1.0}), Sample("s2", "A", {})]
        )
        with pytest.raises(DatasetError, match="requires every sample labeled"):
            family_similarity(d, compute_tfidf(d))


def test_family_sim_holds_no_pair_set(monkeypatch, tmp_path):
    """``family-sim`` adds the weights as their blocks stream: it allocates
    (tracemalloc counts numpy buffers) under a quarter of the 16 bytes per
    pair that the complete weight set of the corpus would take."""
    d = generate(
        SynthConfig(
            samples_per_family=116,
            signature_features_per_family=4,
            common_features=4,
            noise_features_per_sample=0,
            rng_seed=7,
        )
    )
    n = len(d)
    assert n >= 1500
    monkeypatch.setattr(weighting, "_BLOCK_CELLS", 1 << 14)
    monkeypatch.setattr(cli, "_load_filtered", lambda args: d)
    tracemalloc.start()
    try:
        cli._cmd_family_sim(argparse.Namespace(out=tmp_path / "sim.tsv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * (n - 1) // 2 / 4
    assert len((tmp_path / "sim.tsv").read_text().splitlines()) == 14


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

    def test_negative_top_rejected(self):
        d = Dataset(samples=[Sample("s1", None, {"perm/a": 1.0, "perm/b": 1.0})])
        with pytest.raises(ParameterError, match="top must be >= 0, got -1"):
            feature_frequency(d, top=-1)


def test_dump_tfidf_ten_significant_digits(tmp_path, four_sample_dataset):
    model = compute_tfidf(four_sample_dataset)
    out = tmp_path / "tfidf.jsonl"
    dump_tfidf(model, out)
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert first["id"] == "s1"
    assert first["tfidf"]["perm/b"] == pytest.approx(2 * LN2, rel=1e-9)


def test_dump_tfidf_equals_per_value_encoding(tmp_path):
    """The CSR writer's lines equal a json.dumps of every sorted map entry;
    the names need escaping and are stored out of order."""
    d = Dataset(
        samples=[
            Sample(f"s{k}", None, {"str/\u00e9": 1.5, 'str/"q"': 0.25, "perm/z": 3.0})
            for k in range(3)
        ]
        + [Sample("s3", None, {"str/\u00e9": 2.0}), Sample("s4", None, {})]
    )
    model = compute_tfidf(d)
    out = tmp_path / "tfidf.jsonl"
    dump_tfidf(model, out)
    expected = []
    for sid, row in zip(model.sample_ids, model.values):
        parts = ",".join(f"{json.dumps(k)}:{v:.10g}" for k, v in sorted(row.items()))
        expected.append(f'{{"id":{json.dumps(sid)},"tfidf":{{{parts}}}}}')
    assert out.read_text(encoding="utf-8").splitlines() == expected


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


def test_int32_edge_ids_bound_the_edge_count():
    weighting.check_edge_count(2**31 - 1, weighting.EDGE_ID)
    with pytest.raises(MalcomError, match="2147483648 edges exceed the 2147483647"):
        weighting.check_edge_count(2**31, weighting.EDGE_ID)


def traced_phases(model, top_p, features=None):
    """The weight set and tracemalloc's peaks, in bytes, while weighing the
    model at top_p: one per phase, each ending where T in float64 or the
    feature lists start to be built, and the last one at the return.
    Given ``features``, the lists are returned without being built."""
    dense = weighting._dense
    build = weighting._feature_lists if features is None else lambda m: features
    peaks = []

    def mark():
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    def spy_dense(m, shared, dtype, rows=None):
        if dtype == np.float64 and rows is None:
            mark()
        return dense(m, shared, dtype, rows)

    with mock.patch.object(weighting, "_dense", spy_dense), mock.patch.object(
        weighting, "_feature_lists", lambda m: mark() or build(m)
    ):
        tracemalloc.start()
        try:
            ws = pairwise_weights(model, top_p)
            mark()
        finally:
            tracemalloc.stop()
    return ws, peaks


def test_weight_buffer_is_bounded_by_the_pairs_held(monkeypatch):
    """The stream reserves min(n(n-1)/2, ceil(1.25 m_max) + max(_BLOCK_CELLS /
    8, n)) pairs at 16 bytes each, and beyond them allocates only the bucket
    counts of a rank and one block's temporaries: no copy of the held
    weights.  The feature lists peak at about 32 bytes per stored tf-idf
    value while they are built: the kernel builds them first, the bound
    path last.  The bound path's phases add its tf-idf matrix T, n rows of
    one value per feature held by two samples or more: 4 n F bytes in
    float32 during the blocks, then 8 n F bytes in float64 only during the
    exact pass.  Its approximations, their products and the exact pass's
    gathers are block temporaries.  It runs on the sweep's corpus size,
    where its 2**12-cell blocks make 8 times fewer products."""
    monkeypatch.setattr(weighting, "_BLOCK_CELLS", 1 << 12)
    for path, per_family in (("kernel", 100), ("bound", 50)):
        d = generate(
            SynthConfig(
                samples_per_family=per_family,
                signature_presence_prob=0.6,
                cross_family_leak_prob=0.15,
                rng_seed=7,
            )
        )
        model = compute_tfidf(d)
        force_path(monkeypatch, path)
        n = model.n
        m_max = math.ceil(0.1 * (n * (n - 1) // 2))
        # top_value's bucket counts and a chunk's counts (or their
        # cumulative sum), and a block's weights, cell indices and masks
        slack = 2 * 8 * weighting._KEYS + 40 * (1 << 12)
        reserved = 16 * (math.ceil(1.25 * m_max) + max((1 << 12) >> 3, n))
        features = weighting._feature_lists(model)
        nf = n * len(features)
        for built in (32 * len(model.data), 0):  # the lists built, or given
            # each phase's charge: the kernel holds the lists throughout,
            # the bound path T in float32, T in float64, then the lists
            charges = [built, built] if path == "kernel" else [4 * nf, 8 * nf, built]
            ws, peaks = traced_phases(model, 10, None if built else features)
            assert len(ws) < ws.total  # the threshold rose
            assert len(peaks) == len(charges)
            for peak, charge in zip(peaks, charges):
                assert peak <= reserved + charge + slack


def test_kernel_outer_products_are_capped():
    """One feature held by all 2000 vertices: a block of 262 rows would
    build its 524,000 cells' indices and values (16 B each) at once.  They
    are built _OUTER_CELLS cells at a time, so the block allocates its own
    cells, 16 B per capped cell, and per-vertex arrays (64 B each, with
    numpy's outer-product scratch), and gives the brute-force weights."""
    n = 2000
    model = tfidf_model([{"perm/x": 1.0 + v % 7} for v in range(n)])
    features = weighting._feature_lists(model)
    rows = np.arange(weighting._BLOCK_CELLS // n)
    tracemalloc.start()
    try:
        block = weighting._weight_rows(features, n, rows, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= block.nbytes + 16 * weighting._OUTER_CELLS + 64 * n + (1 << 18)
    t = 1.0 + np.arange(n) % 7
    assert block.tobytes() == ((t[rows, None] + t) * 0.5).tobytes()


def test_ties_at_the_minimum_are_weighed_a_block_at_a_time(monkeypatch):
    """Every pair of 400 samples shares one common feature of value 1.0,
    and the first 100 samples share a second one with distinct values: at
    p = 1 the set holds the largest of their pairs, and the 74,850 pairs
    of the others all tie at the smallest weight, 1.0.  The bound path
    weighs each block's pairs near the smallest approximation exactly as
    it goes (``_near_min``), so the phase peaks keep the charges of the
    test above, which a list of those pairs held until the exact pass, 24
    bytes each, outgrows; the set, ``min_w`` included, is the kernel's."""
    monkeypatch.setattr(weighting, "_BLOCK_CELLS", 1 << 12)
    n = 400
    model = tfidf_model(
        [
            {"perm/common": 1.0, **({"perm/group": 1.0 + v / 128} if v < 100 else {})}
            for v in range(n)
        ]
    )
    near_min = weighting._near_min
    near = []

    def spy(m, shared, i, j):
        near.append(len(i))
        return near_min(m, shared, i, j)

    monkeypatch.setattr(weighting, "_near_min", spy)
    force_path(monkeypatch, "kernel")
    expect = pairwise_weights(model, 1)
    force_path(monkeypatch, "bound")
    ws, peaks = traced_phases(model, 1)
    assert_same_set(ws, expect)
    assert len(ws) < ws.total and ws.min_w == 1.0
    assert sum(near) >= 74_850 and max(near) <= 1 << 12
    m_max = math.ceil(0.01 * (n * (n - 1) // 2))
    slack = 2 * 8 * weighting._KEYS + 40 * (1 << 12)
    reserved = 16 * (math.ceil(1.25 * m_max) + max((1 << 12) >> 3, n))
    nf = n * len(weighting._feature_lists(model))
    for peak, charge in zip(peaks, [4 * nf, 8 * nf, 32 * len(model.data)]):
        assert peak <= reserved + charge + slack


def test_ties_past_the_reserved_pairs_grow_the_buffer(monkeypatch):
    """The golden "twins" corpus with each family's first sample repeated:
    a family's pairs all tie, so at a small p the pairs at the threshold
    outgrow the ceil(1.25 m_max) + max(_BLOCK_CELLS / 8, n) reserved, and
    the set still holds exactly the pairs at or above its smallest
    weight."""
    d = generate(
        SynthConfig(
            common_features=0,
            noise_features_per_sample=0,
            signature_presence_prob=1.0,
            cross_family_leak_prob=0.0,
            rng_seed=7,
        )
    )
    first = {}
    for s in d.samples:
        first.setdefault(s.family, s.features)
    model = compute_tfidf(
        Dataset([Sample(s.id, s.family, first[s.family]) for s in d.samples])
    )
    full = pairwise_weights(model)
    monkeypatch.setattr(weighting, "_BLOCK_CELLS", 1 << 10)  # b = 1 row
    n, top_p = model.n, 0.1
    m_max = math.ceil(top_p / 100.0 * (n * (n - 1) // 2))
    ws = pairwise_weights(model, top_p)
    assert len(ws) > 2 * m_max + n
    held = full.w >= ws.w.min()
    for a in "ijw":
        assert np.array_equal(getattr(ws, a), getattr(full, a)[held])


def top_p_of(full, p):
    """The complete set's pairs at or above its ceil(p/100 |W|)-th largest
    weight, as (i, j, w)."""
    top = min(math.ceil(p / 100.0 * full.total), full.total)
    held = full.w >= np.sort(full.w)[len(full) - top]
    return full.i[held], full.j[held], full.w[held]


def assert_holds_top_p(ws, full, p):
    assert (ws.total, ws.min_w) == (full.total, full.min_w)
    for got, expect in zip((ws.i, ws.j, ws.w), top_p_of(full, p)):
        assert got.dtype == expect.dtype
        assert got.tobytes() == expect.tobytes()


@settings(deadline=None)
@given(tied_models(), st.floats(0.01, 100.0), st.sampled_from([1, 3, 1 << 19]))
def test_weighed_at_p_holds_exactly_the_top_p(model, p, rows):
    """With ties at the cutoff, the set weighed at p holds the complete
    set's pairs at or above its ceil(p/100 |W|)-th largest weight: no more,
    no fewer, in row-major order."""
    with mock.patch.object(weighting, "_BLOCK_CELLS", rows * model.n):
        full = pairwise_weights(model)
        if full.total:
            assert_holds_top_p(pairwise_weights(model, p), full, p)


def crafted_weights(monkeypatch, dense, path="kernel", approx=None):
    """A model of len(dense) samples whose pair weights are the upper
    triangle of the symmetric matrix ``dense``, weighed on ``path``: the
    kernel and the exact pass read its cells, and the bound path's
    approximations are the cells of ``approx`` (the weights by default).
    The smallest weight of the pairs near the smallest approximation is
    read from ``dense`` too.  The model's one feature, in every sample,
    gives the kernel cells to weigh, so the forced gain picks the path.
    Its value is 1.0 when every
    weight lies in [2**-126, 2**125], the guard's range at F = 1, and
    otherwise a weight outside it: the guard then sends the bound path to
    the kernel, as it does any input whose weights leave that range."""
    dense = np.asarray(dense, dtype=np.float64)
    outside = dense[(dense > 0) & ((dense < 2.0**-126) | (dense > 2.0**125))]
    approx = dense if approx is None else np.asarray(approx, dtype=np.float64)
    monkeypatch.setattr(
        weighting, "_weight_rows", lambda features, n, rows, c0: dense[rows, c0:]
    )
    monkeypatch.setattr(
        weighting, "_bound_rows", lambda t, r0, r1: approx[r0:r1, r0:].copy()
    )
    monkeypatch.setattr(weighting, "_exact_weights", lambda t, i, j: dense[i, j])
    monkeypatch.setattr(
        weighting, "_near_min", lambda m, shared, i, j: float(dense[i, j].min())
    )
    monkeypatch.setattr(weighting, "_BLOCK_CELLS", len(dense))  # one row a block
    force_path(monkeypatch, path)
    value = outside[0] if len(outside) else 1.0
    return tfidf_model([{"perm/all": value}] * len(dense))


def dense_of(n, values):
    dense = np.zeros((n, n))
    dense[np.triu_indices(n, 1)] = values
    return dense + dense.T


EDGE = 1.0  # the smallest double of its bucket
BELOW = np.nextafter(EDGE, 0.0)  # the largest double of the bucket below
SUBNORMAL = [5e-324, 1e-320, 2.5e-310, np.nextafter(2.0**-1022, 0.0), 2.0**-1022]
POOLS = [
    pytest.param([BELOW, EDGE, 3.0], id="bucket-edge"),
    pytest.param([np.nextafter(BELOW, 0.0), BELOW, EDGE, np.nextafter(EDGE, 2)],
                 id="bucket-edge-neighbours"),
    pytest.param(SUBNORMAL, id="subnormal"),
    pytest.param([*SUBNORMAL, 1.0, np.finfo(np.float64).max], id="full-range"),
    pytest.param([0.5], id="all-tied"),
]
CRAFTED_P = (0.05, 0.5, 1, 2.5, 10, 25, 33.3, 50, 75, 99, 100)


def crafted_values(pool, n=60):
    rng = np.random.default_rng(7)
    return rng.choice(np.array(pool + [0.0]), size=n * (n - 1) // 2)


def assert_same_set(got, expect):
    assert (got.total, got.min_w) == (expect.total, expect.min_w)
    for a in "ijw":
        assert getattr(got, a).tobytes() == getattr(expect, a).tobytes()


@pytest.mark.parametrize("pool", POOLS)
def test_crafted_weights_hold_exactly_the_top_p(monkeypatch, pool):
    """On either path; on the bound path the approximations are the
    weights, and the subnormal and full-range pools, outside the guard,
    take the kernel."""
    n = 60
    values = crafted_values(pool, n)
    for path in PATHS:
        model = crafted_weights(monkeypatch, dense_of(n, values), path)
        full = pairwise_weights(model)
        assert len(full) == full.total == np.count_nonzero(values)
        for p in CRAFTED_P:
            assert_holds_top_p(pairwise_weights(model, p), full, p)


def test_crafted_ties_outgrow_the_reservation(monkeypatch):
    """Every pair ties: at p = 1 the 1770 tied pairs outgrow the
    ceil(1.25 m_max) + max(_BLOCK_CELLS / 8, n) = 23 + 60 reserved, and the
    arrays grow, on either path."""
    n, p = 60, 1
    m_max = math.ceil(p / 100 * (n * (n - 1) // 2))
    for path in PATHS:
        model = crafted_weights(monkeypatch, dense_of(n, 0.5), path)
        ws = pairwise_weights(model, p)
        assert len(ws) == ws.total == n * (n - 1) // 2 > math.ceil(1.25 * m_max) + n
        assert_holds_top_p(ws, pairwise_weights(model), p)


@pytest.mark.parametrize("pool", POOLS)
def test_approximations_within_the_bound_give_the_same_set(monkeypatch, pool):
    """The certificate: each approximation scaled by its own random factor
    in [1 - delta, 1 + delta], the bound between an approximation and its
    weight, leaves the bound path's set byte-identical to the kernel's at
    every p, ``total`` and ``min_w`` included.  The subnormal and
    full-range pools lie outside the guard and take the kernel."""
    n = 60
    values = crafted_values(pool, n)
    dense = dense_of(n, values)
    model = crafted_weights(monkeypatch, dense, "kernel")
    expect = {p: pairwise_weights(model, p) for p in CRAFTED_P}
    delta = weighting._slack(1)
    rng = np.random.default_rng(11)
    factor = rng.uniform(1 - delta, 1 + delta, size=len(values))
    factor[::7] = 1 - delta  # the bound's ends too
    factor[3::7] = 1 + delta
    with np.errstate(over="ignore"):  # the largest double may reach inf
        approx = dense_of(n, values * factor)
    crafted_weights(monkeypatch, dense, "bound", approx)
    for p in CRAFTED_P:
        assert_same_set(pairwise_weights(model, p), expect[p])


def test_a_tie_past_the_bound_leaves_the_set(monkeypatch):
    """The test above can fail.  The pairs (v, v + 1) weigh 1.0, the others
    0.5, so at p = 1 the threshold reaches 1.0 and the set holds the 59
    tied pairs.  The bound path keeps an approximation down to the
    lowered threshold 1.0 * (1 - 3 delta): the last tie's approximation
    there keeps it, one double below drops it."""
    n, p = 60, 1
    dense = np.full((n, n), 0.5)
    v = np.arange(n - 1)
    dense[v, v + 1] = dense[v + 1, v] = 1.0
    model = crafted_weights(monkeypatch, dense, "kernel")
    expect = pairwise_weights(model, p)
    assert len(expect) == n - 1
    lowered = 1.0 * (1 - 3 * weighting._slack(1))
    for approx_w, held in ((lowered, True), (np.nextafter(lowered, 0.0), False)):
        approx = dense.copy()
        approx[n - 2, n - 1] = approx[n - 1, n - 2] = approx_w
        crafted_weights(monkeypatch, dense, "bound", approx)
        ws = pairwise_weights(model, p)
        if held:
            assert_same_set(ws, expect)
        else:
            assert len(ws) == n - 2 and ws.j[-1] == n - 2


@pytest.mark.parametrize(
    "value, overflows",
    [
        # A = (3v + 3v) / 2 overflows, while each term (v + v) / 2 = v and
        # the weight 3v do not; at 1e308, v + v overflows as well
        pytest.param(0.5e308, False, id="approximation-only"),
        pytest.param(1e308, True, id="weight-too"),
        # far past the guard, with a float64 approximation still finite
        pytest.param(2.0**1000, False, id="at-the-limit"),
    ],
)
def test_an_overflowing_approximation_takes_the_kernel(monkeypatch, value, overflows):
    """Values far past the guard's 2**127 / 10 (F = 4), up to those whose
    float64 approximations would overflow, are weighed by the kernel,
    which gives the kernel path's set or its DatasetError."""
    rows = [{"perm/a": value, "perm/b": value, "perm/c": value}] * 2 + [
        {"perm/a": 1.0, "perm/d": 2.0},
        {"perm/d": 3.0},
    ]
    model = tfidf_model(rows)
    kernel = weighting._weight_rows
    calls = []
    monkeypatch.setattr(
        weighting, "_weight_rows", lambda *a: calls.append(1) or kernel(*a)
    )
    results = []
    for path in PATHS:
        force_path(monkeypatch, path)
        try:
            results.append(pairwise_weights(model, 50))
        except DatasetError as exc:
            results.append(str(exc))
    assert calls == [1, 1]  # one block, weighed by the kernel on each path
    if overflows:
        assert results == ["a pair weight overflows the float64 range"] * 2
    else:
        assert_same_set(results[1], results[0])


# the guard's top at F = 3: 2**127 / (2F + 2)
TOP_AT_3 = 2.0**127 / 8


@pytest.mark.parametrize(
    "value, bound",
    [
        pytest.param(2.0**-126, True, id="smallest-normal-float32"),
        pytest.param(TOP_AT_3, True, id="sum-limit"),
        pytest.param(np.nextafter(2.0**-126, 0.0), False, id="below-float32-normal"),
        pytest.param(np.nextafter(TOP_AT_3, math.inf), False, id="above-sum-limit"),
        pytest.param(5e-324, False, id="float64-subnormal"),
        pytest.param(1.7e308, False, id="near-float64-max"),
    ],
)
def test_values_past_the_guard_take_the_kernel(monkeypatch, value, bound):
    """Three features are held by two samples or more, so the guard admits
    values in [2**-126, 2**127 / 8].  At its edges a forced bound path
    weighs with ``_bound_rows``; one double past them, or far past, it
    runs the kernel and gives the kernel path's set, ``total`` and
    ``min_w`` included, or its DatasetError."""
    rows = [
        {"perm/a": value, "perm/b": 1.0},
        {"perm/a": value, "perm/b": 2.0, "perm/c": 0.5},
        {"perm/b": 3.0, "perm/c": 1.0},
        {"perm/d": 1.0},
    ]
    model = tfidf_model(rows)
    approximate = weighting._bound_rows
    calls = []
    monkeypatch.setattr(
        weighting, "_bound_rows", lambda *a: calls.append(1) or approximate(*a)
    )
    for p in (10, 50, 100):
        results = []
        for path in PATHS:
            force_path(monkeypatch, path)
            try:
                results.append(pairwise_weights(model, p))
            except DatasetError as exc:
                results.append(str(exc))
        if value == 1.7e308:
            assert results == ["a pair weight overflows the float64 range"] * 2
        else:
            assert_same_set(results[1], results[0])
    assert bool(calls) == bound


@st.composite
def guarded_models(draw):
    """Tf-idf models whose values of the F features held by two samples or
    more lie in the guard's [2**-126, 2**127 / (2F + 2)], its edges
    included; the other values are 1.0."""
    n = draw(st.integers(2, 12))
    names = [f"perm/f{c}" for c in range(6)]
    held = draw(st.lists(st.sets(st.sampled_from(names)), min_size=n, max_size=n))
    counts = {name: sum(name in row for row in held) for name in names}
    k = sum(c >= 2 for c in counts.values())
    top = 2.0**127 / (2 * k + 2)
    value = st.one_of(st.sampled_from([2.0**-126, top]), st.floats(2.0**-126, top))
    rows = [
        {f: draw(value) if counts[f] >= 2 else 1.0 for f in sorted(row)} for row in held
    ]
    return tfidf_model(rows)


@settings(deadline=None)
@given(guarded_models(), st.sampled_from([8, 1 << 19]), st.data())
def test_approximations_lie_within_the_slack(model, cells, data):
    """Every cell of a real ``_bound_rows`` block over float32 T lies within
    ``_slack`` of the kernel's weight, whatever order BLAS adds in, with
    one column of B per product or all of them."""
    n = model.n
    r0 = data.draw(st.integers(0, n - 1))
    r1 = data.draw(st.integers(r0 + 1, n))
    features = weighting._feature_lists(model)
    dense = weighting._dense(model, shared_features(model), np.float32)
    with mock.patch.object(weighting, "_BLOCK_CELLS", cells * max(1, len(features))):
        approx = weighting._bound_rows(dense, r0, r1)
    exact = weighting._weight_rows(features, n, np.arange(r0, r1), r0)
    assert approx.dtype == np.float64 and approx.shape == exact.shape
    assert (np.abs(approx - exact) <= weighting._slack(len(features)) * exact).all()


@settings(deadline=None)
@given(tied_models(), st.floats(0.01, 100.0), st.sampled_from([1, 3, 1 << 19]))
def test_both_paths_hold_the_same_set(model, p, rows):
    """With each path forced, at any p, on either side of the rule: the
    same pairs, weights, ``total`` and ``min_w``, byte for byte."""
    sets = []
    with mock.patch.object(weighting, "_BLOCK_CELLS", rows * model.n):
        for gain in PATHS.values():
            with mock.patch.object(weighting, "_BOUND_GAIN", gain):
                sets.append(pairwise_weights(model, p))
    assert_same_set(sets[1], sets[0])


class GatherSizes(np.ndarray):
    """A dense matrix that records the size of every 2-D gather (an index
    or a ``take``) from it or from the arrays it hands out."""

    sizes: list = []

    def _record(self, out):
        if np.ndim(out) == 2:
            GatherSizes.sizes.append(np.size(out))
        return out

    def __getitem__(self, key):
        return self._record(super().__getitem__(key))

    def take(self, *args, **kwargs):
        return self._record(super().take(*args, **kwargs))


def shared_features(model):
    """The names held by two samples or more: the columns of T."""
    return np.bincount(model.indices, minlength=len(model.names)) >= 2


def assert_exact_weights_are_the_kernels(model, pairs, record=False):
    """``_exact_weights`` over ``pairs``, ordered by their first vertex, gives
    the kernel's doubles for them, byte for byte; returns its weights."""
    pairs = sorted(pairs, key=lambda pair: pair[0])  # stable: rows repeat
    i = np.array([a for a, _ in pairs], dtype=weighting.VERTEX_ID)
    j = np.array([b for _, b in pairs], dtype=weighting.VERTEX_ID)
    features = weighting._feature_lists(model)
    dense = weighting._dense(model, shared_features(model), np.float64)
    if record:
        GatherSizes.sizes = []
        dense = dense.view(GatherSizes)
    got = np.asarray(weighting._exact_weights(dense, i, j))
    kernel = weighting._weight_rows(features, model.n, np.arange(model.n), 0)
    assert got.dtype == np.float64
    assert got.tobytes() == kernel[i, j].tobytes()
    return got


@settings(deadline=None)
@given(tied_models(), st.sampled_from([8, 64, 1 << 19]), st.data())
def test_exact_weights_are_the_kernels(model, cells, data):
    """On random models, over ascending pair lists whose first vertices
    repeat, gathering one pair, 8 cells or 65,536 cells at a time.  A pair's
    first vertex holds a feature; its second may share none."""
    dense = weighting._dense(model, shared_features(model), np.float64)
    rows = np.flatnonzero(dense.any(axis=1)).tolist()
    pairs = []
    if rows:
        pair = st.tuples(st.sampled_from(rows), st.integers(0, model.n - 1))
        pairs = data.draw(st.lists(pair, max_size=40))
    with mock.patch.object(weighting, "_BLOCK_CELLS", cells):
        assert_exact_weights_are_the_kernels(model, pairs)


@pytest.mark.parametrize(
    "rows, pairs",
    [
        pytest.param(
            [{"perm/a": 0.3}, {"perm/a": 0.7, "perm/b": 1.1}, {"perm/b": 2.0}],
            [(0, 1), (0, 2), (1, 2), (1, 0)],
            id="single-feature-row",
        ),
        pytest.param(
            [{"perm/a": 5e-324, "perm/b": 1e-310}, {"perm/a": 5e-324, "perm/b": 2.5e-310},
             {"perm/a": 1e-320, "perm/c": 2.0**-1022}, {"perm/c": 5e-324}],
            [(0, 1), (0, 2), (1, 2), (2, 3), (2, 0)],
            id="subnormal",
        ),
        # 20 shared features, one large: adding in order differs from numpy's
        # pairwise sum, which adds the small terms first
        pytest.param(
            [{f"perm/f{k:02d}": 2.0 if k == 0 else 3e-16 for k in range(20)}] * 2
            + [{"perm/f00": 1.0, "perm/f19": 1e-16}],
            [(0, 1), (0, 2), (1, 2)],
            id="many-features",
        ),
        pytest.param([{"perm/a": 1.0}, {"perm/a": 2.0}], [], id="empty"),
    ],
)
def test_exact_weights_on_crafted_pairs(rows, pairs):
    assert_exact_weights_are_the_kernels(tfidf_model(rows), pairs)


def test_exact_weights_of_the_last_or_first_feature_alone():
    """Row 0's features are a, b, c.  The pair (0, 1) shares only c, the
    last: its weight is that one term, which the cumsum's last entry must
    hold.  The pair (0, 2) shares only a, the first, and adds +0.0 after."""
    rows = [{"perm/a": 0.1, "perm/b": 0.2, "perm/c": 0.3}, {"perm/c": 0.7},
            {"perm/a": 1.0}, {"perm/b": 5.0}]
    got = assert_exact_weights_are_the_kernels(tfidf_model(rows), [(0, 1), (0, 2)])
    assert got.tolist() == [(0.3 + 0.7) * 0.5, (0.1 + 1.0) * 0.5]


def test_a_row_with_more_pairs_than_a_gather_holds(monkeypatch):
    """At 4 cells a gather, row 0 (2 features) is read 2 pairs at a time:
    its 5 pairs take 3 gathers, the last one short, and row 1's 2 pairs
    one more."""
    monkeypatch.setattr(weighting, "_BLOCK_CELLS", 4 << 3)
    rows = [{"perm/a": 1.5, "perm/b": 2.5}] + [
        {"perm/a": 0.5 * v, "perm/b": 0.25 * v} if v % 2 else {"perm/b": 3.0 * v}
        for v in range(1, 7)
    ]
    pairs = [(0, v) for v in range(1, 6)] + [(1, 2), (1, 6)]
    assert_exact_weights_are_the_kernels(tfidf_model(rows), pairs, record=True)
    assert GatherSizes.sizes == [4, 4, 2, 4]


def test_the_rule_counts_cells(monkeypatch):
    """The seed-7 sweep corpus (n = 650) takes the bound path at p = 1,
    where the kernel adds about 30 times the exact pass's cells, and the
    kernel at p = 40, where it adds fewer.  The bound path builds T twice:
    in float32 for the blocks, then in float64 for the exact pass."""
    d = generate(
        SynthConfig(
            samples_per_family=50,
            signature_presence_prob=0.6,
            cross_family_leak_prob=0.15,
            rng_seed=7,
        )
    )
    model = compute_tfidf(d)
    dense = weighting._dense
    built = []

    def spy(m, shared, dtype, rows=None):
        if rows is None:  # all of T, not the rows of a block's near pairs
            built.append(dtype)
        return dense(m, shared, dtype, rows)

    monkeypatch.setattr(weighting, "_dense", spy)
    for p, bound in ((1, True), (40, False)):
        built.clear()
        pairwise_weights(model, p)
        assert built == ([np.float32, np.float64] if bound else [])


def test_a_lowered_compaction_counts_what_it_keeps():
    """Compacting to the 4th largest weight, 1.0, lowered below the floor of
    its bucket keeps BELOW as well, in place and in order, and returns the
    count kept."""
    w = np.array([3.0, EDGE, 0.5, 2.0, BELOW, EDGE, np.nextafter(BELOW, 0.0)])
    i = np.arange(len(w), dtype=weighting.VERTEX_ID)
    j = i + 1
    kept, cutoff = weighting._keep_top(i, j, w, len(w), 4, drop=BELOW)
    assert (kept, cutoff) == (5, EDGE)
    assert w[:kept].tolist() == [3.0, EDGE, 2.0, BELOW, EDGE]
    assert i[:kept].tolist() == [0, 1, 3, 4, 5]


def assert_top_value_sorts(w, ranks):
    """top_value(w, r) is np.sort(w)[len(w) - r], bit for bit."""
    ordered = np.sort(w)
    for r in ranks:
        got = np.float64(weighting.top_value(w, int(r)))
        assert got.tobytes() == ordered[len(w) - r].tobytes()


@pytest.mark.parametrize("pool", POOLS)
@pytest.mark.parametrize("cells", [1 << 3, 1 << 19])
def test_top_value_on_crafted_pools(monkeypatch, pool, cells):
    """Bucket edges and their neighbours, subnormals, the full range and all
    tied, counted in chunks of one weight and of many."""
    monkeypatch.setattr(weighting, "_BLOCK_CELLS", cells)
    rng = np.random.default_rng(7)
    w = rng.choice(np.array(pool, dtype=np.float64), size=500)
    assert_top_value_sorts(w, [1, len(w), *rng.integers(1, len(w) + 1, size=20)])


@settings(deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(5e-324, np.finfo(np.float64).max),
            st.sampled_from([BELOW, EDGE, *SUBNORMAL]),
        ),
        min_size=1,
        max_size=200,
    ),
    st.sampled_from([1 << 3, 1 << 6, 1 << 19]),
    st.data(),
)
def test_top_value_is_the_rank_th_largest(values, cells, data):
    w = np.array(values, dtype=np.float64)
    ranks = data.draw(st.lists(st.integers(1, len(w)), min_size=1, max_size=5))
    with mock.patch.object(weighting, "_BLOCK_CELLS", cells):
        assert_top_value_sorts(w, ranks)
