import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from malcom import synth
from malcom.cli import main
from malcom.dataset import Dataset, Sample, save_dataset
from malcom.errors import ParameterError
from malcom.synth import SynthConfig, feature_dictionary, generate
from malcom.weighting import compute_tfidf, pairwise_weights


def scalar_generate(cfg: SynthConfig) -> Dataset:
    """The oracle of ``generate``: one numpy call per presence test and one
    ``rng.poisson(1.0)`` per drawn count."""
    cfg.validate()
    rng = np.random.default_rng(cfg.rng_seed)
    signatures = [synth._signature_names(cfg, f) for f in range(cfg.num_families)]
    common = synth._common_names(cfg)

    samples = []
    for idx in range(cfg.num_families * cfg.samples_per_family):
        f = idx // cfg.samples_per_family
        features: dict[str, float] = {}
        for name in signatures[f]:
            if rng.random() < cfg.signature_presence_prob:
                features[name] = float(1 + rng.poisson(1.0))
        for g in range(cfg.num_families):
            if g == f:
                continue
            for name in signatures[g]:
                if rng.random() < cfg.cross_family_leak_prob:
                    features[name] = float(1 + rng.poisson(1.0))
        for name in common:
            if rng.random() < synth.COMMON_PRESENCE_PROB:
                features[name] = 1.0
        for name in synth._noise_names(cfg, idx):
            features[name] = float(1 + rng.poisson(1.0))
        samples.append(Sample(synth._sample_id(idx), f"fam{f:02d}", features))
    return Dataset(samples)


probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def configs(draw):
    families = draw(st.integers(0, 4))
    return SynthConfig(
        num_families=families,
        samples_per_family=draw(st.integers(0, 6)) if families else 0,
        signature_features_per_family=draw(st.integers(0, 8)),
        common_features=draw(st.integers(0, 5)),
        noise_features_per_sample=draw(st.integers(0, 4)),
        signature_presence_prob=draw(probability),
        cross_family_leak_prob=draw(probability),
        rng_seed=draw(st.integers(0, 2**70)),
    )


@settings(max_examples=60, deadline=None)
@given(configs(), st.sampled_from([1, 7, synth.BLOCK]))
@example(SynthConfig(rng_seed=7), 7)
@example(SynthConfig(rng_seed=2**70, cross_family_leak_prob=1.0), synth.BLOCK)
def test_generate_equals_scalar(cfg, block):
    """The bulk draws give the scalar generator's samples: the same ids,
    families, and each map's items in order.  Small blocks refill inside a
    Poisson draw.  A numpy release that changes PCG64's doubles or the
    Poisson sampler for lambda < 10 fails here at the first sample that
    differs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "BLOCK", block)
        got = generate(cfg).samples
    want = scalar_generate(cfg).samples
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.id, g.family) == (w.id, w.family)
        assert list(g.features.items()) == list(w.features.items()), (
            f"sample {w.id} differs from the scalar oracle"
        )


# sha256 of the perfbench corpora (seed 7) as the scalar generator wrote them
BENCHMARK_CORPORA = {
    "easy-3900": (
        SynthConfig(samples_per_family=300, cross_family_leak_prob=0.05,
                    signature_presence_prob=0.9, rng_seed=7),
        "f2968c2b8e3054921f68aefe20ab19b3c58fe7ba2682b7e54a0fc8d968886174",
    ),
    "hard-3900": (
        SynthConfig(samples_per_family=300, cross_family_leak_prob=0.15,
                    signature_presence_prob=0.6, rng_seed=7),
        "80fc47b35a958f2464897cb2aaea0bec95f8bd11e83fa53408354d8ca96a5342",
    ),
    "hard-650": (
        SynthConfig(samples_per_family=50, cross_family_leak_prob=0.15,
                    signature_presence_prob=0.6, rng_seed=7),
        "41ab64fbfc5052deb23b082ca28f0068505e48420b66d8742964285dd378f5d6",
    ),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_CORPORA))
def test_benchmark_corpus_keeps_its_digest(tmp_path, name):
    cfg, digest = BENCHMARK_CORPORA[name]
    path = tmp_path / "corpus.jsonl"
    save_dataset(generate(cfg), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def degenerate_config():
    return SynthConfig(
        num_families=2,
        samples_per_family=3,
        signature_features_per_family=4,
        common_features=0,
        noise_features_per_sample=0,
        signature_presence_prob=1.0,
        cross_family_leak_prob=0.0,
        rng_seed=1,
    )


class TestGenerate:
    def test_perfect_block_structure(self):
        d = generate(degenerate_config())
        assert len(d) == 6
        sigs_by_family = {}
        for s in d.samples:
            names = {n for n in s.features}
            assert len(names) == 4
            sigs_by_family.setdefault(s.family, set()).update(names)
        fams = sorted(sigs_by_family)
        assert len(fams) == 2
        assert not (sigs_by_family[fams[0]] & sigs_by_family[fams[1]])

    def test_within_family_pairs_share_all_signatures(self):
        d = generate(degenerate_config())
        for a in d.samples:
            for b in d.samples:
                if a.id >= b.id:
                    continue
                shared = a.features.keys() & b.features.keys()
                if a.family == b.family:
                    assert len(shared) == 4
                else:
                    assert not shared

    def test_byte_identical_under_seed(self, tmp_path):
        cfg = SynthConfig(num_families=3, samples_per_family=5, rng_seed=11)
        f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(generate(cfg), f1)
        save_dataset(generate(cfg), f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_different_seeds_differ(self):
        a = generate(SynthConfig(num_families=2, samples_per_family=3, rng_seed=1))
        b = generate(SynthConfig(num_families=2, samples_per_family=3, rng_seed=2))
        assert [s.features for s in a.samples] != [s.features for s in b.samples]

    def test_dictionary_covers_all_features(self):
        cfg = SynthConfig(num_families=2, samples_per_family=4, rng_seed=0)
        d = generate(cfg)
        covered = {e.feature for e in feature_dictionary(cfg)}
        for s in d.samples:
            assert set(s.features) <= covered

    def test_noise_is_app_specific_signatures_platform(self):
        cfg = SynthConfig(num_families=2, samples_per_family=2, rng_seed=0)
        scopes = {e.feature: e.scope for e in feature_dictionary(cfg)}
        for name, scope in scopes.items():
            if name.startswith("str/noise_"):
                assert scope == "app-specific"
            else:
                assert scope == "platform-defined"

    def test_zero_families_with_samples_rejected(self):
        cfg = SynthConfig(num_families=0, samples_per_family=3)
        with pytest.raises(ParameterError):
            cfg.validate()

    def test_within_family_weight_exceeds_cross_family(self):
        d = generate(SynthConfig(rng_seed=7))
        ws = pairwise_weights(compute_tfidf(d))
        fam = [s.family for s in d.samples]
        within, cross = [], []
        for i, j, w in zip(ws.i.tolist(), ws.j.tolist(), ws.w.tolist()):
            (within if fam[i] == fam[j] else cross).append(w)
        assert np.mean(within) > np.mean(cross)


def test_dictionary_is_built_only_for_dict_out(tmp_path, monkeypatch):
    """generate builds no dictionary entry, and synth builds the dictionary
    only when --dict-out asks for it."""
    built, real = [], synth.FeatureDictionaryEntry

    def entry(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(synth, "FeatureDictionaryEntry", entry)
    generate(SynthConfig(num_families=2, samples_per_family=3, rng_seed=0))
    common = ["synth", "--families", "2", "--samples-per-family", "3"]
    assert main([*common, "--out", str(tmp_path / "a.jsonl")]) == 0
    assert built == []
    dict_out = ["--dict-out", str(tmp_path / "d.csv")]
    assert main([*common, "--out", str(tmp_path / "b.jsonl"), *dict_out]) == 0
    assert len(built) == 2 * 30 + 20 + 2 * 3 * 5
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
