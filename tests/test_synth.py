import numpy as np
import pytest

from malcom import synth
from malcom.cli import main
from malcom.dataset import save_dataset
from malcom.errors import ParameterError
from malcom.synth import SynthConfig, feature_dictionary, generate
from malcom.weighting import compute_tfidf, pairwise_weights


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
