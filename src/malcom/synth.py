"""Planted-family corpus generator.

Stands in for a real malware corpus: each family has signature features
its members carry with high probability, all families share a pool of
common features, and every sample gets uniquely-named noise features
(maximal idf, mirroring app-specific strings).  Signature leakage across
families adds realistic confusion.  Fully deterministic for a fixed seed.
``feature_dictionary`` gives the corpus's dictionary without drawing it.
A corpus depends on numpy's PCG64 stream and its Poisson sampler for lambda < 10 (CI
pins numpy 2.4): ``test_synth.py::test_generate_equals_scalar`` fails if either changes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .dataset import Dataset, FeatureDictionaryEntry, Sample
from .errors import ParameterError


COMMON_PRESENCE_PROB = 0.8  # chance that a sample carries each common feature
BLOCK = 1 << 16  # uniforms per rng.random call
EXP_MINUS_1 = math.exp(-1.0)  # numpy's Poisson(1) stops at a product <= this


@dataclass
class SynthConfig:
    num_families: int = 13
    samples_per_family: int = 50
    signature_features_per_family: int = 30
    common_features: int = 20
    noise_features_per_sample: int = 5
    signature_presence_prob: float = 0.9
    cross_family_leak_prob: float = 0.05
    rng_seed: int = 0

    def validate(self) -> None:
        counts = (
            self.num_families,
            self.samples_per_family,
            self.signature_features_per_family,
            self.common_features,
            self.noise_features_per_sample,
        )
        if any(c < 0 for c in counts):
            raise ParameterError("all counts must be >= 0")
        if self.num_families == 0 and self.samples_per_family > 0:
            raise ParameterError("cannot generate samples with zero families")
        probs = (self.signature_presence_prob, self.cross_family_leak_prob)
        if any(not (0.0 <= p <= 1.0) for p in probs):
            raise ParameterError("probabilities must be in [0, 1]")
        if self.rng_seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.rng_seed}")


def _signature_names(cfg: SynthConfig, f: int) -> list[str]:
    return [
        f"api/sig{f:02d}_{i:02d}"
        for i in range(cfg.signature_features_per_family)
    ]


def _common_names(cfg: SynthConfig) -> list[str]:
    return [f"perm/common{i:02d}" for i in range(cfg.common_features)]


def _sample_id(idx: int) -> str:
    return f"s{idx:04d}"


def _noise_names(cfg: SynthConfig, idx: int) -> list[str]:
    sid = _sample_id(idx)
    return [f"str/noise_{sid}_{i}" for i in range(cfg.noise_features_per_sample)]


def generate(cfg: SynthConfig) -> Dataset:
    """Emit a labeled corpus, family by family, with ids ``s0000``, ``s0001``..."""
    cfg.validate()
    rng = np.random.default_rng(cfg.rng_seed)
    blocks = iter(lambda: rng.random(BLOCK).tolist(), None)  # no list is None: endless
    uniform = chain.from_iterable(blocks).__next__  # rng.random()'s doubles in turn

    def count() -> float:  # 1 + rng.poisson(1.0), from the same doubles
        k, prod = 1, uniform()
        while prod > EXP_MINUS_1:
            k, prod = k + 1, prod * uniform()
        return float(k)

    signatures = [_signature_names(cfg, f) for f in range(cfg.num_families)]
    common = _common_names(cfg)

    samples = []
    for idx in range(cfg.num_families * cfg.samples_per_family):
        f = idx // cfg.samples_per_family
        features: dict[str, float] = {}
        # own signatures
        for name in signatures[f]:
            if uniform() < cfg.signature_presence_prob:
                features[name] = count()
        # leaked foreign signatures
        for g, names in enumerate(signatures):
            if g == f:
                continue
            for name in names:
                if uniform() < cfg.cross_family_leak_prob:
                    features[name] = count()
        # shared features
        for name in common:
            if uniform() < COMMON_PRESENCE_PROB:
                features[name] = 1.0
        # per-sample unique noise
        for name in _noise_names(cfg, idx):
            features[name] = count()
        samples.append(Sample(_sample_id(idx), f"fam{f:02d}", features))
    return Dataset(samples)


def feature_dictionary(cfg: SynthConfig) -> list[FeatureDictionaryEntry]:
    """The dictionary of every feature ``generate(cfg)`` may emit: each
    family's signatures, then the common features, then each sample's noise."""
    cfg.validate()
    signatures = [s for f in range(cfg.num_families) for s in _signature_names(cfg, f)]
    samples = range(cfg.num_families * cfg.samples_per_family)
    noise = [s for idx in samples for s in _noise_names(cfg, idx)]
    groups = [
        (signatures, "FS3", "platform-defined", "numeric"),
        (_common_names(cfg), "FS1", "platform-defined", "boolean"),
        (noise, "FS8", "app-specific", "numeric"),
    ]
    return [
        FeatureDictionaryEntry(name, category, scope, kind)
        for names, category, scope, kind in groups
        for name in names
    ]
