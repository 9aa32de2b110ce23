"""Planted-family corpus generator.

Stands in for a real malware corpus: each family has signature features
its members carry with high probability, all families share a pool of
common features, and every sample gets uniquely-named noise features
(maximal idf, mirroring app-specific strings).  Signature leakage across
families adds realistic confusion.  Fully deterministic for a fixed seed.
``feature_dictionary`` gives the corpus's dictionary without drawing it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, FeatureDictionaryEntry, Sample
from .errors import ParameterError


COMMON_PRESENCE_PROB = 0.8  # chance that a sample carries each common feature


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


def _family_label(f: int) -> str:
    return f"fam{f:02d}"


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
    signatures = [_signature_names(cfg, f) for f in range(cfg.num_families)]
    common = _common_names(cfg)

    samples = []
    for idx in range(cfg.num_families * cfg.samples_per_family):
        f = idx // cfg.samples_per_family
        features: dict[str, float] = {}
        # own signatures
        for name in signatures[f]:
            if rng.random() < cfg.signature_presence_prob:
                features[name] = float(1 + rng.poisson(1.0))
        # leaked foreign signatures
        for g in range(cfg.num_families):
            if g == f:
                continue
            for name in signatures[g]:
                if rng.random() < cfg.cross_family_leak_prob:
                    features[name] = float(1 + rng.poisson(1.0))
        # shared features
        for name in common:
            if rng.random() < COMMON_PRESENCE_PROB:
                features[name] = 1.0
        # per-sample unique noise
        for name in _noise_names(cfg, idx):
            features[name] = float(1 + rng.poisson(1.0))
        samples.append(Sample(_sample_id(idx), _family_label(f), features))
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
