import pytest

from malcom.dataset import Dataset, DatasetError
from malcom.graph import GraphBuildParams
from malcom.pipeline import run_pipeline
from malcom.weighting import compute_tfidf, pairwise_weights

PARAMS = GraphBuildParams(method="en", p=50, k=1)


def test_given_weights_are_reused(four_sample_dataset):
    first = run_pipeline(four_sample_dataset, PARAMS)
    again = run_pipeline(four_sample_dataset, PARAMS, weights=first.weights)
    assert again.weights is first.weights
    assert "weights" in first.timings_ms
    assert "weights" not in again.timings_ms  # computed once, counted once
    assert "weights" not in again.to_json()
    assert again.graph_stats == first.graph_stats


def test_weights_of_another_corpus_rejected(four_sample_dataset):
    reordered = Dataset(samples=list(reversed(four_sample_dataset.samples)))
    ws = pairwise_weights(compute_tfidf(reordered))
    with pytest.raises(DatasetError, match="another corpus"):
        run_pipeline(four_sample_dataset, PARAMS, weights=ws)
