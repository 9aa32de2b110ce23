import pytest

from malcom.dataset import Dataset, DatasetError, Sample
from malcom.graph import GraphBuildParams, GraphError
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


def test_weights_pruned_to_what_params_read():
    d = Dataset(
        samples=[
            Sample(f"s{v}", None, {f"perm/x{v % 5}": 1.0 + v % 3}) for v in range(20)
        ]
    )
    en_1, en_50 = (GraphBuildParams(method="en", p=p, k=1) for p in (1, 50))
    first = run_pipeline(d, en_1)
    assert len(first.weights) < first.weights.total
    with pytest.raises(GraphError, match="holds only"):
        run_pipeline(d, en_50, weights=first.weights)
    # k-NN weighs at p like E-N; only an epsilon value needs every pair
    knn = run_pipeline(d, GraphBuildParams(method="knn", p=1, k=1)).weights
    assert knn.w.tobytes() == first.weights.w.tobytes()
    full = run_pipeline(d, GraphBuildParams(method="epsilon", epsilon=0.5)).weights
    assert len(full) == full.total > len(first.weights)
    # a set pruned at the larger p serves the smaller one
    kept = run_pipeline(d, en_50)
    again = run_pipeline(d, en_1, weights=kept.weights)
    assert again.graph_stats == first.graph_stats
