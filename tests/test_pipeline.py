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
    en_1, en_2 = (GraphBuildParams(method="en", p=p, k=1) for p in (1, 2))
    first = run_pipeline(d, en_1)
    assert first.weights.top_p == 1 and len(first.weights) < first.weights.total
    with pytest.raises(GraphError, match="only the top 1%"):
        run_pipeline(d, en_2, weights=first.weights)
    for params in (
        GraphBuildParams(method="knn", k=1),
        GraphBuildParams(method="epsilon", epsilon=0.5),
    ):
        assert run_pipeline(d, params).weights.top_p is None
    # a set pruned at the larger p serves the smaller one
    kept = run_pipeline(d, en_2)
    assert kept.weights.top_p == 2
    again = run_pipeline(d, en_1, weights=kept.weights)
    assert again.graph_stats == first.graph_stats
