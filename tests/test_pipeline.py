import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import malcom
from malcom import pipeline
from malcom.cli import main
from malcom.dataset import Dataset, DatasetError, Sample
from malcom.graph import GraphBuildParams, GraphError
from malcom.infomap import detect
from malcom.pipeline import run_pipeline
from malcom.synth import SynthConfig, generate
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


@pytest.fixture(scope="module")
def hard_lines(tmp_path_factory):
    """The lines of a small corpus whose families overlap, so that the
    detector's ties and shuffles decide between groupings."""
    path = tmp_path_factory.mktemp("corpus") / "data.jsonl"
    synth = ["synth", "--out", path, "--families", 4, "--samples-per-family", 15,
             "--leak", 0.15, "--presence", 0.6, "--seed", 7]
    assert main([str(a) for a in synth]) == 0
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(["1", "10"]))
def test_corpus_line_order_changes_no_output(tmp_path_factory, hard_lines, random, p):
    """The graph numbers its vertices by ascending id: a corpus with its
    lines shuffled gives the same partition.csv and edges.tsv bytes and the
    same codelength double."""
    lines = list(hard_lines)
    random.shuffle(lines)
    tmp = tmp_path_factory.mktemp("order")
    got = []
    for name, text in (("listed", hard_lines), ("shuffled", lines)):
        (tmp / f"{name}.jsonl").write_text("".join(text), encoding="utf-8")
        out = tmp / name
        argv = ["pipeline", "--input", tmp / f"{name}.jsonl", "--p", p,
                "--seed", 7, "--out-dir", out]
        assert main([str(a) for a in argv]) == 0
        report = json.loads((out / "report.json").read_text())
        got.append([(out / f).read_bytes() for f in ("partition.csv", "edges.tsv")]
                   + [report["codelength_bits"].hex()])
    assert got[0] == got[1]


REPLAY = Path(__file__).resolve().parent.parent / "perfbench" / "replay.py"
STAGE_SPANS = {"weighting.tfidf", "graph.build", "infomap.detect", "metrics.evaluate"}


@pytest.mark.parametrize(
    "command, points",
    [
        pytest.param(["pipeline", "--out-dir", "run"], 1, id="pipeline"),
        pytest.param(
            ["sweep", "--p-grid", "5,10", "--out", "sweep.tsv"], 2, id="sweep"
        ),
    ],
)
def test_replay_sees_every_stage(tmp_path, command, points):
    """The benchmark's traced replay wraps the stage functions where
    run_pipeline looks them up; every call to it must reach each of them,
    tf-idf once, and the pair weights only on the sweep's first point."""
    synth = ["synth", "--out", tmp_path / "data.jsonl", "--families", 4,
             "--samples-per-family", 10, "--seed", 7]
    assert main([str(a) for a in synth]) == 0
    result = subprocess.run(
        [sys.executable, str(REPLAY), "--spans", "spans.json", "--",
         *command, "--input", "data.jsonl", "--seed", "7"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(malcom.__file__).parent.parent)),
    )
    assert result.returncode == 0, result.stderr
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    runs = [s["id"] for s in spans if s["name"] == "pipeline.run"]
    assert len(runs) == points
    for run_id in runs:
        children = [s["name"] for s in spans if s["parent"] == run_id]
        assert STAGE_SPANS <= set(children)
        assert children.count("weighting.tfidf") == 1
    assert [s["name"] for s in spans].count("weighting.pairwise") == 1


def test_corpus_is_released_after_tfidf(tmp_path, monkeypatch):
    """run_pipeline holds a dataset it is given without another reference
    only until tf-idf: it is freed before detect runs, and eval.json is the
    same as when the caller keeps it."""
    d = generate(SynthConfig(num_families=4, samples_per_family=10, rng_seed=7))
    run_pipeline(d, PARAMS, seed=7, out_dir=tmp_path / "held")
    refs = []

    def fresh():
        corpus = Dataset.from_columns(d.ids, d.families, d.columns())
        refs.append(weakref.ref(corpus))
        return corpus

    def checked_detect(*args):
        assert refs[0]() is None
        return detect(*args)

    monkeypatch.setattr(pipeline, "detect", checked_detect)
    run_pipeline(fresh(), PARAMS, seed=7, out_dir=tmp_path / "dropped")
    assert len(refs) == 1 and refs[0]() is None
    for name in ("eval.json", "partition.csv"):
        held = (tmp_path / "held" / name).read_bytes()
        assert (tmp_path / "dropped" / name).read_bytes() == held
