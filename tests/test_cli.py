import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import malcom
from malcom import baseline
from malcom.cli import main
from malcom.dataset import load_dataset
from malcom.graph import GraphBuildParams
from malcom.pipeline import run_pipeline
from malcom.weighting import pairwise_weights


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def corpus(tmp_path):
    data = tmp_path / "data.jsonl"
    dic = tmp_path / "dict.csv"
    code = run(
        [
            "synth",
            "--out", data,
            "--dict-out", dic,
            "--families", 4,
            "--samples-per-family", 8,
            "--seed", 7,
        ]
    )
    assert code == 0
    return data, dic


def test_pipeline_writes_reports(tmp_path, corpus):
    data, dic = corpus
    out = tmp_path / "run"
    code = run(
        ["pipeline", "--input", data, "--dict", dic, "--out-dir", out, "--seed", 7]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["parameters"]["p"] == 10.0
    assert report["num_communities"] >= 1
    ev = json.loads((out / "eval.json").read_text())
    assert 0 <= ev["rs"] <= 1
    assert 0 <= ev["accuracy"] <= 1
    assert (out / "edges.tsv").exists()
    assert (out / "partition.csv").exists()


def test_pipeline_unlabeled_skips_eval(tmp_path, corpus):
    data, _ = corpus
    unlabeled = tmp_path / "unlabeled.jsonl"
    lines = []
    for line in data.read_text().splitlines():
        obj = json.loads(line)
        obj["family"] = None
        lines.append(json.dumps(obj))
    unlabeled.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run_unlabeled"
    assert run(["pipeline", "--input", unlabeled, "--out-dir", out]) == 0
    assert not (out / "eval.json").exists()
    assert (out / "report.json").exists()


@pytest.mark.parametrize(
    "command, extra",
    [
        pytest.param("pipeline", ["--p", 0], id="pipeline-p-zero"),
        pytest.param("pipeline", ["--p", 101], id="pipeline-p-above-100"),
        # E-N reads p even when an epsilon is given
        pytest.param(
            "pipeline", ["--epsilon", 1, "--p", 0], id="pipeline-en-epsilon-p-zero"
        ),
        pytest.param("pipeline", ["--k", 0], id="pipeline-k-zero"),
        # the corpus has 32 samples
        pytest.param("pipeline", ["--k", 32], id="pipeline-k-n"),
        pytest.param("sweep", ["--k", 0], id="sweep-k-zero"),
        pytest.param("sweep", ["--k", 32], id="sweep-k-n"),
        pytest.param("sweep", ["--p-grid", "5,0"], id="sweep-p-zero"),
        pytest.param("sweep", ["--p-grid", ","], id="sweep-p-grid-empty"),
        pytest.param(
            "graph", ["--method", "epsilon", "--epsilon", -1], id="graph-epsilon-negative"
        ),
        pytest.param(
            "graph", ["--method", "epsilon", "--epsilon", "nan"], id="graph-epsilon-nan"
        ),
        pytest.param("graph", ["--method", "knn", "--k", 32], id="graph-knn-k-n"),
    ],
)
def test_invalid_graph_params_exit_2(tmp_path, corpus, command, extra):
    data, _ = corpus
    out = {
        "pipeline": ["--out-dir", tmp_path / "x"],
        "sweep": ["--out", tmp_path / "sweep.tsv"],
        "graph": ["--out", tmp_path / "edges.tsv"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        run([command, "--input", data, *out, *extra])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "extra",
    [
        pytest.param(["--p", 0], id="p-zero"),
        pytest.param(["--k", 0], id="k-zero"),
        pytest.param(["--k", 5000], id="k-n"),
    ],
)
def test_bench_invalid_graph_params_exit_2(extra):
    with pytest.raises(SystemExit) as exc:
        run(["bench", "--sizes", 40, "--repeats", 1, *extra])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "extra",
    [
        pytest.param(["--top", -1], id="top-negative"),
        pytest.param(["--scope", "app"], id="scope-without-dict"),
    ],
)
def test_stats_params_checked_before_input_read(tmp_path, extra):
    # reading the missing input would exit 1
    with pytest.raises(SystemExit) as exc:
        run(["stats", "--input", tmp_path / "missing.jsonl", *extra])
    assert exc.value.code == 2


def test_pipeline_missing_input_exit_1(tmp_path, capsys):
    code = run(
        ["pipeline", "--input", tmp_path / "nope.jsonl", "--out-dir", tmp_path / "o"]
    )
    assert code == 1
    assert capsys.readouterr().err.strip() != ""


def test_pipeline_deterministic(tmp_path, corpus):
    data, dic = corpus
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run(
            [
                "pipeline",
                "--input", data,
                "--dict", dic,
                "--out-dir", out,
                "--seed", 5,
            ]
        ) == 0
        outs.append(out)
    for fname in ("edges.tsv", "partition.csv", "eval.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_graph_detect_eval_chain(tmp_path, corpus):
    data, dic = corpus
    edges = tmp_path / "edges.tsv"
    assert run(["graph", "--input", data, "--out", edges, "--method", "en"]) == 0
    ddir = tmp_path / "det"
    assert run(["detect", "--edges", edges, "--out-dir", ddir, "--seed", 1]) == 0
    detect_report = json.loads((ddir / "detect.json").read_text())
    assert detect_report["codelength_bits"] > 0
    evalout = tmp_path / "eval.json"
    assert run(
        [
            "eval",
            "--input", data,
            "--partition", ddir / "partition.csv",
            "--out", evalout,
        ]
    ) == 0
    assert 0 <= json.loads(evalout.read_text())["accuracy"] <= 1


def test_kmeans_partition(tmp_path, corpus):
    data, _ = corpus
    out = tmp_path / "km.csv"
    assert run(["kmeans", "--input", data, "--c", 4, "--seed", 0, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "sample_id,community_id"
    assert len(lines) == 33


def test_stats_and_family_sim(tmp_path, corpus, capsys):
    data, _ = corpus
    assert run(["stats", "--input", data, "--top", 3]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "feature\tfraction"
    assert len(lines) == 4

    sim = tmp_path / "sim.tsv"
    assert run(["family-sim", "--input", data, "--out", sim]) == 0
    rows = sim.read_text().splitlines()
    assert len(rows) == 5  # header + 4 families


def test_scope_requires_dict(tmp_path, corpus):
    data, _ = corpus
    with pytest.raises(SystemExit) as exc:
        run(["stats", "--input", data, "--scope", "platform"])
    assert exc.value.code == 2


def test_scope_filter_changes_features(tmp_path, corpus, capsys):
    data, dic = corpus
    assert run(["stats", "--input", data, "--dict", dic, "--scope", "app"]) == 0
    out = capsys.readouterr().out
    assert "str/noise_" in out
    assert "api/sig" not in out


def test_sweep_rows(tmp_path, corpus):
    data, dic = corpus
    out = tmp_path / "sweep.tsv"
    assert run(
        [
            "sweep",
            "--input", data,
            "--p-grid", "5,10,20",
            "--seed", 1,
            "--out", out,
        ]
    ) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    header = lines[0].split("\t")
    cum_idx = header.index("cumulative_ms")
    cums = [float(line.split("\t")[cum_idx]) for line in lines[1:]]
    assert all(c >= 0 for c in cums)
    assert cums == sorted(cums)


def test_sweep_rows_match_fresh_runs(tmp_path, corpus):
    """The sweep weighs the corpus once; its rows, in grid order, must equal
    runs that each compute their own weights, including p values that need
    the k-NN fallback and a p listed twice."""
    data, _ = corpus
    grid = [10, 1, 40, 3, 10]
    out = tmp_path / "sweep.tsv"
    assert run(
        [
            "sweep",
            "--input", data,
            "--p-grid", ",".join(str(p) for p in grid),
            "--seed", 3,
            "--out", out,
        ]
    ) == 0
    rows = [line.split("\t")[:5] for line in out.read_text().splitlines()[1:]]

    d = load_dataset(data)
    expect, fallback_edges = [], 0
    for p in grid:
        rep = run_pipeline(d, GraphBuildParams(method="en", p=p, k=1), seed=3)
        ev = rep.evaluation
        expect.append(
            [
                f"{p:g}",
                str(rep.graph_stats["edges"]),
                str(rep.num_communities),
                f"{ev.rand_statistic:.6f}",
                f"{ev.accuracy:.6f}",
            ]
        )
        fallback_edges += rep.graph_stats.get("fallback_edges", 0)
    assert fallback_edges > 0
    assert rows == expect


def test_sweep_weighs_once_at_largest_p(tmp_path, corpus, monkeypatch):
    calls = []

    def counted(model, top_p=None):
        calls.append(top_p)
        return pairwise_weights(model, top_p=top_p)

    monkeypatch.setattr("malcom.pipeline.pairwise_weights", counted)
    data, _ = corpus
    out = tmp_path / "sweep.tsv"
    assert run(
        ["sweep", "--input", data, "--p-grid", "10,1,40,3,10", "--out", out]
    ) == 0
    assert calls == [40]
    assert len(out.read_text().splitlines()) == 6


def _scipy_modules_after(code):
    """scipy modules loaded after running ``code`` in a fresh interpreter."""
    code += "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(malcom.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    return result.stdout.strip().splitlines()[-1]


def test_cli_import_defers_scipy(tmp_path, corpus):
    assert _scipy_modules_after("import sys, malcom.cli") == "[]"
    data, dic = corpus
    runs = [
        ["pipeline", "--input", data, "--dict", dic, "--out-dir", tmp_path / "run"],
        ["sweep", "--input", data, "--p-grid", "5,10", "--out", tmp_path / "s.tsv"],
    ]
    for argv in runs:
        code = f"import sys; from malcom.cli import main; main({[str(a) for a in argv]!r})"
        assert _scipy_modules_after(code) == "[]"
    assert (tmp_path / "run" / "eval.json").exists()
    assert len((tmp_path / "s.tsv").read_text().splitlines()) == 3


def test_bench_rows(tmp_path):
    out = tmp_path / "bench.tsv"
    assert run(
        ["bench", "--sizes", "40", "--repeats", 2, "--out", out]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n\tmethod\tmedian_ms"
    methods = {line.split("\t")[1] for line in lines[1:]}
    assert methods == {
        "weights", "weights-top", "epsilon", "knn", "en", "detect", "eval"
    }


def test_every_error_class_is_a_malcom_error():
    """cli.main reports MalcomError as error: and exit 1, so every error
    class the package defines must derive from it."""
    classes = {
        obj
        for info in pkgutil.iter_modules(malcom.__path__)
        for obj in vars(importlib.import_module(f"malcom.{info.name}")).values()
        if isinstance(obj, type)
        and issubclass(obj, Exception)
        and obj.__module__.startswith("malcom.")
    }
    names = {c.__name__ for c in classes}
    assert {
        "DatasetError", "EvalError", "GraphError", "InfomapError",
        "KMeansError", "SynthError", "MalcomError",
    } <= names
    assert all(issubclass(c, malcom.MalcomError) for c in classes)
    assert issubclass(malcom.MalcomError, ValueError)


def test_kmeans_error_exit_1(tmp_path, corpus, capsys, monkeypatch):
    """A Lloyd step whose objective rises ends with error:, not a traceback."""
    real = baseline._assign
    factor = iter(10.0**e for e in range(100))

    def rising(*args):
        assignment, cost = real(*args)
        return assignment, cost * next(factor)

    monkeypatch.setattr(baseline, "_assign", rising)
    data, _ = corpus
    code = run(["kmeans", "--input", data, "--c", 4, "--out", tmp_path / "k.csv"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: objective increased across Lloyd iterations" in err


def test_tfidf_dump(tmp_path, corpus):
    data, _ = corpus
    out = tmp_path / "tfidf.jsonl"
    assert run(["tfidf", "--input", data, "--out", out]) == 0
    assert len(out.read_text().splitlines()) == 32


def test_pipeline_rejects_non_finite_feature(tmp_path, corpus, capsys):
    data, _ = corpus
    lines = data.read_text().splitlines()
    for k in (0, 1):
        obj = json.loads(lines[k])
        obj["features"]["perm/C"] = float("inf")
        lines[k] = json.dumps(obj)  # written as the literal Infinity
    bad = tmp_path / "inf.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    assert run(["pipeline", "--input", bad, "--out-dir", out]) == 1
    assert capsys.readouterr().err.startswith("error: line 1:")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("a\tb\n", id="two-fields"),
        pytest.param("a\tb\t1.0\t2\n", id="four-fields"),
        pytest.param("a\tb\theavy\n", id="non-numeric-weight"),
        pytest.param("# vertices: many\na\tb\t1.0\n", id="non-numeric-count"),
        pytest.param("a\tb\tnan\n", id="nan-weight"),
        pytest.param("a\tb\tinf\n", id="inf-weight"),
        pytest.param("a\tb\t0\n", id="zero-weight"),
        pytest.param("a\tb\t-1.5\n", id="negative-weight"),
        pytest.param("a\ta\t1\n", id="self-loop"),
        pytest.param("a\tb\t1\nb\ta\t2\n", id="repeated-pair"),
        pytest.param("a\tb\t1e308\nb\tc\t1e308\n", id="weight-sum-overflows"),
        pytest.param("a\tb\t1e308\n", id="doubled-weight-overflows"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_detect_rejects_malformed_edges(tmp_path, capsys, text):
    edges = tmp_path / "edges.tsv"
    edges.write_text(text)
    out = tmp_path / "det"
    assert run(["detect", "--edges", edges, "--out-dir", out]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "detect.json").exists()


def big_value_corpus(tmp_path, holders, value="1e308"):
    """Ten samples in two families; the first ``holders`` also carry the
    feature api/big with ``value``, written as is."""
    lines = []
    for v in range(10):
        feats = f'"perm/p{v % 3}": 1, "api/a{v % 2}": 2'
        if v < holders:
            feats += f', "api/big": {value}'
        lines.append(f'{{"id": "s{v}", "family": "F{v % 2}", "features": {{{feats}}}}}')
    path = tmp_path / "big.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


OVERFLOW_COMMANDS = {
    "tfidf": ["--out", "out"],
    "family-sim": ["--out", "out"],
    "kmeans": ["--c", 2, "--out", "out"],
    "graph": ["--out", "out"],
    "pipeline": ["--out-dir", "out"],
    "sweep": ["--out", "out"],
}


def run_overflow(tmp_path, capsys, data, command):
    extra = [tmp_path / a if a == "out" else a for a in OVERFLOW_COMMANDS[command]]
    code = run([command, "--input", data, *extra])
    return code, capsys.readouterr().err


# one sample's tf-idf is inf (the feature's idf is ln 10)
@pytest.mark.parametrize("value", ["1.5e308", "1e308"])
@pytest.mark.parametrize("command", sorted(OVERFLOW_COMMANDS))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_tfidf_ends_in_error(tmp_path, capsys, command, value):
    data = big_value_corpus(tmp_path, holders=1, value=value)
    code, err = run_overflow(tmp_path, capsys, data, command)
    assert code == 1 and err.startswith("error: ") and "overflows" in err
    assert not (tmp_path / "out").exists()


# finite tf-idf values (1.6e308 each) whose pair weight sums to inf
@pytest.mark.parametrize("command", sorted(set(OVERFLOW_COMMANDS) - {"tfidf"}))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_pair_weight_ends_in_error(tmp_path, capsys, command):
    data = big_value_corpus(tmp_path, holders=2)
    code, err = run_overflow(tmp_path, capsys, data, command)
    assert code == 1 and err.startswith("error: ") and "overflow" in err
    assert not (tmp_path / "out").exists()


# finite pair weights (1.05e307) whose family and graph sums overflow;
# the edge file itself is valid
@pytest.mark.parametrize(
    "command, code", [("family-sim", 1), ("kmeans", 1), ("pipeline", 1),
                      ("sweep", 1), ("graph", 0), ("tfidf", 0)]
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_weight_sums_end_in_error(tmp_path, capsys, command, code):
    data = big_value_corpus(tmp_path, holders=9)
    got, err = run_overflow(tmp_path, capsys, data, command)
    assert got == code
    if code:
        assert err.startswith("error: ") and "overflow" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("", id="empty"),
        pytest.param("id,community\n", id="bad-header"),
        pytest.param("sample_id,community_id\ns1\n", id="one-field"),
        pytest.param("sample_id,community_id\ns1,0,0\n", id="three-fields"),
        pytest.param("sample_id,community_id\ns1,first\n", id="non-integer-id"),
    ],
)
def test_eval_rejects_malformed_partition(tmp_path, corpus, capsys, text):
    data, _ = corpus
    part = tmp_path / "partition.csv"
    part.write_text(text)
    out = tmp_path / "eval.json"
    assert run(["eval", "--input", data, "--partition", part, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_eval_single_sample_exit_1(tmp_path, capsys):
    data = tmp_path / "one.jsonl"
    data.write_text('{"id":"s1","family":"A","features":{"perm/x":1}}\n')
    part = tmp_path / "partition.csv"
    part.write_text("sample_id,community_id\ns1,0\n")
    out = tmp_path / "eval.json"
    assert run(["eval", "--input", data, "--partition", part, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: ")
