import json

import pytest

from malcom.cli import main


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
        pytest.param("pipeline", ["--k", 0], id="pipeline-k-zero"),
        # the corpus has 32 samples
        pytest.param("pipeline", ["--k", 32], id="pipeline-k-n"),
        pytest.param("sweep", ["--k", 0], id="sweep-k-zero"),
        pytest.param("sweep", ["--k", 32], id="sweep-k-n"),
        pytest.param("sweep", ["--p-grid", "5,0"], id="sweep-p-zero"),
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


def test_bench_rows(tmp_path):
    out = tmp_path / "bench.tsv"
    assert run(
        ["bench", "--sizes", "40", "--repeats", 2, "--out", out]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n\tmethod\tmedian_ms"
    methods = {line.split("\t")[1] for line in lines[1:]}
    assert methods == {"weights", "epsilon", "knn", "en"}


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
        pytest.param(
            "a\tb\t1e308\nb\tc\t1e308\n",
            id="weight-sum-overflows",
            marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning"),
        ),
    ],
)
def test_detect_rejects_malformed_edges(tmp_path, capsys, text):
    edges = tmp_path / "edges.tsv"
    edges.write_text(text)
    out = tmp_path / "det"
    assert run(["detect", "--edges", edges, "--out-dir", out]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "detect.json").exists()


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
