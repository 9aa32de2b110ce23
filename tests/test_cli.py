import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import malcom
from malcom import baseline, cli, graph, infomap, weighting
from malcom.baseline import KMeansConfig
from malcom.cli import main
from malcom.dataset import Dataset, DatasetError, filter_by_scope, load_dataset
from malcom.errors import ParameterError
from malcom.graph import (
    GraphBuildParams,
    build_en,
    build_epsilon,
    build_knn,
    percentile_cutoff,
)
from malcom.pipeline import run_pipeline
from malcom.synth import SynthConfig
from malcom.weighting import compute_tfidf, feature_frequency, pairwise_weights


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
        # only --method epsilon reads an epsilon
        pytest.param(
            "pipeline", ["--epsilon", 1, "--p", 0], id="pipeline-en-epsilon-p-zero"
        ),
        pytest.param(
            "pipeline", ["--method", "en", "--epsilon", 5], id="pipeline-en-epsilon"
        ),
        pytest.param(
            "graph", ["--method", "knn", "--epsilon", 5], id="graph-knn-epsilon"
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
        pytest.param(
            "graph",
            ["--method", "knn", "--epsilon", 3, "--p", 500],
            id="graph-knn-epsilon-p-above-100",
        ),
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
    "sizes",
    [
        pytest.param(",", id="empty"),
        pytest.param("40,0", id="zero"),
        pytest.param("-5", id="negative"),
    ],
)
def test_bench_invalid_sizes_exit_2(tmp_path, sizes, capsys):
    out = tmp_path / "bench.tsv"
    with pytest.raises(SystemExit) as exc:
        run(["bench", "--sizes", sizes, "--repeats", 1, "--out", out])
    assert exc.value.code == 2
    assert "--sizes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("c", [0, 33])
def test_kmeans_cluster_count_out_of_range_exit_2(tmp_path, corpus, c, capsys):
    data, _ = corpus  # 32 samples
    out = tmp_path / "k.csv"
    with pytest.raises(SystemExit) as exc:
        run(["kmeans", "--input", data, "--c", c, "--out", out])
    assert exc.value.code == 2
    assert f"cluster count must be in [1, 32], got {c}" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("grid", ["x", "5,x", ","])
def test_sweep_grid_checked_before_input_read(tmp_path, grid, capsys):
    # reading the missing input would exit 1
    with pytest.raises(SystemExit) as exc:
        run(
            ["sweep", "--input", tmp_path / "missing.jsonl", "--p-grid", grid,
             "--out", tmp_path / "sweep.tsv"]
        )
    assert exc.value.code == 2
    assert "--p-grid" in capsys.readouterr().err


def weights(d):
    return pairwise_weights(compute_tfidf(d))


# each library parameter check, run on the 32-sample corpus, and its message
LIBRARY_PARAMETER_ERRORS = [
    pytest.param(
        lambda d: GraphBuildParams(k=0).validate(len(d)), "k must be >= 1, got 0",
        id="graph-params",
    ),
    pytest.param(
        lambda d: percentile_cutoff(weights(d), 0), "p must be in (0, 100], got 0",
        id="percentile-cutoff",
    ),
    pytest.param(
        lambda d: build_epsilon(weights(d), math.nan), "epsilon must be >= 0, got nan",
        id="build-epsilon",
    ),
    pytest.param(
        lambda d: build_knn(weights(d), 32), "k must be < n (32), got 32",
        id="build-knn",
    ),
    pytest.param(
        lambda d: build_en(weights(d), 10, 0), "k must be >= 1, got 0",
        id="build-en",
    ),
    pytest.param(
        lambda d: KMeansConfig(c=0).validate(len(d)),
        "cluster count must be in [1, 32], got 0",
        id="kmeans-config",
    ),
    pytest.param(
        lambda d: SynthConfig(cross_family_leak_prob=2.0).validate(),
        "probabilities must be in [0, 1]",
        id="synth-config",
    ),
    pytest.param(
        lambda d: pairwise_weights(compute_tfidf(d), top_p=0),
        "top_p must be in (0, 100], got 0",
        id="pairwise-weights",
    ),
    pytest.param(
        lambda d: feature_frequency(d, -1), "top must be >= 0, got -1",
        id="feature-frequency",
    ),
    pytest.param(
        lambda d: filter_by_scope(d, "everywhere", None), "unknown scope 'everywhere'",
        id="filter-by-scope",
    ),
]


@pytest.mark.parametrize("check, message", LIBRARY_PARAMETER_ERRORS)
def test_library_parameter_error_exits_2(corpus, monkeypatch, capsys, check, message):
    """A ParameterError raised anywhere in a command reaches main, which
    alone turns it into a usage error: exit 2 and its message."""
    data, _ = corpus
    d = load_dataset(data)
    monkeypatch.setitem(cli._COMMANDS, "stats", lambda args: check(d))
    with pytest.raises(SystemExit) as exc:
        run(["stats", "--input", data])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize(
    "exc, message",
    [
        pytest.param(MemoryError(), "out of memory", id="no-message"),
        pytest.param(
            MemoryError("Unable to allocate 58.0 MiB"), "Unable to allocate 58.0 MiB",
            id="numpy-message",
        ),
    ],
)
def test_memory_error_exit_1(tmp_path, corpus, monkeypatch, capsys, exc, message):
    """A stage that runs out of memory ends in error:, not a traceback."""

    def no_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "pairwise_weights", no_memory)
    data, _ = corpus
    assert run(["graph", "--input", data, "--out", tmp_path / "edges.tsv"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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

    def counted(model, top_p=100.0):
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


BLOCK_SCIPY = """
import importlib.abc, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
try:
    import scipy
except ImportError:
    pass
else:
    raise SystemExit("scipy was not blocked")
from malcom.cli import main
for argv in ARGVS:
    print(argv[0], main(argv))
"""


def test_every_command_runs_without_scipy(tmp_path):
    """numpy is the only runtime dependency: with scipy unimportable, every
    command exits 0."""
    data, dic, edges = tmp_path / "data.jsonl", tmp_path / "dict.csv", tmp_path / "en.tsv"
    common = ["--input", data]
    argvs = [
        ["synth", "--out", data, "--dict-out", dic, "--families", 4,
         "--samples-per-family", 8, "--seed", 7],
        ["tfidf", *common, "--out", tmp_path / "tfidf.jsonl"],
        ["graph", *common, "--method", "en", "--out", edges],
        ["graph", *common, "--method", "knn", "--k", 2, "--out", tmp_path / "knn.tsv"],
        ["graph", *common, "--method", "epsilon", "--epsilon", 5, "--out", tmp_path / "eps.tsv"],
        ["detect", "--edges", edges, "--out-dir", tmp_path / "detect"],
        ["kmeans", *common, "--c", 4, "--out", tmp_path / "k.csv"],
        ["eval", *common, "--partition", tmp_path / "k.csv", "--out", tmp_path / "eval.json"],
        ["stats", *common, "--out", tmp_path / "stats.tsv"],
        ["family-sim", *common, "--out", tmp_path / "fam.tsv"],
        ["sweep", *common, "--p-grid", "5,10", "--out", tmp_path / "sweep.tsv"],
        ["bench", "--sizes", 40, "--repeats", 1, "--out", tmp_path / "bench.tsv"],
        ["pipeline", *common, "--dict", dic, "--out-dir", tmp_path / "run"],
    ]
    argvs = [[str(a) for a in argv] for argv in argvs]
    src = str(Path(malcom.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", BLOCK_SCIPY.replace("ARGVS", repr(argvs))],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [f"{argv[0]} 0" for argv in argvs]
    assert (tmp_path / "run" / "eval.json").exists()


NO_RNG_IMPORT = """
import sys
from malcom.cli import main
for argv in ARGVS:
    print(argv[0], main(argv))
print(sorted({"numpy.random", "_hashlib"} & set(sys.modules)))
"""


def test_detecting_commands_never_import_numpy_random(tmp_path):
    """pipeline, graph, detect and sweep shuffle with detect's own PCG64:
    numpy.random and the OpenSSL it loads through hashlib stay unimported."""
    data, edges = tmp_path / "data.jsonl", tmp_path / "en.tsv"
    assert run(["synth", "--out", data, "--samples-per-family", 20, "--seed", 7]) == 0
    argvs = [
        ["pipeline", "--input", data, "--seed", 7, "--out-dir", tmp_path / "run"],
        ["graph", "--input", data, "--out", edges],
        ["detect", "--edges", edges, "--seed", 7, "--out-dir", tmp_path / "detect"],
        ["sweep", "--input", data, "--p-grid", "5,10", "--out", tmp_path / "sweep.tsv"],
    ]
    argvs = [[str(a) for a in argv] for argv in argvs]
    src = str(Path(malcom.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", NO_RNG_IMPORT.replace("ARGVS", repr(argvs))],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [f"{argv[0]} 0" for argv in argvs] + ["[]"]


UNDER_MEMORY_LIMIT = """
import resource, sys
import malcom.cli
with open("/proc/self/status") as fh:
    vm_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
limit = vm_kib * 1024 + int(sys.argv[1]) * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(malcom.cli.main(sys.argv[2:]))
"""


@pytest.mark.skipif(
    resource is None or not Path("/proc/self/status").exists(),
    reason="needs resource.RLIMIT_AS and a Linux VmSize",
)
def test_out_of_memory_ends_in_an_error_line(tmp_path):
    """pipeline on a 650-sample corpus, in a child whose address space is
    capped a few MiB above its size after importing the CLI: it exits 0, or
    exits 1 with an `error: ` line, and never prints a traceback."""
    data = tmp_path / "data.jsonl"
    assert run(["synth", "--out", data, "--samples-per-family", 50, "--seed", 7]) == 0
    src = str(Path(malcom.__file__).resolve().parent.parent)
    for extra_mib in (8, 32, 128):
        argv = ["pipeline", "--input", data, "--out-dir", tmp_path / f"run{extra_mib}"]
        result = subprocess.run(
            [sys.executable, "-c", UNDER_MEMORY_LIMIT, str(extra_mib), *map(str, argv)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=60,
        )
        assert "Traceback" not in result.stderr, (extra_mib, result.stderr)
        assert result.returncode == 0 or (
            result.returncode == 1 and result.stderr.startswith("error: ")
        ), (extra_mib, result.returncode, result.stderr)


def test_bench_rows(tmp_path):
    out = tmp_path / "bench.tsv"
    assert run(
        ["bench", "--sizes", "40", "--repeats", 2, "--out", out]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n\tstage\tmedian_ms"
    stages = [line.split("\t")[1] for line in lines[1:]]
    assert stages == ["tfidf", "weights", "graph", "detect", "eval", "knn"]


def test_every_error_class_is_a_malcom_error():
    """cli.main reports MalcomError as error: and exit 1 (ParameterError as
    a usage error, exit 2), so every error class the package defines must
    derive from it."""
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
        "KMeansError", "MalcomError", "ParameterError",
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
        # scaled to the largest weight's [1, 2), the smallest flushes to 0
        pytest.param("a\tb\t1e308\nb\tc\t1e-300\n", id="weights-span-the-range"),
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_detect_groups_subnormal_edge_weights(tmp_path):
    """Weights of 1e-320 put 1 / (2W) past the float64 range, which would
    leave four singletons; the two heavy pairs are found."""
    edges = tmp_path / "edges.tsv"
    edges.write_text("a\tb\t1e-320\nc\td\t1e-320\nb\tc\t1e-321\n")
    assert run(["detect", "--edges", edges, "--out-dir", tmp_path / "det"]) == 0
    assert (tmp_path / "det" / "partition.csv").read_text().split() == [
        "sample_id,community_id", "a,0", "b,0", "c,1", "d,1"
    ]


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("a\tb\t1e308\nb\tc\t1e308\n", id="weight-sum-overflows"),
        pytest.param("a\tb\t1e308\n", id="doubled-weight-overflows"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_detect_scales_down_overflowing_edge_weights(tmp_path, text):
    """Weights whose total overflows float64 are scaled by a power of two:
    the outputs of unit weights."""
    for name, t in (("huge", text), ("unit", text.replace("1e308", "1"))):
        edges = tmp_path / f"{name}.tsv"
        edges.write_text(t)
        assert run(["detect", "--edges", edges, "--out-dir", tmp_path / name]) == 0
    for f in ("partition.csv", "detect.json"):
        assert (tmp_path / "huge" / f).read_bytes() == (tmp_path / "unit" / f).read_bytes()


def families_corpus(path, value):
    """24 samples of 4 families: each family's 4 features, and one of 3
    features shared across families, every value ``value``."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in range(24):
            feats = {f"perm/F{s % 4}_{k}": value for k in range(4)}
            feats[f"api/c{s % 3}"] = value
            obj = {"id": f"s{s:02d}", "family": f"F{s % 4}", "features": feats}
            fh.write(json.dumps(obj) + "\n")
    return path


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pipeline_at_the_smallest_subnormal_value(tmp_path):
    """Every value 5e-324 makes every pair weight subnormal: the pipeline
    still finds the 4 families, as at value 1."""
    parts = []
    for value in (1.0, 5e-324):
        data = families_corpus(tmp_path / f"{value}.jsonl", value)
        out = tmp_path / f"run{value}"
        assert run(["pipeline", "--input", data, "--seed", 7, "--out-dir", out]) == 0
        assert json.loads((out / "eval.json").read_text())["accuracy"] == 1.0
        parts.append((out / "partition.csv").read_bytes())
    assert parts[0] == parts[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_floor_edge_below_the_smallest_double_keeps_its_weight(tmp_path):
    """Two samples share a feature of value 1e-321, whose weight times
    10**-3 would flush to 0.0, and two have no feature: their floor edges
    get the smallest double instead.  The pipeline exits 0 with every
    weight > 0, and ``detect --edges`` finds the same partition."""
    data = tmp_path / "tiny.jsonl"
    rows = [{"perm/x": 1e-321}] * 2 + [{}] * 2
    data.write_text("".join(
        json.dumps({"id": f"s{v}", "features": f}) + "\n" for v, f in enumerate(rows)
    ))
    out, det = tmp_path / "run", tmp_path / "det"
    assert run(["pipeline", "--input", data, "--p", 10, "--out-dir", out]) == 0
    edges = out / "edges.tsv"
    weights = [float(line.split("\t")[2]) for line in edges.read_text().splitlines()[1:]]
    assert weights and min(weights) == math.ulp(0.0)
    assert run(["detect", "--edges", edges, "--out-dir", det]) == 0
    assert (det / "partition.csv").read_bytes() == (out / "partition.csv").read_bytes()


@pytest.mark.parametrize("edges", [127, 128])
def test_detect_rejects_more_edges_than_edge_ids_hold(
    tmp_path, monkeypatch, capsys, edges
):
    """The detector's CSR names edges by int32 ids.  With the id dtype
    patched to int8 (at most 127 edges), 127 edges are detected through an
    int8 CSR and 128 end in ``error: ...``, before any id could wrap."""
    for module in (graph, weighting):  # the dtype csr allocates, and checks
        monkeypatch.setattr(module, "EDGE_ID", np.int8)
    eid_dtypes = []

    def spy_csr(*args):
        indptr, indices, eids = graph.csr(*args)
        eid_dtypes.append(eids.dtype)
        return indptr, indices, eids

    monkeypatch.setattr(infomap, "csr", spy_csr)
    pairs = [(a, b) for a in range(17) for b in range(a + 1, 17)][:edges]
    path = tmp_path / "edges.tsv"
    path.write_text("".join(f"v{a:02d}\tv{b:02d}\t1\n" for a, b in pairs))
    code = run(["detect", "--edges", path, "--out-dir", tmp_path / "det"])
    err = capsys.readouterr().err
    if edges == 127:
        assert code == 0 and err == ""
        assert eid_dtypes and set(eid_dtypes) == {np.dtype(np.int8)}
    else:
        assert code == 1
        assert err == "error: 128 edges exceed the 127 that edge ids hold\n"


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


# finite tf-idf values (1.6e308 each) whose pair weight sums to inf;
# k-means scales them down, as the detector scales its weights
@pytest.mark.parametrize("command", sorted(set(OVERFLOW_COMMANDS) - {"tfidf"}))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_pair_weight_ends_in_error(tmp_path, capsys, command):
    data = big_value_corpus(tmp_path, holders=2)
    code, err = run_overflow(tmp_path, capsys, data, command)
    if command == "kmeans":
        assert code == 0 and err == "" and (tmp_path / "out").stat().st_size
    else:
        assert code == 1 and err.startswith("error: ") and "overflow" in err
        assert not (tmp_path / "out").exists()


# finite pair weights (1.05e307) whose family and graph sums overflow;
# the edge file itself is valid, the detector scales the graph down and
# k-means its tf-idf values
@pytest.mark.parametrize(
    "command, code", [("family-sim", 1), ("kmeans", 0), ("pipeline", 0),
                      ("sweep", 0), ("graph", 0), ("tfidf", 0)]
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


NOT_UTF8 = b'{"id":"s1","features":{}}\n\xff\n'
HUGE = "x" * 200_000  # over the csv module's 131,072-character field limit


@pytest.mark.parametrize(
    "argv, content",
    [
        pytest.param(["stats", "--input", "BAD"], NOT_UTF8, id="stats"),
        pytest.param(["graph", "--input", "BAD", "--out", "OUT"], NOT_UTF8, id="graph"),
        pytest.param(["detect", "--edges", "BAD", "--out-dir", "OUT"],
                     b"# vertices: 2\na\t\xff\t1\n", id="detect"),
        pytest.param(["stats", "--input", "DATA", "--dict", "BAD"],
                     b"feature,category,scope,value_kind\n\xff\n", id="dict"),
        pytest.param(["eval", "--input", "DATA", "--partition", "BAD", "--out", "OUT"],
                     b"sample_id,community_id\n\xff,0\n", id="eval"),
        pytest.param(["stats", "--input", "DATA", "--dict", "BAD"],
                     f"feature,category,scope,value_kind\n{HUGE},FS1,app-specific,"
                     "boolean\n".encode(), id="dict-huge-field"),
        pytest.param(["eval", "--input", "DATA", "--partition", "BAD", "--out", "OUT"],
                     f"sample_id,community_id\n{HUGE},0\n".encode(),
                     id="eval-huge-field"),
    ],
)
def test_unreadable_text_ends_in_error(tmp_path, corpus, capsys, argv, content):
    """Bytes that are not UTF-8 and CSV fields over the csv module's limit
    end in error: and exit 1, naming the file, in every reader."""
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    names = {"BAD": bad, "DATA": corpus[0], "OUT": tmp_path / "out"}
    assert run([names.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert not (tmp_path / "out").exists()


def test_eval_rejects_sample_listed_twice(tmp_path, capsys):
    data = tmp_path / "two.jsonl"
    data.write_text(
        '{"id":"a","family":"A","features":{"perm/x":1}}\n'
        '{"id":"b","family":"B","features":{"perm/y":1}}\n'
    )
    part = tmp_path / "partition.csv"
    part.write_text("sample_id,community_id\na,0\nb,1\na,1\n")
    out = tmp_path / "eval.json"
    assert run(["eval", "--input", data, "--partition", part, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: partition line 4: sample 'a' listed twice")
    assert not out.exists()


def test_deeply_nested_json_line_exit_1(tmp_path, capsys):
    data = tmp_path / "nested.jsonl"
    data.write_text('{"id":"s1","features":{}}\n' + "[" * 5000 + "]" * 5000 + "\n")
    out = tmp_path / "tfidf.jsonl"
    assert run(["tfidf", "--input", data, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 2: invalid JSON (nested too deeply)\n"
    assert not out.exists()


def test_bad_feature_name_names_its_corpus_line(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    data.write_text(
        '{"id":"s1","features":{"perm/a":1}}\n{"id":"s2","features":{"nope":1}}\n'
    )
    assert run(["stats", "--input", data]) == 1
    assert capsys.readouterr().err == (
        "error: line 2: feature name 'nope' lacks a category prefix\n"
    )


def test_bad_dictionary_row_names_its_line(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    data.write_text('{"id":"s1","features":{"perm/a":1}}\n')
    dic = tmp_path / "dict.csv"
    dic.write_text(
        "feature,category,scope,value_kind\n"
        "perm/a,FS1,platform-defined,boolean\n"
        "perm/b,FS99,platform-defined,boolean\n"
    )
    assert run(["stats", "--input", data, "--dict", dic]) == 1
    assert capsys.readouterr().err == "error: line 3: unknown category 'FS99'\n"


def test_malformed_dictionary_exits_1_under_scope_all(tmp_path, capsys):
    """Scope "all" filters nothing, yet a given --dict is still read."""
    data = tmp_path / "data.jsonl"
    data.write_text('{"id":"s1","features":{"perm/a":1}}\n')
    dic = tmp_path / "dict.csv"
    dic.write_text("feature,scope\nperm/a,platform-defined\n")
    assert run(["stats", "--input", data, "--dict", dic, "--scope", "all"]) == 1
    assert capsys.readouterr().err.startswith("error: dictionary header must be")


def test_dictionary_feature_with_tab_names_its_line(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    data.write_text('{"id":"s1","features":{"perm/a":1}}\n')
    dic = tmp_path / "dict.csv"
    dic.write_text(
        "feature,category,scope,value_kind\n"
        "perm/a,FS1,platform-defined,boolean\n"
        "str/a\tb,FS8,app-specific,boolean\n"
    )
    assert run(["stats", "--input", data, "--dict", dic]) == 1
    assert capsys.readouterr().err == (
        "error: line 3: feature name 'str/a\\tb' holds a tab or line break\n"
    )


@pytest.mark.parametrize(
    "command,family,feature",
    [
        pytest.param("family-sim", "F\tX", "perm/a", id="family-tab"),
        pytest.param("family-sim", "F\nX", "perm/a", id="family-lf"),
        pytest.param("stats", "A", "str/a\tb", id="feature-tab"),
    ],
)
def test_label_breaking_an_output_line_exit_1(tmp_path, capsys, command, family, feature):
    """A family or feature name that would split a TSV field or line of the
    family-sim matrix or the stats rows ends in an error naming its line."""
    data = tmp_path / "data.jsonl"
    data.write_text(
        '{"id":"s1","family":"A","features":{"perm/a":1}}\n'
        + json.dumps({"id": "s2", "family": family, "features": {feature: 1}}) + "\n"
    )
    out = tmp_path / "out.tsv"
    assert run([command, "--input", data, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: line 2: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "pipeline", "detect", "kmeans", "sweep", "bench"])
def test_negative_seed_exit_2(tmp_path, monkeypatch, capsys, command):
    """A negative --seed is a usage error, never numpy's traceback: it is
    rejected before any input is read (each input here is missing) and
    before any tf-idf is computed."""
    missing = tmp_path / "missing"
    argv = {
        "synth": ["--out", tmp_path / "synth.jsonl"],
        "pipeline": ["--input", missing, "--out-dir", tmp_path / "run"],
        "detect": ["--edges", missing, "--out-dir", tmp_path / "detect"],
        "kmeans": ["--input", missing, "--c", 2, "--out", tmp_path / "kmeans.csv"],
        "sweep": ["--input", missing, "--p-grid", "5,10", "--out", tmp_path / "sweep.tsv"],
        "bench": ["--sizes", 13, "--repeats", 1],
    }[command]
    tfidf_runs = []
    monkeypatch.setattr("malcom.pipeline.compute_tfidf", tfidf_runs.append)
    monkeypatch.setattr(cli, "compute_tfidf", tfidf_runs.append)
    with pytest.raises(SystemExit) as exc:
        run([command, *argv, "--seed", -1])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0, got -1" in err and "Traceback" not in err
    assert tfidf_runs == []


@pytest.mark.parametrize("p", ["nan", "-5"])
def test_p_checked_next_to_an_epsilon_value(tmp_path, monkeypatch, capsys, corpus, p):
    """--p is checked for every method, also where --epsilon VALUE overrides
    it: a NaN p once ran every stage into write_json's traceback, and -5
    exited 0 with "p": -5.0 in report.json.  Both exit 2 before any tf-idf
    is computed, and the library rejects them before tf-idf too."""
    data, _ = corpus
    tfidf_runs = []
    monkeypatch.setattr("malcom.pipeline.compute_tfidf", tfidf_runs.append)
    monkeypatch.setattr(cli, "compute_tfidf", tfidf_runs.append)
    argv = ["pipeline", "--input", data, "--method", "epsilon", "--epsilon", 10]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--p", p, "--out-dir", tmp_path / "run"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"p must be in (0, 100], got {float(p)}" in err and "Traceback" not in err
    assert tfidf_runs == [] and not (tmp_path / "run").exists()
    params = GraphBuildParams(method="epsilon", epsilon=10.0, p=float(p))
    with pytest.raises(ParameterError, match=r"p must be in \(0, 100\]"):
        run_pipeline(load_dataset(data), params)
    assert tfidf_runs == []


EMPTY_CORPUS = "empty dataset: no samples"


@pytest.mark.parametrize(
    "command, extra",
    [
        pytest.param("graph", ["--out", "out"], id="graph-en"),
        pytest.param("graph", ["--method", "knn", "--out", "out"], id="graph-knn"),
        pytest.param(
            "graph", ["--method", "epsilon", "--out", "out"], id="graph-epsilon"
        ),
        pytest.param("pipeline", ["--out-dir", "out"], id="pipeline"),
        pytest.param("sweep", ["--out", "out"], id="sweep"),
        pytest.param("kmeans", ["--c", 1, "--out", "out"], id="kmeans"),
        pytest.param("tfidf", ["--out", "out"], id="tfidf"),
        pytest.param("stats", ["--out", "out"], id="stats"),
    ],
)
def test_empty_corpus_exit_1(tmp_path, capsys, command, extra):
    """An empty corpus is the input's fault, whatever the parameters: every
    command that weighs it, or counts its features, exits 1 with the same
    message and writes nothing."""
    data = tmp_path / "empty.jsonl"
    data.write_text("")
    extra = [tmp_path / a if a == "out" else a for a in extra]
    assert run([command, "--input", data, *extra]) == 1
    assert capsys.readouterr().err == f"error: {EMPTY_CORPUS}\n"
    assert not (tmp_path / "out").exists()


def test_run_pipeline_rejects_an_empty_dataset():
    with pytest.raises(DatasetError, match=f"^{EMPTY_CORPUS}$"):
        run_pipeline(Dataset(samples=[]), GraphBuildParams())


def test_eval_single_sample_exit_1(tmp_path, capsys):
    data = tmp_path / "one.jsonl"
    data.write_text('{"id":"s1","family":"A","features":{"perm/x":1}}\n')
    part = tmp_path / "partition.csv"
    part.write_text("sample_id,community_id\ns1,0\n")
    out = tmp_path / "eval.json"
    assert run(["eval", "--input", data, "--partition", part, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: ")
