"""Golden digests: the byte-identical output contract as a test.

Each case runs one CLI command on a synthetic corpus of n = 650 (corpus
and detector seeds 7 and 3) and compares the sha256 of every file it writes
with ``golden/digests.json``.  A change that alters one output byte fails
here.  The easy and hard corpora run every command.  Two more run only the
k-NN rules, on the inputs that reach their edge cases: "sparse" has
samples that share no feature with any other (zero-weight vertices, linked
at the floor weight), and "twins" repeats each family's sample, so that
k-th neighbours tie and the id tie-break picks among them.  The detector
has cases of its own: ``detect --edges --seed 5`` on the hard corpus's E-N
graphs at p = 1, 10 and the dense p = 40.  ``kmeans --c 13``, ``sweep``
and ``pipeline`` take the corpus seed as their seed.  ``synth`` is digested
by the corpus and dictionary every case reads, and ``eval`` by its report
on the ``pipeline`` case's partition.

Two files carry wall times, which change from run to run: report.json is
digested without its ``timings_ms`` object, and the sweep's TSV by its
first five columns (p, edges, communities, RS and accuracy).

The digests hold only for the numpy and Python versions they were recorded
with (numpy 2.4, Python 3.11): another numpy may sum or format a double
differently and so write other bytes without any change to this package.
"""
import hashlib
import json
from pathlib import Path

import pytest

from malcom.cli import main

DIGESTS = json.loads((Path(__file__).parent / "golden" / "digests.json").read_text())

CORPORA = {
    "easy": ["--leak", "0.05", "--presence", "0.9"],
    "hard": ["--leak", "0.15", "--presence", "0.6"],
    "sparse": ["--common", "0", "--presence", "0.05", "--leak", "0"],
    "twins": ["--common", "0", "--noise", "0", "--presence", "1.0", "--leak", "0"],
}
SEEDS = (7, 3)

# command after "--input CORPUS", and the files it writes into the case
# directory OUT
RUNS = {
    "graph-en-p10": (["graph", "--method", "en", "--p", "10", "--k", "1"], ["edges.tsv"]),
    "graph-en-p1": (["graph", "--method", "en", "--p", "1", "--k", "1"], ["edges.tsv"]),
    "graph-knn-k1": (["graph", "--method", "knn", "--k", "1"], ["edges.tsv"]),
    "graph-knn-k3": (["graph", "--method", "knn", "--k", "3"], ["edges.tsv"]),
    "graph-epsilon-p10": (["graph", "--method", "epsilon", "--p", "10"], ["edges.tsv"]),
    "graph-epsilon-60": (["graph", "--method", "epsilon", "--epsilon", "60"], ["edges.tsv"]),
    "family-sim": (["family-sim"], ["family-sim.tsv"]),
    "pipeline": (
        ["pipeline"], ["edges.tsv", "partition.csv", "eval.json", "report.json"]
    ),
    "kmeans": (["kmeans", "--c", "13"], ["partition.csv"]),
    "tfidf": (["tfidf"], ["tfidf.jsonl"]),
    "sweep": (["sweep", "--p-grid", "1,10,40"], ["sweep.tsv"]),
    "stats": (["stats"], ["stats.tsv"]),
}


def _without_timings(data: bytes) -> bytes:
    obj = json.loads(data)
    del obj["timings_ms"]
    return json.dumps(obj, sort_keys=True).encode()


def _first_columns(data: bytes) -> bytes:
    return b"".join(
        b"\t".join(line.split(b"\t")[:5]) + b"\n" for line in data.splitlines()
    )


# the bytes digested of a file that holds wall times
DETERMINISTIC = {"report.json": _without_timings, "sweep.tsv": _first_columns}

# the runs of each corpus
CORPUS_RUNS = {
    "easy": sorted(RUNS),
    "hard": sorted(RUNS),
    "sparse": ["graph-en-p1", "graph-knn-k1", "graph-knn-k3"],
    "twins": ["graph-en-p1", "graph-knn-k1", "graph-knn-k3"],
}


def run_case(corpus: Path, seed: int, run: str, out: Path) -> dict[str, str]:
    """Run one case into the directory ``out``; sha256 of each file written."""
    args, files = RUNS[run]
    argv = args + ["--input", str(corpus)]
    if run in ("pipeline", "kmeans", "sweep"):
        argv += ["--seed", str(seed)]
    if run == "pipeline":
        argv += ["--out-dir", str(out)]
    else:
        argv += ["--out", str(out / files[0])]
    out.mkdir(parents=True, exist_ok=True)
    assert main(argv) == 0
    return {f: _digest(f, (out / f).read_bytes()) for f in files}


def _digest(name: str, data: bytes) -> str:
    data = DETERMINISTIC.get(name, lambda b: b)(data)
    return hashlib.sha256(data).hexdigest()


SYNTH_FILES = ("corpus.jsonl", "dict.csv")


def make_corpus(kind: str, seed: int, out: Path) -> Path:
    """synth's corpus and dictionary in the directory out; the corpus path."""
    argv = ["synth", "--samples-per-family", "50", "--seed", str(seed),
            "--out", str(out / SYNTH_FILES[0]), "--dict-out", str(out / SYNTH_FILES[1])]
    assert main(argv + CORPORA[kind]) == 0
    return out / SYNTH_FILES[0]


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    made = {}

    def get(kind, seed):
        if (kind, seed) not in made:
            made[kind, seed] = make_corpus(kind, seed, tmp_path_factory.mktemp("golden"))
        return made[kind, seed]

    return get


@pytest.fixture(scope="module")
def ran(corpora, tmp_path_factory):
    """Each case run once per module: (output directory, digests)."""
    done = {}

    def get(kind, seed, run):
        if (kind, seed, run) not in done:
            out = tmp_path_factory.mktemp(run)
            done[kind, seed, run] = out, run_case(corpora(kind, seed), seed, run, out)
        return done[kind, seed, run]

    return get


@pytest.mark.parametrize(
    "kind,seed,run",
    [(k, s, r) for s in SEEDS for k in sorted(CORPORA) for r in CORPUS_RUNS[k]],
)
def test_output_digests(ran, kind, seed, run):
    assert ran(kind, seed, run)[1] == DIGESTS[f"{kind}-{seed}"][run]


@pytest.mark.parametrize("kind,seed", [(k, s) for s in SEEDS for k in sorted(CORPORA)])
def test_synth_digests(corpora, kind, seed):
    out = corpora(kind, seed).parent
    got = {f: _digest(f, (out / f).read_bytes()) for f in SYNTH_FILES}
    assert got == DIGESTS[f"{kind}-{seed}"]["synth"]


@pytest.mark.parametrize("kind,seed", [(k, s) for s in SEEDS for k in ("easy", "hard")])
def test_eval_digests(corpora, ran, tmp_path, kind, seed):
    partition = ran(kind, seed, "pipeline")[0] / "partition.csv"
    out = tmp_path / "eval.json"
    argv = ["eval", "--input", str(corpora(kind, seed)), "--partition", str(partition)]
    assert main(argv + ["--out", str(out)]) == 0
    assert _digest(out.name, out.read_bytes()) == DIGESTS[f"{kind}-{seed}"]["eval"]["eval.json"]


DETECT_P = (1, 10, 40)
DETECT_SEED = 5


@pytest.mark.parametrize("seed,p", [(s, p) for s in SEEDS for p in DETECT_P])
def test_detect_digests(corpora, tmp_path, seed, p):
    edges = tmp_path / "edges.tsv"
    graph = ["graph", "--method", "en", "--p", str(p), "--k", "1", "--out", str(edges)]
    assert main(graph + ["--input", str(corpora("hard", seed))]) == 0
    out = tmp_path / "out"
    assert main(["detect", "--edges", str(edges), "--seed", str(DETECT_SEED),
                 "--out-dir", str(out)]) == 0
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
           for f in ("partition.csv", "detect.json")}
    assert got == DIGESTS[f"hard-{seed}"][f"detect-en-p{p}"]
