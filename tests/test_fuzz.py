"""Fuzzed readers: mutated input files driven through ``main``.

Each example takes one valid input file (a corpus, a feature dictionary,
an edge file or a partition), applies a few byte edits to it (insert a
token, delete a span, repeat a span) and runs one command that reads it.
Whatever the bytes, the command must end with exit 0, JSON outputs free
of NaN and infinity and finite numeric TSV and CSV fields, with exit 1 and
``error:``, or with exit 2 and a usage line.  An exception that escapes
``main``, which the command line shows as a traceback, fails the test.
"""
import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malcom.cli import main

# byte strings that reach the readers' edge cases: JSON and CSV syntax,
# field and line breaks, numbers out of range, and a byte that is not UTF-8
TOKENS = [
    b'"', b"{", b"}", b"[", b"]", b",", b":", b"\t", b"\n", b"\r", b" ",
    b"-", b"0", b"1", b"-1", b".5", b"1e999", b"NaN", b"Infinity", b"null",
    b"true", b"/", b"perm/", b"# vertices: 3", b"\\u0000", b"\xff",
]

# the commands that read each file, after the paths of the valid inputs
# (CORPUS, DICT, EDGES, PARTITION) and the output directory OUT are filled in
READERS = {
    "corpus": [
        ["stats", "--input", "CORPUS"],
        ["tfidf", "--input", "CORPUS", "--out", "OUT/tfidf.jsonl"],
        ["family-sim", "--input", "CORPUS", "--out", "OUT/sim.tsv"],
        ["graph", "--input", "CORPUS", "--method", "knn", "--out", "OUT/edges.tsv"],
        ["kmeans", "--input", "CORPUS", "--c", "2", "--out", "OUT/kmeans.csv"],
        ["pipeline", "--input", "CORPUS", "--out-dir", "OUT"],
        ["eval", "--input", "CORPUS", "--partition", "PARTITION", "--out", "OUT/e.json"],
    ],
    "dict": [
        ["stats", "--input", "CORPUS", "--dict", "DICT", "--scope", "platform"],
        ["pipeline", "--input", "CORPUS", "--dict", "DICT", "--scope", "app",
         "--out-dir", "OUT"],
    ],
    "edges": [["detect", "--edges", "EDGES", "--out-dir", "OUT"]],
    "partition": [
        ["eval", "--input", "CORPUS", "--partition", "PARTITION", "--out", "OUT/e.json"]
    ],
}
FILES = {"corpus": "CORPUS", "dict": "DICT", "edges": "EDGES", "partition": "PARTITION"}


def finite_json(path: Path) -> None:
    """Parse a JSON file, or each line of a JSON Lines file; NaN or an
    infinity fails."""

    def reject(constant):
        raise AssertionError(f"{constant} in {path.name}")

    text = path.read_text(encoding="utf-8")
    for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
        json.loads(doc, parse_constant=reject)


def finite_fields(path: Path) -> None:
    """Parse the numeric fields of a TSV or CSV output as finite floats: an
    edge file's weights, a similarity matrix's cells and a partition's
    community ids.  Ids and labels are skipped, as a mutated one may
    legally read NaN."""
    with open(path, encoding="utf-8", newline="") as fh:
        if path.suffix == ".csv":  # a header, then sample id, community id
            rows = list(csv.reader(fh))
        else:  # a header line, then tab-separated fields
            rows = [line.rstrip("\n").split("\t") for line in fh]
    first = 2 if path.name == "edges.tsv" else 1  # after src, dst or a label
    for row in rows[1:]:
        for cell in row[first:]:
            assert math.isfinite(float(cell)), f"{cell!r} in {path.name}"


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The bytes of a valid corpus of 9 samples, its dictionary, its E-N
    edge file and the pipeline's partition."""
    d = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--families", "3", "--samples-per-family", "3",
                 "--signatures", "3", "--common", "2", "--noise", "1", "--seed", "7",
                 "--out", str(d / "corpus.jsonl"), "--dict-out", str(d / "dict.csv")]) == 0
    assert main(["pipeline", "--input", str(d / "corpus.jsonl"), "--p", "30",
                 "--out-dir", str(d)]) == 0
    names = {"corpus": "corpus.jsonl", "dict": "dict.csv", "edges": "edges.tsv",
             "partition": "partition.csv"}
    return {kind: (d / name).read_bytes() for kind, name in names.items()}


@st.composite
def mutated(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        end = draw(st.integers(at, min(len(data), at + 40)))
        op = draw(st.sampled_from(["insert", "delete", "repeat"]))
        if op == "insert":
            data = data[:at] + draw(st.sampled_from(TOKENS)) + data[at:]
        elif op == "delete":
            data = data[:at] + data[end:]
        else:
            data = data[:end] + data[at:end] + data[end:]
    return data


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_input_ends_in_exit_code_not_traceback(valid, kind, data):
    argv = data.draw(st.sampled_from(READERS[kind]))
    bad = data.draw(mutated(valid[kind]))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        paths = {}
        for name, placeholder in FILES.items():
            paths[placeholder] = str(out / name)
            (out / name).write_bytes(bad if name == kind else valid[name])
        args = [paths.get(a, a.replace("OUT", str(out / "out"))) for a in argv]
        (out / "out").mkdir()
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
        if code == 0:
            for f in (out / "out").glob("*.json*"):
                finite_json(f)
            for f in (out / "out").glob("*.[tc]sv"):
                finite_fields(f)
    message = err.getvalue()
    assert code in (0, 1, 2), message
    if code == 1:
        assert message.startswith("error: "), message
    if code == 2:
        assert message.startswith("usage: "), message
