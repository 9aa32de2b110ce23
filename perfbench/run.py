"""Benchmark for the malcom CLI: end-to-end runs and a traced per-layer run.

Run from the repository root; the code under test is ``./src/malcom``:

    python3 perfbench/run.py --workload en-easy-3900 --seed 7 --seconds 20 --trace 0

Workloads are defined in ``perfbench/spec.json``. For each run the corpus is
generated from ``--seed`` with ``malcom synth`` (timed as ``setup_s``, the
median of several generations that alternate with the loop's runs). The workload's CLI command then runs as a
closed loop with one client: one single-threaded ``malcom`` process runs to
completion before the next starts, for about ``--seconds`` seconds and at
least once. Every process's outputs are checked.

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``.
``--trace 1`` also runs the command once more in a fresh process that calls
``malcom.cli.main`` with the CLI's public functions wrapped in spans
(``perfbench/replay.py``), checks that it wrote the same outputs as the
untraced run, and reports the per-layer metrics. ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit code 0 means
every output check passed; 1 means a check or a workload guard failed; 2
means the benchmark could not run (for example, ``src/malcom`` is missing).
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import operator
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
RUN_LIMIT_S = 170.0  # per workload; a run must end within 180 s
IMPORT_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
OPS = {"==": operator.eq, ">": operator.gt}


class BenchError(Exception):
    """The benchmark itself cannot run."""


class GuardError(BenchError):
    """The seed made a workload stop exercising the layer it is for."""


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int
    stderr: str


@dataclass
class Checked:
    problems: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)


def spawn(argv: list[str], log: Path, deadline: float) -> Proc:
    """Run ``python3 <argv>`` to completion through perfbench/launch.py,
    which times it and reads its rusage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update({var: "1" for var in THREAD_VARS})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before running {argv[:2]}")
    result = log.with_suffix(".json")
    launcher = [
        sys.executable, "-I", "-S", str(HERE / "launch.py"),
        f"{timeout:.3f}", str(result), sys.executable, *argv,
    ]
    with open(log.with_suffix(".out"), "wb") as out, open(
        log.with_suffix(".err"), "wb"
    ) as err:
        try:
            subprocess.run(launcher, env=env, stdout=out, stderr=err,
                           timeout=timeout + 5, check=True)
        except subprocess.SubprocessError as exc:
            raise BenchError(f"launcher failed for {argv[:2]}: {exc}") from None
    r = json.loads(result.read_text())
    if r["code"] is None:
        raise BenchError(f"{argv[:2]} did not end within {timeout:.0f} s")
    return Proc(
        wall_s=r["wall_s"],
        rss_mb=r["rss_mb"],
        cpu_s=r["cpu_s"],
        code=r["code"],
        stderr=log.with_suffix(".err").read_text(errors="replace")[-2000:],
    )


def fill(template: list[str], **subs) -> list[str]:
    return [arg.format(**subs) for arg in template]


# ---------------------------------------------------------------- checks


def strict_json(path: Path):
    """Parse JSON rejecting NaN/Infinity, and require every number finite."""

    def reject(token):
        raise ValueError(f"non-finite constant {token}")

    obj = json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    stack = [obj]
    while stack:
        x = stack.pop()
        if isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, list):
            stack.extend(x)
        elif isinstance(x, float) and not math.isfinite(x):
            raise ValueError(f"non-finite number {x}")
    return obj


def load_ids(path: Path) -> set[str]:
    with open(path, encoding="utf-8") as fh:
        return {json.loads(line)["id"] for line in fh if line.strip()}


def check_pipeline(out: Path, sample_ids: set[str]) -> Checked:
    from malcom.graph import read_edges
    from malcom.infomap import Partition, codelength

    c = Checked()
    try:
        report = strict_json(out / "report.json")
        ev = strict_json(out / "eval.json")
    except (OSError, ValueError) as exc:
        c.problems.append(f"report.json/eval.json: {exc}")
        return c

    lines = (out / "partition.csv").read_text(encoding="utf-8").splitlines()
    if lines[:1] != ["sample_id,community_id"]:
        c.problems.append(f"partition.csv header {lines[:1]}")
        return c
    pairs = [line.rsplit(",", 1) for line in lines[1:]]
    ids = [sid for sid, _ in pairs]
    comms = [int(cid) for _, cid in pairs]
    if len(ids) != len(set(ids)) or set(ids) != sample_ids:
        c.problems.append("partition.csv does not list every sample exactly once")
    m = len(set(comms))
    if set(comms) != set(range(m)):
        c.problems.append("partition.csv community ids are not dense 0..m-1")
    if m != report["num_communities"] or m != ev["num_communities"]:
        c.problems.append(f"{m} communities in partition.csv, reports disagree")

    if c.problems:
        return c
    g = read_edges(out / "edges.tsv")
    by_id = dict(zip(ids, comms))
    if set(g.vertices) != set(by_id):
        c.problems.append("edges.tsv vertices differ from partition.csv")
        return c
    found = codelength(g, Partition.from_labels([by_id[v] for v in g.vertices]))
    if abs(found.codelength - report["codelength_bits"]) > 1e-9:
        c.problems.append(
            f"codelength from edges.tsv + partition.csv {float(found.codelength)!r}"
            f" != report.json {report['codelength_bits']!r}"
        )
    for key in ("rs", "accuracy"):
        if not 0.0 <= ev[key] <= 1.0 or ev[key] != report["evaluation"][key]:
            c.problems.append(f"eval.json {key}={ev[key]!r} out of range or unlike report.json")
    c.values = {
        "accuracy": ev["accuracy"],
        "rand_statistic": ev["rs"],
        "graph.isolated_before_fallback":
            report["graph_stats"].get("isolated_before_fallback", 0),
    }
    return c


def read_sweep(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines[1:]]


def check_sweep(out: Path, quality_max_p: float) -> Checked:
    """One row per grid value with rs and accuracy in [0, 1]. Quality is the
    mean over the rows with p <= quality_max_p: where the one-module collapse
    starts varies with the seed, and the mean over all rows follows it."""
    from malcom.cli import DEFAULT_SWEEP_GRID

    c = Checked()
    rows = read_sweep(out / "sweep.tsv")
    if [r[0] for r in rows] != [f"{float(p):g}" for p in DEFAULT_SWEEP_GRID]:
        c.problems.append("sweep.tsv does not have one row per grid value")
    try:
        rs = [float(r[3]) for r in rows]
        acc = [float(r[4]) for r in rows]
        counts = [(int(r[1]), int(r[2])) for r in rows]
    except (IndexError, ValueError) as exc:
        c.problems.append(f"sweep.tsv: {exc}")
        return c
    if not all(0.0 <= x <= 1.0 for x in rs + acc):
        c.problems.append("sweep.tsv rs/accuracy outside [0, 1]")
    if not all(e > 0 and k >= 1 for e, k in counts):
        c.problems.append("sweep.tsv has a row without edges or communities")
    low = [i for i, r in enumerate(rows) if float(r[0]) <= quality_max_p]
    c.values = {
        "accuracy": statistics.fmean(acc[i] for i in low) if low else 0.0,
        "rand_statistic": statistics.fmean(rs[i] for i in low) if low else 0.0,
        "sweep.rows": len(rows),
    }
    return c


def check_guards(wl: dict, values: dict) -> None:
    for key, (op, want) in wl["guards"].items():
        got = values.get(key)
        if got is None or not OPS[op](got, want):
            raise GuardError(
                f"workload guard failed: {key} = {got}, expected {op} {want};"
                " this seed no longer exercises the layer the workload is for"
            )


def same_outputs(command: str, plain: Path, traced: Path) -> list[str]:
    """Replay faithfulness: the traced run wrote what the untraced CLI wrote."""
    if command == "sweep":
        a, b = read_sweep(plain / "sweep.tsv"), read_sweep(traced / "sweep.tsv")
        if [r[:5] for r in a] != [r[:5] for r in b]:
            return ["traced sweep rows differ from the CLI's (p/edges/communities/rs/accuracy)"]
        return []
    return [
        f"traced {name} differs from the CLI's"
        for name in ("edges.tsv", "partition.csv")
        if (plain / name).read_bytes() != (traced / name).read_bytes()
    ]


# ------------------------------------------------------------ trace spans


def layer_metrics(trace: dict) -> tuple[dict, dict]:
    """Per-layer values from a replay's span file, plus the peak-memory
    attribution."""
    spans, points = trace["spans"], trace["points"]

    def dur(*names):
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    def attr_sum(name, key):
        return sum(s["attrs"][key] for s in spans if s["name"] == name)

    def attr_max(name, key):
        return max(s["attrs"][key] for s in spans if s["name"] == name)

    # The sweep writes its TSV in cli.main after its last traced child.
    main = next(s for s in spans if s["name"] == "cli.main")
    tail = main["end"] - max(s["end"] for s in spans if s["parent"] == main["id"])
    values = {
        "dataset.load_s": dur("dataset.load", "dataset.filter"),
        "dataset.stored_values": points[0]["stored_values"],
        "weighting.tfidf_s": dur("weighting.tfidf"),
        "weighting.pairwise_s": dur("weighting.pairwise"),
        "weighting.pairs": attr_sum("weighting.pairwise", "pairs"),
        "weighting.cell_updates": sum(pt["cell_updates"] for pt in points),
        "weighting.dense_buffer_mb": max(pt["dense_buffer_mb"] for pt in points),
        "weighting.rss_mb": attr_max("weighting.pairwise", "rss_mb"),
        "graph.build_s": dur("graph.build"),
        "graph.cutoff_s": dur("graph.cutoff"),
        "graph.edges": attr_sum("graph.build", "edges"),
        "graph.isolated_before_fallback": attr_sum("graph.build", "isolated_before_fallback"),
        "graph.fallback_edges": attr_sum("graph.build", "fallback_edges"),
        "graph.rss_mb": attr_max("graph.build", "rss_mb"),
        "infomap.detect_s": dur("infomap.detect"),
        "infomap.communities": attr_sum("infomap.detect", "communities"),
        "infomap.one_module_points": sum(
            s["attrs"]["communities"] == 1 for s in spans if s["name"] == "infomap.detect"
        ),
        "infomap.codelength_bits": attr_sum("infomap.detect", "codelength_bits"),
        "infomap.codelength_gap_bits": sum(pt["codelength_gap_bits"] for pt in points),
        "infomap.rss_mb": attr_max("infomap.detect", "rss_mb"),
        "metrics.evaluate_s": dur("metrics.evaluate"),
        "pipeline.write_s": dur("output.edges", "output.partition", "output.eval") + tail,
    }

    # The first span to end at the final high-water mark is where it was set.
    peak = max(s["attrs"]["rss_mb"] for s in spans)
    leaves = [s for s in spans if s["name"] not in ("cli.main", "pipeline.run")]
    first = min((s for s in leaves if s["attrs"]["rss_mb"] >= peak), key=lambda s: s["end"])
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    self_s: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - children.get(s["id"], 0.0)
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + own
    info = {
        "peak_rss_mb": peak,
        "check_s": dur("check"),
        "peak_span": first["name"],
        "peak_layer": first["name"].split(".")[0],
        "self_s": self_s,
    }
    return values, info


# ------------------------------------------------------------- one workload


def run_workload(name: str, wl: dict, spec: dict, seed: int, seconds: float,
                 trace: bool, deadline: float) -> tuple[dict, list[str]]:
    """Returns (result object, report lines)."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus = work / "corpus.jsonl"
    lines = [f"== {name}  seed={seed}  trace={int(trace)}", f"   why: {wl['why']}"]

    # set-up: generate the corpus several times and keep the median time. The
    # generations after the first alternate with the loop's runs, so setup_s
    # and wall_s sample the same stretch of host load.
    setup, digests = [], set()

    def generate() -> None:
        argv = ["-m", "malcom.cli", *fill(wl["synth"], seed=seed, corpus=corpus)]
        p = spawn(argv, work / f"synth{len(setup)}", deadline)
        if p.code != 0:
            raise BenchError(f"malcom synth failed ({p.code}): {p.stderr}")
        setup.append(p.wall_s)
        digests.add(hashlib.sha256(corpus.read_bytes()).hexdigest())

    generate()
    command = wl["run"][0]
    if command == "sweep":
        check = functools.partial(check_sweep, quality_max_p=wl["quality_max_p"])
    else:
        check = functools.partial(check_pipeline, sample_ids=load_ids(corpus))

    # closed loop, one client; the window counts run and check time only
    out = work / "out"
    procs: list[Proc] = []
    checked: list[Checked] = []
    failed = 0
    busy = last = 0.0
    while not procs or busy + last <= seconds:
        t_iter = time.monotonic()
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        argv = ["-m", "malcom.cli", *fill(wl["run"], seed=seed, corpus=corpus, out=out)]
        p = spawn(argv, work / f"run{len(procs)}", deadline)
        procs.append(p)
        if p.code != 0:
            failed += 1
            lines.append(f"   FAIL exit {p.code}: {p.stderr.strip()}")
        else:
            try:
                c = check(out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                c = Checked(problems=[f"unreadable output: {exc!r}"])
            checked.append(c)
            if c.problems:
                failed += 1
                lines += [f"   FAIL check: {msg}" for msg in c.problems]
            else:
                check_guards(wl, c.values)
        last = time.monotonic() - t_iter
        busy += last
        if len(setup) < spec["setup_repeats"]:
            generate()
    while len(setup) < spec["setup_repeats"]:
        generate()
    if len(digests) != 1:
        raise BenchError("malcom synth is not deterministic for a fixed seed")

    good = [c.values for c in checked if not c.problems]
    end_to_end = {
        "wall_s": statistics.median(p.wall_s for p in procs),
        "peak_rss_mb": statistics.median(p.rss_mb for p in procs),
        "setup_s": statistics.median(setup),
    }
    if good:
        end_to_end["accuracy"] = statistics.median(v["accuracy"] for v in good)
        end_to_end["rand_statistic"] = statistics.median(v["rand_statistic"] for v in good)
    attempted = len(procs)
    lines.append(
        f"   closed loop: 1 client, {attempted} run(s) in"
        f" {busy:.1f} s; error_rate {failed / attempted:g}"
        f" ({failed}/{attempted})"
    )
    metrics = end_to_end

    if trace:
        imports = [
            spawn(["-c", "import malcom.cli"], work / f"import{i}", deadline)
            for i in range(IMPORT_REPEATS)
        ]
        traced = work / "traced"
        shutil.rmtree(traced, ignore_errors=True)
        traced.mkdir()
        spans_path = work / "spans.json"
        argv = [
            str(HERE / "replay.py"), "--spans", str(spans_path),
            "--run-id", f"{name}:{seed}", "--",
            *fill(wl["run"], seed=seed, corpus=corpus, out=traced),
        ]
        p = spawn(argv, work / "replay", deadline)
        attempted += 1
        if p.code != 0 or any(i.code != 0 for i in imports):
            failed += 1
            lines.append(f"   FAIL traced replay exit {p.code}: {p.stderr.strip()}")
            return _result(False, attempted, failed, {}), lines
        try:
            problems = same_outputs(command, out, traced)
        except OSError as exc:
            problems = [str(exc)]
        if problems:
            failed += 1
            lines += [f"   FAIL replay: {msg}" for msg in problems]
        trace_file = json.loads(spans_path.read_text(encoding="utf-8"))
        metrics, info = layer_metrics(trace_file)
        edges = traced / "edges.tsv"
        metrics.update({
            "cli.import_s": statistics.median(i.wall_s for i in imports),
            "cli.cpu_s": statistics.median(q.cpu_s for q in procs),
            "dataset.input_mb": corpus.stat().st_size / 2**20,
            "graph.edges_mb": edges.stat().st_size / 2**20 if edges.exists() else 0.0,
            "trace.overhead_s": p.wall_s - trace_file["after_main_s"] - info["check_s"]
            - end_to_end["wall_s"],
        })
        lines.append(
            f"   traced replay {p.wall_s:.3f} s; peak {info['peak_rss_mb']:.1f} MiB"
            f" set by layer '{info['peak_layer']}' (span {info['peak_span']})"
        )
        lines.append("   self time by span (s): " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(info["self_s"].items(), key=lambda kv: -kv[1])
        ))
    return _result(failed == 0, attempted, failed, metrics), lines


def _result(correct: bool, attempted: int, failed: int, values: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed, "values": values}


def select_metrics(result: dict, listed: list[dict]) -> dict:
    """Keep exactly the BENCHMARK.json metrics, with their units."""
    values = result.pop("values")
    if result["correct"]:
        missing = [m["name"] for m in listed if m["name"] not in values]
        if missing:
            raise BenchError(f"no value measured for {missing}")
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listed
        if m["name"] in values
    }
    return result


def format_metrics(result: dict, spec: dict, trace: bool) -> list[str]:
    out = []
    for name, m in result["metrics"].items():
        note = spec["per_layer"].get(name) if trace else None
        moves = f"  -> {note['moves']} on {', '.join(note['on']) or '-'}" if note else ""
        out.append(f"   {name:32s} {m['value']:>16.6f} {m['unit']:6s}{moves}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="malcom CLI benchmark")
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    try:
        if not (SRC / "malcom" / "cli.py").is_file():
            raise BenchError(f"no src/malcom under {ROOT}; run from the repository root")
        bench_json = ROOT / "BENCHMARK.json"
        if not bench_json.is_file():
            raise BenchError(f"no BENCHMARK.json under {ROOT}")
        listed = json.loads(bench_json.read_text())["per_layer" if args.trace else "end_to_end"]
        spec = json.loads((HERE / "spec.json").read_text())
        names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
        unknown = [n for n in names if n not in spec["workloads"]]
        if unknown:
            raise BenchError(f"unknown workload {unknown}; choose from {list(spec['workloads'])} or all")
        sys.path.insert(0, str(SRC))
        import malcom

        if Path(malcom.__file__).resolve().parent != (SRC / "malcom").resolve():
            raise BenchError(f"imported malcom from {malcom.__file__}, not {SRC}")

        results = {}
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            result, lines = run_workload(
                name, spec["workloads"][name], spec, args.seed, args.seconds,
                bool(args.trace), deadline,
            )
            results[name] = select_metrics(result, listed)
            print("\n".join(lines + format_metrics(results[name], spec, bool(args.trace))),
                  flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, GuardError) else 2

    final = results[names[0]] if len(names) == 1 else {"workloads": results}
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
