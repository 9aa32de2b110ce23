"""Command-line pipeline: corpus generation, weighting, graph construction,
community detection, baselines, evaluation, parameter sweeps and the
per-stage pipeline timing harness.

Exit codes: 0 success, 1 I/O, format or memory error, 2 invalid
parameters: a usage error or a ParameterError from any stage.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

from . import metrics
from .baseline import KMeansConfig, kmeans
from .dataset import (
    DatasetError,
    load_dataset,
    load_dictionary,
    filter_by_scope,
    save_dataset,
    save_dictionary,
)
from .errors import MalcomError, ParameterError
from .graph import (
    GraphBuildParams,
    build_graph,
    build_knn,
    read_edges,
    write_edges,
)
from .infomap import DetectorConfig, detect
from .pipeline import (
    read_partition,
    run_pipeline,
    write_partition,
)
from .synth import SynthConfig, feature_dictionary, generate
from .weighting import (
    compute_tfidf,
    dump_tfidf,
    family_similarity,
    feature_frequency,
    pairwise_weights,
)

SCOPE_TOKENS = {"all": "all", "platform": "platform-defined", "app": "app-specific"}
DEFAULT_SWEEP_GRID = list(range(1, 21)) + [25, 30, 40]
DEFAULT_BENCH_SIZES = [650, 2002, 3900]  # 13 families of 50, 154, 300


def _listing(kind):
    """An argparse type: a comma-separated list of at least one ``kind``."""

    def parse(text: str) -> list:
        values = [kind(v) for v in text.split(",") if v.strip()]
        if not values:
            raise ValueError(text)
        return values

    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse's message
    return parse


def _seed(text: str) -> int:
    """An argparse type: a seed >= 0, checked before any input is read."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


_seed.__name__ = "int"  # argparse's message for a seed that is no integer


def _add_io_args(sp):
    sp.add_argument("--input", required=True, help="dataset JSONL path")
    sp.add_argument("--dict", dest="dict_path", help="feature dictionary CSV")
    sp.add_argument(
        "--scope",
        choices=sorted(SCOPE_TOKENS),
        default="all",
        help="feature scope filter (requires --dict unless 'all')",
    )


def _add_graph_args(sp):
    sp.add_argument(
        "--method", choices=["epsilon", "knn", "en"], default="en"
    )
    sp.add_argument("--p", type=float, default=10.0, help="top weight percent")
    sp.add_argument("--k", type=int, default=1, help="nearest-neighbor count")
    sp.add_argument(
        "--epsilon", type=float, default=None,
        help="explicit threshold for --method epsilon, overrides --p",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malcom",
        description="Group feature-vector samples into behavioral communities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a planted-family corpus")
    sp.add_argument("--out", required=True, help="dataset JSONL output path")
    sp.add_argument("--dict-out", help="dictionary CSV output path")
    sp.add_argument("--families", type=int, default=13)
    sp.add_argument("--samples-per-family", type=int, default=50)
    sp.add_argument("--signatures", type=int, default=30)
    sp.add_argument("--common", type=int, default=20)
    sp.add_argument("--noise", type=int, default=5)
    sp.add_argument("--presence", type=float, default=0.9)
    sp.add_argument("--leak", type=float, default=0.05)
    sp.add_argument("--seed", type=_seed, default=0)

    sp = sub.add_parser("tfidf", help="dump per-sample tf-idf values")
    _add_io_args(sp)
    sp.add_argument("--out", required=True, help="tf-idf JSONL output path")

    sp = sub.add_parser("graph", help="build the relation graph")
    _add_io_args(sp)
    _add_graph_args(sp)
    sp.add_argument("--out", required=True, help="edge TSV output path")

    sp = sub.add_parser("detect", help="detect communities on an edge list")
    sp.add_argument("--edges", required=True, help="edge TSV from the graph step")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out-dir", required=True)

    sp = sub.add_parser("kmeans", help="k-means baseline on tf-idf vectors")
    _add_io_args(sp)
    sp.add_argument("--c", type=int, required=True, help="cluster count")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", required=True, help="partition CSV output path")

    sp = sub.add_parser("eval", help="evaluate a partition against families")
    sp.add_argument("--input", required=True, help="labeled dataset JSONL")
    sp.add_argument("--partition", required=True, help="partition CSV")
    sp.add_argument("--out", required=True, help="eval JSON output path")

    sp = sub.add_parser("stats", help="top features by corpus frequency")
    _add_io_args(sp)
    sp.add_argument("--top", type=int, default=12)
    sp.add_argument("--out", help="TSV output path (default stdout)")

    sp = sub.add_parser("family-sim", help="mean pair weight per family pair")
    _add_io_args(sp)
    sp.add_argument("--out", required=True, help="matrix TSV output path")

    sp = sub.add_parser("sweep", help="pipeline quality across a p grid")
    _add_io_args(sp)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument(
        "--p-grid",
        type=_listing(float),
        default=",".join(str(p) for p in DEFAULT_SWEEP_GRID),
        help="comma-separated p values",
    )
    sp.add_argument("--out", required=True, help="TSV output path")

    sp = sub.add_parser(
        "bench", help="median pipeline stage timings and the k-NN baseline"
    )
    sp.add_argument(
        "--sizes",
        type=_listing(int),
        default=",".join(str(n) for n in DEFAULT_BENCH_SIZES),
        help="comma-separated sample counts",
    )
    sp.add_argument("--repeats", type=int, default=5)
    sp.add_argument("--p", type=float, default=10.0)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", help="TSV output path (default stdout)")

    sp = sub.add_parser("pipeline", help="full load-to-eval run")
    _add_io_args(sp)
    _add_graph_args(sp)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out-dir", required=True)

    return parser


def _load_filtered(args):
    scope = SCOPE_TOKENS[args.scope]
    if scope != "all" and args.dict_path is None:
        raise ParameterError("--scope other than 'all' requires --dict")
    d = load_dataset(args.input)
    dictionary = None if args.dict_path is None else load_dictionary(args.dict_path)
    return filter_by_scope(d, scope, dictionary)


def _cmd_synth(args):
    cfg = SynthConfig(
        num_families=args.families,
        samples_per_family=args.samples_per_family,
        signature_features_per_family=args.signatures,
        common_features=args.common,
        noise_features_per_sample=args.noise,
        signature_presence_prob=args.presence,
        cross_family_leak_prob=args.leak,
        rng_seed=args.seed,
    )
    save_dataset(generate(cfg), args.out)
    if args.dict_out:
        save_dictionary(feature_dictionary(cfg), args.dict_out)


def _cmd_tfidf(args):
    d = _load_filtered(args)
    dump_tfidf(compute_tfidf(d), args.out)


def _cmd_graph(args):
    d = _load_filtered(args).in_id_order()
    params = GraphBuildParams(args.method, args.p, args.k, args.epsilon)
    params.validate(len(d))  # before tf-idf
    model = compute_tfidf(d)
    del d  # only the model is read from here on
    ws = pairwise_weights(model, params.weights_top_p(), params.epsilon)
    write_edges(build_graph(ws, params), args.out)


def _cmd_detect(args):
    g = read_edges(args.edges)
    part, breakdown = detect(g, DetectorConfig(rng_seed=args.seed))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_partition(g.vertices, part.assignment, out / "partition.csv")
    metrics.write_json(
        {
            "codelength_bits": breakdown.codelength,
            "num_communities": part.m,
            "q_total": breakdown.q_total,
            "seed": args.seed,
        },
        out / "detect.json",
    )


def _cmd_kmeans(args):
    d = _load_filtered(args)
    cfg = KMeansConfig(c=args.c, rng_seed=args.seed)
    cfg.validate(len(d))  # before tf-idf
    model = compute_tfidf(d)
    result = kmeans(model, cfg)
    write_partition(model.sample_ids, result.assignment, args.out)


def _cmd_eval(args):
    d = load_dataset(args.input)
    if not d.fully_labeled():
        raise DatasetError("evaluation requires a fully labeled dataset")
    ids, comms = read_partition(args.partition)
    by_id = dict(zip(ids, comms))
    missing = [sid for sid in d.ids if sid not in by_id]
    if missing:
        raise DatasetError(f"partition misses samples: {missing[:5]}")
    labels = d.labels()
    assignment = [by_id[sid] for sid in d.ids]
    metrics.write_report(metrics.evaluate(labels, assignment), args.out)


def _cmd_stats(args):
    if args.top < 0:  # before the corpus is read
        raise ParameterError(f"--top must be >= 0, got {args.top}")
    d = _load_filtered(args)
    rows = feature_frequency(d, args.top)
    lines = ["feature\tfraction"]
    lines += [f"{name}\t{frac:.10g}" for name, frac in rows]
    _emit(lines, args.out)


def _cmd_family_sim(args):
    d = _load_filtered(args)
    sim = family_similarity(d, compute_tfidf(d))
    metrics.write_matrix_tsv(sim.families, sim.families, sim.matrix, args.out)


def _cmd_sweep(args):
    d = _load_filtered(args)
    grid = args.p_grid
    grid_params = [GraphBuildParams("en", p, args.k) for p in grid]
    for params in grid_params:  # every point before the first runs
        params.validate(len(d))

    # the largest p first: its pruned pair weights hold every smaller p's,
    # so the corpus is weighed once; the sort is stable, so equal p keep
    # their order
    reports = [None] * len(grid)
    weights = None
    for k in sorted(range(len(grid)), key=lambda k: -grid[k]):
        reports[k] = run_pipeline(d, grid_params[k], seed=args.seed, weights=weights)
        weights = reports[k].weights

    lines = [
        "p\tedges\tnum_communities\trs\taccuracy\tgraph_ms\tdetect_ms\tcumulative_ms"
    ]
    cumulative = 0.0
    for params, report in zip(grid_params, reports):
        cumulative += sum(report.timings_ms.values())
        ev = report.evaluation
        rs = f"{ev.rand_statistic:.6f}" if ev else ""
        acc = f"{ev.accuracy:.6f}" if ev else ""
        lines.append(
            f"{params.p:g}\t{report.graph_stats['edges']}\t{report.num_communities}"
            f"\t{rs}\t{acc}"
            f"\t{report.timings_ms['graph']:.3f}"
            f"\t{report.timings_ms['detect']:.3f}"
            f"\t{cumulative:.3f}"
        )
    _emit(lines, args.out)


def _cmd_bench(args):
    if min(args.sizes) < 1:
        raise ParameterError(f"--sizes must be >= 1, got {min(args.sizes)}")
    if args.repeats < 1:
        raise ParameterError(f"--repeats must be >= 1, got {args.repeats}")

    lines = ["n\tstage\tmedian_ms"]
    for n in args.sizes:
        per_family = max(1, round(n / 13))
        cfg = SynthConfig(
            num_families=13,
            samples_per_family=per_family,
            common_features=5,
            rng_seed=args.seed,
        )
        d = generate(cfg)
        params = GraphBuildParams("en", args.p, args.k)
        times: dict[str, list[float]] = {}
        for _ in range(args.repeats):
            report = run_pipeline(d, params, seed=args.seed)
            # the full-sort k-NN baseline that E-N's graph stage must beat
            t0 = time.perf_counter()
            build_knn(report.weights, args.k)
            report.timings_ms["knn"] = (time.perf_counter() - t0) * 1000.0
            for stage, ms in report.timings_ms.items():
                times.setdefault(stage, []).append(ms)
        lines += [
            f"{len(d)}\t{stage}\t{statistics.median(ms):.3f}"
            for stage, ms in times.items()
        ]
    _emit(lines, args.out)


def _cmd_pipeline(args):
    params = GraphBuildParams(args.method, args.p, args.k, args.epsilon)
    # no reference kept here, so run_pipeline frees the corpus after tf-idf
    run_pipeline(_load_filtered(args), params, args.seed, args.out_dir, args.scope)


def _emit(lines: list[str], out) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_COMMANDS = {
    "synth": _cmd_synth,
    "tfidf": _cmd_tfidf,
    "graph": _cmd_graph,
    "detect": _cmd_detect,
    "kmeans": _cmd_kmeans,
    "eval": _cmd_eval,
    "stats": _cmd_stats,
    "family-sim": _cmd_family_sim,
    "sweep": _cmd_sweep,
    "bench": _cmd_bench,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except ParameterError as exc:
        parser.error(str(exc))
    except (MalcomError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
