"""Command-line pipeline: corpus generation, weighting, graph construction,
community detection, baselines, evaluation, parameter sweeps and the
pair-weight and graph construction timing harness.

Exit codes: 0 success, 1 I/O or format error, 2 invalid parameters.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

from . import metrics
from .baseline import KMeansConfig, KMeansError, kmeans
from .dataset import (
    Dataset,
    DatasetError,
    load_dataset,
    load_dictionary,
    filter_by_scope,
    save_dataset,
    save_dictionary,
)
from .errors import MalcomError
from .graph import (
    GraphBuildParams,
    GraphError,
    build_en,
    build_epsilon,
    build_graph,
    build_knn,
    percentile_cutoff,
    read_edges,
    write_edges,
)
from .infomap import DetectorConfig, detect
from .pipeline import (
    read_partition,
    run_pipeline,
    write_partition,
)
from .synth import SynthConfig, SynthError, generate
from .weighting import (
    compute_tfidf,
    dump_tfidf,
    family_similarity,
    feature_frequency,
    pairwise_weights,
)

SCOPE_TOKENS = {"all": "all", "platform": "platform-defined", "app": "app-specific"}
DEFAULT_SWEEP_GRID = list(range(1, 21)) + [25, 30, 40]
DEFAULT_BENCH_SIZES = [250, 500, 1000, 2000]


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
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("tfidf", help="dump per-sample tf-idf values")
    _add_io_args(sp)
    sp.add_argument("--out", required=True, help="tf-idf JSONL output path")

    sp = sub.add_parser("graph", help="build the relation graph")
    _add_io_args(sp)
    _add_graph_args(sp)
    sp.add_argument("--out", required=True, help="edge TSV output path")

    sp = sub.add_parser("detect", help="detect communities on an edge list")
    sp.add_argument("--edges", required=True, help="edge TSV from the graph step")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir", required=True)

    sp = sub.add_parser("kmeans", help="k-means baseline on tf-idf vectors")
    _add_io_args(sp)
    sp.add_argument("--c", type=int, required=True, help="cluster count")
    sp.add_argument("--seed", type=int, default=0)
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
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--p-grid",
        default=",".join(str(p) for p in DEFAULT_SWEEP_GRID),
        help="comma-separated p values",
    )
    sp.add_argument("--out", required=True, help="TSV output path")

    sp = sub.add_parser(
        "bench", help="pair-weight, graph construction, detect and eval timings"
    )
    sp.add_argument(
        "--sizes",
        default=",".join(str(n) for n in DEFAULT_BENCH_SIZES),
        help="comma-separated sample counts",
    )
    sp.add_argument("--repeats", type=int, default=5)
    sp.add_argument("--p", type=float, default=10.0)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="TSV output path (default stdout)")

    sp = sub.add_parser("pipeline", help="full load-to-eval run")
    _add_io_args(sp)
    _add_graph_args(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir", required=True)

    return parser


def _graph_params(parser, n, **fields) -> GraphBuildParams:
    """GraphBuildParams for an n-sample corpus; invalid values exit 2."""
    params = GraphBuildParams(**fields)
    try:
        params.validate(n)
    except GraphError as exc:
        parser.error(str(exc))
    return params


def _load_filtered(parser, args):
    scope = SCOPE_TOKENS[args.scope]
    if scope != "all" and args.dict_path is None:
        parser.error("--scope other than 'all' requires --dict")
    d = load_dataset(args.input)
    if args.dict_path is not None:
        d = Dataset(d.samples, load_dictionary(args.dict_path))
    return filter_by_scope(d, scope)


def _cmd_synth(parser, args):
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
    try:
        cfg.validate()
    except SynthError as exc:
        parser.error(str(exc))
    d = generate(cfg)
    save_dataset(d, args.out)
    if args.dict_out:
        save_dictionary(d.dictionary, args.dict_out)


def _cmd_tfidf(parser, args):
    d = _load_filtered(parser, args)
    dump_tfidf(compute_tfidf(d), args.out)


def _cmd_graph(parser, args):
    d = _load_filtered(parser, args)
    params = _graph_params(
        parser, len(d), method=args.method, p=args.p, k=args.k, epsilon=args.epsilon
    )
    ws = pairwise_weights(compute_tfidf(d), top_p=params.weights_top_p())
    write_edges(build_graph(ws, params), args.out)


def _cmd_detect(parser, args):
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


def _cmd_kmeans(parser, args):
    d = _load_filtered(parser, args)
    cfg = KMeansConfig(c=args.c, rng_seed=args.seed)
    try:
        cfg.validate(len(d))
    except KMeansError as exc:
        parser.error(str(exc))
    model = compute_tfidf(d)
    result = kmeans(model, cfg)
    write_partition(model.sample_ids, result.assignment, args.out)


def _cmd_eval(parser, args):
    d = load_dataset(args.input)
    if not d.fully_labeled():
        raise DatasetError("evaluation requires a fully labeled dataset")
    ids, comms = read_partition(args.partition)
    by_id = dict(zip(ids, comms))
    missing = [s.id for s in d.samples if s.id not in by_id]
    if missing:
        raise DatasetError(f"partition misses samples: {missing[:5]}")
    labels = d.labels()
    assignment = [by_id[s.id] for s in d.samples]
    metrics.write_report(metrics.evaluate(labels, assignment), args.out)


def _cmd_stats(parser, args):
    if args.top < 0:
        parser.error(f"--top must be >= 0, got {args.top}")
    d = _load_filtered(parser, args)
    rows = feature_frequency(d, args.top)
    lines = ["feature\tfraction"]
    lines += [f"{name}\t{frac:.10g}" for name, frac in rows]
    _emit(lines, args.out)


def _cmd_family_sim(parser, args):
    d = _load_filtered(parser, args)
    ws = pairwise_weights(compute_tfidf(d))
    sim = family_similarity(d, ws)
    metrics.write_matrix_tsv(sim.families, sim.families, sim.matrix, args.out)


def _cmd_sweep(parser, args):
    d = _load_filtered(parser, args)
    try:
        grid = [float(p) for p in args.p_grid.split(",") if p.strip()]
    except ValueError:
        parser.error(f"--p-grid must be comma-separated numbers: {args.p_grid!r}")
    if not grid:
        parser.error(f"--p-grid lists no p value: {args.p_grid!r}")
    grid_params = [
        _graph_params(parser, len(d), method="en", p=p, k=args.k) for p in grid
    ]

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


def _cmd_bench(parser, args):
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        parser.error(f"--sizes must be comma-separated integers: {args.sizes!r}")
    if not sizes:
        parser.error(f"--sizes lists no sample count: {args.sizes!r}")
    if min(sizes) < 1:
        parser.error(f"--sizes must be >= 1, got {min(sizes)}")
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")

    lines = ["n\tmethod\tmedian_ms"]
    for n in sizes:
        per_family = max(1, round(n / 13))
        cfg = SynthConfig(
            num_families=13,
            samples_per_family=per_family,
            common_features=5,
            rng_seed=args.seed,
        )
        d = generate(cfg)
        _graph_params(parser, len(d), method="en", p=args.p, k=args.k)
        model = compute_tfidf(d)
        # the graph builders time the top-p set that the pipeline builds
        top = pairwise_weights(model, top_p=args.p)
        g = build_en(top, args.p, args.k)
        part, _ = detect(g, DetectorConfig(rng_seed=args.seed))
        builders = {
            "weights": lambda: pairwise_weights(model),
            "weights-top": lambda: pairwise_weights(model, top_p=args.p),
            "epsilon": lambda: build_epsilon(top, percentile_cutoff(top, args.p)[0]),
            "knn": lambda: build_knn(top, args.k),
            "en": lambda: build_en(top, args.p, args.k),
            "detect": lambda: detect(g, DetectorConfig(rng_seed=args.seed)),
            "eval": lambda: metrics.evaluate(d.labels(), part.assignment),
        }
        for method, builder in builders.items():
            times = []
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                builder()
                times.append((time.perf_counter() - t0) * 1000.0)
            lines.append(f"{len(d)}\t{method}\t{statistics.median(times):.3f}")
    _emit(lines, args.out)


def _cmd_pipeline(parser, args):
    d = _load_filtered(parser, args)
    params = _graph_params(
        parser, len(d), method=args.method, p=args.p, k=args.k, epsilon=args.epsilon
    )
    run_pipeline(d, params, seed=args.seed, out_dir=args.out_dir, scope=args.scope)


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
        _COMMANDS[args.command](parser, args)
    except (MalcomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
