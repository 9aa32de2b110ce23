"""Traced run of one workload's CLI command.

Runs ``malcom.cli.main`` in a fresh interpreter after wrapping the public
functions the command reaches, in the module where each is looked up:

    malcom.cli       load_dataset, filter_by_scope, run_pipeline
    malcom.pipeline  compute_tfidf, pairwise_weights, build_graph, detect,
                     write_edges, write_partition
    malcom.metrics   evaluate, write_report
    malcom.graph     percentile_cutoff (called by build_graph)

So the traced run is the CLI's own code path; only the wrappers are added.
Each call gets a span (name, start, end, parent, run id, attributes). The
process's ``ru_maxrss`` is read as each span ends, so the stage that sets the
peak can be named. Spans stay in memory and are written as JSON at the end.

Counts that cost extra work (stored values, tf-idf cell updates, the
planted partition's codelength) are computed from the captured arguments and
return values as each run_pipeline call returns, in a ``check`` span of their
own, so no layer's span includes them. The tf-idf model and the graph are
dropped after that: run_pipeline held them until it returned, so keeping them
that long does not raise the peak.

Usage (PYTHONPATH must point at the ``src`` directory under test):

    python3 perfbench/replay.py --spans SPANS.json -- <malcom CLI arguments>
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time

T0 = time.perf_counter()


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, run: str):
        self.run = run
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "run": self.run,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - T0,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter() - T0
            rec["attrs"]["rss_mb"] = maxrss_mb()
            self._stack.pop()

    def wrap(self, module, fn_name: str, span_name: str, after=None) -> None:
        """Replace module.fn_name by a traced version. ``after(attrs, args,
        result)`` runs once the span has ended, to record attributes or keep
        the result for later checks."""
        fn = getattr(module, fn_name)

        def traced(*args, **kwargs):
            with self.span(span_name) as attrs:
                result = fn(*args, **kwargs)
            if after is not None:
                after(attrs, args, result)
            return result

        setattr(module, fn_name, traced)


def family_ids(labels: list[str]) -> list[int]:
    index: dict[str, int] = {}
    return [index.setdefault(lab, len(index)) for lab in labels]


def instrument(tr: Tracer, points: list[dict]) -> None:
    """Wrap the CLI's public calls. ``points`` gets one dict of computed
    counts per run_pipeline call (one per p value on the sweep)."""
    import malcom.cli
    import malcom.graph
    import malcom.metrics
    import malcom.pipeline

    def on_run(attrs, args, report):
        attrs["p"] = args[1].p
        with tr.span("check"):
            points[-1] = point_checks(args[0], **points[-1])

    def on_tfidf(attrs, args, model):
        points.append({"model": model})

    def on_pairwise(attrs, args, ws):
        attrs["pairs"] = len(ws)

    def on_graph(attrs, args, g):
        attrs["edges"] = g.num_edges
        attrs["isolated_before_fallback"] = g.meta.get("isolated_before_fallback", 0)
        attrs["fallback_edges"] = g.meta.get("fallback_edges", 0)
        points[-1]["graph"] = g

    def on_detect(attrs, args, result):
        part, breakdown = result
        attrs["communities"] = part.m
        attrs["codelength_bits"] = breakdown.codelength
        points[-1]["found"] = breakdown.codelength

    tr.wrap(malcom.cli, "load_dataset", "dataset.load")
    tr.wrap(malcom.cli, "filter_by_scope", "dataset.filter")
    tr.wrap(malcom.cli, "run_pipeline", "pipeline.run", on_run)
    tr.wrap(malcom.pipeline, "compute_tfidf", "weighting.tfidf", on_tfidf)
    tr.wrap(malcom.pipeline, "pairwise_weights", "weighting.pairwise", on_pairwise)
    tr.wrap(malcom.pipeline, "build_graph", "graph.build", on_graph)
    tr.wrap(malcom.graph, "percentile_cutoff", "graph.cutoff")
    tr.wrap(malcom.pipeline, "detect", "infomap.detect", on_detect)
    tr.wrap(malcom.metrics, "evaluate", "metrics.evaluate")
    tr.wrap(malcom.pipeline, "write_edges", "output.edges")
    tr.wrap(malcom.pipeline, "write_partition", "output.partition")
    tr.wrap(malcom.metrics, "write_report", "output.eval")


def point_checks(d, model, graph, found: float) -> dict:
    """Computed counts for one run_pipeline call on dataset ``d``."""
    from malcom.infomap import Partition, codelength

    df: dict[str, int] = {}
    for row in model.values:
        for name in row:
            df[name] = df.get(name, 0) + 1
    if not d.fully_labeled():
        raise SystemExit("replay: the corpus must be fully labeled")
    planted = codelength(graph, Partition.from_labels(family_ids(d.labels())))
    return {
        "stored_values": sum(len(s.features) for s in d.samples),
        "cell_updates": sum(c * c for c in df.values() if c >= 2),
        "dense_buffer_mb": 8.0 * model.n * model.n / 2**20,
        "codelength_gap_bits": found - planted.codelength,
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True, help="span JSON output path")
    ap.add_argument("--run-id", default="replay")
    ap.add_argument("cli", nargs=argparse.REMAINDER, help="-- malcom CLI arguments")
    opts = ap.parse_args(argv)
    cli_argv = opts.cli[1:] if opts.cli[:1] == ["--"] else opts.cli

    tr = Tracer(opts.run_id)
    with tr.span("cli.import"):
        import malcom.cli
    points: list[dict] = []
    instrument(tr, points)
    with tr.span("cli.main", argv=cli_argv):
        code = malcom.cli.main(cli_argv)
    t_main = time.perf_counter()
    if code != 0:
        return code
    with open(opts.spans, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "run": opts.run_id,
                "spans": tr.spans,
                "points": points,
                "after_main_s": time.perf_counter() - t_main,
            },
            fh,
            indent=1,
        )
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
