"""End-to-end orchestration: load -> filter -> tf-idf -> weights -> graph
-> community detection -> evaluation, with per-stage timings and the
report files the CLI emits."""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import metrics
from .dataset import Dataset, DatasetError, open_text
from .graph import GraphBuildParams, RelationGraph, build_graph, write_edges
from .infomap import DetectorConfig, detect
from .weighting import WeightSet, compute_tfidf, pairwise_weights


@dataclass
class PipelineReport:
    parameters: dict
    timings_ms: dict[str, float] = field(default_factory=dict)
    graph_stats: dict = field(default_factory=dict)
    codelength_bits: float = 0.0
    num_communities: int = 0
    q_total: float = 0.0
    evaluation: Optional[metrics.EvaluationReport] = None
    # the pair weights the graph was built from; not part of report.json
    weights: Optional[WeightSet] = None

    def to_json(self) -> dict:
        obj = {
            "parameters": self.parameters,
            "timings_ms": {k: round(v, 3) for k, v in self.timings_ms.items()},
            "graph_stats": self.graph_stats,
            "codelength_bits": self.codelength_bits,
            "num_communities": self.num_communities,
            "q_total": self.q_total,
            "seed": self.parameters.get("seed"),
        }
        if self.evaluation is not None:
            obj["evaluation"] = {
                "rs": self.evaluation.rand_statistic,
                "accuracy": self.evaluation.accuracy,
                "num_families": self.evaluation.num_families,
                "num_communities": self.evaluation.num_communities,
            }
        return obj


def write_partition(sample_ids: list[str], assignment: list[int], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "community_id"])
        for sid, c in zip(sample_ids, assignment):
            writer.writerow([sid, c])


def read_partition(path) -> tuple[list[str], list[int]]:
    """Inverse of write_partition; a malformed file raises DatasetError."""
    part: dict[str, int] = {}  # sample id -> community id, in file order
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["sample_id", "community_id"]:
            raise DatasetError(f"unexpected partition header: {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise DatasetError(
                    f"partition line {reader.line_num}: expected 2 fields,"
                    f" got {len(row)}"
                )
            if row[0] in part:
                raise DatasetError(
                    f"partition line {reader.line_num}: sample {row[0]!r} listed twice"
                )
            try:
                part[row[0]] = int(row[1])
            except ValueError:
                raise DatasetError(
                    f"partition line {reader.line_num}: community id {row[1]!r}"
                    " is not an integer"
                ) from None
    return list(part), list(part.values())


def run_pipeline(
    dataset: Dataset,
    params: GraphBuildParams,
    seed: int = 0,
    out_dir=None,
    scope: str = "all",
    weights: Optional[WeightSet] = None,
) -> PipelineReport:
    """Run the full pipeline on an in-memory dataset, in ascending id order.
    The dataset is held only until tf-idf is built (then only its labels),
    so a caller that keeps no reference to it lets it be freed.

    When out_dir is given, writes edges.tsv, partition.csv, report.json and
    (for fully labeled corpora) eval.json there.  ``report.timings_ms``
    holds each stage's wall time: tfidf, weights (unless given), graph,
    detect and (for fully labeled corpora) eval.

    The pair weights are weighed at ``params.weights_top_p()``, so
    ``report.weights`` holds the top p percent (every pair for an epsilon
    given as a value) and serves any build whose pairs it holds.

    ``weights`` are the dataset's pair weights from an earlier call (its
    ``report.weights``); they are used in place of recomputing them, so a
    sweep over graph parameters weighs the corpus once.  They must cover
    the dataset's samples by ascending id, else DatasetError, and hold
    the pairs ``params`` reads, else GraphError.  A weight set's arrays
    are read-only, and a graph may share them; that is what makes it
    reusable.
    """
    dataset = dataset.in_id_order()
    detector = DetectorConfig(rng_seed=seed)
    detector.validate()  # both before any stage runs
    params.validate(len(dataset))
    report = PipelineReport(
        parameters={
            "scope": scope,
            "method": params.method,
            "p": params.p,
            "k": params.k,
            "epsilon": params.epsilon,
            "seed": seed,
            "n_samples": len(dataset),
        }
    )

    def timed(stage, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        report.timings_ms[stage] = (time.perf_counter() - t0) * 1000.0
        return result

    labeled = dataset.fully_labeled() and len(dataset) >= 2
    labels = dataset.labels() if labeled else None
    model = timed("tfidf", compute_tfidf, dataset)
    del dataset  # later stages read only the model, then the labels
    if weights is None:
        weights = timed("weights", pairwise_weights, model, params.weights_top_p())
    elif weights.ids != model.sample_ids:
        raise DatasetError("the given pair weights belong to another corpus")
    del model  # the pair weights are all later stages read
    report.weights = weights

    g = timed("graph", build_graph, weights, params)
    report.graph_stats = _graph_stats(g)

    part, breakdown = timed("detect", detect, g, detector)
    report.codelength_bits = breakdown.codelength
    report.num_communities = part.m
    report.q_total = breakdown.q_total

    if labels is not None:
        report.evaluation = timed("eval", metrics.evaluate, labels, part.assignment)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_edges(g, out / "edges.tsv")
        write_partition(g.vertices, part.assignment, out / "partition.csv")
        if report.evaluation is not None:
            metrics.write_report(report.evaluation, out / "eval.json")
        metrics.write_json(report.to_json(), out / "report.json")
    return report


def _graph_stats(g: RelationGraph) -> dict:
    deg = g.degrees()
    stats = {
        "vertices": g.n,
        "edges": g.num_edges,
        "mean_degree": float(deg.mean()) if g.n else 0.0,
        "isolated": int((deg == 0).sum()),
    }
    for key in ("epsilon", "isolated_before_fallback", "fallback_edges"):
        if key in g.meta:
            stats[key] = g.meta[key]
    return stats
