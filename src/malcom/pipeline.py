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
from .dataset import Dataset, DatasetError
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
    ids: list[str] = []
    comms: list[int] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
            try:
                comms.append(int(row[1]))
            except ValueError:
                raise DatasetError(
                    f"partition line {reader.line_num}: community id {row[1]!r}"
                    " is not an integer"
                ) from None
            ids.append(row[0])
    return ids, comms


def run_pipeline(
    dataset: Dataset,
    params: GraphBuildParams,
    seed: int = 0,
    out_dir=None,
    scope: str = "all",
    weights: Optional[WeightSet] = None,
) -> PipelineReport:
    """Run the full pipeline on an in-memory dataset.

    When out_dir is given, writes edges.tsv, partition.csv, report.json and
    (for fully labeled corpora) eval.json there.

    The pair weights are pruned to the top ``params.p`` percent that an
    E-N or epsilon-by-percent graph reads (``params.weights_top_p()``), so
    ``report.weights`` serves any p <= its ``top_p``, and any build when
    ``top_p`` is None.

    ``weights`` are the dataset's pair weights from an earlier call (its
    ``report.weights``); they are used in place of recomputing them, so a
    sweep over graph parameters weighs the corpus once.  They must cover
    the dataset's samples in the same order, else DatasetError, and hold
    the pairs ``params`` reads, else GraphError.  The graph builders never
    modify a weight set, which is what makes it reusable.
    """
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

    t0 = time.perf_counter()
    model = compute_tfidf(dataset)
    t1 = time.perf_counter()
    report.timings_ms["tfidf"] = (t1 - t0) * 1000.0

    if weights is None:
        weights = pairwise_weights(model, top_p=params.weights_top_p())
        report.timings_ms["weights"] = (time.perf_counter() - t1) * 1000.0
    elif weights.ids != model.sample_ids:
        raise DatasetError("the given pair weights belong to another corpus")
    del model  # the pair weights are all later stages read
    report.weights = weights

    t2 = time.perf_counter()
    g = build_graph(weights, params)
    t3 = time.perf_counter()
    report.timings_ms["graph"] = (t3 - t2) * 1000.0
    report.graph_stats = _graph_stats(g)

    part, breakdown = detect(g, DetectorConfig(rng_seed=seed))
    t4 = time.perf_counter()
    report.timings_ms["detect"] = (t4 - t3) * 1000.0
    report.codelength_bits = breakdown.codelength
    report.num_communities = part.m
    report.q_total = breakdown.q_total

    if dataset.fully_labeled() and len(dataset) >= 2:
        report.evaluation = metrics.evaluate(dataset.labels(), part.assignment)
        report.timings_ms["eval"] = (time.perf_counter() - t4) * 1000.0

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
