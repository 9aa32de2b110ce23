"""Partition evaluation against ground-truth families.

Rand Statistic counts agreeing vertex pairs from the contingency table in
O(n + |P|*|C|); Accuracy uses a maximum-weight bipartite matching between
communities and families (Hungarian algorithm on the zero-padded square
contingency table).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np


class EvalError(ValueError):
    pass


@dataclass
class PairCounts:
    ss: int  # same family, same community
    sd: int  # same family, different community
    ds: int  # different family, same community
    dd: int  # different family, different community

    @property
    def total(self) -> int:
        return self.ss + self.sd + self.ds + self.dd


@dataclass
class ContingencyMatrix:
    families: list  # row labels
    communities: list  # column labels
    counts: np.ndarray  # int64, rows x cols
    mapping: dict  # community label -> matched family label


@dataclass
class EvaluationReport:
    rand_statistic: float
    accuracy: float
    num_families: int
    num_communities: int
    pair_counts: PairCounts
    mapping: dict
    community_family_matrix: np.ndarray  # row-normalized, families x communities
    families: list
    communities: list


def _check_lengths(P: Sequence, C: Sequence, min_n: int = 2) -> int:
    if len(P) != len(C):
        raise EvalError(f"label lengths differ: {len(P)} vs {len(C)}")
    if len(P) < min_n:
        raise EvalError(f"need at least {min_n} labeled samples, got {len(P)}")
    return len(P)


def contingency(
    P: Sequence[Hashable], C: Sequence[Hashable]
) -> tuple[list, list, np.ndarray]:
    families = sorted(set(P), key=str)
    communities = sorted(set(C), key=str)
    fi = {f: k for k, f in enumerate(families)}
    ci = {c: k for k, c in enumerate(communities)}
    counts = np.zeros((len(families), len(communities)), dtype=np.int64)
    for p, c in zip(P, C):
        counts[fi[p], ci[c]] += 1
    return families, communities, counts


def rand_statistic(
    P: Sequence[Hashable], C: Sequence[Hashable]
) -> tuple[PairCounts, float]:
    n = _check_lengths(P, C)
    _, _, counts = contingency(P, C)

    def pairs(x: np.ndarray) -> int:
        return int((x * (x - 1) // 2).sum())

    total = n * (n - 1) // 2
    ss = pairs(counts)
    same_family = pairs(counts.sum(axis=1))
    same_comm = pairs(counts.sum(axis=0))
    sd = same_family - ss
    ds = same_comm - ss
    dd = total - ss - sd - ds
    pc = PairCounts(ss=ss, sd=sd, ds=ds, dd=dd)
    return pc, (ss + dd) / total


def accuracy(
    P: Sequence[Hashable], C: Sequence[Hashable]
) -> tuple[ContingencyMatrix, float]:
    # deferred: scipy.optimize takes most of the package's import time, and
    # only evaluation needs it
    from scipy.optimize import linear_sum_assignment

    n = _check_lengths(P, C, min_n=1)
    families, communities, counts = contingency(P, C)
    size = max(len(families), len(communities))
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: len(families), : len(communities)] = counts
    rows, cols = linear_sum_assignment(padded, maximize=True)
    mapping = {}
    correct = 0
    for r, c in zip(rows, cols):
        if r < len(families) and c < len(communities) and padded[r, c] > 0:
            mapping[communities[c]] = families[r]
            correct += int(padded[r, c])
    cm = ContingencyMatrix(
        families=families, communities=communities, counts=counts, mapping=mapping
    )
    return cm, correct / n


def community_family_matrix(
    P: Sequence[Hashable], C: Sequence[Hashable]
) -> tuple[list, list, np.ndarray]:
    """Row f, column c = fraction of family f assigned to community c."""
    _check_lengths(P, C, min_n=1)
    families, communities, counts = contingency(P, C)
    rows = counts.sum(axis=1, keepdims=True).astype(np.float64)
    return families, communities, counts / rows


def evaluate(P: Sequence[Hashable], C: Sequence[Hashable]) -> EvaluationReport:
    pc, rs = rand_statistic(P, C)
    cm, acc = accuracy(P, C)
    families, communities, matrix = community_family_matrix(P, C)
    return EvaluationReport(
        rand_statistic=rs,
        accuracy=acc,
        num_families=len(families),
        num_communities=len(communities),
        pair_counts=pc,
        mapping=cm.mapping,
        community_family_matrix=matrix,
        families=families,
        communities=communities,
    )


def write_report(report: EvaluationReport, path) -> None:
    obj = {
        "rs": report.rand_statistic,
        "accuracy": report.accuracy,
        "num_families": report.num_families,
        "num_communities": report.num_communities,
        "pair_counts": {
            "ss": report.pair_counts.ss,
            "sd": report.pair_counts.sd,
            "ds": report.pair_counts.ds,
            "dd": report.pair_counts.dd,
        },
        "mapping": {str(k): str(v) for k, v in sorted(
            report.mapping.items(), key=lambda kv: str(kv[0])
        )},
        "community_family_matrix": [
            [round(x, 10) for x in row] for row in report.community_family_matrix
        ],
    }
    write_json(obj, path)


def write_json(obj, path) -> None:
    """Indented, key-sorted, strict JSON: a NaN or infinite value raises
    ValueError before the file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_matrix_tsv(
    row_labels: Sequence, col_labels: Sequence, matrix: np.ndarray, path
) -> None:
    """Matrix TSV for plotting: header row of column labels, one row label
    plus values per line, 10 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t" + "\t".join(str(c) for c in col_labels) + "\n")
        for label, row in zip(row_labels, matrix):
            cells = "\t".join(f"{x:.10g}" for x in row)
            fh.write(f"{label}\t{cells}\n")
