"""Partition evaluation against ground-truth families.

Rand Statistic counts agreeing vertex pairs from the contingency table in
O(n + |P|*|C|); Accuracy uses a maximum-weight bipartite matching between
communities and families (shortest augmenting paths on the zero-padded
square contingency table).
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import MalcomError


class EvalError(MalcomError):
    pass


@dataclass
class PairCounts:
    ss: int  # same family, same community
    sd: int  # same family, different community
    ds: int  # different family, same community
    dd: int  # different family, different community


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
    """Fraction of samples whose community is matched to their family.

    Communities and families are matched one to one by a maximum-weight
    assignment on the contingency table, zero-padded to a square of side
    max(families, communities).  The assignment is the shortest augmenting
    path algorithm of Crouse, "On implementing 2D rectangular assignment
    algorithms", IEEE TAES 52(4), 2016, as scipy.optimize's
    linear_sum_assignment(padded, maximize=True) runs it: the same rows,
    scan order, float64 expressions and tie rule, so on ties it picks the
    same matching, and ``mapping`` equals what that call gives.
    """
    n = _check_lengths(P, C, min_n=1)
    families, communities, counts = contingency(P, C)
    cols = _max_assignment(counts)
    mapping = {}
    correct = 0
    for r, c in enumerate(cols[: len(families)].tolist()):
        if c < len(communities) and counts[r, c] > 0:
            mapping[communities[c]] = families[r]
            correct += int(counts[r, c])
    cm = ContingencyMatrix(
        families=families, communities=communities, counts=counts, mapping=mapping
    )
    return cm, correct / n


def _max_assignment(counts: np.ndarray) -> np.ndarray:
    """Column matched to each row of ``counts`` zero-padded to a square,
    maximising the matched total.

    Minimises the negated float64 matrix row by row (Crouse 2016).  Each
    row grows one shortest augmenting path: the remaining columns, kept in
    swap-removal order starting from the last column, are scanned with
    ``min_val + cost[i, j] - u[i] - v[j]``; the next column is the last
    unassigned one at the minimum reduced cost, or else the first one at
    it.  Padded cells are built per row, so memory stays O(counts + side).
    """
    nf, nc = counts.shape
    size = max(nf, nc)
    neg = -counts.astype(np.float64)
    pad = np.full(size - nc, -0.0)
    zero_row = np.full(size, -0.0)
    u, v = np.zeros(size), np.zeros(size)
    spc = np.empty(size)  # shortest path cost per column
    path = np.full(size, -1, dtype=np.int64)
    col4row = np.full(size, -1, dtype=np.int64)
    row4col = np.full(size, -1, dtype=np.int64)
    sr = np.zeros(size, dtype=bool)  # rows on the search tree
    sc = np.zeros(size, dtype=bool)  # columns on the search tree
    for cur in range(size):
        remaining = np.arange(size - 1, -1, -1)
        left = size
        sr[:] = False
        sc[:] = False
        spc[:] = np.inf
        min_val = 0.0
        i, sink = cur, -1
        while sink == -1:
            sr[i] = True
            rem = remaining[:left]
            row = np.concatenate((neg[i], pad)) if i < nf else zero_row
            r = min_val + row[rem] - u[i] - v[rem]
            old = spc[rem]
            better = r < old
            path[rem[better]] = i
            cand = np.where(better, r, old)
            spc[rem] = cand
            at_min = cand == cand.min()
            free = np.flatnonzero(at_min & (row4col[rem] == -1))
            index = int(free[-1]) if len(free) else int(np.argmax(at_min))
            min_val = cand[index]
            j = int(rem[index])
            if row4col[j] == -1:
                sink = j
            else:
                i = int(row4col[j])
            sc[j] = True
            left -= 1
            remaining[index] = remaining[left]
        u[cur] += min_val
        tree = np.flatnonzero(sr)
        tree = tree[tree != cur]
        u[tree] += min_val - spc[col4row[tree]]
        v[sc] -= min_val - spc[sc]
        j = sink
        while True:  # augment along the path back to row cur
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, int(col4row[i])
            if i == cur:
                break
    return col4row


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
        "pair_counts": asdict(report.pair_counts),
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
