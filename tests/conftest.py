import math

import numpy as np
import pytest

from malcom.dataset import Dataset, Sample
from malcom.graph import RelationGraph
from malcom.weighting import TfIdfModel, WeightSet


@pytest.fixture
def four_sample_dataset():
    """s1={a:1,b:2}, s2={b:1,c:1}, s3={c:2}, s4={a:1,d:1}."""
    return Dataset(
        samples=[
            Sample("s1", "A", {"perm/a": 1.0, "perm/b": 2.0}),
            Sample("s2", "B", {"perm/b": 1.0, "perm/c": 1.0}),
            Sample("s3", "A", {"perm/c": 2.0}),
            Sample("s4", "B", {"perm/a": 1.0, "perm/d": 1.0}),
        ]
    )


def tfidf_model(rows, n=None):
    """A TfIdfModel holding the given per-sample tf-idf maps as its values
    (zeros are not stored); ``n`` overrides the sample count."""
    names = sorted({name for row in rows for name in row})
    col = {name: k for k, name in enumerate(names)}
    rows = [{k: v for k, v in row.items() if v != 0} for row in rows]
    indices = [col[name] for row in rows for name in row]
    return TfIdfModel(
        n=len(rows) if n is None else n,
        sample_ids=[f"s{i}" for i in range(len(rows))],
        names=names,
        df=np.bincount(np.array(indices, dtype=np.int64), minlength=len(names)),
        indptr=np.cumsum([0] + [len(row) for row in rows], dtype=np.int64),
        indices=np.array(indices, dtype=np.int32),
        data=np.array([v for row in rows for v in row.values()], dtype=np.float64),
    )


def pair_weight(ws, a, b):
    """Weight between vertex indices a and b of a complete weight set; 0.0
    when the pair is absent."""
    assert len(ws) == ws.total, "a pruned set lacks the pairs it dropped"
    if a == b:
        raise ValueError("no self-pairs in a weight set")
    a, b = min(a, b), max(a, b)
    hit = np.flatnonzero((ws.i == a) & (ws.j == b))
    return float(ws.w[hit[0]]) if len(hit) else 0.0


def brute_force_weights(model):
    """O(n^2 * features) double loop; sums shared features in ascending
    name order, the reference the inverted index must match bit for bit."""
    out = {}
    values = model.values  # built on each access
    for a in range(model.n):
        for b in range(a + 1, model.n):
            ra, rb = values[a], values[b]
            w = 0.0
            for name in sorted(ra.keys() & rb.keys()):
                w += (ra[name] + rb[name]) * 0.5
            if w > 0:
                out[(a, b)] = w
    return out


def weight_set(ids, entries):
    """Complete weight set of the given pair weights, in row-major (i, j)
    order as ``WeightSet`` requires.  Each pair gets a two-sample feature
    of its own with tf-idf w at both ends, so rows recomputed from the
    feature lists hold (w + w) * 0.5 == w exactly."""
    index = {v: k for k, v in enumerate(ids)}
    pairs = sorted((*sorted((index[a], index[b])), w) for (a, b), w in entries.items())
    i, j, w, features = [], [], [], []
    for ia, ib, weight in pairs:
        i.append(ia)
        j.append(ib)
        w.append(weight)
        features.append((np.array([ia, ib]), np.array([weight, weight])))
    return WeightSet(list(ids), np.array(i), np.array(j), np.array(w), features)


@pytest.fixture
def six_weight_set():
    """w12=5 w13=4 w23=3 w14=0.5 w24=0.2 w34=0.1 over vertices 1..4."""
    return weight_set(
        ["1", "2", "3", "4"],
        {
            ("1", "2"): 5.0,
            ("1", "3"): 4.0,
            ("2", "3"): 3.0,
            ("1", "4"): 0.5,
            ("2", "4"): 0.2,
            ("3", "4"): 0.1,
        },
    )


def make_graph(ids, edges):
    index = {v: k for k, v in enumerate(ids)}
    ei, ej, ew = [], [], []
    for (a, b), w in edges.items():
        ia, ib = index[a], index[b]
        if ia > ib:
            ia, ib = ib, ia
        ei.append(ia)
        ej.append(ib)
        ew.append(w)
    return RelationGraph(
        vertices=list(ids),
        edge_i=np.array(ei, dtype=np.int64),
        edge_j=np.array(ej, dtype=np.int64),
        edge_w=np.array(ew, dtype=np.float64),
    )


@pytest.fixture
def barbell():
    """Two unit-weight triangles {1,2,3} and {4,5,6} joined by edge 3-4."""
    return make_graph(
        ["1", "2", "3", "4", "5", "6"],
        {
            ("1", "2"): 1.0,
            ("1", "3"): 1.0,
            ("2", "3"): 1.0,
            ("4", "5"): 1.0,
            ("4", "6"): 1.0,
            ("5", "6"): 1.0,
            ("3", "4"): 1.0,
        },
    )


@pytest.fixture
def triangle():
    return make_graph(
        ["a", "b", "c"],
        {("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "c"): 1.0},
    )


@pytest.fixture
def two_cliques():
    """Two unit-weight 4-cliques joined by a single bridge."""
    ids = [f"v{i}" for i in range(8)]
    edges = {}
    for block in (range(4), range(4, 8)):
        block = list(block)
        for x in range(len(block)):
            for y in range(x + 1, len(block)):
                edges[(ids[block[x]], ids[block[y]])] = 1.0
    edges[("v3", "v4")] = 1.0
    return make_graph(ids, edges)


def random_graph(rng, n=None, connect=True):
    """Random weighted graph for oracle comparisons; at least one edge."""
    if n is None:
        n = int(rng.integers(2, 9))
    ids = [f"v{i}" for i in range(n)]
    edges = {}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.45:
                edges[(ids[a], ids[b])] = float(rng.uniform(0.1, 3.0))
    if not edges:
        edges[(ids[0], ids[1])] = 1.0
    if connect:
        # join stray components through vertex 0 so flows stay meaningful
        reached = {0}
        frontier = [0]
        adj = {v: set() for v in range(n)}
        for (a, b) in edges:
            ia, ib = ids.index(a), ids.index(b)
            adj[ia].add(ib)
            adj[ib].add(ia)
        while frontier:
            v = frontier.pop()
            for u in adj[v]:
                if u not in reached:
                    reached.add(u)
                    frontier.append(u)
        for v in range(n):
            if v not in reached:
                edges[(ids[0], ids[v])] = float(rng.uniform(0.1, 3.0))
                reached.add(v)
    return make_graph(ids, edges)


def entropy_bits(probs):
    return -sum(p * math.log2(p) for p in probs if p > 0)
