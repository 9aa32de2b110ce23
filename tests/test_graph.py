import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_weights, pairs_of, weight_set
from malcom import graph, infomap, weighting
from malcom.dataset import Dataset, Sample
from malcom.errors import ParameterError
from malcom.graph import (
    GraphError,
    GraphBuildParams,
    RelationGraph,
    build_en,
    build_epsilon,
    build_graph,
    build_knn,
    csr,
    percentile_cutoff,
    row_ids,
    row_pointer,
    read_edges,
    write_edges,
)
from malcom.pipeline import run_pipeline
from malcom.synth import SynthConfig, generate
from malcom.weighting import compute_tfidf, pairwise_weights


def edge_ids(g):
    return {
        tuple(sorted((g.vertices[i], g.vertices[j])))
        for i, j, _ in zip(*pairs_of(g))
    }


def by_rows(ids, i, j, w):
    """The graph over ``ids`` of the edges (i[e], j[e], w[e]) stored by row
    as listed: edges grouped by i, ascending, in their order within a row,
    with no other check."""
    i, j = (np.asarray(a, dtype=np.int32) for a in (i, j))
    order = np.argsort(i, kind="stable")
    w = np.asarray(w, dtype=np.float64)[order]
    return RelationGraph(ids, row_pointer(i[order], len(ids)), j[order], w)


def appended_rows(n, edges):
    """Reference adjacency: append both directions edge by edge."""
    rows = [[] for _ in range(n)]
    for i, j, w in edges:
        rows[i].append((j, w))
        rows[j].append((i, w))
    return rows


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    weight = st.floats(0.001, 100.0)
    return n, draw(st.lists(st.tuples(vertex, vertex, weight), max_size=40))


@given(edge_lists())
def test_csr_rows_match_append_loop(case):
    """Edges stored by row, each row's other ends in any order."""
    n, edges = case
    edges.sort(key=lambda e: e[0])  # stable: each row keeps its order
    i, j, w = zip(*edges) if edges else ((), (), ())
    g = by_rows([str(v) for v in range(n)], i, j, w)
    indptr, indices, eids = csr(g.indptr, g.edge_j)
    for v, expect in enumerate(appended_rows(n, edges)):
        s, e = indptr[v], indptr[v + 1]
        assert list(zip(indices[s:e].tolist(), g.edge_w[eids[s:e]].tolist())) == expect
    assert np.diff(indptr).tolist() == g.degrees().tolist()


def argsort_csr(n, i, j):
    """The CSR built by one stable argsort of the interleaved entries
    (i0->j0, j0->i0, i1->j1, ...), each entry's edge id its position in
    that list halved: the reference ``csr`` must match."""
    src = np.column_stack((i, j)).ravel()
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    indices = np.column_stack((j, i)).ravel()[order].astype(np.int32)
    return indptr, indices, (order >> 1).astype(np.int32)


@given(edge_lists(), st.randoms(use_true_random=False),
       st.sampled_from([1, 3, graph._CSR_CHUNK]))
def test_csr_equals_argsort_reference(case, random, chunk):
    n, edges = case
    random.shuffle(edges)
    edges.sort(key=lambda e: e[0])  # stable: rows keep the shuffled order
    i = np.array([e[0] for e in edges], dtype=np.int32)
    j = np.array([e[1] for e in edges], dtype=np.int32)
    with mock.patch.object(graph, "_CSR_CHUNK", chunk):
        got = csr(row_pointer(i, n), j)
    for a, b in zip(got, argsort_csr(n, i, j)):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def test_degrees_count_a_chunk_of_edges_at_a_time():
    """On 400k edges ``degrees`` allocates its n counts and one chunk's
    temporaries (the chunk's ids as int64, one chunk's counts): no
    |E|-long int64 copy of an id column."""
    rng = np.random.default_rng(7)
    n, m = 3000, 400_000
    i = np.sort(rng.integers(0, n - 1, m, dtype=np.int32))
    j = (i + rng.integers(1, n - i, dtype=np.int32)).astype(np.int32)
    g = RelationGraph([str(v) for v in range(n)], row_pointer(i, n), j, np.ones(m))
    tracemalloc.start()
    try:
        deg = g.degrees()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n + 8 * (weighting._BLOCK_CELLS >> 3) + 1024
    expect = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    assert deg.dtype == expect.dtype and deg.tobytes() == expect.tobytes()


def test_csr_allocates_its_output_and_one_chunk():
    """On 400k edges ``csr`` allocates (tracemalloc counts numpy buffers)
    its output, n-sized arrays and one chunk's temporaries: no |E|-long
    argsort order or interleaved copy."""
    rng = np.random.default_rng(7)
    n, m = 3000, 400_000
    i = np.sort(rng.integers(0, n - 1, m, dtype=np.int32))
    j = (i + rng.integers(1, n - i, dtype=np.int32)).astype(np.int32)
    indptr = row_pointer(i, n)
    tracemalloc.start()
    try:
        out = csr(indptr, j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(a.nbytes for a in out)
    assert peak <= output + 4 * 8 * (n + 1) + 256 * graph._CSR_CHUNK
    for a, b in zip(out, argsort_csr(n, i, j)):
        assert a.tobytes() == b.tobytes()


class TestPercentileCutoff:
    def test_hand_enumeration(self, six_weight_set):
        cutoff, m = percentile_cutoff(six_weight_set, 50)
        assert m == 3
        assert cutoff == 3.0

    def test_p_100_takes_minimum(self, six_weight_set):
        cutoff, m = percentile_cutoff(six_weight_set, 100)
        assert m == 6
        assert cutoff == 0.1

    def test_tie_at_cutoff(self):
        ws = weight_set(
            ["a", "b", "c"], {("a", "b"): 2.0, ("a", "c"): 2.0, ("b", "c"): 1.0}
        )
        cutoff, m = percentile_cutoff(ws, 34)
        assert m == 2
        assert cutoff == 2.0
        g = build_epsilon(ws, cutoff)
        assert edge_ids(g) == {("a", "b"), ("a", "c")}

    def test_empty_weight_set_rejected(self):
        ws = weight_set(["a", "b"], {})
        with pytest.raises(GraphError):
            percentile_cutoff(ws, 50)

    def test_matches_full_sort(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            w = rng.uniform(0.01, 10.0, size=n)
            ids = [f"v{i}" for i in range(n + 1)]
            ws = weight_set(
                ids, {(ids[0], ids[i + 1]): float(w[i]) for i in range(n)}
            )
            p = float(rng.uniform(0.5, 100.0))
            cutoff, m = percentile_cutoff(ws, p)
            assert cutoff == sorted(w, reverse=True)[m - 1]


class TestBuildEpsilon:
    def test_hand_enumeration(self, six_weight_set):
        g = build_epsilon(six_weight_set, 1.0)
        assert edge_ids(g) == {("1", "2"), ("1", "3"), ("2", "3")}
        assert g.degrees()[g.vertices.index("4")] == 0

    def test_threshold_above_max(self, six_weight_set):
        assert build_epsilon(six_weight_set, 10.0).num_edges == 0

    def test_zero_threshold_keeps_all(self, six_weight_set):
        assert build_epsilon(six_weight_set, 0.0).num_edges == 6

    @pytest.mark.parametrize("epsilon", [-1.0, float("nan")])
    def test_negative_or_nan_threshold_rejected(self, six_weight_set, epsilon):
        with pytest.raises(ParameterError, match="epsilon must be >= 0"):
            build_epsilon(six_weight_set, epsilon)


class TestBuildKnn:
    def test_hand_enumeration(self, six_weight_set):
        g = build_knn(six_weight_set, 1)
        assert edge_ids(g) == {("1", "2"), ("1", "3"), ("1", "4")}

    def test_k_n_minus_1_complete(self, six_weight_set):
        g = build_knn(six_weight_set, 3)
        assert g.num_edges == 6

    def test_all_weights_absent_uses_floor(self):
        ws = weight_set(["a", "b", "c"], {})
        g = build_knn(ws, 1)
        assert edge_ids(g) == {("a", "b"), ("a", "c")}
        assert (g.edge_w > 0).all()

    def test_degree_at_least_k(self, six_weight_set):
        for k in (1, 2, 3):
            assert (build_knn(six_weight_set, k).degrees() >= k).all()

    def test_k_out_of_range(self, six_weight_set):
        with pytest.raises(ParameterError):
            build_knn(six_weight_set, 4)


class TestBuildEn:
    def test_hand_enumeration(self, six_weight_set):
        g = build_en(six_weight_set, 50, 1)
        assert edge_ids(g) == {("1", "2"), ("1", "3"), ("2", "3"), ("1", "4")}
        w = {
            tuple(sorted((g.vertices[i], g.vertices[j]))): weight
            for i, j, weight in zip(*pairs_of(g))
        }
        assert w[("1", "4")] == 0.5
        assert g.meta["isolated_before_fallback"] == 1

    def test_noop_when_no_isolated(self, six_weight_set):
        g = build_en(six_weight_set, 100, 1)
        eps = build_epsilon(six_weight_set, 0.1)
        assert edge_ids(g) == edge_ids(eps)

    @pytest.mark.parametrize("k", [0, -3, 4, 10**6])
    def test_k_checked_without_isolated_vertices(self, six_weight_set, k):
        """k is checked at entry, not only where a fallback runs."""
        assert build_en(six_weight_set, 100, 1).meta["isolated_before_fallback"] == 0
        with pytest.raises(ParameterError, match="^k must be"):
            build_en(six_weight_set, 100, k)

    def test_two_vertices(self):
        ws = weight_set(["a", "b"], {("a", "b"): 0.3})
        g = build_en(ws, 1, 1)
        assert edge_ids(g) == {("a", "b")}

    def test_superset_of_epsilon_and_no_isolated(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(3, 25))
            ids = [f"v{i:02d}" for i in range(n)]
            entries = {}
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < 0.3:
                        entries[(ids[a], ids[b])] = float(rng.uniform(0.1, 5))
            if not entries:
                continue
            ws = weight_set(ids, entries)
            p = float(rng.uniform(5, 60))
            k = int(rng.integers(1, min(3, n - 1) + 1))
            cutoff, _ = percentile_cutoff(ws, p)
            eps_g = build_epsilon(ws, cutoff)
            en_g = build_en(ws, p, k)
            assert (en_g.degrees() >= 1).all()
            eps_edges = edge_ids(eps_g)
            en_edges = edge_ids(en_g)
            assert eps_edges <= en_edges
            # extras touch only step-1-isolated vertices
            deg = eps_g.degrees()
            isolated = {ids[v] for v in range(n) if deg[v] == 0}
            for a, b in en_edges - eps_edges:
                assert a in isolated or b in isolated


@pytest.mark.parametrize(
    "params",
    [
        pytest.param(GraphBuildParams(method="epsilon", p=30), id="epsilon-by-p"),
        pytest.param(
            GraphBuildParams(method="epsilon", epsilon=1.0), id="epsilon-by-value"
        ),
        pytest.param(GraphBuildParams(method="knn", k=2), id="knn"),
        pytest.param(GraphBuildParams(method="en", p=5, k=2), id="en"),
    ],
)
def test_build_graph_leaves_weights_unchanged(params):
    """A sweep hands one weight set to every build, so no builder may
    reorder or partition ws.indptr/j/w in place."""
    rng = np.random.default_rng(5)
    n = 40
    ids = [f"v{i:02d}" for i in range(n)]
    entries = {
        (ids[a], ids[b]): float(rng.choice([0.5, 1.0, 2.0, rng.uniform(0.1, 3)]))
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < 0.4
    }
    ws = weight_set(ids, entries)
    before = [ws.indptr.tobytes(), ws.j.tobytes(), ws.w.tobytes()]
    g = build_graph(ws, params)
    assert g.num_edges > 0
    if params.method == "en":
        assert g.meta["fallback_edges"] > 0
    assert [ws.indptr.tobytes(), ws.j.tobytes(), ws.w.tobytes()] == before


def test_edge_file_round_trip(tmp_path, six_weight_set):
    g = build_en(six_weight_set, 50, 1)
    path = tmp_path / "edges.tsv"
    write_edges(g, path)
    text = path.read_text()
    assert text.startswith("# vertices: 4\n")
    loaded = read_edges(path)
    assert edge_ids(loaded) == edge_ids(g)
    assert loaded.n == g.n


def test_vertex_id_like_the_header_round_trips(tmp_path):
    # only line 1 is the header; the id sorts first, so it starts line 2
    ids = ["# vertices: 9", "c", "d", "e"]
    g = by_rows(ids, [0, 1], [1, 2], [0.69, 2.0])
    path, again = tmp_path / "edges.tsv", tmp_path / "again.tsv"
    write_edges(g, path)
    loaded = read_edges(path)
    assert sorted(loaded.vertices) == sorted(ids)
    assert edge_ids(loaded) == edge_ids(g)
    write_edges(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_epsilon_file_lists_isolated_placeholders(tmp_path, six_weight_set):
    g = build_epsilon(six_weight_set, 1.0)
    path, again = tmp_path / "edges.tsv", tmp_path / "again.tsv"
    write_edges(g, path)
    assert "4\t\t0" in path.read_text()
    loaded = read_edges(path)
    assert loaded.n == 4
    # the graph read back has no method in its meta; rewriting it keeps
    # the isolated vertex, byte for byte
    write_edges(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def sorted_edge_lines(g):
    """Reference edge lines: one (src, dst, weight) tuple per edge, sorted,
    then a placeholder line per isolated vertex, sorted."""
    lines = []
    i, j, w = pairs_of(g)
    for a, b, x in zip(i, j, w):
        a, b = g.vertices[a], g.vertices[b]
        if b < a:
            a, b = b, a
        lines.append((a, b, f"{x:.10g}"))
    touched = set(i) | set(j)
    isolated = sorted(v for k, v in enumerate(g.vertices) if k not in touched)
    return [f"{a}\t{b}\t{w}\n" for a, b, w in sorted(lines)] + [
        f"{v}\t\t0\n" for v in isolated
    ]


@st.composite
def distinct_pair_graphs(draw):
    n = draw(st.integers(2, 12))
    ids = draw(
        st.lists(
            st.text("aZ19_\u00e9", min_size=1, max_size=3),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.sets(pair.filter(lambda t: t[0] < t[1]), max_size=30))
    pairs = draw(st.permutations(sorted(pairs)))
    w = draw(st.lists(st.floats(1e-9, 1e9), min_size=len(pairs), max_size=len(pairs)))
    i = np.array([i for i, _ in pairs], dtype=np.int64)
    return RelationGraph.from_pairs(ids, i, np.array([j for _, j in pairs]), w)


def lexsort_edge_file(g):
    """The edge file as the lexsort writer formatted it, the oracle of
    ``write_edges``: one lexsort of the (lo, hi) name ranks of every edge,
    then the sorted columns, then the isolated vertices' lines."""
    ids = g.vertices
    by_name = sorted(range(g.n), key=ids.__getitem__)
    rank = np.empty(g.n, dtype=np.int64)
    rank[by_name] = np.arange(g.n)
    names = np.array([ids[v] for v in by_name], dtype=object)
    a, b = rank[row_ids(g.indptr)], rank[g.edge_j]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((hi, lo))
    cells = zip(names[lo[order]], names[hi[order]], g.edge_w[order].tolist())
    extra = sorted(ids[v] for v in np.flatnonzero(g.degrees() == 0).tolist())
    return (
        f"# vertices: {g.n}\n"
        + "".join("%s\t%s\t%.10g\n" % c for c in cells)
        + "".join(f"{v}\t\t0\n" for v in extra)
    )


def ascending_layout(g):
    """g with its vertices renumbered in ascending id order and its pairs
    listed row-major, the one layout of a graph the package builds."""
    by_name = sorted(range(g.n), key=g.vertices.__getitem__)
    new = np.empty(g.n, dtype=np.int64)
    new[by_name] = np.arange(g.n)
    a, b = new[row_ids(g.indptr)], new[g.edge_j]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((hi, lo))
    return by_rows(
        [g.vertices[v] for v in by_name], lo[order], hi[order], g.edge_w[order]
    )


@given(
    distinct_pair_graphs(), st.integers(1, 4), st.sampled_from(["ascending", "read"])
)
def test_edge_file_matches_sorted_lines(tmp_path_factory, g, chunk, layout):
    """write_edges writes the lexsort writer's bytes, a chunk at a time,
    for a graph in the ascending layout and for what ``read_edges`` returns
    of a file in that writer's order."""
    tmp = tmp_path_factory.mktemp("edges")
    if layout == "ascending":
        g = ascending_layout(g)
    else:
        (tmp / "given.tsv").write_text(lexsort_edge_file(g), encoding="utf-8")
        g = read_edges(tmp / "given.tsv")
    path = tmp / "edges.tsv"
    with mock.patch.object(graph, "_WRITE_CHUNK", chunk):
        write_edges(g, path)
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    assert text == lexsort_edge_file(g)
    assert text == f"# vertices: {g.n}\n" + "".join(sorted_edge_lines(g))


@pytest.mark.parametrize(
    "ids, edges",
    [
        pytest.param(["b", "a", "c"], [(0, 1), (1, 2)], id="ids-not-ascending"),
        pytest.param(["a", "b", "c"], [(1, 0), (1, 2)], id="pair-i-above-j"),
        pytest.param(["a", "b", "c"], [(0, 2), (0, 1)], id="not-row-major"),
        pytest.param(["a", "b", "c", "d"], [(0, 1), (0, 3), (0, 2)], id="across-chunks"),
        pytest.param(["a", "b", "c"], [(0, 1), (0, 1)], id="repeated-pair"),
        pytest.param(["a", "b", "c"], [(0, 1), (1, 3)], id="end-beyond-n"),
    ],
)
def test_write_edges_rejects_a_graph_out_of_layout(tmp_path, ids, edges):
    """Only the one layout is written: any other order raises GraphError
    before the file is opened, at any chunk boundary."""
    i, j = (np.array(a, dtype=np.int32) for a in zip(*edges))
    g = by_rows(ids, i, j, np.ones(len(edges)))
    path = tmp_path / "edges.tsv"
    with mock.patch.object(graph, "_WRITE_CHUNK", 2), pytest.raises(
        GraphError, match="^graph not listed by ascending id and row-major pairs$"
    ):
        write_edges(g, path)
    assert not path.exists()


@given(distinct_pair_graphs(), st.randoms(use_true_random=False))
def test_read_edges_ignores_line_order(tmp_path_factory, g, random):
    """The same edge file with its lines shuffled reads as the same arrays:
    vertices by ascending name, pairs row-major."""
    tmp = tmp_path_factory.mktemp("edges")
    lines = lexsort_edge_file(g).splitlines(keepends=True)
    shuffled = lines[1:]
    random.shuffle(shuffled)
    (tmp / "given.tsv").write_text("".join(lines), encoding="utf-8")
    (tmp / "shuffled.tsv").write_text("".join(shuffled), encoding="utf-8")
    a, b = read_edges(tmp / "given.tsv"), read_edges(tmp / "shuffled.tsv")
    assert a.vertices == b.vertices == sorted(g.vertices)
    for x, y in zip((a.indptr, a.edge_j, a.edge_w), (b.indptr, b.edge_j, b.edge_w)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert a.row_major()


def pair_graph(n, m, seed=11):
    """n vertices, ids ascending, and m distinct pairs listed row-major."""
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, n, size=(2, 2 * m))
    key = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    key = key[key // n != key % n][:m]
    ids = [f"v{v:05d}" for v in range(n)]
    i, j = (x.astype(np.int32) for x in np.divmod(key, n))
    return RelationGraph(ids, row_pointer(i, n), j, rng.uniform(0.1, 5.0, len(key)))


def write_peak(g, path, chunk) -> int:
    """tracemalloc's peak, in bytes, while write_edges writes g."""
    with mock.patch.object(graph, "_WRITE_CHUNK", chunk):
        tracemalloc.start()
        try:
            write_edges(g, path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def writes_lexsort_file(g, path) -> bool:
    """Whether path holds the lexsort writer's file of g (a bool, so that a
    failure does not diff two files of 400k lines)."""
    return path.read_text(encoding="utf-8") == lexsort_edge_file(g)


def test_write_edges_on_an_ordered_graph_allocates_no_edge_long_array(tmp_path):
    """write_edges checks and formats the edges a chunk at a time: it
    allocates less than one byte per edge, below the smallest |E|-long
    array.  The lexsort writer allocated an order and sorted copies of both
    rank columns and the weights, and fails this."""
    g = pair_graph(3000, 400_000)
    peak = write_peak(g, tmp_path / "edges.tsv", 1024)
    assert peak < g.num_edges
    assert writes_lexsort_file(g, tmp_path / "edges.tsv")


@pytest.mark.parametrize(
    "text, message",
    [
        ("# vertices: 2\na\tb\t1\nb\tb\t1\n", "line 3: self-loop on 'b'"),
        (
            "a\tb\t1\nb\tc\t1\n\nc\tb\t2\nb\ta\t3\n",
            "line 4: repeats the pair 'c', 'b'",
        ),
        ("a\tb\t1\nc\t\t0\na\tb\t1\n", "line 3: repeats the pair 'a', 'b'"),
    ],
)
def test_read_edges_rejects_loop_and_repeated_pair(tmp_path, text, message):
    path = tmp_path / "edges.tsv"
    path.write_text(text)
    with pytest.raises(GraphError, match=f"^{message}$"):
        read_edges(path)


# each edge fault on the vertices a, b, c: as edges, the message check()
# gives them, and as an edge file
HANDOVER_FAULTS = [
    pytest.param(
        [(0, 1, 1.0), (1, 2, 1.0), (0, 1, 2.0)], "edge 2: repeats the pair 'a', 'b'",
        "a\tb\t1\nb\tc\t1\na\tb\t2\n", id="repeated-pair",
    ),
    pytest.param(
        [(0, 1, 1.0), (1, 2, 1.0), (1, 0, 2.0)], "edge 2: repeats the pair 'b', 'a'",
        "a\tb\t1\nb\tc\t1\nb\ta\t2\n", id="reversed-repeat",
    ),
    pytest.param(
        [(0, 1, math.nan), (1, 2, 1.0)],
        "edge 0: edge weight must be finite and > 0, got nan",
        "a\tb\tnan\nb\tc\t1\n", id="nan-weight",
    ),
    pytest.param(
        [(0, 1, 1.0), (1, 2, -0.5)],
        "edge 1: edge weight must be finite and > 0, got -0.5",
        "a\tb\t1\nb\tc\t-0.5\n", id="negative-weight",
    ),
    pytest.param(
        [(0, 1, 1.0), (1, 1, 1.0), (1, 2, 1.0)], "edge 1: self-loop on 'b'",
        "a\tb\t1\nb\tb\t1\nb\tc\t1\n", id="self-loop",
    ),
    # a file names its vertices, so its id >= n is one beyond the declared count
    pytest.param(
        [(0, 1, 1.0), (1, 7, 1.0)], "edge 1: vertex ids 1, 7 not in [0, 3)",
        "# vertices: 2\na\tb\t1\nb\tc\t1\n", id="id-beyond-n",
    ),
]


@pytest.mark.parametrize("edges, message, text", HANDOVER_FAULTS)
def test_every_handover_rejects_a_bad_edge(tmp_path, edges, message, text):
    """from_pairs builds only graphs that pass check(), detect and codelength
    take only such graphs, stored by row with each row's edges as listed,
    and read_edges returns only such graphs."""
    i, j, w = (np.array(a) for a in zip(*edges))
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        RelationGraph.from_pairs(["a", "b", "c"], i, j, w)
    # by row, a pair repeated across rows moves to its first row
    g = by_rows(["a", "b", "c"], i, j, w)
    fault = rf"^edge \d: {re.escape(message.split(': ', 1)[1])}$"
    with pytest.raises(GraphError, match=fault):
        infomap.detect(g)
    with pytest.raises(GraphError, match=fault):
        infomap.codelength(g, infomap.Partition.from_labels([0, 0, 1]))
    path = tmp_path / "edges.tsv"
    path.write_text(text)
    with pytest.raises(GraphError):
        read_edges(path)


def first_fault(n, edges):
    """check_pairs' verdict edge by edge on the list ``edges`` of (i, j, w)
    over n vertices: (e, rule) of the first faulty edge."""
    seen = set()
    for e, (a, b, w) in enumerate(edges):
        if not (0 <= a < n and 0 <= b < n):
            return e, "not in"
        if a == b:
            return e, "self-loop"
        if not (math.isfinite(w) and w > 0):
            return e, "edge weight"
        if (min(a, b), max(a, b)) in seen:
            return e, "repeats"
        seen.add((min(a, b), max(a, b)))
    return None


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(-1, n),
                    st.integers(-1, n),
                    st.sampled_from([1.0, 2.5, 0.0, -1.0, math.nan, math.inf]),
                ),
                max_size=12,
            ),
            st.booleans(),
        )
    )
)
def test_check_reports_the_first_faulty_edge(case):
    """Ascending or not, check_pairs names the first edge of a list that
    breaks a rule, and check() the first of a graph stored by row, whose
    rows list each row's edges as given."""
    n, edges, ascending = case
    if ascending:
        edges.sort()
    names = [f"v{v}" for v in range(n)]
    i, j, w = (np.array([e[k] for e in edges]) for k in range(3))
    checks = [(lambda: graph.check_pairs(names, i, j, w), edges)]
    if all(0 <= e[0] < n for e in edges):
        grouped = sorted(edges, key=lambda e: e[0])  # stable, as by_rows
        checks.append((by_rows(names, i, j, w).check, grouped))
    for check, listed in checks:
        want = first_fault(n, listed)
        if want is None:
            check()
            continue
        e, rule = want
        with pytest.raises(GraphError, match=f"^edge {e}: .*{rule}"):
            check()


@st.composite
def tied_models(draw):
    """Tf-idf models whose samples repeat a few feature templates, so that
    pair weights tie at the cutoff and at the k-th neighbour, and may add
    a few features of their own, so that weights also differ.  Up to two
    samples share no feature and have no positive pair at all."""
    n = draw(st.integers(2, 24))
    names = [f"perm/f{c}" for c in range(6)]
    templates = draw(
        st.lists(
            st.dictionaries(st.sampled_from(names), st.sampled_from([1.0, 2.0]),
                            min_size=1, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    picks = draw(st.lists(st.sampled_from(templates), min_size=n, max_size=n))
    extra = st.dictionaries(
        st.sampled_from([f"api/e{c}" for c in range(10)]),
        st.integers(1, 4).map(float),
        max_size=3,
    )
    extras = draw(st.lists(extra, min_size=n, max_size=n))
    lonely = draw(st.sets(st.integers(0, n - 1), max_size=2))
    labels = draw(st.permutations(range(n)))  # id order unlike the order drawn
    samples = [
        Sample(
            f"s{labels[v]:02d}",
            None,
            {f"own/{v}": 1.0} if v in lonely else {**picks[v], **extras[v]},
        )
        for v in range(n)
    ]
    # the builders' vertex order, as the pipeline takes it: ties between
    # neighbours break by index, which is ascending id
    return compute_tfidf(Dataset(samples=samples).in_id_order())


tiny_50_100 = st.one_of(st.floats(0.01, 5.0), st.just(50.0), st.just(100.0))
block_cells = st.sampled_from([lambda n: 1, lambda n: 3 * n + 1])  # 1 or 3 rows


def assert_same_graph(a, b):
    assert a.indptr.tolist() == b.indptr.tolist()
    assert a.edge_j.tolist() == b.edge_j.tolist()
    assert a.edge_w.tobytes() == b.edge_w.tobytes()
    assert a.meta == b.meta


@given(tied_models(), tiny_50_100, st.integers(1, 3), block_cells)
def test_pruned_weights_build_the_same_graphs(model, p, k, cells):
    k = min(k, model.n - 1)
    with mock.patch.object(weighting, "_BLOCK_CELLS", cells(model.n)):
        full = pairwise_weights(model)
        top = pairwise_weights(model, top_p=p)
    # the pruned set is the complete set's pairs at or above its threshold
    assert (top.total, top.min_w) == (full.total, full.min_w)
    held = full.w >= (top.w.min() if len(top) else np.inf)
    assert row_ids(top.indptr).tolist() == row_ids(full.indptr)[held].tolist()
    assert top.j.tolist() == full.j[held].tolist()
    assert top.w.tobytes() == full.w[held].tobytes()
    builds = [
        lambda ws: build_en(ws, p, k),
        lambda ws: build_graph(ws, GraphBuildParams(method="epsilon", p=p)),
    ]
    for build in builds:
        if full.total == 0:
            for ws in (full, top):
                with pytest.raises(GraphError, match="empty weight set"):
                    build(ws)
        else:
            assert_same_graph(build(top), build(full))


def knn_reference(ws, base, mask, k):
    """Brute-force k-nearest rule: for every vertex where ``mask`` is set, a
    full sort of its positive pairs in the complete set ``ws`` by (-weight,
    id), topped up to k with the absent pairs in ascending id order at the
    floor weight.  Returns the sorted (i, j, w) triples of the base edges
    plus the picks; a pair picked again keeps its first weight."""
    ids = ws.ids
    near = [[] for _ in range(ws.n)]
    for a, b, w in zip(*pairs_of(ws)):
        near[a].append((b, w))
        near[b].append((a, w))
    floor = graph.DEFAULT_FLOOR if ws.min_w is None else max(
        ws.min_w * graph.FLOOR_FACTOR, math.ulp(0.0)
    )
    i, j, w = pairs_of(base)
    edges = dict(zip(zip(i, j), w))
    for v in np.flatnonzero(mask).tolist():
        chosen = sorted(near[v], key=lambda t: (-t[1], ids[t[0]]))[:k]
        have = {u for u, _ in chosen} | {v}
        fill = sorted((u for u in range(ws.n) if u not in have), key=ids.__getitem__)
        chosen += [(u, floor) for u in fill[: k - len(chosen)]]
        for u, w in chosen:
            edges.setdefault((min(u, v), max(u, v)), w)
    return sorted((i, j, w) for (i, j), w in edges.items())


def edge_triples(g):
    return list(zip(*pairs_of(g)))


@settings(deadline=None)
@given(tied_models(), tiny_50_100, st.integers(1, 3), block_cells)
def test_knn_and_en_match_brute_force_rule(model, p, k, cells):
    k = min(k, model.n - 1)
    with mock.patch.object(weighting, "_BLOCK_CELLS", cells(model.n)):
        full = pairwise_weights(model)
        top = pairwise_weights(model, top_p=p)
        nobody = build_epsilon(full, np.inf)
        assert edge_triples(build_knn(full, k)) == knn_reference(
            full, nobody, np.ones(model.n, dtype=bool), k
        )
        if full.total == 0:
            return
        base = build_epsilon(full, percentile_cutoff(full, p)[0])
        expect = knn_reference(full, base, base.degrees() == 0, k)
        for ws in (full, top):
            assert edge_triples(build_en(ws, p, k)) == expect


@given(tied_models(), st.data(), tiny_50_100, block_cells)
def test_row_blocks_match_brute_force_rows(model, data, p, cells):
    """Complete and pruned sets alike recompute the rows they give."""
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=model.n,
                                       max_size=model.n)))
    dense = np.zeros((model.n, model.n))
    for (a, b), w in brute_force_weights(model).items():
        dense[a, b] = dense[b, a] = w
    with mock.patch.object(weighting, "_BLOCK_CELLS", cells(model.n)):
        full = pairwise_weights(model)
        # no pair held: rows come from the feature lists alone
        empty = weighting.WeightSet(
            full.ids, np.zeros(model.n + 1), full.j[:0], full.w[:0],
            weighting._feature_lists(model),
        )
        sets = [full, pairwise_weights(model, top_p=p), empty]
        blocks = [list(ws.row_blocks(mask)) for ws in sets]
    step = max(1, cells(model.n) // model.n)
    chosen = np.flatnonzero(mask)
    for got in blocks:
        assert [r.tolist() for r, _ in got] == [
            chosen[s : s + step].tolist() for s in range(0, len(chosen), step)
        ]
        for rows, block in got:
            assert block.dtype == np.float64
            assert block.tobytes() == dense[rows].tobytes()


def pruned_example():
    """16 samples in two groups: at p=1 the threshold rises while weighing."""
    samples = [
        Sample(f"s{v}", None, {f"perm/g{v % 2}": 1.0, f"perm/x{v % 5}": 1.0 + v % 3})
        for v in range(16)
    ]
    return compute_tfidf(Dataset(samples=samples))


def test_pruned_set_rejects_larger_p():
    model = pruned_example()
    full, top = pairwise_weights(model), pairwise_weights(model, top_p=1)
    assert len(top) < top.total
    # exact: a p is served when the set holds its top m pairs
    served = []
    for p in np.linspace(0.5, 100, 200).tolist():
        if math.ceil(p / 100 * top.total) <= len(top):
            assert percentile_cutoff(top, p) == percentile_cutoff(full, p)
            served.append(p)
        else:
            with pytest.raises(GraphError, match=f"holds only {len(top)}$"):
                percentile_cutoff(top, p)
    assert 1 < max(served) < 100
    knn = GraphBuildParams(method="knn", k=1)
    assert_same_graph(build_graph(top, knn), build_graph(full, knn))
    with pytest.raises(GraphError, match="holds only the pair weights >="):
        build_graph(top, GraphBuildParams(method="epsilon", epsilon=0.1))


def test_pruned_set_rejects_epsilon_below_held():
    model = compute_tfidf(generate(SynthConfig(samples_per_family=10, rng_seed=7)))
    full, top = pairwise_weights(model), pairwise_weights(model, top_p=1)
    assert len(top) < top.total
    with pytest.raises(GraphError, match="holds only the pair weights >="):
        build_epsilon(top, 0.0)
    lowest = float(top.w.min())
    assert_same_graph(build_epsilon(top, lowest), build_epsilon(full, lowest))


@settings(deadline=None)
@given(tied_models(), tiny_50_100, tiny_50_100, st.integers(1, 3), st.data())
def test_pruned_set_builds_exactly_or_raises(model, p, q, k, data):
    """A set weighed at p serves each build exactly or raises GraphError,
    and serves every p' <= p and every epsilon >= its smallest weight."""
    k = min(k, model.n - 1)
    full, top = pairwise_weights(model), pairwise_weights(model, top_p=p)
    if full.total == 0:
        return
    epsilon = data.draw(st.sampled_from([0.0, *full.w.tolist()]))
    builds = [
        (lambda ws: build_en(ws, q, k), q <= p),
        (lambda ws: build_graph(ws, GraphBuildParams(method="epsilon", p=q)), q <= p),
        (lambda ws: build_epsilon(ws, epsilon), epsilon >= top.w.min()),
    ]
    for build, served in builds:
        try:
            got = build(top)
        except GraphError:
            assert not served
        else:
            assert_same_graph(got, build(full))


def test_pruned_set_recomputes_isolated_rows():
    model = pruned_example()
    full, top = pairwise_weights(model), pairwise_weights(model, top_p=1)
    assert len(top) < top.total
    g = build_en(top, 1, 2)
    assert g.meta["isolated_before_fallback"] > 0
    assert_same_graph(g, build_en(full, 1, 2))


def hard_650(extra=()):
    """The seed-7 sweep corpus (n = 650) and the samples ``extra``, as the
    pipeline orders them."""
    d = generate(
        SynthConfig(
            samples_per_family=50,
            signature_presence_prob=0.6,
            cross_family_leak_prob=0.15,
            rng_seed=7,
        )
    )
    return compute_tfidf(Dataset(samples=[*d.samples, *extra]).in_id_order())


def test_an_epsilon_floor_holds_only_the_pairs_at_or_above_it(tmp_path, monkeypatch):
    """Weighed at a floor epsilon, the sweep corpus's set holds exactly the
    pairs >= epsilon, the same on the kernel and on the bound path, and its
    floor is epsilon, not its smallest held weight: the epsilon graph is
    the complete set's, also for an epsilon between two weights, a larger
    epsilon is served and a smaller one raises GraphError.  The pipeline
    writes the same files for the p = 5 cutoff given as a value as for p."""
    d = generate(
        SynthConfig(
            samples_per_family=50,
            signature_presence_prob=0.6,
            cross_family_leak_prob=0.15,
            rng_seed=7,
        )
    )
    model = compute_tfidf(d.in_id_order())
    full = pairwise_weights(model)
    cutoff = percentile_cutoff(full, 5)[0]
    below = full.w[full.w < cutoff].max()
    approximate, blocks = weighting._bound_rows, []
    monkeypatch.setattr(
        weighting, "_bound_rows", lambda *a: blocks.append(1) or approximate(*a)
    )
    for epsilon in (cutoff, (below + cutoff) / 2):
        sets = []
        for gain in (math.inf, 0):  # the kernel, then the bound path
            monkeypatch.setattr(weighting, "_BOUND_GAIN", gain)
            sets.append(pairwise_weights(model, 100, epsilon))
        for ws in sets:
            assert len(ws) == np.count_nonzero(full.w >= epsilon) < ws.total
            assert ws.floor == epsilon and ws.w.min() == cutoff
            assert ws.w.tobytes() == sets[0].w.tobytes()
            for served in (epsilon, 2 * epsilon):
                assert_same_graph(build_epsilon(ws, served), build_epsilon(full, served))
            with pytest.raises(GraphError, match="holds only the pair weights >="):
                build_epsilon(ws, below)
    assert blocks  # the bound path weighed
    for name, params in (("p", GraphBuildParams("epsilon", p=5)),
                         ("value", GraphBuildParams("epsilon", epsilon=cutoff))):
        run_pipeline(d, params, seed=7, out_dir=tmp_path / name)
    for f in ("edges.tsv", "partition.csv"):
        assert (tmp_path / "p" / f).read_bytes() == (tmp_path / "value" / f).read_bytes()


def test_en_without_an_absent_pick_reads_no_smallest_weight(monkeypatch):
    """At p = 1 the sweep corpus leaves vertices isolated, but each has a
    present pair to pick: E-N recomputes the isolated rows alone and never
    reads ``min_w``, which would recompute more rows of this pruned set."""
    ws = pairwise_weights(hard_650(), 1)
    assert len(ws) < ws.total
    isolated = build_epsilon(ws, percentile_cutoff(ws, 1)[0]).degrees() == 0
    kernel, rows = weighting._weight_rows, []
    monkeypatch.setattr(
        weighting, "_weight_rows", lambda *a: rows.append(a[2]) or kernel(*a)
    )
    g = build_en(ws, 1, 1)
    assert g.meta["isolated_before_fallback"] == np.count_nonzero(isolated) > 0
    assert np.concatenate(rows).tolist() == np.flatnonzero(isolated).tolist()
    assert "min_w" not in vars(ws)


def test_a_featureless_sample_gets_the_same_floor_edge_on_either_path(monkeypatch):
    """A sample with no feature has no present pair, so its fallback pick
    reads the floor, 10**-3 times the smallest weight, which the pruned set
    recomputes.  On the kernel and on the bound path the E-N graphs at
    p = 1 are the same, byte for byte, and the floor is the complete
    set's."""
    model = hard_650([Sample("s9999", "fam00", {})])
    lonely = model.sample_ids.index("s9999")
    approximate, blocks = weighting._bound_rows, []
    monkeypatch.setattr(
        weighting, "_bound_rows", lambda *a: blocks.append(1) or approximate(*a)
    )
    graphs = []
    for gain in (math.inf, 0):  # the kernel, then the bound path
        monkeypatch.setattr(weighting, "_BOUND_GAIN", gain)
        ws = pairwise_weights(model, 1)
        graphs.append(build_en(ws, 1, 1))
        assert len(ws) < ws.total and "min_w" in vars(ws)
    assert blocks
    assert_same_graph(*graphs)
    g, floor = graphs[0], pairwise_weights(model).min_w * graph.FLOOR_FACTOR
    at = (row_ids(g.indptr) == lonely) | (g.edge_j == lonely)
    assert g.edge_w[at].tolist() == [floor]


def test_en_without_isolated_vertices_allocates_under_twice_its_edges():
    """With no vertex isolated, E-N returns the epsilon edges as they are:
    build_en allocates (tracemalloc counts numpy buffers) at most twice the
    bytes of the edges it returns.  The set holds 320k of the 499,500 pairs
    in row-major order; no row is recomputed, so it needs no feature list."""
    rng = np.random.default_rng(7)
    n, held = 1000, 320_000
    i, j = np.triu_indices(n, 1)
    keep = np.sort(rng.choice(len(i), held, replace=False))
    ids = [f"v{v}" for v in range(n)]
    ptr = row_pointer(i[keep], n)
    ws = weighting.WeightSet(ids, ptr, j[keep], rng.uniform(1, 2, held), [], len(i))
    del i, j, keep
    tracemalloc.start()
    try:
        g = build_en(ws, 60, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.meta["isolated_before_fallback"] == 0
    assert g.num_edges >= 299_700  # the top 60% of 499,500 pairs
    assert peak <= 2 * (g.indptr.nbytes + g.edge_j.nbytes + g.edge_w.nbytes)


def test_percentile_cutoff_allocates_under_one_copy_of_the_weights():
    """The sweep's case: a set weighed at p = 40 cut at p = 10.  The cutoff
    counts buckets a chunk at a time and partitions only its bucket's
    members, so it allocates less than one copy of the held weights
    (337,740 of them on the seed-7 1300-sample hard corpus)."""
    d = generate(
        SynthConfig(
            samples_per_family=100,
            signature_presence_prob=0.6,
            cross_family_leak_prob=0.15,
            rng_seed=7,
        )
    )
    ws = pairwise_weights(compute_tfidf(d), 40)
    tracemalloc.start()
    try:
        cutoff, m = percentile_cutoff(ws, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cutoff == np.sort(ws.w)[len(ws) - m]
    assert peak < ws.w.nbytes


def test_en_graph_and_its_set_hold_twelve_bytes_per_pair():
    """Stored by row, a weight set and the E-N graph built from it (which
    aliases it) hold per pair only its int32 column and float64 weight, and
    an int64 row pointer of n + 1: a column of row ids would fail this."""
    ws = pairwise_weights(hard_650(), 10)
    g = build_en(ws, 10, 1)
    assert g.meta["fallback_edges"] == 0  # no pick: the set's own arrays
    for holder, names in ((ws, ("indptr", "j", "w")), (g, ("indptr", "edge_j", "edge_w"))):
        m = len(getattr(holder, names[-1]))
        assert sum(getattr(holder, k).nbytes for k in names) == 12 * m + 8 * (ws.n + 1)
        arrays = {k: a for k, a in vars(holder).items() if isinstance(a, np.ndarray)}
        assert {k for k, a in arrays.items() if len(a) > ws.n} == set(names)


def test_graphs_at_the_weighed_p_share_the_sets_read_only_arrays():
    """With no vertex isolated, the E-N and epsilon-at-p graphs at the p the
    set was weighed at keep every held pair and take the set's arrays
    themselves; neither side can write into them."""
    model = compute_tfidf(generate(SynthConfig(samples_per_family=10, rng_seed=7)))
    ws = pairwise_weights(model, top_p=10)
    en = build_en(ws, 10, 1)
    assert en.meta["isolated_before_fallback"] == 0
    at_p = build_graph(ws, GraphBuildParams(method="epsilon", p=10))
    for g in (en, at_p):
        for a, b in ((g.indptr, ws.indptr), (g.edge_j, ws.j), (g.edge_w, ws.w)):
            assert np.shares_memory(a, b)
            for x in (a, b):
                with pytest.raises(ValueError, match="read-only"):
                    x[0] = x[0]
    # a smaller p keeps fewer pairs: a copy of its own
    smaller = build_en(ws, 5, 1)
    assert not np.shares_memory(smaller.edge_w, ws.w)
    smaller.edge_w[0] = smaller.edge_w[0]


def test_vertex_ids_are_int32(tmp_path):
    samples = [
        Sample(f"s{v}", None, {f"perm/g{v % 2}": 1.0, f"perm/x{v % 5}": 1.0 + v % 3})
        for v in range(16)
    ]
    model = compute_tfidf(Dataset(samples=samples).in_id_order())
    full, top = pairwise_weights(model), pairwise_weights(model, top_p=1)
    assert len(top) < top.total  # pruned: the E-N fallback recomputes rows
    arrays = [full.j, top.j]
    graphs = [build_epsilon(full, 0.5), build_knn(full, 2), build_en(top, 1, 1)]
    write_edges(graphs[-1], tmp_path / "edges.tsv")
    graphs.append(read_edges(tmp_path / "edges.tsv"))
    for g in graphs:
        arrays += [row_ids(g.indptr), g.edge_j, infomap._net_from_graph(g).indices]
    # an edge list given as int64 still yields int32 CSR indices
    arrays.append(csr(np.array([0, 1, 2, 2]), np.array([1, 2]))[1])
    assert [a.dtype for a in arrays] == [np.dtype(np.int32)] * len(arrays)
