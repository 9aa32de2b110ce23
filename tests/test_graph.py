import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_weights, weight_set
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
    read_edges,
    write_edges,
)
from malcom.synth import SynthConfig, generate
from malcom.weighting import compute_tfidf, pairwise_weights


def edge_ids(g):
    return {
        tuple(sorted((g.vertices[i], g.vertices[j])))
        for i, j in zip(g.edge_i.tolist(), g.edge_j.tolist())
    }


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
    n, edges = case
    i = np.array([e[0] for e in edges], dtype=np.int64)
    j = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array([e[2] for e in edges], dtype=np.float64)
    indptr, indices, eids = csr(n, i, j)
    for v, expect in enumerate(appended_rows(n, edges)):
        s, e = indptr[v], indptr[v + 1]
        assert list(zip(indices[s:e].tolist(), w[eids[s:e]].tolist())) == expect
    g = RelationGraph([str(v) for v in range(n)], i, j, w)
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
    i = np.array([e[0] for e in edges], dtype=np.int32)
    j = np.array([e[1] for e in edges], dtype=np.int32)
    with mock.patch.object(graph, "_CSR_CHUNK", chunk):
        got = csr(n, i, j)
    for a, b in zip(got, argsort_csr(n, i, j)):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def test_degrees_count_a_chunk_of_edges_at_a_time():
    """On 400k edges ``degrees`` allocates its n counts and one chunk's
    temporaries (the chunk's ids as int64, one chunk's counts): no
    |E|-long int64 copy of an id column."""
    rng = np.random.default_rng(7)
    n, m = 3000, 400_000
    i = rng.integers(0, n - 1, m, dtype=np.int32)
    j = (i + rng.integers(1, n - i, dtype=np.int32)).astype(np.int32)
    g = RelationGraph([str(v) for v in range(n)], i, j, np.ones(m))
    tracemalloc.start()
    try:
        deg = g.degrees()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n + 8 * graph._DEGREE_CHUNK + 1024
    expect = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    assert deg.dtype == expect.dtype and deg.tobytes() == expect.tobytes()


def test_csr_allocates_its_output_and_one_chunk():
    """On 400k edges ``csr`` allocates (tracemalloc counts numpy buffers)
    its output, n-sized arrays and one chunk's temporaries: no |E|-long
    argsort order or interleaved copy."""
    rng = np.random.default_rng(7)
    n, m = 3000, 400_000
    i = rng.integers(0, n - 1, m, dtype=np.int32)
    j = (i + rng.integers(1, n - i, dtype=np.int32)).astype(np.int32)
    tracemalloc.start()
    try:
        out = csr(n, i, j)
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
            for i, j, weight in zip(
                g.edge_i.tolist(), g.edge_j.tolist(), g.edge_w.tolist()
            )
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
    reorder or partition ws.i/j/w in place."""
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
    before = [ws.i.tobytes(), ws.j.tobytes(), ws.w.tobytes()]
    g = build_graph(ws, params)
    assert g.num_edges > 0
    if params.method == "en":
        assert g.meta["fallback_edges"] > 0
    assert [ws.i.tobytes(), ws.j.tobytes(), ws.w.tobytes()] == before


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
    g = RelationGraph(ids, np.array([0, 1]), np.array([1, 2]), np.array([0.69, 2.0]))
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
    for i, j, w in zip(g.edge_i.tolist(), g.edge_j.tolist(), g.edge_w.tolist()):
        a, b = g.vertices[i], g.vertices[j]
        if b < a:
            a, b = b, a
        lines.append((a, b, f"{w:.10g}"))
    touched = set(g.edge_i.tolist()) | set(g.edge_j.tolist())
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
    return RelationGraph(
        ids,
        np.array([i for i, _ in pairs], dtype=np.int64),
        np.array([j for _, j in pairs], dtype=np.int64),
        np.array(w, dtype=np.float64),
    )


def lexsort_edge_file(g):
    """The edge file as the lexsort writer formatted it, the oracle of
    ``write_edges``: one lexsort of the (lo, hi) name ranks of every edge,
    then the sorted columns, then the isolated vertices' lines."""
    ids = g.vertices
    names = np.array(sorted(ids), dtype=object)
    rank = graph._name_rank(ids)
    a, b = rank[g.edge_i], rank[g.edge_j]
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
    listed row-major, as a built graph of a corpus in id order lists them:
    the keys of write_edges ascend, so it sorts nothing."""
    by_name = sorted(range(g.n), key=g.vertices.__getitem__)
    new = np.empty(g.n, dtype=np.int64)
    new[by_name] = np.arange(g.n)
    a, b = new[g.edge_i], new[g.edge_j]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((hi, lo))
    return RelationGraph(
        [g.vertices[v] for v in by_name], lo[order], hi[order], g.edge_w[order]
    )


def reversed_blocks(g, chunk):
    """The ascending layout with its blocks of ``chunk`` edges in reverse
    order: each chunk ascends, and only the keys across a boundary fall."""
    g = ascending_layout(g)
    blocks = [np.arange(s, min(s + chunk, g.num_edges))
              for s in range(0, g.num_edges, chunk)]
    order = np.concatenate(blocks[::-1] or [np.arange(0)])
    return RelationGraph(g.vertices, g.edge_i[order], g.edge_j[order], g.edge_w[order])


@given(
    distinct_pair_graphs(),
    st.integers(1, 4),
    st.sampled_from(["ascending", "reversed-blocks", "shuffled", "read"]),
)
def test_edge_file_matches_sorted_lines(tmp_path_factory, g, chunk, layout):
    """Both paths of write_edges write the lexsort writer's bytes: the
    no-sort path on graphs whose keys ascend, and the sort path on shuffled
    ids, on chunks that ascend only within themselves, and on the file
    order of ``read_edges``."""
    tmp = tmp_path_factory.mktemp("edges")
    if layout == "ascending":
        g = ascending_layout(g)
    elif layout == "reversed-blocks":
        g = reversed_blocks(g, chunk)
    elif layout == "read":
        (tmp / "given.tsv").write_text(lexsort_edge_file(g), encoding="utf-8")
        g = read_edges(tmp / "given.tsv")
    path = tmp / "edges.tsv"
    with mock.patch.object(graph, "_WRITE_CHUNK", chunk), mock.patch.object(
        np, "argsort", wraps=np.argsort
    ) as argsort:
        write_edges(g, path)
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    assert text == lexsort_edge_file(g)
    assert text == f"# vertices: {g.n}\n" + "".join(sorted_edge_lines(g))
    if layout == "ascending":
        assert not argsort.called
    elif layout == "reversed-blocks" and g.num_edges > chunk:
        assert argsort.called


def pair_graph(n, m, ids_ascending, seed=11):
    """n vertices and m distinct pairs listed row-major; ids ascend with
    the vertex order, or are shuffled, which leaves the keys of
    write_edges out of order."""
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, n, size=(2, 2 * m))
    key = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    key = key[key // n != key % n][:m]
    ids = [f"v{v:05d}" for v in range(n)]
    if not ids_ascending:
        ids = [ids[v] for v in rng.permutation(n)]
    i, j = (x.astype(np.int32) for x in np.divmod(key, n))
    return RelationGraph(ids, i, j, rng.uniform(0.1, 5.0, len(key)))


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
    """When the keys ascend, write_edges checks and formats them a chunk at
    a time: it allocates less than one byte per edge, below the smallest
    |E|-long array.  The lexsort writer allocated an order and sorted
    copies of both rank columns and the weights, and fails this."""
    g = pair_graph(3000, 400_000, ids_ascending=True)
    peak = write_peak(g, tmp_path / "edges.tsv", 1024)
    assert peak < g.num_edges
    assert writes_lexsort_file(g, tmp_path / "edges.tsv")


def test_write_edges_sorts_in_sixteen_bytes_per_edge(tmp_path):
    """With shuffled ids the keys do not ascend: write_edges holds one
    int64 key and one argsort position per edge, 16 B, plus one chunk's
    lines and n-sized arrays.  The lexsort writer's sorted copies of the
    columns came on top of its order, and it fails this."""
    g = pair_graph(3000, 400_000, ids_ascending=False)
    chunk = 1024
    peak = write_peak(g, tmp_path / "edges.tsv", chunk)
    assert peak <= 16 * g.num_edges + 256 * chunk + 64 * g.n
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
    """detect and codelength take only graphs that pass check(), and
    read_edges returns only such graphs."""
    i, j, w = (np.array(a) for a in zip(*edges))
    g = RelationGraph(["a", "b", "c"], i, j, w)
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        infomap.detect(g)
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        infomap.codelength(g, infomap.Partition.from_labels([0, 0, 1]))
    path = tmp_path / "edges.tsv"
    path.write_text(text)
    with pytest.raises(GraphError):
        read_edges(path)


def first_fault(g):
    """check()'s verdict edge by edge: (e, rule) of the first faulty edge."""
    seen = set()
    for e, (a, b, w) in enumerate(zip(g.edge_i.tolist(), g.edge_j.tolist(), g.edge_w)):
        if not (0 <= a < g.n and 0 <= b < g.n):
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
    """Ascending or not, check() names the first edge that breaks a rule."""
    n, edges, ascending = case
    if ascending:
        edges.sort()
    g = RelationGraph(
        [f"v{v}" for v in range(n)],
        np.array([e[0] for e in edges], dtype=np.int32),
        np.array([e[1] for e in edges], dtype=np.int32),
        np.array([e[2] for e in edges], dtype=np.float64),
    )
    want = first_fault(g)
    if want is None:
        g.check()
        return
    e, rule = want
    with pytest.raises(GraphError, match=f"^edge {e}: .*{rule}"):
        g.check()


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
    labels = draw(st.permutations(range(n)))  # id order unlike index order
    samples = [
        Sample(
            f"s{labels[v]:02d}",
            None,
            {f"own/{v}": 1.0} if v in lonely else {**picks[v], **extras[v]},
        )
        for v in range(n)
    ]
    return compute_tfidf(Dataset(samples=samples))


tiny_50_100 = st.one_of(st.floats(0.01, 5.0), st.just(50.0), st.just(100.0))
block_cells = st.sampled_from([lambda n: 1, lambda n: 3 * n + 1])  # 1 or 3 rows


def assert_same_graph(a, b):
    assert a.edge_i.tolist() == b.edge_i.tolist()
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
    assert top.i.tolist() == full.i[held].tolist()
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
    for a, b, w in zip(ws.i.tolist(), ws.j.tolist(), ws.w.tolist()):
        near[a].append((b, w))
        near[b].append((a, w))
    floor = graph.DEFAULT_FLOOR if ws.min_w is None else ws.min_w * graph.FLOOR_FACTOR
    edges = dict(zip(zip(base.edge_i.tolist(), base.edge_j.tolist()),
                     base.edge_w.tolist()))
    for v in np.flatnonzero(mask).tolist():
        chosen = sorted(near[v], key=lambda t: (-t[1], ids[t[0]]))[:k]
        have = {u for u, _ in chosen} | {v}
        fill = sorted((u for u in range(ws.n) if u not in have), key=ids.__getitem__)
        chosen += [(u, floor) for u in fill[: k - len(chosen)]]
        for u, w in chosen:
            edges.setdefault((min(u, v), max(u, v)), w)
    return sorted((i, j, w) for (i, j), w in edges.items())


def edge_triples(g):
    return list(zip(g.edge_i.tolist(), g.edge_j.tolist(), g.edge_w.tolist()))


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
            full.ids, full.i[:0], full.j[:0], full.w[:0],
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
    ws = weighting.WeightSet(ids, i[keep], j[keep], rng.uniform(1, 2, held), [], len(i))
    del i, j, keep
    tracemalloc.start()
    try:
        g = build_en(ws, 60, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.meta["isolated_before_fallback"] == 0
    assert g.num_edges >= 299_700  # the top 60% of 499,500 pairs
    assert peak <= 2 * (g.edge_i.nbytes + g.edge_j.nbytes + g.edge_w.nbytes)


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
        for a, b in ((g.edge_i, ws.i), (g.edge_j, ws.j), (g.edge_w, ws.w)):
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
    model = compute_tfidf(Dataset(samples=samples))
    full, top = pairwise_weights(model), pairwise_weights(model, top_p=1)
    assert len(top) < top.total  # pruned: the E-N fallback recomputes rows
    arrays = [full.i, full.j, top.i, top.j]
    graphs = [build_epsilon(full, 0.5), build_knn(full, 2), build_en(top, 1, 1)]
    write_edges(graphs[-1], tmp_path / "edges.tsv")
    graphs.append(read_edges(tmp_path / "edges.tsv"))
    for g in graphs:
        arrays += [g.edge_i, g.edge_j, infomap._net_from_graph(g).indices]
    # an edge list given as int64 still yields int32 CSR indices
    arrays.append(csr(3, np.array([0, 1]), np.array([1, 2]))[1])
    assert [a.dtype for a in arrays] == [np.dtype(np.int32)] * len(arrays)
