from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import weight_set
from malcom import graph, infomap, weighting
from malcom.dataset import Dataset, Sample
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
    indptr, indices, weights = csr(n, i, j, w)
    for v, expect in enumerate(appended_rows(n, edges)):
        s, e = indptr[v], indptr[v + 1]
        assert list(zip(indices[s:e].tolist(), weights[s:e].tolist())) == expect
    g = RelationGraph([str(v) for v in range(n)], i, j, w)
    assert np.diff(indptr).tolist() == g.degrees().tolist()


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
        with pytest.raises(GraphError):
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


def test_epsilon_file_lists_isolated_placeholders(tmp_path, six_weight_set):
    g = build_epsilon(six_weight_set, 1.0)
    path = tmp_path / "edges.tsv"
    write_edges(g, path)
    assert "4\t\t0" in path.read_text()
    loaded = read_edges(path)
    assert loaded.n == 4


def sorted_edge_lines(g):
    """Reference edge lines: one (src, dst, weight) tuple per edge, sorted."""
    lines = []
    for i, j, w in zip(g.edge_i.tolist(), g.edge_j.tolist(), g.edge_w.tolist()):
        a, b = g.vertices[i], g.vertices[j]
        if b < a:
            a, b = b, a
        lines.append((a, b, f"{w:.10g}"))
    return [f"{a}\t{b}\t{w}\n" for a, b, w in sorted(lines)]


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


@given(distinct_pair_graphs(), st.integers(1, 4))
def test_edge_file_matches_sorted_lines(tmp_path_factory, g, chunk):
    path = tmp_path_factory.mktemp("edges") / "edges.tsv"
    with mock.patch.object(graph, "_WRITE_CHUNK", chunk):
        write_edges(g, path)
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    assert text == f"# vertices: {g.n}\n" + "".join(sorted_edge_lines(g))


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
    assert top.top_p in (None, p) and (top.top_p or len(top) == full.total)
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


@given(tied_models(), st.data(), block_cells)
def test_recomputed_rows_match_complete_set(model, data, cells):
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=model.n,
                                       max_size=model.n)))
    with mock.patch.object(weighting, "_BLOCK_CELLS", cells(model.n)):
        full = pairwise_weights(model)
        got = weighting._rows_of(weighting._feature_lists(model), model.n, mask)
    for a, b, dtype in zip(got, full.pairs_of(mask), (np.int32, np.int32, np.float64)):
        assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes()


def pruned_example():
    """16 samples in two groups: at p=1 the threshold rises while weighing."""
    samples = [
        Sample(f"s{v}", None, {f"perm/g{v % 2}": 1.0, f"perm/x{v % 5}": 1.0 + v % 3})
        for v in range(16)
    ]
    return compute_tfidf(Dataset(samples=samples))


def test_pruned_set_rejects_larger_p():
    top = pairwise_weights(pruned_example(), top_p=1)
    assert top.top_p == 1 and len(top) < top.total
    percentile_cutoff(top, 1)
    with pytest.raises(GraphError, match="only the top 1% of pair weights"):
        percentile_cutoff(top, 1.5)
    with pytest.raises(GraphError, match="needs the complete weight set"):
        build_graph(top, GraphBuildParams(method="knn", k=1))
    with pytest.raises(GraphError, match="needs the complete weight set"):
        build_graph(top, GraphBuildParams(method="epsilon", epsilon=0.1))


def test_pruned_set_recomputes_isolated_rows():
    model = pruned_example()
    full, top = pairwise_weights(model), pairwise_weights(model, top_p=1)
    assert top.top_p == 1
    g = build_en(top, 1, 2)
    assert g.meta["isolated_before_fallback"] > 0
    assert_same_graph(g, build_en(full, 1, 2))


def test_vertex_ids_are_int32(tmp_path):
    samples = [
        Sample(f"s{v}", None, {f"perm/g{v % 2}": 1.0, f"perm/x{v % 5}": 1.0 + v % 3})
        for v in range(16)
    ]
    model = compute_tfidf(Dataset(samples=samples))
    full, top = pairwise_weights(model), pairwise_weights(model, top_p=1)
    assert top.top_p == 1  # pruned: pairs_of recomputes rows
    mask = np.arange(16) % 3 == 0
    arrays = [full.i, full.j, top.i, top.j]
    arrays += [*full.pairs_of(mask)[:2], *top.pairs_of(mask)[:2]]
    graphs = [build_epsilon(full, 0.5), build_knn(full, 2), build_en(top, 1, 1)]
    write_edges(graphs[-1], tmp_path / "edges.tsv")
    graphs.append(read_edges(tmp_path / "edges.tsv"))
    for g in graphs:
        arrays += [g.edge_i, g.edge_j, infomap._net_from_graph(g).indices]
    # an edge list given as int64 still yields int32 CSR indices
    arrays.append(csr(3, np.array([0, 1]), np.array([1, 2]), np.ones(2))[1])
    assert [a.dtype for a in arrays] == [np.dtype(np.int32)] * len(arrays)
