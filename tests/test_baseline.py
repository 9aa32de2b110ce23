import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from conftest import tfidf_model
from test_weighting import tfidf_corpora

from malcom import baseline
from malcom.baseline import KMeansConfig, KMeansError, kmeans, tfidf_matrix
from malcom.dataset import Dataset, DatasetError, Sample
from malcom.errors import ParameterError
from malcom.weighting import compute_tfidf
from malcom.synth import SynthConfig, generate


def model_1d(values):
    return tfidf_model([{"perm/x": v} for v in values])


class TestKMeans:
    def test_two_well_separated_groups(self):
        m = model_1d([0.0, 0.1, 10.0, 10.1])
        res = kmeans(m, KMeansConfig(c=2, rng_seed=0))
        assert res.assignment[0] == res.assignment[1]
        assert res.assignment[2] == res.assignment[3]
        assert res.assignment[0] != res.assignment[2]
        centers = sorted(res.centers.ravel())
        assert centers == pytest.approx([0.05, 10.05])

    def test_c_1_center_is_mean(self):
        m = model_1d([1.0, 2.0, 6.0])
        res = kmeans(m, KMeansConfig(c=1, rng_seed=0))
        assert res.centers.ravel()[0] == pytest.approx(3.0)
        assert res.assignment == [0, 0, 0]

    def test_c_equals_n(self):
        m = model_1d([1.0, 2.0, 3.0, 4.0])
        res = kmeans(m, KMeansConfig(c=4, rng_seed=1))
        assert sorted(res.assignment) == [0, 1, 2, 3]
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_c_out_of_range(self):
        m = model_1d([1.0, 2.0])
        with pytest.raises(ParameterError):
            kmeans(m, KMeansConfig(c=3))

    def test_deterministic_for_fixed_seed(self):
        d = generate(SynthConfig(num_families=4, samples_per_family=10, rng_seed=3))
        m = compute_tfidf(d)
        r1 = kmeans(m, KMeansConfig(c=4, rng_seed=7))
        r2 = kmeans(m, KMeansConfig(c=4, rng_seed=7))
        assert r1.assignment == r2.assignment
        assert np.array_equal(r1.centers, r2.centers)

    def test_assignment_is_nearest_center(self):
        d = generate(SynthConfig(num_families=3, samples_per_family=8, rng_seed=5))
        m = compute_tfidf(d)
        res = kmeans(m, KMeansConfig(c=3, rng_seed=2))
        indptr, indices, data = tfidf_matrix(m)
        dense = np.zeros((m.n, indices.max() + 1))
        dense[np.repeat(np.arange(m.n), np.diff(indptr)), indices] = data
        dists = ((dense[:, None, :] - res.centers[None, :, :]) ** 2).sum(axis=2)
        nearest = dists.min(axis=1)
        chosen = dists[np.arange(len(dense)), res.assignment]
        assert np.allclose(chosen, nearest)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_samples_fill_every_cluster(self, seed):
        # every cost is 0 once three identical points share a centre, so an
        # empty cluster must not take a point that another one just took
        m = tfidf_model([{"perm/x": 1.0}] * 3 + [{"perm/y": 2.0}])
        res = kmeans(m, KMeansConfig(c=4, rng_seed=seed))
        assert sorted(res.assignment) == [0, 1, 2, 3]
        assert np.isfinite(res.centers).all() and res.objective == 0.0

    def test_clusters_non_empty(self):
        d = generate(SynthConfig(num_families=2, samples_per_family=6, rng_seed=9))
        m = compute_tfidf(d)
        res = kmeans(m, KMeansConfig(c=5, rng_seed=0))
        assert set(res.assignment) == set(range(5))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed,c", [(7, 13), (3, 5)])
def test_values_near_the_float64_limit_keep_the_partition(seed, c):
    """Every value times 2**996: squared tf-idf distances would overflow,
    and the rescaled values give the partition of the unscaled corpus."""
    d = generate(SynthConfig(samples_per_family=12, rng_seed=seed))
    big = Dataset([
        Sample(s.id, s.family, {k: math.ldexp(v, 996) for k, v in s.features.items()})
        for s in d.samples
    ])
    big_model = compute_tfidf(big)
    assert big_model.data.max() > 2.0**512  # its square overflows
    cfg = KMeansConfig(c=c, rng_seed=seed)
    want = kmeans(compute_tfidf(d), cfg).assignment
    assert kmeans(big_model, cfg).assignment == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_wide_row_scales_on_the_k_means_bound():
    """One of 24 samples holds 400,000 features at tf-idf 2**499.9, below
    2**500, yet 4 n max ||x||^2 (about 2**1025) passes the float64 range.
    The values are scaled on that bound, and the partition is that of the
    same corpus with every value times 2**-400, which needs no scaling."""
    top = 2.0**499.9
    rows = [{f"wide/{k:06d}": top for k in range(400_000)}] + [
        {f"fam{v % 3}/a": top * (1 - v / 32), f"fam{v % 3}/b": top / 3,
         f"noise/{v % 5}": top / (1 + v % 4)}
        for v in range(1, 24)
    ]
    assert max(max(row.values()) for row in rows) < 2.0**500
    assert math.log2(4 * 24 * 400_000) + 2 * math.log2(top) > 1024
    cfg = KMeansConfig(c=4, rng_seed=7)
    got = kmeans(tfidf_model(rows), cfg).assignment
    small = [{k: math.ldexp(v, -400) for k, v in row.items()} for row in rows]
    assert got == kmeans(tfidf_model(small), cfg).assignment
    assert len(set(got[1:])) > 1


def test_values_spanning_the_float64_range_end_in_error():
    m = tfidf_model([{"perm/x": 1e308}, {"perm/y": 5e-324}, {"perm/x": 1.0}])
    with pytest.raises(KMeansError, match="tf-idf values span"):
        kmeans(m, KMeansConfig(c=2))


def test_tfidf_matrix_columns_sorted():
    d = Dataset(
        samples=[
            Sample("s1", None, {"perm/b": 1.0, "perm/a": 2.0}),
            Sample("s2", None, {"perm/c": 1.0}),
        ]
    )
    indptr, indices, data = tfidf_matrix(compute_tfidf(d))
    idf = np.log(2.0)
    # columns perm/a, perm/b, perm/c; s1 lists a before b
    assert indptr.tolist() == [0, 2, 3]
    assert indices.tolist() == [0, 1, 2]
    assert data.tolist() == [2.0 * idf, idf, idf]


def dict_tfidf_matrix(values):
    """tfidf_matrix by the per-sample dict pass that the array version
    replaced, the reference it must match."""
    names = sorted({name for row in values for name in row})
    col = {name: k for k, name in enumerate(names)}
    indptr, indices, data = [0], [], []
    for row in values:
        for name in sorted(row):
            indices.append(col[name])
            data.append(row[name])
        indptr.append(len(indices))
    return np.array(indptr), np.array(indices, dtype=np.int64), np.array(data)


@settings(max_examples=100, deadline=None)
@given(tfidf_corpora())
def test_tfidf_matrix_equals_dict_pass(d):
    try:
        m = compute_tfidf(d)
    except DatasetError:  # an overflowing tf-idf value
        return
    for got, expect in zip(tfidf_matrix(m), dict_tfidf_matrix(m.values)):
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()


def scipy_kmeans(model, cfg):
    """The scipy.sparse k-means that the package's numpy sums must match
    bit for bit: (assignment, centers, objective).  When the bound
    4 n max ||x||^2 on the objective, summed here exactly, lies outside
    [2**-500, 2**500), the values are first scaled, as the package scales
    them, by the power of two whose square brings that bound to [1, 4)."""
    indptr, indices, data = tfidf_matrix(model)
    norms = [
        sum(Fraction(v) ** 2 for v in data[a:b].tolist())
        for a, b in zip(indptr.tolist(), indptr[1:].tolist())
    ]
    bound = 4 * model.n * max(norms, default=Fraction(0))
    if bound > 0:
        log2 = bound.numerator.bit_length() - bound.denominator.bit_length()
        log2 -= bound < Fraction(2) ** log2  # now floor(log2(bound))
        if not -500 <= log2 < 500:
            data = np.ldexp(data, -(log2 // 2))
    X = sparse.csr_matrix(
        (data, indices, indptr), shape=(model.n, int(indices.max(initial=-1)) + 1)
    )
    n = model.n

    def sq_dists(centers):
        c_sq = (centers * centers).sum(axis=1)
        d = x_sq[:, None] - 2.0 * np.asarray(X @ centers.T) + c_sq[None, :]
        np.maximum(d, 0.0, out=d)
        return d

    def assign(centers):
        d = sq_dists(centers)
        assignment = d.argmin(axis=1)
        cost = d[np.arange(n), assignment].copy()
        counts = np.bincount(assignment, minlength=cfg.c)
        for k in np.flatnonzero(counts == 0):
            # the farthest point whose cluster keeps another member
            far = max(
                (v for v in range(n) if counts[assignment[v]] > 1),
                key=lambda v: (cost[v], -v),
            )
            counts[assignment[far]] -= 1
            counts[k] = 1
            assignment[far] = k
            centers[k] = X[far].toarray().ravel()
            cost[far] = 0.0
        return assignment, cost

    x_sq = np.asarray(X.multiply(X).sum(axis=1)).ravel()
    rng = np.random.default_rng(cfg.rng_seed)
    centers = np.zeros((cfg.c, X.shape[1]))
    centers[0] = X[int(rng.integers(n))].toarray().ravel()
    d2 = sq_dists(centers[:1]).ravel()
    for k in range(1, cfg.c):
        total = d2.sum()
        idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total))
        centers[k] = X[idx].toarray().ravel()
        d2 = np.minimum(d2, sq_dists(centers[k : k + 1]).ravel())
    prev_obj = np.inf
    for _ in range(baseline.MAX_ITERATIONS):
        assignment, cost = assign(centers)
        obj = float(cost.sum())
        indicator = sparse.csr_matrix(
            (np.ones(n), (assignment, np.arange(n))), shape=(cfg.c, n)
        )
        sums = np.asarray((indicator @ X).todense())
        centers = sums / np.bincount(assignment, minlength=cfg.c)[:, None]
        if np.isfinite(prev_obj) and prev_obj - obj <= baseline.TOLERANCE * max(
            prev_obj, 1e-300
        ):
            break
        prev_obj = obj
    assignment, cost = assign(centers)
    return assignment.tolist(), centers, float(cost.sum())


def assert_matches_scipy(model, cfg):
    res = kmeans(model, cfg)
    assignment, centers, objective = scipy_kmeans(model, cfg)
    assert res.assignment == assignment
    assert res.centers.tobytes() == centers.tobytes()
    assert np.float64(res.objective).tobytes() == np.float64(objective).tobytes()


NAMES = [f"perm/f{k:02d}" for k in range(24)]


@st.composite
def kmeans_cases(draw):
    """Rows of 0 to 24 entries, optionally one feature in every sample.
    Values span six decades, so every order of addition shows in the last
    bits; some are 1e-170, whose square is 0.0, which scipy's elementwise
    product does not store."""
    n = draw(st.integers(1, 16))
    every = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(n):
        width = draw(st.sampled_from([0, 1, 3, 9, 12, 17, 24]))
        names = list(rng.permutation(NAMES)[:width]) + ["perm/all"] * every
        values = 10.0 ** rng.uniform(-3.0, 3.0, len(names))
        values[rng.random(len(names)) < 0.1] = 1e-170
        rows.append(dict(zip(names, values.tolist())))
    cfg = KMeansConfig(c=draw(st.integers(1, n)), rng_seed=draw(st.integers(0, 99)))
    return tfidf_model(rows), cfg


@settings(max_examples=200, deadline=None)
@given(kmeans_cases())
# values of 1e-170: the bound 4 n max ||x||^2 sets the scale, not the
# largest value, which would leave centers twice as large
@example((tfidf_model([{"perm/f00": 1e-170}]), KMeansConfig(c=1, rng_seed=0)))
@example((tfidf_model([{"perm/f00": 1e-170}, {"perm/f01": 1e-170}]), KMeansConfig(c=1)))
@example((tfidf_model([{"perm/f00": 1e-170}, {"perm/f01": 1e-170}]), KMeansConfig(c=2)))
def test_kmeans_equals_scipy(case):
    assert_matches_scipy(*case)


@pytest.mark.parametrize("seed,presence,c", [(7, 0.6, 13), (3, 0.9, 13), (5, 0.6, 40)])
def test_kmeans_equals_scipy_on_synth(seed, presence, c):
    d = generate(
        SynthConfig(samples_per_family=12, signature_presence_prob=presence, rng_seed=seed)
    )
    assert_matches_scipy(compute_tfidf(d), KMeansConfig(c=c, rng_seed=seed))
