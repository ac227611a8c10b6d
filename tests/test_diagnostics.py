"""Tests for density estimates, rank statistics, memorization, and exact W2."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinflow import diagnostics
from kinflow.datasets import generate
from kinflow.diagnostics import (UndefinedStatistic, _midranks, cliffs_delta,
                                 cohens_d, exact_w2, f_mem, knn_density,
                                 kpe_density_report, mann_whitney_u, spearman)


def peak_bytes(fn) -> int:
    """Peak traced allocation while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def no_broadcast_bound(m: int, n: int, d: int) -> float:
    """Bytes below which an (m, n) comparison cannot have held a broadcast
    block: that holds its (m, n, d) difference next to the (m, n) result,
    d + 1 (m, n) float64 arrays.  The kernel holds its result and one work
    array, 2 of them."""
    return (d + 0.5) * m * n * 8


class TestKnnDensity:
    def test_direct_formula(self):
        train = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        val = knn_density(train, np.array([0.1, 0.0]), k=1)
        assert val == pytest.approx(1.0 / (3 * np.pi * 0.01), rel=1e-12)

    def test_coincident_point_infinite(self):
        train = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert knn_density(train, np.array([0.0, 0.0]), k=1) == math.inf

    def test_scaling_dimension(self):
        # doubling all coordinates in 2D divides the density by 4
        rng = np.random.default_rng(0)
        train = rng.standard_normal((40, 2))
        q = rng.standard_normal(2)
        a = knn_density(train, q, k=5)
        b = knn_density(2 * train, 2 * q, k=5)
        assert b == pytest.approx(a / 4.0, rel=1e-12)

    def test_k_validation(self):
        train = np.zeros((3, 2))
        with pytest.raises(ValueError):
            knn_density(train, np.zeros(2), k=4)
        with pytest.raises(ValueError, match="dimension"):
            knn_density(train, np.zeros(4), k=1)
        with pytest.raises(ValueError):
            knn_density(train, np.zeros(2), k=0)

    def test_antitone_in_radius(self):
        train = np.array([[0.0, 0.0]])
        near = knn_density(train, np.array([0.1, 0.0]), k=1)
        far = knn_density(train, np.array([0.2, 0.0]), k=1)
        assert near > far

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_batch_rows_equal_single_calls_bitwise(self, d):
        rng = np.random.default_rng(70 + d)
        train = rng.standard_normal((500, d))
        qs = np.vstack([train[:1], 2.0 * rng.standard_normal((199, d))])
        batch = knn_density(train, qs, k=1)
        singles = [knn_density(train, q, k=1) for q in qs]
        assert batch.shape == (200,) and all(type(v) is float for v in singles)
        assert np.array_equal(batch, singles)
        assert batch[0] == math.inf and np.isfinite(batch[1:]).all()

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_batch_within_ulps_of_the_scalar_formula(self, d):
        # the per-point formula with Python's pow for r_k^d.  Over 6000
        # random queries per d, numpy's array power differed from it by at
        # most 1 ulp; the product and quotient took that to at most 2 ulp in
        # the density at d = 2 (7 values) and 3 ulp at d = 5 (243 values)
        rng = np.random.default_rng(80 + d)
        train = rng.standard_normal((500, d))
        qs = 2.0 * rng.standard_normal((200, d))
        volume = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
        want = []
        for q in qs:
            d2 = ((train - q[None, :]) ** 2).sum(axis=1)
            r_k = float(np.sqrt(np.partition(d2, 4)[4]))
            want.append(5 / (len(train) * volume * r_k ** d))
        np.testing.assert_array_max_ulp(knn_density(train, qs, k=5), np.array(want), maxulp=3)


def midranks_loop(values: np.ndarray) -> np.ndarray:
    """Reference average ranks (1-based): each run of ties shares its mid-rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestSpearman:
    @pytest.mark.parametrize("n", [3, 21, 200])
    def test_bitwise_equals_tie_loop_ranks(self, n):
        rng = np.random.default_rng(n)
        # few distinct values, so most entries are tied
        xs = rng.integers(0, max(2, n // 5), n).astype(float)
        ys = np.round(rng.standard_normal(n), 1)
        for v in (xs, ys):
            assert np.array_equal(_midranks(v), midranks_loop(v))
        rx = midranks_loop(xs) - midranks_loop(xs).mean()
        ry = midranks_loop(ys) - midranks_loop(ys).mean()
        assert spearman(xs, ys) == float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))

    @pytest.mark.parametrize("n", [3, 21, 200])
    def test_midranks_bitwise_equal_scipy_average_ranks(self, n):
        from scipy.stats import rankdata
        rng = np.random.default_rng(100 + n)
        tied = rng.integers(0, max(2, n // 5), n).astype(float)
        tied[:2] = np.inf           # a tied run of +inf
        tied[-1] = -np.inf
        untied = rng.standard_normal(n)
        untied[0], untied[-1] = np.inf, -np.inf
        for v in (tied, untied):
            got = _midranks(v)
            assert got.dtype == np.float64
            assert np.array_equal(got, rankdata(v, method="average"))
            assert np.array_equal(got, midranks_loop(v))

    def test_nan_rejected(self):
        # np.unique would rank NaN last; a NaN input gets no finite rho
        for xs, ys in (([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]),
                       ([1.0, 2.0, 3.0], [np.nan, np.nan, np.nan])):
            with pytest.raises(ValueError, match="NaN"):
                spearman(xs, ys)

    def test_monotone(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_antitone(self):
        assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_partial(self):
        # rank displacement vector (1, -1, 0): 1 - 6*2/(3*8) = 0.5
        assert spearman([1, 2, 3], [2, 1, 3]) == pytest.approx(0.5)

    def test_tie_handling(self):
        rho = spearman([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        assert -1.0 <= rho <= 1.0

    def test_constant_input_rejected(self):
        with pytest.raises(UndefinedStatistic):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_validation(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [3, 4])


class TestCliffsDelta:
    def test_full_separation(self):
        assert cliffs_delta([1, 2], [3, 4]) == -1.0

    def test_identical_samples(self):
        assert cliffs_delta([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_enumerated_pairs(self):
        # pairs: (1 < 2) and (3 > 2) cancel
        assert cliffs_delta([1, 3], [2]) == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal(9), rng.standard_normal(7)
        assert cliffs_delta(a, b) == pytest.approx(-cliffs_delta(b, a))

    def test_bitwise_equals_pairwise_counts_on_tied_integers(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            a = rng.integers(0, 5, int(rng.integers(1, 60))).astype(float)
            b = rng.integers(0, 5, int(rng.integers(1, 60))).astype(float)
            diff = a[:, None] - b[None, :]
            counted = float(((diff > 0).sum() - (diff < 0).sum()) / (len(a) * len(b)))
            assert cliffs_delta(a, b).hex() == counted.hex()


class TestMannWhitney:
    def test_complete_dominance_u_zero(self):
        u, _ = mann_whitney_u([1, 2], [3, 4])
        assert u == 0.0

    def test_exact_two_sided_p(self):
        # six rank splits, one as extreme low -> p = 2/6
        _, p = mann_whitney_u([1, 2], [3, 4])
        assert p == pytest.approx(2.0 / 6.0)

    def test_identical_multisets_half_u(self):
        a = [1.0, 2.0, 3.0]
        u, p = mann_whitney_u(a, a)
        assert u == pytest.approx(len(a) ** 2 / 2.0)
        assert p == 1.0

    def test_u_complementarity(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(8), rng.standard_normal(5)
        u_a, _ = mann_whitney_u(a, b)
        u_b, _ = mann_whitney_u(b, a)
        assert u_a + u_b == pytest.approx(len(a) * len(b))

    def test_normal_approximation_branch(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(30)
        b = rng.standard_normal(25) + 2.0
        u, p = mann_whitney_u(a, b)
        assert p < 1e-6
        u2, p2 = mann_whitney_u(a, a + 0.0)
        assert p2 == pytest.approx(1.0, abs=0.05)

    def test_p_stays_positive_under_extreme_separation(self):
        a = list(range(200))
        b = [x + 1000.0 for x in a]
        _, p = mann_whitney_u(a, b)
        assert 0.0 < p <= 1.0

    def test_exact_vs_normal_consistency(self):
        # near the switch point the two methods should roughly agree
        rng = np.random.default_rng(4)
        a = list(rng.standard_normal(10))
        b = list(rng.standard_normal(10) + 1.0)
        _, p_exact = mann_whitney_u(a, b)
        _, p_norm = mann_whitney_u(a + [a[0]] * 1, b)  # 21 obs: normal branch
        assert p_exact == pytest.approx(p_norm, rel=0.5, abs=0.02)


class TestCohensD:
    def test_identical_groups(self):
        with pytest.raises(UndefinedStatistic):
            cohens_d([1.0, 1.0], [1.0, 1.0])
        assert cohens_d([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_shift_over_common_std(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(2000)
        b = a + 1.5
        d = cohens_d(a, b)
        assert d == pytest.approx(-1.5 / a.std(ddof=1), rel=1e-9)

    def test_frozen_small_sample(self):
        # means 1 and 2, per-group (n-1) variance 2, pooled std sqrt(2)
        assert cohens_d([0.0, 2.0], [1.0, 3.0]) == pytest.approx(-1.0 / math.sqrt(2.0))

    def test_size_validation(self):
        with pytest.raises(ValueError):
            cohens_d([1.0], [1.0, 2.0])


class TestRankInvariance:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(12)
        b = rng.standard_normal(9)

        def transform(x):
            return np.exp(0.5 * x) + 3.0  # strictly increasing

        assert cliffs_delta(a, b) == pytest.approx(
            cliffs_delta(transform(a), transform(b)))
        u1, p1 = mann_whitney_u(a, b)
        u2, p2 = mann_whitney_u(transform(a), transform(b))
        assert u1 == pytest.approx(u2)
        assert p1 == pytest.approx(p2)
        xs = rng.standard_normal(10)
        ys = rng.standard_normal(10)
        assert spearman(xs, ys) == pytest.approx(
            spearman(transform(xs), transform(ys)))


class TestFMem:
    def test_exact_copy_memorized(self):
        train = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        report = f_mem(np.array([[0.0, 0.0]]), train)
        assert report.f_mem == 1.0
        assert report.ratios[0] == 0.0

    def test_equidistant_not_memorized(self):
        train = np.array([[0.0, 0.0], [1.0, 0.0]])
        report = f_mem(np.array([[0.5, 0.0]]), train)
        assert report.ratios[0] == pytest.approx(1.0)
        assert report.f_mem == 0.0

    def test_threshold_arithmetic(self):
        # d1 = 0.1, d2 = 0.5 -> ratio 0.2 < 1/3
        train = np.array([[0.0, 0.0], [0.6, 0.0]])
        report = f_mem(np.array([[0.1, 0.0]]), train)
        assert report.ratios[0] == pytest.approx(0.2)
        assert report.f_mem == 1.0

    def test_strict_threshold(self):
        # ratio exactly tau_gap is not memorized
        train = np.array([[0.0, 0.0], [3.0, 0.0]])
        gen = np.array([[1.0, 0.0]])  # d1 = 1, d2 = 2, ratio 0.5
        report = f_mem(gen, train, tau_gap=0.5)
        assert report.f_mem == 0.0

    def test_degenerate_kth_distance(self):
        train = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0]])
        report = f_mem(np.array([[0.0, 0.0]]), train, k_mem=2)
        assert report.f_mem == 1.0

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(6)
        train = rng.standard_normal((20, 2))
        gen = rng.standard_normal((10, 2))
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        shift = np.array([3.0, -1.0])
        a = f_mem(gen, train)
        b = f_mem(gen @ rot.T + shift, train @ rot.T + shift)
        assert a.f_mem == b.f_mem
        assert np.allclose(a.ratios, b.ratios, rtol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            f_mem(np.zeros((1, 2)), np.zeros((1, 2)), k_mem=2)


class TestExactW2:
    def test_identical_sets(self):
        pts = np.random.default_rng(7).standard_normal((8, 2))
        assert exact_w2(pts, pts) == 0.0

    def test_translation(self):
        pts = np.random.default_rng(8).standard_normal((6, 2))
        assert exact_w2(pts, pts + np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_two_point_assignment(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 1.0]])
        # vertical matching costs 1 per point; the crossed matching costs more
        assert exact_w2(a, b) == pytest.approx(1.0)

    def test_beats_greedy_matching(self):
        a = np.array([[0.0, 0.0], [10.0, 0.0]])
        b = np.array([[9.0, 0.0], [-1.0, 0.0]])
        # optimal pairs 0<->-1 and 10<->9 at cost 1 each
        assert exact_w2(a, b) == pytest.approx(1.0)

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            a, b, c = (rng.standard_normal((n, 2)) for _ in range(3))
            dab = exact_w2(a, b)
            dba = exact_w2(b, a)
            dac = exact_w2(a, c)
            dcb = exact_w2(c, b)
            assert dab == pytest.approx(dba, abs=1e-9)
            assert dab <= dac + dcb + 1e-9

    def test_size_validation(self):
        with pytest.raises(ValueError):
            exact_w2(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            exact_w2(np.zeros((1025, 2)), np.zeros((1025, 2)))


class TestKpeDensityReport:
    def test_monotone_construction_gives_perfect_inverse(self):
        # endpoints exactly on training points whose density orders them, and
        # energies built as a decreasing function of that density
        data = generate("dense_sparse", 200, 3)
        endpoints = data.points[90:150]  # spans the core/ring boundary
        from kinflow.datasets import KdeEstimator
        dens = KdeEstimator(data.points, 0.1).density(endpoints)
        kpes = 1.0 / (dens + 1e-9)
        report = kpe_density_report(kpes, endpoints, data)
        assert report.rho_kde == pytest.approx(-1.0)
        assert report.mwu_p < 1e-6
        assert report.mean_kpe_sparse > report.mean_kpe_dense
        assert report.cliffs_delta < 0  # dense energies sit below sparse ones

    def test_degenerate_kpes_rejected(self):
        data = generate("dense_sparse", 100, 4)
        endpoints = data.points[:40]
        with pytest.raises(UndefinedStatistic):
            kpe_density_report(np.ones(40), endpoints, data)

    def test_minimum_size(self):
        data = generate("dense_sparse", 100, 4)
        with pytest.raises(ValueError):
            kpe_density_report(np.ones(10), data.points[:10], data)

    def test_one_knn_call_per_report(self, monkeypatch):
        data = generate("dense_sparse", 200, 3)
        calls = []
        knn = diagnostics.knn_density
        monkeypatch.setattr(diagnostics, "knn_density",
                            lambda *a, **kw: calls.append(a) or knn(*a, **kw))
        kpe_density_report(np.arange(60.0), data.points[90:150], data)
        assert len(calls) == 1 and np.shape(calls[0][1]) == (60, 2)

    def test_no_broadcast_temporary(self):
        data = generate("dense_sparse", 4000, 3)
        rng = np.random.default_rng(6)
        endpoints = data.points[rng.choice(4000, 100, replace=False)] \
            + 0.05 * rng.standard_normal((100, 2))
        kpes = rng.gamma(2.0, size=100)
        peak = peak_bytes(lambda: kpe_density_report(kpes, endpoints, data))
        assert peak < no_broadcast_bound(100, 4000, 2)


class TestComparisonMemory:
    @pytest.mark.parametrize("d", [2, 5])
    def test_f_mem_holds_no_broadcast_temporary(self, d):
        rng = np.random.default_rng(7)
        train = rng.standard_normal((4000, d))
        generated = rng.standard_normal((100, d))
        peak = peak_bytes(lambda: f_mem(generated, train))
        assert peak < no_broadcast_bound(100, 4000, d)
