"""Tests for the mixture, its score, and the closed-form velocity field."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinflow import efm
from kinflow.efm import (EfmField, MixtureModel, dominance, general_velocity,
                         mixture_log_density, mixture_score, posterior_weights)


def mix(atoms):
    return MixtureModel(np.asarray(atoms, dtype=float))


class TestTimeTerms:
    def test_per_row_times_equal_one_time_calls(self):
        # one array expression over the clamped times, with the bits of a
        # one-time call at each row, clamped ends included
        rng = np.random.default_rng(16)
        ts = np.concatenate([rng.random(5000), 1.0 - np.geomspace(1e-12, 1.0, 3000),
                             [0.0, 1e-12, 1.0]])
        g, sigma2 = efm._time_terms(ts)
        assert g.shape == sigma2.shape == (len(ts), 1)
        one = np.array([efm._time_terms(float(t)) for t in ts])
        assert np.array_equal(g[:, 0], one[:, 0]) and np.array_equal(sigma2[:, 0], one[:, 1])
        assert np.array_equal(g[:, 0], np.clip(ts, efm.T_CLAMP, 1.0 - efm.T_CLAMP))
        assert efm._time_terms(0.37) == (0.37, (1.0 - 0.37) ** 2)


class TestPosteriorWeights:
    def test_single_atom(self):
        lam = posterior_weights(mix([[0.0, 0.0]]), np.zeros(2), 0.3)
        assert np.array_equal(lam, [1.0])

    def test_symmetric_pair(self):
        lam = posterior_weights(mix([[-1.0, 0.0], [1.0, 0.0]]), np.zeros(2), 0.5)
        assert lam == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_far_pair_concentrates(self):
        lam = posterior_weights(mix([[0.0, 0.0], [10.0, 0.0]]), np.zeros(2), 0.5)
        # exponent gap is 50, so the far weight is 1/(1 + e^50)
        assert lam[0] == pytest.approx(1.0 / (1.0 + np.exp(-50.0)), rel=1e-12)
        assert lam[1] == pytest.approx(np.exp(-50.0), rel=1e-9)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = mix(rng.standard_normal((rng.integers(1, 30), 3)))
            lam = posterior_weights(m, rng.standard_normal(3), rng.uniform(0.01, 0.99))
            assert abs(lam.sum() - 1.0) <= 1e-15
            assert np.all((lam >= 0) & (lam <= 1))

    def test_domain(self):
        m = mix([[0.0, 0.0]])
        for bad in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(ValueError):
                posterior_weights(m, np.zeros(2), bad)


class TestEfmVelocity:
    def test_single_atom_closed_form(self):
        f = EfmField(np.array([[1.0, 0.0]]))
        assert np.allclose(f(np.zeros(2), 0.5), [2.0, 0.0], atol=0)

    def test_point_on_dominant_atom_is_still(self):
        f = EfmField(np.array([[0.0, 0.0], [50.0, 50.0]]))
        v = f(np.zeros(2) + 0.9 * np.zeros(2), 0.9)
        assert np.linalg.norm(v) < 1e-12

    def test_truncation_noop_when_k_equals_n(self):
        atoms = np.random.default_rng(1).standard_normal((12, 2))
        full = EfmField(atoms)
        trunc = EfmField(atoms, neighbors=12)
        x = np.array([0.2, -0.4])
        assert np.allclose(full(x, 0.7), trunc(x, 0.7), atol=1e-15)

    def test_truncation_keeps_nearest(self):
        atoms = np.array([[0.0, 0.0], [0.1, 0.0], [100.0, 0.0]])
        k2 = EfmField(atoms, neighbors=2)
        near_only = EfmField(atoms[:2])
        x = np.array([0.05, 0.0])
        assert np.allclose(k2(x, 0.5), near_only(x, 0.5), rtol=1e-12)

    def test_atom_permutation_invariant(self):
        rng = np.random.default_rng(2)
        atoms = rng.standard_normal((9, 2))
        perm = rng.permutation(9)
        x = rng.standard_normal(2)
        assert np.allclose(EfmField(atoms)(x, 0.4), EfmField(atoms[perm])(x, 0.4),
                           rtol=1e-12)

    def test_atom_duplication_invariant(self):
        atoms = np.random.default_rng(3).standard_normal((6, 2))
        doubled = np.concatenate([atoms, atoms])
        x = np.array([0.1, 0.9])
        assert np.allclose(EfmField(atoms)(x, 0.6), EfmField(doubled)(x, 0.6),
                           rtol=1e-12)

    def test_batched_matches_single(self):
        atoms = np.random.default_rng(4).standard_normal((7, 2))
        f = EfmField(atoms, neighbors=3)
        xs = np.random.default_rng(5).standard_normal((5, 2))
        batch = f(xs, 0.55)
        for i in range(5):
            assert np.allclose(batch[i], f(xs[i], 0.55), atol=0)

    def test_invalid_neighbors(self):
        with pytest.raises(ValueError):
            EfmField(np.zeros((3, 2)), neighbors=4)

    @pytest.mark.parametrize("t", [0.0, 0.5, 0.999])
    def test_vectorised_top_k_matches_row_loop(self, t):
        rng = np.random.default_rng(12)
        atoms = rng.standard_normal((1000, 2))
        xs = rng.standard_normal((40, 2))
        got = EfmField(atoms, neighbors=100)(xs, t)
        tc = min(max(t, 1e-9), 1.0 - 1e-9)
        for row, x in enumerate(xs):
            d2 = ((x - tc * atoms) ** 2).sum(axis=1)
            idx = np.argsort(d2, kind="stable")[:100]
            logw = -d2[idx] / (2.0 * (1.0 - tc) ** 2)
            w = np.exp(logw - logw.max())
            want = (w / w.sum() @ atoms[idx] - x) / (1.0 - t)
            np.testing.assert_allclose(got[row], want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("neighbors", [None, 20])
    def test_time_sweep_matches_fixed_time_calls(self, neighbors):
        # the blow-up probe's fixed-x sweep runs on the same kernel
        atoms = np.random.default_rng(13).standard_normal((1000, 2))
        f = EfmField(atoms, neighbors=neighbors)
        x = np.array([0.4, -1.1])
        ts = 1.0 - np.geomspace(1e-6, 1.0, 300)
        want = [float(f(x, t) @ f(x, t)) for t in ts]
        got = (efm._efm_rows(f, np.broadcast_to(x, (len(ts), 2)), ts) ** 2).sum(axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("neighbors", [None, 5])
    def test_field_is_the_linear_schedule_mixture(self, neighbors):
        # neighbors truncates the velocity only: posteriors and densities are
        # those of the full linear-schedule mixture, bit for bit
        rng = np.random.default_rng(15)
        atoms = 2.0 * rng.standard_normal((40, 3))
        f, m = EfmField(atoms, neighbors=neighbors), mix(atoms)
        assert isinstance(f, MixtureModel)
        zs = rng.standard_normal((25, 3))
        ts = rng.uniform(0.05, 0.95, 25)
        for t in (0.2, 0.7, ts):
            assert np.array_equal(posterior_weights(f, zs, t), posterior_weights(m, zs, t))
            assert np.array_equal(mixture_log_density(f, zs, t),
                                  mixture_log_density(m, zs, t))
        assert np.array_equal(mixture_score(f, zs[0], 0.4), mixture_score(m, zs[0], 0.4))


def loop_sq_dists(atoms, x, tc):
    """Squared bridge distances of one row by direct differences, summed
    coordinate by coordinate."""
    return sum((x[k] - tc * atoms[:, k]) ** 2 for k in range(atoms.shape[1]))


#: the least gap, in ulps of the larger distance, between consecutive
#: direct-difference distances among a row's K + 1 nearest atoms that a
#: bitwise top-K comparison with ``loop_rows`` rests on.  A near-tie there
#: can rank differently by direct differences than by the kernel's key: at
#: the K-th place it changes the kept set, inside the kept set the order in
#: which the softmax sums.  At t = 0 in 1, 2 and 5 dimensions, over seeds
#: 1000-1399 of ``test_top_k_bitwise_equals_row_loop`` (865 200 rows), the
#: 22 rows where the comparison failed had gaps of at most 1 ulp; the
#: test's own seeds have gaps of at least 8.
NEAR_TIE_ULPS = 4


def assert_no_near_tie(atoms, xs, t, k):
    """The premise of a bitwise top-K comparison: no row of ``xs`` has two
    of its k + 1 nearest atoms within ``NEAR_TIE_ULPS`` of each other."""
    tc = min(max(t, efm.T_CLAMP), 1.0 - efm.T_CLAMP)
    for i, x in enumerate(xs):
        d2 = np.sort(loop_sq_dists(atoms, x, tc))[:k + 1]
        gap = (np.diff(d2) / np.spacing(d2[1:])).min()
        assert gap > NEAR_TIE_ULPS, f"row {i}: a near-tie {gap:g} ulps apart"


def loop_rows(atoms, xs, ts, neighbors):
    """Velocities one row at a time, by the unblocked kernel's formula: direct
    differences summed coordinate by coordinate, softmax over the K nearest
    (kept in ascending index order) or over all atoms."""
    out = []
    for x, t in zip(xs, np.broadcast_to(ts, len(xs))):
        tc = min(max(t, efm.T_CLAMP), 1.0 - efm.T_CLAMP)
        d2 = loop_sq_dists(atoms, x, tc)
        logw = -d2 / (2.0 * (1.0 - tc) ** 2)
        if neighbors is None:
            w = np.exp(logw - logw.max())
            target = w / w.sum() @ atoms
        else:
            kept = np.sort(np.argpartition(d2[None], neighbors - 1, axis=1)[:, :neighbors])
            lw = np.take_along_axis(logw[None], kept, axis=1)
            w = np.exp(lw - lw.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            target = np.einsum("bk,bkd->bd", w, atoms[kept])[0]
        out.append((target - x) / (1.0 - t))
    return np.array(out)


class TestBlockedKernel:
    # with N = 512 atoms, B = 127, 128 and 129 put B * N just below, at and
    # just above the block size
    N = 512
    ROWS = (1, 31, 40, 65, 200, 127, 128, 129)

    def test_block_size(self):
        assert efm.BLOCK_ELEMS == 128 * self.N

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("t", [0.0, 0.5, 0.999])
    def test_top_k_bitwise_equals_row_loop(self, t, d):
        rng = np.random.default_rng(20 + d)
        atoms = rng.standard_normal((self.N, d))
        for b in self.ROWS:
            xs = rng.standard_normal((b, d))
            assert_no_near_tie(atoms, xs, t, 50)
            got = EfmField(atoms, neighbors=50)(xs, t)
            assert np.array_equal(got, loop_rows(atoms, xs, t, 50)), b

    @staticmethod
    def assert_full_softmax_close(atoms, xs, ts, got):
        # a BLAS product sums in a row-count-dependent order, so rows may
        # differ in the last bits; the error is relative to the size of the
        # terms of (sum_i w_i x_i - x) / (1 - t), which cancel near an atom
        want = loop_rows(atoms, xs, ts, None)
        scale = (np.abs(xs).max(axis=1) + np.abs(atoms).max()) / (1.0 - ts)
        assert (np.abs(got - want).max(axis=1) / scale).max() <= 1e-13

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("t", [0.0, 0.5, 0.999])
    def test_full_softmax_matches_row_loop(self, t, d):
        rng = np.random.default_rng(30 + d)
        atoms = rng.standard_normal((self.N, d))
        for b in self.ROWS:
            xs = rng.standard_normal((b, d))
            self.assert_full_softmax_close(atoms, xs, np.full(b, t),
                                           EfmField(atoms)(xs, t))

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_full_softmax_per_row_times(self, d):
        # the blow-up probe's shape: T = 8000 rows, one time each, N = 50
        rng = np.random.default_rng(40 + d)
        atoms = 3.0 * rng.standard_normal((50, d))
        xs = rng.standard_normal((8000, d))
        ts = 1.0 - np.geomspace(1e-3, 1.0, 8000)
        self.assert_full_softmax_close(atoms, xs, ts, efm._efm_rows(EfmField(atoms), xs, ts))

    @pytest.mark.parametrize("neighbors", [None, 20])
    def test_work_arrays_stay_within_blocks(self, neighbors):
        rng = np.random.default_rng(14)
        atoms = rng.standard_normal((50, 2))
        xs = rng.standard_normal((8000, 2))
        ts = 1.0 - np.geomspace(1e-3, 1.0, 8000)
        f = EfmField(atoms, neighbors=neighbors)
        tracemalloc.start()
        try:
            out = efm._efm_rows(f, xs, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output plus a few block-sized arrays; a whole (8000, 50)
        # float64 array alone is 3.2 MB
        assert peak <= out.nbytes + 4 * 8 * efm.BLOCK_ELEMS + 65536

    def test_warm_full_softmax_call_allocates_no_block(self):
        # the field's buffer holds both the distances and _sq_dists' partial
        # sums, so a warm call allocates its output, per-row arrays and the
        # 64 KiB buffer numpy's ufuncs take for a strided operand; one
        # (50, 1000) block of this call is 391 KiB
        rng = np.random.default_rng(16)
        f = EfmField(rng.standard_normal((1000, 2)))
        xs = rng.standard_normal((200, 2))
        f(xs, 0.5)
        tracemalloc.start()
        try:
            f(xs, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * 1024

    @pytest.mark.parametrize("neighbors", [None, 20])
    def test_field_keeps_one_block_buffer(self, neighbors):
        # the buffer lives as long as the field: reused by a block that fits,
        # replaced by a larger one for a block that does not, freed with it;
        # every call gives the bits of a fresh field
        rng = np.random.default_rng(15)
        atoms = rng.standard_normal((self.N, 2))
        f = EfmField(atoms, neighbors=neighbors)
        buffers = []
        for rows, t in ((40, 0.5), (10, 0.0), (100, 0.9)):
            xs = rng.standard_normal((rows, 2))
            got = f(xs, t)
            assert np.array_equal(got, EfmField(atoms, neighbors=neighbors)(xs, t))
            buffers.append(f._buffer)
        assert buffers[1] is buffers[0] and buffers[2] is not buffers[0]
        # 100 rows of N ranking keys or distances, and of the partial sums
        # of the N, or K kept, distances
        assert buffers[2].nbytes == 100 * (self.N + (neighbors or self.N)) * 8
        gone = weakref.ref(buffers.pop())
        del f, buffers
        gc.collect()
        assert gone() is None


def broadcast_sq_dists(xs, ys, scale=1.0):
    """The broadcast form the kernel replaces, with its (B, N, d) temporary."""
    return ((xs[:, None, :] - np.asarray(scale)[..., None] * ys[None, :, :]) ** 2).sum(axis=2)


class TestTopKRanking:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(8, 64), st.sampled_from([1, 2, 5]),
           st.sampled_from([1, 7, -1]), st.sampled_from([1e-6, 0.3, 0.999]))
    def test_kept_set_is_a_top_k_and_rows_equal_the_row_loop(self, seed, n, d, k, t):
        rng = np.random.default_rng(seed)
        # atoms drawn from a smaller pool, so that most have duplicates
        pool = 2.0 * rng.standard_normal((rng.integers(1, n + 1), d))
        atoms = pool[rng.integers(0, len(pool), n)]
        k %= n  # -1 keeps all atoms but one
        xs = t * atoms[rng.integers(0, n, 40)] + (1.0 - t) * rng.standard_normal((40, d))
        f = EfmField(atoms, neighbors=k)
        kept = efm._top_k(f, xs, t, np.empty((40, n)))
        d2 = broadcast_sq_dists(xs, atoms, t)
        dropped = np.ones(d2.shape, dtype=bool)
        np.put_along_axis(dropped, kept, False, axis=1)
        assert (~dropped).sum(axis=1).tolist() == [k] * 40
        kept_max = np.take_along_axis(d2, kept, axis=1).max(axis=1)
        dropped_min = np.where(dropped, d2, np.inf).min(axis=1)
        assert np.all(kept_max <= dropped_min + 4 * np.spacing(dropped_min))
        assert np.array_equal(f(xs, t), loop_rows(atoms, xs, t, k))

    def test_t0_keeps_the_largest_inner_products(self):
        # t = 0 is clamped to g = 1e-9, where ||x - g a||^2 = ||x||^2
        # - 2e-9 x.a + 1e-18 ||a||^2: inner products 1e-9 apart move it by
        # about 2e-18, below the spacing of x_1 in [1, 2), so direct
        # differences tie every atom; the key -2 (x / g).a + ||a||^2 tells
        # them apart by about 2
        n, k = 64, 10
        atoms = np.zeros((n, 2))
        atoms[:, 0] = 1e-9 * np.random.default_rng(16).permutation(n)
        xs = np.array([[1.25, 0.0], [1.5, -0.5], [1.75, 2.0]])
        assert np.all(np.ptp(broadcast_sq_dists(xs, atoms, efm.T_CLAMP), axis=1) == 0)
        f = EfmField(atoms, neighbors=k)
        top = np.sort(np.argsort(atoms[:, 0])[-k:])
        kept = efm._top_k(f, xs, efm.T_CLAMP, np.empty((3, n)))
        assert all(np.array_equal(np.sort(row), top) for row in kept)
        np.testing.assert_allclose(f(xs, 0.0), EfmField(atoms[top])(xs, 0.0), rtol=0, atol=1e-15)


class TestWarmStart:
    """One field keeps each row's last kept set while a pass over its keys
    proves it still the K nearest; every call must give a fresh field's bits."""

    N, K, ROWS = 300, 31, 40

    @pytest.fixture
    def spy(self, monkeypatch):
        # every _top_k call's field, rows, kept sets and the number of rows
        # that argpartition ranked
        calls, ranked = [], []
        top_k, argpartition = efm._top_k, np.argpartition

        def record(f, x, g, out, hint=None):
            ranked.clear()
            kept = top_k(f, x, g, out, hint)
            calls.append((f, x.copy(), g, kept.copy(), sum(ranked)))
            return kept

        def count_rows(a, *args, **kwargs):
            ranked.append(len(a))
            return argpartition(a, *args, **kwargs)

        monkeypatch.setattr(efm, "_top_k", record)
        monkeypatch.setattr(np, "argpartition", count_rows)
        return calls

    @staticmethod
    def assert_top_k(calls):
        for f, x, g, kept, _ in calls:
            assert np.all(np.diff(kept, axis=1) > 0)
            d2 = broadcast_sq_dists(x, f.atoms, g)
            rows = np.isfinite(d2).all(axis=1)
            dropped = np.ones(d2.shape, dtype=bool)
            np.put_along_axis(dropped, kept, False, axis=1)
            kept_max = np.take_along_axis(d2, kept, axis=1).max(axis=1)
            dropped_min = np.where(dropped, d2, np.inf).min(axis=1)
            assert np.all((kept_max <= dropped_min + 4 * np.spacing(dropped_min))[rows])

    def assert_fresh(self, f, xs, t):
        """``f``'s velocities, which must be a fresh field's bits; each call
        adds two entries to the spy, ``f``'s and the fresh field's."""
        got = efm._efm_rows(f, xs, t) if np.ndim(t) else f(xs, t)
        fresh = EfmField(f.atoms, neighbors=self.K)
        want = efm._efm_rows(fresh, xs, t) if np.ndim(t) else fresh(xs, t)
        assert np.array_equal(got, want, equal_nan=True)
        return got

    def test_warm_calls_equal_a_fresh_field(self, spy):
        rng = np.random.default_rng(50)
        atoms = 2.0 * rng.standard_normal((self.N, 2))
        f = EfmField(atoms, neighbors=self.K)
        xs = rng.standard_normal((self.ROWS, 2))
        # midpoint-like steps: after the first call most rows keep their set
        dt = 0.01
        for t in np.arange(0.3, 0.5, dt):
            v = self.assert_fresh(f, xs, t)
            v = self.assert_fresh(f, xs + 0.5 * dt * v, t + 0.5 * dt)
            xs = xs + dt * v
        assert spy[0][-1] == self.ROWS
        assert sum(c[-1] for c in spy[2::2]) < 0.25 * self.ROWS * len(spy[2::2])
        steps = len(spy)
        # a changed row count, then permuted rows, which miss
        self.assert_fresh(f, xs[:25], 0.5)
        self.assert_fresh(f, xs, 0.5)
        self.assert_fresh(f, xs[rng.permutation(self.ROWS)], 0.5)
        assert [c[-1] for c in spy[steps::2]] == [25, self.ROWS, self.ROWS]
        # per-row times, t = 0 and a NaN row
        self.assert_fresh(f, xs, rng.uniform(0.0, 0.9, self.ROWS))
        self.assert_fresh(f, xs, 0.0)
        self.assert_fresh(f, xs, 0.0)
        xs[7] = np.nan
        assert np.isnan(self.assert_fresh(f, xs, 0.5)[7]).all()
        self.assert_fresh(f, xs, 0.5)
        assert all(c[0] is f for c in spy[::2]) and all(c[0] is not f for c in spy[1::2])
        assert spy[-1][-1] == self.ROWS and 1 <= spy[-2][-1] < self.ROWS
        self.assert_top_k(spy)

    def test_a_tie_at_the_kth_key_is_ranked_again(self, spy):
        # every atom twice, K odd: each row's K-th and (K + 1)-th nearest
        # atoms are twins, so a guess holding the other twin is a top-K set
        # too, which the check must not keep
        rng = np.random.default_rng(51)
        half = self.N // 2
        atoms = np.tile(2.0 * rng.standard_normal((half, 2)), (2, 1))
        f = EfmField(atoms, neighbors=self.K)
        xs = rng.standard_normal((self.ROWS, 2))
        for t in (0.4, 0.4, 0.41):
            self.assert_fresh(f, xs, t)
        assert [c[-1] for c in spy] == [self.ROWS] * 6
        self.assert_top_k(spy)
        g = 0.4
        cold = efm._top_k(f, xs, g, np.empty(self.ROWS * self.N))
        d2 = np.take_along_axis(broadcast_sq_dists(xs, atoms, g), cold, axis=1)
        last = cold[np.arange(self.ROWS), d2.argmax(axis=1)]
        guess = np.sort(np.where(cold == last[:, None], (last[:, None] + half) % self.N, cold))
        assert not np.array_equal(guess, cold)
        assert np.array_equal(efm._top_k(f, xs, g, np.empty(self.ROWS * self.N), guess), cold)

    def test_hint_is_kept_within_one_block(self):
        rng = np.random.default_rng(52)
        f = EfmField(rng.standard_normal((self.N, 2)), neighbors=self.K)
        f(rng.standard_normal((self.ROWS, 2)), 0.5)
        assert f._hint.shape == (self.ROWS, self.K)
        rows = efm.BLOCK_ELEMS // self.K + 1
        f(rng.standard_normal((rows, 2)), 0.5)
        assert f._hint.shape == (self.ROWS, self.K)


class TestSqDists:
    # (rows, columns) of each caller: a KDE row block and one KDE query, k-NN,
    # f_mem and nearest strata on a ci diagnose, the W2 cost matrix, the
    # isolated-probe self distances and the blow-up probe's atom gaps
    SHAPES = ((65, 1000), (1, 1000), (200, 500), (200, 200), (50, 50), (1, 50))

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_bitwise_equals_broadcast_at_each_callers_shape(self, d):
        rng = np.random.default_rng(50 + d)
        for b, n in self.SHAPES:
            xs = 2.0 * rng.standard_normal((b, d))
            ys = rng.standard_normal((n, d))
            assert np.array_equal(efm._sq_dists(xs, ys, 1.0), broadcast_sq_dists(xs, ys))
            assert np.array_equal(efm._sq_dists(ys, xs, 1.0), broadcast_sq_dists(ys, xs))

    def test_dimension_mismatch_raises(self):
        # as the broadcast form did; the k-NN and KDE queries reach it
        with pytest.raises(ValueError, match="dimension"):
            efm._sq_dists(np.zeros((3, 4)), np.zeros((5, 2)), 1.0)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_bridge_scale_into_a_given_buffer(self, d):
        rng = np.random.default_rng(60 + d)
        xs, ys = rng.standard_normal((40, d)), rng.standard_normal((300, d))
        for scale in (0.3, rng.random((40, 1))):
            buf = np.empty((40, 300))
            assert efm._sq_dists(xs, ys, scale, buf) is buf
            assert np.array_equal(buf, broadcast_sq_dists(xs, ys, scale))
            # each row against its own points: the same entries, bit for bit
            idx = rng.integers(0, 300, (40, 7))
            assert np.array_equal(efm._sq_dists(xs, ys[idx], scale),
                                  np.take_along_axis(buf, idx, axis=1))


class TestBatchedQueries:
    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("t", [0.3, 0.7, 0.98])
    def test_batch_equals_per_point(self, d, t):
        rng = np.random.default_rng(50 + d)
        # atoms 10 apart along the diagonal: a query at an atom's bridge mean
        # is dominated, one halfway between two means is not
        m = mix(rng.standard_normal((30, d)) + 10.0 * np.arange(30)[:, None])
        mus = t * m.atoms
        zs = np.concatenate([mus[:10] + 0.01 * rng.standard_normal((10, d)),
                             0.5 * (mus[10:20] + mus[11:21]),
                             mus.mean(axis=0) + 20.0 * rng.standard_normal((10, d))])
        lam = posterior_weights(m, zs, t)
        logp = mixture_log_density(m, zs, t)
        dom = dominance(m, zs, t, 0.1)
        assert lam.shape == (30, 30) and logp.shape == (30,) and len(dom) == 30
        for i, z in enumerate(zs):
            assert np.array_equal(lam[i], posterior_weights(m, z, t))
            assert logp[i] == mixture_log_density(m, z, t)
            assert dom[i] == dominance(m, z, t, 0.1)
        assert dom[:10] == list(range(10)) and dom[10:20] == [None] * 10

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_one_point_equals_direct_formula(self, d):
        # one query gives the bits of the plain (N, d) formula
        rng = np.random.default_rng(60 + d)
        m = mix(2.0 * rng.standard_normal((40, d)))
        for t in (0.2, 0.6, 0.95):
            z = rng.standard_normal(d)
            sigma2 = (1.0 - t) ** 2
            logw = -((z[None, :] - t * m.atoms) ** 2).sum(axis=1) / (2.0 * sigma2)
            w = np.exp(logw - logw.max())
            assert np.array_equal(posterior_weights(m, z, t), w / w.sum())
            peak = logw.max()
            lse = peak + np.log(np.exp(logw - peak).sum())
            want = float(lse - np.log(40) - 0.5 * d * np.log(2.0 * np.pi * sigma2))
            assert mixture_log_density(m, z, t) == want


class TestMixtureDensity:
    def test_single_gaussian_at_mean(self):
        m = mix([[0.0, 0.0]])
        # at the component mean with sigma = 0.5 the log-density is -log(2 pi 0.25)
        assert mixture_log_density(m, np.zeros(2), 0.5) == pytest.approx(
            -np.log(2 * np.pi * 0.25), rel=1e-12)

    def test_duplication_invariant(self):
        atoms = np.random.default_rng(6).standard_normal((5, 2))
        m1 = mix(atoms)
        m2 = mix(np.concatenate([atoms, atoms]))
        z = np.array([0.3, 0.3])
        assert mixture_log_density(m1, z, 0.4) == pytest.approx(
            mixture_log_density(m2, z, 0.4), rel=1e-14)

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            atoms = rng.standard_normal((8, 2))
            m = mix(atoms)
            z = rng.standard_normal(2)
            t = rng.uniform(0.2, 0.8)
            sigma2 = (1 - t) ** 2
            naive = np.log(np.mean([
                np.exp(-((z - t * a) ** 2).sum() / (2 * sigma2))
                / (2 * np.pi * sigma2) for a in atoms]))
            assert mixture_log_density(m, z, t) == pytest.approx(naive, abs=1e-12)

    def test_stable_in_extreme_regime(self):
        m = mix(np.random.default_rng(8).standard_normal((10, 2)))
        assert np.isfinite(mixture_log_density(m, np.array([1e6, -1e6]), 0.5))
        assert np.isfinite(mixture_log_density(m, np.zeros(2), 1.0 - 1e-9))


class TestMixtureScore:
    def test_single_component(self):
        m = mix([[2.0, 0.0]])
        z = np.array([1.0, 1.0])
        t = 0.5
        expected = (t * np.array([2.0, 0.0]) - z) / (1 - t) ** 2
        assert np.allclose(mixture_score(m, z, t), expected, rtol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        h = 1e-6
        for _ in range(30):
            m = mix(2 * rng.standard_normal((6, 2)))
            z = rng.standard_normal(2)
            t = rng.uniform(0.1, 0.9)
            s = mixture_score(m, z, t)
            fd = np.zeros(2)
            for i in range(2):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                fd[i] = (mixture_log_density(m, zp, t)
                         - mixture_log_density(m, zm, t)) / (2 * h)
            assert np.linalg.norm(s - fd) / max(np.linalg.norm(s), 1e-9) < 1e-5

    def test_symmetry_axis(self):
        m = mix([[-1.0, 0.0], [1.0, 0.0]])
        s = mixture_score(m, np.zeros(2), 0.5)
        assert abs(s[0]) < 1e-14


class TestGeneralVelocity:
    def test_linear_schedule_coefficients(self):
        # for gamma(t)=t the score coefficient is (1-t)/t and the drift is z/t
        m = mix([[0.0, 0.0]])
        z = np.array([0.4, -0.2])
        t = 0.25
        expected = (1 - t) / t * mixture_score(m, z, t) + z / t
        assert np.allclose(general_velocity(m, z, t), expected, rtol=1e-14)

    def test_agrees_with_softmax_bridge_form(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(1000):
            atoms = rng.standard_normal((rng.integers(1, 25), rng.integers(1, 4)))
            m = mix(atoms)
            z = 2 * rng.standard_normal(atoms.shape[1])
            t = rng.uniform(0.05, 0.95)
            v_score = general_velocity(m, z, t)
            v_bridge = EfmField(atoms)(z, t)
            err = np.linalg.norm(v_score - v_bridge) / (1 + np.linalg.norm(v_bridge))
            worst = max(worst, err)
        assert worst < 1e-10

    def test_single_atom_reduces_to_bridge_gap(self):
        atoms = np.array([[1.5, -0.5]])
        m = mix(atoms)
        z = np.array([0.3, 0.3])
        t = 0.6
        assert np.allclose(general_velocity(m, z, t), (atoms[0] - z) / (1 - t),
                           rtol=1e-12)


class TestDominance:
    def test_single_atom_always_dominates(self):
        assert dominance(mix([[0.0, 0.0]]), np.array([5.0, 5.0]), 0.5, 0.3) == 0

    def test_symmetric_midpoint_none(self):
        m = mix([[-1.0, 0.0], [1.0, 0.0]])
        assert dominance(m, np.zeros(2), 0.5, 0.1) is None

    def test_near_atom_dominates(self):
        m = mix([[0.0, 0.0], [10.0, 0.0]])
        assert dominance(m, 0.5 * np.array([0.0, 0.0]), 0.5, 0.1) == 0

    def test_duplicate_atoms_split_weight(self):
        m = mix([[1.0, 1.0], [1.0, 1.0]])
        assert dominance(m, np.array([0.5, 0.5]), 0.5, 0.3) is None

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            dominance(mix([[0.0, 0.0]]), np.zeros(2), 0.5, 0.7)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10_000),
       st.floats(0.05, 0.95))
def test_posterior_weights_normalized_property(n_atoms, seed, t):
    rng = np.random.default_rng(seed)
    m = mix(3 * rng.standard_normal((n_atoms, 2)))
    lam = posterior_weights(m, rng.standard_normal(2), t)
    assert abs(lam.sum() - 1.0) <= 1e-15
    assert lam.min() >= 0.0
