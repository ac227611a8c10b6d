"""Tests for the energy-density bound suite and terminal blow-up probes."""

import tracemalloc

import numpy as np
import pytest

from kinflow import cli, efm, sampler, theory
from kinflow.efm import (EfmField, GammaSchedule, MixtureModel, dominance,
                         general_velocity, linear_schedule, mixture_log_density,
                         mixture_score, posterior_weights)
from kinflow.theory import (REL_SLACK, blowup_probe, bound_constants,
                            check_concentration, check_energy_density_bounds,
                            check_local_gaussian_remainder,
                            check_score_remainder, integrated_energy_density,
                            sample_dominant_points, universal_lower_bound_check)
from kinflow.sampler import SolverConfig, integrate


def mix(atoms, schedule=None):
    return MixtureModel(np.asarray(atoms, dtype=float),
                        schedule or linear_schedule())


class TestBoundConstants:
    def test_linear_slopes_exact(self):
        m = mix(np.random.default_rng(0).standard_normal((5, 2)))
        for t in np.linspace(0.1, 0.9, 9):
            consts = bound_constants(m, float(t), 0, 0.1)
            assert abs(consts.lower_slope - 0.5) <= 1e-14
            assert abs(consts.upper_slope - 12.0) <= 1e-14

    def test_slope_ordering(self):
        quad = GammaSchedule(gamma=lambda t: t * t, gamma_dot=lambda t: 2 * t)
        m = mix(np.random.default_rng(1).standard_normal((4, 3)), schedule=quad)
        consts = bound_constants(m, 0.4, 1, 0.2)
        assert consts.lower_slope <= consts.upper_slope
        assert np.isfinite(consts.offset)

    def test_single_atom_at_origin_offsets(self):
        # with the dominant mean at the origin and no spread, both offsets
        # collapse to the log-normalization slack terms
        m = mix([[0.0, 0.0]])
        consts = bound_constants(m, 0.5, 0, 0.1)
        assert consts.mean_spread == 0.0
        assert consts.drift_norm == 0.0
        assert consts.offset == pytest.approx(12.0 * consts.log_slack)


class TestEnergyDensityBounds:
    def test_single_atom_grid(self):
        m = mix([[0.7, -0.3]])
        grid = [(np.array([x, y]), t)
                for x in np.linspace(-2, 2, 20)
                for y in np.linspace(-2, 2, 20)
                for t in np.linspace(0.1, 0.9, 9)]
        report = check_energy_density_bounds(m, grid, eps=0.1)
        assert report.n_skipped == 0
        assert report.pass_rate == 1.0

    def test_zero_velocity_point(self):
        # z at the atom's bridge mean has zero velocity; the lower bound must
        # be non-positive there
        m = mix([[0.0, 0.0]])
        report = check_energy_density_bounds(m, [(np.zeros(2), 0.5)], eps=0.1)
        entry = report.entries[0]
        assert entry.energy == 0.0
        assert entry.lower <= 0.0
        assert entry.passed

    def test_sampled_dominant_points_pass(self):
        rng = np.random.default_rng(2)
        for dim in (1, 2, 5):
            for n in (1, 5, 50):
                atoms = 8.0 * rng.standard_normal((n, dim))
                m = mix(atoms)
                for eps in (0.05, 0.1, 0.3):
                    pts, _ = sample_dominant_points(
                        m, np.linspace(0.1, 0.9, 9), eps, 8, rng)
                    report = check_energy_density_bounds(m, pts, eps)
                    assert report.pass_rate == 1.0

    def test_non_dominant_points_skipped(self):
        m = mix([[-1.0, 0.0], [1.0, 0.0]])
        report = check_energy_density_bounds(m, [(np.zeros(2), 0.5)], eps=0.1)
        assert report.n_skipped == 1
        assert report.entries[0].skipped == "dominance"
        assert report.pass_rate == 1.0

    def test_entries_keep_input_order_across_times(self):
        # the check groups points by time; each entry must equal the entry
        # of a one-point call, in the order the points were given
        rng = np.random.default_rng(6)
        m = mix(4.0 * rng.standard_normal((20, 2)))
        pts = [(rng.standard_normal(2), t) for t in (0.2, 0.9, 0.5, 0.9, 0.2, 0.5) * 4]
        got = check_energy_density_bounds(m, pts, eps=0.2).entries
        for (z, t), entry in zip(pts, got):
            alone = check_energy_density_bounds(m, [(z, t)], eps=0.2).entries[0]
            assert np.array_equal(entry.z, z) and entry.t == t
            assert (entry.i_star, entry.lam_star, entry.skipped, entry.passed) == \
                (alone.i_star, alone.lam_star, alone.skipped, alone.passed)
            np.testing.assert_array_equal(
                [entry.neg_log_density, entry.energy, entry.lower, entry.upper],
                [alone.neg_log_density, alone.energy, alone.lower, alone.upper])
        assert 0 < sum(e.skipped is None for e in got) < len(got)


    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_remainders_keep_input_order_across_times(self, d):
        # the batched remainders of each entry are the bits of a one-point call
        rng = np.random.default_rng(16 + d)
        m = mix(4.0 * rng.standard_normal((20, d)))
        pts = [(rng.standard_normal(d), t) for t in (0.2, 0.9, 0.5, 0.9, 0.2, 0.5) * 4]
        got = check_energy_density_bounds(m, pts, eps=0.2).entries
        for (z, t), entry in zip(pts, got):
            lg = check_local_gaussian_remainder(m, z, t, 0.2)
            sr = check_score_remainder(m, z, t, 0.2)
            if entry.skipped:
                assert lg is None and sr is None
                continue
            assert (entry.log_remainder, entry.log_remainder_ok) == lg
            assert (entry.score_remainder, entry.score_remainder_ok) == sr
            assert lg[1] and sr[1]
        assert 0 < sum(e.skipped is None for e in got) < len(got)


def dominant_points_loop(m, ts, eps, per_time, rng):
    """Per-point reference of ``sample_dominant_points``."""
    points, rejected = [], 0
    for t in ts:
        mus, sigma2 = m._bridge(t)
        idx = rng.integers(0, m.n_atoms, per_time)
        zs = mus[idx] + np.sqrt(sigma2) * rng.standard_normal((per_time, m.dim))
        for z in zs:
            if dominance(m, z, t, eps) is None:
                rejected += 1
            else:
                points.append((z, float(t)))
    return points, rejected


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_sample_dominant_points_matches_per_point_loop(dim):
    m = mix(3.0 * np.random.default_rng(dim).standard_normal((50, dim)))
    ts = np.linspace(0.1, 0.9, 9)
    rng_got, rng_want = np.random.default_rng(7), np.random.default_rng(7)
    got, got_rejected = sample_dominant_points(m, ts, 0.1, 40, rng_got)
    want, want_rejected = dominant_points_loop(m, ts, 0.1, 40, rng_want)
    assert got_rejected == want_rejected and 0 < want_rejected < 360
    assert len(got) == len(want)
    for (z, t), (z_ref, t_ref) in zip(got, want):
        assert np.array_equal(z, z_ref) and t == t_ref
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


class TestRemainders:
    def test_single_atom_log_remainder_zero(self):
        m = mix([[1.0, 2.0]])
        remainder, ok = check_local_gaussian_remainder(m, np.array([0.5, 0.5]),
                                                       0.4, 0.1)
        assert remainder == pytest.approx(0.0, abs=1e-12)
        assert ok

    def test_log_remainder_range_on_dominant_points(self):
        rng = np.random.default_rng(3)
        m = mix(6.0 * rng.standard_normal((10, 2)))
        pts, _ = sample_dominant_points(m, [0.3, 0.5, 0.7], 0.1, 50, rng)
        assert pts, "sampler found no dominant points"
        for z, t in pts:
            remainder, ok = check_local_gaussian_remainder(m, z, t, 0.1)
            assert ok
            assert np.log(0.9) - 1e-9 <= remainder <= 1e-9

    def test_score_remainder_single_atom_zero(self):
        m = mix([[1.0, -1.0]])
        norm, ok = check_score_remainder(m, np.array([2.0, 0.0]), 0.6, 0.05)
        assert norm == pytest.approx(0.0, abs=1e-12)
        assert ok

    def test_score_remainder_bound_on_dominant_points(self):
        rng = np.random.default_rng(4)
        m = mix(6.0 * rng.standard_normal((8, 3)))
        pts, _ = sample_dominant_points(m, [0.4, 0.6], 0.05, 50, rng)
        assert pts
        for z, t in pts:
            _, ok = check_score_remainder(m, z, t, 0.05)
            assert ok

    def test_identical_atoms_have_zero_spread(self):
        m = mix([[2.0, 2.0], [2.0, 2.0], [2.0, 2.0]])
        # every weight is 1/3, so no single component dominates at eps < 2/3,
        # but the score remainder is exactly zero by construction
        consts = bound_constants(m, 0.5, 0, 0.3)
        assert consts.mean_spread == 0.0

    def test_skipped_without_dominance(self):
        m = mix([[-1.0, 0.0], [1.0, 0.0]])
        assert check_local_gaussian_remainder(m, np.zeros(2), 0.5, 0.1) is None
        assert check_score_remainder(m, np.zeros(2), 0.5, 0.1) is None


class TestConcentration:
    def test_two_atom_margin_bound(self):
        # margin 1 at 1 - t = 0.1 gives the bound e^-50
        atoms = np.array([[0.0, 0.0], [10.0, 0.0]])
        m = mix(atoms)
        x = np.array([0.45, 0.0])
        ts = [0.9]
        s = ((x[None, :] - 0.9 * atoms) ** 2).sum(axis=1)
        margin = float(s[1] - s[0])
        assert margin > 1.0
        report = check_concentration(m, x, ts, margin=1.0)
        entry = report.entries[0]
        assert entry.margin_ok
        assert entry.bound == pytest.approx(np.exp(-50.0), rel=1e-12)
        assert entry.measured <= entry.bound
        assert entry.passed

    def test_single_atom_trivial(self):
        m = mix([[3.0, 3.0]])
        report = check_concentration(m, np.array([1.0, 1.0]), [0.5, 0.9],
                                     margin=1.0)
        for entry in report.entries:
            assert entry.bound == 0.0
            assert entry.measured == 0.0
            assert entry.passed

    def test_vacuous_bound(self):
        # zero margin makes the bound n - 1 >= 1, trivially satisfied
        m = mix([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        report = check_concentration(m, np.array([0.2, 0.0]), [0.1], margin=0.0)
        assert report.entries[0].bound == pytest.approx(2.0)
        assert report.entries[0].passed

    def test_margin_violation_excluded(self):
        m = mix([[-1.0, 0.0], [1.0, 0.0]])
        report = check_concentration(m, np.zeros(2), [0.5, 0.9], margin=5.0)
        assert report.n_margin_invalid == 2
        assert report.all_passed  # nothing valid to check

    def test_quadratic_schedule_uses_its_own_bridge(self):
        # under gamma = t^2 at t = 0.8, x lies nearer gamma x_1 = (6.4, 0)
        # than gamma x_0 = 0, so the posterior sits on atom 1, and the bound
        # takes sigma^2 = (1 - 0.64)^2; the linear bridge t x_i would pick
        # atom 0 and report 1 - lambda_0 = 0.9999996 against e^-12.5
        quad = GammaSchedule(gamma=lambda t: t * t, gamma_dot=lambda t: 2 * t)
        m = mix([[0.0, 0.0], [10.0, 0.0]], schedule=quad)
        x = np.array([3.5, 0.0])
        report = check_concentration(m, x, [0.8], margin=1.0)
        entry = report.entries[0]
        assert report.i_star == 1 and entry.margin_ok and entry.passed
        assert entry.bound == pytest.approx(np.exp(-1.0 / (2.0 * 0.36 ** 2)), rel=1e-12)
        assert entry.measured == pytest.approx(posterior_weights(m, x, 0.8)[0], rel=1e-12)
        assert entry.measured == pytest.approx(3.7e-7, rel=0.01)

    def test_never_violated_on_random_frozen_points(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            atoms = 4.0 * rng.standard_normal((6, 2))
            m = mix(atoms)
            x = atoms[0] + rng.uniform(0.2, 0.5) * rng.standard_normal(2)
            ts = np.linspace(0.9, 0.999, 15)
            s_end = ((x[None, :] - 0.999 * atoms) ** 2).sum(axis=1)
            order = np.sort(s_end)
            margin = 0.5 * (order[1] - order[0])
            if margin <= 0:
                continue
            report = check_concentration(m, x, ts, margin=margin)
            assert report.all_passed


class TestBlowupProbe:
    def test_single_atom_analytic(self):
        f = EfmField(np.array([[0.0, 0.0]]))
        x = np.array([1.0, 0.0])
        deltas = [1e-2, 1e-3, 1e-4]
        report = blowup_probe(f, x, c=1.0, deltas=deltas)
        for entry in report.entries:
            analytic = 1.0 / entry.delta - 1.0 / (1.0 - report.t_bar)
            assert entry.integral == pytest.approx(analytic, rel=1e-6)
            assert entry.passed

    def test_delta_halving_doubles_integral(self):
        rng = np.random.default_rng(6)
        atoms = 3.0 * rng.standard_normal((20, 2))
        f = EfmField(atoms)
        d2 = ((atoms[:, None] - atoms[None, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        j = int(np.argmax(np.sqrt(d2.min(axis=1))))
        x = atoms[j] + np.array([np.sqrt(d2.min(axis=1)[j]) / 3.0, 0.0])
        c = 0.9 * np.sqrt(((x[None] - atoms) ** 2).sum(axis=1)).min()
        report = blowup_probe(f, x, c=float(c), deltas=[1e-2, 5e-3, 2.5e-3])
        i_by_delta = {e.delta: e.integral for e in report.entries}
        assert 1.8 <= i_by_delta[5e-3] / i_by_delta[1e-2] <= 2.2
        assert 1.8 <= i_by_delta[2.5e-3] / i_by_delta[5e-3] <= 2.2
        assert report.all_passed

    def test_gap_scaling_quadruples_bound(self):
        f1 = EfmField(np.array([[0.0, 0.0]]))
        r1 = blowup_probe(f1, np.array([1.0, 0.0]), c=1.0, deltas=[1e-3])
        r2 = blowup_probe(f1, np.array([2.0, 0.0]), c=2.0, deltas=[1e-3])
        assert r2.entries[0].lower_bound == pytest.approx(
            4.0 * r1.entries[0].lower_bound, rel=1e-12)

    def test_noncollision_hypothesis_checked(self):
        f = EfmField(np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError, match="non-collision"):
            blowup_probe(f, np.array([0.05, 0.0]), c=0.5, deltas=[1e-3])

    @pytest.mark.parametrize("deltas, match", [
        ([1e-3, 0.0], "must be > 0"),
        ([-1e-3], "must be > 0"),
        ([1e-3, 0.9], "delta 0.9 leaves no interval"),
        ([0.9, 1e-3, 0.6], "delta 0.9 leaves no interval"),
    ])
    def test_delta_range_checked(self, deltas, match):
        f = EfmField(np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError, match=match):
            blowup_probe(f, np.array([1.0, 0.0]), c=1.0, deltas=deltas)

    @staticmethod
    def probe_loop(f, x, c, deltas):
        """Reference: a search of one-point posterior calls, then each delta
        integrated on its own geometric grid from delta to 1 - t_bar."""
        deltas = sorted(deltas)
        radius = np.sqrt((f.atoms ** 2).sum(axis=1)).max()
        search = 1.0 - np.geomspace(0.5, max(deltas[0], 1e-6), theory.SEARCH_NODES)
        t_bar = next(float(t) for t in search if 2.0 * radius * (
            1.0 - efm.posterior_weights(f, x, float(t)).max()) <= c / 2.0)
        u_hi = 1.0 - t_bar
        entries = []
        for delta in deltas:
            nodes = max(64, int(np.ceil(np.log10(u_hi / delta) * theory.NODES_PER_DECADE)) + 1)
            u = np.geomspace(delta, u_hi, nodes)
            v = efm._efm_rows(f, np.broadcast_to(x, (nodes, len(x))), 1.0 - u)
            integral = float(np.trapezoid((v ** 2).sum(axis=1), u))
            bound = (c ** 2 / 4.0) * (1.0 / delta - 1.0 / u_hi)
            entries.append((delta, integral, integral >= bound * (1.0 - REL_SLACK)))
        return t_bar, entries

    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_one_grid_matches_per_delta_grids(self, seed):
        rng = np.random.default_rng(seed)
        for dim in (1, 2, 5):
            atoms = 3.0 * rng.standard_normal((50, dim))
            x, c = theory.isolated_probe(atoms)
            f = EfmField(atoms)
            for deltas in ([5e-3, 2e-3, 1e-3], [1e-2, 2.5e-3, 5e-3],
                           [1e-3, 1e-2, 1e-4, 1e-3]):
                report = blowup_probe(f, x, c, deltas)
                t_bar, entries = self.probe_loop(f, x, c, deltas)
                assert report.t_bar == t_bar
                assert [e.delta for e in report.entries] == [d for d, _, _ in entries]
                assert [e.passed for e in report.entries] == [p for _, _, p in entries]
                for e, (_, integral, _) in zip(report.entries, entries):
                    assert e.integral == pytest.approx(integral, rel=1e-9, abs=0)

    def test_one_kernel_call_per_probe(self, monkeypatch):
        calls = []
        real = theory._efm_rows
        monkeypatch.setattr(theory, "_efm_rows",
                            lambda *a: calls.append(len(a[1])) or real(*a))
        atoms = 3.0 * np.random.default_rng(4).standard_normal((50, 2))
        x, c = theory.isolated_probe(atoms)
        blowup_probe(EfmField(atoms), x, c, deltas=[5e-3, 2e-3, 1e-3])
        assert len(calls) == 1


def full_matrix_probe(atoms):
    """The isolated probe from the whole (N, N) self-distance matrix."""
    d2 = efm._sq_dists(atoms, atoms, 1.0)
    np.fill_diagonal(d2, np.inf)
    nearest = np.sqrt(d2.min(axis=1))
    j = int(np.argmax(nearest))
    x = atoms[j].copy()
    x[0] += nearest[j] / 3.0
    return x, 0.9 * float(np.sqrt(efm._sq_dists(x[None, :], atoms, 1.0).min()))


class TestIsolatedProbe:
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_bitwise_equals_full_matrix(self, dim):
        rng = np.random.default_rng(30 + dim)
        # 600 atoms take several row blocks
        for n in (2, 50, 600):
            atoms = 3.0 * rng.standard_normal((n, dim))
            dup = atoms.copy()
            dup[n // 2:] = dup[:n - n // 2]          # every atom has a twin
            some = atoms.copy()
            some[1::7] = some[0]                     # a few duplicates
            for a in (atoms, dup, some):
                x, c = theory.isolated_probe(a)
                want_x, want_c = full_matrix_probe(a)
                assert np.array_equal(x, want_x) and c == want_c

    def test_memory_stays_within_blocks(self):
        atoms = np.random.default_rng(8).standard_normal((2000, 2))
        tracemalloc.start()
        try:
            theory.isolated_probe(atoms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few block-sized arrays; the (2000, 2000) matrix alone is 32 MB
        assert peak <= 4 * 8 * efm.BLOCK_ELEMS + 65536


class TestUniversalLowerBound:
    @staticmethod
    def straight_path(start, atom, times):
        frac = (times - times[0]) / (times[-1] - times[0])
        return start[None, :] + frac[:, None] * (atom - start)[None, :]

    def test_constant_speed_equality(self):
        # the remaining gap at t = 0.5 is (1, 0), so the tail bound is 2 and a
        # constant-speed closing path attains it exactly
        atom = np.array([1.0, 0.0])
        times = np.linspace(0.0, 1.0, 201)
        states = self.straight_path(np.array([-1.0, 0.0]), atom, times)
        lhs, rhs, ok = universal_lower_bound_check(times, states, atom, 0.5)
        assert rhs == pytest.approx(2.0, rel=1e-12)
        assert lhs == pytest.approx(rhs, rel=1e-6)
        assert ok

    def test_detour_strictly_larger(self):
        atom = np.array([1.0, 0.0])
        times = np.linspace(0.0, 1.0, 201)
        states = self.straight_path(np.array([-1.0, 0.0]), atom, times)
        states[:, 1] += 0.3 * np.sin(np.pi * (times - times[0]))
        states[-1] = atom
        lhs, rhs, ok = universal_lower_bound_check(times, states, atom, 0.5)
        assert lhs > rhs
        assert ok

    def test_hundred_random_paths(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            atom = rng.standard_normal(2)
            n = int(rng.integers(20, 120))
            times = np.linspace(0.0, 1.0, n + 1)
            states = rng.standard_normal((n + 1, 2)).cumsum(axis=0)
            states += atom - states[-1]  # pin the endpoint to the atom
            t_start = float(times[rng.integers(0, n)])
            lhs, rhs, ok = universal_lower_bound_check(times, states, atom,
                                                       t_start)
            assert ok, (lhs, rhs)

    def test_wrong_terminal_point_rejected(self):
        times = np.linspace(0.0, 1.0, 11)
        states = np.zeros((11, 2))
        with pytest.raises(ValueError):
            universal_lower_bound_check(times, states, np.array([1.0, 0.0]), 0.5)


class TestIntegratedEnergyDensity:
    def test_zero_length(self):
        class Stub:
            times = np.array([0.0])
            states = np.zeros((1, 2))
            kpe = 0.0

        kpe, integral, ratio = integrated_energy_density(Stub(), mix([[0.0, 0.0]]))
        assert kpe == 0.0 and integral == 0.0
        assert np.isnan(ratio)

    def test_smoke_on_closed_form_trajectory(self):
        atoms = np.random.default_rng(8).standard_normal((30, 2))
        f = EfmField(atoms)
        cfg = SolverConfig(method="midpoint", steps=100, delta_cut=1e-3, seed=0)
        traj = integrate(f, np.array([0.3, -0.2]), cfg)
        m = mix(atoms)
        kpe, integral, ratio = integrated_energy_density(traj, m)
        assert kpe > 0 and np.isfinite(integral)
        assert np.isfinite(ratio) and ratio > 0

    def test_atom_duplication_invariant(self):
        atoms = np.random.default_rng(9).standard_normal((10, 2))
        f = EfmField(atoms)
        cfg = SolverConfig(steps=50, delta_cut=1e-3, seed=1)
        traj = integrate(f, np.zeros(2), cfg)
        a = integrated_energy_density(traj, mix(atoms))
        b = integrated_energy_density(traj, mix(np.concatenate([atoms, atoms])))
        assert a[1] == pytest.approx(b[1], rel=1e-12)


def bound_offsets_loop(m, t, i_star, eps):
    """Scalar reference of the bound constants at one (t, i*, eps): slopes,
    offset, log-normalizer and mean spread."""
    g, gdot = m.schedule.gamma(t), m.schedule.gamma_dot(t)
    sigma2 = (1.0 - g) ** 2
    mus = g * m.atoms
    mu_star = mus[i_star]
    spread = float(np.sqrt(((mus - mu_star) ** 2).sum(axis=1)).max())
    alpha = gdot * sigma2 / (g * (1.0 - g))
    drift = float(np.linalg.norm((alpha / sigma2) * mu_star))
    slack = abs(alpha) * (eps / sigma2) * spread
    m2 = gdot * gdot
    off_lower = 0.5 * m2 / sigma2 * (mu_star @ mu_star) + 2.0 * (drift + slack) ** 2
    off_upper = 6.0 * m2 / sigma2 * (mu_star @ mu_star) + 3.0 * (drift ** 2 + slack ** 2)
    d = m.dim
    c0 = 0.5 * d * np.log(2.0 * np.pi) + 0.5 * d * np.log(sigma2) + np.log(m.n_atoms)
    k_t = abs(c0) - np.log1p(-eps)
    offset = max(off_lower + 0.5 * m2 * k_t, off_upper + 12.0 * m2 * k_t)
    return 0.5 * m2, 12.0 * m2, offset, c0, spread


def checks_loop(m, points, eps):
    """Per-point reference of the bound and remainder checks: every check of
    every point makes its own posterior passes through the public queries."""
    n_checked = n_failed = rem_failed = 0
    for z, t in points:
        i_star = dominance(m, z, t, eps)
        if i_star is None:
            continue
        n_checked += 1
        c1, c2, offset, c0, spread = bound_offsets_loop(m, t, i_star, eps)
        nld = -mixture_log_density(m, z, t)
        u = general_velocity(m, z, t)
        energy = float(u @ u)
        lower, upper = c1 * nld - offset, c2 * nld + offset
        n_failed += not (energy >= lower - REL_SLACK * max(1.0, abs(lower), energy)
                         and energy <= upper + REL_SLACK * max(1.0, abs(upper), energy))
        mus, sigma2 = m._bridge(t)
        gap = z - mus[i_star]
        quad = float(gap @ gap) / (2.0 * sigma2)
        remainder = nld - quad - c0
        lo = np.log1p(-eps)
        tol = REL_SLACK * max(1.0, abs(lo), quad, abs(c0))
        log_ok = lo - tol <= remainder <= tol
        r_norm = np.linalg.norm(mixture_score(m, z, t) + gap / sigma2)
        bound = (eps / sigma2) * spread
        score_ok = r_norm <= bound + REL_SLACK * max(1.0, bound, np.abs(gap).max() / sigma2)
        rem_failed += not (log_ok and score_ok)
    return n_checked, n_failed, rem_failed


def theory_report_loop(atoms_by_dim, eps_values, seed):
    """The bounds and remainders sections of ``cli._theory_report``, built
    point by point."""
    rng = np.random.default_rng(seed)
    bounds, remainders = [], []
    for dim, atoms in atoms_by_dim.items():
        m = mix(atoms)
        for eps in eps_values:
            points, rejected = dominant_points_loop(m, np.linspace(0.1, 0.9, 9), eps, 40, rng)
            n_checked, n_failed, rem_failed = checks_loop(m, points, eps)
            bounds.append({"dim": dim, "n_atoms": len(atoms), "eps": eps,
                           "n_checked": n_checked, "n_skipped": len(points) - n_checked,
                           "rejected_in_sampling": rejected,
                           "pass_rate": 1.0 - n_failed / n_checked if n_checked else 1.0})
            remainders.append({"dim": dim, "eps": eps, "n_checked": len(points),
                               "n_failed": rem_failed})
    return bounds, remainders


def report_atoms(seed):
    rng = np.random.default_rng(seed)
    return {d: 3.0 * rng.standard_normal((50, d)) for d in (1, 2, 5)}


class TestBatchedSuite:
    @pytest.mark.parametrize("seed", [0, 3, 11, 29])
    def test_report_matches_per_point_loop(self, seed):
        eps_values = [0.05, 0.1, 0.3]
        report = cli._theory_report(report_atoms(seed), eps_values, seed)
        bounds, remainders = theory_report_loop(report_atoms(seed), eps_values, seed)
        assert report["bounds"] == bounds
        assert report["remainders"] == remainders
        assert all(b["n_checked"] > 0 for b in bounds)

    def test_one_posterior_pass_per_time_group(self, monkeypatch):
        # sampling at each t, the checks of each (dim, eps, t) group holding a
        # dominant point, the concentration grid, the blow-up search over all
        # its times and the integrated trajectory's densities make one softmax
        # call apiece per dim; per-point passes would add about five calls per
        # checked point.  Every block of a field evaluation adds one more.
        atoms, rng = report_atoms(5), np.random.default_rng(5)
        groups = sum(len({t for _, t in sample_dominant_points(
            mix(a), np.linspace(0.1, 0.9, 9), 0.1, 40, rng)[0]}) for a in atoms.values())
        calls, blocks = [], []
        real_softmax, real_rows = efm._softmax, efm._efm_rows

        def softmax(w, sigma2):
            calls.append(len(w))
            return real_softmax(w, sigma2)

        def efm_rows(f, xs, t):
            blocks.append(-(-len(xs) // efm._row_step(len(xs), f.n_atoms)))
            return real_rows(f, xs, t)

        for mod in (efm, theory):
            monkeypatch.setattr(mod, "_softmax", softmax)
            monkeypatch.setattr(mod, "_efm_rows", efm_rows)
        report = cli._theory_report(atoms, [0.1], 5)
        searched = len(report["blowup"])
        assert len(blocks) > 3 * 100        # the probes and the 100-step trajectories
        assert len(calls) == 3 * (9 + 1 + 1) + groups + searched + sum(blocks)
        checked = sum(b["n_checked"] for b in report["bounds"])
        assert checked > 2 * groups and report["all_passed"]

    def test_one_mixture_object_per_dim(self, monkeypatch):
        # the bound sampling, the blow-up probe and the integrated trajectory
        # all take the dim's one EfmField
        seen = {}

        def spy(name, real):
            def call(f, *args, **kwargs):
                seen.setdefault(name, []).append(f)
                return real(f, *args, **kwargs)
            return call

        for mod, name in ((theory, "sample_dominant_points"), (theory, "blowup_probe"),
                          (sampler, "integrate")):
            monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
        atoms = report_atoms(5)
        cli._theory_report(atoms, [0.1], 5)
        assert [len(fs) for fs in seen.values()] == [3, 3, 3]
        for a, *fs in zip(atoms.values(), *seen.values()):
            assert fs[0] is fs[1] is fs[2] and isinstance(fs[0], EfmField)
            assert np.array_equal(fs[0].atoms, a)

    @pytest.mark.parametrize("name, plant, section", [
        # a velocity 1e4 times too fast: the energy exceeds the upper bound
        ("_velocity", lambda real: lambda *a: 1e4 * real(*a), "bounds"),
        # log p_t one nat too high: the log remainder leaves [log(1 - eps), 0]
        ("_softmax_parts",
         lambda real: lambda *a: (lambda lam, lp, one: (lam, lp + 1.0, one))(*real(*a)),
         "remainders"),
        # a score shifted far off: the score remainder exceeds its bound
        ("_score", lambda real: lambda *a: real(*a) + 1e6, "remainders"),
    ])
    def test_planted_violation_is_counted(self, monkeypatch, name, plant, section):
        monkeypatch.setattr(theory, name, plant(getattr(theory, name)))
        report = cli._theory_report({2: report_atoms(5)[2]}, [0.1], 5)
        checked = report["bounds"][0]["n_checked"]
        assert checked > 0 and not report["all_passed"]
        if section == "bounds":
            assert report["bounds"][0]["pass_rate"] == 0.0
        else:
            assert report["remainders"][0]["n_failed"] == checked
