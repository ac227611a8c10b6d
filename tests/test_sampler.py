"""Tests for ODE integration, energy accumulation, and velocity shaping."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinflow.datasets import generate
from kinflow.diagnostics import f_mem, knn_density
from kinflow.efm import EfmField
from kinflow.net import NeuralVelocityField, cfm_loss_grad, init_params
from kinflow.sampler import (TRACE_HEADER, IntegrationDiverged, KtsSchedule,
                             SolverConfig, Trajectory, batch_summary, integrate,
                             kts_eta, load_traces, sample_batch, save_traces)
from kinflow.theory import sample_dominant_points


def constant_field(v):
    v = np.asarray(v, dtype=float)
    return lambda x, t: v


def decay_field(x, t):
    return -np.asarray(x, dtype=float)


def gained(field_fn, s):
    """The shaped field eta(t) * field(x, t), written out apart from the sampler."""
    return lambda x, t: kts_eta(s, t) * np.asarray(field_fn(x, t), dtype=float)


GRID = (0.0, 0.01, 0.02)
SWEEP = [KtsSchedule()] + [KtsSchedule(alpha0=a, beta0=b) for a in GRID for b in GRID]
RECORD = ("states", "velocities", "power", "kpe_early", "kpe_late", "kpe")


def seeded_starts(m, seed):
    """The starts ``sample_batch`` draws: one child stream of ``seed`` per row."""
    return np.stack([np.random.default_rng(ss).standard_normal(2)
                     for ss in np.random.SeedSequence(seed).spawn(m)])


def loop_reference(field_fn, m, cfg, tau_split=0.6):
    """Per-trajectory integration with single-row field calls, written out
    apart from the sampler, stacked into an m-row record.  Each energy is
    summed step by step in time order."""
    def single(x, t):
        return np.asarray(field_fn(x[None, :], t), dtype=float)[0]

    horizon = 1.0 - cfg.delta_cut
    dt = horizon / cfg.steps
    times = np.linspace(0.0, horizon, cfg.steps + 1)
    early = times[:-1] < tau_split
    paths = []
    for x in seeded_starts(m, cfg.seed):
        states, vels, power = [x], [], []
        for t in times[:-1]:
            v = single(x, t)
            if cfg.method == "midpoint":
                v = single(x + 0.5 * dt * v, t + 0.5 * dt)
            x = x + dt * v
            states.append(x)
            vels.append(v)
            power.append((v * v).sum())
        power = np.array(power)
        paths.append((states, vels, power, 0.5 * sum(power[early]) * dt,
                      0.5 * sum(power[~early]) * dt))
    states, vels, power, kpe_early, kpe_late = (np.array(col) for col in zip(*paths))
    return Trajectory(times, states, vels, power, kpe_early, kpe_late, tau_split)


def assert_records_equal(got, want):
    for name in RECORD:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


class TestKtsGain:
    def test_launch_at_zero(self):
        s = KtsSchedule(alpha0=0.05, beta0=0.02)
        assert kts_eta(s, 0.0) == pytest.approx(1.05)

    def test_continuous_at_split(self):
        s = KtsSchedule(alpha0=0.3, beta0=0.2, k=3.0, tau_split=0.6)
        assert kts_eta(s, 0.6) == pytest.approx(1.0)
        assert kts_eta(s, 0.6 - 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_landing_value_at_one(self):
        s = KtsSchedule(alpha0=0.0, beta0=0.01, k=3.0, tau_split=0.6)
        expected = 1.0 - 0.01 * (np.exp(1.2) - 1.0)
        assert kts_eta(s, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.97680, abs=5e-6)

    def test_identity_gain(self):
        s = KtsSchedule()
        for t in np.linspace(0, 1, 11):
            assert kts_eta(s, float(t)) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            KtsSchedule(alpha0=-0.1)
        with pytest.raises(ValueError):
            KtsSchedule(k=0.0)
        with pytest.raises(ValueError):
            KtsSchedule(tau_split=1.0)

    @pytest.mark.parametrize("name", ["alpha0", "beta0", "k"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gains_must_be_finite(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            KtsSchedule(**{name: bad})

    def test_flow_reversing_landing_rejected(self):
        # at k=3, tau=0.6, eta(1) > 0 needs beta0 < 1 / (e^1.2 - 1) = 0.4310
        assert kts_eta(KtsSchedule(beta0=0.43), 1.0) > 0.0
        with pytest.raises(ValueError, match="reverses the flow"):
            KtsSchedule(beta0=0.5)
        with pytest.raises(ValueError):
            KtsSchedule(beta0=0.432)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.01, 6.0),
       st.floats(0.01, 0.99))
def test_accepted_gains_stay_positive(alpha0, beta0, k, tau_split):
    """Every accepted schedule keeps eta > 0 on [0, 1]; every rejected one
    has eta(1) <= 0."""
    try:
        s = KtsSchedule(alpha0=alpha0, beta0=beta0, k=k, tau_split=tau_split)
    except ValueError:
        assert 1.0 - beta0 * (np.exp(k * (1.0 - tau_split)) - 1.0) <= 0.0
        return
    assert min(kts_eta(s, float(t)) for t in np.linspace(0.0, 1.0, 1001)) > 0.0


class TestShapedField:
    """The shaped velocity eta(t) * base(x, t) that ``sample_batch``
    integrates for each of its ``schedules``."""

    def test_zero_gains_bit_identical(self):
        for method in ("euler", "midpoint"):
            cfg = SolverConfig(method=method, steps=10, seed=1)
            trajs = sample_batch(constant_field([0.3, -0.7]), 3, cfg,
                                 schedules=(KtsSchedule(tau_split=0.3),
                                            KtsSchedule(k=1.0, tau_split=0.3)))
            assert len(trajs) == 6
            assert np.array_equal(trajs.velocities, np.tile([0.3, -0.7], (6, 10, 1)))

    def test_scales_norm_pointwise(self):
        s = KtsSchedule(alpha0=0.2, beta0=0.05)
        batch = sample_batch(decay_field, 4, SolverConfig(steps=20, seed=0),
                             schedules=(s,))
        eta = np.array([kts_eta(s, t) for t in batch.times[:-1]])
        base = decay_field(batch.states[:, :-1], None)
        np.testing.assert_allclose(np.linalg.norm(batch.velocities, axis=2),
                                   eta * np.linalg.norm(base, axis=2), rtol=1e-15, atol=1e-12)

    def test_zero_base_stays_zero(self):
        batch = sample_batch(constant_field([0.0, 0.0]), 2,
                             SolverConfig(method="midpoint", steps=8, seed=2),
                             schedules=(KtsSchedule(alpha0=0.5, beta0=0.3),))
        assert np.array_equal(batch.velocities, np.zeros((2, 8, 2)))
        assert np.array_equal(batch.endpoint, batch.states[:, 0])
        assert np.array_equal(batch.kpe, np.zeros(2))


class TestIntegrate:
    def test_constant_field_exact(self):
        for method in ("euler", "midpoint"):
            cfg = SolverConfig(method=method, steps=37)
            traj = integrate(constant_field([3.0, 4.0]), np.array([1.0, -1.0]), cfg)
            assert traj.kpe == pytest.approx(12.5, rel=1e-12)
            assert np.allclose(traj.endpoint, [4.0, 3.0], atol=1e-12)

    def test_zero_field(self):
        cfg = SolverConfig(steps=10)
        traj = integrate(constant_field([0.0, 0.0]), np.array([0.5, 0.5]), cfg)
        assert traj.kpe == 0.0
        assert np.array_equal(traj.states[0], traj.states[-1])

    def test_linear_decay_oracle(self):
        # dx/dt = -x from (1, 0): endpoint e^-1, energy (1 - e^-2) / 4
        cfg = SolverConfig(method="euler", steps=1000)
        traj = integrate(decay_field, np.array([1.0, 0.0]), cfg)
        assert traj.endpoint[0] == pytest.approx(np.exp(-1.0), abs=1e-3)
        assert traj.kpe == pytest.approx((1.0 - np.exp(-2.0)) / 4.0, abs=1e-3)

    def test_euler_first_order(self):
        def err(n):
            cfg = SolverConfig(method="euler", steps=n)
            traj = integrate(decay_field, np.array([1.0, 0.0]), cfg)
            return abs(traj.endpoint[0] - np.exp(-1.0))

        ratio = err(200) / err(400)
        assert 2.0 * 0.8 < ratio < 2.0 * 1.2

    def test_midpoint_second_order(self):
        def err(n):
            cfg = SolverConfig(method="midpoint", steps=n)
            traj = integrate(decay_field, np.array([1.0, 0.0]), cfg)
            return abs(traj.endpoint[0] - np.exp(-1.0))

        ratio = err(100) / err(200)
        assert 4.0 * 0.7 < ratio < 4.0 * 1.3

    def test_energy_split_sums(self):
        cfg = SolverConfig(steps=50)
        traj = integrate(decay_field, np.array([2.0, -1.0]), cfg, (KtsSchedule(tau_split=0.45),))
        assert traj.tau_split == 0.45
        assert traj.kpe == pytest.approx(traj.kpe_early + traj.kpe_late, abs=1e-12)
        assert traj.kpe_early > 0 and traj.kpe_late > 0

    def test_energy_additive_over_split_point(self):
        # with the split on the grid, early + late equals the full sum exactly
        cfg = SolverConfig(steps=10)  # grid contains t = 0.3
        traj = integrate(decay_field, np.array([1.0, 1.0]), cfg, (KtsSchedule(tau_split=0.3),))
        full = 0.5 * traj.power.sum() * traj.dt
        assert traj.kpe == pytest.approx(full, rel=1e-13)
        early_steps = traj.times[:-1] < 0.3
        assert traj.kpe_early == pytest.approx(
            0.5 * traj.power[early_steps].sum() * traj.dt, rel=1e-13)

    def test_delta_cut_shortens_grid(self):
        cfg = SolverConfig(steps=100, delta_cut=1e-3)
        traj = integrate(decay_field, np.array([1.0, 0.0]), cfg)
        assert traj.times[-1] == pytest.approx(0.999, abs=1e-15)

    def test_divergence_carries_step(self):
        def explode(x, t):
            return np.array([np.inf, 0.0]) if t > 0.5 else np.zeros(2)

        with pytest.raises(IntegrationDiverged) as err:
            integrate(explode, np.zeros(2), SolverConfig(steps=10))
        assert err.value.step == 6
        # a (d,) start has no row to name
        assert err.value.trajectory is None
        assert [(i, e.step, e.trajectory) for i, e in err.value.failures] == [(0, 6, None)]

    def test_cum_kpe_monotone(self):
        cfg = SolverConfig(steps=25)
        traj = integrate(decay_field, np.array([1.5, 0.5]), cfg)
        cum = traj.cum_kpe()
        assert len(cum) == 26
        assert np.all(np.diff(cum) >= 0)
        assert cum[-1] == pytest.approx(traj.kpe, rel=1e-12)

    def test_start_shapes(self):
        cfg = SolverConfig(steps=4)
        one = integrate(decay_field, [1.0, 2.0], cfg)
        assert one.states.shape == (5, 2) and np.ndim(one.kpe) == 0
        rows = integrate(decay_field, [[1.0, 2.0]], cfg)
        assert rows.states.shape == (1, 5, 2)
        assert_records_equal(rows[0], one)
        for empty in (np.empty((0, 2)), np.empty(0), np.zeros((1, 2, 2)), 1.0):
            with pytest.raises(ValueError, match="start"):
                integrate(decay_field, empty, cfg)

    @pytest.mark.parametrize("kind", ["callable", "efm", "neural"])
    @pytest.mark.parametrize("method", ["euler", "midpoint"])
    def test_non_finite_start_raises_before_any_field_call(self, kind, method):
        field_fn = {"callable": decay_field,
                    "efm": EfmField(np.random.default_rng(1).standard_normal((20, 2))),
                    "neural": NeuralVelocityField(init_params(3))}[kind]
        calls = []

        def counted(x, t):
            calls.append(t)
            return field_fn(x, t)

        cfg = SolverConfig(method=method, steps=4)
        starts = np.array([[0.5, 1.0], [np.nan, 0.0], [np.inf, 1.0]])
        with pytest.raises(ValueError, match=r"start 1 is \[nan, 0.0\]"):
            integrate(counted, starts, cfg)
        with pytest.raises(ValueError, match=r"start 0 is \[-inf, 0.0\]"):
            integrate(counted, np.array([-np.inf, 0.0]), cfg)
        assert calls == []

    def test_schedules_share_one_split(self):
        cfg = SolverConfig(steps=4)
        starts = np.zeros((3, 2))
        with pytest.raises(ValueError, match="tau_split"):
            integrate(decay_field, starts, cfg, (KtsSchedule(tau_split=0.3),
                                                 KtsSchedule(tau_split=0.45)))
        with pytest.raises(ValueError, match="tau_split"):
            sample_batch(decay_field, 3, cfg, (KtsSchedule(), KtsSchedule(tau_split=0.45)))
        with pytest.raises(ValueError, match="schedules"):
            integrate(decay_field, starts, cfg, ())
        # one start takes one schedule: several would need a row axis
        with pytest.raises(ValueError, match="schedules"):
            integrate(decay_field, np.zeros(2), cfg, (KtsSchedule(), KtsSchedule()))

    def test_midpoint_power_uses_midpoint_evaluation(self):
        # for v(x, t) = t the midpoint power is (t_j + dt/2)^2, not t_j^2
        cfg = SolverConfig(method="midpoint", steps=4)
        traj = integrate(lambda x, t: np.array([t, 0.0]), np.zeros(2), cfg)
        mid_ts = traj.times[:-1] + traj.dt / 2
        assert np.allclose(traj.power, mid_ts ** 2, rtol=1e-12)


class TestSampleBatch:
    def test_deterministic(self):
        cfg = SolverConfig(steps=20, seed=9)
        assert_records_equal(sample_batch(decay_field, 5, cfg),
                             sample_batch(decay_field, 5, cfg))

    def test_m1_matches_integrate_on_first_substream(self):
        cfg = SolverConfig(method="midpoint", steps=20, seed=11)
        batch = sample_batch(decay_field, 1, cfg)
        solo = integrate(decay_field, seeded_starts(1, 11)[0], cfg)
        # an integer index drops the row axis: one path, what integrate returns
        assert solo.states.shape == (21, 2) and np.ndim(solo.kpe) == 0
        assert_records_equal(batch[0], solo)

    def test_substreams_differ(self):
        cfg = SolverConfig(steps=5, seed=0)
        batch = sample_batch(decay_field, 4, cfg)
        assert len(np.unique(batch.states[:, 0].round(12), axis=0)) == 4

    def test_zero_gain_shaping_is_bit_identical(self):
        cfg, damped = SolverConfig(steps=30, seed=3), KtsSchedule(beta0=0.02)
        plain = sample_batch(decay_field, 3, cfg)
        shaped = sample_batch(decay_field, 3, cfg, schedules=(KtsSchedule(), damped))
        # each schedule block is its schedule run alone; the identity's is unshaped
        assert_records_equal(shaped[:3], plain)
        assert_records_equal(shaped[3:], sample_batch(decay_field, 3, cfg, schedules=(damped,)))

    def test_collects_failures(self):
        def explode(x, t):
            return np.full(2, np.nan)

        with pytest.raises(IntegrationDiverged) as err:
            sample_batch(explode, 3, SolverConfig(steps=2, seed=0))
        assert len(err.value.failures) == 3

    def test_m_validation(self):
        with pytest.raises(ValueError):
            sample_batch(decay_field, 0, SolverConfig())
        with pytest.raises(ValueError, match="schedules"):
            sample_batch(decay_field, 2, SolverConfig(), schedules=())

    @pytest.mark.parametrize("schedules", [(KtsSchedule(tau_split=0.45),), (
        KtsSchedule(tau_split=0.45), KtsSchedule(alpha0=0.3, beta0=0.1, tau_split=0.45),
        KtsSchedule(beta0=0.02, k=1.0, tau_split=0.45))], ids=["one", "three"])
    @pytest.mark.parametrize("method", ["euler", "midpoint"])
    def test_is_integrate_on_the_seeded_starts(self, method, schedules):
        cfg = SolverConfig(method=method, steps=20, seed=12)
        for field_fn in (decay_field, NeuralVelocityField(init_params(3))):
            want = sample_batch(field_fn, 6, cfg, schedules)
            got = integrate(field_fn, seeded_starts(6, 12), cfg, schedules)
            assert_records_equal(got, want)
            assert (got.tau_split, got.meta) == (0.45, want.meta)

    def test_partial_divergence_leaves_other_rows_alone(self):
        cfg = SolverConfig(steps=10, seed=4)
        solo = loop_reference(decay_field, 5, cfg).states
        blow_at = {1: 2, 3: 5}           # row -> step at which it diverges
        seen = []

        def field(x, t):
            seen.append(x.copy())
            v = -x
            for row, step in blow_at.items():
                v[np.all(x == solo[row][step], axis=1)] = np.nan
            return v

        with pytest.raises(IntegrationDiverged) as err:
            sample_batch(field, 5, cfg)
        assert [(i, e.step, e.trajectory) for i, e in err.value.failures] == \
            [(1, 2, 1), (3, 5, 3)]
        assert (err.value.trajectory, err.value.step) == (1, 2)
        # each call held exactly the rows not yet diverged, in the states the
        # same rows reach when integrated alone
        assert len(seen) == cfg.steps
        for j, x in enumerate(seen):
            alive = [i for i in range(5) if blow_at.get(i, cfg.steps) >= j]
            assert np.array_equal(x, np.array([solo[i][j] for i in alive]))

    def test_midpoint_drops_rows_diverged_in_first_stage(self):
        rows = []

        def field(x, t):
            rows.append(len(x))
            v = -x
            if abs(t - 0.3) < 1e-12:      # the left stage of step 3
                v[0] = np.inf
            return v

        with pytest.raises(IntegrationDiverged) as err:
            sample_batch(field, 4, SolverConfig(method="midpoint", steps=10, seed=1))
        assert [(i, e.step) for i, e in err.value.failures] == [(0, 3)]
        assert rows == [4] * 7 + [3] * 13

    @pytest.mark.parametrize("method, stages", [("euler", 1), ("midpoint", 2)])
    def test_one_field_call_per_stage_per_step(self, method, stages):
        calls = []

        def field(x, t):
            calls.append(x.shape)
            return -x

        sample_batch(field, 7, SolverConfig(method=method, steps=9, seed=2))
        assert calls == [(7, 2)] * (9 * stages)

    @pytest.mark.parametrize("method, stages", [("euler", 1), ("midpoint", 2)])
    def test_one_field_call_per_stage_per_step_over_schedules(self, method, stages):
        calls = []

        def field(x, t):
            calls.append(x.shape)
            return -x

        trajs = sample_batch(field, 8, SolverConfig(method=method, steps=50, seed=2),
                             schedules=SWEEP)
        assert len(SWEEP) == 10 and len(trajs) == 80
        assert calls == [(80, 2)] * (50 * stages)

    def test_divergence_in_one_schedule_block(self):
        cfg = SolverConfig(steps=10, seed=4)
        schedules = (KtsSchedule(), KtsSchedule(alpha0=0.5), KtsSchedule(beta0=0.1))
        m, c, i, step = 4, 1, 2, 3
        solo = [loop_reference(gained(decay_field, s), m, cfg).states for s in schedules]
        seen = []

        def field(x, t):
            seen.append(x.copy())
            v = -x
            v[np.all(x == solo[c][i][step], axis=1)] = np.nan
            return v

        with pytest.raises(IntegrationDiverged) as err:
            sample_batch(field, m, cfg, schedules=schedules)
        row = c * m + i
        assert [(r, e.step, e.trajectory) for r, e in err.value.failures] == \
            [(row, step, row)]
        assert (err.value.trajectory, err.value.step) == (row, step)
        # every other row, in every block, was evaluated at every step in the
        # state it reaches when integrated alone under its own schedule
        assert len(seen) == cfg.steps
        for j, x in enumerate(seen):
            alive = [(b, k) for b in range(len(schedules)) for k in range(m)
                     if (b, k) != (c, i) or j <= step]
            assert np.array_equal(x, np.array([solo[b][k][j] for b, k in alive]))


class TestBatchMatchesLoop:
    """The batched core against per-trajectory integration with B=1 calls.

    Every row of the record equals the loop bitwise for the closed-form field,
    whose rows do not depend on which rows share a call.  The MLP's matrix
    products round one row differently from a block of rows, so neural rows
    agree to 1e-12."""

    @staticmethod
    def assert_matches(field_fn, m, cfg, schedules=(KtsSchedule(),), tol=0.0):
        batch = sample_batch(field_fn, m, cfg, schedules)
        refs = [loop_reference(gained(field_fn, s), m, cfg, s.tau_split) for s in schedules]
        assert len(batch) == len(schedules) * m
        for name in RECORD:
            want = np.concatenate([getattr(ref, name) for ref in refs])
            np.testing.assert_allclose(getattr(batch, name), want, rtol=tol, atol=tol,
                                       err_msg=name)

    def test_neural_euler(self):
        field_fn = NeuralVelocityField(init_params(3))
        self.assert_matches(field_fn, 16, SolverConfig(method="euler", steps=50, seed=8),
                            tol=1e-12)

    def test_efm_top_k_midpoint(self):
        atoms = np.random.default_rng(6).standard_normal((300, 2))
        field_fn = EfmField(atoms, neighbors=30)
        cfg = SolverConfig(method="midpoint", steps=100, delta_cut=1e-3, seed=9)
        self.assert_matches(field_fn, 12, cfg)

    def test_neural_euler_schedules(self):
        field_fn = NeuralVelocityField(init_params(3))
        cfg = SolverConfig(method="euler", steps=50, seed=8)
        self.assert_matches(field_fn, 8, cfg, SWEEP, tol=1e-12)

    def test_efm_top_k_midpoint_schedules(self):
        atoms = np.random.default_rng(6).standard_normal((300, 2))
        field_fn = EfmField(atoms, neighbors=30)
        cfg = SolverConfig(method="midpoint", steps=100, delta_cut=1e-3, seed=9)
        schedules = (KtsSchedule(alpha0=0.3, beta0=0.1, k=2.0, tau_split=0.45),
                     KtsSchedule(tau_split=0.45),
                     KtsSchedule(alpha0=0.02, beta0=0.02, tau_split=0.45))
        self.assert_matches(field_fn, 6, cfg, schedules)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(method="rk4")
        with pytest.raises(ValueError):
            SolverConfig(steps=0)
        with pytest.raises(ValueError):
            SolverConfig(delta_cut=0.5)

    @pytest.mark.parametrize("bad", [2.5, 10.0, True, "10"])
    def test_steps_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match=f"^steps must be an integer >= 1, got {bad!r}$"):
            SolverConfig(steps=bad)


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        cfg = SolverConfig(steps=12, seed=1)
        trajs = sample_batch(decay_field, 3, cfg)
        path = tmp_path / "traces.csv"
        save_traces(trajs, path)
        back = load_traces(path)
        assert len(back) == 3
        for orig, rec in zip(trajs, back):
            assert np.array_equal(rec["t"], orig.times)
            assert np.array_equal(rec["x"], orig.states[:, 0])
            assert np.array_equal(rec["power"][1:], orig.power)
            assert rec["cum_kpe"][-1] == pytest.approx(orig.kpe, rel=1e-12)

    @staticmethod
    def efm_trajectories():
        atoms = np.random.default_rng(8).standard_normal((200, 2))
        cfg = SolverConfig(method="midpoint", steps=40, delta_cut=1e-3, seed=3)
        return sample_batch(EfmField(atoms, neighbors=30), 12, cfg)

    def test_bytes_equal_csv_writer(self, tmp_path):
        trajs = self.efm_trajectories()
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_HEADER)
            for tid, traj in enumerate(trajs):
                cum = traj.cum_kpe()
                stepped = np.concatenate([[0.0], traj.power])
                for j, (t, st) in enumerate(zip(traj.times, traj.states)):
                    writer.writerow([tid, repr(float(t)), repr(float(st[0])),
                                     repr(float(st[1])), repr(float(stepped[j])),
                                     repr(float(cum[j]))])
        save_traces(trajs, tmp_path / "got.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + 12 * 41

    def test_load_equals_float_parsing(self, tmp_path):
        path = tmp_path / "traces.csv"
        save_traces(self.efm_trajectories(), path)
        rows: dict[int, list] = {}
        with open(path, newline="") as fh:
            for row in list(csv.reader(fh))[1:]:
                rows.setdefault(int(row[0]), []).append([float(v) for v in row[1:]])
        back = load_traces(path)
        assert [tr["traj_id"] for tr in back] == sorted(rows)
        for tr in back:
            want = np.array(rows[tr["traj_id"]])
            assert type(tr["traj_id"]) is int
            for col, key in enumerate(TRACE_HEADER[1:]):
                assert tr[key].dtype == np.float64
                assert np.array_equal(tr[key], want[:, col])

    def test_interleaved_ids_grouped_in_file_order(self, tmp_path):
        path = tmp_path / "traces.csv"
        lines = [",".join(TRACE_HEADER), "1,0.0,1,1,0.0,0.0", "0,0.0,2,2,0.0,0.0",
                 "1,0.5,3,3,4.0,1.0", "2,0.0,4,4,0.0,0.0", "0,0.5,5,5,1.0,0.25"]
        path.write_text("\r\n".join(lines) + "\r\n")
        back = load_traces(path)
        assert [tr["traj_id"] for tr in back] == [0, 1, 2]
        assert back[0]["x"].tolist() == [2.0, 5.0]
        assert back[1]["x"].tolist() == [1.0, 3.0]
        assert back[1]["cum_kpe"].tolist() == [0.0, 1.0]
        assert back[2]["t"].tolist() == [0.0]

    def test_header_and_ids_checked(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text("traj_id,t,x,y,power,kpe\r\n0,0.0,1,1,0.0,0.0\r\n")
        with pytest.raises(ValueError, match="expected header"):
            load_traces(path)
        path.write_text("")
        with pytest.raises(ValueError, match="expected header"):
            load_traces(path)
        path.write_text("traj_id,t,x,y,power,cum_kpe\r\n0.5,0.0,1,1,0.0,0.0\r\n")
        with pytest.raises(ValueError, match="integers"):
            load_traces(path)

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "traces.csv"
        save_traces(sample_batch(decay_field, 2, SolverConfig(steps=3))[:0], path)
        assert path.read_bytes() == b"traj_id,t,x,y,power,cum_kpe\r\n"
        assert load_traces(path) == []

    def test_summary_fields(self):
        cfg = SolverConfig(steps=8, seed=2)
        trajs = sample_batch(decay_field, 2, cfg, (KtsSchedule(tau_split=0.45),))
        summary = batch_summary(trajs)
        assert len(summary["trajectories"]) == 2
        row = summary["trajectories"][0]
        assert set(row) == {"id", "kpe", "kpe_early", "kpe_late", "endpoint"}
        assert row["kpe"] == pytest.approx(row["kpe_early"] + row["kpe_late"])
        # the solver block holds the solver settings and the energy split;
        # callers add their own labels
        assert summary["solver"] == {"method": "euler", "steps": 8, "delta_cut": 0.0,
                                     "tau_split": 0.45}


_ATOMS = np.random.default_rng(0).standard_normal((12, 2))
_COUNT_CALLS = {
    "sample_batch": lambda v: sample_batch(constant_field([1.0, 0.0]), v, SolverConfig(steps=2)),
    "cfm_loss_grad": lambda v: cfm_loss_grad(init_params(0), _ATOMS, v,
                                             np.random.default_rng(0)),
    "EfmField": lambda v: EfmField(_ATOMS, neighbors=v),
    "knn_density": lambda v: knn_density(_ATOMS, _ATOMS[:3], v),
    "f_mem": lambda v: f_mem(_ATOMS[:3], _ATOMS, k_mem=v),
    "sample_dominant_points": lambda v: sample_dominant_points(
        EfmField(_ATOMS), [0.5], 0.1, v, np.random.default_rng(0)),
    "generate": lambda v: generate("dense_sparse", v, 0),
}


@pytest.mark.parametrize("call, name, value", [
    ("sample_batch", "m", 2.5), ("sample_batch", "m", True),
    ("cfm_loss_grad", "batch", 2.5),
    ("EfmField", "neighbors", 2.5), ("EfmField", "neighbors", True),
    ("knn_density", "k", 2.5), ("f_mem", "k_mem", 2.5),
    ("sample_dominant_points", "per_time", 2.5),
    ("generate", "n", 10.0), ("generate", "n", 9),
])
def test_count_arguments_share_one_rule(call, name, value):
    # each count goes through check_count, so a float or a bool fails at once,
    # naming the argument, not deep inside numpy, and a bool never counts as 1
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= \d+, got {value!r}$"):
        _COUNT_CALLS[call](value)
