"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The energy/density
reproductions (criteria 1-4) use the reduced "ci" profile: n=500 training
points, 5000 training iterations (20 000 for ``sandwich``), 200 trajectories,
50 Euler steps; the closed-form comparisons use the midpoint solver with 100
steps and 100-atom softmax truncation.

Criterion 1 on two datasets needs more than the literal inversion assertion,
because the literal assertion fails there for reasons outside the program:

* ``multiscale_clusters``: the sparse stratum is the centre blob, which is
  the mode of the N(0, I) start distribution, not a low-density frontier.
  The population-optimal field of this Gaussian mixture is closed form
  (:func:`multiscale_exact_field`); from the test's 200 starts it gives mean
  energy 0.16 (sparse) vs 1.34 (dense) and rho_kde = +0.33, the reverse of
  the inversion, so no training can produce the inversion.  The test takes
  the expected direction from the exact field, asserts that the exact field
  separates the strata, and asserts that the trained field separates them in
  that direction at the usual strength (p < 1e-3, |rho_kde| > 0.3).
* ``sandwich``: at 5000 iterations the model is still on a training plateau:
  about a third of its endpoints land in the empty gap 0.45 < |y| < 1.2 that
  holds 1.6% of the generator's mass.  Those endpoints have the lowest density
  but only middling energy, which flattens the KDE rank correlation (-0.16;
  -0.07 against the exact generator density, so no density estimate rescues
  it).  The sandwich model is therefore trained for 20 000 iterations, and the
  test first asserts the premise that at most 15% of endpoints lie in the gap.
"""

import math

import numpy as np
import pytest

import kinflow as kf
from kinflow import net
from kinflow.efm import EfmField, MixtureModel, linear_schedule
from kinflow.theory import (blowup_probe, bound_constants,
                            check_energy_density_bounds,
                            check_local_gaussian_remainder,
                            check_score_remainder, sample_dominant_points,
                            universal_lower_bound_check)

CI_N = 500
CI_ITERS = 5000
#: the sandwich model is still on a training plateau at CI_ITERS (see the
#: module docstring); 20 000 iterations take it off
CI_ITERS_BY_KIND = {"sandwich": 20_000}
CI_M = 200
CI_STEPS = 50
DATA_SEEDS = {"dense_sparse": 7, "multiscale_clusters": 11, "sandwich": 13}
TRAIN_SEED = 1
SOLVER_SEED = 5

#: the multiscale_clusters generator as documented in kinflow.datasets: a
#: centre N(0, 0.6^2 I) and four clusters N(c, 0.08^2 I), weight 0.2 each
MULTISCALE_MEANS = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [-2.0, 0.0],
                             [0.0, -2.0]])
MULTISCALE_SIGMAS = np.array([0.6, 0.08, 0.08, 0.08, 0.08])

#: |y| range between the sandwich bands; the generator puts 1.6% of its
#: mass here
SANDWICH_GAP = (0.45, 1.2)
MAX_GAP_SHARE = 0.15


def _line(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def ci_models():
    """Trained ci-profile model per dataset kind, built once."""
    cache = {}

    def get(kind):
        if kind not in cache:
            data = kf.generate(kind, CI_N, DATA_SEEDS[kind])
            iters = CI_ITERS_BY_KIND.get(kind, CI_ITERS)
            result = kf.train(data.points, kf.TrainConfig(iterations=iters,
                                                          seed=TRAIN_SEED))
            cache[kind] = (data, result.params)
        return cache[kind]

    return get


@pytest.fixture(scope="module")
def midpoint_runs(ci_models):
    """Vanilla and closed-form midpoint-100 batches per dataset kind."""
    cache = {}

    def get(kind):
        if kind not in cache:
            data, params = ci_models(kind)
            van_cfg = kf.SolverConfig(method="midpoint", steps=100,
                                      delta_cut=0.0, seed=SOLVER_SEED)
            efm_cfg = kf.SolverConfig(method="midpoint", steps=100,
                                      delta_cut=1e-3, seed=SOLVER_SEED)
            vanilla = kf.sample_batch(kf.NeuralVelocityField(params), CI_M, van_cfg)
            efm = kf.sample_batch(EfmField(data.points, neighbors=100), CI_M,
                                  efm_cfg)
            cache[kind] = (data, vanilla, efm)
        return cache[kind]

    return get


def multiscale_exact_field(x, t: float) -> np.ndarray:
    """Population-optimal velocity E[z - eps | x_t = x] of multiscale_clusters.

    Given component k with mean c and scale s, (z - eps, x_t) is jointly
    Gaussian with x_t ~ N(t c, var I), var = t^2 s^2 + (1 - t)^2, so
    E[z - eps | x_t, k] = c + (t s^2 - (1 - t)) / var * (x_t - t c).  The
    components are averaged with their posterior weights (equal priors).
    """
    x = np.asarray(x, dtype=np.float64)
    xs = x[None, :] if x.ndim == 1 else x
    var = (t * MULTISCALE_SIGMAS) ** 2 + (1.0 - t) ** 2
    resid = xs[:, None, :] - t * MULTISCALE_MEANS[None, :, :]
    logp = -(resid ** 2).sum(axis=2) / (2.0 * var) - np.log(var)
    post = np.exp(logp - logp.max(axis=1, keepdims=True))
    post /= post.sum(axis=1, keepdims=True)
    gain = (t * MULTISCALE_SIGMAS ** 2 - (1.0 - t)) / var
    cond = MULTISCALE_MEANS[None, :, :] + gain[None, :, None] * resid
    out = np.einsum("bk,bkd->bd", post, cond)
    return out[0] if x.ndim == 1 else out


def test_multiscale_exact_field_matches_efm():
    """The closed-form multiscale field agrees with the closed-form empirical
    field over a 40 000-point generator sample to 5e-3 (Monte-Carlo error)."""
    data = kf.generate("multiscale_clusters", 40_000,
                       DATA_SEEDS["multiscale_clusters"])
    efm = EfmField(data.points)
    queries = np.random.default_rng(SOLVER_SEED).standard_normal((200, 2))
    for t in (0.1, 0.3):
        # chunks of 50 queries bound the (B, N, 2) distance tensor to 32 MB
        approx = np.concatenate([efm(queries[i:i + 50], t)
                                 for i in range(0, len(queries), 50)])
        worst = float(np.abs(multiscale_exact_field(queries, t) - approx).max())
        assert worst < 5e-3, f"t={t}: max deviation {worst:.2e}"


def _euler_kpe_report(field_fn, data):
    cfg = kf.SolverConfig(method="euler", steps=CI_STEPS, delta_cut=0.0,
                          seed=SOLVER_SEED)
    batch = kf.sample_batch(field_fn, CI_M, cfg)
    return kf.kpe_density_report(batch.kpe, batch.endpoint, data), batch.endpoint


@pytest.mark.parametrize("kind", ["dense_sparse", "multiscale_clusters",
                                  "sandwich"])
def test_criterion_1_kpe_density_inversion(ci_models, kind):
    """Energy must separate the density strata (Mann-Whitney p < 1e-3) and
    rank-correlate with KDE log-density at magnitude above 0.3, in the
    expected direction.

    The expected direction is the inversion (sparse trajectories carry more
    energy, rho_kde < -0.3) except on multiscale_clusters, where it is taken
    from the exact field.  Each dataset's premise is asserted first: the exact
    field separates the multiscale strata itself, and the sandwich model has
    left its plateau (at most 15% of endpoints in the gap between the bands).
    """
    data, params = ci_models(kind)
    report, endpoints = _euler_kpe_report(kf.NeuralVelocityField(params), data)

    inverted = True
    premise_ok = True
    premise = ""
    if kind == "multiscale_clusters":
        exact, _ = _euler_kpe_report(multiscale_exact_field, data)
        inverted = exact.mean_kpe_sparse > exact.mean_kpe_dense
        premise_ok = exact.mwu_p < 1e-3 and (exact.rho_kde < 0) == inverted
        premise = (f"; exact field: mwu_p={exact.mwu_p:.2e} "
                   f"sparse={exact.mean_kpe_sparse:.2f} "
                   f"dense={exact.mean_kpe_dense:.2f} rho_kde={exact.rho_kde:.3f}")
    elif kind == "sandwich":
        abs_y = np.abs(endpoints[:, 1])
        gap_share = float(np.mean((abs_y > SANDWICH_GAP[0])
                                  & (abs_y < SANDWICH_GAP[1])))
        premise_ok = gap_share <= MAX_GAP_SHARE
        premise = f"; gap_share={gap_share:.3f} (max {MAX_GAP_SHARE})"

    rho_sign = -1.0 if inverted else 1.0
    direction_ok = (report.mean_kpe_sparse > report.mean_kpe_dense) == inverted
    mwu_ok = report.mwu_p < 1e-3 and direction_ok
    rho_ok = rho_sign * report.rho_kde > 0.3
    broken = [name for name, ok in (("premise", premise_ok), ("strata", mwu_ok),
                                    ("rho_kde", rho_ok)) if not ok]
    expect = ("sparse>dense rho_kde<-0.3" if inverted
              else "sparse<dense rho_kde>+0.3")
    detail = (f"{kind}: expect {expect}; mwu_p={report.mwu_p:.2e} "
              f"sparse={report.mean_kpe_sparse:.2f} "
              f"dense={report.mean_kpe_dense:.2f} "
              f"rho_kde={report.rho_kde:.3f}{premise}"
              + (f"; broken: {','.join(broken)}" if broken else ""))
    _line(f"1[{kind}]", not broken, detail)
    assert premise_ok, f"premise of the check does not hold: {detail}"
    assert mwu_ok, f"stratum energy separation not observed: {detail}"
    assert rho_ok, f"KDE rank correlation too weak or reversed: {detail}"


def test_criterion_2_efm_power_spikes(midpoint_runs):
    """Closed-form sampling must spike: peak mean power at least 1.3x the
    neural baseline on two of three datasets, with the peak after t = 0.5."""
    satisfied = 0
    details = []
    for kind in DATA_SEEDS:
        _, vanilla, efm = midpoint_runs(kind)
        van_peak = vanilla.power.mean(axis=0).max()
        efm_mean = efm.power.mean(axis=0)
        efm_peak = float(efm_mean.max())
        peak_t = float(efm.times[:-1][int(efm_mean.argmax())])
        ok = efm_peak >= 1.3 * van_peak and peak_t > 0.5
        satisfied += ok
        details.append(f"{kind}: ratio={efm_peak / van_peak:.2f} peak_t={peak_t:.3f}")
    detail = "; ".join(details)
    _line("2", satisfied >= 2, detail)
    assert satisfied >= 2, detail


def test_criterion_3_efm_memorization(midpoint_runs):
    """Closed-form endpoints replicate training atoms (F_mem >= 0.95) while
    the trained network stays at least 20 points lower."""
    data, vanilla, efm = midpoint_runs("dense_sparse")
    efm_mem = kf.f_mem(efm.endpoint, data.points).f_mem
    van_mem = kf.f_mem(vanilla.endpoint, data.points).f_mem
    ok = efm_mem >= 0.95 and van_mem <= efm_mem - 0.20
    detail = f"efm={efm_mem:.3f} vanilla={van_mem:.3f}"
    _line("3", ok, detail)
    assert efm_mem >= 0.95, detail
    assert van_mem <= efm_mem - 0.20, detail


def test_criterion_4_kts_directions(ci_models):
    """Early boost raises early energy, late damping lowers late energy, and
    damping does not increase memorization."""
    data, params = ci_models("dense_sparse")
    cfg = kf.SolverConfig(method="euler", steps=CI_STEPS, delta_cut=0.0,
                          seed=SOLVER_SEED)
    grid = [0.0, 0.01, 0.02]
    cells = [(a0, b0) for a0 in grid for b0 in grid]
    batch = kf.sample_batch(kf.NeuralVelocityField(params), CI_M, cfg,
                            schedules=[kf.KtsSchedule(alpha0=a0, beta0=b0)
                                       for a0, b0 in cells])
    early = {}
    late = {}
    fmem = {}
    for c, cell in enumerate(cells):
        block = batch[c * CI_M:(c + 1) * CI_M]
        early[cell] = float(np.mean(block.kpe_early))
        late[cell] = float(np.mean(block.kpe_late))
        fmem[cell] = kf.f_mem(block.endpoint, data.points).f_mem

    early_ok = all(early[grid[i], b] <= early[grid[i + 1], b] + 1e-12
                   for b in grid for i in range(2))
    early_strict = all(early[0.02, b] > early[0.0, b] for b in grid)
    late_ok = all(late[a, grid[i]] >= late[a, grid[i + 1]] - 1e-12
                  for a in grid for i in range(2))
    late_strict = all(late[a, 0.02] < late[a, 0.0] for a in grid)
    mem_ok = fmem[0.0, 0.02] <= fmem[0.0, 0.0]
    ok = early_ok and early_strict and late_ok and late_strict and mem_ok
    detail = (f"early(a0=0->0.02, b0=0): {early[0.0, 0.0]:.3f}->{early[0.02, 0.0]:.3f}, "
              f"late(b0=0->0.02, a0=0): {late[0.0, 0.0]:.3f}->{late[0.0, 0.02]:.3f}, "
              f"f_mem {fmem[0.0, 0.0]:.3f}->{fmem[0.0, 0.02]:.3f}")
    _line("4", ok, detail)
    assert early_ok and early_strict, f"early-energy direction failed: {detail}"
    assert late_ok and late_strict, f"late-energy direction failed: {detail}"
    assert mem_ok, f"memorization direction failed: {detail}"


def test_criterion_5_energy_density_bound_suite():
    """100% bound pass rate over >= 10,000 dominant points across dimensions,
    mixture sizes, times, and dominance levels; exact linear-bridge slopes."""
    rng = np.random.default_rng(2024)
    ts = np.linspace(0.1, 0.9, 9)

    for t in ts:
        m1 = MixtureModel(np.zeros((1, 2)), linear_schedule())
        consts = bound_constants(m1, float(t), 0, 0.1)
        assert abs(consts.lower_slope - 0.5) <= 1e-14
        assert abs(consts.upper_slope - 12.0) <= 1e-14

    total = 0
    failures = 0
    remainder_failures = 0
    for dim in (1, 2, 5):
        for n_atoms in (1, 5, 50):
            atoms = 30.0 * rng.standard_normal((n_atoms, dim))
            mix = MixtureModel(atoms, linear_schedule())
            for eps in (0.05, 0.1, 0.3):
                points, _ = sample_dominant_points(mix, ts, eps, 60, rng)
                report = check_energy_density_bounds(mix, points, eps)
                total += report.n_checked
                failures += report.n_failed
                for z, t in points:
                    lg = check_local_gaussian_remainder(mix, z, t, eps)
                    sr = check_score_remainder(mix, z, t, eps)
                    if (lg is not None and not lg[1]) or (sr is not None and not sr[1]):
                        remainder_failures += 1

    ok = total >= 10_000 and failures == 0 and remainder_failures == 0
    detail = (f"{total} dominant points, {failures} bound violations, "
              f"{remainder_failures} remainder violations")
    _line("5", ok, detail)
    assert total >= 10_000, detail
    assert failures == 0, detail
    assert remainder_failures == 0, detail


def test_criterion_6_velocity_identity_and_score():
    """The softmax-bridge and score-form velocities agree to 1e-10, and the
    analytic score matches central differences of the log-density to 1e-5."""
    rng = np.random.default_rng(77)
    worst_identity = 0.0
    for _ in range(1000):
        atoms = rng.standard_normal((int(rng.integers(1, 25)),
                                     int(rng.integers(1, 4))))
        mix = MixtureModel(atoms, linear_schedule())
        z = 2.0 * rng.standard_normal(atoms.shape[1])
        t = float(rng.uniform(0.05, 0.95))
        v_score = kf.general_velocity(mix, z, t)
        v_bridge = EfmField(atoms)(z, t)
        err = np.linalg.norm(v_score - v_bridge) / (1.0 + np.linalg.norm(v_bridge))
        worst_identity = max(worst_identity, err)

    worst_score = 0.0
    h = 1e-6
    for _ in range(200):
        atoms = 2.0 * rng.standard_normal((6, 2))
        mix = MixtureModel(atoms, linear_schedule())
        z = rng.standard_normal(2)
        t = float(rng.uniform(0.1, 0.9))
        s = kf.mixture_score(mix, z, t)
        fd = np.zeros(2)
        for i in range(2):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd[i] = (kf.mixture_log_density(mix, zp, t)
                     - kf.mixture_log_density(mix, zm, t)) / (2 * h)
        worst_score = max(worst_score,
                          np.linalg.norm(s - fd) / max(np.linalg.norm(s), 1e-9))

    ok = worst_identity < 1e-10 and worst_score < 1e-5
    detail = f"identity={worst_identity:.2e} score_fd={worst_score:.2e}"
    _line("6", ok, detail)
    assert worst_identity < 1e-10, detail
    assert worst_score < 1e-5, detail


def test_criterion_7_concentration_and_blowup():
    """The posterior concentration bound is never violated on frozen probes;
    the single-atom terminal energy matches its analytic form to 1e-6 and
    doubles when the cutoff halves."""
    rng = np.random.default_rng(31)
    conc_violations = 0
    for _ in range(25):
        atoms = 4.0 * rng.standard_normal((int(rng.integers(2, 8)), 2))
        mix = MixtureModel(atoms, linear_schedule())
        x = atoms[0] + rng.uniform(0.2, 0.6) * rng.standard_normal(2)
        ts = np.linspace(0.9, 0.999, 12)
        s_end = ((x[None, :] - 0.999 * atoms) ** 2).sum(axis=1)
        order = np.sort(s_end)
        margin = 0.5 * (order[1] - order[0])
        if margin <= 0:
            continue
        report = kf.check_concentration(mix, x, ts, margin=margin)
        conc_violations += sum(1 for e in report.entries
                               if e.margin_ok and not e.passed)

    single = EfmField(np.array([[0.0, 0.0]]))
    probe = blowup_probe(single, np.array([1.0, 0.0]), c=1.0,
                         deltas=[1e-2, 5e-3, 1e-3, 5e-4, 1e-4, 5e-5])
    worst_rel = 0.0
    for entry in probe.entries:
        analytic = 1.0 / entry.delta - 1.0 / (1.0 - probe.t_bar)
        worst_rel = max(worst_rel, abs(entry.integral - analytic) / analytic)
    i_by_delta = {e.delta: e.integral for e in probe.entries}
    ratios = [i_by_delta[5e-3] / i_by_delta[1e-2],
              i_by_delta[5e-4] / i_by_delta[1e-3],
              i_by_delta[5e-5] / i_by_delta[1e-4]]
    ratios_ok = all(1.8 <= r <= 2.2 for r in ratios)

    ok = conc_violations == 0 and worst_rel < 1e-6 and ratios_ok and probe.all_passed
    detail = (f"concentration_violations={conc_violations} "
              f"analytic_rel_err={worst_rel:.2e} halving_ratios="
              + ",".join(f"{r:.3f}" for r in ratios))
    _line("7", ok, detail)
    assert conc_violations == 0, detail
    assert worst_rel < 1e-6, detail
    assert ratios_ok and probe.all_passed, detail


def test_criterion_8_universal_tail_bound():
    """The Cauchy-Schwarz tail bound holds on 100 random atom-terminating
    paths, with equality for the straight constant-speed path."""
    rng = np.random.default_rng(8)
    all_ok = True
    for _ in range(100):
        atom = rng.standard_normal(2)
        n = int(rng.integers(20, 150))
        times = np.linspace(0.0, 1.0, n + 1)
        states = 0.4 * rng.standard_normal((n + 1, 2)).cumsum(axis=0)
        states += atom - states[-1]
        t_start = float(times[rng.integers(0, n)])
        _, _, ok = universal_lower_bound_check(times, states, atom, t_start)
        all_ok = all_ok and ok

    atom = np.array([1.0, 0.0])
    times = np.linspace(0.0, 1.0, 401)
    states = np.array([-1.0, 0.0]) + (times[:, None]) * np.array([2.0, 0.0])
    lhs, rhs, _ = universal_lower_bound_check(times, states, atom, 0.5)
    equality_err = abs(lhs - rhs) / rhs

    ok = all_ok and equality_err < 1e-6
    detail = f"paths_ok={all_ok} straight_equality_err={equality_err:.2e}"
    _line("8", ok, detail)
    assert all_ok, detail
    assert equality_err < 1e-6, detail


def test_criterion_9_training_gradients():
    """Every analytic gradient entry matches central finite differences on a
    fixed 10-point instance, and the two bridge-target forms give identical
    losses for times bounded away from one."""
    points = np.random.default_rng(4).standard_normal((10, 2))
    params = net.init_params(11)
    rng = np.random.default_rng(5)
    idx = rng.integers(0, len(points), 8)
    t = rng.random(8) * (1 - 1e-6)
    eps = rng.standard_normal((8, 2))
    z = points[idx]
    x_t = t[:, None] * z + (1 - t[:, None]) * eps
    target = z - eps

    inputs = net._build_inputs(x_t, t)
    cache = net._layer_buffers(len(x_t))

    def loss_of():
        out = net._forward(params, inputs, cache)
        return float(((out - target) ** 2).sum(axis=1).mean())

    resid = net._forward(params, inputs, cache) - target
    grads = net.zero_params()
    net._backward(params, inputs, cache, 2.0 * resid / len(x_t), grads)

    h = 1e-5
    worst = 0.0
    for g_group, p_group in ((grads.weights, params.weights),
                             (grads.biases, params.biases)):
        for g, p in zip(g_group, p_group):
            flat_g = g.ravel()
            flat_p = p.ravel()
            for k in range(flat_p.size):
                orig = flat_p[k]
                flat_p[k] = orig + h
                up = loss_of()
                flat_p[k] = orig - h
                dn = loss_of()
                flat_p[k] = orig
                fd = (up - dn) / (2 * h)
                rel = abs(fd - flat_g[k]) / max(abs(fd), abs(flat_g[k]), 1e-6)
                worst = max(worst, rel)

    # times follow the training sampler's distribution on [0, 1 - 1e-6); at
    # the closed right endpoint itself the 1/(1 - t) division amplifies the
    # input rounding of x_t to the order of the tolerance, so only the open
    # interval is informative about the formulas
    rng2 = np.random.default_rng(7)
    z2 = rng2.standard_normal((500, 2))
    t2 = np.concatenate([rng2.random(499) * (1 - 1e-6), [0.0]])
    eps2 = rng2.standard_normal((500, 2))
    x2 = t2[:, None] * z2 + (1 - t2[:, None]) * eps2
    v = net.forward(params, x2, t2)
    loss_a = ((v - (z2 - eps2)) ** 2).sum(axis=1)
    loss_b = ((v - (z2 - x2) / (1 - t2[:, None])) ** 2).sum(axis=1)
    target_gap = float(np.max(np.abs(loss_a - loss_b) / (1.0 + loss_a)))

    ok = worst < 1e-4 and target_gap <= 1e-10
    detail = f"grad_rel_err={worst:.2e} target_form_gap={target_gap:.2e}"
    _line("9", ok, detail)
    assert worst < 1e-4, detail
    assert target_gap <= 1e-10, detail


def test_criterion_10_sampler_and_statistics_oracles():
    """Closed-form ODE and small-sample statistics oracles hold exactly."""
    cfg = kf.SolverConfig(method="euler", steps=1000)
    traj = kf.integrate(lambda x, t: -np.asarray(x), np.array([1.0, 0.0]), cfg)
    endpoint_err = abs(traj.endpoint[0] - math.exp(-1.0))
    kpe_err = abs(traj.kpe - (1.0 - math.exp(-2.0)) / 4.0)

    stats_ok = (
        kf.spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        and kf.spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)
        and kf.spearman([1, 2, 3], [2, 1, 3]) == pytest.approx(0.5)
        and kf.cliffs_delta([1, 2], [3, 4]) == -1.0
        and kf.cliffs_delta([1, 3], [2]) == 0.0
        and kf.mann_whitney_u([1, 2], [3, 4])[0] == 0.0
        and kf.mann_whitney_u([1, 2], [3, 4])[1] == pytest.approx(1.0 / 3.0)
        and kf.cohens_d([0.0, 2.0], [1.0, 3.0]) == pytest.approx(-1.0 / math.sqrt(2))
    )

    rng = np.random.default_rng(10)
    metric_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 10))
        a, b, c = (rng.standard_normal((n, 2)) for _ in range(3))
        dab, dba = kf.exact_w2(a, b), kf.exact_w2(b, a)
        metric_ok &= abs(dab - dba) <= 1e-9
        metric_ok &= dab <= kf.exact_w2(a, c) + kf.exact_w2(c, b) + 1e-9

    ok = endpoint_err < 1e-3 and kpe_err < 1e-3 and stats_ok and metric_ok
    detail = (f"endpoint_err={endpoint_err:.2e} kpe_err={kpe_err:.2e} "
              f"stats_ok={stats_ok} w2_metric_ok={metric_ok}")
    _line("10", ok, detail)
    assert endpoint_err < 1e-3 and kpe_err < 1e-3, detail
    assert stats_ok, detail
    assert metric_ok, detail
