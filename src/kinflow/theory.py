"""Numerical verification of the energy-density and terminal blow-up bounds.

Under posterior dominance (one component holds weight >= 1 - eps), the squared
speed of the closed-form velocity field is affinely bounded by the negative
log-density of the intermediate mixture:

    lower_slope * (-log p_t(z)) - offset  <=  ||u(z, t)||^2
                                          <=  upper_slope * (-log p_t(z)) + offset

with lower_slope = m^2 sigma^2 / 2 and upper_slope = 12 m^2 sigma^2, where
m(t) = -gdot / (1 - gamma).  For the linear schedule both slopes are exactly
1/2 and 12.  The offset collects the dominant component's geometry, the
mixture size, and the dominance slack; every term is computed explicitly so
the checks are sharp up to floating point.

The module also verifies the supporting approximation bounds (local Gaussian
remainder, score remainder), the terminal posterior concentration bound, the
terminal energy blow-up of a frozen off-manifold point, and the
Cauchy-Schwarz lower bound on the tail energy of any atom-terminating path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .efm import (EfmField, MixtureModel, T_CLAMP, _efm_rows, dominance,
                  mixture_log_density, mixture_score, general_velocity,
                  posterior_weights)

#: relative slack for exact pointwise inequalities
REL_SLACK = 1e-9


@dataclass(frozen=True)
class BoundConstants:
    """Explicit constants of the energy-density bounds at one (t, i*, eps)."""

    t: float
    eps: float
    i_star: int
    dim: int
    n_atoms: int
    m2_sigma2: float       # m(t)^2 sigma_t^2; exactly 1 for the linear schedule
    lower_slope: float     # m^2 sigma^2 / 2
    upper_slope: float     # 12 m^2 sigma^2
    mean_spread: float     # max_j ||mu_j - mu_i*||
    drift_norm: float      # ||(alpha / sigma^2) mu_i*||
    score_slack: float     # |alpha| * (eps / sigma^2) * mean_spread
    offset_lower: float
    offset_upper: float
    log_norm_const: float  # (d/2) log 2 pi + (d/2) log sigma^2 + log N
    log_slack: float       # |log_norm_const| - log(1 - eps)
    offset: float          # max of the two assembled offsets


def bound_constants(m: MixtureModel, t: float, i_star: int, eps: float) -> BoundConstants:
    g = m.schedule.gamma(t)
    gdot = m.schedule.gamma_dot(t)
    if not (0.0 < g < 1.0):
        raise ValueError(f"gamma(t) must lie in (0, 1); got {g}")
    one_minus_g = 1.0 - g
    sigma2 = one_minus_g * one_minus_g
    # written as a ratio of identical expressions so the linear schedule gives 1.0 exactly
    m2_sigma2 = (gdot * gdot) * sigma2 / (one_minus_g * one_minus_g)
    c1 = 0.5 * m2_sigma2
    c2 = 12.0 * m2_sigma2

    mus = g * m.atoms
    mu_star = mus[i_star]
    spread = float(np.sqrt(((mus - mu_star) ** 2).sum(axis=1)).max())
    alpha = gdot * sigma2 / (g * one_minus_g)
    drift = float(np.linalg.norm((alpha / sigma2) * mu_star))
    score_slack = abs(alpha) * (eps / sigma2) * spread
    f_t = drift + score_slack
    mu_norm2 = float(mu_star @ mu_star)
    off_lower = 0.5 * m2_sigma2 / sigma2 * mu_norm2 + 2.0 * f_t ** 2
    off_upper = 6.0 * m2_sigma2 / sigma2 * mu_norm2 + 3.0 * (drift ** 2 + score_slack ** 2)

    d = m.dim
    c0 = 0.5 * d * np.log(2.0 * np.pi) + 0.5 * d * np.log(sigma2) + np.log(m.n_atoms)
    k_t = abs(c0) - np.log1p(-eps)
    offset = max(off_lower + c1 * k_t, off_upper + c2 * k_t)
    return BoundConstants(t=t, eps=eps, i_star=i_star, dim=d, n_atoms=m.n_atoms,
                          m2_sigma2=m2_sigma2, lower_slope=c1, upper_slope=c2,
                          mean_spread=spread, drift_norm=drift,
                          score_slack=score_slack, offset_lower=off_lower,
                          offset_upper=off_upper, log_norm_const=float(c0),
                          log_slack=float(k_t), offset=float(offset))


@dataclass(frozen=True)
class BoundCheckEntry:
    z: np.ndarray
    t: float
    i_star: int | None
    lam_star: float
    neg_log_density: float
    energy: float
    lower: float
    upper: float
    passed: bool
    skipped: str | None = None


@dataclass
class BoundCheckReport:
    entries: list[BoundCheckEntry] = field(default_factory=list)

    @property
    def n_checked(self) -> int:
        return sum(1 for e in self.entries if e.skipped is None)

    @property
    def n_skipped(self) -> int:
        return sum(1 for e in self.entries if e.skipped is not None)

    @property
    def n_failed(self) -> int:
        return sum(1 for e in self.entries if e.skipped is None and not e.passed)

    @property
    def pass_rate(self) -> float:
        checked = self.n_checked
        return 1.0 if checked == 0 else 1.0 - self.n_failed / checked


def check_energy_density_bounds(m: MixtureModel, points, eps: float,
                                rel_slack: float = REL_SLACK) -> BoundCheckReport:
    """Verify the affine energy-density bounds at each dominant (z, t).

    Points that fail the dominance precondition are recorded as skipped, not
    as failures.  A bound counts as violated only beyond ``rel_slack``
    relative to the bound's own scale.
    """
    entries: list[BoundCheckEntry | None] = [None] * len(points)
    by_time: dict[float, list[int]] = {}
    for j, (_, t) in enumerate(points):
        by_time.setdefault(t, []).append(j)
    for t, idx in by_time.items():
        zs = np.array([points[j][0] for j in idx], dtype=np.float64)
        lam = posterior_weights(m, zs, t)
        nlds = -mixture_log_density(m, zs, t)
        for j, z, lam_z, nld in zip(idx, zs, lam, nlds.tolist()):
            i_star = int(np.argmax(lam_z))
            if lam_z[i_star] < 1.0 - eps:
                entries[j] = BoundCheckEntry(
                    z, t, None, float(lam_z[i_star]), np.nan, np.nan, np.nan, np.nan,
                    passed=False, skipped="dominance")
                continue
            consts = bound_constants(m, t, i_star, eps)
            u = general_velocity(m, z, t)
            energy = float(u @ u)
            lower = consts.lower_slope * nld - consts.offset
            upper = consts.upper_slope * nld + consts.offset
            tol_lo = rel_slack * max(1.0, abs(lower), energy)
            tol_hi = rel_slack * max(1.0, abs(upper), energy)
            ok = (energy >= lower - tol_lo) and (energy <= upper + tol_hi)
            entries[j] = BoundCheckEntry(
                z, t, i_star, float(lam_z[i_star]), nld, energy,
                float(lower), float(upper), passed=ok)
    return BoundCheckReport(entries)


def check_local_gaussian_remainder(m: MixtureModel, z, t: float, eps: float,
                                   rel_slack: float = REL_SLACK):
    """Remainder of the single-Gaussian approximation of -log p_t.

    Returns (remainder, within_bounds); the remainder must lie in
    [log(1 - eps), 0].  Requires dominance at (z, t, eps).
    """
    z = np.asarray(z, dtype=np.float64)
    i_star = dominance(m, z, t, eps)
    if i_star is None:
        return None
    mus, sigma2 = m._bridge(t)
    mu_star = mus[i_star]
    quad = float(((z - mu_star) ** 2).sum()) / (2.0 * sigma2)
    c0 = (0.5 * m.dim * np.log(2.0 * np.pi) + 0.5 * m.dim * np.log(sigma2)
          + np.log(m.n_atoms))
    remainder = -mixture_log_density(m, z, t) - quad - c0
    lo = np.log1p(-eps)
    tol = rel_slack * max(1.0, abs(lo), quad, abs(c0))
    return float(remainder), bool(lo - tol <= remainder <= tol)


def check_score_remainder(m: MixtureModel, z, t: float, eps: float,
                          rel_slack: float = REL_SLACK):
    """Gap between the mixture score and the dominant component's score.

    Returns (||remainder||, within_bound); the norm must not exceed
    (eps / sigma^2) * max_j ||mu_j - mu_i*||.  Requires dominance.
    """
    z = np.asarray(z, dtype=np.float64)
    i_star = dominance(m, z, t, eps)
    if i_star is None:
        return None
    mus, sigma2 = m._bridge(t)
    mu_star = mus[i_star]
    r = mixture_score(m, z, t) + (z - mu_star) / sigma2
    r_norm = float(np.linalg.norm(r))
    spread = float(np.sqrt(((mus - mu_star) ** 2).sum(axis=1)).max())
    bound = (eps / sigma2) * spread
    tol = rel_slack * max(1.0, bound, float(np.abs(z - mu_star).max()) / sigma2)
    return r_norm, bool(r_norm <= bound + tol)


@dataclass(frozen=True)
class ConcentrationEntry:
    t: float
    margin_ok: bool
    bound: float
    measured: float  # 1 - lambda_i*
    passed: bool


@dataclass
class ConcentrationReport:
    i_star: int
    entries: list[ConcentrationEntry] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries if e.margin_ok)

    @property
    def n_margin_invalid(self) -> int:
        return sum(1 for e in self.entries if not e.margin_ok)


def check_concentration(m: MixtureModel, x_of_t, ts, margin: float) -> ConcentrationReport:
    """Check 1 - lambda_i* <= (N - 1) exp(-margin / (2 (1 - t)^2)) on a grid.

    ``x_of_t`` is either a fixed point or a callable t -> point.  The dominant
    index is fixed from the first grid point; grid points where the pairwise
    score margin drops below ``margin`` are marked invalid and excluded from
    the bound check.
    """
    if callable(x_of_t):
        point = x_of_t
    else:
        frozen = np.asarray(x_of_t, dtype=np.float64)
        point = lambda t: frozen
    ts = np.asarray(ts, dtype=np.float64)
    if len(ts) == 0:
        raise ValueError("time grid must be non-empty")

    def scores(t):
        x = np.asarray(point(t), dtype=np.float64)
        return ((x[None, :] - t * m.atoms) ** 2).sum(axis=1)

    s0 = scores(ts[0])
    i_star = int(np.argmin(s0))
    report = ConcentrationReport(i_star=i_star)
    for t in ts:
        s = scores(t)
        others = np.delete(s, i_star)
        margin_ok = bool(others.size == 0 or (others - s[i_star]).min() >= margin)
        lam = posterior_weights(m, point(t), t)
        measured = float(1.0 - lam[i_star])
        bound = float((m.n_atoms - 1) * np.exp(-margin / (2.0 * (1.0 - t) ** 2)))
        passed = (not margin_ok) or measured <= bound * (1.0 + REL_SLACK) + 1e-300
        report.entries.append(ConcentrationEntry(float(t), margin_ok, bound,
                                                 measured, passed))
    return report


def _efm_speed2_over_times(f: EfmField, x: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """||f(x, t)||^2 for a frozen x over many times, one kernel row per time."""
    ts = np.asarray(ts, dtype=np.float64)
    xs = np.broadcast_to(np.asarray(x, dtype=np.float64), (len(ts), len(x)))
    return (_efm_rows(f.atoms, xs, ts, f.neighbors) ** 2).sum(axis=1)


@dataclass(frozen=True)
class BlowupEntry:
    delta: float
    integral: float
    lower_bound: float
    passed: bool


@dataclass
class BlowupProbeReport:
    c: float
    atom_radius: float
    t_bar: float
    entries: list[BlowupEntry] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)


def blowup_probe(f: EfmField, x, c: float, deltas,
                 search_grid: np.ndarray | None = None,
                 nodes_per_decade: int = 3000) -> BlowupProbeReport:
    """Partial terminal energies of a frozen point against the blow-up bound.

    Computes I(delta) = integral of ||f(x, t)||^2 over [t_bar, 1 - delta] by
    composite trapezoid on a geometric grid in (1 - t), and asserts
    I(delta) >= (c^2 / 4)(1/delta - 1/(1 - t_bar)).  ``t_bar`` is the first
    search-grid time at which 2 R (1 - lambda_max) <= c / 2 with
    R = max_i ||x_i||.  Raises when a hypothesis cannot be verified.
    """
    x = np.asarray(x, dtype=np.float64)
    if c <= 0:
        raise ValueError("c must be > 0")
    gaps = np.sqrt(((x[None, :] - f.atoms) ** 2).sum(axis=1))
    if gaps.min() < c:
        raise ValueError(
            f"non-collision hypothesis failed: min atom gap {gaps.min():.6g} < c={c}")
    deltas = sorted(float(d) for d in np.atleast_1d(deltas))
    if deltas[0] <= 0:
        raise ValueError("all deltas must be > 0")

    radius = float(np.sqrt((f.atoms ** 2).sum(axis=1)).max())
    mix = f.mixture()
    if search_grid is None:
        search_grid = 1.0 - np.geomspace(0.5, max(deltas[0], 1e-6), 200)
    t_bar = None
    for t in search_grid:
        lam_max = posterior_weights(mix, x, float(t)).max()
        if 2.0 * radius * (1.0 - lam_max) <= c / 2.0:
            t_bar = float(t)
            break
    if t_bar is None:
        raise ValueError("posterior concentration hypothesis failed: "
                         "no search time reaches 2R(1 - lambda) <= c/2")

    report = BlowupProbeReport(c=c, atom_radius=radius, t_bar=t_bar)
    for delta in deltas:
        u_hi = 1.0 - t_bar
        if delta >= u_hi:
            raise ValueError(f"delta {delta} leaves no interval past t_bar={t_bar}")
        decades = np.log10(u_hi / delta)
        nodes = max(64, int(np.ceil(decades * nodes_per_decade)) + 1)
        u = np.geomspace(delta, u_hi, nodes)
        speed2 = _efm_speed2_over_times(f, x, 1.0 - u)
        integral = float(np.trapezoid(speed2, u))
        bound = (c ** 2 / 4.0) * (1.0 / delta - 1.0 / u_hi)
        passed = integral >= bound * (1.0 - REL_SLACK)
        report.entries.append(BlowupEntry(delta, integral, float(bound), passed))
    return report


def universal_lower_bound_check(times, states, atom, t_start: float,
                                atol: float = 1e-12):
    """Tail-energy lower bound for a path that terminates on an atom.

    lhs: trapezoid tail energy from finite-difference velocities past
    ``t_start`` (snapped to the nearest grid time).  rhs:
    ||atom - x(t)||^2 / (1 - t).  Passes when lhs >= rhs minus a
    discretization slack of 10 rhs / n_steps.
    """
    times = np.asarray(times, dtype=np.float64)
    states = np.asarray(states, dtype=np.float64)
    atom = np.asarray(atom, dtype=np.float64)
    if len(times) < 2 or len(times) != len(states):
        raise ValueError("path must have at least two (time, state) samples")
    if np.linalg.norm(states[-1] - atom) > atol:
        raise ValueError("path does not terminate at the given atom")
    j0 = int(np.argmin(np.abs(times - t_start)))
    if j0 == len(times) - 1:
        raise ValueError("t_start must leave a non-empty tail")
    t_eff = float(times[j0])
    gap2 = float(((atom - states[j0]) ** 2).sum())
    rhs = gap2 / (1.0 - t_eff)

    dts = np.diff(times[j0:])
    dxs = np.diff(states[j0:], axis=0)
    lhs = float((((dxs ** 2).sum(axis=1)) / dts).sum())
    slack = 10.0 * rhs / (len(times) - 1)
    return lhs, rhs, bool(lhs >= rhs - slack)


def integrated_energy_density(traj, m: MixtureModel):
    """Path energy, the path integral of -log p_t, and their ratio.

    Both integrals use the trapezoid rule on the trajectory's grid, with
    density times clamped into the open unit interval.  Reported, not
    asserted: the relation ties them only up to schedule-dependent factors.
    """
    times = np.asarray(traj.times, dtype=np.float64)
    if len(times) < 2:
        return 0.0, 0.0, float("nan")
    t_eval = np.clip(times, T_CLAMP, 1.0 - T_CLAMP)
    nld = np.array([-mixture_log_density(m, z, t)
                    for z, t in zip(traj.states, t_eval)])
    integral = float(np.trapezoid(nld, times))
    kpe = float(traj.kpe)
    ratio = kpe / integral if integral != 0.0 else float("nan")
    return kpe, integral, ratio


def sample_dominant_points(m: MixtureModel, ts, eps: float, per_time: int,
                           rng: np.random.Generator):
    """Draw z ~ p_t(. | x_i) for random i and keep the dominant ones.

    Returns (points, n_rejected) where points is a list of (z, t) pairs that
    pass the dominance filter.
    """
    points = []
    rejected = 0
    for t in ts:
        mus, sigma2 = m._bridge(t)
        sig = np.sqrt(sigma2)
        idx = rng.integers(0, m.n_atoms, per_time)
        zs = mus[idx] + sig * rng.standard_normal((per_time, m.dim))
        dominant = dominance(m, zs, t, eps)
        points += [(z, float(t)) for z, i in zip(zs, dominant) if i is not None]
        rejected += dominant.count(None)
    return points, rejected
