"""Numerical verification of the energy-density and terminal blow-up bounds.

Under posterior dominance (one component holds weight >= 1 - eps), the squared
speed of the closed-form velocity field is affinely bounded by the negative
log-density of the intermediate mixture:

    lower_slope * (-log p_t(z)) - offset  <=  ||u(z, t)||^2
                                          <=  upper_slope * (-log p_t(z)) + offset

with lower_slope = 1/2 and upper_slope = 12 on the linear bridge
gamma(t) = t, the only interpolation kinflow uses.  (For a general schedule
the slopes are m^2 sigma^2 / 2 and 12 m^2 sigma^2 with m = -gamma' / (1 - gamma)
and sigma = 1 - gamma, so m^2 sigma^2 = gamma'^2 = 1 here.)  The offset
collects the dominant component's geometry, the mixture size, and the
dominance slack; every term is computed explicitly so the checks are sharp
up to floating point.

The module also verifies the supporting approximation bounds (local Gaussian
remainder, score remainder), the terminal posterior concentration bound, the
terminal energy blow-up of a frozen off-manifold point, and the
Cauchy-Schwarz lower bound on the tail energy of any atom-terminating path.

The pointwise checks take (B, d) batches at one t: one softmax pass gives
every point's posteriors, log p_t, score and velocity, and from them its
bound constants and both remainders.  A one-point call is the B = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .efm import (EfmField, MixtureModel, T_CLAMP, _check_unit_interval,
                  _dominant, _efm_rows, _row_step, _score, _score_coeffs,
                  _softmax, _softmax_parts, _sq_dists, _time_terms, _velocity,
                  dominance, mixture_log_density, posterior_weights)
from .sampler import check_count

#: relative slack for exact pointwise inequalities
REL_SLACK = 1e-9

#: search times for the blow-up probe's t_bar, and its integration grid density
SEARCH_NODES = 200
NODES_PER_DECADE = 3000


@dataclass(frozen=True)
class BoundConstants:
    """Explicit constants of the energy-density bounds at one (t, i*, eps);
    in ``_bound_terms``' batched form, the fields that depend on i* are arrays."""

    t: float
    eps: float
    i_star: int
    dim: int
    n_atoms: int
    lower_slope: float     # 1/2
    upper_slope: float     # 12
    mean_spread: float     # max_j ||mu_j - mu_i*||
    drift_norm: float      # ||(alpha / sigma^2) mu_i*||
    score_bound: float     # (eps / sigma^2) * mean_spread, bounds the score remainder
    score_slack: float     # |alpha| * score_bound
    offset_lower: float
    offset_upper: float
    log_norm_const: float  # (d/2) log 2 pi + (d/2) log sigma^2 + log N
    log_slack: float       # |log_norm_const| - log(1 - eps)
    offset: float          # max of the two assembled offsets


def _bound_terms(m: MixtureModel, t: float, i_star: np.ndarray, eps: float) -> BoundConstants:
    g, sigma2, alpha, _ = _score_coeffs(t)
    c1, c2 = 0.5, 12.0

    mu_star = g * m.atoms[i_star]
    d2 = _sq_dists(mu_star, m.atoms, g)
    spread = np.sqrt(d2.max(axis=1))
    drift = np.sqrt((((alpha / sigma2) * mu_star) ** 2).sum(axis=1))
    score_bound = (eps / sigma2) * spread
    score_slack = abs(alpha) * score_bound
    mu_norm2 = (mu_star ** 2).sum(axis=1)
    off_lower = 0.5 / sigma2 * mu_norm2 + 2.0 * (drift + score_slack) ** 2
    off_upper = 6.0 / sigma2 * mu_norm2 + 3.0 * (drift ** 2 + score_slack ** 2)

    d = m.dim
    c0 = float(0.5 * d * np.log(2.0 * np.pi) + 0.5 * d * np.log(sigma2) + np.log(m.n_atoms))
    k_t = float(abs(c0) - np.log1p(-eps))
    return BoundConstants(t=t, eps=eps, i_star=i_star, dim=d, n_atoms=m.n_atoms,
                          lower_slope=c1, upper_slope=c2,
                          mean_spread=spread, drift_norm=drift, score_bound=score_bound,
                          score_slack=score_slack, offset_lower=off_lower,
                          offset_upper=off_upper, log_norm_const=c0, log_slack=k_t,
                          offset=np.maximum(off_lower + c1 * k_t, off_upper + c2 * k_t))


def bound_constants(m: MixtureModel, t: float, i_star: int, eps: float) -> BoundConstants:
    batch = _bound_terms(m, _check_unit_interval(t), np.array([i_star]), eps)
    return BoundConstants(**{k: v[0].item() if isinstance(v, np.ndarray) else v
                             for k, v in vars(batch).items()})


@dataclass(frozen=True)
class BoundCheckEntry:
    """The energy-density bounds (``passed``) and both remainders at one (z, t)."""

    z: np.ndarray
    t: float
    i_star: int | None
    lam_star: float
    neg_log_density: float
    energy: float
    lower: float
    upper: float
    passed: bool
    log_remainder: float = np.nan
    log_remainder_ok: bool = False
    score_remainder: float = np.nan
    score_remainder_ok: bool = False
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
    def n_remainder_failed(self) -> int:
        return sum(1 for e in self.entries if e.skipped is None
                   and not (e.log_remainder_ok and e.score_remainder_ok))

    @property
    def pass_rate(self) -> float:
        checked = self.n_checked
        return 1.0 if checked == 0 else 1.0 - self.n_failed / checked


def _check_at_time(m: MixtureModel, zs: np.ndarray, t: float,
                   eps: float) -> list[BoundCheckEntry]:
    """Every pointwise check of the (B, d) queries at one time t, in order.
    Each step is row by row, so an entry does not depend on the batch."""
    lam, log_p, _ = _softmax_parts(m, zs, t)
    i_all, lam_star, ok = _dominant(lam, eps)
    dom = np.flatnonzero(ok)
    z, i_star = zs[dom], i_all[dom]
    nld = -log_p[dom]
    c = _bound_terms(m, t, i_star, eps)
    mus, sigma2 = m._bridge(t)
    score = _score(lam[dom], mus, z, sigma2)
    u = _velocity(score, z, t)
    energy = (u * u).sum(axis=1)
    lower = c.lower_slope * nld - c.offset
    upper = c.upper_slope * nld + c.offset
    passed = ((energy >= lower - REL_SLACK * np.maximum(np.maximum(1.0, np.abs(lower)), energy))
              & (energy <= upper + REL_SLACK * np.maximum(np.maximum(1.0, np.abs(upper)), energy)))
    # -log p_t minus the dominant Gaussian's own term lies in [log(1 - eps), 0]
    gap = z - mus[i_star]
    quad = (gap ** 2).sum(axis=1) / (2.0 * sigma2)
    log_rem = nld - quad - c.log_norm_const
    lo = np.log1p(-eps)
    tol = REL_SLACK * np.maximum(max(1.0, abs(lo), abs(c.log_norm_const)), quad)
    log_ok = (lo - tol <= log_rem) & (log_rem <= tol)
    # the gap to the dominant component's score is at most score_bound
    score_rem = np.sqrt(((score + gap / sigma2) ** 2).sum(axis=1))
    tol = REL_SLACK * np.maximum(np.maximum(1.0, c.score_bound), np.abs(gap).max(axis=1) / sigma2)
    score_ok = score_rem <= c.score_bound + tol

    checked = dict(zip(dom.tolist(), zip(*(a.tolist() for a in (
        i_star, nld, energy, lower, upper, passed, log_rem, log_ok, score_rem, score_ok)))))
    return [BoundCheckEntry(zs[j], t, checked[j][0], lam_j, *checked[j][1:]) if j in checked
            else BoundCheckEntry(zs[j], t, None, lam_j, np.nan, np.nan, np.nan, np.nan,
                                 passed=False, skipped="dominance")
            for j, lam_j in enumerate(lam_star.tolist())]


def check_energy_density_bounds(m: MixtureModel, points, eps: float) -> BoundCheckReport:
    """Verify the affine energy-density bounds and both remainders at each
    dominant (z, t), one batch per distinct t; entries keep the input order.

    Points that fail the dominance precondition are recorded as skipped, not
    as failures.  A bound counts as violated only beyond ``REL_SLACK``
    relative to the bound's own scale.
    """
    entries: list[BoundCheckEntry | None] = [None] * len(points)
    by_time: dict[float, list[int]] = {}
    for j, (_, t) in enumerate(points):
        by_time.setdefault(t, []).append(j)
    for t, idx in by_time.items():
        zs = np.array([points[j][0] for j in idx], dtype=np.float64)
        for j, entry in zip(idx, _check_at_time(m, zs, t, eps)):
            entries[j] = entry
    return BoundCheckReport(entries)


def check_local_gaussian_remainder(m: MixtureModel, z, t: float, eps: float):
    """Remainder of the single-Gaussian approximation of -log p_t.

    Returns (remainder, within_bounds); the remainder must lie in
    [log(1 - eps), 0].  None without dominance at (z, t, eps).
    """
    e = check_energy_density_bounds(m, [(z, t)], eps).entries[0]
    return None if e.skipped else (e.log_remainder, e.log_remainder_ok)


def check_score_remainder(m: MixtureModel, z, t: float, eps: float):
    """Gap between the mixture score and the dominant component's score.

    Returns (||remainder||, within_bound); the norm must not exceed
    (eps / sigma^2) * max_j ||mu_j - mu_i*||.  None without dominance.
    """
    e = check_energy_density_bounds(m, [(z, t)], eps).entries[0]
    return None if e.skipped else (e.score_remainder, e.score_remainder_ok)


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


def check_concentration(m: MixtureModel, x, ts, margin: float) -> ConcentrationReport:
    """Check 1 - lambda_i* <= (N - 1) exp(-margin / (2 sigma_t^2)) on a grid,
    with sigma_t^2 = (1 - t)^2.

    ``x`` is a frozen point.  One pass of squared bridge distances
    ||x - t x_i||^2 gives i*, the nearest atom at the first grid
    point, the margins and the posteriors.  Grid points where another atom's
    distance exceeds i*'s by less than ``margin`` are marked invalid and
    excluded from the bound check.
    """
    ts = np.asarray(ts, dtype=np.float64)
    if len(ts) == 0:
        raise ValueError("time grid must be non-empty")
    g, sigma2 = _time_terms(_check_unit_interval(ts))
    d2 = _sq_dists(np.array([x] * len(ts), dtype=np.float64), m.atoms, g)
    i_star = int(np.argmin(d2[0]))
    margin_ok = (np.delete(d2, i_star, axis=1) - d2[:, i_star, None]).min(
        axis=1, initial=np.inf) >= margin
    _softmax(d2, sigma2)
    measured = 1.0 - d2[:, i_star]
    bound = (m.n_atoms - 1) * np.exp(-margin / (2.0 * sigma2[:, 0]))
    passed = ~margin_ok | (measured <= bound * (1.0 + REL_SLACK) + 1e-300)
    return ConcentrationReport(i_star, [ConcentrationEntry(*e) for e in zip(
        ts.tolist(), margin_ok.tolist(), bound.tolist(), measured.tolist(), passed.tolist())])


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


def blowup_probe(f: EfmField, x, c: float, deltas) -> BlowupProbeReport:
    """Partial terminal energies of a frozen point against the blow-up bound.

    Computes I(delta) = integral of ||f(x, t)||^2 over [t_bar, 1 - delta] by
    composite trapezoid, and asserts I(delta) >= (c^2 / 4)(1/delta - 1/(1 - t_bar)).
    Every delta is read off one grid, geometric in (1 - t) from the smallest
    delta to 1 - t_bar with each delta a node.  ``t_bar`` is the first search
    time at which 2 R (1 - lambda_max) <= c / 2 with R = max_i ||x_i||.
    Raises when a hypothesis cannot be verified.
    """
    x = np.asarray(x, dtype=np.float64)
    if c <= 0:
        raise ValueError("c must be > 0")
    gap = float(np.sqrt(_sq_dists(x[None, :], f.atoms, 1.0).min()))
    if gap < c:
        raise ValueError(f"non-collision hypothesis failed: min atom gap {gap:.6g} < c={c}")
    deltas = sorted(float(d) for d in np.atleast_1d(deltas))
    if deltas[0] <= 0:
        raise ValueError("all deltas must be > 0")

    radius = float(np.sqrt((f.atoms ** 2).sum(axis=1)).max())
    search = 1.0 - np.geomspace(0.5, max(deltas[0], 1e-6), SEARCH_NODES)
    lam = posterior_weights(f, np.broadcast_to(x, (len(search), len(x))), search)
    hit = np.flatnonzero(2.0 * radius * (1.0 - lam.max(axis=1)) <= c / 2.0)
    if not len(hit):
        raise ValueError("posterior concentration hypothesis failed: "
                         "no search time reaches 2R(1 - lambda) <= c/2")
    t_bar = float(search[hit[0]])
    u_hi = 1.0 - t_bar
    if deltas[-1] >= u_hi:
        raise ValueError(f"delta {deltas[-1]} leaves no interval past t_bar={t_bar}")

    nodes = max(64, int(np.ceil(np.log10(u_hi / deltas[0]) * NODES_PER_DECADE)) + 1)
    u = np.union1d(np.geomspace(deltas[0], u_hi, nodes), deltas)
    speed2 = (_efm_rows(f, np.broadcast_to(x, (len(u), len(x))), 1.0 - u) ** 2).sum(axis=1)
    # tail[k]: trapezoid integral over [u[k], u_hi]
    panels = 0.5 * (speed2[1:] + speed2[:-1]) * np.diff(u)
    tail = np.append(np.cumsum(panels[::-1])[::-1], 0.0)
    integrals = tail[np.searchsorted(u, deltas)]
    bounds = (c ** 2 / 4.0) * (1.0 / np.array(deltas) - 1.0 / u_hi)
    return BlowupProbeReport(c=c, atom_radius=radius, t_bar=t_bar, entries=[
        BlowupEntry(d, i, b, i >= b * (1.0 - REL_SLACK))
        for d, i, b in zip(deltas, integrals.tolist(), bounds.tolist())])


def isolated_probe(atoms: np.ndarray) -> tuple[np.ndarray, float]:
    """A frozen probe point near the most isolated atom, plus its gap bound.

    The point sits a third of the isolation radius away from that atom, so
    the terminal posterior concentrates on it early and the non-collision
    bound c is comfortably positive.  The self distances are taken in row
    blocks, so memory stays at a few blocks rather than (N, N).
    """
    atoms = np.asarray(atoms, dtype=np.float64)
    n = len(atoms)
    if n == 1:
        x = atoms[0].copy()
        x[0] += 1.0
        return x, 0.9
    step = _row_step(n, n)
    nearest2 = np.empty(n)
    for lo in range(0, n, step):
        d2 = _sq_dists(atoms[lo:lo + step], atoms, 1.0)
        rows = np.arange(len(d2))
        d2[rows, lo + rows] = np.inf
        nearest2[lo:lo + step] = d2.min(axis=1)
    nearest = np.sqrt(nearest2)
    j = int(np.argmax(nearest))
    x = atoms[j].copy()
    x[0] += nearest[j] / 3.0
    return x, 0.9 * float(np.sqrt(_sq_dists(x[None, :], atoms, 1.0).min()))


def universal_lower_bound_check(times, states, atom, t_start: float):
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
    if np.linalg.norm(states[-1] - atom) > 1e-12:
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
    asserted: the bounds tie them only up to their slopes and offsets.
    """
    times = np.asarray(traj.times, dtype=np.float64)
    if len(times) < 2:
        return 0.0, 0.0, float("nan")
    nld = -mixture_log_density(m, traj.states, np.clip(times, T_CLAMP, 1.0 - T_CLAMP))
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
    check_count("per_time", per_time, 1)
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
