"""Closed-form velocity field over a finite training set and its Gaussian mixture.

At time t the training atoms x_i induce the mixture

    p_t(z) = (1/N) sum_i Normal(z; gamma(t) x_i, (1 - gamma(t))^2 I_d)

with softmax posterior responsibilities lambda_i(z, t).  ``EfmField`` is the
``MixtureModel`` of the linear schedule gamma(t) = t, callable as its velocity
field; its ``neighbors`` truncates the velocity only.  Two equivalent
velocity representations are provided:

* the softmax-averaged bridge form (``EfmField``):
      u(x, t) = sum_i lambda_i(x, t) (x_i - x) / (1 - t)
* the score form for a general schedule gamma (``general_velocity``):
      u(z, t) = alpha(t) grad log p_t(z) + beta(t) z,
      alpha = gdot sigma^2 / (gamma (1 - gamma)),  beta = gdot / gamma.

All operations are pure functions of immutable inputs.  A schedule's gamma
takes one time or an array of times.  Times are clamped to [1e-9, 1 - 1e-9]
for gamma and sigma^2 only (``_time_terms``); the 1/(1 - t) velocity factor
is never clamped, callers receive the true magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: clamp applied to t inside density/score evaluation (not velocity scaling)
T_CLAMP = 1e-9

#: row x atom elements per block of the closed-form kernel: a block's
#: (rows, N) float64 work arrays (512 KiB each) stay in cache
BLOCK_ELEMS = 1 << 16


@dataclass(frozen=True)
class GammaSchedule:
    """Interpolation schedule gamma: [0,1] -> [0,1] with its derivative.
    ``gamma`` maps one time or an array of times elementwise."""

    gamma: Callable
    gamma_dot: Callable[[float], float]

    def __post_init__(self):
        if abs(self.gamma(0.0)) > 1e-12 or abs(self.gamma(1.0) - 1.0) > 1e-12:
            raise ValueError("schedule must satisfy gamma(0)=0 and gamma(1)=1")


def linear_schedule() -> GammaSchedule:
    return GammaSchedule(gamma=lambda t: t, gamma_dot=lambda t: 1.0)


def _check_unit_interval(t):
    """One time as a float, or per-row times as a (B,) array, inside (0, 1)."""
    t = float(t) if np.ndim(t) == 0 else np.asarray(t, dtype=np.float64)
    if not np.all((0.0 < t) & (t < 1.0)):
        raise ValueError(f"t must lie strictly inside (0, 1), got {t}")
    return t


@dataclass(frozen=True)
class MixtureModel:
    """Training atoms plus a schedule; works in any dimension d >= 1."""

    atoms: np.ndarray  # (N, d)
    schedule: GammaSchedule

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=np.float64)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2 or len(atoms) < 1:
            raise ValueError("atoms must be a non-empty (N, d) array")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite")
        object.__setattr__(self, "atoms", atoms)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    def _bridge(self, t: float) -> tuple[np.ndarray, float]:
        """Component means and variance at clamped time t."""
        g, sigma2 = _time_terms(self, t)
        return g * self.atoms, sigma2


def _time_terms(m: MixtureModel, t):
    """gamma and sigma^2 at the clamped time: scalars for one time, (B, 1)
    columns for per-row times.  ``float_power`` is C ``pow``, as a float's
    ``** 2`` is; an array's ``** 2`` multiplies, which can round differently."""
    tc = np.clip(t, T_CLAMP, 1.0 - T_CLAMP)
    g = m.schedule.gamma(np.reshape(tc, (-1, 1)) if np.ndim(tc) else tc)
    return g, np.float_power(1.0 - g, 2)


def _row_step(n_rows: int, n_cols: int) -> int:
    """Rows per block, for even blocks of at most ``BLOCK_ELEMS`` elements."""
    blocks = -(-n_rows // max(1, BLOCK_ELEMS // n_cols))
    return -(-n_rows // blocks) if n_rows else 1


def _sq_dists(xs: np.ndarray, ys: np.ndarray, scale, out: np.ndarray | None = None) -> np.ndarray:
    """||x_b - scale * y_i||^2 of the (B, d) points ``xs`` against the (N, d)
    points ``ys``, (B, N), into ``out`` if given; ``scale`` is 1.0 for plain
    distances, or a scalar or (B, 1) column of bridge factors.

    Direct differences, squared and summed coordinate by coordinate: the
    expanded form ||x||^2 - 2 x.y + ||y||^2 cancels badly for near points.
    For d < 8 the sum is bitwise the broadcast ``.sum(axis=-1)`` of squares.
    """
    if xs.shape[1] != ys.shape[1]:
        raise ValueError(f"points of dimension {xs.shape[1]} against {ys.shape[1]}")
    out = np.empty((len(xs), len(ys))) if out is None else out
    part = np.empty_like(out) if ys.shape[1] > 1 else None
    for k in range(ys.shape[1]):
        dst = out if k == 0 else part
        np.multiply(scale, ys[:, k], out=dst)
        np.subtract(xs[:, k, None], dst, out=dst)
        np.square(dst, out=dst)
        if k:
            out += part
    return out


def _log_weights(m: MixtureModel, zs: np.ndarray, t) -> tuple[np.ndarray, float | np.ndarray]:
    """Unnormalized log responsibilities of the (B, d) queries at one time or
    one time per row, (B, N), and sigma^2 (a float or a (B, 1) column)."""
    g, sigma2 = _time_terms(m, t)
    logw = _sq_dists(zs, m.atoms, g)
    np.negative(logw, out=logw)
    logw /= 2.0 * sigma2
    return logw, sigma2


def _softmax_parts(m: MixtureModel, z, t):
    """One softmax pass over a (d,) point or a (B, d) batch, at one t or one
    t per row: exp(log weights - row max) in place, their row sums (dividing
    by which gives the posteriors), log p_t of each row, and whether ``z``
    was one point."""
    z = np.asarray(z, dtype=np.float64)
    w, sigma2 = _log_weights(m, z.reshape(-1, z.shape[-1]), _check_unit_interval(t))
    peak = w.max(axis=1)
    w -= peak[:, None]
    np.exp(w, out=w)
    total = w.sum(axis=1)
    log_p = (peak + np.log(total) - np.log(m.n_atoms)
             - 0.5 * m.dim * np.log(2.0 * np.pi * np.ravel(sigma2)))
    return w, total, log_p, z.ndim == 1


def posterior_weights(m: MixtureModel, x, t) -> np.ndarray:
    """Softmax responsibilities lambda_i(x, t), max-subtracted for stability.

    ``x`` is one (d,) point, giving (N,) weights, or a (B, d) batch, giving
    (B, N), at one t or at one t per row.  Each row sums to 1 up to
    floating-point rounding; each entry lies in [0, 1].
    """
    w, total, _, single = _softmax_parts(m, x, t)
    w /= total[:, None]
    return w[0] if single else w


def mixture_log_density(m: MixtureModel, z, t) -> float | np.ndarray:
    """log p_t(z) of the intermediate mixture via log-sum-exp; always finite.

    A float for one (d,) point, a (B,) array for a (B, d) batch at one t or
    at one t per row.
    """
    _, _, log_p, single = _softmax_parts(m, z, t)
    return float(log_p[0]) if single else log_p


def _score(lam: np.ndarray, mus: np.ndarray, z: np.ndarray, sigma2: float) -> np.ndarray:
    """(1/sigma^2) sum_i lambda_i (mu_i - z) for (N,) or (B, N) weights.  Each
    coordinate is a row sum, so a row's bits do not depend on the batch size."""
    means = np.stack([(lam * mus[:, k]).sum(axis=-1) for k in range(mus.shape[1])], axis=-1)
    return (means - z) / sigma2


def mixture_score(m: MixtureModel, z, t: float) -> np.ndarray:
    """grad_z log p_t(z) = (1/sigma^2) sum_i lambda_i (mu_i - z)."""
    z = np.asarray(z, dtype=np.float64)
    mus, sigma2 = m._bridge(_check_unit_interval(t))
    return _score(posterior_weights(m, z, t), mus, z, sigma2)


def _score_coeffs(m: MixtureModel, t: float) -> tuple[float, float, float, float, float]:
    """gamma, gamma', sigma^2 and the score-form coefficients alpha, beta at
    one t; raises where they are singular."""
    g, sigma2 = _time_terms(m, t)
    gdot = m.schedule.gamma_dot(t)
    if not (0.0 < g < 1.0):
        raise ValueError(f"gamma(t) must lie in (0, 1); got {g} at t={t}")
    if gdot == 0.0:
        raise ValueError(f"schedule derivative vanishes at t={t}")
    return g, gdot, sigma2, gdot * sigma2 / (g * (1.0 - g)), gdot / g


def _velocity(m: MixtureModel, score: np.ndarray, z: np.ndarray, t: float) -> np.ndarray:
    """alpha(t) score + beta(t) z, the velocity of the given score."""
    *_, alpha, beta = _score_coeffs(m, t)
    return alpha * score + beta * z


def general_velocity(m: MixtureModel, z, t: float) -> np.ndarray:
    """Score-form velocity alpha(t) grad log p_t(z) + beta(t) z for any schedule.

    Singular when gamma(t) is 0 or 1 or the schedule is momentarily flat.
    """
    t = _check_unit_interval(t)
    _score_coeffs(m, t)     # a singular schedule raises before the score is computed
    z = np.asarray(z, dtype=np.float64)
    return _velocity(m, mixture_score(m, z, t), z, t)


def _dominant(lam: np.ndarray, eps: float):
    """Each row's largest posterior's index, its weight, and whether it is >= 1 - eps."""
    if not (0.0 < eps < 0.5):
        raise ValueError(f"eps must lie in (0, 0.5), got {eps}")
    i_star = lam.argmax(axis=1)
    lam_star = lam[np.arange(len(lam)), i_star]
    return i_star, lam_star, lam_star >= 1.0 - eps


def dominance(m: MixtureModel, z, t: float, eps: float) -> int | None | list[int | None]:
    """Index of the component with lambda >= 1 - eps, or None if there is none.

    Ties resolve to the lowest index.  For a (B, d) batch at the same t, a
    list of B such results.
    """
    i_star, _, ok = _dominant(np.atleast_2d(posterior_weights(m, z, t)), eps)
    out = [int(i) if keep else None for i, keep in zip(i_star, ok)]
    return out if np.ndim(z) == 2 else out[0]


@dataclass(frozen=True)
class EfmField(MixtureModel):
    """The mixture of the linear schedule, called as its closed-form velocity.

    ``neighbors`` truncates the velocity's softmax to the K atoms nearest to
    the query in bridge distance ||x - t x_i|| (weights renormalized over the
    kept set); ``None`` keeps all atoms.  The neighbor set is recomputed at
    every velocity evaluation.  Posteriors and densities use every atom.
    """

    schedule: GammaSchedule = field(default_factory=linear_schedule, init=False)
    neighbors: int | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.neighbors is not None and not (1 <= self.neighbors <= self.n_atoms):
            raise ValueError(f"neighbors must lie in [1, {self.n_atoms}]")

    def __call__(self, x, t: float) -> np.ndarray:
        # t = 0 is allowed (uniform weights, unit bridge factor); t >= 1 is the
        # genuine singularity of the 1/(1 - t) factor
        t = float(t)
        if not (0.0 <= t < 1.0):
            raise ValueError(f"t must lie in [0, 1), got {t}")
        x = np.asarray(x, dtype=np.float64)
        out = _efm_rows(self, x.reshape(-1, x.shape[-1]), t)
        return out[0] if x.ndim == 1 else out


def _efm_rows(f: EfmField, xs: np.ndarray, t) -> np.ndarray:
    """Velocities of ``f`` at the (B, d) queries ``xs``, at one time ``t`` or
    one per row.

    The rows are taken in even blocks of at most ``BLOCK_ELEMS`` row x atom
    elements, each built in place, so that no (rows, N) array outgrows the
    cache.  Top-K rows do not depend on the blocking; a full-softmax row's
    ``w @ atoms`` product may differ in the last bit from one whole-array
    product, since BLAS results can depend on the number of rows.
    """
    t = np.asarray(t, dtype=np.float64)
    n_rows, k = len(xs), f.neighbors
    truncate = k is not None and k < f.n_atoms
    step = _row_step(n_rows, f.n_atoms)
    d2_buf = np.empty((min(step, n_rows), f.n_atoms))
    out = np.empty(xs.shape)
    for lo in range(0, n_rows, step):
        x = xs[lo:lo + step]
        tb = t[lo:lo + step, None] if t.ndim else t
        g, sigma2 = _time_terms(f, tb)
        logw = d2 = _sq_dists(x, f.atoms, g, d2_buf[:len(x)])
        if truncate:
            kept = np.argpartition(d2, k - 1, axis=1)[:, :k]
            logw = np.take_along_axis(d2, kept, axis=1)
        np.negative(logw, out=logw)
        logw /= 2.0 * sigma2
        logw -= logw.max(axis=1, keepdims=True)
        w = np.exp(logw, out=logw)
        w /= w.sum(axis=1, keepdims=True)
        targets = np.einsum("bk,bkd->bd", w, f.atoms[kept]) if truncate else w @ f.atoms
        targets -= x
        np.divide(targets, 1.0 - tb, out=out[lo:lo + step])
    return out
