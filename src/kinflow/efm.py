"""Closed-form velocity field over a finite training set and its Gaussian mixture.

At time t the training atoms x_i induce the mixture

    p_t(z) = (1/N) sum_i Normal(z; gamma(t) x_i, (1 - gamma(t))^2 I_d)

with softmax posterior responsibilities lambda_i(z, t).  Two equivalent velocity
representations are provided:

* the softmax-averaged bridge form (linear schedule):
      u(x, t) = sum_i lambda_i(x, t) (x_i - x) / (1 - t)
* the score form for a general schedule gamma:
      u(z, t) = alpha(t) grad log p_t(z) + beta(t) z,
      alpha = gdot sigma^2 / (gamma (1 - gamma)),  beta = gdot / gamma.

All operations are pure functions of immutable inputs.  Times are clamped to
[1e-9, 1 - 1e-9] inside density and score evaluation only; the 1/(1 - t)
velocity factor is never clamped, callers receive the true magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: clamp applied to t inside density/score evaluation (not velocity scaling)
T_CLAMP = 1e-9


@dataclass(frozen=True)
class GammaSchedule:
    """Interpolation schedule gamma: [0,1] -> [0,1] with its derivative."""

    gamma: Callable[[float], float]
    gamma_dot: Callable[[float], float]
    kind: str = "custom"

    def __post_init__(self):
        if abs(self.gamma(0.0)) > 1e-12 or abs(self.gamma(1.0) - 1.0) > 1e-12:
            raise ValueError("schedule must satisfy gamma(0)=0 and gamma(1)=1")

    def sigma2(self, t: float) -> float:
        return (1.0 - self.gamma(t)) ** 2


def linear_schedule() -> GammaSchedule:
    return GammaSchedule(gamma=lambda t: t, gamma_dot=lambda t: 1.0, kind="linear")


def _check_unit_interval(t: float) -> float:
    t = float(t)
    if not (0.0 < t < 1.0):
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
        tc = min(max(t, T_CLAMP), 1.0 - T_CLAMP)
        g = self.schedule.gamma(tc)
        mus = g * self.atoms
        sigma2 = (1.0 - g) ** 2
        return mus, sigma2


def _log_weights(m: MixtureModel, z: np.ndarray, t: float) -> np.ndarray:
    mus, sigma2 = m._bridge(t)
    d2 = ((z[None, :] - mus) ** 2).sum(axis=1)
    return -d2 / (2.0 * sigma2)


def posterior_weights(m: MixtureModel, x, t: float) -> np.ndarray:
    """Softmax responsibilities lambda_i(x, t), max-subtracted for stability.

    Sums to 1 up to floating-point rounding; each entry lies in [0, 1].
    """
    t = _check_unit_interval(t)
    x = np.asarray(x, dtype=np.float64)
    logw = _log_weights(m, x, t)
    w = np.exp(logw - logw.max())
    return w / w.sum()


def mixture_log_density(m: MixtureModel, z, t: float) -> float:
    """log p_t(z) of the intermediate mixture via log-sum-exp; always finite."""
    t = _check_unit_interval(t)
    z = np.asarray(z, dtype=np.float64)
    _, sigma2 = m._bridge(t)
    logw = _log_weights(m, z, t)
    peak = logw.max()
    lse = peak + np.log(np.exp(logw - peak).sum())
    d = m.dim
    return float(lse - np.log(m.n_atoms) - 0.5 * d * np.log(2.0 * np.pi * sigma2))


def mixture_score(m: MixtureModel, z, t: float) -> np.ndarray:
    """grad_z log p_t(z) = (1/sigma^2) sum_i lambda_i (mu_i - z)."""
    t = _check_unit_interval(t)
    z = np.asarray(z, dtype=np.float64)
    mus, sigma2 = m._bridge(t)
    lam = posterior_weights(m, z, t)
    return (lam @ mus - z) / sigma2


def general_velocity(m: MixtureModel, z, t: float) -> np.ndarray:
    """Score-form velocity alpha(t) grad log p_t(z) + beta(t) z for any schedule.

    Singular when gamma(t) is 0 or 1 or the schedule is momentarily flat.
    """
    t = _check_unit_interval(t)
    g = m.schedule.gamma(t)
    gdot = m.schedule.gamma_dot(t)
    if not (0.0 < g < 1.0):
        raise ValueError(f"gamma(t) must lie in (0, 1); got {g} at t={t}")
    if gdot == 0.0:
        raise ValueError(f"schedule derivative vanishes at t={t}")
    z = np.asarray(z, dtype=np.float64)
    sigma2 = (1.0 - g) ** 2
    alpha = gdot * sigma2 / (g * (1.0 - g))
    beta = gdot / g
    return alpha * mixture_score(m, z, t) + beta * z


def dominance(m: MixtureModel, z, t: float, eps: float) -> int | None:
    """Index of the component with lambda >= 1 - eps, or None if there is none.

    Ties resolve to the lowest index.
    """
    if not (0.0 < eps < 0.5):
        raise ValueError(f"eps must lie in (0, 0.5), got {eps}")
    lam = posterior_weights(m, z, t)
    i_star = int(np.argmax(lam))
    return i_star if lam[i_star] >= 1.0 - eps else None


@dataclass(frozen=True)
class EfmField:
    """Closed-form velocity field over training atoms with the linear schedule.

    ``neighbors`` truncates the softmax to the K atoms nearest to the query in
    bridge distance ||x - t x_i|| (weights renormalized over the kept set);
    ``None`` keeps all atoms.  The neighbor set is recomputed at every
    velocity evaluation.
    """

    atoms: np.ndarray
    neighbors: int | None = None

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=np.float64)
        if atoms.ndim != 2 or len(atoms) < 1:
            raise ValueError("atoms must be a non-empty (N, d) array")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite")
        if self.neighbors is not None and not (1 <= self.neighbors <= len(atoms)):
            raise ValueError(f"neighbors must lie in [1, {len(atoms)}]")
        object.__setattr__(self, "atoms", atoms)

    def mixture(self) -> MixtureModel:
        return MixtureModel(self.atoms, linear_schedule())

    def __call__(self, x, t: float) -> np.ndarray:
        # t = 0 is allowed (uniform weights, unit bridge factor); t >= 1 is the
        # genuine singularity of the 1/(1 - t) factor
        t = float(t)
        if not (0.0 <= t < 1.0):
            raise ValueError(f"t must lie in [0, 1), got {t}")
        x = np.asarray(x, dtype=np.float64)
        out = _efm_rows(self.atoms, x.reshape(-1, x.shape[-1]), t, self.neighbors)
        return out[0] if x.ndim == 1 else out


def _efm_rows(atoms: np.ndarray, xs: np.ndarray, t, neighbors: int | None) -> np.ndarray:
    """Velocities of the (B, d) queries ``xs`` at one time ``t`` or one per row.

    Bridge distances are direct differences, summed coordinate by coordinate
    into (B, N) arrays: the expanded quadratic form cancels badly once
    (1 - t)^2 is small.
    """
    t = np.asarray(t, dtype=np.float64)
    tb = t[:, None] if t.ndim else t
    tc = np.clip(tb, T_CLAMP, 1.0 - T_CLAMP)
    d2 = sum((xs[:, k, None] - tc * atoms[:, k]) ** 2 for k in range(atoms.shape[1]))
    logw = -d2 / (2.0 * (1.0 - tc) ** 2)
    truncate = neighbors is not None and neighbors < len(atoms)
    if truncate:
        kept = np.argpartition(d2, neighbors - 1, axis=1)[:, :neighbors]
        logw = np.take_along_axis(logw, kept, axis=1)
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    targets = np.einsum("bk,bkd->bd", w, atoms[kept]) if truncate else w @ atoms
    return (targets - xs) / (1.0 - tb)


def efm_velocity(f: EfmField, x, t: float) -> np.ndarray:
    """Functional form of :meth:`EfmField.__call__`."""
    return f(x, t)
