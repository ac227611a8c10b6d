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

One kernel, ``_softmax``, turns a block of squared bridge distances from
``_sq_dists`` into posteriors in place, with the row peak and sum that
log p_t needs.  The field's velocity, full and top-K, the posteriors, log p_t
and the checks in ``theory`` share it; ``check_concentration`` uses the
schedule's own gamma(t) and sigma^2.  Top-K first ranks the atoms by the key
||x_i||^2 - 2 (x / gamma) . x_i, which orders them as the bridge distances
||x - gamma x_i|| do, with one BLAS product per block of rows (``_top_k``).

All operations are pure functions of immutable inputs.  A schedule's gamma
takes one time or an array of times.  Times are clamped to [1e-9, 1 - 1e-9]
for gamma and sigma^2 only (``_time_terms``); the 1/(1 - t) velocity factor
is never clamped, callers receive the true magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .sampler import check_count

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


def _sq_dists(xs: np.ndarray, ys: np.ndarray, scale, out: np.ndarray | None = None,
              part: np.ndarray | None = None) -> np.ndarray:
    """||x_b - scale * y||^2 of the (B, d) points ``xs`` against the (N, d)
    points ``ys``, or against each row's own points of a (B, K, d) ``ys``,
    (B, N) or (B, K), into ``out`` if given; ``scale`` is 1.0 for plain
    distances, or a scalar or (B, 1) column of bridge factors.  ``part``, of
    ``out``'s shape, is the partial sums' scratch, allocated if not given.

    Direct differences, squared and summed coordinate by coordinate: the
    expanded form ||x||^2 - 2 x.y + ||y||^2 cancels badly for near points.
    For d < 8 the sum is bitwise the broadcast ``.sum(axis=-1)`` of squares,
    and an entry's bits do not depend on which points share its call.
    """
    if xs.shape[1] != ys.shape[-1]:
        raise ValueError(f"points of dimension {xs.shape[1]} against {ys.shape[-1]}")
    out = np.empty((len(xs), ys.shape[-2])) if out is None else out
    part = np.empty_like(out) if part is None and ys.shape[-1] > 1 else part
    for k in range(ys.shape[-1]):
        dst = out if k == 0 else part
        np.multiply(scale, ys[..., k], out=dst)
        np.subtract(xs[:, k, None], dst, out=dst)
        np.square(dst, out=dst)
        if k:
            out += part
    return out


def _softmax(w: np.ndarray, sigma2) -> tuple[np.ndarray, np.ndarray]:
    """Posteriors from a (B, N) block of squared bridge distances, in place,
    at a scalar or (B, 1) sigma^2; returns each row's peak log weight
    -d2 / (2 sigma^2) and its sum of exp(log weight - peak)."""
    np.negative(w, out=w)
    w /= 2.0 * sigma2
    peak = w.max(axis=1)
    w -= peak[:, None]
    np.exp(w, out=w)
    total = w.sum(axis=1)
    w /= total[:, None]
    return peak, total


def _softmax_parts(m: MixtureModel, z, t):
    """The (B, N) posteriors and the (B,) log p_t of a (d,) point or a (B, d)
    batch at one t or one t per row, and whether ``z`` was one point."""
    z = np.asarray(z, dtype=np.float64)
    g, sigma2 = _time_terms(m, _check_unit_interval(t))
    lam = _sq_dists(z.reshape(-1, z.shape[-1]), m.atoms, g)
    peak, total = _softmax(lam, sigma2)
    log_p = (peak + np.log(total) - np.log(m.n_atoms)
             - 0.5 * m.dim * np.log(2.0 * np.pi * np.ravel(sigma2)))
    return lam, log_p, z.ndim == 1


def posterior_weights(m: MixtureModel, x, t) -> np.ndarray:
    """Softmax responsibilities lambda_i(x, t), max-subtracted for stability.

    ``x`` is one (d,) point, giving (N,) weights, or a (B, d) batch, giving
    (B, N), at one t or at one t per row.  Each row sums to 1 up to
    floating-point rounding; each entry lies in [0, 1].
    """
    lam, _, single = _softmax_parts(m, x, t)
    return lam[0] if single else lam


def mixture_log_density(m: MixtureModel, z, t) -> float | np.ndarray:
    """log p_t(z) of the intermediate mixture via log-sum-exp; always finite.

    A float for one (d,) point, a (B,) array for a (B, d) batch at one t or
    at one t per row.
    """
    _, log_p, single = _softmax_parts(m, z, t)
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
    The field keeps its kernel's block buffer between calls, so one field
    must not be called from two threads at once.
    """

    schedule: GammaSchedule = field(default_factory=linear_schedule, init=False)
    neighbors: int | None = None
    #: the top-K ranking key's -2 atoms^T, (d, N) contiguous, and ||x_i||^2
    _rank_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    _rank_offset: np.ndarray = field(init=False, repr=False, compare=False)
    #: the kernel's block and partial sums, grown to the largest pair asked for
    _buffer: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if self.neighbors is not None:
            check_count("neighbors", self.neighbors, 1)
            if self.neighbors > self.n_atoms:
                raise ValueError(f"neighbors must lie in [1, {self.n_atoms}]")
        object.__setattr__(self, "_rank_matrix", np.ascontiguousarray(-2.0 * self.atoms.T))
        object.__setattr__(self, "_rank_offset", np.square(self.atoms).sum(axis=1))
        object.__setattr__(self, "_buffer", np.empty(0))

    def _blocks(self, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat work arrays of rows * N and rows * cols elements in the field's
        buffer, which is grown if too small."""
        size = rows * self.n_atoms
        if len(self._buffer) < size + rows * cols:
            object.__setattr__(self, "_buffer", np.empty(size + rows * cols))
        return self._buffer[:size], self._buffer[size:size + rows * cols]

    def __call__(self, x, t: float) -> np.ndarray:
        # t = 0 is allowed (uniform weights, unit bridge factor); t >= 1 is the
        # genuine singularity of the 1/(1 - t) factor
        t = float(t)
        if not (0.0 <= t < 1.0):
            raise ValueError(f"t must lie in [0, 1), got {t}")
        x = np.asarray(x, dtype=np.float64)
        out = _efm_rows(self, x.reshape(-1, x.shape[-1]), t)
        return out[0] if x.ndim == 1 else out


def _top_k(f: EfmField, x: np.ndarray, g, out: np.ndarray) -> np.ndarray:
    """Indices of the ``f.neighbors`` atoms nearest to each (B, d) row of
    ``x`` in bridge distance ||x - g x_i||, (B, K) in ``argpartition`` order,
    ranked in the first B * N elements of the flat buffer ``out``.  The key
    ||x_i||^2 - 2 (x / g) . x_i is ||x / g - x_i||^2 less a per-row constant,
    so one BLAS product orders the atoms as the bridge distances do; at
    g = 1e-9 (t = 0) it still resolves x . x_i differences of 1e-9, which
    direct differences cannot."""
    key = np.matmul(x / g, f._rank_matrix, out=out[:len(x) * f.n_atoms].reshape(len(x), -1))
    key += f._rank_offset
    return np.argpartition(key, f.neighbors - 1, axis=1)[:, :f.neighbors]


def _efm_rows(f: EfmField, xs: np.ndarray, t) -> np.ndarray:
    """Velocities of ``f`` at the (B, d) queries ``xs``, at one time ``t`` or
    one per row.

    The rows are taken in even blocks of at most ``BLOCK_ELEMS`` row x atom
    elements.  A block's distances and ``_sq_dists``' partial sums fill the
    field's buffer, where ``_softmax`` makes the posteriors, so no (rows, N)
    array outgrows the cache or is allocated on every call.  A top-K block
    ranks every atom (``_top_k``), then takes direct-difference bridge
    distances for the K kept atoms only, into the ranking buffer; each is
    bitwise the full-softmax block's entry.  Top-K rows do not
    depend on the blocking, except that a one-row block ranks with a
    matrix-vector product, whose keys can differ in the last bit; that
    reorders only atoms whose keys agree to within that bit.  A full-softmax
    row's ``w @ atoms`` product may differ in the last bit from one
    whole-array product, since BLAS results can depend on the number of rows.
    """
    t = np.asarray(t, dtype=np.float64)
    n_rows, k = len(xs), f.neighbors
    truncate = k is not None and k < f.n_atoms
    step = _row_step(n_rows, f.n_atoms)
    cols = k if truncate else f.n_atoms
    buf, part = f._blocks(min(step, n_rows), cols)
    out = np.empty(xs.shape)
    for lo in range(0, n_rows, step):
        x = xs[lo:lo + step]
        tb = t[lo:lo + step, None] if t.ndim else t
        g, sigma2 = _time_terms(f, tb)
        ys = np.take(f.atoms, _top_k(f, x, g, buf), axis=0) if truncate else f.atoms
        w = _sq_dists(x, ys, g, *(b[:len(x) * cols].reshape(len(x), cols) for b in (buf, part)))
        _softmax(w, sigma2)
        targets = np.einsum("bk,bkd->bd", w, ys) if truncate else w @ f.atoms
        targets -= x
        np.divide(targets, 1.0 - tb, out=out[lo:lo + step])
    return out
