"""Closed-form velocity field over a finite training set and its Gaussian mixture.

kinflow interpolates on the linear bridge x_t = t x_1 + (1 - t) x_0 only, so
at time t the training atoms x_i induce the mixture

    p_t(z) = (1/N) sum_i Normal(z; t x_i, (1 - t)^2 I_d)

with softmax posterior responsibilities lambda_i(z, t).  ``EfmField`` is this
``MixtureModel``, callable as its velocity field; its ``neighbors`` truncates
the velocity only.  Two equivalent velocity representations are provided:

* the softmax-averaged bridge form (``EfmField``):
      u(x, t) = sum_i lambda_i(x, t) (x_i - x) / (1 - t)
* the score form (``general_velocity``):
      u(z, t) = alpha(t) grad log p_t(z) + beta(t) z,
      alpha = sigma^2 / (t (1 - t)) = (1 - t) / t,  beta = 1 / t.

Where one atom dominates the posterior, ``theory`` bounds ||u||^2 by affine
functions of -log p_t with slopes 1/2 and 12.

One kernel, ``_softmax``, turns a block of squared bridge distances from
``_sq_dists`` into posteriors in place, with the row peak and sum that
log p_t needs.  The field's velocity, full and top-K, the posteriors, log p_t
and the checks in ``theory`` share it.  Top-K first ranks the atoms by the key
||x_i||^2 - 2 (x / t) . x_i, which orders them as the bridge distances
||x - t x_i|| do, with one BLAS product per block of rows (``_top_k``), and
keeps a row's last kept set wherever one pass over its keys proves it still
the K nearest.

All operations are pure functions of immutable inputs.  Times are clamped to
[1e-9, 1 - 1e-9] for the bridge factor and sigma^2 only (``_time_terms``);
the 1/(1 - t) velocity factor is never clamped, callers receive the true
magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sampler import check_count

#: clamp applied to t inside density/score evaluation (not velocity scaling)
T_CLAMP = 1e-9

#: row x atom elements per block of the closed-form kernel: a block's
#: (rows, N) float64 work arrays (512 KiB each) stay in cache
BLOCK_ELEMS = 1 << 16


def _check_unit_interval(t):
    """One time as a float, or per-row times as a (B,) array, inside (0, 1)."""
    t = float(t) if np.ndim(t) == 0 else np.asarray(t, dtype=np.float64)
    if not np.all((0.0 < t) & (t < 1.0)):
        raise ValueError(f"t must lie strictly inside (0, 1), got {t}")
    return t


@dataclass(frozen=True)
class MixtureModel:
    """Training atoms of the linear-bridge mixture; works in any dimension d >= 1."""

    atoms: np.ndarray  # (N, d)

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
        g, sigma2 = _time_terms(t)
        return g * self.atoms, sigma2


def _time_terms(t):
    """The clamped time g, which is the bridge factor gamma(t) = t, and
    sigma^2 = (1 - g)^2: scalars for one time, (B, 1) columns for per-row
    times.  ``float_power`` is C ``pow``, as a float's ``** 2`` is; an
    array's ``** 2`` multiplies, which can round differently."""
    tc = np.clip(t, T_CLAMP, 1.0 - T_CLAMP)
    g = np.reshape(tc, (-1, 1)) if np.ndim(tc) else tc
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
    g, sigma2 = _time_terms(_check_unit_interval(t))
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


def _score_coeffs(t: float) -> tuple[float, float, float, float]:
    """The clamped time g, sigma^2 and the score-form coefficients
    alpha = sigma^2 / (g (1 - g)) and beta = 1 / g at one t."""
    g, sigma2 = _time_terms(t)
    return g, sigma2, sigma2 / (g * (1.0 - g)), 1.0 / g


def _velocity(score: np.ndarray, z: np.ndarray, t: float) -> np.ndarray:
    """alpha(t) score + beta(t) z, the velocity of the given score."""
    *_, alpha, beta = _score_coeffs(t)
    return alpha * score + beta * z


def general_velocity(m: MixtureModel, z, t: float) -> np.ndarray:
    """Score-form velocity alpha(t) grad log p_t(z) + beta(t) z, equal to the
    bridge form of ``EfmField`` up to rounding."""
    t = _check_unit_interval(t)
    z = np.asarray(z, dtype=np.float64)
    return _velocity(mixture_score(m, z, t), z, t)


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
    """The mixture, called as its closed-form velocity.

    ``neighbors`` truncates the velocity's softmax to the K atoms nearest to
    the query in bridge distance ||x - t x_i|| (weights renormalized over the
    kept set); ``None`` keeps all atoms.  The neighbor set is found again at
    every velocity evaluation: the last call's kept sets are tried first and
    kept for each row where one pass over its keys proves them still the K
    nearest (``_top_k``).  Posteriors and densities use every atom.
    The field keeps its kernel's block buffer and the last kept sets between
    calls, so one field must not be called from two threads at once.
    """

    neighbors: int | None = None
    #: the top-K ranking key's -2 atoms^T, (d, N) contiguous, and ||x_i||^2
    _rank_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    _rank_offset: np.ndarray = field(init=False, repr=False, compare=False)
    #: the kernel's block and partial sums, grown to the largest pair asked for
    _buffer: np.ndarray = field(init=False, repr=False, compare=False)
    #: the last top-K call's (rows, K) kept indices, ascending in each row,
    #: kept only while rows * K <= BLOCK_ELEMS; (0, 0) before the first
    _hint: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if self.neighbors is not None:
            check_count("neighbors", self.neighbors, 1)
            if self.neighbors > self.n_atoms:
                raise ValueError(f"neighbors must lie in [1, {self.n_atoms}]")
        object.__setattr__(self, "_rank_matrix", np.ascontiguousarray(-2.0 * self.atoms.T))
        object.__setattr__(self, "_rank_offset", np.square(self.atoms).sum(axis=1))
        object.__setattr__(self, "_buffer", np.empty(0))
        object.__setattr__(self, "_hint", np.empty((0, 0), dtype=np.intp))

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


def _top_k(f: EfmField, x: np.ndarray, g, out: np.ndarray,
           hint: np.ndarray | None = None) -> np.ndarray:
    """Indices of the ``f.neighbors`` atoms nearest to each (B, d) row of
    ``x`` in bridge distance ||x - g x_i||, (B, K) ascending in each row,
    ranked in the first B * N elements of the flat buffer ``out``.  The key
    ||x_i||^2 - 2 (x / g) . x_i is ||x / g - x_i||^2 less a per-row constant,
    so one BLAS product orders the atoms as the bridge distances do; at
    g = 1e-9 (t = 0) it still resolves x . x_i differences of 1e-9, which
    direct differences cannot.

    ``hint`` is a guess, (B, K) distinct indices ascending in each row, that
    is updated in place and returned.  A row keeps its guess where the
    largest key of the guessed atoms is below the smallest key of all the
    others, which makes the guess the row's one top-K set; that takes one
    pass over the keys.  Every other row (a tie at the K-th key, a NaN key),
    and every row without a hint, is ranked by ``argpartition``.  So the
    kept sets do not depend on the guess."""
    n, k = f.n_atoms, f.neighbors
    keys = out[:len(x) * n]
    key = np.matmul(x / g, f._rank_matrix, out=keys.reshape(len(x), -1))
    key += f._rank_offset
    if hint is None:
        hint, miss = np.empty((len(x), k), dtype=np.intp), slice(None)
    else:
        flat = hint + np.arange(0, keys.size, n)[:, None]
        guessed = keys.take(flat)
        keys[flat] = np.inf
        miss = ~(key.min(axis=1) > guessed.max(axis=1))
        if not miss.any():
            return hint
        keys[flat] = guessed
        miss = slice(None) if miss.all() else miss
    hint[miss] = np.sort(np.argpartition(key[miss], k - 1, axis=1)[:, :k], axis=1)
    return hint


def _efm_rows(f: EfmField, xs: np.ndarray, t) -> np.ndarray:
    """Velocities of ``f`` at the (B, d) queries ``xs``, at one time ``t`` or
    one per row.

    The rows are taken in even blocks of at most ``BLOCK_ELEMS`` row x atom
    elements.  A block's distances and ``_sq_dists``' partial sums fill the
    field's buffer, where ``_softmax`` makes the posteriors, so no (rows, N)
    array outgrows the cache or is allocated on every call.  A top-K block
    ranks every atom (``_top_k``), then takes direct-difference bridge
    distances for the K kept atoms only, in ascending index order, into the
    ranking buffer; each is bitwise the full-softmax block's entry.  When
    rows x K <= ``BLOCK_ELEMS``, the kept indices stay in the field as the
    next call's guess, which ``_top_k`` checks row by row; the first call,
    or one with another row count, guesses atoms 0..K-1.  The kept sets,
    and so a top-K row's bits, are those of a fresh field.  Top-K rows do
    not depend on the blocking, except that a one-row block ranks with a
    matrix-vector product, whose keys can differ in the last bit; that can
    change the kept set only at a near-tie at the K-th key.  A full-softmax
    row's ``w @ atoms`` product may differ in the last bit from one
    whole-array product, since BLAS results can depend on the number of rows.
    """
    t = np.asarray(t, dtype=np.float64)
    n_rows, k = len(xs), f.neighbors
    truncate = k is not None and k < f.n_atoms
    hint = None
    if truncate and n_rows * k <= BLOCK_ELEMS:
        if f._hint.shape != (n_rows, k):
            object.__setattr__(f, "_hint", np.tile(np.arange(k), (n_rows, 1)))
        hint = f._hint
    step = _row_step(n_rows, f.n_atoms)
    cols = k if truncate else f.n_atoms
    buf, part = f._blocks(min(step, n_rows), cols)
    out = np.empty(xs.shape)
    for lo in range(0, n_rows, step):
        x = xs[lo:lo + step]
        tb = t[lo:lo + step, None] if t.ndim else t
        g, sigma2 = _time_terms(tb)
        ys = f.atoms
        if truncate:
            kept = _top_k(f, x, g, buf, None if hint is None else hint[lo:lo + step])
            ys = np.take(ys, kept, axis=0)
        w = _sq_dists(x, ys, g, *(b[:len(x) * cols].reshape(len(x), cols) for b in (buf, part)))
        _softmax(w, sigma2)
        targets = np.einsum("bk,bkd->bd", w, ys) if truncate else w @ f.atoms
        targets -= x
        np.divide(targets, 1.0 - tb, out=out[lo:lo + step])
    return out
