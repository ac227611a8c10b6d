"""Density estimates, rank statistics, memorization fraction, and exact W2.

Spearman's rho correlates average ranks, where each run of ties shares its
mid-rank.  The Mann-Whitney test is implemented directly so that
small-sample behavior is exact: it enumerates all rank assignments when the
combined sample has at most 20 observations and switches to the
tie-corrected normal approximation above that.
Densities are reported through a k-NN estimate (k / (n * ball_volume(r_k)))
and the Gaussian KDE from :mod:`kinflow.datasets`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .datasets import KdeEstimator, LabeledDataset
from .efm import _sq_dists
from .sampler import check_count

#: combined sample size at or below which the Mann-Whitney p-value is exact
MWU_EXACT_LIMIT = 20

#: densities are floored here before taking logs
DENSITY_FLOOR = 1e-300


class UndefinedStatistic(ValueError):
    """A statistic has no defined value for the given input (e.g. zero spread)."""


def knn_density(train, q, k: int) -> float | np.ndarray:
    """k-NN density k / (n * V_d * r_k^d) at one (d,) point, a float, or at
    each row of an (m, d) batch, an (m,) array; +inf where r_k is zero."""
    train = np.asarray(train, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n, d = train.shape
    check_count("k", k, 1)
    if k > n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    d2 = _sq_dists(q.reshape(-1, q.shape[-1]), train, 1.0)
    d2.partition(k - 1, axis=1)
    volume = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    with np.errstate(divide="ignore"):
        density = k / (n * volume * np.sqrt(d2[:, k - 1]) ** d)
    return float(density[0]) if q.ndim == 1 else density


def _midranks(v: np.ndarray) -> np.ndarray:
    """1-based average ranks of a 1-D array: each run of ties shares its mid-rank."""
    _, inv, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inv]


def spearman(xs, ys) -> float:
    """Rank correlation: Pearson correlation of mid-ranks."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) != len(ys) or len(xs) < 3:
        raise ValueError("inputs must have equal length >= 3")
    if np.isnan(xs).any() or np.isnan(ys).any():
        raise ValueError("inputs must not contain NaN")
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise UndefinedStatistic("correlation is undefined for a constant input")
    rx = _midranks(xs)
    ry = _midranks(ys)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


def cliffs_delta(a, b) -> float:
    """Pairwise dominance effect size (#{a > b} - #{a < b}) / (|a| |b|), which
    is (2 U(a, b) - |a| |b|) / (|a| |b|); the numerator is an exact integer."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    pairs = len(a) * len(b)
    return (2.0 * _u_statistic(a, b) - pairs) / pairs


def _u_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """U for sample a: wins count pairs a_i > b_j, ties count one half."""
    diff = a[:, None] - b[None, :]
    return float((diff > 0).sum() + 0.5 * (diff == 0).sum())


def mann_whitney_u(a, b) -> tuple[float, float]:
    """U statistic for sample ``a`` and the two-sided p-value.

    Exact enumeration of all rank assignments when |a| + |b| <= 20; otherwise
    the tie-corrected normal approximation.  The two-sided p doubles the
    smaller one-sided tail, capped at 1.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    n_a, n_b = len(a), len(b)
    u_obs = _u_statistic(a, b)

    if n_a + n_b <= MWU_EXACT_LIMIT:
        pooled = np.concatenate([a, b])
        idx = range(n_a + n_b)
        us = []
        for subset in combinations(idx, n_a):
            mask = np.zeros(n_a + n_b, dtype=bool)
            mask[list(subset)] = True
            us.append(_u_statistic(pooled[mask], pooled[~mask]))
        us = np.array(us)
        tol = 1e-9
        p_lo = float((us <= u_obs + tol).mean())
        p_hi = float((us >= u_obs - tol).mean())
        p = min(1.0, 2.0 * min(p_lo, p_hi))
        return u_obs, p

    n = n_a + n_b
    _, counts = np.unique(np.concatenate([a, b]), return_counts=True)
    tie_term = float((counts ** 3 - counts).sum())
    mu = n_a * n_b / 2.0
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return u_obs, 1.0
    z = (u_obs - mu) / math.sqrt(var)
    # erfc underflows to 0 for |z| beyond ~39; keep p strictly positive
    p = max(min(1.0, math.erfc(abs(z) / math.sqrt(2.0))), 2.2250738585072014e-308)
    return u_obs, p


def cohens_d(a, b) -> float:
    """Standardized mean difference with the pooled (n-1) variance estimate."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("both samples need at least 2 observations")
    var_a = a.var(ddof=1)
    var_b = b.var(ddof=1)
    pooled = ((len(a) - 1) * var_a + (len(b) - 1) * var_b) / (len(a) + len(b) - 2)
    if pooled == 0:
        raise UndefinedStatistic("effect size is undefined for zero pooled variance")
    return float((a.mean() - b.mean()) / math.sqrt(pooled))


@dataclass(frozen=True)
class MemorizationReport:
    """Per-sample nearest-neighbor gap ratios and the memorized fraction."""

    f_mem: float
    ratios: np.ndarray      # d_1 / d_k per generated sample
    d_nearest: np.ndarray
    d_kth: np.ndarray
    tau_gap: float
    k_mem: int


def f_mem(generated, train, tau_gap: float = 1.0 / 3.0,
          k_mem: int = 2) -> MemorizationReport:
    """Fraction of generated samples with nearest/k-th gap ratio below tau_gap.

    A sample is memorized iff d_1 / d_k < tau_gap strictly; a degenerate
    d_k = 0 (exact atom collision) counts as memorized.
    """
    generated = np.asarray(generated, dtype=np.float64)
    train = np.asarray(train, dtype=np.float64)
    check_count("k_mem", k_mem, 2)
    if len(train) < k_mem:
        raise ValueError(f"need len(train) >= k_mem >= 2, got {len(train)}, {k_mem}")
    d2 = _sq_dists(generated, train, 1.0)
    d2.partition(k_mem - 1, axis=1)
    d1 = np.sqrt(d2[:, 0])
    dk = np.sqrt(d2[:, k_mem - 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dk > 0, d1 / dk, 0.0)
    memorized = ratios < tau_gap
    return MemorizationReport(float(memorized.mean()), ratios, d1, dk, tau_gap, k_mem)


def exact_w2(a, b) -> float:
    """2-Wasserstein distance between equal-size empirical measures.

    Solves the optimal assignment exactly (cubic time) and returns
    sqrt(mean of matched squared distances).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) != len(b):
        raise ValueError(f"point sets must have equal size, got {len(a)} and {len(b)}")
    if len(a) > 1024:
        raise ValueError("exact matching is limited to 1024 points")
    # the only scipy import in kinflow, here so that start-up does not pay it
    from scipy.optimize import linear_sum_assignment
    cost = _sq_dists(a, b, 1.0)
    rows, cols = linear_sum_assignment(cost)
    return float(math.sqrt(cost[rows, cols].mean()))


def nearest_strata(points, dataset: LabeledDataset) -> np.ndarray:
    """The stratum label of each point's nearest training point (the first on ties)."""
    d2 = _sq_dists(np.asarray(points, dtype=np.float64), dataset.points, 1.0)
    return np.array(dataset.strata)[d2.argmin(axis=1)]


@dataclass(frozen=True)
class KpeDensityReport:
    """Rank statistics relating per-trajectory energy to endpoint density."""

    rho_knn: float
    rho_kde: float
    cliffs_delta: float   # delta(KPE dense, KPE sparse); negative when sparse is higher
    mwu_u: float          # U for the sparse-stratum sample
    mwu_p: float
    cohens_d: float       # d(KPE sparse, KPE dense)
    n: int
    mean_kpe_sparse: float
    mean_kpe_dense: float


def kpe_density_report(kpes, endpoints, dataset: LabeledDataset,
                       knn_k: int = 50, kde_bandwidth: float = 0.1) -> KpeDensityReport:
    """Correlate per-trajectory energies with endpoint training-data density.

    Spearman correlations use log densities (k-NN and KDE against the training
    set).  The stratum comparison assigns each endpoint the stratum of its
    nearest training point; sparse vs dense groups are compared with the
    Mann-Whitney test, Cliff's delta, and Cohen's d.
    """
    kpes = np.asarray(kpes, dtype=np.float64)
    endpoints = np.asarray(endpoints, dtype=np.float64)
    if len(kpes) != len(endpoints):
        raise ValueError("kpes and endpoints must align")
    if len(kpes) < 30:
        raise ValueError("need at least 30 trajectories")

    knn = knn_density(dataset.points, endpoints, knn_k)
    kde = KdeEstimator(dataset.points, kde_bandwidth).density(endpoints)
    log_knn, log_kde = (np.log(np.maximum(dens, DENSITY_FLOOR)) for dens in (knn, kde))
    if np.all(log_kde == log_kde[0]):
        raise UndefinedStatistic(
            f"kde_bandwidth {kde_bandwidth!r} gives every endpoint the same KDE density "
            f"(floored at {DENSITY_FLOOR}), so rho_kde is undefined")
    rho_knn, rho_kde = spearman(kpes, log_knn), spearman(kpes, log_kde)

    sparse_mask = np.char.startswith(nearest_strata(endpoints, dataset), "sparse")
    kpe_sparse = kpes[sparse_mask]
    kpe_dense = kpes[~sparse_mask]
    if len(kpe_sparse) == 0 or len(kpe_dense) == 0:
        raise UndefinedStatistic("one stratum group is empty; cannot compare")
    delta = cliffs_delta(kpe_dense, kpe_sparse)
    u, p = mann_whitney_u(kpe_sparse, kpe_dense)
    d_eff = cohens_d(kpe_sparse, kpe_dense)
    return KpeDensityReport(
        rho_knn=rho_knn, rho_kde=rho_kde, cliffs_delta=delta, mwu_u=u, mwu_p=p,
        cohens_d=d_eff, n=len(kpes), mean_kpe_sparse=float(kpe_sparse.mean()),
        mean_kpe_dense=float(kpe_dense.mean()))
