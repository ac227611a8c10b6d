"""Density-stratified 2D toy datasets and a ground-truth kernel density estimator.

Three generators with explicitly controlled density stratification:

* ``dense_sparse``        -- tight Gaussian core (60%) plus a wide sparse ring (40%)
* ``multiscale_clusters`` -- diffuse central blob (20%) plus four tight peripheral
  clusters (20% each)
* ``sandwich``            -- dense horizontal band (60%) between two sparse bands
  (20% each)

Every generator is a pure function of ``(kind, n, seed)``: one child RNG stream
is spawned per component in listed order, so regeneration is bit-identical and
independent of evaluation order.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .efm import _row_step, _sq_dists

DENSE_SPARSE = "dense_sparse"
MULTISCALE_CLUSTERS = "multiscale_clusters"
SANDWICH = "sandwich"

DATASET_KINDS = (DENSE_SPARSE, MULTISCALE_CLUSTERS, SANDWICH)

#: stratum labels that are legal for each dataset kind
STRATA_BY_KIND = {
    DENSE_SPARSE: ("dense_core", "sparse_ring"),
    MULTISCALE_CLUSTERS: ("sparse_center", "dense_cluster"),
    SANDWICH: ("dense_band", "sparse_band"),
}

_CLUSTER_CENTERS = np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]])

CSV_HEADER = ("x", "y", "stratum")


@dataclass(frozen=True)
class LabeledDataset:
    """2D points with per-point density-stratum labels and generator provenance."""

    points: np.ndarray          # (n, 2) float64
    strata: tuple[str, ...]     # length n
    kind: str
    seed: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if len(self.strata) != len(pts):
            raise ValueError("strata length must match point count")
        legal = STRATA_BY_KIND.get(self.kind)
        if legal is not None and not set(self.strata) <= set(legal):
            raise ValueError(f"illegal strata for kind {self.kind!r}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "strata", tuple(self.strata))

    @property
    def n(self) -> int:
        return len(self.points)

    def mask(self, stratum: str) -> np.ndarray:
        return np.array([s == stratum for s in self.strata])


def _require_n(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 10:
        raise ValueError(f"n must be an integer >= 10, got {n!r}")


def check_spec(kind: str, n: int) -> None:
    """Raise ValueError unless ``generate`` can make ``n`` points of ``kind``."""
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}; expected one of {DATASET_KINDS}")
    _require_n(n)


def gen_dense_sparse(n: int, seed: int) -> LabeledDataset:
    """Dense Gaussian core (60%, sigma 0.15) plus sparse perturbed ring (40%).

    Ring points are drawn with radius uniform on [2.3, 2.7] and angle uniform
    on [0, 2pi), then perturbed by N(0, 0.5^2 I).  Uniform-in-radius is the
    annulus sampling convention recorded in the provenance.
    """
    _require_n(n)
    n_core = int(0.6 * n)
    n_ring = n - n_core
    core_ss, ring_ss = np.random.SeedSequence(seed).spawn(2)

    core = 0.15 * np.random.default_rng(core_ss).standard_normal((n_core, 2))

    rng = np.random.default_rng(ring_ss)
    r = rng.uniform(2.3, 2.7, n_ring)
    theta = rng.uniform(0.0, 2.0 * np.pi, n_ring)
    ring = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    ring = ring + 0.5 * rng.standard_normal((n_ring, 2))

    points = np.concatenate([core, ring])
    strata = ("dense_core",) * n_core + ("sparse_ring",) * n_ring
    return LabeledDataset(points, strata, DENSE_SPARSE, seed,
                          provenance={"annulus_sampling": "uniform-in-radius"})


def gen_multiscale_clusters(n: int, seed: int) -> LabeledDataset:
    """Diffuse center (20%, sigma 0.6) plus four tight clusters (20% each, sigma 0.08).

    Cluster centers are (2,0), (0,2), (-2,0), (0,-2).  The rounding remainder
    goes to the first-listed component (the sparse center).
    """
    _require_n(n)
    n_grp = int(0.2 * n)
    n_center = n - 4 * n_grp
    streams = np.random.SeedSequence(seed).spawn(5)

    center = 0.6 * np.random.default_rng(streams[0]).standard_normal((n_center, 2))
    clusters = [
        c + 0.08 * np.random.default_rng(ss).standard_normal((n_grp, 2))
        for c, ss in zip(_CLUSTER_CENTERS, streams[1:])
    ]

    points = np.concatenate([center] + clusters)
    strata = ("sparse_center",) * n_center + ("dense_cluster",) * (4 * n_grp)
    return LabeledDataset(points, strata, MULTISCALE_CLUSTERS, seed)


def gen_sandwich(n: int, seed: int) -> LabeledDataset:
    """Dense middle band (60%) between sparse top and bottom bands (20% each).

    Middle: x ~ U[-3,3], y ~ U[-0.3,0.3], plus N(0, 0.1^2 I).
    Top/bottom: x ~ U[-3,3], y ~ U[1.5,2.5] / U[-2.5,-1.5], plus N(0, 0.3^2 I).
    """
    _require_n(n)
    n_mid = int(0.6 * n)
    n_top = int(0.2 * n)
    n_bot = int(0.2 * n)
    n_mid += n - (n_mid + n_top + n_bot)
    streams = np.random.SeedSequence(seed).spawn(3)

    def band(ss, count, y_lo, y_hi, noise):
        rng = np.random.default_rng(ss)
        x = rng.uniform(-3.0, 3.0, count)
        y = rng.uniform(y_lo, y_hi, count)
        return np.stack([x, y], axis=1) + noise * rng.standard_normal((count, 2))

    mid = band(streams[0], n_mid, -0.3, 0.3, 0.1)
    top = band(streams[1], n_top, 1.5, 2.5, 0.3)
    bot = band(streams[2], n_bot, -2.5, -1.5, 0.3)

    points = np.concatenate([mid, top, bot])
    strata = ("dense_band",) * n_mid + ("sparse_band",) * (n_top + n_bot)
    return LabeledDataset(points, strata, SANDWICH, seed)


_GENERATORS = {
    DENSE_SPARSE: gen_dense_sparse,
    MULTISCALE_CLUSTERS: gen_multiscale_clusters,
    SANDWICH: gen_sandwich,
}


def generate(kind: str, n: int, seed: int) -> LabeledDataset:
    """Dispatch to the generator for ``kind``."""
    check_spec(kind, n)
    return _GENERATORS[kind](n, seed)


@dataclass(frozen=True)
class KdeEstimator:
    """Gaussian-kernel density estimate over a fixed reference point set.

    density(q) = (1 / (n 2 pi h^2)) sum_i exp(-||q - p_i||^2 / (2 h^2))
    """

    points: np.ndarray
    bandwidth: float = 0.1

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or len(pts) == 0:
            raise ValueError("reference set must be a non-empty (n, d) array")
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        object.__setattr__(self, "points", pts)

    def density(self, q) -> np.ndarray | float:
        """Evaluate the density at one query point (d,) or a batch (m, d)."""
        q = np.asarray(q, dtype=np.float64)
        qs = q.reshape(-1, q.shape[-1])
        h2 = self.bandwidth ** 2
        out = np.empty(len(qs))
        norm = 1.0 / (len(self.points) * 2.0 * np.pi * h2)
        step = _row_step(len(qs), len(self.points))
        for lo in range(0, len(qs), step):
            d2 = _sq_dists(qs[lo:lo + step], self.points, 1.0)
            out[lo:lo + step] = norm * np.exp(-d2 / (2.0 * h2)).sum(axis=1)
        return float(out[0]) if q.ndim == 1 else out


def save_csv(dataset: LabeledDataset, path) -> None:
    """Write ``x,y,stratum`` rows using shortest round-trip decimal encoding."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for (x, y), s in zip(dataset.points, dataset.strata):
            writer.writerow([repr(float(x)), repr(float(y)), s])


def infer_kind(strata) -> str:
    """Map a set of stratum labels back to its dataset kind ('unknown' if mixed)."""
    labels = set(strata)
    for kind, legal in STRATA_BY_KIND.items():
        if labels and labels <= set(legal):
            return kind
    return "unknown"


def load_csv(path) -> LabeledDataset:
    """Read a dataset written by :func:`save_csv` (lossless round trip).

    The kind is inferred from the stratum labels.
    """
    with open(path, newline="") as fh:
        return loads_csv(fh.read())


def loads_csv(text: str) -> LabeledDataset:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
        raise ValueError(f"expected header {','.join(CSV_HEADER)!r}, got {header}")
    coords, strata = [], []
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"expected {len(CSV_HEADER)} fields "
                                 f"({','.join(CSV_HEADER)}), got {len(row)}")
            x, y = float(row[0]), float(row[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"coordinates must be finite, got {row[0]},{row[1]}")
            coords.append([x, y])
        except ValueError as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
        strata.append(row[2])
    points = np.array(coords, dtype=np.float64).reshape(-1, 2)
    return LabeledDataset(points, tuple(strata), infer_kind(strata), -1)
