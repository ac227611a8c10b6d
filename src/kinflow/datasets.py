"""Density-stratified 2D toy datasets and a ground-truth kernel density estimator.

One table, ``_COMPONENTS``, defines every dataset kind: its components in
draw order as ``(stratum, share, shape, sd)``.  A component holds
``int(share * n)`` points, or the rest of ``n`` when ``share`` is None, each a
draw from ``shape`` plus N(0, sd^2 I) noise.  A shape is None, a fixed centre
``(x, y)``, an ``("annulus", r_lo, r_hi)`` uniform in radius and angle, or a
``("rectangle", x_lo, x_hi, y_lo, y_hi)`` uniform in x and y.
``dense_sparse`` is a tight core (60%) in a wide sparse ring,
``multiscale_clusters`` a diffuse centre (20%) and four tight clusters, and
``sandwich`` a dense band (60%) between two sparse bands.

``generate`` draws every component through the same lines, each from its own
child stream of ``SeedSequence(seed)`` spawned in listed order, so a dataset
is a pure function of ``(kind, n, seed)``.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .efm import _row_step, _sq_dists
from .sampler import check_count

_COMPONENTS = {
    "dense_sparse": (
        ("dense_core", 0.6, None, 0.15),
        ("sparse_ring", None, ("annulus", 2.3, 2.7), 0.5),
    ),
    "multiscale_clusters": (
        ("sparse_center", None, None, 0.6),
        *(("dense_cluster", 0.2, centre, 0.08)
          for centre in ((2.0, 0.0), (0.0, 2.0), (-2.0, 0.0), (0.0, -2.0))),
    ),
    "sandwich": (
        ("dense_band", None, ("rectangle", -3.0, 3.0, -0.3, 0.3), 0.1),
        ("sparse_band", 0.2, ("rectangle", -3.0, 3.0, 1.5, 2.5), 0.3),
        ("sparse_band", 0.2, ("rectangle", -3.0, 3.0, -2.5, -1.5), 0.3),
    ),
}

DATASET_KINDS = tuple(_COMPONENTS)

#: stratum labels that are legal for each dataset kind, in draw order
STRATA_BY_KIND = {kind: tuple(dict.fromkeys(c[0] for c in comps))
                  for kind, comps in _COMPONENTS.items()}

CSV_HEADER = ("x", "y", "stratum")


@dataclass(frozen=True)
class LabeledDataset:
    """2D points with per-point density-stratum labels."""

    points: np.ndarray          # (n, 2) float64
    strata: tuple[str, ...]     # length n
    kind: str
    seed: int

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


def check_spec(kind: str, n: int) -> None:
    """Raise ValueError unless ``generate`` can make ``n`` points of ``kind``."""
    if kind not in _COMPONENTS:
        raise ValueError(f"unknown dataset kind {kind!r}; expected one of {DATASET_KINDS}")
    check_count("n", n, 10)


def _shape_draw(shape, count: int, rng: np.random.Generator):
    """``count`` draws from a component's shape; None for no shape."""
    if shape is None:
        return None
    if shape[0] == "annulus":
        r = rng.uniform(shape[1], shape[2], count)
        theta = rng.uniform(0.0, 2.0 * np.pi, count)
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    if shape[0] == "rectangle":
        x = rng.uniform(shape[1], shape[2], count)
        y = rng.uniform(shape[3], shape[4], count)
        return np.stack([x, y], axis=1)
    return np.array(shape)


def generate(kind: str, n: int, seed: int) -> LabeledDataset:
    """``n`` points of dataset ``kind``, drawn from seed ``seed``."""
    check_spec(kind, n)
    components = _COMPONENTS[kind]
    counts = [None if share is None else int(share * n) for _, share, _, _ in components]
    rest = n - sum(k for k in counts if k is not None)
    counts = [rest if k is None else k for k in counts]
    streams = np.random.SeedSequence(seed).spawn(len(components))
    parts, strata = [], ()
    for (stratum, _, shape, sd), count, ss in zip(components, counts, streams):
        rng = np.random.default_rng(ss)
        base = _shape_draw(shape, count, rng)
        noise = sd * rng.standard_normal((count, 2))
        parts.append(noise if base is None else base + noise)
        strata += (stratum,) * count
    return LabeledDataset(np.concatenate(parts), strata, kind, seed)


def check_bandwidth(h) -> None:
    """Raise ValueError, naming ``kde_bandwidth``, unless ``h`` > 0 and h^2 is a
    finite, normal float (not so for 1e300, 1e-160 or 1e-200)."""
    if isinstance(h, bool) or not isinstance(h, numbers.Real) or not h > 0 \
            or not sys.float_info.min <= float(h) * float(h) < math.inf:
        raise ValueError(f"kde_bandwidth must be > 0 with a finite, normal square, got {h!r}")


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
        check_bandwidth(self.bandwidth)
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
            # far pairs overflow to -inf at a tiny bandwidth, where exp's
            # limit 0 is exact
            with np.errstate(over="ignore"):
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
    """Read a dataset written by :func:`save_csv`, inferring its kind from the labels."""
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
