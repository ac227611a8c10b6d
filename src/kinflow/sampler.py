"""ODE sampling with per-step kinetic energy accumulation and velocity shaping.

``integrate`` is the one integration body.  It takes explicit starts, one
(d,) state or an (m, d) batch, and any callable ``field(x, t) -> velocity``
that takes an (m, d) batch of states and returns an (m, d) velocity, or one
that broadcasts to it.  It integrates on a uniform grid over
[0, 1 - delta_cut] with forward Euler or the explicit midpoint rule.  All
trajectories advance together: one field call per solver stage per step,
whatever m is, and come back as one ``Trajectory`` record with a row axis.
``sample_batch`` draws seeded 2-D starts and calls it.  The per-step
instantaneous power ||v||^2 is recorded at the evaluation that moves the
state (Euler: left endpoint; midpoint: the midpoint evaluation), and the
kinetic path energy is the half-sum of power times the step width.

Kinetic trajectory shaping rescales a base field by a time-dependent gain:
a linearly decaying boost before ``tau_split`` and an exponentially growing
damping after it, continuous at the split.  Every path runs under a gain
schedule, the identity (gain exactly 1) by default, and its energy is split
into early and late parts at that schedule's ``tau_split``.  The sampler
applies the gain itself, so a whole grid of gain schedules that share one
split shares one base-field call per solver stage per step.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

VelocityField = Callable[[np.ndarray, float], np.ndarray]

TRACE_HEADER = ("traj_id", "t", "x", "y", "power", "cum_kpe")


def check_count(name: str, value, least: int) -> None:
    """Raise ValueError, naming ``name``, unless ``value`` is an integer (not
    a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


class IntegrationDiverged(RuntimeError):
    """Raised when an integrated state or velocity becomes non-finite."""

    def __init__(self, step: int, trajectory: int | None = None):
        where = f"step {step}" if trajectory is None else \
            f"trajectory {trajectory}, step {step}"
        super().__init__(f"non-finite state encountered at {where}")
        self.step = step
        self.trajectory = trajectory


@dataclass(frozen=True)
class SolverConfig:
    method: str = "euler"          # "euler" | "midpoint"
    steps: int = 100
    delta_cut: float = 0.0         # integrate on [0, 1 - delta_cut]
    seed: int = 0                  # initial-state draws in sample_batch

    def __post_init__(self):
        if self.method not in ("euler", "midpoint"):
            raise ValueError(f"unknown solver method {self.method!r}")
        check_count("steps", self.steps, 1)
        if not (0.0 <= self.delta_cut < 0.5):
            raise ValueError("delta_cut must lie in [0, 0.5)")


@dataclass(frozen=True)
class KtsSchedule:
    """Gain schedule: launch boost alpha0, landing damping beta0, rate k, split."""

    alpha0: float = 0.0
    beta0: float = 0.0
    k: float = 3.0
    tau_split: float = 0.6

    def __post_init__(self):
        for name in ("alpha0", "beta0", "k"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha0 < 0 or self.beta0 < 0:
            raise ValueError("alpha0 and beta0 must be >= 0")
        if self.k <= 0:
            raise ValueError("k must be > 0")
        if not (0.0 < self.tau_split < 1.0):
            raise ValueError("tau_split must lie in (0, 1)")
        # eta falls monotonically after the split; eta(1) > 0 keeps it positive
        if (eta1 := kts_eta(self, 1.0)) <= 0.0:
            raise ValueError(f"beta0={self.beta0} reverses the flow: eta(1) = "
                             f"{eta1:.3g} <= 0")


def kts_eta(s: KtsSchedule, t: float) -> float:
    """Time-dependent gain; equals 1 + alpha0 at t=0 and 1 at the split."""
    if t < s.tau_split:
        return 1.0 + s.alpha0 * max(0.0, 1.0 - t / s.tau_split)
    return 1.0 - s.beta0 * (np.exp(s.k * (t - s.tau_split)) - 1.0)


@dataclass(frozen=True)
class Trajectory:
    """m integrated paths with their power traces and accumulated energies.

    ``times`` (steps+1 grid points), ``tau_split`` and ``meta`` (the solver
    settings) are shared; the other arrays have a leading row axis, which an
    integer index drops (one path, as iteration yields) and a slice keeps (a
    block).  Per step, ``velocities`` and ``power`` hold the defining
    evaluation; ``kpe`` is ``kpe_early + kpe_late``, split at ``tau_split``
    by the left grid time.
    """

    times: np.ndarray       # (N+1,)
    states: np.ndarray      # (m, N+1, d)
    velocities: np.ndarray  # (m, N, d)
    power: np.ndarray       # (m, N)
    kpe_early: np.ndarray   # (m,)
    kpe_late: np.ndarray    # (m,)
    tau_split: float
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.kpe_early)

    def __getitem__(self, rows) -> Trajectory:
        return replace(self, states=self.states[rows], velocities=self.velocities[rows],
                       power=self.power[rows], kpe_early=self.kpe_early[rows],
                       kpe_late=self.kpe_late[rows])

    @property
    def kpe(self):
        return self.kpe_early + self.kpe_late

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[..., -1, :]

    def cum_kpe(self) -> np.ndarray:
        """Accumulated energy after each grid point (starts at 0)."""
        return np.cumsum(np.insert(0.5 * self.power * self.dt, 0, 0.0, axis=-1), axis=-1)


def integrate(field_fn: VelocityField, x0, cfg: SolverConfig,
              schedules: Sequence[KtsSchedule] = (KtsSchedule(),)) -> Trajectory:
    """Integrate the starts ``x0``, one (d,) state or an (m, d) batch, once per
    gain schedule: row c*m + i (its id in ``failures`` too) starts at x0[i]
    and follows eta_c(t) * field(x, t), so block c is ``batch[c*m:(c+1)*m]``.
    All rows share one field call per solver stage per step, on the rows
    still finite; the identity schedule's gain is exactly 1.  Energies split
    at the schedules' shared ``tau_split``.  A (d,) start takes one schedule
    and returns one path, without the row axis.  A non-finite start raises
    ValueError before any field call.  All failures are collected before
    raising; the error names the first, with ``trajectory`` None for a (d,)
    start."""
    x0 = np.array(x0, dtype=np.float64)
    single = x0.ndim == 1
    x0 = x0[None, :] if single else x0
    if x0.ndim != 2 or not x0.size:
        raise ValueError(f"x0 must be one (d,) start or a non-empty (m, d) batch, "
                         f"got shape {x0.shape}")
    bad = np.flatnonzero(~np.isfinite(x0).all(axis=1))
    if len(bad):
        raise ValueError(f"x0 must be finite; start {bad[0]} is {x0[bad[0]].tolist()}")
    if not len(schedules) or (single and len(schedules) > 1):
        raise ValueError("schedules must hold one KtsSchedule, or several for (m, d) starts")
    splits = sorted({s.tau_split for s in schedules})
    if len(splits) > 1:
        raise ValueError(f"schedules must share one tau_split, got {splits}")
    m, dim = x0.shape
    dt = (1.0 - cfg.delta_cut) / cfg.steps
    times = np.linspace(0.0, 1.0 - cfg.delta_cut, cfg.steps + 1)
    # gain[i, j, k]: row i's eta at stage k of step j, row i under schedule i // m
    offsets = (0.0, 0.5 * dt) if cfg.method == "midpoint" else (0.0,)
    gain = np.repeat([[[kts_eta(s, t + h) for h in offsets] for t in times[:-1]]
                      for s in schedules], m, axis=0)

    def call(x, t, row_gain):
        # into a new array: the field's result may be a view of x, or a constant
        return np.multiply(field_fn(x, t), row_gain[:, None], out=np.empty_like(x))

    n = m * len(schedules)
    states = np.empty((n, cfg.steps + 1, dim))
    velocities = np.empty((n, cfg.steps, dim))
    states[:, 0] = x = np.tile(x0, (len(schedules), 1))
    # the live rows: a slice until the first row fails, indices after it
    rows, failures = slice(None), []
    for j, t in enumerate(times[:-1]):
        g = gain[rows, j]
        v = call(x, t, g[:, 0])
        if cfg.method == "midpoint":
            ok = np.isfinite(v).all(axis=1)
            part = slice(None) if ok.all() else ok
            if ok.any():
                v[part] = call(x[part] + 0.5 * dt * v[part], t + 0.5 * dt, g[part, 1])
        x = x + dt * v
        velocities[rows, j], states[rows, j + 1] = v, x
        # dt > 0, so a non-finite velocity leaves a non-finite state
        ok = np.isfinite(x).all(axis=1)
        if not ok.all():
            live = np.arange(n)[rows]
            failures += [(int(i), j) for i in live[~ok]]
            rows, x = live[ok], x[ok]
            if not len(rows):
                break
    if failures:
        errors = [(i, IntegrationDiverged(step, None if single else i))
                  for i, step in sorted(failures)]
        errors[0][1].failures = errors
        raise errors[0][1]

    power = (velocities ** 2).sum(axis=2)
    early = times[:-1] < splits[0]
    # the boolean-indexed copy is not C-contiguous, so numpy adds each row's
    # steps in sequence, not pairwise; every KPE byte (summaries, traces,
    # theory report) depends on that order, so per-step widths must keep it
    kpe_early = 0.5 * power[:, early].sum(axis=1) * dt
    kpe_late = 0.5 * power[:, ~early].sum(axis=1) * dt
    batch = Trajectory(times, states, velocities, power, kpe_early, kpe_late, splits[0],
                       {"method": cfg.method, "steps": cfg.steps, "delta_cut": cfg.delta_cut})
    return batch[0] if single else batch


def sample_batch(field_fn: VelocityField, m: int, cfg: SolverConfig,
                 schedules: Sequence[KtsSchedule] = (KtsSchedule(),)) -> Trajectory:
    """``integrate`` from ``m`` i.i.d. 2-D standard-normal starts.

    Initial states come from per-trajectory child streams of ``cfg.seed``
    (stream i = SeedSequence(seed).spawn(m)[i]), so results do not depend on
    execution order.
    """
    check_count("m", m, 1)
    x0 = np.stack([np.random.default_rng(ss).standard_normal(2)
                   for ss in np.random.SeedSequence(cfg.seed).spawn(m)])
    return integrate(field_fn, x0, cfg, schedules)


def save_traces(batch: Trajectory, path) -> None:
    """Write per-grid-point rows ``traj_id,t,x,y,power,cum_kpe`` of a batch.

    Row j of path i holds its state at grid point j; its power column is
    the power of the step that produced it (0 for the initial row), and
    cum_kpe is the energy accumulated up to that grid point.  Floats are
    written as their shortest round-trip ``repr`` and rows end in ``\\r\\n``,
    as ``csv.writer`` writes them.
    """
    m, points = batch.states.shape[:2]
    table = np.column_stack([
        np.repeat(np.arange(m), points), np.tile(batch.times, m),
        batch.states[..., 0].ravel(), batch.states[..., 1].ravel(),
        np.insert(batch.power, 0, 0.0, axis=1).ravel(), batch.cum_kpe().ravel()]).tolist()
    row = "%d,%r,%r,%r,%r,%r\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n"
                 + "".join([row % tuple(vals) for vals in table]))


def load_traces(path) -> list[dict]:
    """Read a trace file into one dict of arrays per trajectory, in id order."""
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if tuple(header) != TRACE_HEADER:
            raise ValueError(f"expected header {','.join(TRACE_HEADER)!r}, got {header}")
        body = fh.read()
    if not body.strip():
        return []
    table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    # a stable sort keeps each trajectory's rows in file order
    table = table[np.argsort(table[:, 0], kind="stable")]
    ids, starts = np.unique(table[:, 0], return_index=True)
    if not np.array_equal(ids, np.trunc(ids)):
        raise ValueError("traj_id values must be integers")
    return [{"traj_id": int(tid), "t": arr[:, 1], "x": arr[:, 2], "y": arr[:, 3],
             "power": arr[:, 4], "cum_kpe": arr[:, 5]}
            for tid, arr in zip(ids, np.split(table, starts[1:]))]


def batch_summary(batch: Trajectory) -> dict:
    """JSON-ready summary: per-trajectory energies and endpoints plus metadata."""
    per_traj = [{"id": i, "kpe": kpe, "kpe_early": ke, "kpe_late": kl, "endpoint": end}
                for i, (kpe, ke, kl, end) in enumerate(zip(
                    batch.kpe.tolist(), batch.kpe_early.tolist(), batch.kpe_late.tolist(),
                    batch.endpoint.tolist()))]
    return {"trajectories": per_traj, "solver": {**batch.meta, "tau_split": batch.tau_split}}
