"""ODE sampling with per-step kinetic energy accumulation and velocity shaping.

Any callable ``field(x, t) -> velocity`` that takes an (m, d) batch of states
and returns an (m, d) velocity, or one that broadcasts to it, can be
integrated on a uniform grid over [0, 1 - delta_cut] with forward Euler or the
explicit midpoint rule.  All trajectories of a batch advance together: one
field call per solver stage per step, whatever m is.  The
per-step instantaneous power ||v||^2 is recorded at the evaluation that moves
the state (Euler: left endpoint; midpoint: the midpoint evaluation), and the
kinetic path energy is the half-sum of power times the step width.

Kinetic trajectory shaping rescales a base field by a time-dependent gain:
a linearly decaying boost before ``tau_split`` and an exponentially growing
damping after it, continuous at the split.  The sampler applies the gain
itself, so a whole grid of gain schedules shares one base-field call per
solver stage per step.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

VelocityField = Callable[[np.ndarray, float], np.ndarray]

TRACE_HEADER = ("traj_id", "t", "x", "y", "power", "cum_kpe")


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
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
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
        if self.alpha0 < 0 or self.beta0 < 0:
            raise ValueError("alpha0 and beta0 must be >= 0")
        if self.k <= 0:
            raise ValueError("k must be > 0")
        if not (0.0 < self.tau_split < 1.0):
            raise ValueError("tau_split must lie in (0, 1)")
        # eta falls monotonically after the split; eta(1) > 0 keeps it positive
        landing = self.beta0 * (np.exp(self.k * (1.0 - self.tau_split)) - 1.0)
        if landing >= 1.0:
            raise ValueError(f"beta0={self.beta0} reverses the flow: eta(1) = "
                             f"{1.0 - landing:.3g} <= 0")


def kts_eta(s: KtsSchedule, t: float) -> float:
    """Time-dependent gain; equals 1 + alpha0 at t=0 and 1 at the split."""
    if t < s.tau_split:
        return 1.0 + s.alpha0 * max(0.0, 1.0 - t / s.tau_split)
    return 1.0 - s.beta0 * (np.exp(s.k * (t - s.tau_split)) - 1.0)


@dataclass(frozen=True)
class Trajectory:
    """One integrated path with its power trace and accumulated energy.

    ``times`` has steps+1 grid points; ``velocities`` and ``power`` have one
    entry per step at the step's defining evaluation.  ``kpe`` is
    ``kpe_early + kpe_late`` split at ``tau_split`` by the step's left grid
    time.
    """

    times: np.ndarray       # (N+1,)
    states: np.ndarray      # (N+1, d)
    velocities: np.ndarray  # (N, d)
    power: np.ndarray       # (N,)
    kpe: float
    kpe_early: float
    kpe_late: float
    tau_split: float
    meta: dict = field(default_factory=dict)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]

    def cum_kpe(self) -> np.ndarray:
        """Accumulated energy after each grid point (starts at 0)."""
        inc = 0.5 * self.power * self.dt
        return np.concatenate([[0.0], np.cumsum(inc)])


def _integrate_rows(field_fn: VelocityField, x0: np.ndarray, cfg: SolverConfig,
                    tau_split: float, meta: dict | None,
                    schedules: Sequence[KtsSchedule] | None = None):
    """Advance the (m, d) starts ``x0`` together, once per gain schedule: row
    c*m + i starts at x0[i] and follows eta_c(t) * field(x, t) (the field
    itself when ``schedules`` is None).  One field call per solver stage per
    step, on the rows still finite; each row's gain multiplies its velocity
    before the finiteness check.  Returns the trajectories (row views of one
    (C*m, N+1, d) buffer; valid only without failures) and the sorted
    (row, step) pairs at which rows turned non-finite."""
    m, dim = x0.shape
    dt = (1.0 - cfg.delta_cut) / cfg.steps
    times = np.linspace(0.0, 1.0 - cfg.delta_cut, cfg.steps + 1)
    gain = None
    if schedules is not None:
        x0 = np.tile(x0, (len(schedules), 1))
        # gain[c, j, k]: schedule c's eta at stage k of step j
        offsets = (0.0, 0.5 * dt) if cfg.method == "midpoint" else (0.0,)
        gain = np.array([[[kts_eta(s, t + h) for h in offsets] for t in times[:-1]]
                         for s in schedules])

    def call(x, t, rows, j, k):
        v = np.broadcast_to(field_fn(x, t), x.shape).astype(np.float64)
        if gain is not None:
            v *= gain[rows // m, j, k][:, None]
        return v

    n = len(x0)
    states = np.empty((n, cfg.steps + 1, dim))
    velocities = np.empty((n, cfg.steps, dim))
    states[:, 0] = x = x0
    rows, failures = np.arange(n), []
    for j, t in enumerate(times[:-1]):
        v = call(x, t, rows, j, 0)
        if cfg.method == "midpoint":
            ok = np.isfinite(v).all(axis=1)
            if ok.any():
                v[ok] = call(x[ok] + 0.5 * dt * v[ok], t + 0.5 * dt, rows[ok], j, 1)
        x = x + dt * v
        velocities[rows, j], states[rows, j + 1] = v, x
        ok = np.isfinite(v).all(axis=1) & np.isfinite(x).all(axis=1)
        failures += [(int(i), j) for i in rows[~ok]]
        rows, x = rows[ok], x[ok]
        if not len(rows):
            break

    power = (velocities ** 2).sum(axis=2)
    early = times[:-1] < tau_split
    kpe_early = 0.5 * power[:, early].sum(axis=1) * dt
    kpe_late = 0.5 * power[:, ~early].sum(axis=1) * dt
    info = {"method": cfg.method, "steps": cfg.steps, "delta_cut": cfg.delta_cut,
            **(meta or {})}
    return [Trajectory(times, states[i], velocities[i], power[i], float(ke + kl),
                       float(ke), float(kl), tau_split, dict(info))
            for i, (ke, kl) in enumerate(zip(kpe_early, kpe_late))], sorted(failures)


def integrate(field_fn: VelocityField, x0, cfg: SolverConfig,
              tau_split: float = 0.6, meta: dict | None = None) -> Trajectory:
    """Integrate one trajectory from ``x0``: the m = 1 case of the batched
    core, so the field is called with a (1, d) batch."""
    trajs, failures = _integrate_rows(field_fn, np.array(x0, dtype=np.float64)[None, :],
                                      cfg, tau_split, meta)
    if failures:
        raise IntegrationDiverged(failures[0][1])
    return trajs[0]


def sample_batch(field_fn: VelocityField, m: int, cfg: SolverConfig,
                 tau_split: float = 0.6, dim: int = 2,
                 meta: dict | None = None,
                 schedules: Sequence[KtsSchedule] | None = None) -> list[Trajectory]:
    """Integrate ``m`` trajectories from i.i.d. standard-normal starts.

    Initial states come from per-trajectory child streams of ``cfg.seed``
    (stream i = SeedSequence(seed).spawn(m)[i]), so results do not depend on
    execution order.  All failures are collected before raising.

    With ``schedules`` (s_0, ..., s_{C-1}) the m starts are integrated once
    under each shaped field eta_c(t) * field(x, t), all C*m rows in the same
    field calls: steps x stages calls whatever C*m is.  The result holds C
    blocks of m trajectories in schedule order; trajectory c*m + i (its id in
    ``failures`` too) is start i under schedule c.  ``tau_split`` splits the
    energy of every row, whatever the schedules' own splits.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if schedules is not None and not len(schedules):
        raise ValueError("schedules must hold at least one KtsSchedule")
    x0 = np.stack([np.random.default_rng(ss).standard_normal(dim)
                   for ss in np.random.SeedSequence(cfg.seed).spawn(m)])
    trajs, failures = _integrate_rows(field_fn, x0, cfg, tau_split, meta, schedules)
    if failures:
        err = IntegrationDiverged(failures[0][1], failures[0][0])
        err.failures = [(i, IntegrationDiverged(step, i)) for i, step in failures]
        raise err
    return trajs


def save_traces(trajectories: Sequence[Trajectory], path) -> None:
    """Write per-grid-point rows ``traj_id,t,x,y,power,cum_kpe``.

    Row j of a trajectory holds the state at grid point j; its power column is
    the power of the step that produced it (0 for the initial row), and
    cum_kpe is the energy accumulated up to that grid point.  Floats are
    written as their shortest round-trip ``repr`` and rows end in ``\\r\\n``,
    as ``csv.writer`` writes them.
    """
    ids, cols = [], []
    for tid, traj in enumerate(trajectories):
        ids += [tid] * len(traj.times)
        cols.append(np.column_stack([traj.times, traj.states[:, 0], traj.states[:, 1],
                                     np.concatenate([[0.0], traj.power]),
                                     traj.cum_kpe()]))
    table = np.concatenate(cols).tolist() if cols else []
    row = "%d,%r,%r,%r,%r,%r\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n"
                 + "".join([row % (tid, *vals) for tid, vals in zip(ids, table)]))


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


def batch_summary(trajectories: Sequence[Trajectory], extra: dict | None = None) -> dict:
    """JSON-ready summary: per-trajectory energies and endpoints plus metadata."""
    per_traj = [{
        "id": i,
        "kpe": traj.kpe,
        "kpe_early": traj.kpe_early,
        "kpe_late": traj.kpe_late,
        "endpoint": [float(c) for c in traj.endpoint],
    } for i, traj in enumerate(trajectories)]
    meta = dict(trajectories[0].meta) if trajectories else {}
    meta["tau_split"] = trajectories[0].tau_split if trajectories else None
    if extra:
        meta.update(extra)
    return {"trajectories": per_traj, "solver": meta}
