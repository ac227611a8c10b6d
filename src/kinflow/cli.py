"""Command-line pipeline: generate -> train -> sample -> diagnose -> verify.

Subcommands: ``gen-data``, ``train``, ``sample``, ``diagnose``,
``verify-theory``, ``kts-sweep``, ``run`` (cached pipeline), ``plot``.
``train``, ``sample``, ``diagnose`` and ``verify-theory`` run the body of
their pipeline stage, on explicit paths.

A ``run --config`` file's ``train``, ``solver`` and ``kts`` sections are
``net.TrainConfig``, ``sampler.SolverConfig`` plus the trajectory count
``m``, and ``sampler.KtsSchedule``.  Unknown keys and invalid values exit 2
before any stage runs.  A stage's cache marker is removed while it runs and
written whole after it; an unreadable marker counts as absent.

Exit codes: 0 success, 2 invalid configuration, 3 stage failure,
4 verification-check failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__, datasets, diagnostics, net, sampler, svgplot, theory
from .efm import EfmField

EXIT_OK = 0
EXIT_INVALID_CONFIG = 2
EXIT_STAGE_FAILURE = 3
EXIT_CHECK_FAILURE = 4


class StageFailure(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = "dense_sparse"
    n: int = 1000
    seed: int = 7

    def __post_init__(self):
        datasets.check_spec(self.kind, self.n)


@dataclass(frozen=True)
class SolverStageConfig(sampler.SolverConfig):
    """The sampler's solver settings plus the number of trajectories ``m``."""

    seed: int = 5
    m: int = 500

    def __post_init__(self):
        super().__post_init__()
        sampler.check_count("m", self.m, 1)


@dataclass(frozen=True)
class DiagConfig:
    knn_k: int = 50
    kde_bandwidth: float = 0.1
    tau_gap: float = 1.0 / 3.0
    k_mem: int = 2
    eps: float = 0.1

    def __post_init__(self):
        sampler.check_count("knn_k", self.knn_k, 1)
        sampler.check_count("k_mem", self.k_mem, 2)
        if not 0.0 < self.tau_gap <= 1.0:       # NaN fails this too
            raise ValueError(f"tau_gap must lie in (0, 1], got {self.tau_gap}")
        if not 0.0 < self.eps < 0.5:
            raise ValueError(f"eps must lie in (0, 0.5), got {self.eps}")
        datasets.check_bandwidth(self.kde_bandwidth)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    train: net.TrainConfig = field(default_factory=lambda: net.TrainConfig(seed=1))
    solver: SolverStageConfig = field(default_factory=SolverStageConfig)
    kts: sampler.KtsSchedule = field(default_factory=sampler.KtsSchedule)
    diagnostics: DiagConfig = field(default_factory=DiagConfig)

    def __post_init__(self):
        for name in ("knn_k", "k_mem"):
            if getattr(self.diagnostics, name) > self.dataset.n:
                raise ValueError(f"diagnostics {name} exceeds the dataset's n of {self.dataset.n}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, blob: dict) -> "ExperimentConfig":
        """Each section's keys override that section's defaults.  An unknown
        section or key, a non-object, or a value the section rejects raises
        ValueError."""
        defaults = cls()
        _check_keys("the config", blob, defaults)
        sections = {}
        for name, keys in blob.items():
            _check_keys(f"config section {name!r}", keys, getattr(defaults, name))
            try:
                sections[name] = replace(getattr(defaults, name), **keys)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"config section {name!r}: {exc}") from None
        return cls(**sections)

    def with_profile(self, profile: str) -> "ExperimentConfig":
        if profile == "full":
            return replace(self, dataset=replace(self.dataset, n=1000),
                           train=replace(self.train, iterations=50_000),
                           solver=replace(self.solver, m=500, steps=100))
        if profile == "ci":
            return replace(self, dataset=replace(self.dataset, n=500),
                           train=replace(self.train, iterations=5_000),
                           solver=replace(self.solver, m=200, steps=50))
        raise ValueError(f"unknown profile {profile!r}")

    def with_master_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, dataset=replace(self.dataset, seed=seed),
                       train=replace(self.train, seed=seed + 1),
                       solver=replace(self.solver, seed=seed + 2))


def _check_keys(where: str, blob, default) -> None:
    """Raise ValueError unless ``blob`` is a dict of ``default``'s field names."""
    if not isinstance(blob, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(blob).__name__}")
    unknown = sorted(set(blob) - {f.name for f in fields(default)})
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def config_hash(blob: dict) -> str:
    canon = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# stage implementations (shared by subcommands and the pipeline)


def _write_json(path, payload) -> None:
    """Write whole or not at all: a temporary file renamed over ``path``."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _heldout_n(m: int) -> int:
    """Held-out set size for m trajectories (``generate`` needs n >= 10)."""
    return max(m, 10)


def stage_gen(cfg: ExperimentConfig, outdir: str) -> dict:
    data = datasets.generate(cfg.dataset.kind, cfg.dataset.n, cfg.dataset.seed)
    heldout = datasets.generate(cfg.dataset.kind, _heldout_n(cfg.solver.m),
                                cfg.dataset.seed + 1)
    data_path = os.path.join(outdir, "data.csv")
    held_path = os.path.join(outdir, "heldout.csv")
    datasets.save_csv(data, data_path)
    datasets.save_csv(heldout, held_path)
    return {"data": data_path, "heldout": held_path}


def _train(data_path: str, tc: net.TrainConfig, model_path: str,
           loss_path: str) -> net.TrainResult:
    result = net.train(datasets.load_csv(data_path).points, tc)
    net.save_checkpoint(result.params, model_path)
    with open(loss_path, "w") as fh:
        fh.write("iter,loss\n")
        for i, loss in enumerate(result.losses):
            fh.write(f"{i},{float(loss)!r}\n")
    return result


def stage_train(cfg: ExperimentConfig, outdir: str) -> dict:
    model_path = os.path.join(outdir, "model.ckpt")
    loss_path = os.path.join(outdir, "loss.csv")
    _train(os.path.join(outdir, "data.csv"), cfg.train, model_path, loss_path)
    return {"model": model_path, "loss_curve": loss_path}


def _sample(field_fn, label: str, solver: SolverStageConfig,
            schedule: sampler.KtsSchedule, outdir: str) -> sampler.Trajectory:
    """``solver.m`` trajectories under ``schedule``, written to ``outdir`` as
    ``traces.csv`` and ``summary.json``."""
    batch = sampler.sample_batch(field_fn, solver.m, solver, (schedule,))
    os.makedirs(outdir, exist_ok=True)
    sampler.save_traces(batch, os.path.join(outdir, "traces.csv"))
    summary = sampler.batch_summary(batch)
    summary["solver"].update(field=label, seed=solver.seed, alpha0=schedule.alpha0,
                             beta0=schedule.beta0, k=schedule.k)
    _write_json(os.path.join(outdir, "summary.json"), summary)
    return batch


def stage_sample(cfg: ExperimentConfig, outdir: str) -> dict:
    params = net.load_checkpoint(os.path.join(outdir, "model.ckpt"))
    _sample(net.NeuralVelocityField(params), "neural", cfg.solver, cfg.kts, outdir)
    return {"traces": os.path.join(outdir, "traces.csv"),
            "summary": os.path.join(outdir, "summary.json")}


def _load_heldout(path: str, data: datasets.LabeledDataset, m: int, source: str) -> np.ndarray:
    """The ``--heldout`` points at ``path``; a ValueError unless they number at
    least ``m`` (counted by ``source``) and share no point with ``data``."""
    heldout = datasets.load_csv(path).points
    if len(heldout) < m:
        raise ValueError(f"--heldout {path} has {len(heldout)} points, fewer than "
                         f"the {m} trajectories of {source}")
    shared = {*map(tuple, heldout.tolist())} & {*map(tuple, data.points.tolist())}
    if shared:
        raise ValueError(f"--heldout {path} shares {len(shared)} of its {len(heldout)} "
                         f"points with the {data.n} points of --data")
    return heldout


def _diagnose(summary_dir: str, data_path: str, heldout_path: str | None,
              diag: DiagConfig, config: dict, out_path: str) -> dict:
    """Energy/density and memorization statistics of the trajectories in
    ``summary_dir``/summary.json; W2 to the held-out set when one is given."""
    data = datasets.load_csv(data_path)
    with open(os.path.join(summary_dir, "summary.json")) as fh:
        trajs = json.load(fh)["trajectories"]
    heldout = None if heldout_path is None else _load_heldout(
        heldout_path, data, len(trajs), f"--traces {summary_dir}")
    kpes = np.array([t["kpe"] for t in trajs])
    endpoints = np.array([t["endpoint"] for t in trajs])
    report = asdict(diagnostics.kpe_density_report(kpes, endpoints, data,
                                                   knn_k=diag.knn_k,
                                                   kde_bandwidth=diag.kde_bandwidth))
    mem = diagnostics.f_mem(endpoints, data.points, tau_gap=diag.tau_gap,
                            k_mem=diag.k_mem)
    w2 = None if heldout is None else diagnostics.exact_w2(endpoints, heldout[:len(endpoints)])
    report.update(f_mem=mem.f_mem, w2=w2, config=config)
    _write_json(out_path, report)
    return report


def stage_diagnose(cfg: ExperimentConfig, outdir: str) -> dict:
    path = os.path.join(outdir, "diagnose_report.json")
    _diagnose(outdir, os.path.join(outdir, "data.csv"),
              os.path.join(outdir, "heldout.csv"), cfg.diagnostics, cfg.to_dict(), path)
    return {"report": path}


def _theory_report(atoms_by_dim: dict[int, np.ndarray], eps_values, seed: int) -> dict:
    """Run the bound, remainder, concentration, blow-up, and tail-bound suites."""
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.1, 0.9, 9)
    report = {"bounds": [], "remainders": [], "concentration": [],
              "blowup": [], "tail_bound": [], "linear_slopes_exact": True}

    for t in ts:
        consts = theory.bound_constants(EfmField(np.zeros((1, 2))), float(t), 0, 0.1)
        if abs(consts.lower_slope - 0.5) > 1e-14 or abs(consts.upper_slope - 12.0) > 1e-14:
            report["linear_slopes_exact"] = False

    for dim, atoms in atoms_by_dim.items():
        mix = EfmField(atoms)
        for eps in eps_values:
            points, rejected = theory.sample_dominant_points(mix, ts, eps, 40, rng)
            bounds = theory.check_energy_density_bounds(mix, points, eps)
            report["bounds"].append({
                "dim": dim, "n_atoms": int(mix.n_atoms), "eps": eps,
                "n_checked": bounds.n_checked, "n_skipped": bounds.n_skipped,
                "rejected_in_sampling": rejected,
                "pass_rate": bounds.pass_rate})
            report["remainders"].append({
                "dim": dim, "eps": eps, "n_checked": len(points),
                "n_failed": bounds.n_remainder_failed})

        probe_x, c = theory.isolated_probe(atoms)
        try:
            probe = theory.blowup_probe(mix, probe_x, c,
                                        deltas=[5e-3, 2e-3, 1e-3])
            report["blowup"].append({
                "dim": dim, "c": c, "t_bar": probe.t_bar,
                "all_passed": probe.all_passed})
        except ValueError as exc:
            report["blowup"].append({"dim": dim, "error": str(exc)})
        conc = theory.check_concentration(mix, atoms[0] + 0.5,
                                          np.linspace(0.9, 0.999, 12), margin=0.05)
        report["concentration"].append({
            "dim": dim, "all_passed": conc.all_passed,
            "n_margin_invalid": conc.n_margin_invalid})

        times = np.linspace(0.0, 1.0, 101)
        straight = atoms[0][None, :] * times[:, None] \
            + (1.0 - times)[:, None] * (atoms[0] - 1.0)
        lhs, rhs, ok = theory.universal_lower_bound_check(times, straight,
                                                          atoms[0], 0.5)
        report["tail_bound"].append({"dim": dim, "lhs": lhs, "rhs": rhs,
                                     "passed": ok})

        scfg = sampler.SolverConfig(method="midpoint", steps=100,
                                    delta_cut=1e-3, seed=seed)
        traj = sampler.integrate(mix, 0.1 * np.ones(atoms.shape[1]), scfg)
        kpe, integral, ratio = theory.integrated_energy_density(traj, mix)
        report.setdefault("integrated_energy_density", []).append({
            "dim": dim, "kpe": kpe, "neg_log_density_integral": integral,
            "ratio": ratio})

    # a suite in which no point passed the dominance filter has checked nothing
    report["inconclusive"] = sum(b["n_checked"] for b in report["bounds"]) == 0
    report["all_passed"] = (
        not report["inconclusive"] and report["linear_slopes_exact"]
        and all(b["pass_rate"] == 1.0 for b in report["bounds"])
        and all(r["n_failed"] == 0 for r in report["remainders"])
        and all(c["all_passed"] for c in report["concentration"])
        and all(b.get("all_passed", False) for b in report["blowup"])
        and all(t["passed"] for t in report["tail_bound"]))
    return report


def _theory_atoms(points: np.ndarray, n_atoms: int, seed: int) -> np.ndarray:
    """``n_atoms`` points drawn without replacement from a child stream of
    ``seed``, kept in file order.  Generators concatenate their strata, so a
    prefix may hold one stratum only; a seeded subsample spans them."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    return points[np.sort(rng.choice(len(points), min(n_atoms, len(points)),
                                     replace=False))]


def _verify(atoms_by_dim: dict[int, np.ndarray], eps: float, seed: int,
            out_path: str) -> dict:
    report = _theory_report(atoms_by_dim, [eps], seed=seed)
    _write_json(out_path, report)
    return report


def stage_verify(cfg: ExperimentConfig, outdir: str) -> dict:
    points = datasets.load_csv(os.path.join(outdir, "data.csv")).points
    path = os.path.join(outdir, "theory_report.json")
    report = _verify({2: _theory_atoms(points, 50, cfg.dataset.seed)},
                     cfg.diagnostics.eps, cfg.dataset.seed, path)
    if report["inconclusive"]:
        raise StageFailure("verify", RuntimeError(
            "theory checks inconclusive: no sampled point passed the dominance filter"))
    if not report["all_passed"]:
        raise StageFailure("verify", RuntimeError("theory checks failed"))
    return {"report": path}


PIPELINE_STAGES = (
    # gen reads the solver config only through the held-out size
    ("gen", stage_gen, ("dataset", "heldout_n")),
    ("train", stage_train, ("dataset", "train")),
    ("sample", stage_sample, ("dataset", "train", "solver", "kts")),
    ("diagnose", stage_diagnose, ("dataset", "train", "solver", "kts", "diagnostics")),
    ("verify", stage_verify, ("dataset", "diagnostics")),
)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:     # alive, owned by another user
        pass
    return True


def _acquire_lock(lock_path: str) -> None:
    """Create ``lock_path`` holding this process's pid.  A lock whose pid is
    no longer alive was left by a killed run and is broken; a lock without a
    readable pid is taken as held."""
    for _ in range(2):
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                with open(lock_path) as fh:
                    owner = fh.read().strip()
            except FileNotFoundError:       # released in the meantime
                continue
            if not owner.isdigit() or _pid_alive(int(owner)):
                raise StageFailure("lock", RuntimeError(
                    f"output directory is locked by another run "
                    f"(pid {owner or 'unknown'}): {lock_path}"))
            os.unlink(lock_path)
            continue
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()}\n")
        return
    raise StageFailure("lock", RuntimeError(
        f"another run took the lock while a stale one was broken: {lock_path}"))


def run_pipeline(cfg: ExperimentConfig, outdir: str) -> dict:
    """Execute all stages with config-hash caching; returns the manifest."""
    os.makedirs(outdir, exist_ok=True)
    lock_path = os.path.join(outdir, ".lock")
    _acquire_lock(lock_path)
    try:
        full = cfg.to_dict()
        manifest = {"config_hash": config_hash(full), "version": __version__,
                    "stages": {}}
        keyed = {**full, "heldout_n": _heldout_n(cfg.solver.m)}
        for name, fn, subtree in PIPELINE_STAGES:
            sub_hash = config_hash({k: keyed[k] for k in subtree})
            marker = os.path.join(outdir, f".stage_{name}.json")
            try:
                with open(marker) as fh:
                    cached = json.load(fh)
            except (OSError, ValueError):       # missing or cut short: run the stage
                cached = None
            if (isinstance(cached, dict) and cached.get("hash") == sub_hash
                    and all(os.path.exists(p) for p in cached["outputs"].values())):
                manifest["stages"][name] = {"outputs": cached["outputs"],
                                            "seconds": 0.0, "skipped": True}
                continue
            if os.path.exists(marker):
                # the stage overwrites the outputs this marker vouches for
                os.unlink(marker)
            start = time.perf_counter()
            try:
                outputs = fn(cfg, outdir)
            except StageFailure:
                raise
            except Exception as exc:
                raise StageFailure(name, exc)
            elapsed = time.perf_counter() - start
            _write_json(marker, {"hash": sub_hash, "outputs": outputs})
            manifest["stages"][name] = {"outputs": outputs, "seconds": elapsed,
                                        "skipped": False}
        _write_json(os.path.join(outdir, "run_manifest.json"), manifest)
        return manifest
    finally:
        os.unlink(lock_path)


def kts_sweep(params: net.MlpParams, data: datasets.LabeledDataset,
              heldout_points: np.ndarray, cfg: ExperimentConfig,
              alpha_grid, beta_grid) -> list[dict]:
    """Quality / memorization / energy table over a gain grid, baseline first.
    Every cell integrates the same starts, all in one batch."""
    m = cfg.solver.m
    cells = [(0.0, 0.0)] + [(a, b) for a in alpha_grid for b in beta_grid]
    batch = sampler.sample_batch(
        net.NeuralVelocityField(params), m, cfg.solver,
        [replace(cfg.kts, alpha0=a0, beta0=b0) for a0, b0 in cells])
    rows = []
    for c, (a0, b0) in enumerate(cells):
        block = batch[c * m:(c + 1) * m]
        mem = diagnostics.f_mem(block.endpoint, data.points,
                                tau_gap=cfg.diagnostics.tau_gap,
                                k_mem=cfg.diagnostics.k_mem)
        w2 = diagnostics.exact_w2(block.endpoint, heldout_points[:m])
        rows.append({
            "alpha0": a0, "beta0": b0, "w2": w2, "f_mem": mem.f_mem,
            "kpe_early": float(np.mean(block.kpe_early)),
            "kpe_late": float(np.mean(block.kpe_late)),
        })
    return rows


def emit_plots(trace_files: list[str], labels: list[str], outdir: str,
               data: datasets.LabeledDataset | None = None) -> list[str]:
    """Cumulative-energy and power curves (mean with interquartile band) plus
    per-variant energy-by-stratum box summaries when a dataset is given."""
    if not trace_files:
        raise ValueError("no trace files given")
    if len(set(labels)) != len(labels):
        raise ValueError(f"plot labels must be distinct, got {labels}")
    # each label names a stratum box file inside outdir
    for label in labels:
        if any(sep and sep in label for sep in ("/", os.sep, os.altsep)):
            raise ValueError(f"plot label {label!r} holds a path separator")
    loaded = [sampler.load_traces(path) for path in trace_files]
    for path, trajs in zip(trace_files, loaded):
        if not trajs:
            raise ValueError(f"{path} holds no trajectories")
    os.makedirs(outdir, exist_ok=True)
    written = []
    cum_plot = svgplot.LinePlot(title="cumulative kinetic energy", x_label="t",
                                y_label="energy")
    pow_plot = svgplot.LinePlot(title="instantaneous power", x_label="t",
                                y_label="power", log_y=True)
    for trajs, label in zip(loaded, labels):
        ts = trajs[0]["t"]
        cum = np.stack([tr["cum_kpe"] for tr in trajs])
        power = np.stack([tr["power"] for tr in trajs])[:, 1:]
        cum_plot.add_series(label, ts, cum.mean(axis=0))
        cum_plot.add_band(label, ts, np.percentile(cum, 25, axis=0),
                          np.percentile(cum, 75, axis=0))
        pow_plot.add_series(label, ts[1:], power.mean(axis=0))
        pow_plot.add_band(label, ts[1:], np.percentile(power, 25, axis=0),
                          np.percentile(power, 75, axis=0))
        if data is not None:
            endpoints = np.array([[tr["x"][-1], tr["y"][-1]] for tr in trajs])
            kpes = np.array([tr["cum_kpe"][-1] for tr in trajs])
            strata = diagnostics.nearest_strata(endpoints, data)
            groups = {s: kpes[strata == s] for s in sorted(set(strata.tolist()))}
            box_path = os.path.join(outdir, f"kpe_by_stratum_{label}.svg")
            svgplot.box_summary(box_path, f"energy by stratum ({label})", groups)
            written.append(box_path)
    cum_path = os.path.join(outdir, "cumulative_energy.svg")
    pow_path = os.path.join(outdir, "instant_power.svg")
    cum_plot.render(cum_path)
    pow_plot.render(pow_path)
    return [cum_path, pow_path] + written


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    defaults = ExperimentConfig()
    tc, solver, kts, diag = (defaults.train, defaults.solver, defaults.kts,
                             defaults.diagnostics)
    p = argparse.ArgumentParser(prog="kinflow", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a stratified 2D dataset CSV")
    g.set_defaults(handler=_cmd_gen_data)
    g.add_argument("--kind", required=True, choices=datasets.DATASET_KINDS)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="train the MLP velocity field")
    t.set_defaults(handler=_cmd_train)
    t.add_argument("--data", required=True)
    t.add_argument("--iters", type=int, default=tc.iterations)
    t.add_argument("--lr", type=float, default=tc.learning_rate)
    t.add_argument("--weight-decay", type=float, default=tc.weight_decay)
    t.add_argument("--batch", type=int, default=tc.batch_size)
    t.add_argument("--seed", type=int, default=tc.seed)
    t.add_argument("--out", required=True)
    t.add_argument("--loss-curve", default=None)

    s = sub.add_parser("sample", help="integrate trajectories and write traces")
    s.set_defaults(handler=_cmd_sample)
    src = s.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", help="MLP checkpoint path")
    src.add_argument("--efm", help="dataset CSV used as closed-form atoms")
    s.add_argument("--solver", choices=("euler", "midpoint"), default=solver.method)
    s.add_argument("--steps", type=int, default=solver.steps)
    s.add_argument("--m", type=int, default=solver.m)
    s.add_argument("--seed", type=int, default=solver.seed)
    s.add_argument("--alpha0", type=float, default=kts.alpha0)
    s.add_argument("--beta0", type=float, default=kts.beta0)
    s.add_argument("--k", type=float, default=kts.k)
    s.add_argument("--tau-split", type=float, default=kts.tau_split)
    s.add_argument("--delta-cut", type=float, default=None,
                   help="terminal cutoff; defaults to 0 (model) or 1e-3 (efm)")
    s.add_argument("--out", required=True, help="output directory")

    d = sub.add_parser("diagnose", help="energy/density statistics from traces")
    d.set_defaults(handler=_cmd_diagnose)
    d.add_argument("--traces", required=True, help="directory with summary.json")
    d.add_argument("--data", required=True)
    d.add_argument("--heldout", default=None)
    d.add_argument("--k", type=int, default=diag.knn_k)
    d.add_argument("--bandwidth", type=float, default=diag.kde_bandwidth)
    d.add_argument("--tau-gap", type=float, default=diag.tau_gap)
    d.add_argument("--k-mem", type=int, default=diag.k_mem)
    d.add_argument("--out", required=True)

    v = sub.add_parser("verify-theory", help="run the numerical bound suites")
    v.set_defaults(handler=_cmd_verify_theory)
    v.add_argument("--data", default=None, help="CSV atoms for the 2D case")
    v.add_argument("--eps", type=float, default=diag.eps)
    v.add_argument("--dims", default="1,2,5")
    v.add_argument("--atoms", type=int, default=50)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", required=True)

    k = sub.add_parser("kts-sweep", help="gain-grid sweep on a trained model")
    k.set_defaults(handler=_cmd_kts_sweep)
    k.add_argument("--model", required=True)
    k.add_argument("--data", required=True)
    k.add_argument("--heldout", required=True,
                   help="held-out CSV, disjoint from --data")
    k.add_argument("--alpha0-grid", default="0,0.01,0.02")
    k.add_argument("--beta0-grid", default="0,0.01,0.02")
    k.add_argument("--solver", choices=("euler", "midpoint"), default=solver.method)
    k.add_argument("--steps", type=int, default=solver.steps)
    k.add_argument("--m", type=int, default=solver.m)
    k.add_argument("--seed", type=int, default=solver.seed)
    k.add_argument("--out", required=True)

    r = sub.add_parser("run", help="full cached pipeline")
    r.set_defaults(handler=_cmd_run)
    r.add_argument("--config", default=None, help="JSON experiment config")
    r.add_argument("--profile", choices=("full", "ci"), default=None)
    r.add_argument("--seed", type=int, default=None, help="master seed override")
    r.add_argument("--kind", default=None, choices=datasets.DATASET_KINDS)
    r.add_argument("--out", required=True)

    pl = sub.add_parser("plot", help="render SVG energy/power plots from traces")
    pl.set_defaults(handler=_cmd_plot)
    pl.add_argument("--traces", required=True, help="comma-separated trace CSVs")
    pl.add_argument("--labels", default=None, help="comma-separated series labels")
    pl.add_argument("--data", default=None, help="dataset CSV for stratum boxes")
    pl.add_argument("--out", required=True, help="output directory")
    return p


def _cmd_gen_data(args) -> int:
    data = datasets.generate(args.kind, args.n, args.seed)
    datasets.save_csv(data, args.out)
    print(f"wrote {args.out} ({data.n} points, kind={data.kind})")
    return EXIT_OK


def _cmd_train(args) -> int:
    tc = net.TrainConfig(learning_rate=args.lr, weight_decay=args.weight_decay,
                         batch_size=args.batch, iterations=args.iters, seed=args.seed)
    loss_path = args.loss_curve or (os.path.splitext(args.out)[0] + "_loss.csv")
    # checked here, or a missing directory would surface only after the last step
    for option, path in (("--out", args.out), ("--loss-curve", loss_path)):
        folder = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(folder):
            raise ValueError(f"{option}: directory {folder} does not exist")
    result = _train(args.data, tc, args.out, loss_path)
    final = result.losses[-200:].mean() if len(result.losses) else float("nan")
    print(f"wrote {args.out}; final smoothed loss {final:.4f}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.model:
        base = net.NeuralVelocityField(net.load_checkpoint(args.model))
        label, delta_cut = "neural", 0.0
    else:
        base = EfmField(datasets.load_csv(args.efm).points)
        label, delta_cut = "efm", 1e-3
    solver = SolverStageConfig(
        method=args.solver, steps=args.steps, seed=args.seed, m=args.m,
        delta_cut=delta_cut if args.delta_cut is None else args.delta_cut)
    schedule = sampler.KtsSchedule(alpha0=args.alpha0, beta0=args.beta0,
                                   k=args.k, tau_split=args.tau_split)
    batch = _sample(base, label, solver, schedule, args.out)
    print(f"wrote {args.out}/traces.csv ({args.m} trajectories, "
          f"mean energy {batch.kpe.mean():.3f})")
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    diag = DiagConfig(knn_k=args.k, kde_bandwidth=args.bandwidth,
                      tau_gap=args.tau_gap, k_mem=args.k_mem)
    report = _diagnose(args.traces, args.data, args.heldout, diag, asdict(diag),
                       args.out)
    print(f"wrote {args.out}: rho_knn={report['rho_knn']:.3f} "
          f"rho_kde={report['rho_kde']:.3f} mwu_p={report['mwu_p']:.2e} "
          f"f_mem={report['f_mem']:.3f}")
    return EXIT_OK


def _split_values(option: str, text: str, kind: type) -> list:
    """The comma-separated ``kind`` values of ``option``; a ValueError naming
    the option for any other entry."""
    try:
        return [kind(v) for v in text.split(",") if v]
    except ValueError:
        raise ValueError(f"{option} must list {kind.__name__} values, got {text!r}") from None


def _cmd_verify_theory(args) -> int:
    dims = _split_values("--dims", args.dims, int)
    if not dims or min(dims) < 1:
        raise ValueError(f"--dims must list dimensions >= 1, got {args.dims!r}")
    if args.atoms < 1:
        raise ValueError(f"--atoms must be >= 1, got {args.atoms}")
    rng = np.random.default_rng(args.seed)
    atoms_by_dim = {}
    for d in dims:
        if d == 2 and args.data:
            atoms_by_dim[2] = _theory_atoms(datasets.load_csv(args.data).points,
                                            args.atoms, args.seed)
        else:
            atoms_by_dim[d] = 3.0 * rng.standard_normal((args.atoms, d))
    report = _verify(atoms_by_dim, args.eps, args.seed, args.out)
    status = "PASS" if report["all_passed"] else "FAIL"
    print(f"wrote {args.out}: {status}")
    return EXIT_OK if report["all_passed"] else EXIT_CHECK_FAILURE


def _cmd_kts_sweep(args) -> int:
    alpha_grid = _split_values("--alpha0-grid", args.alpha0_grid, float)
    beta_grid = _split_values("--beta0-grid", args.beta0_grid, float)
    cfg = ExperimentConfig(
        solver=SolverStageConfig(method=args.solver, steps=args.steps,
                                 m=args.m, seed=args.seed))
    data = datasets.load_csv(args.data)
    heldout = _load_heldout(args.heldout, data, args.m, f"--m {args.m}")
    params = net.load_checkpoint(args.model)
    rows = kts_sweep(params, data, heldout, cfg, alpha_grid, beta_grid)
    with open(args.out, "w") as fh:
        fh.write("alpha0,beta0,w2,f_mem,kpe_early,kpe_late\n")
        for r in rows:
            fh.write(f"{r['alpha0']!r},{r['beta0']!r},{r['w2']!r},"
                     f"{r['f_mem']!r},{r['kpe_early']!r},{r['kpe_late']!r}\n")
    print(f"wrote {args.out} ({len(rows)} rows incl. baseline)")
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = ExperimentConfig()
    if args.config:
        with open(args.config) as fh:
            cfg = ExperimentConfig.from_dict(json.load(fh))
    if args.profile:
        cfg = cfg.with_profile(args.profile)
    if args.kind:
        cfg = replace(cfg, dataset=replace(cfg.dataset, kind=args.kind))
    if args.seed is not None:
        cfg = cfg.with_master_seed(args.seed)
    manifest = run_pipeline(cfg, args.out)
    skipped = [k for k, v in manifest["stages"].items() if v["skipped"]]
    print(f"pipeline complete: config_hash={manifest['config_hash'][:12]} "
          f"skipped={skipped or 'none'}")
    return EXIT_OK


def _cmd_plot(args) -> int:
    files = [p for p in args.traces.split(",") if p]
    labels = (args.labels.split(",") if args.labels
              else [os.path.splitext(os.path.basename(p))[0] for p in files])
    if len(labels) != len(files):
        raise ValueError("labels must match the number of trace files")
    data = datasets.load_csv(args.data) if args.data else None
    written = emit_plots(files, labels, args.out, data)
    print("wrote " + ", ".join(written))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except (StageFailure, net.TrainingDiverged, sampler.IntegrationDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
