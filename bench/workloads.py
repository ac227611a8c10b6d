"""The three workloads: set-up, one timed round, and the checks of a round.

A round is a fixed list of calls into kinflow, so every round attempts the
same operations.  Only the calls into kinflow are timed; the checks run after
all rounds, against ``reference`` (independent numpy/scipy code), never
against stored outputs.
"""

from __future__ import annotations

import contextlib
import filecmp
import hashlib
import json
import os
import shutil
import sys
import time
import xml.etree.ElementTree as ET

import numpy as np

import reference as ref
from probe import probe

clock = time.perf_counter


def derive_seeds(seed: int, *names: str) -> dict[str, int]:
    """Independent integer seeds, one per purpose, from the workload seed."""
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {name: int(c.generate_state(1)[0]) for name, c in zip(names, children)}


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Timer(dict):
    """Each named call of a round: (its wall time, the time of ``probe`` just
    before it, the time of ``probe`` just after it), all in seconds.  The
    traced run turns the probe off, so that its spans hold only kinflow and
    glue."""

    probing = True

    @contextlib.contextmanager
    def __call__(self, name: str):
        before = probe() if self.probing else 0.0
        start = clock()
        yield
        seconds = clock() - start
        self[name] = (seconds, before, probe() if self.probing else 0.0)


def call_cli(kf, argv: list[str]) -> int:
    """``kinflow <argv>`` in-process, its prints sent to stderr; the exit code."""
    with contextlib.redirect_stdout(sys.stderr):
        return kf.cli.main(argv)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def points_checked(theory_report: dict) -> int:
    return sum(b["n_checked"] for b in theory_report["bounds"])


def check_same_files(dirs: list[str], names: list[str]) -> list[str]:
    """Set-up repeated from the same seed writes byte-identical files."""
    return [f"set-up is not deterministic: {name} differs between {dirs[0]} and {d}"
            for name in names for d in dirs[1:]
            if not filecmp.cmp(os.path.join(dirs[0], name), os.path.join(d, name),
                               shallow=False)]


class Workload:
    """Set-up, rounds and checks of one workload; subclasses fill in the parts."""

    name = ""

    def __init__(self, kf, out: str):
        self.kf = kf
        self.out = out
        self.setup_dirs: list[str] = []

    def setup(self, i: int) -> None:
        """Write the inputs into a fresh set-up directory (timed as set-up)."""
        raise NotImplementedError

    def round(self, k: int) -> dict:
        """One timed round: ``ops`` (the wall time of each call into kinflow,
        by name), ``traj`` (the trajectories sampled by each sampling call, by
        the same names) and what the checks need."""
        raise NotImplementedError

    def check_setup(self) -> list[str]:
        raise NotImplementedError

    def count(self, result: dict) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) of a round, from its exit codes and
        reports."""
        raise NotImplementedError

    def check_outputs(self, result: dict) -> list[str]:
        """A round's outputs against the reference computations."""
        raise NotImplementedError

    def check_round(self, result: dict, first: dict | None = None):
        """(attempted, failed, problems) for one round.  The first round is
        checked against the reference computations; a later round ran on the
        same inputs and must have written the same bytes."""
        attempted, failed, problems = self.count(result)
        if failed == attempted:
            return attempted, failed, problems
        if first is None:
            return attempted, failed, problems + self.check_outputs(result)
        return attempted, failed, problems + [
            f"round output {name} differs from the first round's"
            for name in result["files"]
            if not os.path.exists(os.path.join(result["dir"], name))
            or not filecmp.cmp(os.path.join(first["dir"], name),
                               os.path.join(result["dir"], name), shallow=False)]

    def layer_counts(self, results: list[dict]) -> dict[str, float]:
        """Per-round counts read from the round's outputs, for the traced run."""
        theory = [r["points_checked"] for r in results if "points_checked" in r]
        return {"theory.points_checked": float(np.mean(theory)) if theory else 0.0}


# ---------------------------------------------------------------------------


class Pipeline(Workload):
    """``kinflow run`` cold, again with a new solver seed, then fully cached."""

    name = "pipeline"
    KIND, N, DATA_SEED = "dense_sparse", 500, 7     # the ci dataset, seed-independent
    M, STEPS, ITERS = 50, 50, 150
    ROWS_EVALUATED = 2 * M * STEPS          # cold and resample, Euler: one stage
    STAGES = ("gen", "train", "sample", "diagnose", "verify")
    MUST_RUN = (set(STAGES), {"sample", "diagnose"}, set())   # cold, new seed, cached
    FILES = tuple(f"run/{f}" for f in ("data.csv", "heldout.csv", "model.ckpt",
                                       "loss.csv", "theory_report.json")) + \
        tuple(f"kept/{tag}_{f}" for tag in ("cold", "resample")
              for f in ("summary.json", "traces.csv", "diagnose_report.json"))

    def __init__(self, kf, seed, out):
        super().__init__(kf, out)
        self.seeds = derive_seeds(seed, "train", "solver", "grad")
        self.solver_seeds = (self.seeds["solver"], self.seeds["solver"] + 1)

    def _config(self, solver_seed: int) -> dict:
        return {"dataset": {"kind": self.KIND, "n": self.N, "seed": self.DATA_SEED},
                "train": {"iterations": self.ITERS, "seed": self.seeds["train"]},
                "solver": {"method": "euler", "steps": self.STEPS, "m": self.M,
                           "seed": solver_seed, "delta_cut": 0.0}}

    def setup(self, i):
        d = fresh_dir(os.path.join(self.out, f"setup{i}"))
        for tag, s in zip(("cold", "resample"), self.solver_seeds):
            write_json(os.path.join(d, f"{tag}.json"), self._config(s))
        self.setup_dirs.append(d)

    def round(self, k):
        d = self.setup_dirs[-1]
        rdir = os.path.join(self.out, f"round{k}")
        run = fresh_dir(os.path.join(rdir, "run"))
        keep = fresh_dir(os.path.join(rdir, "kept"))
        timer = Timer()
        result = {"dir": rdir, "run": run, "keep": keep, "rc": [], "ops": timer,
                  "manifests": [], "files": list(self.FILES), "traj": {"resample": self.M}}
        for tag in ("cold", "resample", "cached"):
            cfg = os.path.join(d, ("cold" if tag == "cold" else "resample") + ".json")
            with timer(tag):
                rc = call_cli(self.kf, ["run", "--config", cfg, "--out", run])
            result["rc"].append(rc)
            man = os.path.join(run, "run_manifest.json")
            result["manifests"].append(read_json(man) if rc == 0 else None)
            if tag != "cached":
                # the next run rewrites these; keep this run's copy for the checks
                for f in ("summary.json", "traces.csv", "diagnose_report.json"):
                    if os.path.exists(os.path.join(run, f)):
                        shutil.copy(os.path.join(run, f), os.path.join(keep, f"{tag}_{f}"))
        theory = os.path.join(run, "theory_report.json")
        result["points_checked"] = points_checked(read_json(theory)) \
            if os.path.exists(theory) else 0
        return result

    def check_setup(self):
        return check_same_files(self.setup_dirs, ["cold.json", "resample.json"])

    def count(self, r):
        problems = []
        attempted = 3 * len(self.STAGES)
        for i, (rc, man) in enumerate(zip(r["rc"], r["manifests"])):
            if rc != 0 or man is None:
                return attempted, attempted, [f"kinflow run #{i} exited {rc}"]
            ran = {s for s, v in man["stages"].items() if not v["skipped"]}
            must = self.MUST_RUN[i]
            # gen is keyed on the whole solver config, so a solver-seed change re-runs it
            may = {"gen"} if i == 1 else set()
            if not must <= ran or ran - must - may:
                problems.append(f"kinflow run #{i} ran stages {sorted(ran)}, "
                                f"expected {sorted(must)}")
        # the verify stage passes, but fails here while its report has checked no point
        return attempted, int(r["points_checked"] == 0), problems

    def check_outputs(self, r):
        problems = []
        run, keep = r["run"], r["keep"]
        problems += ref.check_dataset_csv(os.path.join(run, "data.csv"), self.KIND,
                                          self.N, self.DATA_SEED)
        problems += ref.check_dataset_csv(os.path.join(run, "heldout.csv"), self.KIND,
                                          self.M, self.DATA_SEED + 1)
        data, strata = ref.read_points_csv(os.path.join(run, "data.csv"))
        held, _ = ref.read_points_csv(os.path.join(run, "heldout.csv"))

        ckpt = os.path.join(run, "model.ckpt")
        layers = ref.read_checkpoint(ckpt)
        problems += self._check_training(ckpt, layers, data, os.path.join(run, "loss.csv"))

        def field(x, t):
            return ref.mlp_forward(layers, x, t)

        for tag, seed in zip(("cold", "resample"), self.solver_seeds):
            x0 = ref.starts(seed, self.M)
            want = ref.integrate(field, x0, "euler", self.STEPS, 0.0)
            summary = read_json(os.path.join(keep, f"{tag}_summary.json"))
            rows = ref.read_traces(os.path.join(keep, f"{tag}_traces.csv"))
            problems += [f"{tag}: {p}" for p in ref.check_batch(summary, want)]
            problems += [f"{tag}: {p}" for p in ref.check_trace_rows(rows, want)]
            problems += [f"{tag}: {p}" for p in ref.check_starts(
                rows[rows[:, 1] == 0.0][:, 2:4], seed)]
            kpes = np.array([t["kpe"] for t in summary["trajectories"]])
            ends = np.array([t["endpoint"] for t in summary["trajectories"]])
            report = read_json(os.path.join(keep, f"{tag}_diagnose_report.json"))
            problems += ref.check_diagnose_report(
                report, ref.diagnose(kpes, ends, data, strata, held), f"{tag} diagnose")

        theory = read_json(os.path.join(run, "theory_report.json"))
        sampled = sum(b["n_checked"] + b["n_skipped"] + b["rejected_in_sampling"]
                      for b in theory["bounds"])
        if sampled != 9 * 40:
            problems.append(f"verify sampled {sampled} points, expected 360")
        return problems

    def _check_training(self, ckpt, layers, data, loss_path) -> list[str]:
        problems = []
        with open(loss_path) as fh:
            # rows are written with repr(np.float64), which numpy 2 wraps as
            # "np.float64(x)"; read the number inside
            losses = np.array([float(line.split(",")[1].strip().removeprefix(
                "np.float64(").removesuffix(")")) for line in fh.readlines()[1:]])
        if len(losses) != self.ITERS or not np.all(np.isfinite(losses)):
            problems.append(f"loss curve has {len(losses)} finite-checked rows, "
                            f"expected {self.ITERS}")
        elif not losses[-50:].mean() < losses[:50].mean():
            problems.append("training loss did not decrease")
        return problems + check_gradients(self.kf, ckpt, layers, data, self.seeds["grad"])

    def layer_counts(self, results):
        out = super().layer_counts(results)
        for stage in self.STAGES:
            out[f"cli.stage.{stage}.s"] = float(np.mean([
                sum(m["stages"][stage]["seconds"] for m in r["manifests"] if m)
                for r in results]))
        out["cli.stages_skipped"] = float(np.mean([
            sum(v["skipped"] for m in r["manifests"] if m for v in m["stages"].values())
            for r in results]))
        return out


def check_gradients(kf, ckpt, layers, data, seed: int) -> list[str]:
    """cfm_loss_grad at the checkpoint against the reference loss and central
    finite differences, on the same draws."""
    params = kf.net.load_checkpoint(ckpt)
    loss, grads = kf.net.cfm_loss_grad(params, data, 64, np.random.default_rng(seed))
    return ref.check_loss_grad(layers, data, 64, seed, loss,
                               list(zip(grads.weights, grads.biases)))


# ---------------------------------------------------------------------------


class KtsSweep(Workload):
    """``kinflow kts-sweep`` over the paper's gain grid on a fixed checkpoint."""

    name = "kts_sweep"
    KIND, N, M, STEPS, ITERS = "dense_sparse", 500, 8, 50, 60
    HELD = max(M, 10)                       # datasets.generate needs n >= 10
    GRID = (0.0, 0.01, 0.02)
    ROWS_EVALUATED = (1 + len(GRID) ** 2) * M * STEPS

    def __init__(self, kf, seed, out):
        super().__init__(kf, out)
        self.seeds = derive_seeds(seed, "data", "heldout", "train", "solver", "grad")
        self.cells = [(0.0, 0.0)] + [(a, b) for a in self.GRID for b in self.GRID]

    def setup(self, i):
        kf = self.kf
        d = fresh_dir(os.path.join(self.out, f"setup{i}"))
        data = kf.datasets.generate(self.KIND, self.N, self.seeds["data"])
        held = kf.datasets.generate(self.KIND, self.HELD, self.seeds["heldout"])
        kf.datasets.save_csv(data, os.path.join(d, "data.csv"))
        kf.datasets.save_csv(held, os.path.join(d, "heldout.csv"))
        result = kf.net.train(data.points, kf.net.TrainConfig(
            iterations=self.ITERS, seed=self.seeds["train"]))
        kf.net.save_checkpoint(result.params, os.path.join(d, "model.ckpt"))
        self.setup_dirs.append(d)

    def round(self, k):
        d = self.setup_dirs[-1]
        out = fresh_dir(os.path.join(self.out, f"round{k}"))
        grid = ",".join(str(v) for v in self.GRID)
        table = os.path.join(out, "sweep.csv")
        timer = Timer()
        with timer("kts-sweep"):
            rc = call_cli(self.kf, [
                "kts-sweep", "--model", os.path.join(d, "model.ckpt"),
                "--data", os.path.join(d, "data.csv"),
                "--heldout", os.path.join(d, "heldout.csv"),
                "--alpha0-grid", grid, "--beta0-grid", grid, "--solver", "euler",
                "--steps", str(self.STEPS), "--m", str(self.M),
                "--seed", str(self.seeds["solver"]), "--out", table])
        return {"rc": rc, "dir": out, "files": ["sweep.csv"], "table": table,
                "ops": timer, "traj": {"kts-sweep": len(self.cells) * self.M}}

    def check_setup(self):
        d = self.setup_dirs[-1]
        problems = check_same_files(self.setup_dirs, ["data.csv", "heldout.csv", "model.ckpt"])
        problems += ref.check_dataset_csv(os.path.join(d, "data.csv"), self.KIND,
                                          self.N, self.seeds["data"])
        problems += ref.check_dataset_csv(os.path.join(d, "heldout.csv"), self.KIND,
                                          self.HELD, self.seeds["heldout"])
        data, _ = ref.read_points_csv(os.path.join(d, "data.csv"))
        held, _ = ref.read_points_csv(os.path.join(d, "heldout.csv"))
        shared = {tuple(p) for p in data} & {tuple(p) for p in held}
        if shared:
            problems.append(f"held-out set shares {len(shared)} points with the training set")
        ckpt = os.path.join(d, "model.ckpt")
        return problems + check_gradients(self.kf, ckpt, ref.read_checkpoint(ckpt),
                                          data, self.seeds["grad"])

    def count(self, r):
        attempted = len(self.cells)
        if r["rc"] != 0:
            return attempted, attempted, [f"kts-sweep exited {r['rc']}"]
        return attempted, 0, []

    def check_outputs(self, r):
        d = self.setup_dirs[-1]
        with open(r["table"]) as fh:
            lines = fh.read().split()
        if lines[0] != "alpha0,beta0,w2,f_mem,kpe_early,kpe_late" or \
                len(lines) != 1 + len(self.cells):
            return [f"sweep table has header {lines[0]!r} and {len(lines) - 1} rows, "
                    f"expected {len(self.cells)}"]
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        layers = ref.read_checkpoint(os.path.join(d, "model.ckpt"))
        data, _ = ref.read_points_csv(os.path.join(d, "data.csv"))
        held, _ = ref.read_points_csv(os.path.join(d, "heldout.csv"))
        x0 = ref.starts(self.seeds["solver"], self.M)
        return check_sweep_rows(rows, self.cells, layers, x0, self.STEPS, data, held)


def check_sweep_rows(rows, cells, layers, x0, steps, data, held) -> list[str]:
    """Each gain cell re-integrated by the reference with its own gain."""
    problems = []
    for row, (a0, b0) in zip(rows, cells):
        where = f"cell alpha0={a0} beta0={b0}"
        if (row[0], row[1]) != (a0, b0):
            problems.append(f"{where}: row holds gains {row[:2]}")
            continue
        want = ref.integrate(lambda x, t: ref.mlp_forward(layers, x, t), x0, "euler",
                             steps, 0.0, gain=lambda t: ref.kts_gain(t, a0, b0))
        for col, key in ((4, "kpe_early"), (5, "kpe_late")):
            mean = float(want[key].mean())
            if abs(row[col] - mean) > 1e-9 * (1.0 + abs(mean)):
                problems.append(f"{where}: {key} mean {row[col]!r}, reference {mean!r}")
        problems += ref.check_memorization_and_w2(row[3], row[2], want["endpoints"],
                                                  data, held, where)
    return problems


# ---------------------------------------------------------------------------


class EfmMemorize(Workload):
    """Closed-form field on all three datasets, then diagnose, traces, plots
    and the theory suite."""

    name = "efm_memorize"
    KINDS = ("dense_sparse", "multiscale_clusters", "sandwich")
    N, M, STEPS, NEIGHBORS, DELTA_CUT = 1000, 40, 100, 100, 1e-3
    ROWS_EVALUATED = len(KINDS) * M * STEPS * 2   # midpoint: two stages
    # With neighbors=100 the truncated field sends every dense_sparse endpoint to
    # the ring and every multiscale_clusters endpoint to the clusters, so diagnose
    # refuses both ("one stratum group is empty") on every seed; it runs on
    # sandwich only, where both strata are reached.
    DIAGNOSED = ("sandwich",)

    def __init__(self, kf, seed, out):
        super().__init__(kf, out)
        self.seeds = derive_seeds(seed, "data", "heldout", "solver", "theory")

    def setup(self, i):
        kf = self.kf
        d = fresh_dir(os.path.join(self.out, f"setup{i}"))
        for kind in self.KINDS:
            kf.datasets.save_csv(kf.datasets.generate(kind, self.N, self.seeds["data"]),
                                 os.path.join(d, f"{kind}.csv"))
            kf.datasets.save_csv(kf.datasets.generate(kind, self.M, self.seeds["heldout"]),
                                 os.path.join(d, f"{kind}_heldout.csv"))
        self.setup_dirs.append(d)

    def round(self, k):
        kf = self.kf
        d = self.setup_dirs[-1]
        out = fresh_dir(os.path.join(self.out, f"round{k}"))
        cfg = kf.sampler.SolverConfig(method="midpoint", steps=self.STEPS,
                                      delta_cut=self.DELTA_CUT, seed=self.seeds["solver"])
        timer = Timer()
        r = {"kinds": {}, "rc": {}, "dir": out, "files": ["theory_report.json"],
             "ops": timer, "traj": {f"{kind}.sample_batch": self.M for kind in self.KINDS}}
        for kind in self.KINDS:
            kdir = fresh_dir(os.path.join(out, kind))
            data_csv = os.path.join(d, f"{kind}.csv")
            traces = os.path.join(kdir, "traces.csv")
            with timer(f"{kind}.field"):
                data = kf.datasets.load_csv(data_csv)
                field = kf.efm.EfmField(data.points, neighbors=self.NEIGHBORS)
            with timer(f"{kind}.sample_batch"):
                trajs = kf.sampler.sample_batch(field, self.M, cfg)
            with timer(f"{kind}.save"):
                kf.sampler.save_traces(trajs, traces)
                summary = kf.sampler.batch_summary(trajs)
            write_json(os.path.join(kdir, "summary.json"), summary)
            with timer(f"{kind}.report"):
                rc = None
                if kind in self.DIAGNOSED:
                    rc = call_cli(kf, ["diagnose", "--traces", kdir, "--data", data_csv,
                                       "--heldout", os.path.join(d, f"{kind}_heldout.csv"),
                                       "--out", os.path.join(kdir, "diagnose.json")])
                loaded = kf.sampler.load_traces(traces)
                plots = kf.cli.emit_plots([traces], [kind], os.path.join(kdir, "plots"),
                                          data)
            r["rc"][kind] = rc
            # only the first round's arrays are kept, so that peak memory does
            # not grow with the number of rounds; later rounds keep a digest
            r["kinds"][kind] = {"trajs": trajs if k == 0 else None,
                                "loaded": loaded if k == 0 else None,
                                "digest": digest(loaded), "plots": plots,
                                "traces": traces, "dir": kdir}
            r["files"] += [os.path.relpath(p, out) for p in
                           [traces, os.path.join(kdir, "summary.json")] + plots]
            if rc is not None:
                r["files"].append(os.path.join(kind, "diagnose.json"))
        theory = os.path.join(out, "theory_report.json")
        with timer("verify-theory"):
            rc = call_cli(kf, ["verify-theory", "--dims", "1,2,5",
                               "--seed", str(self.seeds["theory"]), "--out", theory])
        r["rc"]["verify-theory"] = rc
        r["theory"] = theory
        r["points_checked"] = points_checked(read_json(theory)) if rc in (0, 4) else 0
        return r

    def check_setup(self):
        d = self.setup_dirs[-1]
        names = [f"{k}{tag}.csv" for k in self.KINDS for tag in ("", "_heldout")]
        problems = check_same_files(self.setup_dirs, names)
        for kind in self.KINDS:
            problems += ref.check_dataset_csv(os.path.join(d, f"{kind}.csv"), kind,
                                              self.N, self.seeds["data"])
            problems += ref.check_dataset_csv(os.path.join(d, f"{kind}_heldout.csv"),
                                              kind, self.M, self.seeds["heldout"])
        return problems

    def count(self, r):
        attempted = 4 * len(self.KINDS) + len(self.DIAGNOSED) + 1
        failed = [f"{step} exited {rc}" for step, rc in r["rc"].items()
                  if rc not in (None, 0)]
        return attempted, len(failed), failed

    def check_round(self, r, first=None):
        attempted, failed, problems = super().check_round(r, first)
        if first is not None:
            # load_traces gave the same arrays as in the checked first round
            for kind, got in r["kinds"].items():
                if got["digest"] != first["kinds"][kind]["digest"]:
                    problems.append(f"{kind}: loaded traces differ from the first round's")
        return attempted, failed, problems

    def check_outputs(self, r):
        problems = []
        d = self.setup_dirs[-1]
        for kind, got in r["kinds"].items():
            data, strata = ref.read_points_csv(os.path.join(d, f"{kind}.csv"))
            held, _ = ref.read_points_csv(os.path.join(d, f"{kind}_heldout.csv"))
            trajs = got["trajs"]
            if len(trajs) != self.M:
                problems.append(f"{kind}: {len(trajs)} trajectories, expected {self.M}")
                continue
            times = trajs[0].times
            states = np.stack([t.states for t in trajs], axis=1)
            vels = np.stack([t.velocities for t in trajs], axis=1)
            kpe = np.array([t.kpe for t in trajs])
            early = np.array([t.kpe_early for t in trajs])
            late = np.array([t.kpe_late for t in trajs])
            sampled = ref.check_starts(states[0], self.seeds["solver"])
            sampled += ref.check_efm_steps(ref.EfmTopK(data, self.NEIGHBORS),
                                           states, vels, times)
            sampled += ref.check_energy_accounting(vels, times, kpe, early, late)
            sampled += ref.check_collapse(states[-1], data)
            problems += [f"{kind}: {p}" for p in sampled]

            recorded = {"times": times, "states": states,
                        "power": (vels ** 2).sum(axis=2)}
            problems += [f"{kind} saved traces: {p}" for p in ref.check_trace_rows(
                ref.read_traces(got["traces"]), recorded)]
            loaded = np.concatenate([np.column_stack([
                np.full(len(tr["t"]), tr["traj_id"]), tr["t"], tr["x"], tr["y"],
                tr["power"], tr["cum_kpe"]]) for tr in got["loaded"]])
            problems += [f"{kind} loaded traces: {p}" for p in ref.check_trace_rows(
                loaded, recorded)]

            if r["rc"][kind] == 0:
                report = read_json(os.path.join(got["dir"], "diagnose.json"))
                problems += ref.check_diagnose_report(
                    report, ref.diagnose(kpe, states[-1], data, strata, held),
                    f"{kind} diagnose")
            problems += [f"{kind}: {p}" for p in check_plots(got["plots"], kind)]

        if r["rc"]["verify-theory"] == 0 and (
                not read_json(r["theory"])["all_passed"] or r["points_checked"] == 0):
            problems.append(f"verify-theory passed with {r['points_checked']} points checked")
        return problems


def digest(loaded: list[dict]) -> str:
    """SHA-256 of the arrays ``load_traces`` returned, in order."""
    h = hashlib.sha256()
    for tr in loaded:
        for key in sorted(tr):
            h.update(key.encode())
            h.update(np.ascontiguousarray(tr[key]).tobytes())
    return h.hexdigest()


def check_plots(paths: list[str], label: str) -> list[str]:
    """Curves and the stratum box summary are written as well-formed SVG."""
    want = {"cumulative_energy.svg", "instant_power.svg", f"kpe_by_stratum_{label}.svg"}
    if {os.path.basename(p) for p in paths} != want:
        return [f"plots written: {sorted(os.path.basename(p) for p in paths)}"]
    problems = []
    for p in paths:
        root = ET.parse(p).getroot()
        if not root.tag.endswith("svg") or len(root) < 3:
            problems.append(f"{p} is not a drawn SVG")
    return problems


WORKLOADS = {w.name: w for w in (Pipeline, KtsSweep, EfmMemorize)}
