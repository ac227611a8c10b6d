"""End-to-end tests of the command-line pipeline and its file artifacts."""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from kinflow import datasets, net, sampler, theory
from kinflow.cli import (EXIT_CHECK_FAILURE, EXIT_INVALID_CONFIG, EXIT_OK,
                         ExperimentConfig, StageFailure, _build_parser, config_hash,
                         emit_plots, main, run_pipeline, stage_gen, stage_verify)

TINY = {
    "dataset": {"kind": "dense_sparse", "n": 60, "seed": 7},
    "train": {"iterations": 40, "batch_size": 32, "seed": 1},
    "solver": {"method": "euler", "steps": 10, "m": 32, "seed": 5},
    "diagnostics": {"knn_k": 10},
}


@pytest.fixture(scope="module")
def tiny_artifacts(tmp_path_factory):
    """A tiny but complete data/model/traces tree shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    heldout = root / "heldout.csv"
    model = root / "model.ckpt"
    traces = root / "traces"
    assert main(["gen-data", "--kind", "dense_sparse", "--n", "60",
                 "--seed", "7", "--out", str(data)]) == EXIT_OK
    assert main(["gen-data", "--kind", "dense_sparse", "--n", "10",
                 "--seed", "8", "--out", str(heldout)]) == EXIT_OK
    shared = ({tuple(p) for p in datasets.load_csv(data).points}
              & {tuple(p) for p in datasets.load_csv(heldout).points})
    assert not shared
    assert main(["train", "--data", str(data), "--iters", "40",
                 "--batch", "32", "--seed", "1", "--out", str(model)]) == EXIT_OK
    assert main(["sample", "--model", str(model), "--solver", "euler",
                 "--steps", "10", "--m", "40", "--seed", "5",
                 "--out", str(traces)]) == EXIT_OK
    return {"root": root, "data": data, "heldout": heldout, "model": model,
            "traces": traces}


class TestGenData:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "d.csv"
        code = main(["gen-data", "--kind", "sandwich", "--n", "50",
                     "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        loaded = datasets.load_csv(out)
        assert loaded.n == 50 and loaded.kind == "sandwich"

    def test_invalid_n_exit_code(self, tmp_path):
        code = main(["gen-data", "--kind", "sandwich", "--n", "5",
                     "--seed", "3", "--out", str(tmp_path / "d.csv")])
        assert code == EXIT_INVALID_CONFIG


class TestTrainCommand:
    def test_checkpoint_and_loss_curve(self, tiny_artifacts):
        model = tiny_artifacts["model"]
        params = net.load_checkpoint(model)
        assert params.weights[0].shape == (18, 128)
        loss_csv = str(model).replace(".ckpt", "_loss.csv")
        lines = open(loss_csv).read().strip().splitlines()
        assert lines[0] == "iter,loss"
        assert len(lines) == 41

    def test_loss_curve_is_numeric(self, tiny_artifacts):
        loss_csv = str(tiny_artifacts["model"]).replace(".ckpt", "_loss.csv")
        rows = open(loss_csv).read().strip().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == list(range(40))
        assert all(np.isfinite(float(r.split(",")[1])) for r in rows)

    def test_missing_data_file(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--iters", "1", "--out", str(tmp_path / "m.ckpt")])
        assert code == EXIT_INVALID_CONFIG

    @pytest.mark.parametrize("option", ["--out", "--loss-curve"])
    def test_missing_output_directory_exits_before_training(
            self, tiny_artifacts, tmp_path, monkeypatch, capsys, option):
        def refuse(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(net, "train", refuse)
        paths = {"--out": tmp_path / "m.ckpt", "--loss-curve": tmp_path / "loss.csv"}
        paths[option] = tmp_path / "missing" / "file"
        code = main(["train", "--data", str(tiny_artifacts["data"]), "--iters", "1",
                     "--out", str(paths["--out"]),
                     "--loss-curve", str(paths["--loss-curve"])])
        assert code == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert f"{option}: directory {tmp_path / 'missing'} does not exist" in err
        assert ".tmp" not in err
        assert list(tmp_path.iterdir()) == []


class TestSampleCommand:
    def test_trace_files(self, tiny_artifacts):
        traces = tiny_artifacts["traces"]
        rows = open(traces / "traces.csv").read().splitlines()
        assert rows[0] == "traj_id,t,x,y,power,cum_kpe"
        assert len(rows) == 1 + 40 * 11
        summary = json.loads((traces / "summary.json").read_text())
        assert len(summary["trajectories"]) == 40
        assert summary["solver"]["field"] == "neural"

    def test_efm_source_defaults_delta_cut(self, tiny_artifacts, tmp_path):
        out = tmp_path / "efm_traces"
        code = main(["sample", "--efm", str(tiny_artifacts["data"]),
                     "--solver", "midpoint", "--steps", "20", "--m", "6",
                     "--seed", "2", "--out", str(out)])
        assert code == EXIT_OK
        back = sampler.load_traces(out / "traces.csv")
        assert back[0]["t"][-1] == pytest.approx(0.999)

    def test_zero_gain_equals_unflagged(self, tiny_artifacts, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        common = ["sample", "--model", str(tiny_artifacts["model"]),
                  "--steps", "8", "--m", "5", "--seed", "4"]
        assert main(common + ["--out", str(a)]) == EXIT_OK
        assert main(common + ["--alpha0", "0", "--beta0", "0",
                              "--out", str(b)]) == EXIT_OK
        assert (a / "traces.csv").read_bytes() == (b / "traces.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_landing_rate_is_recorded(self, tiny_artifacts, tmp_path):
        blocks = {}
        for k in ("2", "3"):
            out = tmp_path / f"k{k}"
            assert main(["sample", "--efm", str(tiny_artifacts["data"]),
                         "--beta0", "0.02", "--k", k, "--solver", "midpoint",
                         "--steps", "20", "--m", "6", "--seed", "2",
                         "--out", str(out)]) == EXIT_OK
            blocks[k] = json.loads((out / "summary.json").read_text())["solver"]
        assert blocks["2"]["k"] == 2.0 and blocks["3"]["k"] == 3.0
        assert blocks["2"] != blocks["3"]

    # the last three rows have the right field count but a bad coordinate
    @pytest.mark.parametrize("row", ["1.0,2.0", "1.0,2.0,dense_core,extra", "abc,1,dense_core",
                                     "nan,1,dense_core", "1,inf,dense_core"])
    def test_csv_row_with_wrong_field_count_exits_2(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"x,y,stratum\n0.5,0.5,dense_core\n{row}\n")
        out = tmp_path / "out"
        code = main(["sample", "--efm", str(bad), "--steps", "2", "--m", "3",
                     "--out", str(out)])
        assert code == EXIT_INVALID_CONFIG
        assert "line 3" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_without_tensors_exits_2(self, tmp_path, capsys):
        model = tmp_path / "model.ckpt"
        model.write_text('{"format": "kinflow-mlp", "tensors": []}')
        out = tmp_path / "out"
        code = main(["sample", "--model", str(model), "--steps", "2", "--m", "3",
                     "--out", str(out)])
        assert code == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "'w0'" in err
        assert not out.exists()


class TestDiagnoseCommand:
    def test_report_schema(self, tiny_artifacts, tmp_path):
        out = tmp_path / "report.json"
        code = main(["diagnose", "--traces", str(tiny_artifacts["traces"]),
                     "--data", str(tiny_artifacts["data"]),
                     "--k", "10", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        for key in ("rho_knn", "rho_kde", "cliffs_delta", "mwu_u", "mwu_p",
                    "f_mem", "w2", "n", "config"):
            assert key in report
        assert report["n"] == 40
        assert report["w2"] is None  # no heldout set given

    def test_heldout_smaller_than_the_trajectories_exits_2(self, tiny_artifacts,
                                                           tmp_path, capsys):
        # W2 pairs each of the 40 endpoints with its own held-out point
        out = tmp_path / "report.json"
        code = main(["diagnose", "--traces", str(tiny_artifacts["traces"]),
                     "--data", str(tiny_artifacts["data"]),
                     "--heldout", str(tiny_artifacts["heldout"]),
                     "--k", "10", "--out", str(out)])
        assert code == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert "--heldout" in err and "10 points" in err and "40 trajectories" in err
        assert not out.exists()

    @pytest.mark.parametrize("bandwidth", ["inf", "1e300", "1e-200"])
    def test_bandwidth_without_a_finite_positive_square_exits_2(
            self, tiny_artifacts, tmp_path, capsys, bandwidth):
        # inf makes the KDE constant, 1e300 overflows h^2 and 1e-200 underflows it
        out = tmp_path / "report.json"
        code = main(["diagnose", "--traces", str(tiny_artifacts["traces"]),
                     "--data", str(tiny_artifacts["data"]), "--k", "10",
                     "--bandwidth", bandwidth, "--out", str(out)])
        assert code == EXIT_INVALID_CONFIG
        assert "kde_bandwidth" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyTheoryCommand:
    def test_report_and_exit_code(self, tiny_artifacts, tmp_path):
        out = tmp_path / "theory.json"
        code = main(["verify-theory", "--data", str(tiny_artifacts["data"]),
                     "--eps", "0.1", "--dims", "1,2", "--atoms", "12",
                     "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["linear_slopes_exact"]
        assert all(b["pass_rate"] == 1.0 for b in report["bounds"])
        assert code == EXIT_OK if report["all_passed"] else EXIT_CHECK_FAILURE
        assert report["all_passed"]

    @pytest.mark.parametrize("argv, option", [
        (["--dims", ""], "--dims"), (["--dims", "0"], "--dims"),
        (["--dims", "1,0"], "--dims"), (["--dims=-1"], "--dims"),
        (["--dims", "abc"], "--dims"), (["--dims", "1,2.5"], "--dims"),
        (["--atoms", "0"], "--atoms"), (["--atoms=-1"], "--atoms"),
    ], ids=["empty", "zero", "one_zero", "minus_one", "not_a_number", "not_an_int",
            "atoms_zero", "atoms_minus_one"])
    def test_dims_below_one_exit_2(self, tmp_path, capsys, argv, option):
        # checked before the --data file is read: a missing one is not reported
        out = tmp_path / "theory.json"
        code = main(["verify-theory", "--data", str(tmp_path / "missing.csv"),
                     "--atoms", "5", *argv, "--out", str(out)])
        assert code == EXIT_INVALID_CONFIG
        assert option in capsys.readouterr().err
        assert not out.exists()

    def test_data_atoms_are_the_verify_stage_subsample(self, tmp_path):
        # the first 50 points of dense_sparse n=500 seed 7 are all dense-core
        # atoms, among which no sampled point passes the dominance filter
        cfg = ExperimentConfig.from_dict(
            {"dataset": {"kind": "dense_sparse", "n": 500, "seed": 7},
             "solver": {"m": 10}})
        stage_gen(cfg, str(tmp_path))
        data = str(tmp_path / "data.csv")
        out = tmp_path / "theory.json"
        assert main(["verify-theory", "--data", data, "--dims", "2",
                     "--atoms", "50", "--out", str(out)]) == EXIT_OK
        assert sum(b["n_checked"] for b in json.loads(out.read_text())["bounds"]) > 0
        # with the dataset's seed it checks exactly what the pipeline stage does
        assert main(["verify-theory", "--data", data, "--dims", "2", "--atoms", "50",
                     "--seed", "7", "--out", str(out)]) == EXIT_OK
        stage_verify(cfg, str(tmp_path))
        assert out.read_bytes() == (tmp_path / "theory_report.json").read_bytes()


class TestVerifyStage:
    def test_checks_points_on_dense_sparse_seed_7(self, tmp_path):
        # the first 50 points of this dataset are all dense-core atoms, among
        # which no sampled point passes the dominance filter
        cfg = ExperimentConfig.from_dict(
            {"dataset": {"kind": "dense_sparse", "n": 500, "seed": 7},
             "solver": {"m": 10}})
        stage_gen(cfg, str(tmp_path))
        out = stage_verify(cfg, str(tmp_path))
        report = json.loads(open(out["report"]).read())
        bounds = report["bounds"]
        assert sum(b["n_checked"] for b in bounds) > 0
        assert sum(b["n_checked"] + b["n_skipped"] + b["rejected_in_sampling"]
                   for b in bounds) == 9 * 40
        assert report["all_passed"] and not report["inconclusive"]

    def test_nothing_checked_fails_the_stage(self, tmp_path, monkeypatch):
        # every sampled point is rejected by the dominance filter; the other
        # suites still run on real data and pass
        monkeypatch.setattr(theory, "sample_dominant_points",
                            lambda m, ts, eps, per_time, rng: ([], len(ts) * per_time))
        cfg = ExperimentConfig.from_dict(
            {"dataset": {"kind": "dense_sparse", "n": 500, "seed": 7},
             "solver": {"m": 10}})
        stage_gen(cfg, str(tmp_path))
        with pytest.raises(StageFailure, match="inconclusive"):
            stage_verify(cfg, str(tmp_path))
        report = json.loads((tmp_path / "theory_report.json").read_text())
        assert report["inconclusive"] and not report["all_passed"]
        assert report["bounds"][0]["pass_rate"] == 1.0


class TestKtsSweepCommand:
    def test_zero_grid_reproduces_baseline(self, tiny_artifacts, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["kts-sweep", "--model", str(tiny_artifacts["model"]),
                     "--data", str(tiny_artifacts["data"]),
                     "--heldout", str(tiny_artifacts["heldout"]),
                     "--alpha0-grid", "0", "--beta0-grid", "0",
                     "--steps", "10", "--m", "8", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha0,beta0,w2,f_mem,kpe_early,kpe_late"
        assert len(lines) == 3  # header + baseline + the (0, 0) cell
        assert lines[1] == lines[2]

    def test_grid_rows(self, tiny_artifacts, tmp_path):
        out = tmp_path / "sweep4.csv"
        code = main(["kts-sweep", "--model", str(tiny_artifacts["model"]),
                     "--data", str(tiny_artifacts["data"]),
                     "--heldout", str(tiny_artifacts["heldout"]),
                     "--alpha0-grid", "0,0.02", "--beta0-grid", "0,0.02",
                     "--steps", "10", "--m", "8", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 1 + 4  # header + baseline + 2x2 grid

    @pytest.mark.parametrize("option, grid", [("--alpha0-grid", "0,abc"),
                                              ("--beta0-grid", "0.01,,x")])
    def test_bad_grid_entry_exits_2_before_reading_files(self, tmp_path, capsys,
                                                          option, grid):
        out = tmp_path / "sweep.csv"
        missing = str(tmp_path / "missing")
        code = main(["kts-sweep", "--model", missing, "--data", missing,
                     "--heldout", missing, option, grid, "--out", str(out)])
        assert code == EXIT_INVALID_CONFIG
        assert option in capsys.readouterr().err
        assert not out.exists()

    def test_m_beyond_heldout_exits_2_before_reading_the_model(self, tiny_artifacts,
                                                               tmp_path, capsys):
        # W2 pairs the first m endpoints with the first m held-out points
        out = tmp_path / "sweep.csv"
        code = main(["kts-sweep", "--model", str(tmp_path / "missing.ckpt"),
                     "--data", str(tiny_artifacts["data"]),
                     "--heldout", str(tiny_artifacts["heldout"]),
                     "--steps", "10", "--m", "20", "--out", str(out)])
        assert code == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert "--m 20" in err and "--heldout" in err and "10 points" in err
        assert not out.exists()

    def test_heldout_sharing_a_training_point_exits_2(self, tiny_artifacts, tmp_path,
                                                      capsys):
        # W2 against the training set itself would reward memorization
        out = tmp_path / "sweep.csv"
        code = main(["kts-sweep", "--model", str(tiny_artifacts["model"]),
                     "--data", str(tiny_artifacts["data"]),
                     "--heldout", str(tiny_artifacts["data"]),
                     "--steps", "10", "--m", "8", "--out", str(out)])
        assert code == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert "--heldout" in err and "shares 60 of its 60 points" in err and "--data" in err
        assert not out.exists()

    def test_heldout_is_required(self, tiny_artifacts, tmp_path, capsys):
        # a held-out set generated from the solver seed could repeat the
        # training points, and a data CSV carries no seed to derive a safe one
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as err:
            main(["kts-sweep", "--model", str(tiny_artifacts["model"]),
                  "--data", str(tiny_artifacts["data"]),
                  "--steps", "10", "--m", "8", "--out", str(out)])
        assert err.value.code == EXIT_INVALID_CONFIG
        assert "--heldout" in capsys.readouterr().err
        assert not out.exists()


class TestPlotCommand:
    def test_deterministic_render(self, tiny_artifacts, tmp_path):
        out1 = tmp_path / "p1"
        out2 = tmp_path / "p2"
        traces = str(tiny_artifacts["traces"] / "traces.csv")
        for out in (out1, out2):
            code = main(["plot", "--traces", traces, "--labels", "base",
                         "--data", str(tiny_artifacts["data"]),
                         "--out", str(out)])
            assert code == EXIT_OK
        for name in ("cumulative_energy.svg", "instant_power.svg",
                     "kpe_by_stratum_base.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_constant_velocity_cumulative_is_linear(self, tmp_path):
        field = lambda x, t: np.array([3.0, 4.0])
        cfg = sampler.SolverConfig(steps=20, seed=0)
        trajs = sampler.sample_batch(field, 2, cfg)
        path = tmp_path / "t.csv"
        sampler.save_traces(trajs, path)
        back = sampler.load_traces(path)
        cum = back[0]["cum_kpe"]
        ts = back[0]["t"]
        assert np.allclose(cum, 12.5 * ts, rtol=1e-12)

    def test_empty_traces_invalid(self, tmp_path):
        code = main(["plot", "--traces", "", "--out", str(tmp_path / "p")])
        assert code == EXIT_INVALID_CONFIG

    def test_header_only_trace_file_exits_2(self, tiny_artifacts, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(sampler.TRACE_HEADER) + "\r\n")
        out = tmp_path / "plots"
        # the good file comes first: its stratum box must not be written either
        code = main(["plot", "--traces",
                     f"{tiny_artifacts['traces'] / 'traces.csv'},{empty}",
                     "--data", str(tiny_artifacts["data"]), "--out", str(out)])
        assert code == EXIT_INVALID_CONFIG
        assert str(empty) in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_labels_exit_2(self, tiny_artifacts, tmp_path):
        # both files default to the label "traces"; their stratum boxes
        # would share one file name
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths.append(str(tmp_path / sub / "traces.csv"))
            shutil.copy(tiny_artifacts["traces"] / "traces.csv", paths[-1])
        out = tmp_path / "plots"
        code = main(["plot", "--traces", ",".join(paths),
                     "--data", str(tiny_artifacts["data"]), "--out", str(out)])
        assert code == EXIT_INVALID_CONFIG
        assert not out.exists()
        with pytest.raises(ValueError, match="distinct"):
            emit_plots(paths, ["x", "x"], str(out))

    def test_no_broadcast_temporary(self, tmp_path):
        # the stratum boxes compare m endpoints with n training points; a
        # broadcast block would hold an (m, n, 2) difference and the (m, n)
        # result at once, 3 (m, n) arrays, the kernel at most 2
        m, n = 100, 4000
        data = datasets.generate("dense_sparse", n, 3)
        trajs = sampler.sample_batch(lambda x, t: -x, m, sampler.SolverConfig(steps=5, seed=1))
        sampler.save_traces(trajs, tmp_path / "traces.csv")
        tracemalloc.start()
        try:
            emit_plots([str(tmp_path / "traces.csv")], ["a"], str(tmp_path / "p"), data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * m * n * 8

    def test_efm_mean_power_peaks_at_final_grid_point(self, tiny_artifacts,
                                                      tmp_path):
        # the closed-form field's 1/(1-t) factor keeps growing past the
        # concentration time, so the batch-mean power is largest on the
        # final step of the cut grid
        out = tmp_path / "efm_peak"
        assert main(["sample", "--efm", str(tiny_artifacts["data"]),
                     "--solver", "midpoint", "--steps", "50", "--m", "30",
                     "--seed", "3", "--out", str(out)]) == EXIT_OK
        back = sampler.load_traces(out / "traces.csv")
        mean_power = np.stack([tr["power"][1:] for tr in back]).mean(axis=0)
        assert int(mean_power.argmax()) == len(mean_power) - 1


class TestRunPipeline:
    def test_full_tiny_pipeline(self, tmp_path):
        cfg = ExperimentConfig.from_dict(TINY)
        outdir = tmp_path / "run"
        manifest = run_pipeline(cfg, str(outdir))
        assert set(manifest["stages"]) == {"gen", "train", "sample",
                                           "diagnose", "verify"}
        for stage in manifest["stages"].values():
            assert not stage["skipped"]
            for path in stage["outputs"].values():
                assert os.path.exists(path)
        assert (outdir / "run_manifest.json").exists()

    def test_summary_records_landing_rate(self, tmp_path):
        cfg = ExperimentConfig.from_dict({**TINY, "kts": {"beta0": 0.01, "k": 2.5}})
        run_pipeline(cfg, str(tmp_path / "run"))
        solver = json.loads((tmp_path / "run" / "summary.json").read_text())["solver"]
        assert (solver["alpha0"], solver["beta0"], solver["k"]) == (0.0, 0.01, cfg.kts.k)

    def test_rerun_skips_everything(self, tmp_path):
        cfg = ExperimentConfig.from_dict(TINY)
        outdir = tmp_path / "run"
        first = run_pipeline(cfg, str(outdir))
        second = run_pipeline(cfg, str(outdir))
        assert all(s["skipped"] for s in second["stages"].values())
        assert first["config_hash"] == second["config_hash"]

    def test_config_change_invalidates_downstream(self, tmp_path):
        cfg = ExperimentConfig.from_dict(TINY)
        outdir = tmp_path / "run"
        run_pipeline(cfg, str(outdir))
        changed = ExperimentConfig.from_dict(
            {**TINY, "solver": {**TINY["solver"], "seed": 9}})
        manifest = run_pipeline(changed, str(outdir))
        assert manifest["stages"]["train"]["skipped"]
        assert not manifest["stages"]["sample"]["skipped"]

    def test_solver_seed_change_keeps_generated_data(self, tmp_path):
        outdir = tmp_path / "run"
        run_pipeline(ExperimentConfig.from_dict(TINY), str(outdir))
        files = ("data.csv", "heldout.csv")
        before = {f: ((outdir / f).read_bytes(), os.stat(outdir / f).st_mtime_ns)
                  for f in files}
        rows = (outdir / "loss.csv").read_text().strip().splitlines()[1:]
        assert all(np.isfinite(float(r.split(",")[1])) for r in rows)

        reseeded = {**TINY, "solver": {**TINY["solver"], "seed": 9}}
        manifest = run_pipeline(ExperimentConfig.from_dict(reseeded), str(outdir))
        assert manifest["stages"]["gen"]["skipped"]
        assert not manifest["stages"]["sample"]["skipped"]
        for f in files:
            assert ((outdir / f).read_bytes(), os.stat(outdir / f).st_mtime_ns) == before[f]

        # the held-out size follows m, so changing m regenerates
        resized = {**TINY, "solver": {**TINY["solver"], "seed": 9, "m": 40}}
        manifest = run_pipeline(ExperimentConfig.from_dict(resized), str(outdir))
        assert not manifest["stages"]["gen"]["skipped"]
        assert len((outdir / "heldout.csv").read_text().splitlines()) == 41

    def test_lock_file_guards_directory(self, tmp_path):
        outdir = tmp_path / "run"
        outdir.mkdir()
        (outdir / ".lock").touch()
        from kinflow.cli import StageFailure
        with pytest.raises(StageFailure):
            run_pipeline(ExperimentConfig.from_dict(TINY), str(outdir))
        # a lock held by a live process stays in place
        (outdir / ".lock").write_text(f"{os.getpid()}\n")
        with pytest.raises(StageFailure, match=f"pid {os.getpid()}"):
            run_pipeline(ExperimentConfig.from_dict(TINY), str(outdir))
        assert (outdir / ".lock").read_text() == f"{os.getpid()}\n"

    def test_lock_of_a_dead_run_is_broken(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        outdir = tmp_path / "run"
        outdir.mkdir()
        (outdir / ".lock").write_text(f"{child.pid}\n")
        manifest = run_pipeline(ExperimentConfig.from_dict(TINY), str(outdir))
        assert not any(s["skipped"] for s in manifest["stages"].values())
        assert not (outdir / ".lock").exists()

    def test_truncated_marker_reruns_its_stage(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY))
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg_path), "--out", str(out)]
        assert main(argv) == EXIT_OK
        (out / ".stage_sample.json").write_text('{"hash": "ab')    # cut short
        assert main(argv) == EXIT_OK
        stages = json.loads((out / "run_manifest.json").read_text())["stages"]
        assert not stages["sample"]["skipped"]
        assert stages["gen"]["skipped"] and stages["train"]["skipped"]
        assert json.loads((out / ".stage_sample.json").read_text())["hash"]
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]

    def test_failed_stage_leaves_no_stale_marker(self, tmp_path, monkeypatch):
        # A completes; B, another solver seed, dies while writing its traces;
        # A again must not take B's partial traces.csv for its own
        outdir = tmp_path / "run"
        a = ExperimentConfig.from_dict(TINY)
        b = ExperimentConfig.from_dict({**TINY, "solver": {**TINY["solver"], "seed": 9}})
        run_pipeline(a, str(outdir))
        traces_a = (outdir / "traces.csv").read_bytes()

        def partial_write(trajs, path):
            with open(path, "w") as fh:
                fh.write("traj_id,t,x,y,power,cum_kpe\r\n0,0.0,")
            raise OSError("no space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(sampler, "save_traces", partial_write)
            with pytest.raises(StageFailure, match="sample"):
                run_pipeline(b, str(outdir))
        manifest = run_pipeline(a, str(outdir))
        assert not manifest["stages"]["sample"]["skipped"]
        assert (outdir / "traces.csv").read_bytes() == traces_a

    def test_cli_run_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY))
        code = main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_OK

    def test_stage_failure_exit_code(self, tmp_path):
        # diagnose needs at least 30 trajectories; m=12 aborts that stage
        bad = {**TINY, "solver": {**TINY["solver"], "m": 12}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(bad))
        code = main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == 3

    @pytest.mark.parametrize("section", [
        {"kts": {"beta0": 5.0}},                         # eta(1) < 0 reverses the flow
        {"solver": {**TINY["solver"], "steps": 0}},
        {"solver": {**TINY["solver"], "m": 0}},
        {"dataset": {**TINY["dataset"], "kind": "nope"}},
        {"dataset": {**TINY["dataset"], "n": 9}},
        {"diagnostics": {"knn_k": 0}},
        {"diagnostics": {"k_mem": 1}},                   # f_mem needs k_mem >= 2
        {"diagnostics": {"eps": 0.7}},                   # dominance needs eps < 0.5
        {"diagnostics": {"kde_bandwidth": 0}},
    ])
    def test_invalid_values_exit_2_before_any_stage(self, tmp_path, section):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**TINY, **section}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) \
            == EXIT_INVALID_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("blob, key", [
        ({**TINY, "solvr": {"steps": 10}}, "solvr"),
        ({**TINY, "solver": {"stpes": 10}}, "stpes"),
        ({**TINY, "solver": [10]}, "solver"),
        ({**TINY, "kts": 0.5}, "kts"),
        ({**TINY, "solver": {**TINY["solver"], "steps": "10"}}, "solver"),
        ([TINY], "object"),
    ])
    def test_malformed_config_file_exits_2(self, tmp_path, blob, key, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(blob))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) \
            == EXIT_INVALID_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, name", [
        ({"solver": {**TINY["solver"], "steps": 2.5}}, "steps"),
        ({"solver": {**TINY["solver"], "steps": True}}, "steps"),
        ({"solver": {**TINY["solver"], "m": 2.5}}, "m"),
        ({"train": {**TINY["train"], "iterations": 2.5}}, "iterations"),
        ({"train": {**TINY["train"], "batch_size": 32.0}}, "batch_size"),
        ({"dataset": {**TINY["dataset"], "n": 200.5}}, "n"),
        ({"kts": {"alpha0": float("nan")}}, "alpha0"),
        ({"kts": {"beta0": float("inf")}}, "beta0"),
        ({"kts": {"k": float("inf")}}, "k"),
    ], ids=["steps-float", "steps-bool", "m", "iterations", "batch_size", "n",
            "alpha0-nan", "beta0-inf", "k-inf"])
    def test_non_integer_count_or_non_finite_gain_exits_2_before_training(
            self, tmp_path, monkeypatch, capsys, section, name):
        def refuse(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(net, "train", refuse)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**TINY, **section}))    # NaN and inf as JSON extensions
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) \
            == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert f"config section {next(iter(section))!r}: {name} must be" in err
        assert not out.exists()

    @pytest.mark.parametrize("blob, name", [
        ({**TINY, "diagnostics": {"knn_k": 2.5}}, "knn_k"),
        ({**TINY, "diagnostics": {"knn_k": 10, "k_mem": 2.0}}, "k_mem"),
        ({**TINY, "diagnostics": {"knn_k": 10, "tau_gap": -1.0}}, "tau_gap"),
        ({**TINY, "diagnostics": {"knn_k": 10, "tau_gap": float("nan")}}, "tau_gap"),
        ({**TINY, "diagnostics": {"knn_k": 10, "tau_gap": 1.5}}, "tau_gap"),
        # the default knn_k of 50 exceeds the 40 points
        ({k: v for k, v in TINY.items() if k != "diagnostics"}
         | {"dataset": {**TINY["dataset"], "n": 40}}, "knn_k"),
        ({**TINY, "diagnostics": {"knn_k": 10, "k_mem": 61}}, "k_mem"),
        ({**TINY, "diagnostics": {"knn_k": 10, "kde_bandwidth": float("inf")}},
         "kde_bandwidth"),
        ({**TINY, "diagnostics": {"knn_k": 10, "kde_bandwidth": 1e300}}, "kde_bandwidth"),
        ({**TINY, "diagnostics": {"knn_k": 10, "kde_bandwidth": 1e-200}}, "kde_bandwidth"),
    ], ids=["knn_k-float", "k_mem-float", "tau_gap-negative", "tau_gap-nan", "tau_gap-above-1",
            "knn_k-above-n", "k_mem-above-n", "kde_bandwidth-inf", "kde_bandwidth-1e300",
            "kde_bandwidth-1e-200"])
    def test_bad_diagnostics_setting_exits_2_before_training(
            self, tmp_path, monkeypatch, capsys, blob, name):
        def refuse(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(net, "train", refuse)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(blob))    # NaN and inf as JSON extensions
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) \
            == EXIT_INVALID_CONFIG
        assert name in capsys.readouterr().err
        assert not out.exists()


class TestOnePath:
    def test_subcommands_write_what_the_pipeline_writes(self, tmp_path):
        run, cmd = tmp_path / "run", tmp_path / "cmd"
        run_pipeline(ExperimentConfig.from_dict(TINY), str(run))
        cmd.mkdir()
        data, held = str(run / "data.csv"), str(run / "heldout.csv")
        calls = [
            ["gen-data", "--kind", "dense_sparse", "--n", "60", "--seed", "7",
             "--out", str(cmd / "data.csv")],
            ["train", "--data", data, "--iters", "40", "--batch", "32", "--seed", "1",
             "--out", str(cmd / "model.ckpt"), "--loss-curve", str(cmd / "loss.csv")],
            ["sample", "--model", str(cmd / "model.ckpt"), "--solver", "euler",
             "--steps", "10", "--m", "32", "--seed", "5", "--out", str(cmd)],
            ["diagnose", "--traces", str(cmd), "--data", data, "--heldout", held,
             "--k", "10", "--out", str(cmd / "diagnose_report.json")],
            ["verify-theory", "--data", data, "--dims", "2", "--atoms", "50",
             "--eps", "0.1", "--seed", "7", "--out", str(cmd / "theory_report.json")],
        ]
        for argv in calls:
            assert main(argv) == EXIT_OK, argv[0]
        for name in ("data.csv", "model.ckpt", "loss.csv", "traces.csv", "summary.json",
                     "theory_report.json"):
            assert (cmd / name).read_bytes() == (run / name).read_bytes(), name
        ours, theirs = (json.loads((d / "diagnose_report.json").read_text())
                        for d in (cmd, run))
        assert ours.pop("config") == theirs.pop("config")["diagnostics"]
        assert ours == theirs


class TestExperimentConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(TINY)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        assert config_hash(again.to_dict()) == config_hash(cfg.to_dict())

    def test_profiles(self):
        cfg = ExperimentConfig().with_profile("ci")
        assert cfg.dataset.n == 500
        assert cfg.train.iterations == 5000
        assert cfg.solver.m == 200
        full = ExperimentConfig().with_profile("full")
        assert full.train.iterations == 50_000

    def test_config_hash_is_stable(self):
        # the pipeline's stage cache is keyed by these hashes
        assert config_hash(ExperimentConfig().to_dict()) == \
            "d4cce4ad604b02e9807230c4384edc2fad67ab05a3eb6825145d3158108116be"
        assert config_hash(ExperimentConfig().with_profile("ci").to_dict()) == \
            "ee2b28c64a46ebb98cd67db07a18ef745fb09b5e684eda6ce7bd46e8cce901fe"

    def test_sections_are_the_layer_configs(self):
        cfg = ExperimentConfig()
        assert type(cfg.train) is net.TrainConfig and cfg.train.seed == 1
        assert isinstance(cfg.solver, sampler.SolverConfig)
        assert (cfg.solver.seed, cfg.solver.m) == (5, 500)
        assert type(cfg.kts) is sampler.KtsSchedule

    def test_parsed_defaults_are_the_dataclass_fields(self):
        cfg = ExperimentConfig()
        tc, solver, kts, diag = cfg.train, cfg.solver, cfg.kts, cfg.diagnostics
        parse = _build_parser().parse_args
        train = parse(["train", "--data", "d", "--out", "o"])
        assert (train.iters, train.lr, train.weight_decay, train.batch, train.seed) == \
            (tc.iterations, tc.learning_rate, tc.weight_decay, tc.batch_size, tc.seed)
        for argv in (["sample", "--efm", "d", "--out", "o"],
                     ["kts-sweep", "--model", "c", "--data", "d", "--heldout", "h",
                      "--out", "o"]):
            args = parse(argv)
            assert (args.solver, args.steps, args.m, args.seed) == \
                (solver.method, solver.steps, solver.m, solver.seed)
        sample = parse(["sample", "--efm", "d", "--out", "o"])
        assert (sample.alpha0, sample.beta0, sample.k, sample.tau_split) == \
            (kts.alpha0, kts.beta0, kts.k, kts.tau_split)
        diagnose = parse(["diagnose", "--traces", "t", "--data", "d", "--out", "o"])
        assert (diagnose.k, diagnose.bandwidth, diagnose.tau_gap, diagnose.k_mem) == \
            (diag.knn_k, diag.kde_bandwidth, diag.tau_gap, diag.k_mem)
        assert parse(["verify-theory", "--out", "o"]).eps == diag.eps

    def test_diagnostics_limits_are_inclusive(self):
        # knn_k and k_mem may equal n and tau_gap may equal 1; a smaller n,
        # also one that a profile sets, is refused
        cfg = ExperimentConfig.from_dict({"dataset": {"n": 50},
                                          "diagnostics": {"k_mem": 50, "tau_gap": 1.0}})
        assert (cfg.diagnostics.knn_k, cfg.diagnostics.k_mem) == (50, 50)
        with pytest.raises(ValueError, match="knn_k"):
            ExperimentConfig.from_dict({"dataset": {"n": 49}})
        with pytest.raises(ValueError, match="knn_k"):
            ExperimentConfig.from_dict({"diagnostics": {"knn_k": 800}}).with_profile("ci")

    def test_second_main_call_builds_no_parser(self, monkeypatch, tmp_path):
        argv = ["verify-theory", "--dims", "0", "--out", str(tmp_path / "r.json")]
        assert main(argv) == EXIT_INVALID_CONFIG
        built = []
        real = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(a) or real(self, *a, **kw))
        assert main(argv) == EXIT_INVALID_CONFIG
        assert built == []

    def test_master_seed(self):
        cfg = ExperimentConfig().with_master_seed(100)
        assert (cfg.dataset.seed, cfg.train.seed, cfg.solver.seed) == (100, 101, 102)
