"""Each reference check passes on kinflow's output and fails on a perturbed one.

    python3 -m pytest -q bench/test_checks.py
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import kinflow as kf  # noqa: E402
from kinflow import cli  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    """Checkpoint tensors of an untrained MLP, and its path."""
    path = str(tmp_path_factory.mktemp("model") / "model.ckpt")
    kf.save_checkpoint(kf.init_params(3), path)
    return path, ref.read_checkpoint(path)


@pytest.fixture(scope="module")
def neural_batch(model):
    path, layers = model
    cfg = kf.SolverConfig(method="euler", steps=5, seed=11)
    trajs = kf.sample_batch(kf.NeuralVelocityField(kf.load_checkpoint(path)), 8, cfg)
    want = ref.integrate(lambda x, t: ref.mlp_forward(layers, x, t),
                         ref.starts(11, 8), "euler", 5, 0.0)
    return trajs, want


@pytest.fixture(scope="module")
def efm_batch():
    atoms = kf.generate("sandwich", 200, 4).points
    cfg = kf.SolverConfig(method="midpoint", steps=20, delta_cut=1e-3, seed=2)
    trajs = kf.sample_batch(kf.EfmField(atoms, neighbors=20), 6, cfg)
    return atoms, trajs


def stacked(trajs):
    return (trajs[0].times, np.stack([t.states for t in trajs], axis=1),
            np.stack([t.velocities for t in trajs], axis=1))


def test_mlp_forward_matches_and_detects_a_changed_weight(model):
    path, layers = model
    x = np.random.default_rng(0).standard_normal((5, 2))
    got = kf.forward(kf.load_checkpoint(path), x, 0.3)
    assert np.allclose(ref.mlp_forward(layers, x, 0.3), got, rtol=1e-12, atol=1e-13)
    bent = [(w.copy(), b.copy()) for w, b in layers]
    bent[2][0][0, 0] += 1e-3
    assert not np.allclose(ref.mlp_forward(bent, x, 0.3), got, rtol=1e-9, atol=1e-12)


def test_neural_batch_checks(neural_batch, tmp_path):
    trajs, want = neural_batch
    summary = kf.batch_summary(trajs)
    assert ref.check_batch(summary, want) == []
    path = str(tmp_path / "traces.csv")
    kf.save_traces(trajs, path)
    rows = ref.read_traces(path)
    assert ref.check_trace_rows(rows, want) == []
    assert ref.check_starts(rows[rows[:, 1] == 0.0][:, 2:4], 11) == []

    shifted = json.loads(json.dumps(summary))
    shifted["trajectories"][3]["kpe"] += 1e-6
    assert ref.check_batch(shifted, want)
    dropped = dict(summary, trajectories=summary["trajectories"][:-1])
    assert ref.check_batch(dropped, want)
    assert ref.check_trace_rows(rows[rows[:, 0] != 7], want)
    flipped = rows.copy()
    flipped[:, 2:4] *= -1.0
    assert ref.check_trace_rows(flipped, want)
    assert ref.check_starts(rows[rows[:, 1] == 0.0][:, 2:4][::-1], 11)


def test_reference_integrator_detects_a_flipped_field(neural_batch, model):
    _, layers = model
    trajs, want = neural_batch
    reverse = ref.integrate(lambda x, t: -ref.mlp_forward(layers, x, t),
                            ref.starts(11, 8), "euler", 5, 0.0)
    assert ref.check_batch(kf.batch_summary(trajs), reverse)


def test_sweep_rows_are_recomputed_per_cell(model):
    path, layers = model
    data = kf.generate("dense_sparse", 60, 1)
    held = kf.generate("dense_sparse", 12, 2)
    cells = [(0.0, 0.0), (0.02, 0.01)]
    cfg = cli.ExperimentConfig(solver=cli.SolverStageConfig(steps=6, m=12, seed=5))
    rows = cli.kts_sweep(kf.load_checkpoint(path), data, held.points, cfg,
                         [0.02], [0.01])
    table = [[r["alpha0"], r["beta0"], r["w2"], r["f_mem"], r["kpe_early"],
              r["kpe_late"]] for r in rows]
    args = (cells, layers, ref.starts(5, 12), 6, data.points, held.points)
    assert workloads.check_sweep_rows(table, *args) == []
    for col, delta in ((2, 1e-6), (3, 0.25), (4, 1e-6), (5, 1e-6)):
        bad = [list(r) for r in table]
        bad[1][col] += delta
        assert workloads.check_sweep_rows(bad, *args), col
    swapped = [list(r) for r in table]
    swapped[1][4], swapped[1][5] = swapped[1][5], swapped[1][4]
    assert workloads.check_sweep_rows(swapped, *args)


def test_efm_steps_checked_against_closed_form(efm_batch):
    atoms, trajs = efm_batch
    times, states, vels = stacked(trajs)
    field = ref.EfmTopK(atoms, 20)
    assert ref.check_efm_steps(field, states, vels, times) == []
    assert ref.check_efm_steps(field, states, -vels, times)
    moved = states.copy()
    moved[10:] += 1e-4
    assert ref.check_efm_steps(field, moved, vels, times)
    assert ref.check_efm_steps(ref.EfmTopK(atoms, 19), states, vels, times)
    assert ref.check_starts(states[0], 2) == []
    assert ref.check_starts(states[0] + 1e-9, 2)


def test_energy_accounting_and_collapse(efm_batch):
    atoms, trajs = efm_batch
    times, states, vels = stacked(trajs)
    kpe = np.array([t.kpe for t in trajs])
    early = np.array([t.kpe_early for t in trajs])
    late = np.array([t.kpe_late for t in trajs])
    assert ref.check_energy_accounting(vels, times, kpe, early, late) == []
    assert ref.check_energy_accounting(vels, times, kpe + 1e-6, early, late)
    assert ref.check_energy_accounting(vels, times, kpe, late, early)
    assert ref.check_collapse(states[-1], atoms) == []
    assert ref.check_collapse(states[-1] + 0.1, atoms)


def test_diagnose_report_recomputed_with_scipy(tmp_path):
    data = kf.generate("dense_sparse", 300, 5)
    held = kf.generate("dense_sparse", 60, 6)
    rng = np.random.default_rng(1)
    ends = data.points[rng.integers(0, 300, 60)] + 0.05 * rng.standard_normal((60, 2))
    kpes = rng.gamma(2.0, 1.0, 60)
    summary = {"trajectories": [{"kpe": float(k), "endpoint": list(e)}
                                for k, e in zip(kpes, ends)]}
    with open(tmp_path / "summary.json", "w") as fh:
        json.dump(summary, fh)
    kf.save_csv(data, str(tmp_path / "data.csv"))
    kf.save_csv(held, str(tmp_path / "held.csv"))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["diagnose", "--traces", str(tmp_path), "--data",
                       str(tmp_path / "data.csv"), "--heldout",
                       str(tmp_path / "held.csv"), "--out", str(tmp_path / "r.json")])
    assert rc == 0
    with open(tmp_path / "r.json") as fh:
        report = json.load(fh)
    want = ref.diagnose(kpes, ends, data.points, list(data.strata), held.points)
    assert ref.check_diagnose_report(report, want, "diag") == []
    for key, delta in (("rho_knn", 1e-6), ("rho_kde", 1e-6), ("mwu_u", 0.5),
                       ("cliffs_delta", 1e-6), ("cohens_d", 1e-6), ("w2", 1e-6),
                       ("f_mem", 1.0 / 60), ("mean_kpe_sparse", 1e-6)):
        bad = dict(report, **{key: report[key] + delta})
        assert ref.check_diagnose_report(bad, want, "diag"), key
    assert ref.check_diagnose_report(dict(report, mwu_p=report["mwu_p"] * 1.01),
                                     want, "diag")


def test_loss_grad_against_finite_differences(model):
    path, layers = model
    points = kf.generate("dense_sparse", 50, 1).points
    loss, grads = kf.cfm_loss_grad(kf.load_checkpoint(path), points, 16,
                                   np.random.default_rng(9))
    pairs = list(zip(grads.weights, grads.biases))
    assert ref.check_loss_grad(layers, points, 16, 9, loss, pairs) == []
    assert ref.check_loss_grad(layers, points, 16, 9, loss + 1e-6, pairs)
    scaled = [(1.01 * w, 1.01 * b) for w, b in pairs]
    assert ref.check_loss_grad(layers, points, 16, 9, loss, scaled)


def test_dataset_csv_against_recipe(tmp_path):
    for kind in kf.DATASET_KINDS:
        data = kf.generate(kind, 40, 3)
        path = str(tmp_path / f"{kind}.csv")
        kf.save_csv(data, path)
        assert ref.check_dataset_csv(path, kind, 40, 3) == []
        assert ref.check_dataset_csv(path, kind, 40, 4)
        moved = kf.LabeledDataset(data.points + np.eye(40, 2) * 1e-12, data.strata,
                                  data.kind, data.seed)
        kf.save_csv(moved, path)
        assert ref.check_dataset_csv(path, kind, 40, 3)
