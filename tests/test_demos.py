"""Run every demo, so that an API change cannot break one unnoticed.  Demos
02-04 train a model for 2000 iterations; here ``kf.train`` runs 200."""

import os
import runpy
from dataclasses import replace

import pytest

import kinflow as kf

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


def run_demo(name: str) -> None:
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")


def test_density_stratified_data(tmp_path, monkeypatch, capsys):
    # the demo writes its CSVs and SVGs under demo_out/ in the working directory
    monkeypatch.chdir(tmp_path)
    run_demo("01_density_stratified_data.py")
    assert capsys.readouterr().out.count("mean density ratio") == 3
    for kind in ("dense_sparse", "multiscale_clusters", "sandwich"):
        assert (tmp_path / "demo_out" / f"{kind}.csv").exists()
        assert (tmp_path / "demo_out" / f"{kind}.svg").exists()


@pytest.mark.parametrize("name, lines", [
    ("02_train_and_sample.py", ["sampled 200 trajectories, mean energy ",
                                "energy of sparse-stratum endpoints: ",
                                "rank correlation with log KDE density: "]),
    ("03_closed_form_memorization.py", ["neural       f_mem=", "closed-form  f_mem=",
                                        "peak power ratio (closed-form / neural): "]),
    ("04_trajectory_shaping.py", [" alpha0   beta0  kpe_early  kpe_late  f_mem\n   0.00    0.00 ",
                                  "\n   0.01    0.00 ", "\n   0.02    0.00 ", "\n   0.00    0.01 ",
                                  "\n   0.00    0.02 ", "\n   0.01    0.01 "]),
])
def test_training_demo(name, lines, monkeypatch, capsys):
    train = kf.train
    monkeypatch.setattr(kf, "train",
                        lambda points, cfg: train(points, replace(cfg, iterations=200)))
    run_demo(name)
    out = capsys.readouterr().out
    assert all(out.count(line) == 1 for line in lines), out


def test_theory_checks(capsys):
    run_demo("05_theory_checks.py")
    out = capsys.readouterr().out
    assert out.count("pass rate 1.000") == 3
    assert out.count("pass=True") == 3
    assert "100/100 random paths" in out
