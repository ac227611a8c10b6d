"""Run the demos that do not train, so that an API change cannot break them
unnoticed.  Demos 02-04 each train a model for 2000 iterations and stay out."""

import os
import runpy

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


def test_theory_checks(capsys):
    run_demo("05_theory_checks.py")
    out = capsys.readouterr().out
    assert out.count("pass rate 1.000") == 3
    assert out.count("pass=True") == 3
    assert "100/100 random paths" in out
