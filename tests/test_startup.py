"""Start-up cost: importing kinflow, and every subcommand but W2, loads no scipy."""

import json
import os
import subprocess
import sys

import kinflow

SRC = os.path.dirname(os.path.dirname(os.path.abspath(kinflow.__file__)))

# Runs in a fresh interpreter: records the scipy modules loaded after the
# import and after each step, then prints them as one JSON line.
SCRIPT = r"""
import json, os, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import kinflow, kinflow.cli
from kinflow.cli import main

tmp = sys.argv[1]
path = lambda name: os.path.join(tmp, name)
seen = {"import": scipy_modules()}
steps = {
    "gen-data": [["gen-data", "--kind", "dense_sparse", "--n", "200", "--seed", "7",
                  "--out", path("data.csv")],
                 ["gen-data", "--kind", "dense_sparse", "--n", "40", "--seed", "8",
                  "--out", path("heldout.csv")]],
    "sample": [["sample", "--efm", path("data.csv"), "--neighbors", "0", "--solver",
                "euler", "--steps", "20", "--m", "40", "--seed", "5",
                "--out", path("traces")]],
    "plot": [["plot", "--traces", path("traces/traces.csv"), "--data", path("data.csv"),
              "--out", path("plots")]],
    "verify-theory": [["verify-theory", "--dims", "2", "--atoms", "20",
                       "--out", path("theory.json")]],
    "diagnose": [["diagnose", "--traces", path("traces"), "--data", path("data.csv"),
                  "--out", path("diagnose.json")]],
    "diagnose --heldout": [["diagnose", "--traces", path("traces"),
                            "--data", path("data.csv"), "--heldout", path("heldout.csv"),
                            "--out", path("diagnose_w2.json")]],
}
codes = {}
for name, calls in steps.items():
    codes[name] = [main(argv) for argv in calls]
    seen[name] = scipy_modules()
with open(path("diagnose_w2.json")) as fh:
    w2 = json.load(fh)["w2"]
print(json.dumps({"codes": codes, "seen": seen, "w2": w2}))
"""


def test_only_w2_loads_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(code == 0 for codes in result["codes"].values() for code in codes), result
    seen = result["seen"]
    for step in ("import", "gen-data", "sample", "plot", "verify-theory", "diagnose"):
        assert seen[step] == [], (step, seen[step])
    # the W2 step did compute W2, and that alone brought in scipy.optimize
    assert result["w2"] is not None
    assert "scipy.optimize" in seen["diagnose --heldout"]
    assert not [m for m in seen["diagnose --heldout"] if m.startswith("scipy.stats")]
