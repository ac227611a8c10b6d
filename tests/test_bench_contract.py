"""What the benchmark reads from kinflow still resolves and still checks.

``bench/tracing.py`` looks up each name in its ``TARGETS`` table on the
kinflow package and replaces it for a traced run; a renamed or removed
function would only show as a crashed traced run, and a traced name that
calls another would only show as miscounted rows.  ``bench/reference.py``
checks ``cfm_loss_grad`` on a trained checkpoint against its own float64
loss at a relative 1e-9; a loss computed in a lower precision would only
show as a failed benchmark run.  Both files are loaded, and left
untouched; the tests are skipped without ``bench/``.
"""

import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

import kinflow
import kinflow.cli  # noqa: F401  (instrument wraps the cli layer too)
from kinflow import datasets, net

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name: str):
    path = BENCH / f"{name}.py"
    if not path.is_file():
        pytest.skip(f"no bench/{name}.py in this checkout")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def targets():
    return _bench_module("tracing").TARGETS


def test_every_traced_name_resolves(targets):
    missing = []
    for layer, names in targets.items():
        module = importlib.import_module(f"kinflow.{layer}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(module, cls_name, None)
                ok = cls is not None and callable(vars(cls).get(meth))
            else:
                ok = callable(getattr(module, name, None))
            if not ok:
                missing.append(f"{layer}.{name}")
    assert not missing, f"traced names missing from kinflow: {missing}"


def _assert_traced_rows(field, span_name):
    # sample_batch calls integrate, which is traced too; the field calls
    # inside both spans are counted once, under the one sample_batch span
    tracing = _bench_module("tracing")
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, kinflow):
        kinflow.sampler.sample_batch(field, 8, kinflow.SolverConfig(steps=5))
    names = [span[0] for span in tracer.spans]
    assert names.count("sampler.sample_batch") == 1
    assert names.count(span_name) == 5
    assert tracing.summarize(tracer.spans)["sampler.rows_evaluated"] == 40


def test_traced_sample_batch_counts_each_row_once():
    _assert_traced_rows(kinflow.EfmField(np.random.default_rng(0).standard_normal((20, 2))),
                        "efm.EfmField.__call__")


def test_traced_sample_batch_counts_each_neural_row_once():
    # the tracer counts a neural field's rows on the module-level net.forward,
    # from its second positional argument, so the field must call it so
    _assert_traced_rows(kinflow.NeuralVelocityField(net.init_params(3)), "net.forward")


def test_loss_grad_of_a_trained_checkpoint_passes_the_reference(tmp_path):
    # train() runs its steps in float32; the checkpoint it leaves, and
    # cfm_loss_grad on it, must stay float64.  On this checkpoint a float32
    # step's loss is off by 1e-10 to 2e-8 relative, depending on the draw, so
    # six draws are checked; four of them are off by more than 1e-9
    reference = _bench_module("reference")
    points = datasets.generate("dense_sparse", 200, 3).points
    result = net.train(points, net.TrainConfig(iterations=300, batch_size=64, seed=4))
    path = tmp_path / "model.ckpt"
    net.save_checkpoint(result.params, path)
    params, layers = net.load_checkpoint(path), reference.read_checkpoint(path)
    problems = []
    for seed in range(9, 15):
        loss, grads = net.cfm_loss_grad(params, points, 64, np.random.default_rng(seed))
        problems += reference.check_loss_grad(layers, points, 64, seed, loss,
                                              list(zip(grads.weights, grads.biases)))
    assert problems == []


@pytest.mark.parametrize("kind", datasets.DATASET_KINDS)
def test_generate_matches_the_reference_generators(kind):
    # bench/reference.py writes each generator out by hand; kinflow's table
    # must draw the same points and labels, bit for bit
    reference = _bench_module("reference")
    for n in [*range(10, 60), 137, 1001, 4000]:
        for seed in (0, 7, 29001):
            got = datasets.generate(kind, n, seed)
            points, labels = reference.dataset(kind, n, seed)
            assert np.array_equal(got.points, points), (kind, n, seed)
            assert list(got.strata) == labels, (kind, n, seed)
