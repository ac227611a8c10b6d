"""The benchmark's tracer finds every kinflow function it wraps.

``bench/tracing.py`` looks up each name in its ``TARGETS`` table on the
kinflow package and replaces it for a traced run; a renamed or removed
function would only show as a crashed traced run.  The table is read from
the file, which is left untouched; the test is skipped without ``bench/``.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def targets():
    if not TRACING.is_file():
        pytest.skip("no bench/tracing.py in this checkout")
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


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
