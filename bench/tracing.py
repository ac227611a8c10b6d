"""Spans around the calls into kinflow's modules, recorded from outside.

``instrument`` replaces the public functions and methods of each kinflow
module with wrappers that record a span (name, parent, start, end, count)
and restores them on exit.  A function is replaced under every name that
holds it, so ``from .efm import posterior_weights`` in ``theory`` is traced
too.  Spans stay in memory until ``Tracer.write``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time

import numpy as np

#: traced callables per module: "name" for a function, "Class.method" for a
#: method.  Those called from another module attribute time to their own
#: layer; the others are listed only where a per-layer metric reads them.
TARGETS = {
    "datasets": ("generate", "save_csv", "load_csv", "KdeEstimator.density"),
    "net": ("train", "cfm_loss_grad", "AdamWState.update", "forward",
            "save_checkpoint", "load_checkpoint"),
    "efm": ("EfmField.__call__", "posterior_weights", "mixture_log_density",
            "mixture_score", "general_velocity", "dominance"),
    "sampler": ("sample_batch", "integrate", "save_traces", "load_traces",
                "batch_summary"),
    "diagnostics": ("kpe_density_report", "knn_density", "f_mem", "exact_w2"),
    "theory": ("sample_dominant_points", "check_energy_density_bounds",
               "check_local_gaussian_remainder", "check_score_remainder",
               "check_concentration", "blowup_probe",
               "universal_lower_bound_check", "integrated_energy_density",
               "bound_constants"),
    "cli": ("main", "run_pipeline", "stage_gen", "stage_train", "stage_sample",
            "stage_diagnose", "stage_verify", "kts_sweep", "emit_plots",
            "_theory_report"),
    "svgplot": ("LinePlot.add_series", "LinePlot.add_band", "LinePlot.render",
                "box_summary"),
}

LAYERS = tuple(TARGETS)

#: every per-layer metric with its unit; ``.ms`` is a mean per call, ``.s``,
#: ``.self_ms``, ``.calls`` and ``.bytes`` are totals per set-up plus round
PER_LAYER_UNITS = {
    "net.train.iter_per_s": "1/s",
    "net.cfm_loss_grad.ms": "ms",
    "net.adamw.ms": "ms",
    "net.forward.calls": "count",
    "net.forward.rows_per_call": "rows",
    "net.forward.self_ms": "ms",
    "net.checkpoint_save.ms": "ms",
    "net.checkpoint_load.ms": "ms",
    "net.checkpoint.bytes": "bytes",
    "efm.field.calls": "count",
    "efm.field.rows_per_call": "rows",
    "efm.field.self_ms": "ms",
    "sampler.sample_batch.s": "s",
    "sampler.self_ms": "ms",
    "sampler.rows_evaluated": "rows",
    "sampler.save_traces.ms": "ms",
    "sampler.load_traces.ms": "ms",
    "sampler.traces.bytes": "bytes",
    "diagnostics.kpe_density_report.ms": "ms",
    "diagnostics.knn_density.calls": "count",
    "diagnostics.f_mem.ms": "ms",
    "diagnostics.exact_w2.ms": "ms",
    "datasets.generate.ms": "ms",
    "datasets.kde.ms": "ms",
    "datasets.csv_io.ms": "ms",
    "theory.verify.ms": "ms",
    "theory.points_checked": "count",
    **{f"cli.stage.{s}.s": "s" for s in ("gen", "train", "sample", "diagnose", "verify")},
    "cli.stages_skipped": "count",
    "svgplot.emit_plots.ms": "ms",
    **{f"layer.{layer}.self_ms": "ms" for layer in LAYERS + ("harness",)},
    "trace.untraced_ms": "ms",
    "trace.traced_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.span_cost_ms": "ms",
    "trace.spans": "count",
}


def _rows(arg_index: int):
    """Rows in a state argument: (B, d) gives B, a single (d,) state gives 1."""
    def count(args, kwargs, result):
        x = np.asarray(args[arg_index])
        return x.shape[0] if x.ndim == 2 else 1
    return count


def _file_bytes(arg_index: int):
    def count(args, kwargs, result):
        return os.path.getsize(args[arg_index])
    return count


def _iterations(args, kwargs, result):
    return args[1].iterations


#: what a span's count holds, where it holds anything
COUNTS = {
    "net.forward": _rows(1),
    "efm.EfmField.__call__": _rows(1),
    "net.train": _iterations,
    "net.save_checkpoint": _file_bytes(1),
    "sampler.save_traces": _file_bytes(1),
}


class Tracer:
    """In-memory spans: [name, parent index, start, end, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1], 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, self._stack[-1], 0.0, 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, start, end, count) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, start, end, count]) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer, package):
    """Trace kinflow's public calls for the duration of the block."""
    modules = [package] + [getattr(package, name) for name in LAYERS]
    undo = []
    for layer in LAYERS:
        mod = getattr(package, layer)
        for target in TARGETS[layer]:
            name = f"{layer}.{target}"
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(name, original))
                undo.append((cls, meth, original))
                continue
            original = getattr(mod, target)
            wrapped = tracer.wrap(name, original)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapped)
                        undo.append((holder, attr, original))
    cli = package.cli
    stages = cli.PIPELINE_STAGES
    # run_pipeline iterates this tuple, which captured the stage functions at import
    cli.PIPELINE_STAGES = tuple((n, getattr(cli, fn.__name__), sub) for n, fn, sub in stages)
    undo.append((cli, "PIPELINE_STAGES", stages))
    try:
        yield tracer
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


def span_cost_s(calls: int = 20000) -> float:
    """Seconds a traced call adds over a plain one, from a no-op function."""
    def noop():
        return None

    traced = Tracer().wrap("calibrate", noop)
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    mid = time.perf_counter()
    for _ in range(calls):
        noop()
    return max(0.0, ((mid - start) - (time.perf_counter() - mid)) / calls)


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in TARGETS else "harness"


def summarize(spans: list[list], per: int = 1) -> dict:
    """Per-layer metrics from spans; totals are divided by ``per`` (the number
    of traced set-up-plus-round units), means are per call."""
    n = len(spans)
    names = [s[0] for s in spans]
    parent = np.array([s[1] for s in spans], dtype=np.int64)
    dur = np.array([s[3] - s[2] for s in spans])
    counts = np.array([s[4] for s in spans], dtype=np.float64)
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child

    # nearest enclosing sample_batch of each span (parents precede children)
    in_batch = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        if names[i] == "sampler.sample_batch":
            in_batch[i] = i
        elif parent[i] >= 0:
            in_batch[i] = in_batch[parent[i]]

    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)

    def idx(*keys):
        return [i for k in keys for i in by_name.get(k, [])]

    def mean_ms(*keys):
        sel = idx(*keys)
        return 1e3 * float(dur[sel].mean()) if sel else 0.0

    def total(arr, *keys):
        sel = idx(*keys)
        return float(arr[sel].sum()) / per if sel else 0.0

    fields = ("net.forward", "efm.EfmField.__call__")
    field_in_batch = [i for i in idx(*fields) if in_batch[i] >= 0]
    batch_s = total(dur, "sampler.sample_batch")
    train = idx("net.train")
    out = {
        "net.train.iter_per_s": (float(counts[train].sum() / dur[train].sum())
                                 if train else 0.0),
        "net.cfm_loss_grad.ms": mean_ms("net.cfm_loss_grad"),
        "net.adamw.ms": mean_ms("net.AdamWState.update"),
        "net.forward.calls": total(np.ones(n), "net.forward"),
        "net.forward.rows_per_call": (float(counts[idx("net.forward")].mean())
                                      if idx("net.forward") else 0.0),
        "net.forward.self_ms": 1e3 * total(self_t, "net.forward"),
        "net.checkpoint_save.ms": mean_ms("net.save_checkpoint"),
        "net.checkpoint_load.ms": mean_ms("net.load_checkpoint"),
        "net.checkpoint.bytes": (float(counts[idx("net.save_checkpoint")].max())
                                 if idx("net.save_checkpoint") else 0.0),
        "efm.field.calls": total(np.ones(n), "efm.EfmField.__call__"),
        "efm.field.rows_per_call": (float(counts[idx("efm.EfmField.__call__")].mean())
                                    if idx("efm.EfmField.__call__") else 0.0),
        "efm.field.self_ms": 1e3 * total(self_t, "efm.EfmField.__call__"),
        "sampler.sample_batch.s": batch_s,
        "sampler.self_ms": 1e3 * (batch_s - float(dur[field_in_batch].sum()) / per),
        "sampler.rows_evaluated": float(counts[field_in_batch].sum()) / per,
        "sampler.save_traces.ms": mean_ms("sampler.save_traces"),
        "sampler.load_traces.ms": mean_ms("sampler.load_traces"),
        "sampler.traces.bytes": total(counts, "sampler.save_traces"),
        "diagnostics.kpe_density_report.ms": mean_ms("diagnostics.kpe_density_report"),
        "diagnostics.knn_density.calls": total(np.ones(n), "diagnostics.knn_density"),
        "diagnostics.f_mem.ms": mean_ms("diagnostics.f_mem"),
        "diagnostics.exact_w2.ms": mean_ms("diagnostics.exact_w2"),
        "datasets.generate.ms": mean_ms("datasets.generate"),
        "datasets.kde.ms": mean_ms("datasets.KdeEstimator.density"),
        "datasets.csv_io.ms": mean_ms("datasets.save_csv", "datasets.load_csv"),
        "theory.verify.ms": mean_ms("cli._theory_report"),
        "svgplot.emit_plots.ms": mean_ms("cli.emit_plots"),
        "trace.spans": n / per,
    }
    layer_self = {layer: 0.0 for layer in LAYERS + ("harness",)}
    for name, sel in by_name.items():
        layer_self[layer_of(name)] += float(self_t[sel].sum())
    for layer, seconds in layer_self.items():
        out[f"layer.{layer}.self_ms"] = 1e3 * seconds / per
    return out


def stage_span_seconds(spans: list[list], per: int = 1) -> dict:
    """Seconds per pipeline stage from the cli.stage_* spans."""
    out: dict[str, float] = {}
    for name, _, start, end, _ in spans:
        if name.startswith("cli.stage_"):
            stage = name[len("cli.stage_"):]
            out[stage] = out.get(stage, 0.0) + (end - start) / per
    return out
