"""Run one kinflow benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload {pipeline,kts_sweep,efm_memorize} \
        --seed N --seconds S --trace {0,1}

Run from the root of a kinflow checkout; kinflow is imported from ``src/``.
The run sets up the workload's inputs (several times, reporting the median),
makes one untimed warm-up round, then repeats whole rounds of calls into
kinflow until ``--seconds`` have passed, then checks every round's outputs
against independent computations.  Times are normalized by a host-speed
probe (``probe.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead
alternates an untraced and a traced set-up-plus-round, wrapping kinflow's
public functions in spans, and reports the per-layer metrics; the spans are
written to ``.bench_out/<workload>/seed<N>/spans.jsonl``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# one BLAS thread: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from probe import normalized, probe  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS = 3

UNITS = {"setup_s": "s", "job_s": "s", "traj_per_s": "traj/s", "peak_rss_mb": "MB"}


def import_kinflow():
    """Import kinflow from this checkout; returns (package, (seconds, probe
    before, probe after))."""
    if not os.path.isfile(os.path.join(SRC, "kinflow", "__init__.py")):
        raise SystemExit(f"error: no kinflow sources under {SRC}")
    sys.path.insert(0, SRC)
    before = probe()
    start = time.perf_counter()
    import numpy  # noqa: F401
    import kinflow
    from kinflow import cli, datasets, diagnostics, efm, net, sampler, svgplot, theory  # noqa: F401
    timing = time.perf_counter() - start, before, probe()
    if os.path.dirname(os.path.abspath(kinflow.__file__)) != os.path.join(SRC, "kinflow"):
        raise SystemExit(f"error: kinflow imported from {kinflow.__file__}, not {SRC}")
    return kinflow, timing


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args) -> tuple[float, float, float]:
    """(seconds taken by ``fn(*args)``, probe before, probe after)."""
    before = probe()
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start, before, probe()


def measure(wl, seconds: float, imported) -> tuple[list, dict]:
    """Untraced: median set-up of several, then a warm-up round, then whole
    rounds for ``seconds``.  Every time is normalized by the probes around
    it (see ``probe``); a call's time is its mean over the timed rounds."""
    setups = [normalized(*timed(wl.setup, i)) for i in range(SETUPS)]
    rounds = [wl.round(0)]                  # warm-up: checked, not timed
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        rounds.append(wl.round(len(rounds)))
    ops = {op: statistics.mean(normalized(*r["ops"][op]) for r in rounds[1:])
           for op in rounds[0]["ops"]}
    sampling = rounds[0]["traj"]
    metrics = {
        "setup_s": normalized(*imported) + statistics.median(setups),
        "job_s": sum(ops.values()),
        "traj_per_s": sum(sampling.values()) / sum(ops[op] for op in sampling),
        "peak_rss_mb": peak_rss_mb(),
    }
    return rounds, {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def measure_traced(wl, kf, seconds: float, out: str) -> tuple[list, dict, list]:
    """Pairs of (untraced, traced) set-up-plus-round, for ``seconds``."""
    import tracing
    import workloads

    workloads.Timer.probing = False
    tracer = tracing.Tracer()
    rounds, untraced, traced, traced_rounds = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        wl.setup(len(wl.setup_dirs))
        rounds.append(wl.round(len(rounds)))
        t1 = time.perf_counter()
        with tracing.instrument(tracer, kf):
            with tracer.span("bench.setup"):
                wl.setup(len(wl.setup_dirs))
            with tracer.span("bench.round"):
                rounds.append(wl.round(len(rounds)))
        traced_rounds.append(rounds[-1])
        untraced.append(t1 - t0)
        traced.append(time.perf_counter() - t1)
    tracer.write(os.path.join(out, "spans.jsonl"))

    pairs = len(traced)
    metrics = dict.fromkeys(tracing.PER_LAYER_UNITS, 0.0)
    metrics.update(tracing.summarize(tracer.spans, per=pairs))
    metrics.update(wl.layer_counts(traced_rounds))
    metrics["trace.untraced_ms"] = 1e3 * statistics.mean(untraced)
    metrics["trace.traced_ms"] = 1e3 * statistics.mean(traced)
    metrics["trace.overhead_ms"] = metrics["trace.traced_ms"] - metrics["trace.untraced_ms"]
    metrics["trace.span_cost_ms"] = 1e3 * metrics["trace.spans"] * tracing.span_cost_s()

    problems = []
    for stage, span_s in tracing.stage_span_seconds(tracer.spans, per=pairs).items():
        key = f"cli.stage.{stage}.s"
        if abs(metrics[key] - span_s) > 2e-3 + 0.01 * span_s:
            problems.append(f"{key}: run manifest says {metrics[key]} s, spans {span_s} s")
    if metrics["sampler.rows_evaluated"] != wl.ROWS_EVALUATED:
        problems.append(f"sampler evaluated {metrics['sampler.rows_evaluated']} field rows "
                        f"per round, expected {wl.ROWS_EVALUATED}")
    return rounds, {k: {"value": float(metrics[k]), "unit": u}
                    for k, u in tracing.PER_LAYER_UNITS.items()}, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    kf, imported = import_kinflow()
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"expected one of {sorted(workloads.WORKLOADS)}")
    out = workloads.fresh_dir(os.path.join(ROOT, ".bench_out", args.workload,
                                           f"seed{args.seed}"))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              **environment(), "loadavg_before": os.getloadavg()}
    wl = workloads.WORKLOADS[args.workload](kf, args.seed, out)

    problems = []
    if args.trace:
        rounds, metrics, problems = measure_traced(wl, kf, args.seconds, out)
    else:
        rounds, metrics = measure(wl, args.seconds, imported)
    record["loadavg_after"] = os.getloadavg()
    record["ops_by_round"] = [dict(r["ops"]) for r in rounds]

    problems += wl.check_setup()
    attempted = failed = 0
    for r in rounds:
        a, f, probs = wl.check_round(r, None if r is rounds[0] else rounds[0])
        attempted += a
        failed += f
        problems += probs
    record["problems"] = problems
    with open(os.path.join(out, "env.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("env: " + json.dumps({k: v for k, v in record.items() if k != "problems"}),
          file=sys.stderr)
    for prob in problems:
        print(f"check failed: {prob}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
