"""Benchmark of the gxnor package: DST training, conv training, packed
gated-XNOR inference and the command line, end to end and per layer.

Run one workload (the form ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload mlp-train --seed 1 --seconds 25 --trace 0

Run every workload, each in its own process, one after the other::

    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Inputs are synthetic and made from ``--seed``.  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped.  ``--trace 1`` measures the first
half of the run untraced and the second half traced, and reports the
per-layer metrics of the traced half plus the tracing overhead (how much
slower the traced half's median iteration is).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds everything else about the run: the environment, the trajectory
digests, the workload's own named metrics and any failure messages.  Both
also go to ``.perfbench_out/`` together with the spans of a traced run.

Set-up makes the inputs; on mlp-train and blobs-cli it also makes the
reference run whose digest later runs must match, and on mlp-infer it trains
and checkpoints the model.  It is repeated at least three times and until
1.5 s have gone, and its median is ``setup_s``; interpreter and NumPy
start-up are not part of it.  The first iteration after set-up is a warm-up:
it is checked but not timed.
The workload's own named metrics (``train_step_ms_p95``,
``packed_eval_images_per_s``, ...) cover the untraced iterations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
SETUP_MIN_S = 1.5
SETUP_MAX_REPEATS = 50

# End-to-end metrics and their units; every workload reports all of them.
# The gated iteration time is the fastest iteration, not the median: on a
# shared two-core machine the median and the mean of a whole run move by
# 10-30 % from run to run with the load of other tenants, the minimum by about
# half that (see README.md).
END_TO_END = {
    "setup_s": "s",
    "iter_ms_min": "ms",
    "peak_rss_mb": "MB",
}


def bootstrap() -> None:
    """Cap BLAS threads at the core count, then import gxnor from ``src/``.

    Must run before NumPy is imported.  Exits if this checkout has no
    ``src/gxnor``, so the benchmark never measures some other copy.
    """
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else cores
        os.environ[var] = str(min(limit, cores))
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gxnor", "__init__.py")):
        sys.exit(f"perfbench: no gxnor package under {src}")
    sys.path.insert(0, src)


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _timed_phase(workload, stats, seconds, durations) -> None:
    """Run timed iterations until ``seconds`` have passed (at least one)."""
    deadline = time.perf_counter() + seconds
    iterations = 0
    while iterations == 0 or time.perf_counter() < deadline:
        iterations += 1
        try:
            durations.extend(workload.iterate(stats))
        except Exception as exc:  # a failed operation is counted, not fatal
            stats.record(1, 1, f"{type(exc).__name__}: {exc}")


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details)."""
    import tracing
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    stats = workloads.Stats()
    setup_times: list[float] = []
    workload = None
    while (len(setup_times) < SETUP_REPEATS
           or (sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPEATS)):
        # Free the previous set-up's inputs first, so that peak memory does
        # not depend on how many set-ups ran.
        workload = None
        start = time.perf_counter()
        workload = workloads.WORKLOADS[name](seed, ROOT, OUT_DIR)
        workload.setup(stats)
        setup_times.append(time.perf_counter() - start)

    workload.warm_up(stats)
    untraced: list[float] = []
    _timed_phase(workload, stats, seconds / 2 if trace else seconds, untraced)
    named = {
        "iter_ms_p50": (statistics.median(untraced) * 1e3, "ms"),
        "iter_ms_min": (min(untraced) * 1e3, "ms"),
        "items_per_s": (workload.items_per_iter * len(untraced) / sum(untraced), "1/s"),
        "iterations": (len(untraced), "count"),
        **workload.named_metrics(untraced),
    }
    if trace:
        tracer = tracing.Tracer()
        traced: list[float] = []
        with tracer.installed():
            _timed_phase(workload, stats, seconds / 2, traced)
        overhead = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
        metrics = tracing.per_layer_metrics(tracer, overhead)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "iter_ms_min": named["iter_ms_min"][0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": float(v), "unit": END_TO_END[k]} for k, v in values.items()}

    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }
    details = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "digests": workload.digests(),
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "failed_fraction": stats.failed / stats.attempted if stats.attempted else 0.0,
        "setup_times_s": setup_times,
        "errors": stats.errors,
    }
    if trace:
        summary = tracer.summary()
        details["self_time"] = summary
        with open(os.path.join(OUT_DIR, f"trace-{name}.json"), "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts, "self_time": summary}, fh)
    return result, details


def _print_report(result: dict, details: dict) -> None:
    print(f"perfbench {details['workload']} trace={details['trace']} "
          f"seed={details['environment']['seed']}")
    for key, value in details["environment"].items():
        print(f"  env {key}: {value}")
    for key, value in details["digests"].items():
        print(f"  digest {key}: {value}")
    for key, m in details["named_metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_fraction = {details['failed_fraction']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for error in details["errors"]:
        print(f"  FAILED: {error}")
    for key, m in result["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    if "self_time" in details:
        rows = sorted(details["self_time"].items(), key=lambda kv: -kv[1]["self_s"])
        total = sum(row["self_s"] for _, row in rows) or 1.0
        print("  traced self time (share of all traced self time):")
        for span, row in rows[:12]:
            print(f"    {span:34s} {row['calls']:8d} calls {row['self_s'] * 1e3:10.1f} ms "
                  f"{100 * row['self_s'] / total:5.1f} %")


def _run_all(args) -> int:
    """Each workload in its own process; prints their reports and a summary line."""
    import workloads

    summary = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    ok = all(r is not None and r["correct"] for r in summary.values())
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if all(r is not None for r in summary.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    if args.workload == "all":
        return _run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(result, details)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
