"""Measurement loop of the focklat benchmark.

A run builds one workload's op list from the seed, runs one untimed warm-up
pass, then runs passes back to back (closed loop, one process) until the
requested seconds are spent.  Every op's output is checked after its pass,
outside the timed interval.  An untraced run then makes one extra pass under
``tracemalloc``; a traced run alternates untraced and traced passes instead.
"""

import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

import focklat

from . import BLAS_THREAD_VARS, tracing, workloads

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "pass_s_tail": "s",
    "peak_alloc_mb": "MB",
    "ok_share": "share",
    "residual_ratio": "ratio",
}


def per_layer_unit(name):
    if name.endswith("_ms") or name.endswith(".ms_per_sample"):
        return "ms"
    return {"fock.expm.dim_mean": "dim", "cli.bytes_out": "B",
            "trace.overhead_s": "s"}.get(name, "count")


class Tally:
    """Outcomes of the checked ops of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []       # unusable outputs: these make the run incorrect
        self.misses = {}       # "op check" -> its residual against its tolerance
        self.worst_ratio = 0.0
        self.outcomes = {}     # op index -> outcome of its first pass

    def record(self, index, op, out, counted):
        try:
            if isinstance(out, BaseException):
                raise workloads.CheckError(f"raised {type(out).__name__}: {out}")
            rows = op.check(out)
            if not rows or not all(math.isfinite(r) and r >= 0 for _, r, _ in rows):
                raise workloads.CheckError(f"no finite residual: {rows}")
        except Exception as exc:  # whatever breaks a check makes the output unusable
            self.errors.append(f"{op.name}: {exc}")
            outcome = "error"
        else:
            ratios = [0.0 if r == 0 else (math.inf if t == 0 else r / t) for _, r, t in rows]
            self.worst_ratio = max(self.worst_ratio, *ratios)
            bad = [(label, r, t) for label, r, t in rows if r > t]
            outcome = "miss" if bad else "ok"
            for label, r, t in bad:
                self.misses[f"{op.name} {label}"] = f"{r:.3e} > {t:.0e}"
        if self.outcomes.setdefault(index, outcome) != outcome:
            self.errors.append(f"{op.name}: outcome changed between passes")
        if counted:
            self.attempted += 1
            self.failed += outcome != "ok"


def run_pass(ops):
    """Run every op once; returns the wall time and the outputs."""
    outputs = []
    start = time.perf_counter()
    for op in ops:
        try:
            outputs.append(op.run())
        except Exception as exc:  # an op that raises is a failed op, not a crash
            outputs.append(exc)
    return time.perf_counter() - start, outputs


def check_pass(ops, outputs, tally, counted=True):
    for index, (op, out) in enumerate(zip(ops, outputs)):
        tally.record(index, op, out, counted)


def tail(times):
    """Highest percentile with at least ten passes beyond it, and its value.

    With ten passes or fewer no such percentile exists; the slowest pass is
    returned as percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def setup_time(workload, seed):
    """Cold import plus input generation, timed in a fresh process."""
    probe = [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True,
                          cwd=HERE.parent)
    return float(done.stdout.strip().splitlines()[-1])


def fingerprint():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "focklat": str(Path(focklat.__file__).parent),
    }


def _median_metrics(per_pass):
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}


def run_workload(name, seed, seconds, trace, out_dir):
    """Run one workload; returns the result object and a report of details.

    An untraced run also times set-up in fresh processes, spread over the
    run (the host's speed drifts over seconds, so a burst of probes would
    catch one phase of it).
    """
    ops = workloads.build(name, seed, out_dir)
    tally = Tally()
    check_pass(ops, run_pass(ops)[1], tally, counted=False)  # warm-up

    times, traced_times, layer_passes, setups = [], [], [], []
    probes = 0 if trace else SETUP_RUNS
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        if len(setups) < probes and time.perf_counter() - start >= len(setups) * seconds / probes:
            setups.append(setup_time(name, seed))
        leftover = tracing.installed_wrappers()
        if leftover:
            raise RuntimeError(f"wrappers left installed before a timed pass: {leftover}")
        elapsed, outputs = run_pass(ops)
        times.append(elapsed)
        check_pass(ops, outputs, tally)
        if tracer:
            tracer.reset()
            with tracer.installed():
                elapsed, outputs = run_pass(ops)
            traced_times.append(elapsed)
            layer_passes.append(tracer.pass_metrics())
            check_pass(ops, outputs, tally)

    while len(setups) < probes:
        setups.append(setup_time(name, seed))
    pct, tail_s = tail(times)
    fail_share = tally.failed / tally.attempted
    report = {
        "workload": name,
        "seed": seed,
        "passes": len(times),
        "setup_probes": len(setups),
        "ops_per_pass": len(ops),
        "pass_s_tail_percentile": round(pct, 1),
        "pass_times_s": [round(t, 6) for t in times],
        "fail_share": fail_share,
        "headroom_digits": (-math.log10(tally.worst_ratio) if tally.worst_ratio else math.inf),
        "misses": tally.misses,
        "errors": tally.errors,
        "environment": fingerprint(),
    }
    if trace:
        metrics = _median_metrics(layer_passes)
        metrics["trace.pass_ms"] = 1e3 * statistics.median(traced_times)
        metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(times)
        metrics["cli.bytes_out"] = sum(p.stat().st_size for p in Path(out_dir).iterdir())
        report["traced_passes"] = len(traced_times)
    else:
        tracemalloc.start()
        try:
            outputs = run_pass(ops)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        check_pass(ops, outputs, tally, counted=False)
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(times),
            "pass_s_tail": tail_s,
            "peak_alloc_mb": peak / 1e6,
            "ok_share": 1.0 - fail_share,
            "residual_ratio": tally.worst_ratio,
        }
    unit = per_layer_unit if trace else END_TO_END_UNITS.get
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit(key)} for key, value in metrics.items()},
    }
    return result, report
