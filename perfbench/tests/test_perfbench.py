"""Tests of the benchmark itself: metrics, tracing, fail share and seeding.

Workload runs go through the entry point in a subprocess, as the benchmark
is meant to be run, so that the thread pinning before numpy's import holds.
"""

import json
import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from focklat import algebra, fock, states
from perfbench import DEFAULT_SEED, WORKLOADS, tracing, workloads
from perfbench.harness import tail

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _one_pass(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True, cwd=ROOT)
    *_, report, result = done.stdout.splitlines()
    assert report.startswith("report ")
    return json.loads(report[len("report "):]), json.loads(result)


@pytest.fixture(scope="module")
def runs():
    """Report and result of a single-pass run of every workload, both modes."""
    keys = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(keys, pool.map(lambda key: _one_pass(*key), keys)))


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_yields_every_named_metric(runs, workload, trace, kind):
    report, result = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= report["ops_per_pass"]
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert report["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS


def test_wrappers_cover_every_reference_and_are_removed():
    originals = {(m, name): value for m in tracing.MODULES for name, value in vars(m).items()}
    traced = [getattr(m, attr, None) for targets in tracing.LAYERS.values() for m, attr in targets]
    expected = {f"{m.__name__}.{name}" for (m, name), value in originals.items()
                if any(value is fn for fn in traced if fn is not None)}
    matmul = fock.TruncatedOperator.__matmul__
    tracer = tracing.Tracer()
    with tracer.installed():
        assert set(tracing.installed_wrappers()) == expected | {"TruncatedOperator.__matmul__"}
        states.bg_state_ordered(1.0, 8)
    assert tracing.installed_wrappers() == []
    assert fock.TruncatedOperator.__matmul__ is matmul
    assert all(getattr(m, name) is value for (m, name), value in originals.items())
    assert tracer.pass_metrics()["states.ordered.calls"] == 1


def test_traced_runs_time_untraced_passes_without_wrappers(runs):
    # the harness refuses to time a pass while any wrapper is installed, so a
    # traced run that completes proves every untraced pass ran unwrapped
    for workload in WORKLOADS:
        report, result = runs[workload, 1]
        assert result["correct"] and report["traced_passes"] == report["passes"] >= 1
    assert result["metrics"]["cli.run.calls"]["value"] == len(workloads.CLI_COMMANDS)


def test_self_time_excludes_child_spans(runs):
    report, result = runs["ladder", 1]
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["lattice.propagate.calls"] == 0 and m["lattice.propagate.self_ms"] == 0
    layers = sum(v for name, v in m.items() if name.endswith(".self_ms"))
    assert all(v >= 0 for name, v in m.items() if name.endswith(".self_ms"))
    assert layers <= m["trace.pass_ms"]


def test_ladder_fail_share_counts_the_criterion_3_misses(runs):
    report, result = runs["ladder", 0]
    misses = sum(algebra.verify_bch(p, 64, edge_exclude=16) > 1e-9
                 for p in workloads.criterion_3_params())
    assert report["fail_share"] == misses / report["ops_per_pass"]
    assert result["failed"] == misses * report["passes"]
    assert result["metrics"]["ok_share"]["value"] == 1 - report["fail_share"]


def _inputs(workload, seed, tmp_path):
    return [(op.name, op.args) for op in workloads.build(workload, seed, tmp_path)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_the_inputs_and_nothing_else(workload, tmp_path):
    first = _inputs(workload, 1, tmp_path)
    assert _inputs(workload, 1, tmp_path) == first
    other = _inputs(workload, 2, tmp_path)
    assert other != first
    assert sorted(name for name, _ in other) == sorted(name for name, _ in first)
    if workload != "cli":  # cli permutes the commands; the others redraw parameters
        assert [name for name, _ in other] == [name for name, _ in first]
        fixed = [args for name, args in first if name.startswith("verify_bch")]
        assert [args for name, args in other if name.startswith("verify_bch")] == fixed


def test_tail_percentile_leaves_ten_passes_beyond():
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    times = [float(t) for t in range(40)]
    assert tail(times) == (75.0, 29.0)
    assert sum(t > 29.0 for t in times) == 10
