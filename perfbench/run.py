"""Run one workload of the focklat benchmark and print its metrics.

    python3 perfbench/run.py --workload tridiag --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the library is imported from that
checkout's ``src`` directory.  BLAS and OpenMP thread counts are pinned to 1
before numpy is imported.  The output is a ``report`` line (environment
fingerprint, pass count, tail percentile, fail share, headroom digits, every
failing op) followed, as the last line, by the result object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
"""

import argparse
import json
import os
import sys
import tempfile
import time
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import BLAS_THREAD_VARS, DEFAULT_SEED, WORKLOADS  # noqa: E402  (imports no numpy)


def _pin_threads_and_import():
    for var in BLAS_THREAD_VARS:  # before the first numpy import, just below
        os.environ[var] = "1"
    import focklat

    if Path(focklat.__file__).resolve().parent != ROOT / "src" / "focklat":
        raise SystemExit(f"focklat was imported from {focklat.__file__}, not {ROOT / 'src'}")
    return import_module("perfbench.harness"), import_module("perfbench.workloads")


def main(argv=None):
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time cold import plus input generation, print it and exit")
    args = parser.parse_args(argv)

    harness, workloads = _pin_threads_and_import()
    if args.setup_probe:
        workloads.build(args.workload, args.seed, ROOT)
        print(time.perf_counter() - start)
        return 0

    with tempfile.TemporaryDirectory(prefix=".out-", dir=ROOT / "perfbench") as out_dir:
        result, report = harness.run_workload(args.workload, args.seed, args.seconds,
                                              bool(args.trace), out_dir)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
