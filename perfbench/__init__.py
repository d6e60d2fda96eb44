"""Benchmark of the focklat library; ``perfbench/run.py`` is the entry point.

This module must not import numpy: the entry point reads the names below to
pin the thread counts before numpy is first imported.
"""

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("tridiag", "ladder", "cli")
DEFAULT_SEED = 20240811
