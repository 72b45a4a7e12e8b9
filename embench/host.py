"""Host record stamped on every report, and the BLAS thread pin.

:func:`pin_blas_threads` must run before numpy is first imported: the BLAS
library reads its thread count from the environment when it loads.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource

__all__ = ["BLAS_THREADS", "pin_blas_threads", "host_record", "nproc",
           "peak_rss_mb"]

#: BLAS threads per process.  One keeps kernel timings free of BLAS
#: thread scheduling and keeps ``serve-poisson`` within ``nproc`` threads
#: (the load generator plus the one service worker).
BLAS_THREADS = 1

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas_threads() -> int:
    """Pin BLAS threads to ``min(BLAS_THREADS, nproc)``; returns it."""
    threads = min(BLAS_THREADS, nproc())
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads_in_use(np) -> int | None:
    """Ask the loaded OpenBLAS for its thread count (None if unknown)."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_record() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "cpu": _cpu_model(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get(key, "")) for key in
                         ("name", "version", "openblas configuration")
                         ).strip(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads_in_use(np),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
