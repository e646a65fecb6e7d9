"""What the benchmark ran on, recorded as found and never changed.

The BLAS thread count is asked of each OpenBLAS library loaded into the
process; ``OPENBLAS_*``/``OMP_*``/``MKL_*`` variables are copied as they
are, so a run under a pinned or a default environment says which it was.
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np
import scipy

BLAS_ENV_PREFIXES = ("OPENBLAS_", "OMP_", "MKL_", "GOTO")
_THREAD_SYMBOLS = tuple(
    f"{prefix}openblas_get_num_threads{suffix}"
    for prefix in ("scipy_", "") for suffix in ("64_", "")
)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_build():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def _blas_threads():
    """{library file: thread count} for every loaded OpenBLAS."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def describe():
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(),
        "blas_threads": _blas_threads(),
        "blas_env": {k: v for k, v in sorted(os.environ.items())
                     if k.startswith(BLAS_ENV_PREFIXES)},
    }
