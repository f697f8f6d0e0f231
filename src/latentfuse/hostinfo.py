"""Host facts that size nnkernel's map: how many threads may run at once.

cpu_count is the number of CPUs this process may run on. blas_threads is
the thread count of the OpenBLAS that numpy loaded, read from the library
itself: the shared object is found in this process's memory maps and
asked through ctypes, so the count is what OpenBLAS settled on at load
time (OPENBLAS_NUM_THREADS, or one thread per CPU by default), and it
follows later changes made through the library's own API.
"""

from __future__ import annotations

import ctypes
import functools
import os

_THREADS = ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads")


def cpu_count() -> int:
    """CPUs in this process's affinity mask, else every CPU of the host."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@functools.cache
def _thread_getter():
    """OpenBLAS's get-num-threads function, or None when no OpenBLAS is loaded."""
    import numpy  # noqa: F401  (loads the BLAS whose maps are read below)

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if p.startswith("/") and ".so" in p):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _THREADS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn
    return None


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS runs a call on, or None when unknown."""
    getter = _thread_getter()
    return None if getter is None else int(getter())
