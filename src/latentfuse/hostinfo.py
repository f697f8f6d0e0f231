"""Host facts that size nnkernel's map: how many threads may run at once.

cpu_count is the number of CPUs this process may run on. The OpenBLAS
that numpy loaded is found in this process's memory maps and reached
through ctypes: blas_threads reads its thread count and set_blas_threads
sets it, through the library's own API. nnkernel sets one thread when it
is imported, so OPENBLAS_NUM_THREADS does not decide the count.
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
def _openblas():
    """OpenBLAS's (get, set) num-threads functions, or None without OpenBLAS."""
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
            get = getattr(lib, name, None)
            put = getattr(lib, name.replace("_get_", "_set_"), None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS runs a call on, or None when unknown."""
    fns = _openblas()
    return None if fns is None else int(fns[0]())


def set_blas_threads(n: int) -> None:
    """Run every later OpenBLAS call on n threads; nothing without OpenBLAS."""
    if (fns := _openblas()) is not None:
        fns[1](n)
