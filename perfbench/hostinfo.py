"""Host and build record printed with every benchmark result.

Results depend on the BLAS kernel OpenBLAS selects at load time, so the
record names the library, its version, the selected core and the thread
count, next to the CPU, the interpreter and the source revision.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
from pathlib import Path

import numpy as np

_CORENAME = ("openblas_get_corename", "scipy_openblas_get_corename64_",
             "scipy_openblas_get_corename")
_THREADS = ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loaded_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS shared object numpy loaded, found in this process's maps."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if p.startswith("/") and ".so" in p):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _call(lib: ctypes.CDLL | None, names: tuple[str, ...], restype):
    for name in names:
        fn = getattr(lib, name, None) if lib is not None else None
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            value = fn()
            return value.decode() if isinstance(value, bytes) else value
    return None


def blas_info() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    lib = _loaded_openblas()
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration"),
        "corename": _call(lib, _CORENAME, ctypes.c_char_p),
        "threads": _call(lib, _THREADS, ctypes.c_int),
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def git_sha(root: Path) -> str | None:
    """HEAD's commit read from the .git directory, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(src: Path) -> str:
    """Digest of every file under src, so a checkout without git is identified too."""
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def record(root: Path, src: Path) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_sha": git_sha(root),
        "src_sha256": source_sha256(src),
        "argv": sys.argv[1:],
    }
