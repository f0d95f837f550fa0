"""Machine record attached to every benchmark result.

Numbers from different machines must never be compared silently, so each
result carries the CPU, core count, cache sizes and the numeric stack that
produced it, including the BLAS thread count actually in effect.
"""

import ctypes
import os
import platform
import sys
from pathlib import Path

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
_OPENBLAS_PREFIXES = ("scipy_openblas_", "openblas_")
_OPENBLAS_SUFFIXES = ("64_", "")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _cache_sizes() -> dict:
    """Sizes of the unified L2 and L3 caches seen by cpu0, as the kernel reports them."""
    sizes = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind == "Unified":
            sizes[f"l{level}"] = size
    return sizes


def _openblas_library():
    """The OpenBLAS shared object numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _openblas_symbol(lib, stem):
    for prefix in _OPENBLAS_PREFIXES:
        for suffix in _OPENBLAS_SUFFIXES:
            fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
            if fn is not None:
                return fn
    return None


def _blas_info(np) -> dict:
    info = {"blas_env_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["blas_name"] = blas.get("name")
        info["blas_version"] = blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    lib = _openblas_library()
    if lib is None:
        return info
    get_config = _openblas_symbol(lib, "get_config")
    if get_config is not None:
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        info["openblas_config"] = get_config().decode("ascii", "replace").strip()
    get_threads = _openblas_symbol(lib, "get_num_threads")
    if get_threads is not None:
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        info["blas_threads"] = int(get_threads())
    return info


def machine_record() -> dict:
    """CPU model, nproc, L2/L3 sizes, Python, numpy and OpenBLAS versions."""
    import numpy as np

    record = {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    record.update(_cache_sizes())
    record.update(_blas_info(np))
    return record
