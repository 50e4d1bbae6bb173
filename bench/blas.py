"""Pin the bundled OpenBLAS copies to one thread and record the environment.

numpy and scipy each ship their own OpenBLAS: numpy's
``libscipy_openblas64_`` (64-bit integers, symbols suffixed ``64_``)
and scipy's ``libscipy_openblas``.  ``pin()`` must run before numpy is
imported, because OpenBLAS reads ``OPENBLAS_NUM_THREADS`` when it is
loaded.  ``environment()`` runs after the imports: it asks each loaded
copy for its thread count through ctypes and returns the record that
goes with every result.  Unpinned numbers do not repeat: on a 2-core
host one D = 56 step cost 18.0 ms with default threads and 2.7 ms with
one.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# library file stem -> (thread-count getter, config-string getter)
COPIES = {
    "libscipy_openblas64_": ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    "libscipy_openblas": ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
}


def pin() -> None:
    """Ask every BLAS the process may load for a single thread."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _loaded_libraries() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process (Linux)."""
    with open("/proc/self/maps") as fh:
        return sorted(set(re.findall(r"(/\S*openblas\S*\.so[\w.]*)", fh.read())))


def _copy_name(path: str) -> str | None:
    base = os.path.basename(path)
    return next((s for s in COPIES if base.startswith((s + "-", s + "."))), None)


def environment() -> dict:
    """Versions, CPU count and per-copy BLAS thread counts of this process.

    Call after numpy and scipy.linalg are imported.  A copy that is not
    loaded is recorded with threads None.
    """
    import numpy
    import scipy

    threads = dict.fromkeys(COPIES)
    versions = dict.fromkeys(COPIES)
    for path in _loaded_libraries():
        stem = _copy_name(path)
        if stem is None:
            continue
        lib = ctypes.CDLL(path)
        get_threads, get_config = (getattr(lib, name) for name in COPIES[stem])
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        threads[stem] = int(get_threads())
        m = re.search(r"OpenBLAS\s+(\S+)", get_config().decode(errors="replace"))
        versions[stem] = m.group(1) if m else None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": versions,
        "blas_threads": threads,
    }


def check_pinned(env: dict) -> None:
    """Refuse to time when any loaded BLAS copy runs more than one thread."""
    over = {k: v for k, v in env["blas_threads"].items() if v is not None and v > 1}
    if over:
        raise RuntimeError(f"BLAS is not pinned to one thread: {over}")
