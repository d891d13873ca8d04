"""Run NumPy's bundled OpenBLAS on one thread in every simulator process.

Every BLAS call the simulator makes is one CTA's tile op (a WGMMA payload,
or one slice of codegen's stacked ``np.matmul``), far too small for BLAS
threading to pay.  With OpenBLAS's default of one thread per CPU, a
128x256 @ 256x64 f32 tile matmul on a 2-CPU host takes milliseconds instead
of ~0.06 ms, and small launches are dominated by the thread hand-off.

:func:`pin_single_thread` (called once per process by ``Device.__init__``)
sets the mapped OpenBLAS to one thread through ``ctypes``.  Worker-pool
processes fork after the device exists, so they inherit the setting.  An
explicit ``OPENBLAS_NUM_THREADS`` / ``GOTO_NUM_THREADS`` /
``OMP_NUM_THREADS`` is honoured (the library is left alone), and with any
other BLAS, or without ``/proc/self/maps``, the pin is a no-op.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import os
from pathlib import Path

logger = logging.getLogger(__name__)

#: OpenBLAS's own variables: when one is set, the user chose the count
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

_pinned: bool | None = None  # the first pin_single_thread() result


def _mapped_blas() -> str | None:
    """Path of the BLAS library mapped into this process, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "blas" in line.rsplit("/", 1)[-1].lower()})
    return libs[0] if libs else None


@functools.lru_cache(maxsize=None)
def _thread_functions(path: str):
    """``(get_num_threads, set_num_threads)`` of an OpenBLAS, else ``None``."""
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def blas_info() -> dict:
    """The mapped BLAS library's file name and its current thread count."""
    path = _mapped_blas()
    functions = _thread_functions(path) if path else None
    return {"library": Path(path).name if path else None,
            "threads": functions[0]() if functions else None}


def pin_single_thread() -> bool:
    """Set the mapped OpenBLAS to one thread; ``True`` if it is pinned.

    Idempotent: only the first call in a process acts (and logs).
    """
    global _pinned
    if _pinned is None:
        _pinned = _pin()
    return _pinned


def _pin() -> bool:
    explicit = [f"{var}={os.environ[var]}" for var in THREAD_VARS
                if os.environ.get(var)]
    if explicit:
        logger.info("BLAS threads left alone: %s is set", ", ".join(explicit))
        return False
    path = _mapped_blas()
    functions = _thread_functions(path) if path else None
    if functions is None:
        logger.info("BLAS threads left alone: no OpenBLAS mapped (found %s)",
                    Path(path).name if path else "no BLAS library")
        return False
    get, put = functions
    before = get()
    put(1)
    logger.info("BLAS threads pinned: %s from %d to %d", Path(path).name,
                before, get())
    return True
