"""Thread budget of a benchmark process: pin BLAS threads, record the budget.

:func:`pin_blas_threads` must run before NumPy is imported anywhere in the
process, because OpenBLAS sizes its thread pool when it loads.  With the
default pool on a 2-vCPU machine the 8000x64 by 64x64 GEMM has been seen to
settle intermittently at about 18x its pinned time, so every run pins BLAS
to one thread and records what it got.
"""

from __future__ import annotations

import ctypes
import glob
import os

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads(threads: int = 1) -> None:
    """Set the BLAS thread environment (before NumPy loads)."""
    for name in _BLAS_ENV:
        os.environ[name] = str(threads)


def _openblas_handle():
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _openblas_call(handle, names, restype):
    for name in names:
        fn = getattr(handle, name, None) if handle is not None else None
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def describe(program_threads: int) -> dict:
    """The budget of this process: BLAS threads actually in effect, the
    threads the program under test starts, ``nproc``, the CPUs this process
    is allowed, and library versions.

    ``oversubscribed`` is true when BLAS threads plus program threads
    exceed ``nproc``.
    """
    import numpy
    import scipy

    handle = _openblas_handle()
    blas_threads = _openblas_call(
        handle,
        ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
         "openblas_get_num_threads"),
        ctypes.c_int,
    )
    config = _openblas_call(
        handle,
        ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"),
        ctypes.c_char_p,
    )
    try:
        blas_version = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        blas_version = None
    nproc = os.cpu_count()
    blas = int(blas_threads) if blas_threads is not None else None
    return {
        "blas_threads": blas,
        "blas_env": {name: os.environ.get(name) for name in _BLAS_ENV},
        "program_threads": int(program_threads),
        "nproc": int(nproc),
        "cpus": sorted(os.sched_getaffinity(0)),
        "oversubscribed": blas is None or blas + int(program_threads) > int(nproc),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "openblas_config": config.decode() if config else None,
    }
