"""BLAS threads for the processes that run a share of a fit.

OpenBLAS starts one busy-waiting thread per core in every process that loads
it.  A process the library starts only to run a share of a fit — a
``repro worker`` or an ``shm`` pool worker — runs next to its siblings, so N
such processes on an N-core host would run N * N threads fighting over N
cores.  :func:`limit_blas_threads` pins OpenBLAS in such a process to fewer
threads, so parallelism comes from the number of processes, the convention
Dask and Ray use for their workers.  A ``repro worker`` cannot see its
siblings and pins to one thread; the ``shm`` coordinator knows its shard
count and gives each worker :func:`threads_per_process` threads, an even
share of the cores.  Neither is ever called in the caller's own process,
whose in-process fit keeps every BLAS thread.

The pin does not change any result: OpenBLAS splits a GEMM across threads by
rows and columns of the output, never along the summed dimension, so every
output element is summed in the same order whatever the thread count.

Dependency-free: the loaded OpenBLAS is found through ``/proc/self/maps`` and
called through :mod:`ctypes`.  Where that file cannot be read (not Linux), or
with no OpenBLAS (MKL, Accelerate, Windows), it does nothing; an operator who
set ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``GOTO_NUM_THREADS``
keeps that setting.  Either way the decision is logged at debug level on
``repro.utils.blas``.
"""

from __future__ import annotations

import ctypes
import os
from typing import Dict, List, Tuple

from repro.utils.log import get_logger

__all__ = [
    "THREAD_ENV_VARS",
    "blas_threads",
    "limit_blas_threads",
    "threads_per_process",
]

#: Environment variables through which an operator sets OpenBLAS's threads.
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")

#: Thread-control entry points, first match wins: numpy's bundled
#: ``scipy_openblas`` (ILP64, then LP64), then a system OpenBLAS.
_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)

_logger = get_logger(__name__)


def _mapped_openblas_paths() -> List[str]:
    """OpenBLAS shared objects this process has mapped, in load order."""
    paths: List[str] = []
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                fields = line.split(maxsplit=5)
                if len(fields) < 6:
                    continue  # anonymous mapping
                path = fields[5].strip()
                if "openblas" in os.path.basename(path).lower() and path not in paths:
                    paths.append(path)
    except OSError:  # not Linux: leave BLAS threads alone
        pass
    return paths


def _openblas_libraries() -> List[Tuple[str, ctypes.CDLL]]:
    """Handles on the already-loaded OpenBLAS libraries (never loads one)."""
    libraries = []
    for path in _mapped_openblas_paths():
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # not loaded in this process
            continue
        libraries.append((path, library))
    return libraries


def _entry_point(library: ctypes.CDLL, verb: str):
    for template in _SYMBOLS:
        function = getattr(library, template.format(verb), None)
        if function is not None:
            return function
    return None


def _thread_count(library: ctypes.CDLL) -> int:
    get = _entry_point(library, "get")
    if get is None:
        return -1
    get.argtypes, get.restype = [], ctypes.c_int
    return int(get())


def blas_threads() -> Dict[str, int]:
    """Thread count of every loaded OpenBLAS, keyed by library path."""
    return {path: _thread_count(library) for path, library in _openblas_libraries()}


def threads_per_process(n_processes: int) -> int:
    """BLAS threads for each of ``n_processes`` siblings sharing this host's cores."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        cores = os.cpu_count() or 1
    return max(1, cores // max(1, int(n_processes)))


def limit_blas_threads(n: int = 1) -> Dict[str, int]:
    """Pin every loaded OpenBLAS to ``n`` threads; never raises.

    Returns the libraries it pinned, mapped to their previous thread count
    (-1 where the library cannot report it); empty when it changed nothing
    (an operator-set thread variable, or no OpenBLAS in this process).
    """
    overrides = [name for name in THREAD_ENV_VARS if os.environ.get(name)]
    if overrides:
        _logger.debug(
            "BLAS threads left as set by %s=%s",
            overrides[0], os.environ[overrides[0]],
        )
        return {}
    pinned = {}
    for path, library in _openblas_libraries():
        set_threads = _entry_point(library, "set")
        if set_threads is None:
            continue
        pinned[path] = _thread_count(library)
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(int(n))
    if pinned:
        _logger.debug("pinned OpenBLAS to %d thread(s), was %s", n, pinned)
    else:
        _logger.debug("no OpenBLAS loaded; BLAS threads left unchanged")
    return pinned
