"""BLAS threads and the block workers of the in-process kernels.

Two kinds of parallelism share a process's cores: OpenBLAS's own threads
inside a product, and the block workers of the packed engine's row-blocked
kernels (:func:`run_in_threads`; the fused sweep and CAME's Hamming
distances), which run NumPy passes that release the GIL.  Both are
sized by :func:`cpu_share`, the cores this process may keep busy.

OpenBLAS starts one busy-waiting thread per core in every process that loads
it.  A process the library starts only to run a share of a fit — a
``repro worker`` or a ``map_trials`` trial process — runs next to its
siblings, so N such processes on an N-core host would run N * N threads
fighting over N cores.  :func:`limit_blas_threads` pins OpenBLAS in such a
process to fewer threads, so parallelism comes from the number of
processes, the convention Dask and Ray use for their workers.  A
``repro worker`` cannot see its siblings and pins to one thread;
``map_trials`` knows its worker count and gives each trial process
:func:`threads_per_process` threads, an even share of the cores.  The
pinned count is also that process's :func:`cpu_share`, so a
``repro worker`` runs its kernels on one thread.

The caller's own process is never pinned for good.  While two or more block
workers run, :func:`run_in_threads` holds OpenBLAS at one thread per worker
(:func:`one_blas_thread`) and then gives the caller's count back, so block
workers and BLAS threads never oversubscribe the cores.

Neither count changes any result: OpenBLAS splits a GEMM across threads by
rows and columns of the output, never along the summed dimension, so every
output element is summed in the same order whatever the thread count, and a
block worker computes whole rows, each exactly as a single thread would.

Dependency-free: the loaded OpenBLAS is found through ``/proc/self/maps`` and
called through :mod:`ctypes`.  Where that file cannot be read (not Linux), or
with no OpenBLAS (MKL, Accelerate, Windows), nothing is pinned; an operator
who set ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``GOTO_NUM_THREADS`` keeps that setting, and it is also the process's
:func:`cpu_share`.  Either way the decision is logged at debug level on
``repro.utils.blas``.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.utils.log import get_logger

__all__ = [
    "THREAD_ENV_VARS",
    "blas_threads",
    "cpu_share",
    "limit_blas_threads",
    "one_blas_thread",
    "run_in_threads",
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

#: ``(path, get, set)`` thread controls of the loaded OpenBLAS libraries,
#: found once and refreshed by :func:`blas_threads`/:func:`limit_blas_threads`
#: (scanning ``/proc/self/maps`` costs about a millisecond).
_controls: Optional[List[Tuple[str, Callable, Callable]]] = None

#: The ``n`` of this process's last :func:`limit_blas_threads` call.
_pinned_share: Optional[int] = None

#: :func:`one_blas_thread` nesting: how many holders, and the counts to restore.
_hold_lock = threading.Lock()
_holders = 0
_held_counts: List[Tuple[Callable, int]] = []


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


def _entry_point(library: ctypes.CDLL, verb: str):
    for template in _SYMBOLS:
        function = getattr(library, template.format(verb), None)
        if function is not None:
            return function
    return None


def _scan_controls() -> List[Tuple[str, Callable, Callable]]:
    """Thread controls of the already-loaded OpenBLAS libraries (never loads one)."""
    global _controls
    controls = []
    for path in _mapped_openblas_paths():
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # not loaded in this process
            continue
        get, set_threads = _entry_point(library, "get"), _entry_point(library, "set")
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        controls.append((path, get, set_threads))
    _controls = controls
    return controls


def blas_threads() -> Dict[str, int]:
    """Thread count of every loaded OpenBLAS, keyed by library path."""
    return {path: -1 if get is None else int(get()) for path, get, _ in _scan_controls()}


def threads_per_process(n_processes: int) -> int:
    """BLAS threads for each of ``n_processes`` siblings sharing this host's cores."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        cores = os.cpu_count() or 1
    return max(1, cores // max(1, int(n_processes)))


def cpu_share() -> int:
    """Cores this process may keep busy: the count its kernels use.

    An operator-set thread variable wins, then the ``n`` of the last
    :func:`limit_blas_threads` call in this process, then every core the
    process may run on.
    """
    for name in THREAD_ENV_VARS:
        value = os.environ.get(name)
        if value:
            try:
                return max(1, int(value.split(",")[0]))
            except ValueError:
                break
    if _pinned_share is not None:
        return _pinned_share
    return threads_per_process(1)


def limit_blas_threads(n: int = 1) -> Dict[str, int]:
    """Pin every loaded OpenBLAS to ``n`` threads; never raises.

    ``n`` also becomes this process's :func:`cpu_share`.  Returns the
    libraries it pinned, mapped to their previous thread count (-1 where the
    library cannot report it); empty when it changed nothing (an
    operator-set thread variable, or no OpenBLAS in this process).
    """
    global _pinned_share
    _pinned_share = max(1, int(n))
    overrides = [name for name in THREAD_ENV_VARS if os.environ.get(name)]
    if overrides:
        _logger.debug(
            "BLAS threads left as set by %s=%s",
            overrides[0], os.environ[overrides[0]],
        )
        return {}
    pinned = {}
    for path, get, set_threads in _scan_controls():
        if set_threads is None:
            continue
        pinned[path] = -1 if get is None else int(get())
        set_threads(int(n))
    if pinned:
        _logger.debug("pinned OpenBLAS to %d thread(s), was %s", n, pinned)
    else:
        _logger.debug("no OpenBLAS loaded; BLAS threads left unchanged")
    return pinned


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Hold every loaded OpenBLAS at one thread for the enclosed block.

    Nestable and safe across threads: the first holder saves the counts and
    pins, the last one to leave restores them.  Uses the cached library
    handles, so a hold costs a few ctypes calls.
    """
    global _holders, _held_counts
    with _hold_lock:
        if _holders == 0:
            controls = _scan_controls() if _controls is None else _controls
            _held_counts = [
                (set_threads, int(get()))
                for _, get, set_threads in controls
                if get is not None and set_threads is not None
            ]
            for set_threads, _ in _held_counts:
                set_threads(1)
        _holders += 1
    try:
        yield
    finally:
        with _hold_lock:
            _holders -= 1
            if _holders == 0:
                for set_threads, count in _held_counts:
                    set_threads(count)
                _held_counts = []


def _after_fork_in_child() -> None:
    """A forked child has no holders: give back any count held at the fork."""
    global _hold_lock, _holders, _held_counts
    _hold_lock = threading.Lock()
    for set_threads, count in _held_counts:
        set_threads(count)
    _holders, _held_counts = 0, []


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def run_in_threads(work: Callable[[], None], workers: int) -> None:
    """Call ``work()`` once in each of ``workers`` threads and wait for all.

    The calling thread is one of them, so one worker starts no thread.  The
    calls share their work through state ``work`` closes over (typically
    one iterator of row blocks, which every call drains).  With two or more
    workers OpenBLAS is held at one thread (:func:`one_blas_thread`).  The
    first exception any call raised is re-raised once all have returned.
    """
    if workers <= 1:
        work()
        return
    errors: List[BaseException] = []

    def guarded() -> None:
        try:
            work()
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, daemon=True) for _ in range(workers - 1)]
    with one_blas_thread():
        for thread in threads:
            thread.start()
        guarded()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
