"""Zero-copy shared-memory shard executor (the ``"shm"`` backend).

The single-host parallel backend, and the ``Sharded*`` estimators' default.
``"process"``, ``"multiprocess"`` and ``"processes"`` are aliases of it.
Pickling every shard's codes into a fresh worker pool per executor would pay
a copy and a full pool spawn per fit; this backend removes both costs:

* The ``(n, d)`` code matrix is written once, shard-permuted and contiguous,
  into one :class:`multiprocessing.shared_memory.SharedMemory` segment.
  Workers *attach* — each maps the segment and takes a read-only
  ``numpy`` view of its ``[start, stop)`` row slice — so shard data is never
  serialised and never copied into worker heaps.
* Worker pools are *resident*: when an executor closes, its (detached)
  single-worker pools return to a module-level free list and the next
  executor reuses them, so repeated fits — the restarts of one experiment
  trial — skip the pool spawn entirely.  ``shutdown()`` reclaims the idle
  pools when a test (or an interpreter that dislikes stray children) wants a
  clean slate.
* Each worker runs OpenBLAS on an even share of the host's cores
  (:func:`repro.utils.blas.threads_per_process`, set on attach): one thread
  each with one shard per core, so parallelism comes from the number of
  shards, not from BLAS threads fighting over the same cores.

Segment lifecycle is belt-and-braces:

* The executor owns its segment by name (``repro_shm_<pid>_<nonce>``) and
  unlinks it in ``close()`` — which the estimators always call — so a normal
  fit leaves nothing in ``/dev/shm``.
* An exit hook unlinks any segment still live at process exit (e.g. an
  executor the caller forgot to close) and shuts the idle pools down.  It is
  a :mod:`multiprocessing` finalizer rather than an ``atexit`` hook, so it
  also runs when the coordinator is itself a worker process (a trial of
  ``map_trials(n_jobs>1)``), where it must run before the exiting worker
  joins its children.  A forked child starts with no pools, no segments
  and no hook of its own: the ones it inherits belong to its parent.
* The segment is refused, with a :class:`TransportError`, when ``/dev/shm``
  has too little free space for it: on a full tmpfs the first write would
  kill the coordinator with ``SIGBUS`` instead.
* Workers *unregister* their attachment from :mod:`multiprocessing`'s
  ``resource_tracker`` (they are borrowers, not owners), while the creating
  process keeps its registration.  That registration is the dead-coordinator
  safety net: if the coordinator dies without running ``close()`` — even on
  ``SIGKILL`` — its resource-tracker process survives long enough to unlink
  the segment, so crashes cannot leak ``/dev/shm`` either.

Transport failures surface as
:class:`~repro.distributed.transport.TransportError`, matching the other
backends; a broken pool is shut down rather than returned to the free list,
and an idle pool whose worker died on the free list is shut down and skipped
when the next executor acquires its pools.
"""

from __future__ import annotations

import gc
import os
import secrets
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_start_method, resource_tracker, shared_memory, util
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.core.sync import ShardWorker
from repro.distributed.transport import (
    TransportError,
    TransportExecutor,
    close_all,
    register_backend,
)
from repro.utils.blas import limit_blas_threads, threads_per_process

#: Hard cap on worker processes: one resident pool per shard, so a mistaken
#: shard spec (e.g. an assignment vector with one object per shard) must not
#: fork thousands of processes.
MAX_SHM_SHARDS = 64

#: Idle pools kept per start-method; extras are shut down on release.
MAX_RESIDENT_POOLS = 32

#: Seconds to wait for a worker to acknowledge a detach before the pool is
#: judged wedged and discarded instead of reused.
DETACH_TIMEOUT = 30.0

#: Where POSIX shared memory lives on Linux; its free space bounds a segment.
SHM_DIR = "/dev/shm"

__all__ = [
    "MAX_SHM_SHARDS",
    "ShmTransport",
    "ShmExecutor",
    "shutdown",
    "resident_pool_size",
]


# ---------------------------------------------------------------------- #
# Worker-process side: attach / detach / dispatch
# ---------------------------------------------------------------------- #
_WORKER: Optional[ShardWorker] = None
_SEGMENT: Optional[shared_memory.SharedMemory] = None
_WATCHDOG_STARTED = False

#: Seconds between the worker watchdog's parent-liveness checks.
WATCHDOG_INTERVAL = 1.0


def _watch_parent() -> None:  # pragma: no cover - runs in worker processes
    """Exit (and reclaim the segment) if the coordinator process dies.

    A pool worker inherits the call-queue pipe's *write* end along with the
    read end, so losing the coordinator never surfaces as EOF — an orphaned
    worker would block forever, keeping the coordinator-side resource
    tracker (and therefore the segment) alive.  Reparenting is the reliable
    signal: when ``getppid`` changes, unlink whatever segment is attached
    (racing unlinks are tolerated) and exit hard.
    """
    parent = os.getppid()
    while True:
        time.sleep(WATCHDOG_INTERVAL)
        if os.getppid() != parent:
            segment = _SEGMENT
            if segment is not None:
                try:
                    segment.unlink()
                except Exception:
                    pass
            os._exit(1)


def _ensure_watchdog() -> None:
    global _WATCHDOG_STARTED
    if not _WATCHDOG_STARTED:
        threading.Thread(
            target=_watch_parent, name="repro-shm-watchdog", daemon=True
        ).start()
        _WATCHDOG_STARTED = True


def _worker_detach() -> None:
    """Drop the resident shard worker and unmap the segment."""
    global _WORKER, _SEGMENT
    _WORKER = None
    segment, _SEGMENT = _SEGMENT, None
    if segment is None:
        return
    try:
        segment.close()
    except BufferError:  # a view survived in a reference cycle; collect it
        gc.collect()
        try:
            segment.close()
        except BufferError:  # pragma: no cover - defensive
            pass


def _no_register(name, rtype) -> None:
    """Stand-in for ``resource_tracker.register`` during a borrowed attach."""


def _shm_call(method: str, *args):
    """Dispatch one coordinator request inside the worker process."""
    global _WORKER, _SEGMENT
    if method == "attach":
        name, start, stop, d, n_categories, engine_kind, blas_threads = args
        _ensure_watchdog()
        _worker_detach()
        # Re-pinned on every attach: a resident pool outlives the executor
        # (and the shard count) it was started for.
        limit_blas_threads(blas_threads)
        # Attach without resource-tracker registration: this process only
        # borrows a mapping.  Registering here (as 3.10-3.12 attach does
        # unconditionally) would either unlink the segment when this worker
        # exits (own tracker) or cancel the coordinator's ownership record
        # (tracker shared across fork — the tracker cache is keyed by name
        # alone).  Python 3.13 spells this ``track=False``; emulate it.
        register = resource_tracker.register
        resource_tracker.register = _no_register
        try:
            segment = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = register
        _SEGMENT = segment
        n_total = segment.size // (8 * d)
        view = np.ndarray((n_total, d), dtype=np.int64, buffer=segment.buf)[start:stop]
        view.flags.writeable = False
        _WORKER = ShardWorker(view, list(n_categories), engine=engine_kind)
        return int(stop - start)
    if method == "detach":
        _worker_detach()
        return True
    if _WORKER is None:
        raise RuntimeError("shm worker has no attached shard")
    return getattr(_WORKER, method)(*args)


# ---------------------------------------------------------------------- #
# Resident pool free list (coordinator side)
# ---------------------------------------------------------------------- #
_FREE_POOLS: Dict[str, Deque[ProcessPoolExecutor]] = {}


def _context_key(mp_context) -> str:
    if mp_context is None:
        return get_start_method(allow_none=False)
    return mp_context.get_start_method()


def _pool_is_broken(pool: ProcessPoolExecutor) -> bool:
    """Whether an idle pool lost its worker (killed, or died on its own)."""
    # Private ProcessPoolExecutor fields, checked on Python 3.10 and 3.12.
    processes = getattr(pool, "_processes", None) or {}
    return bool(getattr(pool, "_broken", False)) or not all(
        worker.is_alive() for worker in processes.values()
    )


def _acquire_pool(key: str, mp_context) -> ProcessPoolExecutor:
    free = _FREE_POOLS.get(key)
    while free:
        pool = free.popleft()
        if not _pool_is_broken(pool):
            return pool
        pool.shutdown(wait=False, cancel_futures=True)
    return ProcessPoolExecutor(max_workers=1, mp_context=mp_context)


def _release_pool(key: str, pool: ProcessPoolExecutor) -> None:
    free = _FREE_POOLS.setdefault(key, deque())
    if len(free) < MAX_RESIDENT_POOLS:
        free.append(pool)
    else:
        pool.shutdown(wait=False, cancel_futures=True)


def resident_pool_size() -> int:
    """Number of idle worker pools currently kept for reuse."""
    return sum(len(free) for free in _FREE_POOLS.values())


def shutdown() -> None:
    """Shut down every idle resident worker pool (live executors keep theirs)."""
    for free in _FREE_POOLS.values():
        while free:
            free.popleft().shutdown(wait=True, cancel_futures=True)


# ---------------------------------------------------------------------- #
# Segment ownership + exit safety net
# ---------------------------------------------------------------------- #
_LIVE_SEGMENTS: set = set()
_EXIT_HOOK_REGISTERED = False


def _exit_cleanup() -> None:  # pragma: no cover - runs at process exit
    for segment in list(_LIVE_SEGMENTS):
        segment.unlink()
    shutdown()


def _ensure_exit_hook() -> None:
    global _EXIT_HOOK_REGISTERED
    if not _EXIT_HOOK_REGISTERED:
        # Priority >= 0 runs in multiprocessing's exit function before it
        # joins the live children, which idle resident workers never leave;
        # above 10, it also runs before the pools' call queues close their
        # feeder threads, which carry the workers' shutdown sentinels.
        util.Finalize(None, _exit_cleanup, exitpriority=100)
        _EXIT_HOOK_REGISTERED = True


def _forget_parent_state() -> None:
    """In a forked child: the inherited pools, segments and hook are the parent's."""
    global _EXIT_HOOK_REGISTERED
    _FREE_POOLS.clear()
    _LIVE_SEGMENTS.clear()
    _EXIT_HOOK_REGISTERED = False


if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_forget_parent_state)


def _check_capacity(nbytes: int) -> None:
    """Refuse a segment that ``/dev/shm`` has no room for."""
    try:
        stats = os.statvfs(SHM_DIR)
    except OSError:  # no such directory here: nothing to check against
        return
    free = stats.f_bavail * stats.f_frsize
    if nbytes > free:
        raise TransportError(
            f"the shm backend needs a {nbytes}-byte shared-memory segment but "
            f"{SHM_DIR} has only {free} bytes free; enlarge it (for a container, "
            "e.g. docker run --shm-size) or use backend='serial' or backend='tcp'"
        )


class _Segment:
    """One named shared-memory segment, owned (and unlinked) by its creator."""

    def __init__(self, nbytes: int) -> None:
        nbytes = max(int(nbytes), 8)
        _check_capacity(nbytes)
        for _ in range(8):
            name = f"repro_shm_{os.getpid()}_{secrets.token_hex(4)}"
            try:
                self._shm = shared_memory.SharedMemory(
                    name=name, create=True, size=nbytes
                )
                break
            except FileExistsError:  # pragma: no cover - nonce collision
                continue
        else:  # pragma: no cover - eight collisions in a row
            raise TransportError("could not allocate a shared-memory segment name")
        self.name = name
        _LIVE_SEGMENTS.add(self)

    @property
    def buf(self):
        return self._shm.buf

    def unlink(self) -> None:
        shm, self._shm = self._shm, None
        if shm is None:
            return
        _LIVE_SEGMENTS.discard(self)
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a coordinator view survived
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass


# ---------------------------------------------------------------------- #
# Transport + executor
# ---------------------------------------------------------------------- #
class ShmTransport:
    """One shard's channel to a (resident) single-worker pool.

    ``close()`` detaches the worker from the segment and, if the pool is
    healthy, returns it to the module free list for the next executor; a
    broken or wedged pool is shut down instead.
    """

    def __init__(self, mp_context=None) -> None:
        self._key = _context_key(mp_context)
        self._pool: Optional[ProcessPoolExecutor] = _acquire_pool(self._key, mp_context)
        self._futures: deque = deque()
        self._broken = False

    def submit(self, method: str, args: tuple) -> None:
        if self._pool is None:
            raise TransportError(f"shm transport is closed; cannot run {method!r}")
        try:
            self._futures.append(self._pool.submit(_shm_call, method, *args))
        except (BrokenProcessPool, RuntimeError) as exc:
            self._broken = True
            raise TransportError(f"shm shard worker is gone: {exc}") from exc

    def result(self):
        try:
            return self._futures.popleft().result()
        except BrokenProcessPool as exc:
            self._broken = True
            raise TransportError(
                "shm shard worker died mid-operation (BrokenProcessPool); "
                "its shard's state is lost — re-create the executor to refit"
            ) from exc

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self._futures.clear()
        if self._broken:
            pool.shutdown(wait=False, cancel_futures=True)
            return
        try:
            pool.submit(_shm_call, "detach").result(timeout=DETACH_TIMEOUT)
        except Exception:
            pool.shutdown(wait=False, cancel_futures=True)
            return
        _release_pool(self._key, pool)


@register_backend(
    "shm",
    aliases=("sharedmem", "shared-memory", "process", "multiprocess", "processes"),
    description="Zero-copy shared-memory segment + resident single-host worker pools",
    options=("mp_context",),
)
class ShmExecutor(TransportExecutor):
    """Shards served from one shared-memory segment by resident worker pools.

    Construction is transactional: the segment is created and filled, every
    worker attaches and reports its slice length, and any failure unwinds —
    transports closed, segment unlinked — before the error propagates.
    ``close()`` is idempotent: workers detach (their pools return to the
    resident free list) and the segment is unlinked, so no fit leaves a
    segment in ``/dev/shm``.
    """

    def __init__(
        self,
        codes: np.ndarray,
        n_categories: Sequence[int],
        shard_indices: Sequence[np.ndarray],
        engine: str = "auto",
        mp_context=None,
    ) -> None:
        if len(shard_indices) > MAX_SHM_SHARDS:
            raise ValueError(
                f"{len(shard_indices)} shards would keep as many resident worker "
                f"pools (> {MAX_SHM_SHARDS}); use fewer shards, or "
                "backend='serial' for fine-grained shard layouts"
            )
        codes = np.asarray(codes, dtype=np.int64)
        n, d = codes.shape
        if d == 0:
            raise ValueError("shm backend requires at least one feature column")
        _ensure_exit_hook()
        stops = np.cumsum([idx.size for idx in shard_indices])
        starts = stops - np.asarray([idx.size for idx in shard_indices])
        segment: Optional[_Segment] = None
        transports: List[ShmTransport] = []
        try:
            segment = _Segment(codes.nbytes)
            # One memcpy, shard-permuted: shard j owns the contiguous row
            # slice [starts[j], stops[j]) of the segment.
            view = np.ndarray((n, d), dtype=np.int64, buffer=segment.buf)
            view[:] = codes[np.concatenate(shard_indices)]
            del view  # release the exported buffer before any unlink
            for _ in shard_indices:
                transports.append(ShmTransport(mp_context))
            blas_threads = threads_per_process(len(shard_indices))
            for transport, start, stop in zip(transports, starts, stops):
                transport.submit(
                    "attach",
                    (segment.name, int(start), int(stop), d, list(n_categories),
                     engine, blas_threads),
                )
            # Force every attach now: a worker that cannot map the segment
            # must fail the constructor, not the first sweep.
            for transport, idx in zip(transports, shard_indices):
                if transport.result() != idx.size:
                    raise TransportError("worker reports a different shard size")
        except BaseException:
            close_all(transports)
            if segment is not None:
                segment.unlink()
            raise
        self._segment = segment
        super().__init__(transports, shard_indices, n)

    def close(self) -> None:
        super().close()
        segment, self._segment = getattr(self, "_segment", None), None
        if segment is not None:
            segment.unlink()
