"""Fault tolerance for the ``"tcp"`` shard backend.

The paper's distributed decomposition assumes a healthy fixed fleet; this
module is what turns the multi-host fit path from "works" into "survives
``kill -9``".  It rests on the fact that shard state is an exact-mergeable
:class:`~repro.engine.state.EngineState` plus the shard's current labels:

:class:`ResilientTCPExecutor` wraps every protocol call so a worker that
dies mid-fit (connection reset, EOF, timeout) triggers deterministic shard
re-placement instead of aborting the fit: the shard moves to the
least-loaded surviving host (ties broken by host index), its codes are
re-shipped in a fresh handshake, the epoch is replayed via
``begin_epoch(k, labels)`` with the shard's last known labels, and the
interrupted call is resubmitted.  Because ``mgcpl_sweep_local`` restores the
broadcast global counts before sweeping, replaying ``begin_epoch`` with the
tracked labels reproduces the worker's pre-call state *exactly* — the
recovered fit is bit-identical to the serial reference for batch MGCPL.
Reconnect attempts use the serving client's capped jittered exponential
backoff (:class:`RetryPolicy`).
:class:`~repro.distributed.transport.RemoteWorkerError` — an application
error reported over a *healthy* channel — is deliberately never retried:
replaying a deterministic failure can only fail identically.  A dead host is
detected by the call it breaks and stays out of the re-placement candidate
set for the executor's lifetime.

What is and is not bit-identical after recovery: batch MGCPL (and CAME's
Hamming assignment) replay exactly, because each call's
result is a pure function of the shard codes, the broadcast state and the
tracked labels.  Recovery timings (``recovery_seconds``, the
``BENCH_transport.json`` entries) are wall-clock observability, not state.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set

import numpy as np

from repro.distributed.rpc import TCPExecutor, TCPTransport
from repro.distributed.transport import RemoteWorkerError, TransportError, register_backend

__all__ = ["RetryPolicy", "ResilientTCPExecutor"]


# ---------------------------------------------------------------------- #
# Retry policy: the serving client's backoff shape, factored out
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter (the serving client's shape).

    ``delays()`` yields one sleep per *retry* (so ``max_retries`` bounds the
    number of reconnect attempts after the first): attempt ``a`` waits
    ``min(base_delay * 2**a, max_delay)`` scaled by a uniform jitter in
    ``[0.5, 1.0)`` so a fleet of coordinators re-probing a rebooted worker
    does not stampede it in lockstep.
    """

    max_retries: int = 2
    base_delay: float = 0.2
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay <= 0 or self.max_delay <= 0:
            raise ValueError("backoff delays must be > 0")

    def delays(self, rng: Optional[random.Random] = None) -> Iterator[float]:
        rng = random.Random() if rng is None else rng
        for attempt in range(self.max_retries):
            delay = min(self.base_delay * (2 ** attempt), self.max_delay)
            yield delay * (0.5 + 0.5 * rng.random())


# ---------------------------------------------------------------------- #
# The resilient executor (the registered "tcp" backend)
# ---------------------------------------------------------------------- #
@register_backend(
    "tcp",
    aliases=("socket", "remote", "streaming", "stream"),
    description=(
        "Fault-tolerant shards on remote `repro worker` hosts: "
        "retry-reconnect with shard re-placement"
    ),
    options=("hosts", "placement", "timeout", "max_retries"),
)
class ResilientTCPExecutor(TCPExecutor):
    """:class:`TCPExecutor` that survives worker death.

    Extra option (beyond the plain TCP executor's)
    ----------
    max_retries:
        Reconnect attempts per failed shard call beyond the first (default 2),
        spaced by :class:`RetryPolicy`'s jittered capped backoff.

    Observability: :attr:`recovery_events` (one dict per recovered shard,
    including wall-clock ``recovery_seconds``).
    """

    def __init__(
        self,
        codes: np.ndarray,
        n_categories: Sequence[int],
        shard_indices: Sequence[np.ndarray],
        engine: str = "auto",
        hosts: Optional[Sequence[str]] = None,
        placement: Optional[Sequence[int]] = None,
        timeout: Optional[float] = None,
        max_retries: int = 2,
    ) -> None:
        super().__init__(
            codes, n_categories, shard_indices, engine,
            hosts=hosts, placement=placement, timeout=timeout,
        )
        self.retry_policy = RetryPolicy(max_retries=int(max_retries))
        self.recovery_events: List[dict] = []
        # Payload bytes shipped on transports that were since replaced by a
        # recovery; keeps transport_stats() cumulative.
        self._retired_payload_bytes = 0
        self._dead_hosts: Set[int] = set()
        # Replay state: the epoch's k and each shard's last known labels are
        # all a replacement worker needs to reconstruct a failed shard
        # exactly (begin_epoch rebuilds the engine; the sweep broadcast
        # carries the global counts).
        self._n_clusters: Optional[int] = None
        self._shard_labels: List[Optional[np.ndarray]] = [None] * self.n_shards
        self._rng = random.Random()

    # -- liveness bookkeeping ------------------------------------------- #
    def _mark_dead(self, host_index: int) -> None:
        self._dead_hosts.add(host_index)

    def alive_host_indices(self) -> List[int]:
        return [h for h in range(len(self.hosts)) if h not in self._dead_hosts]

    # -- the wrapped protocol map --------------------------------------- #
    def _map(self, method: str, per_shard_args=None, common: tuple = ()) -> list:
        if not self._transports:
            raise TransportError(f"executor is closed; cannot run {method!r}")
        if per_shard_args is None:
            per_shard_args = [() for _ in self.shard_indices]
        calls = [(*args, *common) for args in per_shard_args]
        failures: Dict[int, TransportError] = {}
        for i, (transport, call) in enumerate(zip(self._transports, calls)):
            try:
                transport.submit(method, call)
            except TransportError as exc:
                failures[i] = exc
        results: list = [None] * len(calls)
        for i, transport in enumerate(self._transports):
            if i in failures:
                continue
            try:
                results[i] = transport.result()
            except RemoteWorkerError:
                # The worker is healthy; the *call* failed deterministically.
                # Recovery would replay the identical failure — re-raise.
                raise
            except TransportError as exc:
                failures[i] = exc
        for i in sorted(failures):
            results[i] = self._recover_shard(i, method, calls[i], failures[i])
        self._record_progress(method, calls, results)
        return results

    def _record_progress(self, method: str, calls: list, results: list) -> None:
        """Track the replay state: the epoch's k and each shard's labels."""
        if method == "begin_epoch":
            self._n_clusters = int(calls[0][0])
            for i, call in enumerate(calls):
                labels = call[1]
                self._shard_labels[i] = (
                    None if labels is None
                    else np.asarray(labels, dtype=np.int64).copy()
                )
        elif method == "sweep":
            for i, update in enumerate(results):
                self._shard_labels[i] = np.asarray(update.labels, dtype=np.int64)
        elif method == "hamming_assign":
            for i, labels in enumerate(results):
                self._shard_labels[i] = np.asarray(labels, dtype=np.int64)

    # -- recovery ------------------------------------------------------- #
    def _connect_shard(self, index: int, host_index: int) -> TCPTransport:
        idx = self.shard_indices[index]
        return TCPTransport(
            self.hosts[host_index], self._codes[idx], self._n_categories,
            self._engine, timeout=self._timeout,
        )

    def _pick_host(self, exclude: Set[int]) -> Optional[int]:
        """Least-loaded (by resident rows) alive host; ties -> lowest index."""
        loads = [0.0] * len(self.hosts)
        for i, transport in enumerate(self._transports):
            if transport is not None:
                loads[self.placement[i]] += float(self.shard_indices[i].size)
        candidates = [
            h for h in self.alive_host_indices() if h not in exclude
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda h: (loads[h], h))

    def _recover_shard(
        self, index: int, method: str, call: tuple, error: TransportError
    ):
        """Re-place shard ``index`` on a surviving host.

        The fresh handshake re-ships the shard's rows, and when an epoch is
        live the replacement replays it via ``begin_epoch`` with the tracked
        labels.  The interrupted protocol call is then resubmitted and its
        result returned; that needs an epoch to replay unless the call is
        ``begin_epoch`` itself.

        Raises :class:`TransportError` (embedding the original failure) when
        no surviving host can take the shard within the retry budget, or when
        a call has no epoch to replay yet.
        """
        started = time.perf_counter()
        failed_host = self.placement[index]
        self._mark_dead(failed_host)
        old, self._transports[index] = self._transports[index], None
        if old is not None:
            self._retired_payload_bytes += old.payload_bytes_shipped
            old.close()
        if method != "begin_epoch" and self._n_clusters is None:
            raise TransportError(
                f"shard {index} lost its worker connection before any epoch "
                f"began; nothing to replay: {error}"
            ) from error
        last_error: TransportError = error
        attempts = 0
        delays = list(self.retry_policy.delays(self._rng))
        for attempt in range(self.retry_policy.max_retries + 1):
            target = self._pick_host(exclude={failed_host})
            if target is None:
                break
            if attempt > 0:
                time.sleep(delays[attempt - 1])
            attempts += 1
            transport = None
            try:
                transport = self._connect_shard(index, target)
                if method != "begin_epoch":
                    transport.submit(
                        "begin_epoch", (self._n_clusters, self._shard_labels[index])
                    )
                    transport.result()
                transport.submit(method, call)
                result = transport.result()
            except RemoteWorkerError:
                if transport is not None:
                    transport.close()
                raise
            except TransportError as exc:
                last_error = exc
                if transport is not None:
                    transport.close()
                self._mark_dead(target)
                continue
            self._transports[index] = transport
            self.placement[index] = target
            self.recovery_events.append({
                "shard": index,
                "method": method,
                "from_host": self.hosts[failed_host],
                "to_host": self.hosts[target],
                "attempts": attempts,
                "recovery_seconds": time.perf_counter() - started,
            })
            return result
        raise TransportError(
            f"shard {index} lost its worker connection during {method!r} and "
            f"re-placement failed after {attempts} attempt(s) — no surviving "
            f"host could take it: {last_error}"
        ) from last_error

    # -- observability -------------------------------------------------- #
    def transport_stats(self) -> dict:
        """Cumulative wire stats: live transports plus replaced ones' bytes."""
        stats = super().transport_stats()
        stats["payload_bytes_shipped"] += self._retired_payload_bytes
        return stats
