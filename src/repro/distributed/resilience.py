"""Fault tolerance and elasticity for the ``"tcp"`` shard backend.

The paper's distributed decomposition assumes a healthy fixed fleet; this
module is what turns the multi-host fit path from "works" into "survives
``kill -9`` and adapts to slow hosts".  Three mechanisms, all built on the
fact that shard state is an exact-mergeable
:class:`~repro.engine.state.EngineState` plus the shard's current labels:

* **Liveness** — :class:`HeartbeatMonitor` probes each worker with the cheap
  ping handshake (:func:`repro.distributed.rpc.ping_host`) on a background
  thread.  A host is declared dead after ``max_misses`` consecutive failed
  probes and reinstated the moment a probe succeeds again, so a rebooted
  worker rejoins the candidate set for re-placement and rebalancing.

* **Recovery** — :class:`ResilientTCPExecutor` wraps every protocol call so
  a worker that dies mid-fit (connection reset, EOF, timeout) triggers
  deterministic shard re-placement instead of aborting the fit: the shard
  moves to the least-loaded surviving host (ties broken by host index), the
  replacement worker restores the codes from its content-addressed
  :class:`~repro.distributed.shardcache.ShardCache` (or they are re-shipped
  on a miss), the epoch is replayed via ``begin_epoch(k, labels)`` with the
  shard's last known labels, and the interrupted call is resubmitted.
  Because ``mgcpl_sweep_local`` restores the broadcast global counts before
  sweeping, replaying ``begin_epoch`` with the tracked labels reproduces the
  worker's pre-call state *exactly* — the recovered fit is bit-identical to
  the serial reference for batch MGCPL.  Reconnect attempts use the serving
  client's capped jittered exponential backoff (:class:`RetryPolicy`).
  :class:`~repro.distributed.transport.RemoteWorkerError` — an application
  error reported over a *healthy* channel — is deliberately never retried:
  replaying a deterministic failure can only fail identically.

* **Elasticity** — with ``rebalance=True``, measured per-shard sweep times
  (the ``elapsed`` field every protocol-v2 reply carries) are folded into
  per-host throughput estimates; at each epoch boundary the executor asks
  :meth:`~repro.distributed.scheduler.GranularityAwareScheduler.place_shards`
  for a placement over a :func:`measured_node_pool` and applies it when the
  :class:`~repro.distributed.simulation.MakespanModel` predicts a ≥5%
  makespan win.  Epoch boundaries are the one point where moving a shard
  needs no state transfer at all — ``begin_epoch`` rebuilds every engine
  anyway — so a move costs one (cache-friendly) handshake.

What is and is not bit-identical after recovery: batch MGCPL (and CAME's
Hamming assignment, and ``rebuild``) replay exactly, because each call's
result is a pure function of the shard codes, the broadcast state and the
tracked labels.  Anything that consumes *wall-clock* side channels (the
measured rebalancer itself, recovery timings in ``BENCH_transport.json``)
is by nature not reproducible and is reported as observability, not state.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Union

import numpy as np

from repro.distributed.rpc import TCPExecutor, TCPTransport, ping_host
from repro.distributed.shardcache import ShardCache
from repro.distributed.transport import (
    RemoteWorkerError,
    TransportError,
    close_all,
    register_backend,
)

__all__ = [
    "RetryPolicy",
    "HeartbeatMonitor",
    "MeasuredNode",
    "measured_node_pool",
    "ResilientTCPExecutor",
]


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
# Heartbeats
# ---------------------------------------------------------------------- #
class HeartbeatMonitor:
    """Background liveness probes over a fixed host list.

    Every ``interval`` seconds each host gets one :func:`ping_host` probe
    (its own short-lived connection, so probes never contend with in-flight
    shard calls).  ``max_misses`` *consecutive* failures mark a host dead;
    one success reinstates it.  ``on_change(host, alive)`` fires on every
    transition — the resilient executor uses it to grow and shrink its
    candidate set for re-placement.

    The monitor is also usable stand-alone (e.g. from an operator script)
    and is safe to ``stop()`` more than once.
    """

    def __init__(
        self,
        hosts: Sequence[str],
        interval: float = 1.0,
        timeout: float = 2.0,
        max_misses: int = 3,
        on_change: Optional[Callable[[str, bool], None]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"heartbeat interval must be > 0, got {interval}")
        self.hosts = [str(h) for h in hosts]
        self.interval = float(interval)
        self.timeout = float(timeout)
        self.max_misses = max(1, int(max_misses))
        self.on_change = on_change
        self._misses: Dict[str, int] = {h: 0 for h in self.hosts}
        self._alive: Dict[str, bool] = {h: True for h in self.hosts}
        self._latency: Dict[str, Optional[float]] = {h: None for h in self.hosts}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------ #
    def start(self) -> "HeartbeatMonitor":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-heartbeat", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=self.timeout + self.interval + 1.0)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            for host in self.hosts:
                if self._stop.is_set():
                    return
                self.probe(host)

    # -- probing -------------------------------------------------------- #
    def probe(self, host: str) -> bool:
        """One synchronous probe of ``host``; records the result, returns it."""
        try:
            latency = ping_host(host, timeout=self.timeout)
        except TransportError:
            self.observe(host, False)
            return False
        self.observe(host, True, latency)
        return True

    def observe(self, host: str, ok: bool, latency: Optional[float] = None) -> None:
        """Fold one liveness observation (probe or failed shard call) in."""
        with self._lock:
            was = self._alive.get(host, True)
            if ok:
                self._misses[host] = 0
                self._alive[host] = True
                self._latency[host] = latency
            else:
                self._misses[host] = self._misses.get(host, 0) + 1
                if self._misses[host] >= self.max_misses:
                    self._alive[host] = False
            now = self._alive[host]
        if now != was and self.on_change is not None:
            self.on_change(host, now)

    # -- queries -------------------------------------------------------- #
    def is_alive(self, host: str) -> bool:
        with self._lock:
            return self._alive.get(host, False)

    def alive_hosts(self) -> List[str]:
        with self._lock:
            return [h for h in self.hosts if self._alive[h]]

    def snapshot(self) -> Dict[str, dict]:
        """Per-host ``{alive, consecutive_misses, latency_s}`` (for ops/info)."""
        with self._lock:
            return {
                h: {
                    "alive": self._alive[h],
                    "consecutive_misses": self._misses[h],
                    "latency_s": self._latency[h],
                }
                for h in self.hosts
            }


# ---------------------------------------------------------------------- #
# Measured node pool: feeds real timings into the paper's scheduler stack
# ---------------------------------------------------------------------- #
class MeasuredNode:
    """A :class:`~repro.distributed.node.ComputeNode` whose throughput is measured.

    The categorical features exist so MCDC can still group the pool (they are
    speed buckets over the measurement, expressed in the Fig.-1 vocabulary);
    the makespan model, however, sees the *measured* rows-per-second.
    """

    def __init__(self, node_id: int, features: Dict[str, str], throughput: float) -> None:
        self.node_id = int(node_id)
        self.features = features
        self.measured_throughput = float(throughput)

    def throughput(self) -> float:
        return max(self.measured_throughput, 1e-9)


def measured_node_pool(throughputs: Dict[int, float]):
    """A :class:`~repro.distributed.node.NodePool` over measured host speeds.

    ``throughputs`` maps host index -> measured rows/second.  Hosts are
    rank-bucketed into the ``gpu_type``/``gpu_usage``/``memory_usage``
    vocabulary (fastest quartile = type "D" at low usage) so
    :meth:`GranularityAwareScheduler.group_nodes` clusters speed-consistent
    hosts together, exactly as the paper groups heterogeneous nodes.
    Node ids are the host indices, and ``pool.nodes`` is ordered by host
    index, so a ``place_shards`` result indexes back into the host list via
    ``sorted(throughputs)``.
    """
    from repro.distributed.node import NodePool

    order = sorted(throughputs)
    by_speed = sorted(order, key=lambda h: (throughputs[h], h))
    rank = {h: r for r, h in enumerate(by_speed)}
    n = len(order)
    gpu_types = ["A", "B", "C", "D"]          # slow -> fast (matches _THROUGHPUT)
    usages = ["high", "high", "medium", "low"]
    nodes = []
    for host in order:
        quartile = min(3, rank[host] * 4 // max(n, 1))
        features = {
            "gpu_type": gpu_types[quartile],
            "gpu_usage": usages[quartile],
            "memory_usage": usages[quartile],
            "network_tier": "standard",
            "storage_type": "ssd",
            "region": "east",
        }
        nodes.append(MeasuredNode(host, features, throughputs[host]))
    return NodePool(nodes=nodes)


# ---------------------------------------------------------------------- #
# The resilient executor (the registered "tcp" backend)
# ---------------------------------------------------------------------- #
@register_backend(
    "tcp",
    aliases=("socket", "remote", "streaming", "stream"),
    description=(
        "Fault-tolerant shards on remote `repro worker` hosts: heartbeats, "
        "retry-reconnect with shard re-placement, content-addressed shard "
        "cache, optional measured epoch-boundary rebalancing"
    ),
    options=(
        "hosts",
        "placement",
        "timeout",
        "shard_cache",
        "max_retries",
        "heartbeat_interval",
        "rebalance",
    ),
)
class ResilientTCPExecutor(TCPExecutor):
    """:class:`TCPExecutor` that survives worker death and adapts placement.

    Extra options (beyond the plain TCP executor's)
    ----------
    max_retries:
        Reconnect attempts per failed shard call beyond the first (default 2),
        spaced by :class:`RetryPolicy`'s jittered capped backoff.
    heartbeat_interval:
        Seconds between background liveness probes; ``None``/``0`` disables
        the monitor (failures are then only detected by the calls they break).
        A dead host leaves the re-placement candidate set; a probe success
        reinstates it.
    rebalance:
        When true, re-place shards at epoch boundaries using measured sweep
        throughput, the MCDC-grouping scheduler and the makespan cost model.

    Observability: :attr:`recovery_events` (one dict per recovered shard,
    including wall-clock ``recovery_seconds``) and :attr:`rebalance_events`.
    """

    #: Apply a rebalance only when the model predicts at least this win.
    REBALANCE_GAIN = 0.05

    def __init__(
        self,
        codes: np.ndarray,
        n_categories: Sequence[int],
        shard_indices: Sequence[np.ndarray],
        engine: str = "auto",
        hosts: Optional[Sequence[str]] = None,
        placement: Optional[Sequence[int]] = None,
        timeout: Optional[float] = None,
        shard_cache: Optional[Union[str, Path, ShardCache]] = None,
        max_retries: int = 2,
        heartbeat_interval: Optional[float] = None,
        rebalance: bool = False,
    ) -> None:
        super().__init__(
            codes, n_categories, shard_indices, engine,
            hosts=hosts, placement=placement, timeout=timeout,
            shard_cache=shard_cache,
        )
        self.retry_policy = RetryPolicy(max_retries=int(max_retries))
        self.rebalance = bool(rebalance)
        self.recovery_events: List[dict] = []
        self.rebalance_events: List[dict] = []
        # Payload bytes shipped on transports that were since replaced (by a
        # recovery or a rebalance move); keeps transport_stats() cumulative.
        self._retired_payload_bytes = 0
        self._dead_hosts: Set[int] = set()
        self._state_lock = threading.Lock()
        # Replay state: the epoch's k and each shard's last known labels are
        # all a replacement worker needs to reconstruct a failed shard
        # exactly (begin_epoch rebuilds the engine; the sweep broadcast
        # carries the global counts).
        self._n_clusters: Optional[int] = None
        self._shard_labels: List[Optional[np.ndarray]] = [None] * self.n_shards
        # Measured-throughput accumulators (rows swept, seconds busy) per host.
        self._host_rows = [0.0] * len(self.hosts)
        self._host_seconds = [0.0] * len(self.hosts)
        self._rng = random.Random()
        self.monitor: Optional[HeartbeatMonitor] = None
        if heartbeat_interval:
            self.monitor = HeartbeatMonitor(
                self.hosts,
                interval=float(heartbeat_interval),
                on_change=self._on_host_transition,
            ).start()

    # -- liveness bookkeeping ------------------------------------------- #
    def _on_host_transition(self, host: str, alive: bool) -> None:
        try:
            index = self.hosts.index(host)
        except ValueError:  # pragma: no cover - monitor only knows our hosts
            return
        with self._state_lock:
            if alive:
                self._dead_hosts.discard(index)
            else:
                self._dead_hosts.add(index)

    def _mark_dead(self, host_index: int) -> None:
        with self._state_lock:
            self._dead_hosts.add(host_index)
        if self.monitor is not None:
            # Feed the hard evidence in so the snapshot agrees with us; the
            # monitor may later reinstate the host when pings succeed again.
            self.monitor.observe(self.hosts[host_index], False)
            self.monitor.observe(self.hosts[host_index], False)
            self.monitor.observe(self.hosts[host_index], False)

    def alive_host_indices(self) -> List[int]:
        with self._state_lock:
            dead = set(self._dead_hosts)
        return [h for h in range(len(self.hosts)) if h not in dead]

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
        """Track the replay state and the per-host timing accumulators."""
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
            self._record_elapsed([idx.size for idx in self.shard_indices])
        elif method == "rebuild":
            for i, call in enumerate(calls):
                self._shard_labels[i] = np.asarray(call[0], dtype=np.int64).copy()
        elif method == "hamming_assign":
            for i, labels in enumerate(results):
                self._shard_labels[i] = np.asarray(labels, dtype=np.int64)

    def _record_elapsed(self, rows: Sequence[int]) -> None:
        """Fold each shard's measured worker seconds into the accumulators."""
        for i, transport in enumerate(self._transports):
            elapsed = getattr(transport, "last_elapsed", None)
            if elapsed:
                self._host_rows[self.placement[i]] += float(rows[i])
                self._host_seconds[self.placement[i]] += float(elapsed)

    # -- recovery ------------------------------------------------------- #
    def _connect_shard(self, index: int, host_index: int) -> TCPTransport:
        idx = self.shard_indices[index]
        return TCPTransport(
            self.hosts[host_index], self._codes[idx], self._n_categories,
            self._engine, timeout=self._timeout,
            content_key=self.content_keys[index],
            cache_first=self.shard_cache is not None,
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

        The fresh handshake ships (or cache-restores) the shard's rows, and
        when an epoch is live the replacement replays it via ``begin_epoch``
        with the tracked labels.  The interrupted protocol call is then
        resubmitted and its result returned; that needs an epoch to replay
        unless the call is ``begin_epoch`` itself.

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
        close_all([old])
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
                    close_all([transport])
                raise
            except TransportError as exc:
                last_error = exc
                if transport is not None:
                    close_all([transport])
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
                "cache_status": transport.cache_status,
                "recovery_seconds": time.perf_counter() - started,
            })
            return result
        raise TransportError(
            f"shard {index} lost its worker connection during {method!r} and "
            f"re-placement failed after {attempts} attempt(s) — no surviving "
            f"host could take it: {last_error}"
        ) from last_error

    # -- elastic rebalancing -------------------------------------------- #
    def begin_epoch(self, n_clusters: int, labels):
        if self.rebalance:
            self._maybe_rebalance()
        return super().begin_epoch(n_clusters, labels)

    def transport_stats(self) -> dict:
        """Cumulative wire stats: live transports plus replaced ones' bytes."""
        stats = super().transport_stats()
        stats["payload_bytes_shipped"] += self._retired_payload_bytes
        return stats

    def measured_throughputs(self) -> Dict[int, float]:
        """Host index -> measured rows/second (only hosts with data)."""
        return {
            h: self._host_rows[h] / self._host_seconds[h]
            for h in range(len(self.hosts))
            if self._host_seconds[h] > 0 and self._host_rows[h] > 0
        }

    def _maybe_rebalance(self) -> None:
        """Epoch-boundary re-placement from measured throughput (best effort).

        Never raises: a fit must not die because the *optimiser* hiccupped.
        An epoch boundary is the one moment a move is free of state transfer —
        ``begin_epoch`` immediately rebuilds every shard engine — so applying
        a placement is just a (cache-friendly) reconnect per moved shard.
        """
        try:
            alive = self.alive_host_indices()
            if len(alive) < 2 or set(self.placement) - set(alive):
                return
            measured = self.measured_throughputs()
            measured = {h: v for h, v in measured.items() if h in alive}
            if not measured:
                return
            fallback = float(np.median(list(measured.values())))
            pool = measured_node_pool(
                {h: measured.get(h, fallback) for h in alive}
            )
            from repro.distributed.scheduler import GranularityAwareScheduler, Task
            from repro.distributed.simulation import MakespanModel

            sizes = [int(idx.size) for idx in self.shard_indices]
            scheduler = GranularityAwareScheduler(
                n_groups=min(4, len(alive)), engine=self._engine, random_state=0
            )
            candidate = [alive[p] for p in scheduler.place_shards(sizes, pool)]

            def makespan(placement: List[int]) -> float:
                assignment = {h: [] for h in alive}
                for i, host in enumerate(placement):
                    assignment[host].append(Task(task_id=i, demand=float(sizes[i])))
                return MakespanModel().execute(assignment, pool).makespan

            current_cost = makespan(self.placement)
            candidate_cost = makespan(candidate)
            if candidate_cost >= current_cost * (1.0 - self.REBALANCE_GAIN):
                return
            moved = 0
            for i, target in enumerate(candidate):
                if target == self.placement[i]:
                    continue
                try:
                    transport = self._connect_shard(i, target)
                except TransportError:
                    self._mark_dead(target)
                    break  # keep the remaining shards where they are
                old, self._transports[i] = self._transports[i], transport
                self.placement[i] = target
                if old is not None:
                    self._retired_payload_bytes += old.payload_bytes_shipped
                close_all([old])
                moved += 1
            if moved:
                self.rebalance_events.append({
                    "moved_shards": moved,
                    "makespan_before": current_cost,
                    "makespan_after": candidate_cost,
                    "throughputs": {self.hosts[h]: measured.get(h) for h in alive},
                })
        except Exception:  # pragma: no cover - defensive: optimiser is optional
            return

    # -- teardown ------------------------------------------------------- #
    def close(self) -> None:
        if self.monitor is not None:
            self.monitor.stop()
            self.monitor = None
        super().close()
