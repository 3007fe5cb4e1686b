"""The ``LocalUpdate`` / ``GlobalStep`` protocol behind sharded clustering.

MGCPL's batch epoch (and CAME's alternating optimisation) are bulk-
synchronous: within one sweep every object is scored against the *same*
cluster statistics, and only the aggregate of all decisions feeds back into
the next sweep.  That makes each sweep exactly decomposable over a partition
of the objects:

1. **Broadcast** — the coordinator ships the merged global counts
   (:class:`~repro.engine.state.EngineState`) plus the small per-cluster
   learning vectors (``u``, ``rho``, ``omega``, the blocked mask) to every
   shard (:class:`SweepBroadcast`).
2. **LocalUpdate** — each shard restores the global counts into its own
   engine, runs the winner/rival competition for *its* objects only, and
   returns its new labels, its shard-local count contribution and the
   additive competition statistics (:class:`ShardUpdate`).
3. **GlobalStep** — the coordinator merges the shard states (bit-identical
   to single-process counting, see :mod:`repro.engine.state`), sums the
   statistics, advances ``delta`` / ``rho`` / ``omega`` and decides
   convergence and starvation (:class:`SweepOutcome` feeds
   :meth:`repro.core.mgcpl.MGCPL._epoch_batch`).

Everything here is transport-agnostic: :class:`InProcessShardExecutor` runs
the shards serially in the calling process (the default execution path of
MGCPL, with a single shard), and doubles as the ``"serial"`` backend of the
executor registry (:mod:`repro.distributed.transport`), whose ``"tcp"``
backend drives the same :class:`ShardWorker` objects behind ``repro worker``
TCP servers (:mod:`repro.distributed.rpc`).  The one :class:`ShardWorker`
implementation serves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.engine import EngineState, OneHotCache, make_engine
from repro.engine.packed import competition_statistics, select_winners


def contiguous_shards(n: int, n_shards: int) -> List[np.ndarray]:
    """Split ``0..n-1`` into ``n_shards`` contiguous, near-equal index blocks."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, max(n, 1))
    return [np.asarray(block, dtype=np.int64) for block in np.array_split(np.arange(n), n_shards)]


def shard_view(codes: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The rows of ``codes`` belonging to one shard.

    The identity shard (every row, in order — the serial single-shard path)
    returns ``codes`` itself instead of a fancy-indexed copy, so a serial
    fit never holds a second copy of the data matrix.
    """
    n = codes.shape[0]
    if indices.size == n and np.array_equal(indices, np.arange(n)):
        return codes
    return codes[indices]


def shards_from_assignments(assignments: np.ndarray, n_shards: Optional[int] = None) -> List[np.ndarray]:
    """Turn a per-object shard-assignment vector into per-shard index arrays.

    Accepts e.g. ``PartitionPlan.assignments`` from the multi-granular
    pre-partitioner, so locality-preserving partitions can back the sharded
    runtime directly.
    """
    assignments = np.asarray(assignments, dtype=np.int64)
    if assignments.ndim != 1:
        raise ValueError("assignments must be a 1-d vector of shard ids")
    if assignments.size and assignments.min() < 0:
        raise ValueError("assignments must be non-negative shard ids")
    k = int(n_shards if n_shards is not None else (assignments.max() + 1 if assignments.size else 1))
    return [np.flatnonzero(assignments == shard) for shard in range(k)]


# ---------------------------------------------------------------------- #
# Messages
# ---------------------------------------------------------------------- #
@dataclass
class SweepBroadcast:
    """GlobalStep -> shards: everything one competitive sweep depends on."""

    state: EngineState                  # merged global counts
    u: np.ndarray                       # (k,) cluster weights u_l (Eq. 11)
    rho: np.ndarray                     # (k,) winning ratios rho_l (Eq. 7)
    omega: Optional[np.ndarray]         # (d, k) feature weights, or None
    blocked: np.ndarray                 # (k,) clusters that cannot win objects


@dataclass
class ShardUpdate:
    """Shard -> GlobalStep: one shard's contribution to a sweep (additive)."""

    labels: np.ndarray                  # shard-local new assignment
    changed: bool                       # any object in the shard moved
    state: EngineState                  # counts of the shard under `labels`
    win_counts: np.ndarray              # (k,) wins g_l (Eq. 10)
    win_gain: np.ndarray                # (k,) margin awards (Eq. 12)
    rival_pen: np.ndarray               # (k,) rival penalties (Eq. 13)
    rival_counts: np.ndarray            # (k,) rival designations
    win_sim_total: np.ndarray           # (k,) similarity mass of the wins


@dataclass
class SweepOutcome:
    """Merged result of one sweep over all shards."""

    labels: np.ndarray                  # global assignment (coordinator order)
    changed: bool
    state: EngineState                  # merged global counts under `labels`
    win_counts: np.ndarray
    win_gain: np.ndarray
    rival_pen: np.ndarray
    rival_counts: np.ndarray
    win_sim_total: np.ndarray

    @classmethod
    def from_updates(
        cls, updates: Sequence[ShardUpdate], shard_indices: Sequence[np.ndarray], n: int
    ) -> "SweepOutcome":
        labels = np.empty(n, dtype=np.int64)
        for update, indices in zip(updates, shard_indices):
            labels[indices] = update.labels
        return cls(
            labels=labels,
            changed=any(update.changed for update in updates),
            state=EngineState.merge_all([update.state for update in updates]),
            win_counts=sum(update.win_counts for update in updates),
            win_gain=sum(update.win_gain for update in updates),
            rival_pen=sum(update.rival_pen for update in updates),
            rival_counts=sum(update.rival_counts for update in updates),
            win_sim_total=sum(update.win_sim_total for update in updates),
        )


# ---------------------------------------------------------------------- #
# LocalUpdate
# ---------------------------------------------------------------------- #
def mgcpl_sweep_local(
    engine, labels: np.ndarray, broadcast: SweepBroadcast, counts: EngineState
) -> ShardUpdate:
    """One shard-local MGCPL competition sweep (the LocalUpdate).

    Restores the broadcast global counts into the shard engine, scores the
    shard's objects against them (with the leave-one-out correction relative
    to the *global* statistics) and applies the winner/rival bookkeeping of
    Eqs. 10-13 for the shard's objects only.  ``counts`` are the shard's
    own counts under ``labels``; the engine is left holding, and the update
    carries, the shard's counts under the new assignment, updated from the
    rows that moved (the engine's ``move_many``) or, when more than half
    moved, recounted (``rebuild``).  The counts are integer-valued floats,
    so either way they equal a full recount.

    The dense engine (``"auto"``, ``"dense"``, and the ``"chunked"`` and
    ``"compiled"`` aliases) exposes ``competitive_sweep``: one cache-blocked
    NumPy pass that never holds an ``(n, k)`` array
    (:mod:`repro.engine.packed`).  The NumPy
    branch below — the whole similarity matrix through the same selection
    and statistics helpers — is the
    :class:`~repro.engine.reference.LoopEngine` reference path.  All paths
    produce bit-identical :class:`ShardUpdate`\\ s at any number of
    features: the packed backends add the leave-one-out terms in the
    loop's ascending feature order (tested at d=12 and d=16), and their
    row blocks stay above the BLAS shape floors of
    :func:`repro.engine.packed.sweep_rows`.
    """
    engine.restore(broadcast.state)
    fused = getattr(engine, "competitive_sweep", None)
    if fused is not None:
        winners, *stats = fused(
            labels, broadcast.u, broadcast.rho, broadcast.omega, broadcast.blocked
        )
    else:
        sims = engine.similarity_matrix(
            feature_weights=broadcast.omega, exclude_labels=labels
        )
        selection = select_winners(
            sims, (1.0 - broadcast.rho) * broadcast.u, broadcast.blocked
        )
        winners = selection[0]
        stats = competition_statistics(*selection, engine.n_clusters)
    win_counts, win_gain, rival_pen, rival_counts, win_sim_total = stats

    # The shard's counts under the new labels.  Moving the m moved rows off
    # their old clusters and onto their new ones counts 2m rows, which
    # costs what recounting all n does at m = n / 2.
    moved = np.flatnonzero(winners != labels)
    if 2 * moved.size > labels.shape[0]:
        engine.rebuild(winners)
    else:
        engine.restore(counts)
        engine.move_many(moved, labels[moved], winners[moved])
    return ShardUpdate(
        labels=winners,
        changed=moved.size > 0,
        state=engine.snapshot(),
        win_counts=win_counts,
        win_gain=win_gain,
        rival_pen=rival_pen,
        rival_counts=rival_counts,
        win_sim_total=win_sim_total,
    )


# ---------------------------------------------------------------------- #
# Workers and the executor protocol
# ---------------------------------------------------------------------- #
class ShardWorker:
    """Holds one shard's codes and engine; executes the shard-local steps.

    The same object serves the in-process executor and the process-pool
    runtime (where one instance lives inside each worker process and the
    codes are shipped exactly once, at pool start-up).
    """

    def __init__(
        self,
        codes: np.ndarray,
        n_categories: Sequence[int],
        engine: str = "auto",
        onehot_cache: Optional[OneHotCache] = None,
    ) -> None:
        self.codes = np.ascontiguousarray(codes, dtype=np.int64)
        self.n_categories = list(n_categories)
        self.engine_kind = engine
        self.engine = None
        self.labels: Optional[np.ndarray] = None
        # The shard's own counts under ``labels``, kept from begin_epoch and
        # each sweep so a sweep counts only the rows that moved.
        self.counts: Optional[EngineState] = None
        # One cache per worker by default: begin_epoch builds a fresh engine
        # per granularity level over the same (immutable) shard codes, so the
        # dense one-hot encoding is built once per shard instead of once per
        # epoch.  Callers may pass a longer-lived cache (e.g. one owned by
        # the dataset) so the encoding also survives across fits/restarts.
        self.onehot_cache = OneHotCache() if onehot_cache is None else onehot_cache

    def ping(self) -> int:
        """Liveness/handshake check: the number of resident shard objects.

        Transports call this right after shipping the shard so that a worker
        that failed to initialise (bad codes, broken pool, dead socket)
        surfaces at *connect* time instead of at the first sweep.
        """
        return int(self.codes.shape[0])

    def begin_epoch(self, n_clusters: int, labels: Optional[np.ndarray]) -> EngineState:
        """(Re)build the shard engine for a new epoch; returns the shard counts."""
        self.engine = make_engine(
            self.codes,
            self.n_categories,
            n_clusters,
            kind=self.engine_kind,
            labels=labels,
            onehot_cache=self.onehot_cache,
        )
        self.labels = (
            np.asarray(labels, dtype=np.int64).copy()
            if labels is not None
            else np.full(self.codes.shape[0], -1, dtype=np.int64)
        )
        self.counts = self.engine.snapshot()
        return self.counts

    def sweep(self, broadcast: SweepBroadcast) -> ShardUpdate:
        """Run one MGCPL LocalUpdate; remember the shard's new labels and counts."""
        update = mgcpl_sweep_local(self.engine, self.labels, broadcast, self.counts)
        self.labels, self.counts = update.labels, update.state
        return update

    def hamming_assign(self, modes: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """CAME's assignment step (Eq. 20) for the shard's objects.

        Leaves the sweep's labels and counts alone: those two change together.
        """
        distances = self.engine.hamming_distances(modes, feature_weights=theta)
        return np.argmin(distances, axis=1).astype(np.int64)


class InProcessShardExecutor:
    """Reference executor: runs every shard serially in the calling process.

    With the default single shard this *is* MGCPL's serial execution path;
    with several shards it exercises the full shard/merge protocol without
    any processes, which is what the equivalence tests pin down.
    """

    def __init__(
        self,
        codes: np.ndarray,
        n_categories: Sequence[int],
        shard_indices: Optional[List[np.ndarray]] = None,
        engine: str = "auto",
        onehot_cache: Optional[OneHotCache] = None,
    ) -> None:
        codes = np.asarray(codes, dtype=np.int64)
        if shard_indices is None:
            shard_indices = contiguous_shards(codes.shape[0], 1)
        self.shard_indices = [np.asarray(idx, dtype=np.int64) for idx in shard_indices]
        self.n_objects = codes.shape[0]
        self._workers = []
        for idx in self.shard_indices:
            view = shard_view(codes, idx)
            # A caller-provided cache is identity-keyed on the codes array,
            # so it can only ever hit for the identity shard (the serial
            # single-shard path); fancy-indexed shard copies get their own
            # per-worker cache rather than polluting the shared one.
            cache = onehot_cache if view is codes else None
            self._workers.append(
                ShardWorker(view, n_categories, engine=engine, onehot_cache=cache)
            )

    @property
    def n_shards(self) -> int:
        return len(self._workers)

    def begin_epoch(self, n_clusters: int, labels: Optional[np.ndarray]) -> EngineState:
        states = [
            worker.begin_epoch(n_clusters, None if labels is None else labels[idx])
            for worker, idx in zip(self._workers, self.shard_indices)
        ]
        return EngineState.merge_all(states)

    def sweep(self, broadcast: SweepBroadcast) -> SweepOutcome:
        updates = [worker.sweep(broadcast) for worker in self._workers]
        return SweepOutcome.from_updates(updates, self.shard_indices, self.n_objects)

    def hamming_assign(self, modes: np.ndarray, theta: np.ndarray) -> np.ndarray:
        labels = np.empty(self.n_objects, dtype=np.int64)
        for worker, idx in zip(self._workers, self.shard_indices):
            labels[idx] = worker.hamming_assign(modes, theta)
        return labels

    def close(self) -> None:
        """Nothing to tear down for in-process shards."""

    def __enter__(self) -> "InProcessShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
