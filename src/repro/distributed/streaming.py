"""Streaming-native sharded runtime: resident, append-capable shard workers.

A fit usually ships a frozen dataset to its workers once.  This module keeps
the fleet *continuously fed*, on the ``"tcp"`` backend (``"streaming"`` and
``"stream"`` are aliases of it):

- :class:`~repro.distributed.resilience.ResilientTCPExecutor` lets the
  shard topology evolve while workers stay resident: ``append_rows`` routes
  new rows to the least-loaded shard and extends that worker's codes (and
  one-hot encoding) in place — no full re-ship — and ``split_shard`` re-homes
  the tail half of a hot shard onto the least-loaded host, reusing the
  recovery placement rule.  Appended rows survive worker death: the replay
  bookkeeping is updated *before* the wire call, so a recovery handshake
  re-ships the shard including its appends.

- :class:`StreamingCoordinator` drives the **mini-batch online mode**:
  block-sequential across mini-batches, shard-parallel within a block.  Per
  block it broadcasts the coordinator's live global :class:`EngineState`
  (plus the current feature weights) and each shard answers exact
  ``similarity_object`` vectors for its rows (the ``online_sims`` verb).
  The coordinator then replays the rows in the serial permutation order,
  recomputing a row's similarity to exactly those clusters whose counts
  changed since the block started — with the very arithmetic the engine
  uses, so the result is **bit-identical** to the serial
  ``update_mode="online"`` reference on the same row order.

- :class:`StreamingMGCPL` is the estimator face: an MGCPL whose online
  epochs run over the resident fleet, whose ``ingest`` forwards each batch
  to the fleet as appends, and whose ``refit`` re-fits over the resident
  (original + appended) rows — a *warm* refit that ships zero shard payload
  bytes, because every worker already holds its rows.

Why bit-identity survives the parallelism: an object's similarity vector
depends only on the global cluster counts, not on which shard holds which
row.  Within a block only a handful of clusters' counts actually change
(each replayed move touches two), so the shard-computed vectors stay exact
for every untouched cluster and the coordinator patches just the dirty
ones.  Splits only move rows between workers — the global state never
changes — so re-sharding cannot perturb the numerics at all.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.base import ArrayOrDataset, extract_codes
from repro.core.mgcpl import MGCPL, online_competition_step, winning_ratio
from repro.data.dataset import CategoricalDataset
from repro.distributed.resilience import ResilientTCPExecutor
from repro.distributed.runtime import _ShardedMixin
from repro.engine.state import EngineState, state_from_labels
from repro.registry import register_clusterer

__all__ = [
    "StreamingCoordinator",
    "StreamingMGCPL",
]


# ---------------------------------------------------------------------- #
# Coordinator-side exact count updates (mirror PackedFrequencyEngine)
# ---------------------------------------------------------------------- #
def _pack_offsets(n_categories: Sequence[int]) -> np.ndarray:
    vocab = np.asarray([int(m) for m in n_categories], dtype=np.int64)
    return np.concatenate(([0], np.cumsum(vocab)[:-1]))


def _state_add(state: EngineState, packed_row: np.ndarray, cluster: int) -> None:
    state.sizes[cluster] += 1
    present = packed_row >= 0
    state.packed[cluster, packed_row[present]] += 1.0
    state.valid_counts[cluster, present] += 1.0


def _state_remove(state: EngineState, packed_row: np.ndarray, cluster: int) -> None:
    state.sizes[cluster] -= 1
    present = packed_row >= 0
    state.packed[cluster, packed_row[present]] -= 1.0
    state.valid_counts[cluster, present] -= 1.0


def _exact_similarity(
    state: EngineState,
    packed_row: np.ndarray,
    cluster: int,
    exclude: int,
    omega: Optional[np.ndarray],
    d: int,
) -> float:
    """One (object, cluster) similarity with the engine's exact arithmetic.

    Reproduces ``PackedFrequencyEngine.similarity_object`` restricted to one
    cluster — same element extraction, same masked divisions, same
    leave-one-out correction when ``cluster == exclude``, same per-feature
    weighting, same contiguous pairwise summation — so patching a stale
    entry of a shard-computed similarity vector is bit-neutral.
    """
    present = packed_row >= 0
    cols = packed_row[present]
    counts = state.packed[cluster, cols]
    valid = state.valid_counts[cluster, present]
    if cluster == exclude and exclude >= 0:
        s = np.where(
            valid > 1,
            (counts - 1.0) / np.where(valid > 1, valid - 1.0, 1.0),
            0.0,
        )
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(valid > 0, counts / valid, 0.0)
    if omega is not None:
        s = s * omega[present, cluster]
    return s.sum() / d


# ---------------------------------------------------------------------- #
# The mini-batch online coordinator
# ---------------------------------------------------------------------- #
class StreamingCoordinator:
    """Drive one online epoch block-parallel over a shard executor.

    Replays MGCPL's object-at-a-time competition in the serial permutation
    order, but computes the expensive similarity vectors shard-parallel one
    mini-batch (*block*) ahead: at each block boundary the live global
    counts (and feature weights) are broadcast, every shard answers for its
    rows in the block, and the coordinator patches exactly the entries made
    stale by the moves it replays in between.  Bit-identical to
    :meth:`MGCPL._epoch_online` on the same ``rng`` — see the module docs.

    Hot-shard splitting runs at block boundaries when thresholds are set;
    splits never perturb the numerics (the global state is shard-agnostic),
    they only rebalance future block latency.
    """

    def __init__(
        self,
        executor,
        block_rows: int = 256,
        split_rows: Optional[int] = None,
        split_seconds: Optional[float] = None,
    ) -> None:
        if block_rows < 1:
            raise ValueError("block_rows must be >= 1")
        self.executor = executor
        self.block_rows = int(block_rows)
        self.split_rows = None if split_rows is None else int(split_rows)
        self.split_seconds = None if split_seconds is None else float(split_seconds)
        self.blocks_run = 0

    # -- row locator ----------------------------------------------------- #
    def _locate_rows(self, n: int):
        row_shard = np.empty(n, dtype=np.int64)
        row_local = np.empty(n, dtype=np.int64)
        for s, idx in enumerate(self.executor.shard_indices):
            row_shard[idx] = s
            row_local[idx] = np.arange(idx.size, dtype=np.int64)
        return row_shard, row_local

    def _maybe_split(self) -> bool:
        if self.split_rows is None and self.split_seconds is None:
            return False
        if not hasattr(self.executor, "split_shard"):
            return False
        hot = self.executor.hot_shards(self.split_rows, self.split_seconds)
        for index in hot:
            self.executor.split_shard(index)
        return bool(hot)

    def _block_sims(
        self,
        state: EngineState,
        omega: Optional[np.ndarray],
        block: np.ndarray,
        labels: np.ndarray,
        row_shard: np.ndarray,
        row_local: np.ndarray,
        k: int,
    ) -> np.ndarray:
        """Shard-parallel similarity vectors for one block: ``(len(block), k)``."""
        shards = row_shard[block]
        rows_per_shard = []
        exclude_per_shard = []
        positions = []
        for s in range(self.executor.n_shards):
            sel = np.flatnonzero(shards == s)
            positions.append(sel)
            rows_per_shard.append(row_local[block[sel]])
            exclude_per_shard.append(labels[block[sel]])
        parts = self.executor.online_sims(
            state, rows_per_shard, exclude_per_shard, omega
        )
        sims = np.empty((block.size, k), dtype=np.float64)
        for sel, part in zip(positions, parts):
            if sel.size:
                sims[sel] = part
        self.blocks_run += 1
        return sims

    # -- the epoch -------------------------------------------------------- #
    def run_epoch(
        self,
        estimator: MGCPL,
        codes: np.ndarray,
        n_categories: Sequence[int],
        labels_init: np.ndarray,
        k: int,
        rng: np.random.Generator,
    ):
        """One online epoch, bit-identical to the serial reference."""
        n, d = codes.shape
        eta = estimator.learning_rate
        labels = np.asarray(labels_init, dtype=np.int64).copy()
        # Shard engines for this k (restored per block by online_sims); the
        # coordinator's own live counts come from the exact counting kernel.
        self.executor.begin_epoch(k, labels)
        state = state_from_labels(codes, n_categories, labels, k)
        offsets = _pack_offsets(n_categories)
        packed_codes = np.where(codes >= 0, codes + offsets[None, :], -1)
        use_omega = estimator.use_feature_weights

        delta = np.ones(k, dtype=np.float64)
        wins_prev = np.zeros(k, dtype=np.float64)
        omega = np.full((d, k), 1.0 / d)
        alive = np.ones(k, dtype=bool)
        starved_this_epoch = False

        row_shard, row_local = self._locate_rows(n)
        n_sweeps = 0
        for sweep in range(estimator.max_sweeps):
            n_sweeps = sweep + 1
            changed = False
            wins_current = np.zeros(k, dtype=np.float64)
            win_gain = np.zeros(k, dtype=np.float64)
            win_sim_total = np.zeros(k, dtype=np.float64)
            rival_pen = np.zeros(k, dtype=np.float64)
            rho = winning_ratio(wins_prev, alive)

            order = rng.permutation(n)
            omega_arg = omega if use_omega else None
            for start in range(0, n, self.block_rows):
                if self._maybe_split():
                    row_shard, row_local = self._locate_rows(n)
                block = order[start : start + self.block_rows]
                sims_block = self._block_sims(
                    state, omega_arg, block, labels, row_shard, row_local, k
                )
                dirty = np.zeros(k, dtype=bool)
                for j in range(block.size):
                    i = int(block[j])
                    sims = sims_block[j]
                    excl = int(labels[i])
                    if dirty.any():
                        # Patch the entries whose counts moved since the
                        # block's broadcast — exact engine arithmetic.
                        for cluster in np.flatnonzero(dirty):
                            sims[cluster] = _exact_similarity(
                                state, packed_codes[i], int(cluster), excl,
                                omega_arg, d,
                            )
                    v = online_competition_step(
                        sims, state.sizes, alive, rho, delta, eta,
                        wins_current, win_gain, win_sim_total, rival_pen,
                    )
                    if labels[i] != v:
                        if labels[i] >= 0:
                            _state_remove(state, packed_codes[i], labels[i])
                            dirty[labels[i]] = True
                        _state_add(state, packed_codes[i], v)
                        dirty[v] = True
                        labels[i] = v
                        changed = True

            wins_prev = wins_current
            if use_omega:
                omega = state.feature_cluster_weights()
            if not changed or sweep == estimator.max_sweeps - 1:
                starving = estimator._select_starving(
                    alive, win_gain - rival_pen, wins_current, win_gain,
                    win_sim_total,
                )
                if starved_this_epoch or not starving.any():
                    break
                starved_this_epoch = True
                alive &= ~starving
                delta[starving] = -20.0
        labels = estimator._reassign_dead_members(
            codes, n_categories, labels, alive, omega
        )
        return labels, delta, n_sweeps


class _KeepOpen:
    """Executor proxy whose ``close`` is a no-op (residency across fits).

    ``MGCPL._fit`` closes its executor in a ``finally:`` — correct for
    per-fit backends, fatal for a resident fleet.  The estimator hands the
    fit loop this proxy and owns the real executor's lifetime itself.
    """

    def __init__(self, executor) -> None:
        self._executor = executor

    def __getattr__(self, name):
        return getattr(self._executor, name)

    def close(self) -> None:  # noqa: D102 - intentional no-op
        pass

    def __enter__(self) -> "_KeepOpen":
        return self

    def __exit__(self, *exc) -> None:
        pass


# ---------------------------------------------------------------------- #
# The estimator face
# ---------------------------------------------------------------------- #
@register_clusterer(
    "mgcpl@streaming",
    aliases=("streaming-mgcpl", "streaming_mgcpl"),
    description="MGCPL online epochs over resident append-capable shard workers",
    example_params={"hosts": ["127.0.0.1:7000"], "block_rows": 128},
)
class StreamingMGCPL(_ShardedMixin, MGCPL):
    """MGCPL whose online epochs run over a resident streaming fleet.

    ``fit`` drives the mini-batch online mode of
    :class:`StreamingCoordinator` — bit-identical to the serial
    ``update_mode="online"`` reference on the same seed — over long-lived
    workers that stay resident between calls.  ``ingest`` both updates the
    fitted assignment model (exact merge, as in the base contract) *and*
    forwards the batch to the fleet as appends, so a later :meth:`refit`
    is warm: every worker already holds its rows and the handshake ships
    zero payload bytes (the shard cache makes even a recovery free).

    Parameters beyond MGCPL's: ``n_shards``/``backend``/``hosts``/
    ``backend_options`` as in ``ShardedMGCPL`` (default backend
    ``"tcp"``), ``block_rows`` (mini-batch size of the online mode),
    and the hot-shard policy ``split_rows``/``split_seconds`` (both off by
    default; splits never change results, only block latency).
    """

    _executor_in_online_mode = True

    def __init__(
        self,
        n_shards=None,
        backend: str = "tcp",
        hosts: Optional[Sequence[str]] = None,
        backend_options=None,
        block_rows: int = 256,
        split_rows: Optional[int] = None,
        split_seconds: Optional[float] = None,
        **mgcpl_params,
    ) -> None:
        mgcpl_params.setdefault("update_mode", "online")
        if mgcpl_params["update_mode"] != "online":
            raise ValueError(
                "StreamingMGCPL drives update_mode='online'; use ShardedMGCPL "
                "for sharded batch epochs"
            )
        if mgcpl_params.get("engine") == "loop":
            raise ValueError(
                "the streaming runtime patches similarities with the packed "
                "engines' arithmetic; engine='loop' sums in a different order "
                "— use 'auto', 'dense' or 'compiled'"
            )
        self._init_sharding(n_shards, backend, None, hosts, backend_options)
        super().__init__(**mgcpl_params)
        self.block_rows = int(block_rows)
        if self.block_rows < 1:
            raise ValueError("block_rows must be >= 1")
        self.split_rows = split_rows
        self.split_seconds = split_seconds
        self._resident_executor: Optional[ResilientTCPExecutor] = None

    # -- residency -------------------------------------------------------- #
    def _make_executor(self, codes: np.ndarray, n_categories):
        resident = self._resident_executor
        if (
            resident is not None
            and resident._codes.shape == codes.shape
            and np.array_equal(resident._codes, codes)
        ):
            # Warm path: the fleet already holds exactly these rows
            # (original + appends); nothing travels.
            self.last_executor_ = resident
            return _KeepOpen(resident)
        if resident is not None:
            resident.close()
            self._resident_executor = None
        executor = self._make_coordinator(codes, n_categories, self.engine)
        self._resident_executor = executor
        return _KeepOpen(executor)

    def _epoch_online(self, codes, n_categories, labels_init, k, rng, executor=None):
        if executor is None:  # direct callers outside _fit
            executor = self._make_executor(codes, n_categories)
        coordinator = StreamingCoordinator(
            executor,
            block_rows=self.block_rows,
            split_rows=self.split_rows,
            split_seconds=self.split_seconds,
        )
        return coordinator.run_epoch(self, codes, n_categories, labels_init, k, rng)

    # -- the streaming write path ----------------------------------------- #
    def ingest(self, X: ArrayOrDataset) -> np.ndarray:
        """Exact-merge the batch into the fitted model AND append it to the
        resident fleet, so the next :meth:`refit` is warm."""
        labels = super().ingest(X)
        if self._resident_executor is not None:
            codes = np.ascontiguousarray(extract_codes(X), dtype=np.int64)
            # Values outside the fitted vocabulary behave like missing for
            # assignment; map them to missing for the resident engines too.
            vocab = np.asarray(
                self._resident_executor._n_categories, dtype=np.int64
            )
            codes = np.where((codes >= 0) & (codes < vocab[None, :]), codes, -1)
            self._resident_executor.append_rows(codes)
        return labels

    def refit(self) -> "StreamingMGCPL":
        """Warm re-fit over everything the fleet holds (original + appends).

        The global row order is the original rows followed by appends in
        arrival order; with a fixed ``random_state`` this is exactly the
        scratch fit a serial estimator would run on the concatenated data —
        but no shard payload travels, because every worker is resident.
        """
        if self._resident_executor is None:
            raise RuntimeError("refit needs a resident fleet: call fit first")
        executor = self._resident_executor
        dataset = CategoricalDataset.from_codes(
            executor._codes,
            n_categories=list(executor._n_categories),
            name="streaming-resident",
        )
        return self.fit(dataset)

    # -- lifecycle --------------------------------------------------------- #
    def close(self) -> None:
        """Shut the resident fleet down (idempotent)."""
        if self._resident_executor is not None:
            self._resident_executor.close()
            self._resident_executor = None

    def __enter__(self) -> "StreamingMGCPL":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
