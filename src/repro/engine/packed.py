"""The packed, fully vectorised frequency-table backend.

The per-feature count tables ``counts[r]`` of shape ``(k, m_r)`` are
flattened into one ``(k, M)`` matrix with ``M = sum_r m_r`` and per-feature
column offsets, so that every operation of the
:class:`repro.engine.base.FrequencyEngine` protocol is a handful of NumPy
ops with no Python loop over features or clusters:

* ``rebuild`` is one :func:`numpy.bincount` over linearised
  ``(cluster, packed value)`` indices, with spare bins for missing values
  and unassigned objects;
* ``add``/``remove``/``move`` and their bulk variants are fancy-indexed
  increments on the packed matrix (the packed columns of one object are
  pairwise distinct, so even the single-object path needs no ``np.add.at``);
  ``move_many``, which updates a shard's counts from the rows a sweep
  moved, counts the moved objects' cells as ``rebuild`` does, gathering
  them once for both signs;
* ``similarity_matrix`` is a one-hot encoding of the objects multiplied
  (BLAS) with the column-normalised, weight-scaled packed counts, with the
  leave-one-out correction read from a per-cell table (below);
* ``competitive_sweep`` — MGCPL's batch sweep — is the same kernel fused
  with scoring and winner/rival selection, one cache-sized row block at a
  time (see below), and ``nearest_clusters`` — MGCPL's reassignment of
  objects stranded in eliminated clusters — scores only those objects;
* the Eqs. 15-18 statistics reduce per-feature segments of the packed matrix
  with :func:`numpy.add.reduceat`.

The leave-one-out correction
----------------------------
An object's similarity to its own cluster replaces every feature's
``count / valid`` by ``(count - 1) / (valid - 1)``.  One ``(k, M + 1)``
table holds that term, times ``omega``, for every cell, plus a zero column
for missing values; an object's own-cluster similarity is then ``d`` flat
gathers from its own row, added in ascending feature order and divided by
``d``.  That is :class:`~repro.engine.reference.LoopEngine`'s operation
order, so the packed backends match it bit for bit at any ``d`` (NumPy's row
``sum`` is pairwise from eight terms up and would not).

The fused sweep
---------------
Scoring a whole sweep at once would write and re-read several ``(n, k)``
float matrices (similarities, scores, the argmax passes and gathers over
them) — at ``n = 50 000``, ``k = 224`` each is ~89 MB, far beyond L2.  The
fused sweep computes every object's leave-one-out similarity once, then
runs each block of rows through similarity, the correction, scoring and
selection before the next block starts.  A block's one-hot is cast from
the one-byte cache into a float64 ``(rows, M)`` buffer, its similarities
and scores live in two ``(rows, k)`` buffers, and its leave-one-out keys
in a ``(d, rows)`` int64 array; only five per-row vectors (winners,
rivals, their similarities, has-rival) outlive a block.  The Eqs. 10-13
statistics are then accumulated once over the full vectors in object
order, exactly as over an unblocked sweep.

Block workers
-------------
Every row of a block is independent of every other, and the NumPy passes
over a block (the leave-one-out gathers, the GEMM, scoring, the argmax
passes and gathers of selection) release the GIL.  So the blocks of a sweep
run on :func:`block_workers` threads — the process's CPU share
(:func:`repro.utils.blas.cpu_share`), one per block at most, and only the
calling thread below two blocks.  Each worker takes the next block from a
shared iterator into its own three buffers and writes only that block's
slices of the five vectors; the statistics still run once, in object order,
after all workers are done.  While they run, OpenBLAS is held at one thread,
so workers and BLAS threads never oversubscribe the cores, and the caller's
count is given back afterwards.  The Hamming distances split their rows
among the same number of workers; a Hamming row is computed whole by one
worker.  No thread outlives the call,
so a fork never inherits a pool.  The public methods and ``_one_hot`` run on
the calling thread only (above the one-hot cap, below, the caller encodes
each wave of blocks before the workers score it), so a tracer that wraps
them by name still nests their spans under the caller's.

MGCPL's reassignment after a granularity level (``nearest_clusters``)
splits only the stranded rows into sweep blocks and runs them on the same
block workers: the calling thread gathers and encodes a wave of blocks, one
per worker, and each worker scores its block into its own buffer.  It
holds OpenBLAS at one thread even with one worker, so no BLAS helper
thread is left spinning into the next sweep.  Only those rows are encoded
and scored, and no ``(n, k)`` array exists at any point of a fit.

A block's whole working set — the float64 one-hot cast, the two
``(rows, k)`` buffers and the leave-one-out keys, :func:`block_row_bytes`
a row — fits :data:`SWEEP_BLOCK_BYTES` (4 MiB), so blocks shrink as ``M``,
``k`` or ``d`` grow and no longer grow without bound as ``k`` falls.  But a
block never has fewer than :data:`SWEEP_BLOCK_MIN_ROWS` rows nor fewer than
:data:`SWEEP_BLOCK_MIN_MACS` multiply-adds (:func:`block_floor`); where the
floor binds (``k = 224`` or ``k = 5`` at ``M = 72``) a block may outgrow
the budget.  The rows are split evenly, so there is no short tail block,
into as few blocks as the budget allows, rounded up to a multiple of the
worker count.  Only a pass over fewer rows than the floor has a short
block — a small engine or shard, a short reassignment tail — and its
one-hot is multiplied padded with zero rows up to the floor, the padded
rows' products dropped before the leave-one-out correction.  The floors
keep every block bit-identical to the whole-matrix product.  OpenBLAS does
not give the same bits for every shape: a single-row product differs at
every ``k``, and on AVX-512 builds a product of at most 10**6 multiply-adds
goes through a small-matrix kernel that sums the trailing cluster columns
in another order (at ``k = 19`` and ``M = 30``, blocks below ~1750 rows
differ in about two thirds of the rows).  Above both floors a block
reproduces the full ``onehot @ weights`` — itself equal to the per-feature,
loop-order sum — bit for bit.  ``similarity_matrix`` walks the same blocks.

Bounded memory
--------------
An engine caches the ``(n, M)`` one-hot of its own codes at one byte a cell
(``bool``, 3.6 MB at ``n = 50 000``, ``M = 72``, where float64 took 28.8 MB)
while it has at most :data:`ONEHOT_MAX_CELLS` cells (64 MB), and each block
worker casts its block's slice into its own float64 buffer, so the GEMM
multiplies C-contiguous float64 rows.  Above the cap every block is
encoded afresh.  Either way the bits are the same, and besides the per-row
codes and vectors of the engine, a pass holds at most one block's working
set per worker: :data:`SWEEP_BLOCK_BYTES` while the floor does not bind.
The cache stays because it pays for its byte a cell: at ``n = 50 000`` a
streamed sweep took about twice a cached one at ``k = 8`` (15.6 against
8.0 ms, 2-CPU host) and 1.6 times at ``k = 224`` (65 against 42 ms).  CAME's weighted Hamming assignment needs no one-hot at all
(:meth:`~repro.engine.base.FrequencyEngine.hamming_distances`), and MGCPL's
reassignment builds an engine over its stranded rows only.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.base import FrequencyEngine
from repro.engine.state import (
    EngineState,
    counts_feature_cluster_weights,
    counts_inter_cluster_difference,
    counts_intra_cluster_similarity,
    counts_modes,
    expand_per_feature,
)
from repro.utils.blas import cpu_share, one_blas_thread, run_in_threads
from repro.utils.validation import check_array_2d, check_positive_int

#: ``n * M`` one-hot cells up to which an engine caches its codes' whole
#: one-hot (64M one-byte cells = 64 MB); above it each block is encoded afresh.
ONEHOT_MAX_CELLS = 1 << 26

#: Byte budget of one fused-sweep block's whole working set
#: (:func:`block_row_bytes` per row).
SWEEP_BLOCK_BYTES = 1 << 22

#: Fewest rows in a fused-sweep block; thinner GEMMs change the bits.
SWEEP_BLOCK_MIN_ROWS = 1024

#: Fewest multiply-adds (``rows * M * k``) in a fused-sweep block's GEMM.
#: OpenBLAS's AVX-512 builds hand products of up to 10**6 of them to
#: small-matrix kernels that sum the trailing columns in another order.
SWEEP_BLOCK_MIN_MACS = 1 << 21


def block_floor(k: int, n_values: int) -> int:
    """Fewest rows of a block whose GEMM keeps the whole-matrix bits."""
    return max(SWEEP_BLOCK_MIN_ROWS, SWEEP_BLOCK_MIN_MACS // (k * n_values) + 1)


def block_row_bytes(k: int, n_values: int, n_features: int) -> int:
    """Working-set bytes of one row of a sweep block.

    Its float64 one-hot row (``M`` cells), its rows of the two ``(rows, k)``
    float64 buffers (similarities and scores) and its ``d`` int64
    leave-one-out keys.
    """
    return 8 * (n_values + 2 * k + n_features)


def sweep_rows(k: int, n_values: int, n_features: int) -> int:
    """Most rows of a fused-sweep block within :data:`SWEEP_BLOCK_BYTES`, floor permitting."""
    return max(
        block_floor(k, n_values),
        SWEEP_BLOCK_BYTES // block_row_bytes(k, n_values, n_features),
    )


def even_blocks(n: int, n_blocks: int) -> List[Tuple[int, int]]:
    """``(start, stop)`` of ``n_blocks`` near-equal blocks of ``n`` rows."""
    return [(i * n // n_blocks, (i + 1) * n // n_blocks) for i in range(n_blocks)]


def sweep_blocks(
    n: int, k: int, n_values: int, n_features: int, workers: int = 1
) -> List[Tuple[int, int]]:
    """``(start, stop)`` row blocks of a fused sweep over ``n`` objects.

    Near-equal blocks of at most :func:`sweep_rows` rows, as few as that
    allows, their count rounded up to a multiple of ``workers`` so the
    threads get equal shares.  No block may fall below :func:`block_floor`:
    where that many blocks would, there are ``n // floor`` (at least one),
    rounded down to a multiple of ``workers`` when there are at least that
    many, and only then can a block outgrow the byte budget.
    """
    workers = max(1, workers)
    n_blocks = -(-n // sweep_rows(k, n_values, n_features))
    n_blocks = -(-n_blocks // workers) * workers
    most = max(1, n // block_floor(k, n_values))
    if n_blocks > most:
        n_blocks = most - most % min(workers, most)
    return even_blocks(n, max(1, n_blocks))


def block_workers(n_blocks: int) -> int:
    """Block workers for a pass of ``n_blocks`` sweep blocks.

    The process's :func:`~repro.utils.blas.cpu_share`, at most one per
    block, and one (the calling thread alone) below two blocks, so small
    passes — served predicts, small ingests — never start a thread.
    """
    return 1 if n_blocks < 2 else min(n_blocks, cpu_share())


def select_winners(
    sims: np.ndarray,
    t: np.ndarray,
    blocked: np.ndarray,
    scores: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Winner/rival selection of MGCPL's competition for a block of objects.

    Scores are ``t_l * sim`` with ``t = (1 - rho) * u`` and ``-inf`` for
    blocked clusters; ties go to the lowest cluster index (``argmax``).
    Returns ``(winners, rivals, winner_sims, rival_sims, has_rival)``; an
    object without a finite runner-up has ``rival_sims == 0``.  ``scores``
    is an optional C-contiguous buffer of the shape of ``sims`` to hold the
    scores (the fused sweep reuses one across its blocks).
    """
    b, k = sims.shape
    scores = np.multiply(sims, t, out=scores)
    if blocked.any():
        scores[:, blocked] = -np.inf
    first = np.arange(b) * k  # flat index of each row's first cell
    winners = scores.argmax(axis=1)
    np.put(scores, first + winners, -np.inf)
    rivals = scores.argmax(axis=1)
    has_rival = np.isfinite(scores.take(first + rivals))
    winner_sims = sims.take(first + winners)
    rival_sims = np.where(has_rival, sims.take(first + rivals), 0.0)
    return winners, rivals, winner_sims, rival_sims, has_rival


def competition_statistics(
    winners: np.ndarray,
    rivals: np.ndarray,
    winner_sims: np.ndarray,
    rival_sims: np.ndarray,
    has_rival: np.ndarray,
    k: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eqs. 10-13 statistics of one sweep, accumulated in object order.

    Returns ``(win_counts, win_gain, rival_pen, rival_counts,
    win_sim_total)``.  Float addition is not associative, so callers pass
    the whole sweep's vectors rather than summing per-block partials.
    """
    win_counts = np.bincount(winners, minlength=k).astype(np.float64)
    margins = np.clip(winner_sims - rival_sims, 0.0, None)
    win_gain = np.bincount(winners, weights=margins, minlength=k)
    win_sim_total = np.bincount(winners, weights=winner_sims, minlength=k)
    rival_pen = np.zeros(k, dtype=np.float64)
    rival_counts = np.zeros(k, dtype=np.float64)
    if has_rival.any():
        np.add.at(rival_pen, rivals[has_rival], rival_sims[has_rival])
        rival_counts = np.bincount(rivals[has_rival], minlength=k).astype(np.float64)
    return win_counts, win_gain, rival_pen, rival_counts, win_sim_total


class OneHotCache:
    """Identity-keyed cache of dense one-hot encodings.

    The ``(n, M)`` one-hot of a data matrix depends only on the codes array
    and the vocabulary — not on ``k`` — yet every ``begin_epoch`` of a
    granularity ladder, and every restart of an experiment trial, builds a
    fresh engine and used to re-encode the same immutable matrix.  Sharing
    one cache across those engines makes the encoding a build-once artifact.

    Keys are ``(codes identity, vocabulary)``: a hit requires the *same*
    array object (``is``), which is safe against mutation-by-copy and cheap
    to check, and works because :func:`repro.core.base.coerce_codes` and
    :func:`repro.core.sync.shard_view` preserve identity on the serial path.
    Entries hold strong references; ``capacity`` bounds them (FIFO eviction)
    so a long-lived cache cannot accumulate encodings of dead datasets.
    """

    def __init__(self, capacity: int = 2) -> None:
        self.capacity = check_positive_int(capacity, "capacity")
        self._entries: list = []  # [(codes, vocab tuple, onehot), ...]
        self.hits = 0
        self.misses = 0

    def lookup(self, codes: np.ndarray, n_categories: Sequence[int]) -> Optional[np.ndarray]:
        vocab = tuple(n_categories)
        for cached_codes, cached_vocab, onehot in self._entries:
            if cached_codes is codes and cached_vocab == vocab:
                self.hits += 1
                return onehot
        self.misses += 1
        return None

    def store(self, codes: np.ndarray, n_categories: Sequence[int], onehot: np.ndarray) -> None:
        self._entries.append((codes, tuple(n_categories), onehot))
        while len(self._entries) > self.capacity:
            self._entries.pop(0)


class PackedFrequencyEngine(FrequencyEngine):
    """Packed counts, BLAS similarity kernels and MGCPL's blocked sweep.

    The ``dense`` engine (``"auto"``, ``"chunked"`` and ``"compiled"`` are
    aliases of it).  The one-hot of the engine's own codes is
    cached while it has at most :data:`ONEHOT_MAX_CELLS` cells and encoded
    one row block at a time above that (module docstring); the results are
    bit-identical either way, and to
    :class:`~repro.engine.reference.LoopEngine` at any ``d``.

    Attributes
    ----------
    packed:
        ``(k, M)`` matrix of value counts; column ``offsets[r] + t`` holds
        ``Psi_{F_r = f_rt}(C_l)`` for every cluster ``l``.
    offsets:
        ``(d,)`` start column of each feature's segment.
    valid_counts:
        ``(k, d)`` matrix of non-missing counts ``Psi_{F_r != NULL}(C_l)``.
    sizes:
        ``(k,)`` cluster cardinalities.
    """

    def __init__(
        self,
        codes,
        n_categories: Sequence[int],
        n_clusters: int,
        onehot_cache: Optional[OneHotCache] = None,
    ) -> None:
        self.codes = check_array_2d(codes, "codes", dtype=np.int64)
        self._onehot_cache = onehot_cache
        self.n_clusters = check_positive_int(n_clusters, "n_clusters")
        self.n_categories = [int(m) for m in n_categories]
        n, d = self.codes.shape
        if len(self.n_categories) != d:
            raise ValueError(f"n_categories must have length {d}, got {len(self.n_categories)}")
        if any(m < 1 for m in self.n_categories):
            raise ValueError("every feature needs a vocabulary of at least one value")
        self._vocab_sizes = np.asarray(self.n_categories, dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(self._vocab_sizes)[:-1]))
        self.n_values = int(self._vocab_sizes.sum())
        self.packed = np.zeros((self.n_clusters, self.n_values), dtype=np.float64)
        self.valid_counts = np.zeros((self.n_clusters, d), dtype=np.float64)
        self.sizes = np.zeros(self.n_clusters, dtype=np.float64)
        self._packed_codes = self.pack(self.codes)
        self._onehot: Optional[np.ndarray] = None
        self._caches_one_hot = n * self.n_values <= ONEHOT_MAX_CELLS
        # Idle (buffer, dirty rows) pads of short blocks (_padded_product).
        self._pads: List[Tuple[np.ndarray, int]] = []

    # ------------------------------------------------------------------ #
    # Packed-layout helpers
    # ------------------------------------------------------------------ #
    def pack(self, codes: np.ndarray) -> np.ndarray:
        """Shift codes into packed column space (missing values stay ``-1``).

        Values outside a feature's vocabulary are rejected — in the packed
        layout they would silently bleed into the next feature's columns.
        """
        if codes.shape[0] and (codes.max(axis=0) >= self._vocab_sizes).any():
            raise ValueError("codes contain values outside the declared vocabularies")
        return np.where(codes >= 0, codes + self.offsets[None, :], -1)

    def _expand(self, per_feature: np.ndarray) -> np.ndarray:
        """Broadcast a per-feature row/matrix across each feature's columns."""
        return expand_per_feature(per_feature, self.n_categories)

    def _segment_sums(self, matrix: np.ndarray) -> np.ndarray:
        """Per-feature segment sums of a ``(k, M)`` matrix: shape ``(k, d)``."""
        return np.add.reduceat(matrix, self.offsets, axis=1)

    # ------------------------------------------------------------------ #
    # Construction / bulk updates
    # ------------------------------------------------------------------ #
    def _row_blocks(self, n: int) -> Tuple[List[Tuple[int, int]], int]:
        """``(blocks, workers)`` of a fused-sweep pass over ``n`` rows."""
        shape = (self.n_clusters, self.n_values, self.codes.shape[1])
        workers = block_workers(len(sweep_blocks(n, *shape)))
        return sweep_blocks(n, *shape, workers), workers

    def _row_parts(self, n: int) -> Tuple[List[Tuple[int, int]], int]:
        """One contiguous part of ``n`` rows per block worker, and their count.

        For row-independent passes with no GEMM (the Hamming distances): as
        many workers as a fused sweep over the rows would use.
        """
        _, workers = self._row_blocks(n)
        return even_blocks(n, workers), workers

    def rebuild(self, labels) -> None:
        labels = np.asarray(labels, dtype=np.int64)
        n = self.codes.shape[0]
        if labels.shape[0] != n:
            raise ValueError("labels must have one entry per object")
        if n and labels.max() >= self.n_clusters:
            raise ValueError(f"labels must be below n_clusters={self.n_clusters}")
        assigned = labels >= 0
        self.sizes[:] = np.bincount(labels[assigned], minlength=self.n_clusters)
        # Missing values (the cells' last column) and unassigned objects (an
        # extra cluster row) are counted in bins that are then dropped, so no
        # mask is built.  One thread: splitting this pass over the block
        # workers was slower, as numpy's bincount scales poorly across threads.
        k, width = self.n_clusters, self.n_values + 1
        lin = np.where(assigned, labels, k) * width + self._cached_loo_cells()
        counts = np.bincount(lin.ravel(), minlength=(k + 1) * width).reshape(k + 1, width)
        self.packed[:] = counts[:k, :-1]
        self.valid_counts[:] = self._segment_sums(self.packed)

    def add(self, i: int, cluster: int) -> None:
        self.sizes[cluster] += 1
        row = self._packed_codes[i]
        present = row >= 0
        # Packed columns of one object are pairwise distinct, so plain
        # fancy-indexed increments are safe (no np.add.at needed).
        self.packed[cluster, row[present]] += 1.0
        self.valid_counts[cluster, present] += 1.0

    def remove(self, i: int, cluster: int) -> None:
        if self.sizes[cluster] <= 0:
            raise ValueError(f"Cluster {cluster} is already empty")
        self.sizes[cluster] -= 1
        row = self._packed_codes[i]
        present = row >= 0
        self.packed[cluster, row[present]] -= 1.0
        self.valid_counts[cluster, present] -= 1.0

    def add_many(self, indices, clusters) -> None:
        self._bulk_update(indices, clusters, +1.0)

    def remove_many(self, indices, clusters) -> None:
        self._bulk_update(indices, clusters, -1.0)

    def _bulk_update(self, indices, clusters, sign: float) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        clusters = np.asarray(clusters, dtype=np.int64)
        if indices.shape != clusters.shape:
            raise ValueError("indices and clusters must have the same shape")
        if indices.size == 0:
            return
        k, M, d = self.n_clusters, self.n_values, self.codes.shape[1]
        delta = np.bincount(clusters, minlength=k)[:k]
        if sign < 0 and (self.sizes < delta).any():
            empty = int(np.flatnonzero(self.sizes < delta)[0])
            raise ValueError(f"Cluster {empty} is already empty")
        self.sizes += sign * delta
        pc = self._packed_codes[indices]
        mask = pc >= 0
        lin = clusters[:, None] * M + pc
        self.packed += sign * np.bincount(lin[mask], minlength=k * M).reshape(k, M)
        lin_valid = clusters[:, None] * d + np.arange(d)[None, :]
        self.valid_counts += sign * np.bincount(lin_valid[mask], minlength=k * d).reshape(k, d)

    def move_many(self, indices, sources, targets) -> None:
        """Bulk moves as one count of the objects' cells, gathered once.

        Each object's cells are counted under its target and subtracted
        under its source; a source of ``-1`` (unassigned) lands in a spare
        cluster row that is dropped, and an object whose source is its
        target adds and subtracts the same cells.
        """
        indices = np.asarray(indices, dtype=np.int64)
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if not indices.shape == sources.shape == targets.shape:
            raise ValueError("indices, sources and targets must have the same shape")
        k, width = self.n_clusters, self.n_values + 1
        sources = np.where(sources >= 0, sources, k)
        sizes = np.bincount(targets, minlength=k + 1) - np.bincount(sources, minlength=k + 1)
        if (self.sizes + sizes[:k] < 0).any():
            empty = int(np.flatnonzero(self.sizes + sizes[:k] < 0)[0])
            raise ValueError(f"Cluster {empty} is already empty")
        cells = self._cached_loo_cells()[:, indices]
        bins = (k + 1) * width
        counts = np.bincount((targets * width + cells).ravel(), minlength=bins)
        counts -= np.bincount((sources * width + cells).ravel(), minlength=bins)
        counts = counts.reshape(k + 1, width)[:k, :-1]
        self.sizes += sizes[:k]
        self.packed += counts
        self.valid_counts += self._segment_sums(counts)

    # ------------------------------------------------------------------ #
    # Sufficient-statistics snapshots (sharded execution)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> EngineState:
        return EngineState(
            self.packed.copy(),
            self.valid_counts.copy(),
            self.sizes.copy(),
            tuple(self.n_categories),
        )

    def restore(self, state: EngineState) -> None:
        if tuple(state.n_categories) != tuple(self.n_categories):
            raise ValueError(
                "EngineState vocabulary does not match this engine: "
                f"{state.n_categories} vs {tuple(self.n_categories)}"
            )
        if state.n_clusters != self.n_clusters:
            raise ValueError(
                f"EngineState has {state.n_clusters} clusters, engine has {self.n_clusters}"
            )
        self.packed[:] = state.packed
        self.valid_counts[:] = state.valid_counts
        self.sizes[:] = state.sizes

    # ------------------------------------------------------------------ #
    # Similarities (Eqs. 1-2 and 14)
    # ------------------------------------------------------------------ #
    def _column_weights(self, feature_weights: Optional[np.ndarray]) -> np.ndarray:
        """``(M, k)`` matrix turning a one-hot row into Eq. 1 / Eq. 14 terms.

        Column ``offsets[r] + t`` of cluster ``l`` holds
        ``omega_rl * Psi_{F_r = f_rt}(C_l) / Psi_{F_r != NULL}(C_l)``.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_valid = np.where(self.valid_counts > 0, 1.0 / self.valid_counts, 0.0)
        weights = self.packed * self._expand(inv_valid)
        if feature_weights is not None:
            weights = weights * self._expand(np.asarray(feature_weights, dtype=np.float64).T)
        return np.ascontiguousarray(weights.T)

    def _one_hot(self, packed_codes: np.ndarray) -> np.ndarray:
        """Dense ``(b, M)`` one-hot encoding of a block of packed codes, one byte a cell.

        Every column compares its feature's code with its own packed value,
        written straight into the one-hot (a missing ``-1`` matches no
        column).  The rows go in chunks whose gathered ``(rows, M)`` int64
        codes fit :data:`SWEEP_BLOCK_BYTES`, so no ``(b, d)`` index array
        is built.
        """
        b, M = packed_codes.shape[0], self.n_values
        onehot = np.empty((b, M), dtype=np.bool_)
        features = np.repeat(np.arange(len(self.n_categories)), self.n_categories)
        columns = np.arange(M)
        chunk = max(1, SWEEP_BLOCK_BYTES // (8 * M))
        for start in range(0, b, chunk):
            part = slice(start, start + chunk)
            np.equal(packed_codes[part].take(features, axis=1), columns, out=onehot[part])
        return onehot

    def _loo_table(self, feature_weights: Optional[np.ndarray]) -> np.ndarray:
        """``(k, M + 1)`` table of leave-one-out own-cluster terms.

        Cell ``(l, offsets[r] + t)`` holds ``omega_rl * (count - 1) /
        (valid - 1)`` when cluster ``l`` has more than one non-missing value
        of feature ``r`` and zero otherwise — the correction MGCPL applies so
        an object does not inflate its affiliation with the cluster it is
        already in.  The last column is zero: a missing value adds nothing.
        """
        valid = self._expand(self.valid_counts)
        table = np.zeros((self.n_clusters, self.n_values + 1), dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            table[:, :-1] = np.where(valid > 1, (self.packed - 1.0) / (valid - 1.0), 0.0)
        if feature_weights is not None:
            table[:, :-1] *= self._expand(np.asarray(feature_weights, dtype=np.float64).T)
        return table

    def _loo_cells(self, packed_codes: np.ndarray) -> np.ndarray:
        """``(d, b)`` :meth:`_loo_table` columns of a block of packed codes.

        A missing value maps to the table's zero column.  Feature-major, so
        each feature's cells are contiguous for :meth:`_loo_own_similarity`.
        """
        return np.ascontiguousarray(np.where(packed_codes >= 0, packed_codes, self.n_values).T)

    def _cached_loo_cells(self) -> np.ndarray:
        """:meth:`_loo_cells` of the engine's own codes, built once per codes array."""
        cached = getattr(self, "_own_loo_cells", None)
        if cached is None or cached[0] is not self._packed_codes:
            cached = (self._packed_codes, self._loo_cells(self._packed_codes))
            self._own_loo_cells = cached
        return cached[1]

    def _loo_own_similarity(
        self, cells: np.ndarray, own: np.ndarray, loo_table: np.ndarray
    ) -> np.ndarray:
        """Leave-one-out similarity of each object to its cluster ``own``: ``(b,)``.

        ``cells`` are the objects' :meth:`_loo_cells`.  Their table entries
        in row ``own`` are added one feature at a time in ascending order, as
        :class:`~repro.engine.reference.LoopEngine` adds them (NumPy's row
        ``sum`` is pairwise from eight terms up and would differ in the last
        bit), and the total is divided by ``d``.
        """
        d = cells.shape[0]
        rows = cells + own * loo_table.shape[1]
        flat = loo_table.ravel()
        total = np.zeros(own.shape[0], dtype=np.float64)
        for r in range(d):
            total += flat.take(rows[r])
        return total / d

    def _similarity_block(
        self,
        onehot: np.ndarray,
        column_weights: np.ndarray,
        own: Optional[np.ndarray] = None,
        loo: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
        *,
        cast: np.ndarray,
    ) -> np.ndarray:
        """``(b, k)`` similarities of a block of objects, from its one-hot.

        With ``own`` given, the cell of object ``i``'s cluster ``own[i] >= 0``
        holds its leave-one-out similarity ``loo[i]`` instead.  ``out`` is an
        optional C-contiguous ``(b, k)`` buffer for the result.  The one-byte
        ``onehot`` is cast into ``cast``, a C-contiguous float64 ``(b, M)``
        buffer, so the GEMM multiplies float64 rows.  A block of
        fewer than :func:`block_floor` rows is cast into a zero-padded buffer
        of the floor's rows instead, so its GEMM keeps the whole-matrix bits
        too.
        """
        if onehot.shape[0] < block_floor(self.n_clusters, self.n_values):
            sims = self._padded_product(onehot, column_weights)
            if out is not None:
                out[...] = sims
                sims = out
        else:
            np.copyto(cast, onehot)
            sims = np.matmul(cast, column_weights, out=out)
        sims /= self.codes.shape[1]
        if own is not None:
            rows = np.flatnonzero(own >= 0)
            np.put(sims, rows * self.n_clusters + own[rows], loo[rows])
        return sims

    def _padded_product(self, onehot: np.ndarray, column_weights: np.ndarray) -> np.ndarray:
        """``onehot @ column_weights`` of a short block, padded to :func:`block_floor` rows.

        The zero-padded ``(floor, M)`` buffer is reused across calls: only
        the rows a previous block filled and this one does not are zeroed
        again.  A call pops an idle buffer off the engine's list (an atomic
        ``pop``) and puts it back when done, so two threads never share one.
        """
        b = onehot.shape[0]
        try:
            padded, dirty = self._pads.pop()
        except IndexError:
            floor = block_floor(self.n_clusters, self.n_values)
            padded, dirty = np.zeros((floor, self.n_values), dtype=np.float64), 0
        padded[b:dirty] = 0.0
        padded[:b] = onehot
        try:
            return (padded @ column_weights)[:b]
        finally:
            self._pads.append((padded, b))

    def similarity_matrix(
        self,
        codes=None,
        feature_weights: Optional[np.ndarray] = None,
        exclude_labels: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        own_codes = codes is None
        if own_codes:
            packed_codes = self._packed_codes
        else:
            codes = check_array_2d(codes, "codes", dtype=np.int64)
            if codes.shape[1] != self.codes.shape[1]:
                raise ValueError(
                    f"codes has {codes.shape[1]} features, expected {self.codes.shape[1]}"
                )
            packed_codes = self.pack(codes)
        n = packed_codes.shape[0]
        own = loo = None
        if exclude_labels is not None:
            own = np.asarray(exclude_labels, dtype=np.int64)
            if own.shape[0] != n:
                raise ValueError("exclude_labels must have one entry per object")
            cells = self._cached_loo_cells() if own_codes else self._loo_cells(packed_codes)
            loo = self._loo_own_similarity(
                cells, np.maximum(own, 0), self._loo_table(feature_weights)
            )

        column_weights = self._column_weights(feature_weights)
        onehot = self._cached_one_hot() if own_codes else None
        sims = np.empty((n, self.n_clusters), dtype=np.float64)
        blocks = sweep_blocks(n, self.n_clusters, self.n_values, self.codes.shape[1])
        cast = np.empty((max(b - a for a, b in blocks), self.n_values), dtype=np.float64)
        for start, stop in blocks:
            part = slice(start, stop)
            self._similarity_block(
                self._block_one_hot(packed_codes, part, onehot),
                column_weights,
                None if own is None else own[part],
                None if loo is None else loo[part],
                out=sims[part],
                cast=cast[: stop - start],
            )
        return sims

    def _cached_one_hot(self) -> Optional[np.ndarray]:
        """One-hot of the engine's own codes, or ``None`` above the cell cap.

        The codes are immutable, so the encoding is built once.  With a
        shared :class:`OneHotCache` it also survives this engine: a later
        engine over the *same* codes array and vocabulary (next epoch of the
        granularity ladder, next restart of a trial) reuses it instead of
        re-encoding.
        """
        if self._onehot is None and self._caches_one_hot:
            cached = None
            if self._onehot_cache is not None:
                cached = self._onehot_cache.lookup(self.codes, self.n_categories)
            if cached is None:
                cached = self._one_hot(self._packed_codes)
                if self._onehot_cache is not None:
                    self._onehot_cache.store(self.codes, self.n_categories, cached)
            self._onehot = cached
        return self._onehot

    def _block_one_hot(
        self, packed_codes: np.ndarray, part: slice, onehot: Optional[np.ndarray]
    ) -> np.ndarray:
        """One-hot of rows ``part``: a slice of ``onehot``, or encoded afresh."""
        return self._one_hot(packed_codes[part]) if onehot is None else onehot[part]

    def similarity_object(
        self,
        x,
        feature_weights: Optional[np.ndarray] = None,
        exclude_cluster: Optional[int] = None,
    ) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64).ravel()
        d = self.codes.shape[1]
        if x.shape[0] != d:
            raise ValueError(f"Object has {x.shape[0]} features, expected {d}")
        packed = np.where(x >= 0, x + self.offsets, -1)
        present = packed >= 0
        cols = packed[present]
        counts = self.packed[:, cols]                      # (k, p)
        valid = self.valid_counts[:, present]              # (k, p)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(valid > 0, counts / valid, 0.0)
        if exclude_cluster is not None and exclude_cluster >= 0:
            v = valid[exclude_cluster]
            c = counts[exclude_cluster]
            s[exclude_cluster] = np.where(v > 1, (c - 1.0) / np.where(v > 1, v - 1.0, 1.0), 0.0)
        if feature_weights is not None:
            s = s * np.asarray(feature_weights, dtype=np.float64)[present].T
        return s.sum(axis=1) / d

    # ------------------------------------------------------------------ #
    # The fused competitive sweep (MGCPL's LocalUpdate hot loop)
    # ------------------------------------------------------------------ #
    def competitive_sweep(
        self,
        labels: np.ndarray,
        u: np.ndarray,
        rho: np.ndarray,
        omega: Optional[np.ndarray],
        blocked: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One shard-local competition pass, cache-blocked (module docstring).

        Returns ``(winners, win_counts, win_gain, rival_pen, rival_counts,
        win_sim_total)`` — bit-identical to :func:`select_winners` and
        :func:`competition_statistics` over the whole
        :meth:`similarity_matrix` with ``exclude_labels=labels``.
        """
        n = self._packed_codes.shape[0]
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape[0] != n:
            raise ValueError("labels must have one entry per object")
        k = self.n_clusters
        t = (1.0 - np.asarray(rho, dtype=np.float64)) * np.asarray(u, dtype=np.float64)
        blocked = np.asarray(blocked, dtype=np.bool_)
        column_weights = self._column_weights(omega)
        loo_table = self._loo_table(omega)
        cells, own = self._cached_loo_cells(), np.maximum(labels, 0)
        onehot = self._cached_one_hot()
        blocks, workers = self._row_blocks(n)
        rows = max(stop - start for start, stop in blocks)

        winners = np.empty(n, dtype=np.int64)
        rivals = np.empty(n, dtype=np.int64)
        winner_sims = np.empty(n, dtype=np.float64)
        rival_sims = np.empty(n, dtype=np.float64)
        has_rival = np.empty(n, dtype=np.bool_)

        def sweep(todo) -> None:
            # One worker's blocks, through its own float64 one-hot and
            # (rows, k) buffers; it writes only its blocks' slices of the
            # five per-row vectors.
            cast_buffer = np.empty((rows, self.n_values), dtype=np.float64)
            sims_buffer = np.empty((rows, k), dtype=np.float64)
            scores_buffer = np.empty_like(sims_buffer)
            for start, stop, block_onehot in todo:
                part = slice(start, stop)
                sims = self._similarity_block(
                    block_onehot,
                    column_weights,
                    labels[part],
                    self._loo_own_similarity(cells[:, part], own[part], loo_table),
                    out=sims_buffer[: stop - start],
                    cast=cast_buffer[: stop - start],
                )
                (
                    winners[part],
                    rivals[part],
                    winner_sims[part],
                    rival_sims[part],
                    has_rival[part],
                ) = select_winners(sims, t, blocked, scores_buffer[: stop - start])

        for wave in self._encoded_waves(blocks, workers, onehot):
            run_in_threads(partial(sweep, iter(wave)), workers)
        stats = competition_statistics(winners, rivals, winner_sims, rival_sims, has_rival, k)
        return (winners, *stats)

    def _encoded_waves(self, blocks, workers: int, onehot: Optional[np.ndarray]):
        """``(start, stop, one-hot)`` of every block, in waves for the workers.

        With the one-hot cached, one wave of slices.  Streamed, a wave of
        ``workers`` blocks at a time, each encoded on the calling thread as
        its wave comes up, so at most that many encoded blocks are alive.
        """
        if onehot is not None:
            return [[(start, stop, onehot[start:stop]) for start, stop in blocks]]
        codes = self._packed_codes
        return (
            [(a, b, self._one_hot(codes[a:b])) for a, b in blocks[i : i + workers]]
            for i in range(0, len(blocks), workers)
        )

    def nearest_clusters(
        self,
        rows,
        allowed: np.ndarray,
        feature_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Blocked :meth:`FrequencyEngine.nearest_clusters`: only ``rows`` are scored.

        The requested rows are split into fused-sweep blocks
        (:meth:`_row_blocks`) that run on the block workers.  The calling
        thread gathers and encodes one wave of blocks, one per worker, and
        each worker scores its block into its own buffer.  A pass shorter
        than :func:`block_floor` is scored padded up to it
        (:meth:`_similarity_block`), so every GEMM gives the whole-matrix
        bits.  OpenBLAS is held at one thread for the whole pass, whatever
        the worker count, so no BLAS helper thread is left spinning after
        it.  Disallowed clusters are set to ``-inf`` before the argmax.  No
        ``(n, k)`` array is built, and only the requested rows are encoded.
        """
        rows = np.asarray(rows, dtype=np.int64)
        disallowed = ~np.asarray(allowed, dtype=np.bool_)
        nearest = np.empty(rows.size, dtype=np.int64)
        if rows.size == 0:
            return nearest
        blocks, workers = self._row_blocks(rows.size)
        size = max(stop - start for start, stop in blocks)
        column_weights = self._column_weights(feature_weights)

        def reassign(todo) -> None:
            cast = np.empty((size, self.n_values), dtype=np.float64)
            buffer = np.empty((size, self.n_clusters), dtype=np.float64)
            for lo, hi, onehot in todo:
                sims = self._similarity_block(
                    onehot, column_weights, out=buffer[: hi - lo], cast=cast[: hi - lo]
                )
                sims[:, disallowed] = -np.inf
                nearest[lo:hi] = sims.argmax(axis=1)

        with one_blas_thread():
            for i in range(0, len(blocks), workers):
                wave = [
                    (lo, hi, self._one_hot(self._packed_codes[rows[lo:hi]]))
                    for lo, hi in blocks[i : i + workers]
                ]
                run_in_threads(partial(reassign, iter(wave)), workers)
        return nearest

    # ------------------------------------------------------------------ #
    # Feature-cluster weighting (Eqs. 15-18)
    # ------------------------------------------------------------------ #
    def inter_cluster_difference(self) -> np.ndarray:
        return counts_inter_cluster_difference(self.packed, self.valid_counts, self.n_categories)

    def intra_cluster_similarity(self) -> np.ndarray:
        return counts_intra_cluster_similarity(
            self.packed, self.valid_counts, self.sizes, self.n_categories
        )

    def feature_cluster_weights(self) -> np.ndarray:
        return counts_feature_cluster_weights(
            self.packed, self.valid_counts, self.sizes, self.n_categories
        )

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def modes(self) -> np.ndarray:
        return counts_modes(self.packed, self.valid_counts, self.n_categories)
