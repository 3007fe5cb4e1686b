"""Property tests for the packed similarity engine.

These invariants protect every consumer of :mod:`repro.engine`:

* **Incremental == rebuild** — any sequence of ``add`` / ``remove`` /
  ``move`` / ``*_many`` updates leaves the packed counts bit-identical to a
  table rebuilt from scratch for the resulting assignment.
* **Packed == reference** — the vectorised backends reproduce the numerics
  of the original per-feature loop implementation (kept as
  :class:`repro.engine.reference.LoopEngine`) for similarities (plain,
  weighted, leave-one-out), the Eqs. 15-18 weight statistics, modes,
  weighted Hamming distances, the nearest allowed cluster of a row subset
  and whole batch-mode MGCPL fits — on random data with missing values and
  on the seed UCI benchmark data sets.
* **Blocked sweep == whole-matrix sweep** — the cache-blocked
  ``competitive_sweep`` returns bit-identical shard updates to the NumPy
  reference path over the whole similarity matrix, for every block layout,
  and to the ``LoopEngine`` oracle at d >= 8 (where a pairwise row sum would
  differ in the last bit).
* **Streamed == cached** — a dense engine over the one-hot cell cap encodes
  every block afresh and returns the same bits as one that caches its
  one-hot.
* **Blocked reassignment == whole-matrix reassignment** — MGCPL's
  stranded-member reassignment scores only the stranded rows, in padded
  row blocks, gives the labels of the masked whole similarity matrix and
  never allocates an ``(n, k)`` array.
* **Block workers == one worker** — the fused sweep, ``rebuild`` and the
  Hamming distances return the same bytes on 1, 2 and 3 block workers, and
  so do whole MCDC fits on the UCI analogues.
* **One-hot cache** — engines over the same codes array and vocabulary
  share one encoding (:class:`~repro.engine.packed.OneHotCache`); a copy,
  an evicted entry or the loop engine re-encode or ignore it.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.packed as packed_mod
from repro.core.came import CAME
from repro.core.mcdc import MCDC
from repro.core.mgcpl import MGCPL, cluster_weight_from_delta, winning_ratio
from repro.core.sync import (
    InProcessShardExecutor,
    SweepBroadcast,
    contiguous_shards,
    mgcpl_sweep_local,
)
from repro.data.dataset import CategoricalDataset
from repro.data.uci.registry import available_datasets, load_dataset
from repro.engine import (
    LoopEngine,
    OneHotCache,
    PackedFrequencyEngine,
    make_engine,
    resolve_engine_kind,
    state_from_labels,
)
from repro.utils.blas import blas_threads

#: The dense engine with its one-hot cap at 0 cells: every block is encoded afresh.
STREAMED = "streamed"
PACKED_KINDS = ["dense", STREAMED]


def packed_engine(codes, cats, k, kind, **kwargs):
    """:func:`make_engine`, building ``"streamed"`` as a dense engine over the cap."""
    if kind != STREAMED:
        return make_engine(codes, cats, k, kind=kind, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(packed_mod, "ONEHOT_MAX_CELLS", 0)
        return make_engine(codes, cats, k, kind="dense", **kwargs)


def random_problem(seed: int, n=60, d=5, k=4, missing=0.15):
    """Random coded matrix with missing values plus a partial assignment."""
    rng = np.random.default_rng(seed)
    cats = [int(rng.integers(2, 6)) for _ in range(d)]
    codes = np.stack([rng.integers(0, m, size=n) for m in cats], axis=1)
    codes[rng.random((n, d)) < missing] = -1
    labels = rng.integers(-1, k, size=n)
    return codes, cats, labels, rng


def build_pair(kind: str, codes, cats, k, labels):
    packed = packed_engine(codes, cats, k, kind, labels=labels)
    reference = make_engine(codes, cats, k, kind="loop", labels=labels)
    return packed, reference


def assert_state_equal(engine, reference):
    """Packed counts must equal the reference's per-feature tables exactly."""
    assert np.array_equal(engine.sizes, reference.sizes)
    assert np.array_equal(engine.valid_counts, reference.valid.T)
    for r, start in enumerate(engine.offsets):
        segment = engine.packed[:, start : start + engine.n_categories[r]]
        assert np.array_equal(segment, reference.counts[r])


class TestIncrementalMatchesRebuild:
    @pytest.mark.parametrize("kind", PACKED_KINDS)
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_update_sequence_is_bit_identical_to_rebuild(self, kind, seed):
        codes, cats, labels, rng = random_problem(seed)
        n, k = codes.shape[0], 4
        engine = packed_engine(codes, cats, k, kind, labels=labels)
        current = labels.copy()

        for _ in range(30):
            op = rng.integers(0, 3)
            i = int(rng.integers(0, n))
            if op == 0 and current[i] < 0:          # add an unassigned object
                target = int(rng.integers(0, k))
                engine.add(i, target)
                current[i] = target
            elif op == 1 and current[i] >= 0:       # remove an assigned object
                engine.remove(i, int(current[i]))
                current[i] = -1
            elif op == 2 and current[i] >= 0:       # move between clusters
                target = int(rng.integers(0, k))
                engine.move(i, int(current[i]), target)
                current[i] = target

        rebuilt = packed_engine(codes, cats, k, kind, labels=current)
        assert np.array_equal(engine.packed, rebuilt.packed)
        assert np.array_equal(engine.valid_counts, rebuilt.valid_counts)
        assert np.array_equal(engine.sizes, rebuilt.sizes)

    @pytest.mark.parametrize("kind", PACKED_KINDS)
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bulk_moves_are_bit_identical_to_rebuild(self, kind, seed):
        codes, cats, labels, rng = random_problem(seed)
        n, k = codes.shape[0], 4
        engine = packed_engine(codes, cats, k, kind, labels=labels)

        idx = rng.choice(n, size=n // 2, replace=False)
        targets = rng.integers(0, k, size=idx.size)
        engine.move_many(idx, labels[idx], targets)
        new_labels = labels.copy()
        new_labels[idx] = targets

        rebuilt = packed_engine(codes, cats, k, kind, labels=new_labels)
        assert np.array_equal(engine.packed, rebuilt.packed)
        assert np.array_equal(engine.valid_counts, rebuilt.valid_counts)
        assert np.array_equal(engine.sizes, rebuilt.sizes)

    def test_remove_from_empty_cluster_raises(self):
        codes, cats, labels, _ = random_problem(0, k=3)
        engine = make_engine(codes, cats, 5, kind="dense", labels=np.zeros_like(labels))
        with pytest.raises(ValueError):
            engine.remove(0, 4)

    def test_remove_many_from_empty_cluster_raises(self):
        codes, cats, labels, _ = random_problem(1, k=3)
        engine = make_engine(codes, cats, 5, kind="dense", labels=np.zeros_like(labels))
        with pytest.raises(ValueError, match="already empty"):
            engine.remove_many([0, 1], [4, 4])


class TestPackedMatchesReference:
    @pytest.mark.parametrize("kind", PACKED_KINDS)
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_similarities_match_on_random_missing_data(self, kind, seed):
        codes, cats, labels, rng = random_problem(seed)
        k = 4
        engine, reference = build_pair(kind, codes, cats, k, labels)
        omega = rng.random((codes.shape[1], k))

        assert np.allclose(
            engine.similarity_matrix(), reference.similarity_matrix(), atol=1e-12
        )
        assert np.allclose(
            engine.similarity_matrix(feature_weights=omega, exclude_labels=labels),
            reference.similarity_matrix(feature_weights=omega, exclude_labels=labels),
            atol=1e-12,
        )
        i = int(rng.integers(0, codes.shape[0]))
        assert np.allclose(
            engine.similarity_object(codes[i], omega, int(labels[i])),
            reference.similarity_object(codes[i], omega, int(labels[i])),
            atol=1e-12,
        )

    @pytest.mark.parametrize("kind", PACKED_KINDS)
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_weight_statistics_and_modes_match(self, kind, seed):
        codes, cats, labels, _ = random_problem(seed)
        engine, reference = build_pair(kind, codes, cats, 4, labels)

        assert np.allclose(
            engine.inter_cluster_difference(),
            reference.inter_cluster_difference(),
            atol=1e-12,
        )
        assert np.allclose(
            engine.intra_cluster_similarity(),
            reference.intra_cluster_similarity(),
            atol=1e-12,
        )
        assert np.allclose(
            engine.feature_cluster_weights(),
            reference.feature_cluster_weights(),
            atol=1e-12,
        )
        assert np.array_equal(engine.modes(), reference.modes())

    @pytest.mark.parametrize("kind", PACKED_KINDS)
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_hamming_distances_match(self, kind, seed):
        codes, cats, labels, rng = random_problem(seed)
        d = codes.shape[1]
        engine, reference = build_pair(kind, codes, cats, 4, labels)
        refs = np.stack([rng.integers(0, m, size=6) for m in cats], axis=1)
        refs[rng.random(refs.shape) < 0.15] = -1
        theta = rng.random(d)
        assert np.array_equal(
            engine.hamming_distances(refs, theta), reference.hamming_distances(refs, theta)
        )
        assert np.array_equal(engine.hamming_distances(refs), reference.hamming_distances(refs))

    @pytest.mark.parametrize("kind", PACKED_KINDS)
    @pytest.mark.parametrize("seed", [0, 2])
    def test_nearest_clusters_match(self, kind, seed):
        """Blocked reassignment of some rows == the loop's masked whole matrix."""
        codes, cats, labels, rng = random_problem(seed, n=80, d=6, k=5)
        engine, reference = build_pair(kind, codes, cats, 5, labels)
        omega = rng.random((codes.shape[1], 5))
        rows = np.flatnonzero(rng.random(codes.shape[0]) < 0.5)
        allowed = np.array([True, False, True, True, False])
        for fw in (None, omega):
            assert np.array_equal(
                engine.nearest_clusters(rows, allowed, fw),
                reference.nearest_clusters(rows, allowed, fw),
            )

    @pytest.mark.parametrize("kind", PACKED_KINDS)
    def test_full_mgcpl_fit_matches_loop_oracle(self, monkeypatch, kind):
        """A whole batch-mode MGCPL fit walks the loop oracle's partitions."""
        codes, cats, _, _ = random_problem(7, n=140, d=6, missing=0.1)
        ds = CategoricalDataset.from_codes(codes, n_categories=cats)
        loop = MGCPL(k0=6, random_state=3, engine="loop", max_epochs=4).fit(ds)
        if kind == STREAMED:
            monkeypatch.setattr(packed_mod, "ONEHOT_MAX_CELLS", 0)
        packed = MGCPL(k0=6, random_state=3, engine="dense", max_epochs=4).fit(ds)
        assert packed.kappa_ == loop.kappa_
        assert np.array_equal(packed.labels_, loop.labels_)
        assert np.array_equal(packed.encoding_, loop.encoding_)


@pytest.mark.parametrize("abbrev", ["Car", "Con", "Vot", "Bal"])
@pytest.mark.parametrize("kind", PACKED_KINDS)
def test_parity_on_seed_uci_datasets(abbrev, kind):
    """Packed engines match the reference numerics on the Table II data sets.

    Congressional-style missing values are injected into a copy of every
    data set so the ``-1`` handling is exercised on real vocabularies too.
    """
    ds = load_dataset(abbrev)
    rng = np.random.default_rng(99)
    codes = ds.codes.copy()
    codes[rng.random(codes.shape) < 0.08] = -1
    cats = list(ds.n_categories)
    k = 5
    labels = rng.integers(0, k, size=codes.shape[0])
    omega = rng.random((codes.shape[1], k))

    engine, reference = build_pair(kind, codes, cats, k, labels)
    assert_state_equal(engine, reference)
    # Exact: the leave-one-out cells add features in LoopEngine's ascending
    # order (Con and Vot have d=16, where a pairwise row sum would differ).
    assert np.array_equal(
        engine.similarity_matrix(feature_weights=omega, exclude_labels=labels),
        reference.similarity_matrix(feature_weights=omega, exclude_labels=labels),
    )
    assert np.allclose(
        engine.feature_cluster_weights(), reference.feature_cluster_weights(), atol=1e-12
    )
    assert np.array_equal(engine.modes(), reference.modes())


class TestBackendSelection:
    def test_auto_resolves_to_dense_at_any_size(self):
        cap = packed_mod.ONEHOT_MAX_CELLS
        assert resolve_engine_kind("auto", 100, 50) == "dense"
        assert resolve_engine_kind("auto", cap, 2) == "dense"
        assert resolve_engine_kind("chunked", cap, 2) == "dense"
        assert resolve_engine_kind("compiled", cap, 2) == "dense"
        assert resolve_engine_kind("loop", cap, 2) == "loop"

    def test_make_engine_kinds(self):
        codes, cats, labels, _ = random_problem(3)
        assert type(make_engine(codes, cats, 4, kind="dense")) is PackedFrequencyEngine
        # "chunked" and "compiled" are aliases: saved models' params still carry them.
        for alias in ("auto", "chunked", "compiled"):
            assert type(make_engine(codes, cats, 4, kind=alias)) is PackedFrequencyEngine
        assert isinstance(make_engine(codes, cats, 4, kind="loop"), LoopEngine)

    @pytest.mark.parametrize("kind", ["gpu", ["dense"], None, "Dense"], ids=repr)
    @pytest.mark.parametrize(
        "build",
        [
            lambda codes, cats, kind: make_engine(codes, cats, 4, kind=kind),
            lambda codes, cats, kind: MGCPL(engine=kind),
            lambda codes, cats, kind: CAME(n_clusters=2, engine=kind),
        ],
        ids=["make_engine", "MGCPL", "CAME"],
    )
    def test_unknown_kind_rejected(self, build, kind):
        codes, cats, _, _ = random_problem(4)
        with pytest.raises(ValueError, match="engine kind"):
            build(codes, cats, kind)

    def test_vocabulary_violation_rejected(self):
        codes = np.array([[0, 3]])
        with pytest.raises(ValueError, match="vocabular"):
            make_engine(codes, [1, 2], 2, kind="dense")

    def test_external_codes_outside_vocab_rejected(self):
        """Out-of-vocabulary values would bleed into the next feature's
        packed columns, so they must raise instead of silently mismatching."""
        codes, cats, labels, _ = random_problem(7)
        engine = make_engine(codes, cats, 4, kind="dense", labels=labels)
        bad = codes[:3].copy()
        bad[0, 0] = cats[0]
        with pytest.raises(ValueError, match="vocabular"):
            engine.similarity_matrix(codes=bad)
        with pytest.raises(ValueError, match="vocabular"):
            engine.hamming_distances(bad)

    def test_streamed_engine_matches_cached_over_several_blocks(self, monkeypatch):
        monkeypatch.setattr(packed_mod, "SWEEP_BLOCK_BYTES", FLOORS)
        k = 19
        _, n, n_blocks = layout("uneven", k)
        assert len(packed_mod.sweep_blocks(n, k, sum(SWEEP_CATS), len(SWEEP_CATS))) == n_blocks
        codes, labels, broadcast = sweep_problem(11, n, k, False, True)
        cached = make_engine(codes, SWEEP_CATS, k, kind="dense")
        streamed = packed_engine(codes, SWEEP_CATS, k, STREAMED)
        assert not streamed._caches_one_hot
        for engine in (cached, streamed):
            engine.restore(broadcast.state)
        for kwargs in ({}, {"feature_weights": broadcast.omega, "exclude_labels": labels}):
            assert np.array_equal(
                streamed.similarity_matrix(**kwargs), cached.similarity_matrix(**kwargs)
            )
        assert cached._onehot is not None and streamed._onehot is None
        rows = np.flatnonzero(labels % 3 == 0)
        allowed = ~broadcast.blocked
        assert np.array_equal(
            streamed.nearest_clusters(rows, allowed, broadcast.omega),
            cached.nearest_clusters(rows, allowed, broadcast.omega),
        )
        assert_updates_identical(
            mgcpl_sweep_local(streamed, labels, broadcast, broadcast.state),
            mgcpl_sweep_local(cached, labels, broadcast, broadcast.state),
        )


class TestOneHotCache:
    def test_hit_requires_same_array_and_vocab(self):
        cache = OneHotCache()
        codes, cats, labels, _ = random_problem(0)
        a = make_engine(codes, cats, 5, kind="dense", labels=labels, onehot_cache=cache)
        a.similarity_matrix()
        assert cache.misses == 1
        b = make_engine(codes, cats, 5, kind="dense", labels=labels, onehot_cache=cache)
        b.similarity_matrix()
        assert (cache.hits, cache.misses) == (1, 1)
        # A copy is a different array: identity keying must not hit.
        c = make_engine(
            codes.copy(), cats, 5, kind="dense", labels=labels, onehot_cache=cache
        )
        c.similarity_matrix()
        assert cache.misses == 2

    def test_capacity_eviction(self):
        cache = OneHotCache(capacity=1)
        codes_a, cats, labels, _ = random_problem(1)
        codes_b = codes_a.copy()
        for arr in (codes_a, codes_b, codes_a):
            engine = make_engine(arr, cats, 5, kind="dense", labels=labels, onehot_cache=cache)
            engine.similarity_matrix()
        # FIFO capacity 1: codes_a was evicted by codes_b, so the third
        # build misses again.
        assert cache.misses == 3 and cache.hits == 0

    def test_cached_encoding_is_equivalent(self):
        cache = OneHotCache()
        codes, cats, labels, rng = random_problem(2)
        omega = rng.random((codes.shape[1], 5))
        first = make_engine(codes, cats, 5, kind="dense", labels=labels, onehot_cache=cache)
        uncached = make_engine(codes, cats, 5, kind="dense", labels=labels)
        assert np.array_equal(
            first.similarity_matrix(feature_weights=omega),
            uncached.similarity_matrix(feature_weights=omega),
        )
        second = make_engine(codes, cats, 5, kind="dense", labels=labels, onehot_cache=cache)
        assert np.array_equal(
            second.similarity_matrix(feature_weights=omega),
            uncached.similarity_matrix(feature_weights=omega),
        )
        assert cache.hits >= 1

    def test_loop_engine_ignores_cache_kwarg(self):
        codes, cats, labels, _ = random_problem(3)
        engine = make_engine(codes, cats, 5, kind="loop", labels=labels, onehot_cache=OneHotCache())
        assert isinstance(engine, LoopEngine)

    def test_dataset_cache_reused_across_fits(self):
        codes, cats, _, _ = random_problem(4, n=120)
        ds = CategoricalDataset.from_codes(codes, n_categories=cats)
        cache = ds.onehot_cache()
        assert ds.onehot_cache() is cache
        MGCPL(k0=5, random_state=1, engine="dense", max_epochs=3).fit(ds)
        hits1, misses1 = cache.hits, cache.misses
        assert misses1 >= 1
        MGCPL(k0=5, random_state=2, engine="dense", max_epochs=3).fit(ds)
        # The restart re-encodes nothing: same misses, strictly more hits.
        assert cache.misses == misses1
        assert cache.hits > hits1


class _NumPyPath:
    """Engine proxy without ``competitive_sweep``: the whole-matrix path."""

    def __init__(self, engine):
        self._engine = engine

    def __getattr__(self, name):
        if name == "competitive_sweep":
            raise AttributeError(name)
        return getattr(self._engine, name)


#: Block budgets forcing one block, or blocks at the row floors.
ONE_BLOCK, FLOORS = 1 << 40, 1
#: Vocabularies of the sweep problems (M = 30 packed values).
SWEEP_CATS = [4, 7, 3, 8, 2, 6]


def layout(name, k):
    """``(budget, n, expected blocks)`` of a named block layout at ``k``.

    ``one-block`` sweeps 3.33 floors' worth of rows in one block,
    ``exact-multiple`` three floors in three equal blocks, and ``uneven``
    3.33 floors in three blocks of unequal size.  Call it with the budget
    at ``FLOORS``, so that :func:`sweep_rows` returns the floor.
    """
    rows = packed_mod.sweep_rows(k, sum(SWEEP_CATS), len(SWEEP_CATS))
    return {
        "one-block": (ONE_BLOCK, 3 * rows + rows // 3, 1),
        "exact-multiple": (FLOORS, 3 * rows, 3),
        "uneven": (FLOORS, 3 * rows + rows // 3, 3),
    }[name]


def sweep_codes(rng, n, cats=SWEEP_CATS):
    """Codes over the vocabularies ``cats`` with 15% missing values."""
    codes = np.stack([rng.integers(0, m, size=n) for m in cats], axis=1)
    codes[rng.random(codes.shape) < 0.15] = -1
    return codes


def sweep_problem(seed, n, k, first_sweep, weighted, cats=SWEEP_CATS):
    """Codes with missing values, a sweep's labels and a broadcast."""
    rng = np.random.default_rng(seed)
    d = len(cats)
    codes = sweep_codes(rng, n, cats)
    labels = rng.integers(0, k, size=n)
    if first_sweep:  # mostly unassigned, as in an epoch's first sweep
        labels[rng.random(n) < 0.9] = -1
    state = make_engine(codes, cats, k, kind="loop", labels=labels).snapshot()
    broadcast = SweepBroadcast(
        state=state,
        u=cluster_weight_from_delta(rng.random(k)),
        rho=winning_ratio(rng.random(k)),
        omega=rng.random((d, k)) if weighted else None,
        blocked=rng.random(k) < 0.2,
    )
    return codes, labels, broadcast


def assert_updates_identical(a, b):
    for field in (
        "labels", "win_counts", "win_gain", "rival_pen", "rival_counts", "win_sim_total"
    ):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.changed == b.changed
    assert np.array_equal(a.state.packed, b.state.packed)
    assert np.array_equal(a.state.valid_counts, b.state.valid_counts)
    assert np.array_equal(a.state.sizes, b.state.sizes)


class TestBlockedSweep:
    @pytest.mark.parametrize("layout_name", ["one-block", "exact-multiple", "uneven"])
    @pytest.mark.parametrize("kind", ["dense", STREAMED])
    @pytest.mark.parametrize("k", [5, 19, 224])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("first_sweep", [False, True])
    def test_blocked_sweep_matches_whole_matrix_path(
        self, monkeypatch, layout_name, kind, k, weighted, first_sweep
    ):
        monkeypatch.setattr(packed_mod, "SWEEP_BLOCK_BYTES", FLOORS)
        budget, n, n_blocks = layout(layout_name, k)
        monkeypatch.setattr(packed_mod, "SWEEP_BLOCK_BYTES", budget)
        blocks = packed_mod.sweep_blocks(n, k, sum(SWEEP_CATS), len(SWEEP_CATS))
        assert len(blocks) == n_blocks
        codes, labels, broadcast = sweep_problem(k + n, n, k, first_sweep, weighted)
        blocked = packed_engine(codes, SWEEP_CATS, k, kind)
        update = mgcpl_sweep_local(blocked, labels, broadcast, broadcast.state)
        # One block makes the similarity matrix one whole product.
        monkeypatch.setattr(packed_mod, "SWEEP_BLOCK_BYTES", ONE_BLOCK)
        whole = packed_engine(codes, SWEEP_CATS, k, kind)
        assert_updates_identical(
            update, mgcpl_sweep_local(_NumPyPath(whole), labels, broadcast, broadcast.state)
        )

    def test_sweep_blocks_layout(self, monkeypatch):
        monkeypatch.setattr(packed_mod, "SWEEP_BLOCK_BYTES", FLOORS)
        assert packed_mod.sweep_rows(224, 30, 6) == 1024
        # Small k * M: the multiply-add floor binds (2**21 / (19 * 30)).
        assert packed_mod.sweep_rows(19, 30, 6) == 3680
        assert packed_mod.sweep_blocks(3100, 224, 30, 6) == [
            (0, 1033), (1033, 2066), (2066, 3100)
        ]
        assert packed_mod.sweep_blocks(500, 224, 30, 6) == [(0, 500)]
        assert packed_mod.sweep_blocks(0, 224, 30, 6) == [(0, 0)]
        monkeypatch.setattr(packed_mod, "SWEEP_BLOCK_BYTES", 4 << 20)

        def sizes(k, workers):
            blocks = packed_mod.sweep_blocks(50_000, k, 72, 12, workers)
            return len(blocks), max(stop - start for start, stop in blocks)

        # A k=86 row works on 8 * (72 + 2 * 86 + 12) = 2048 bytes, so 4 MiB
        # holds 2048 rows: 25 blocks, rounded up to 26 for two workers.
        assert packed_mod.sweep_rows(86, 72, 12) == 2048
        assert sizes(86, 1) == (25, 2000)
        assert sizes(86, 2) == (26, 1924)
        # k=224 rows (4256 bytes) fit 985 to the budget; the 1024-row floor
        # binds, and 49 blocks would fall below it.
        assert sizes(224, 1) == (48, 1042)
        # At k=5 the multiply-add floor (5826 rows) binds: 8 blocks, where the
        # scores alone used to make one 50k-row block.
        assert packed_mod.block_floor(5, 72) == 5826
        assert sizes(5, 2) == (8, 6250)

    def test_shards_split_mid_block_match_single_shard(self, monkeypatch):
        """Three uneven shards whose boundaries fall inside sweep blocks."""
        monkeypatch.setattr(packed_mod, "SWEEP_BLOCK_BYTES", FLOORS)
        k = 19
        rows = packed_mod.sweep_rows(k, sum(SWEEP_CATS), len(SWEEP_CATS))
        n = 5 * rows
        codes, labels, broadcast = sweep_problem(3, n, k, True, True)
        # One shard sweeps five blocks of `rows`; shards of 1.7, 1.2 and 2.1
        # blocks cut it at 1.7 and 2.9 blocks.
        cuts = [0, 17 * rows // 10, 29 * rows // 10, n]
        shards = [np.arange(a, b) for a, b in zip(cuts, cuts[1:])]
        single = InProcessShardExecutor(codes, SWEEP_CATS, contiguous_shards(n, 1), engine="dense")
        split = InProcessShardExecutor(codes, SWEEP_CATS, shards, engine="dense")
        single.begin_epoch(k, labels)
        split.begin_epoch(k, labels)
        for _ in range(3):
            one = single.sweep(broadcast)
            three = split.sweep(broadcast)
            assert np.array_equal(one.labels, three.labels)
            assert np.array_equal(one.state.packed, three.state.packed)
            broadcast.state = one.state


    @pytest.mark.parametrize("kind", ["dense", STREAMED])
    @pytest.mark.parametrize(
        "weighted, all_blocked",
        [(False, False), (True, False), (False, True)],
        ids=["False", "True", "all-blocked"],
    )
    def test_matches_loop_oracle_at_twelve_features(
        self, monkeypatch, kind, weighted, all_blocked
    ):
        """At d=12 the own-cluster similarity adds its features in loop order.

        The labels come from two loop-engine sweeps, so most objects' own
        cluster wins and its leave-one-out similarity reaches the
        statistics.  A pairwise row sum differs from the oracle here.
        ``all-blocked`` blocks every cluster in the compared sweep, with
        no feature weights.
        """
        monkeypatch.setattr(packed_mod, "SWEEP_BLOCK_BYTES", FLOORS)
        cats, k = SWEEP_CATS * 2, 19
        rows = packed_mod.sweep_rows(k, sum(cats), len(cats))
        n = 3 * rows + rows // 3
        codes, labels, broadcast = sweep_problem(12, n, k, False, weighted, cats=cats)
        loop = make_engine(codes, cats, k, kind="loop")
        for _ in range(2):
            update = mgcpl_sweep_local(loop, labels, broadcast, broadcast.state)
            labels, broadcast.state = update.labels, update.state
        assert len(packed_mod.sweep_blocks(n, k, sum(cats), len(cats))) == 3
        if all_blocked:
            broadcast.blocked = np.ones(k, dtype=bool)
        assert_updates_identical(
            mgcpl_sweep_local(
                packed_engine(codes, cats, k, kind), labels, broadcast, broadcast.state
            ),
            mgcpl_sweep_local(loop, labels, broadcast, broadcast.state),
        )


STRANDED_SETS = ["all", "none", "fewer-than-a-block", "with-empty-alive"]


def reassign_problem(seed, n, k, stranded_set):
    """Codes, labels and the alive mask of one stranded set.

    ``all`` strands every object, ``none`` leaves every object in an alive
    cluster, ``fewer-than-a-block`` strands ten unassigned objects inside
    the middle block, and ``with-empty-alive`` eliminates a third of the
    clusters and moves the members of two alive ones onto a dead one, so
    those two are alive but empty and may not receive anybody.
    """
    rng = np.random.default_rng(seed)
    codes = sweep_codes(rng, n)
    labels = rng.integers(0, k, size=n)
    alive = np.ones(k, dtype=bool)
    if stranded_set == "all":
        labels[:] = -1
    elif stranded_set == "fewer-than-a-block":
        labels[n // 2 : n // 2 + 10] = -1
    elif stranded_set == "with-empty-alive":
        alive[rng.choice(k, size=k // 3, replace=False)] = False
        emptied = np.flatnonzero(alive)[:2]
        labels[np.isin(labels, emptied)] = np.flatnonzero(~alive)[0]
    return codes, labels, alive


def whole_matrix_reassignment(codes, labels, alive, omega, kind):
    """The reference: argmax of the masked whole similarity matrix.

    Call it with the budget at ``ONE_BLOCK``, so that the similarity matrix
    is one product.
    """
    stranded = (labels < 0) | ~alive[np.clip(labels, 0, alive.size - 1)]
    table = packed_engine(
        codes, SWEEP_CATS, alive.size, kind, labels=np.where(stranded, -1, labels)
    )
    allowed = alive & (table.sizes > 0)
    if not allowed.any():
        allowed = alive
    sims = table.similarity_matrix(feature_weights=omega)
    expected = labels.copy()
    expected[stranded] = np.where(allowed[None, :], sims, -np.inf)[stranded].argmax(axis=1)
    return expected, stranded, allowed


class TestBlockedReassignment:
    @pytest.mark.parametrize("stranded_set", STRANDED_SETS)
    @pytest.mark.parametrize("kind", ["dense", STREAMED])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_whole_matrix_reassignment(self, monkeypatch, stranded_set, kind, weighted):
        monkeypatch.setattr(packed_mod, "SWEEP_BLOCK_BYTES", FLOORS)
        k = 19
        _, n, n_blocks = layout("uneven", k)
        codes, labels, alive = reassign_problem(n + k, n, k, stranded_set)
        omega = np.random.default_rng(n).random((len(SWEEP_CATS), k)) if weighted else None
        monkeypatch.setattr(packed_mod, "SWEEP_BLOCK_BYTES", ONE_BLOCK)
        expected, stranded, allowed = whole_matrix_reassignment(codes, labels, alive, omega, kind)
        monkeypatch.setattr(packed_mod, "SWEEP_BLOCK_BYTES", FLOORS)
        assert len(packed_mod.sweep_blocks(n, k, sum(SWEEP_CATS), len(SWEEP_CATS))) == n_blocks
        n_stranded = {"all": n, "none": 0, "fewer-than-a-block": 10}.get(stranded_set)
        if n_stranded is not None:
            assert stranded.sum() == n_stranded
        else:
            assert (alive & ~allowed).sum() == 2
        if kind == STREAMED:
            monkeypatch.setattr(packed_mod, "ONEHOT_MAX_CELLS", 0)
        estimator = MGCPL(engine="dense", use_feature_weights=weighted)
        state = state_from_labels(codes, SWEEP_CATS, labels, k)
        got = estimator._reassign_dead_members(codes, SWEEP_CATS, labels, alive, omega, state)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("kind", ["dense", STREAMED])
    def test_short_block_keeps_the_whole_matrix_bits(self, monkeypatch, kind):
        """Ten stranded rows are padded to the floor; unpadded, most differ."""
        monkeypatch.setattr(packed_mod, "SWEEP_BLOCK_BYTES", FLOORS)
        k = 19
        _, n, _ = layout("uneven", k)
        codes, labels, _ = reassign_problem(n, n, k, "fewer-than-a-block")
        omega = np.random.default_rng(k).random((len(SWEEP_CATS), k))
        engine = packed_engine(codes, SWEEP_CATS, k, kind, labels=labels)
        whole = engine.similarity_matrix(feature_weights=omega)
        similarity_block, scored = engine._similarity_block, []

        def recorded(*args, **kwargs):
            sims = similarity_block(*args, **kwargs)
            scored.append(sims.copy())
            return sims

        monkeypatch.setattr(engine, "_similarity_block", recorded)
        rows = np.flatnonzero(labels < 0)
        engine.nearest_clusters(rows, np.ones(k, dtype=bool), omega)
        assert len(scored) == 1
        assert rows.size < packed_mod.block_floor(k, sum(SWEEP_CATS))
        assert scored[0].tobytes() == whole[rows].tobytes()

    @pytest.mark.parametrize("kind", ["dense", STREAMED])
    @pytest.mark.parametrize("k", [19, 224])
    def test_same_bits_at_any_worker_count(self, monkeypatch, kind, k):
        """Blocks on 1, 2 or 3 workers give the bytes of one whole product;
        the workers score under one BLAS thread and the caller's count
        comes back afterwards."""
        monkeypatch.setattr(packed_mod, "SWEEP_BLOCK_BYTES", FLOORS)
        rows_per_block = packed_mod.sweep_rows(k, sum(SWEEP_CATS), len(SWEEP_CATS))
        n = 16 * rows_per_block + rows_per_block // 3  # strands over three blocks
        codes, labels, alive = reassign_problem(n + k, n, k, "with-empty-alive")
        omega = np.random.default_rng(k).random((len(SWEEP_CATS), k))
        monkeypatch.setattr(packed_mod, "SWEEP_BLOCK_BYTES", ONE_BLOCK)
        expected, stranded, allowed = whole_matrix_reassignment(codes, labels, alive, omega, kind)
        monkeypatch.setattr(packed_mod, "SWEEP_BLOCK_BYTES", FLOORS)
        engine = packed_engine(
            codes, SWEEP_CATS, k, kind, labels=np.where(stranded, -1, labels)
        )
        rows = np.flatnonzero(stranded)

        inside = set()
        similarity_block = PackedFrequencyEngine._similarity_block

        def spy(self, *args, **kwargs):
            inside.update(blas_threads().values())
            return similarity_block(self, *args, **kwargs)

        monkeypatch.setattr(PackedFrequencyEngine, "_similarity_block", spy)
        before = blas_threads()
        for workers in (1, 2, 3):
            monkeypatch.setattr(packed_mod, "cpu_share", lambda: workers)
            assert engine._row_blocks(rows.size)[1] == workers
            got = engine.nearest_clusters(rows, allowed, omega)
            assert got.tobytes() == expected[rows].tobytes()
            assert blas_threads() == before
        assert inside == ({1} if before else set())

    def test_peak_allocation_stays_below_one_n_by_k_matrix(self):
        """No ``(n, k)`` float64 matrix: the trace peak stays below one."""
        n, k, d = 20_000, 150, 12
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 6, size=(n, d))
        labels = rng.integers(0, k, size=n)
        alive = rng.random(k) < 0.5
        omega = rng.random((d, k))
        state = state_from_labels(codes, [6] * d, labels, k)
        estimator = MGCPL(engine="dense")
        tracemalloc.start()
        try:
            got = estimator._reassign_dead_members(codes, [6] * d, labels, alive, omega, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert alive[got].all()
        assert peak < n * k * 8, f"peak {peak / 2**20:.1f} MiB >= one n x k matrix"


class TestFitMemory:
    """What a fit holds per row: a one-byte one-hot cache, sweep blocks
    within one byte budget, and a reassignment that copies only the
    stranded rows (perfbench's shape: n=50k, d=12, 6 values a feature)."""

    N, D, M = 50_000, 12, 72

    def test_cached_one_hot_takes_one_byte_a_cell(self):
        codes = np.random.default_rng(0).integers(-1, 6, size=(self.N, self.D))
        engine = make_engine(codes, [6] * self.D, 8, kind="dense")
        onehot = engine._cached_one_hot()
        assert onehot.nbytes == self.N * self.M
        assert onehot.dtype.itemsize == 1
        packed = engine._packed_codes
        expected = np.zeros((self.N, self.M), dtype=bool)
        present = np.nonzero(packed >= 0)
        expected[present[0], packed[present]] = True
        assert np.array_equal(onehot, expected)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_blocks_stay_within_the_budget(self, workers):
        """At every k a block's whole working set fits the budget, unless a
        pass cut into more blocks would put one below :func:`block_floor`."""
        budget = packed_mod.SWEEP_BLOCK_BYTES
        for k in range(2, 225):
            row_bytes = packed_mod.block_row_bytes(k, self.M, self.D)
            blocks = packed_mod.sweep_blocks(self.N, k, self.M, self.D, workers)
            floor = packed_mod.block_floor(k, self.M)
            assert min(stop - start for start, stop in blocks) >= floor
            if self.N // (len(blocks) + workers) >= floor:
                largest = max(stop - start for start, stop in blocks)
                assert largest * row_bytes <= budget, (k, largest)

    def test_reassignment_copies_only_the_stranded_rows(self):
        """With 1% of the rows stranded, the trace peak of a reassignment
        stays below one ``(n, d)`` int64 array: no whole-data engine."""
        n, d, k = self.N, self.D, 40
        rng = np.random.default_rng(5)
        codes = rng.integers(-1, 6, size=(n, d))
        alive = np.ones(k, dtype=bool)
        alive[::4] = False
        labels = rng.choice(np.flatnonzero(alive), size=n)
        stranded = rng.choice(n, size=n // 100, replace=False)
        labels[stranded[::2]] = -1
        labels[stranded[1::2]] = 0  # an eliminated cluster
        state = state_from_labels(codes, [6] * d, labels, k)
        omega = rng.random((d, k))
        estimator = MGCPL(engine="dense")
        tracemalloc.start()
        try:
            got = estimator._reassign_dead_members(codes, [6] * d, labels, alive, omega, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert alive[got].all()
        assert np.array_equal(np.delete(got, stranded), np.delete(labels, stranded))
        assert peak < n * d * 8, f"peak {peak / 2**20:.1f} MiB >= one (n, d) int64 array"



def engine_outputs(codes, cats, k, kind, labels, broadcast):
    """Bytes of one fused sweep, the ``rebuild`` after it and two Hamming passes."""
    engine = packed_engine(codes, cats, k, kind)
    engine.restore(broadcast.state)
    swept = engine.competitive_sweep(
        labels, broadcast.u, broadcast.rho, broadcast.omega, broadcast.blocked
    )
    engine.rebuild(swept[0])
    modes = engine.modes()
    theta = np.random.default_rng(k).random(len(cats))
    return [
        np.ascontiguousarray(part).tobytes()
        for part in (
            *swept, engine.packed, engine.valid_counts, engine.sizes,
            engine.hamming_distances(modes, theta), engine.hamming_distances(modes),
        )
    ]


#: Row counts, in blocks of :func:`sweep_rows` at the ``FLOORS`` budget:
#: ``below-macs`` is one product under ``SWEEP_BLOCK_MIN_MACS``, the next two
#: sit on either side of the two-block threshold, and 5.33 and 7 blocks are
#: no multiple of two or three workers.
WORKER_SIZES = {
    "below-macs": lambda rows, k: (packed_mod.SWEEP_BLOCK_MIN_MACS // (k * 30)) - 1,
    "below-two-blocks": lambda rows, k: 2 * rows - 1,
    "two-blocks": lambda rows, k: 2 * rows,
    "five-blocks": lambda rows, k: 5 * rows + rows // 3,
    "seven-blocks": lambda rows, k: 7 * rows,
}


class TestBlockWorkers:
    """The threaded kernels give the bytes of one worker at any worker count."""

    @pytest.mark.parametrize("size", sorted(WORKER_SIZES))
    @pytest.mark.parametrize("kind", ["dense", STREAMED])
    @pytest.mark.parametrize("k", [19, 224])
    def test_kernels_match_one_worker(self, monkeypatch, size, kind, k):
        monkeypatch.setattr(packed_mod, "SWEEP_BLOCK_BYTES", FLOORS)
        rows = packed_mod.sweep_rows(k, sum(SWEEP_CATS), len(SWEEP_CATS))
        n = WORKER_SIZES[size](rows, k)
        codes, labels, broadcast = sweep_problem(n + k, n, k, False, True)
        outputs = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(packed_mod, "cpu_share", lambda: workers)
            blocks, used = make_engine(codes, SWEEP_CATS, k, kind="dense")._row_blocks(n)
            natural = len(packed_mod.sweep_blocks(n, k, sum(SWEEP_CATS), len(SWEEP_CATS)))
            # No thread below two blocks; above, at most one per block, and
            # the block count is a multiple of them.
            assert used == (1 if natural < 2 else min(workers, natural))
            assert len(blocks) % used == 0
            assert min(stop - start for start, stop in blocks) >= min(n, rows)
            outputs[workers] = engine_outputs(codes, SWEEP_CATS, k, kind, labels, broadcast)
        assert outputs[2] == outputs[1]
        assert outputs[3] == outputs[1]

    @pytest.mark.parametrize("kind", ["dense", STREAMED])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_engine_below_the_floor_keeps_the_whole_data_bits(self, kind, weighted):
        """A 10-row engine (a small shard) scores its rows as the whole data does.

        Its one block is below :func:`block_floor`; unpadded, its GEMM
        changes the last bit of most rows at ``k = 19``, ``M = 30``.
        """
        k = 19
        n = packed_mod.block_floor(k, sum(SWEEP_CATS)) + 100
        codes, labels, broadcast = sweep_problem(k, n, k, False, weighted)
        omega, blocked = broadcast.omega, broadcast.blocked
        whole = packed_engine(codes, SWEEP_CATS, k, kind)
        short = packed_engine(codes[:10], SWEEP_CATS, k, kind)
        whole.restore(broadcast.state)
        short.restore(broadcast.state)
        assert len(packed_mod.sweep_blocks(n, k, sum(SWEEP_CATS), len(SWEEP_CATS))) == 1
        expected = whole.similarity_matrix(feature_weights=omega, exclude_labels=labels)[:10]
        got = short.similarity_matrix(feature_weights=omega, exclude_labels=labels[:10])
        assert got.tobytes() == expected.tobytes()
        selection = packed_mod.select_winners(
            expected, (1.0 - broadcast.rho) * broadcast.u, blocked
        )
        swept = short.competitive_sweep(labels[:10], broadcast.u, broadcast.rho, omega, blocked)
        reference = (selection[0], *packed_mod.competition_statistics(*selection, k))
        assert [a.tobytes() for a in swept] == [np.asarray(a).tobytes() for a in reference]

    @pytest.mark.parametrize("kind", ["dense", STREAMED])
    def test_single_row_engine_keeps_the_whole_data_bits(self, kind):
        """One row, the shape whose unpadded product differs at every ``k``."""
        k = 19
        n = packed_mod.block_floor(k, sum(SWEEP_CATS)) + 100
        codes, labels, broadcast = sweep_problem(k, n, k, False, True)
        whole = packed_engine(codes, SWEEP_CATS, k, kind)
        whole.restore(broadcast.state)
        for row in (0, n // 2, n - 1):
            single = packed_engine(codes[row : row + 1], SWEEP_CATS, k, kind)
            single.restore(broadcast.state)
            expected = whole.similarity_matrix(
                feature_weights=broadcast.omega, exclude_labels=labels
            )[row : row + 1]
            got = single.similarity_matrix(
                feature_weights=broadcast.omega, exclude_labels=labels[row : row + 1]
            )
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["dense", STREAMED])
    def test_reused_pad_matches_a_fresh_pad(self, kind):
        """Successive short blocks of different lengths reuse one padded buffer.

        A longer block first dirties rows the shorter next one does not
        fill; every product must still equal the freshly zero-padded one
        and the whole-data rows.
        """
        k, m = 19, sum(SWEEP_CATS)
        floor = packed_mod.block_floor(k, m)
        n = floor + 100
        codes, _, broadcast = sweep_problem(k, n, k, False, True)
        omega = broadcast.omega
        whole = packed_engine(codes, SWEEP_CATS, k, kind)
        whole.restore(broadcast.state)
        expected = whole.similarity_matrix(feature_weights=omega)
        column_weights = whole._column_weights(omega)
        onehot = whole._one_hot(whole.pack(codes))
        for b in (300, 40, 1, 200):
            got = whole.similarity_matrix(codes[:b], feature_weights=omega)
            fresh = np.zeros((floor, m))
            fresh[:b] = onehot[:b]
            assert got.tobytes() == ((fresh @ column_weights)[:b] / codes.shape[1]).tobytes()
            assert got.tobytes() == expected[:b].tobytes()
        assert len(whole._pads) == 1

    def test_worker_failure_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(packed_mod, "SWEEP_BLOCK_BYTES", FLOORS)
        monkeypatch.setattr(packed_mod, "cpu_share", lambda: 2)
        k = 224
        n = 4 * packed_mod.sweep_rows(k, sum(SWEEP_CATS), len(SWEEP_CATS))
        codes, labels, broadcast = sweep_problem(5, n, k, False, False)
        engine = make_engine(codes, SWEEP_CATS, k, kind="dense")
        engine.restore(broadcast.state)

        def fail(*args, **kwargs):
            raise RuntimeError("block failed")

        monkeypatch.setattr(packed_mod, "select_winners", fail)
        with pytest.raises(RuntimeError, match="block failed"):
            engine.competitive_sweep(labels, broadcast.u, broadcast.rho, None, broadcast.blocked)

    @pytest.mark.parametrize("abbrev", available_datasets())
    def test_mcdc_fits_match_one_worker_on_uci_analogues(self, monkeypatch, abbrev):
        # At the floors even the small analogues sweep several blocks.
        monkeypatch.setattr(packed_mod, "SWEEP_BLOCK_BYTES", FLOORS)
        ds = load_dataset(abbrev)
        fits = []
        for workers in (1, 2):
            monkeypatch.setattr(packed_mod, "cpu_share", lambda: workers)
            model = MCDC(n_clusters=ds.n_clusters_true, engine="dense", random_state=0).fit(ds)
            fits.append((model.labels_.tobytes(), list(model.kappa_)))
        assert fits[1] == fits[0]
