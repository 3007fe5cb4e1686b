"""Property tests for EngineState: snapshot/restore round trips and the
shard-then-merge exactness the sharded runtime rests on."""

import numpy as np
import pytest

import repro.engine.packed as packed_mod
from repro.core.sync import contiguous_shards
from repro.engine import EngineState, make_engine, state_from_labels

#: ``"streamed"`` is the dense engine with its one-hot cap at 0 cells.
KINDS = ("dense", "streamed", "loop")


def _engine_kind(monkeypatch, kind: str) -> str:
    """The ``make_engine`` kind of a test kind (see :data:`KINDS`)."""
    if kind == "streamed":
        monkeypatch.setattr(packed_mod, "ONEHOT_MAX_CELLS", 0)
        return "dense"
    return kind


def _problem(seed: int, n: int = 120, d: int = 5, k: int = 7, missing: float = 0.1):
    rng = np.random.default_rng(seed)
    n_categories = [int(m) for m in rng.integers(2, 6, size=d)]
    codes = np.column_stack(
        [rng.integers(0, m, size=n) for m in n_categories]
    ).astype(np.int64)
    if missing:
        codes[rng.random((n, d)) < missing] = -1
    labels = rng.integers(0, k, size=n).astype(np.int64)
    return codes, n_categories, labels, k


class TestSnapshotRestore:
    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_is_bit_identical(self, monkeypatch, kind):
        kind = _engine_kind(monkeypatch, kind)
        codes, cats, labels, k = _problem(0)
        engine = make_engine(codes, cats, k, kind=kind, labels=labels)
        state = engine.snapshot()

        fresh = make_engine(codes, cats, k, kind=kind)
        fresh.restore(state)
        np.testing.assert_array_equal(fresh.snapshot().packed, state.packed)
        np.testing.assert_array_equal(
            fresh.similarity_matrix(exclude_labels=labels),
            engine.similarity_matrix(exclude_labels=labels),
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_snapshot_is_a_copy(self, monkeypatch, kind):
        kind = _engine_kind(monkeypatch, kind)
        codes, cats, labels, k = _problem(1)
        engine = make_engine(codes, cats, k, kind=kind, labels=labels)
        state = engine.snapshot()
        before = state.packed.copy()
        engine.move(0, int(labels[0]), int((labels[0] + 1) % k))
        np.testing.assert_array_equal(state.packed, before)

    def test_snapshots_interchangeable_across_backends(self):
        codes, cats, labels, k = _problem(2)
        dense = make_engine(codes, cats, k, kind="dense", labels=labels)
        loop = make_engine(codes, cats, k, kind="loop", labels=labels)
        np.testing.assert_array_equal(dense.snapshot().packed, loop.snapshot().packed)
        np.testing.assert_array_equal(dense.snapshot().sizes, loop.snapshot().sizes)

        # Restoring a dense snapshot into the loop engine reproduces its stats.
        fresh_loop = make_engine(codes, cats, k, kind="loop")
        fresh_loop.restore(dense.snapshot())
        np.testing.assert_allclose(
            fresh_loop.similarity_matrix(), loop.similarity_matrix(), atol=1e-12
        )

    def test_restore_rejects_wrong_layout(self):
        codes, cats, labels, k = _problem(3)
        engine = make_engine(codes, cats, k, kind="dense", labels=labels)
        with pytest.raises(ValueError):
            engine.restore(EngineState.zeros(cats, k + 1))
        with pytest.raises(ValueError):
            engine.restore(EngineState.zeros([m + 1 for m in cats], k))


class TestShardMerge:
    @pytest.mark.parametrize("n_shards", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("kind", ["dense", "streamed"])
    def test_merge_bit_identical_to_single_process(self, monkeypatch, n_shards, kind):
        kind = _engine_kind(monkeypatch, kind)
        codes, cats, labels, k = _problem(n_shards, n=233)
        full = make_engine(codes, cats, k, kind=kind, labels=labels).snapshot()

        shard_states = []
        for idx in contiguous_shards(codes.shape[0], n_shards):
            shard = make_engine(codes[idx], cats, k, kind=kind, labels=labels[idx])
            shard_states.append(shard.snapshot())
        merged = EngineState.merge_all(shard_states)

        np.testing.assert_array_equal(merged.packed, full.packed)
        np.testing.assert_array_equal(merged.valid_counts, full.valid_counts)
        np.testing.assert_array_equal(merged.sizes, full.sizes)

    def test_merge_mixed_backends_exact(self):
        codes, cats, labels, k = _problem(9, n=150)
        idx_a, idx_b = contiguous_shards(codes.shape[0], 2)
        a = make_engine(codes[idx_a], cats, k, kind="loop", labels=labels[idx_a])
        b = make_engine(codes[idx_b], cats, k, kind="dense", labels=labels[idx_b])
        merged = a.snapshot().merge(b.snapshot())
        full = make_engine(codes, cats, k, kind="dense", labels=labels).snapshot()
        np.testing.assert_array_equal(merged.packed, full.packed)

    def test_merge_rejects_incompatible_states(self):
        _, cats, _, k = _problem(4)
        with pytest.raises(ValueError):
            EngineState.zeros(cats, k).merge(EngineState.zeros(cats, k + 1))
        with pytest.raises(ValueError):
            EngineState.merge_all([])

    def test_merge_does_not_mutate_inputs(self):
        codes, cats, labels, k = _problem(5)
        engine = make_engine(codes, cats, k, kind="dense", labels=labels)
        state = engine.snapshot()
        before = state.packed.copy()
        state.merge(state)
        np.testing.assert_array_equal(state.packed, before)


class TestCountOnlyStatistics:
    @pytest.mark.parametrize("kind", KINDS)
    def test_state_stats_match_engine(self, monkeypatch, kind):
        kind = _engine_kind(monkeypatch, kind)
        codes, cats, labels, k = _problem(6)
        engine = make_engine(codes, cats, k, kind=kind, labels=labels)
        state = engine.snapshot()
        np.testing.assert_allclose(
            state.feature_cluster_weights(), engine.feature_cluster_weights(), atol=1e-12
        )
        np.testing.assert_array_equal(state.modes(), engine.modes())

    def test_merged_state_weights_match_full_engine(self):
        codes, cats, labels, k = _problem(7, n=200)
        shard_states = [
            make_engine(codes[idx], cats, k, kind="dense", labels=labels[idx]).snapshot()
            for idx in contiguous_shards(codes.shape[0], 4)
        ]
        merged = EngineState.merge_all(shard_states)
        full = make_engine(codes, cats, k, kind="dense", labels=labels)
        np.testing.assert_array_equal(
            merged.feature_cluster_weights(), full.feature_cluster_weights()
        )

    def test_state_is_picklable(self):
        import pickle

        codes, cats, labels, k = _problem(8)
        state = make_engine(codes, cats, k, kind="dense", labels=labels).snapshot()
        clone = pickle.loads(pickle.dumps(state))
        np.testing.assert_array_equal(clone.packed, state.packed)
        assert clone.n_categories == state.n_categories


def per_feature_counts(codes, n_categories, labels, k):
    """Two bincounts per feature: the reference for ``state_from_labels``."""
    offsets = np.concatenate(([0], np.cumsum(n_categories)[:-1]))
    assigned = labels >= 0
    sizes = np.bincount(labels[assigned], minlength=k)[:k].astype(np.float64)
    packed = np.zeros((k, sum(n_categories)))
    valid = np.zeros((k, len(n_categories)))
    for r, m in enumerate(n_categories):
        present = assigned & (codes[:, r] >= 0)
        lab = labels[present]
        flat = np.bincount(lab * m + codes[present, r], minlength=k * m)[: k * m]
        packed[:, offsets[r] : offsets[r] + m] = flat.reshape(k, m)
        valid[:, r] = np.bincount(lab, minlength=k)[:k]
    return packed, valid, sizes


def per_feature_modes(packed, valid, n_categories):
    """An argmax per feature segment: the reference for ``counts_modes``."""
    offsets = np.concatenate(([0], np.cumsum(n_categories)[:-1]))
    out = np.full(valid.shape, -1, dtype=np.int64)
    for r, m in enumerate(n_categories):
        has_any = valid[:, r] > 0
        out[has_any, r] = np.argmax(packed[has_any, offsets[r] : offsets[r] + m], axis=1)
    return out


class TestVectorisedCounts:
    """The one-bincount counts and the one-argmax modes keep the bytes of
    the per-feature helpers they replaced."""

    @pytest.mark.parametrize("seed", range(60))
    def test_state_and_modes_match_the_per_feature_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, d, k = int(rng.integers(1, 120)), int(rng.integers(1, 7)), int(rng.integers(1, 9))
        cats = [int(m) for m in rng.integers(1, 6, size=d)]  # single-category features too
        codes = np.stack([rng.integers(0, m, size=n) for m in cats], axis=1)
        codes[rng.random((n, d)) < 0.2] = -1
        labels = rng.integers(-1, k, size=n)
        state = state_from_labels(codes, cats, labels, k)
        packed, valid, sizes = per_feature_counts(codes, cats, labels, k)
        assert state.packed.tobytes() == packed.tobytes()
        assert state.valid_counts.tobytes() == valid.tobytes()
        assert state.sizes.tobytes() == sizes.tobytes()
        modes = state.modes()
        assert modes.dtype == np.int64
        assert modes.tobytes() == per_feature_modes(packed, valid, cats).tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_weighted_rows_count_as_repeated_rows(self, seed):
        rng = np.random.default_rng(seed)
        cats, k = [3, 1, 4], 4
        rows = np.stack([rng.integers(-1, m, size=30) for m in cats], axis=1)
        labels = rng.integers(-1, k, size=30)
        weights = rng.integers(1, 6, size=30)
        weighted = state_from_labels(rows, cats, labels, k, weights=weights)
        repeated = state_from_labels(
            np.repeat(rows, weights, axis=0), cats, np.repeat(labels, weights), k
        )
        assert weighted.packed.tobytes() == repeated.packed.tobytes()
        assert weighted.valid_counts.tobytes() == repeated.valid_counts.tobytes()
        assert weighted.sizes.tobytes() == repeated.sizes.tobytes()
