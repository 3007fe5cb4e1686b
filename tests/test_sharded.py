"""Equivalence tests for the sharded clustering runtime.

The contract under test (ISSUE 2): shard-local sweeps + global count merge
reproduce the serial estimators — exactly for the merged counts and for
CAME, and to floating-point tolerance for MGCPL's learning trajectory
(shard-wise partial sums regroup float additions).
"""

import inspect
from functools import partial

import numpy as np
import pytest

from repro.core import CAME, MCDC, MGCPL
from repro.core.mcdc import MCDCEncoder
from repro.core.mgcpl import cluster_weight_from_delta, winning_ratio
from repro.core.sync import InProcessShardExecutor, SweepBroadcast, contiguous_shards
from repro.data.generators import make_categorical_clusters
from repro.data.uci.registry import load_dataset
from repro.distributed import (
    MultiGranularPartitioner,
    ShardedCAME,
    ShardedMCDC,
    ShardedMCDCEncoder,
    ShardedMGCPL,
    make_executor,
    resolve_shard_indices,
)
from repro.engine import make_engine, state_from_labels
from repro.engine import packed as packed_mod
from repro.experiments.runner import map_trials
from repro.metrics import adjusted_rand_index


class TestShardResolution:
    def test_contiguous_split_covers_everything(self):
        indices = resolve_shard_indices(101, 4)
        assert len(indices) == 4
        assert np.array_equal(np.sort(np.concatenate(indices)), np.arange(101))

    def test_more_shards_than_objects_clamped(self):
        indices = resolve_shard_indices(3, 8)
        assert len(indices) == 3

    def test_assignment_vector(self):
        assignment = np.array([0, 1, 0, 2, 1])
        indices = resolve_shard_indices(5, assignment)
        assert [list(idx) for idx in indices] == [[0, 2], [1, 4], [3]]

    def test_partition_plan_backs_sharding(self, small_clusters):
        plan = MultiGranularPartitioner(3, random_state=0).fit_partition(small_clusters)
        indices = resolve_shard_indices(small_clusters.n_objects, plan)
        assert np.array_equal(
            np.sort(np.concatenate(indices)), np.arange(small_clusters.n_objects)
        )

    def test_incomplete_cover_rejected(self):
        with pytest.raises(ValueError):
            resolve_shard_indices(10, [np.arange(4)])
        with pytest.raises(ValueError):
            resolve_shard_indices(4, [np.array([0, 1]), np.array([1, 2])])


class TestSweepProtocol:
    """One LocalUpdate/GlobalStep round is exact regardless of the sharding."""

    def _broadcast(self, state, k, d):
        return SweepBroadcast(
            state=state,
            u=cluster_weight_from_delta(np.ones(k)),
            rho=winning_ratio(np.zeros(k)),
            omega=np.full((d, k), 1.0 / d),
            blocked=(state.sizes <= 0),
        )

    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    def test_sweep_outcome_matches_single_shard(self, small_clusters, n_shards):
        codes, cats = small_clusters.codes, list(small_clusters.n_categories)
        n = codes.shape[0]
        k, d = 6, codes.shape[1]
        rng = np.random.default_rng(0)
        labels = rng.integers(0, k, size=n).astype(np.int64)

        reference = InProcessShardExecutor(codes, cats, contiguous_shards(n, 1))
        sharded = InProcessShardExecutor(codes, cats, contiguous_shards(n, n_shards))
        state_ref = reference.begin_epoch(k, labels)
        state_sh = sharded.begin_epoch(k, labels)
        np.testing.assert_array_equal(state_ref.packed, state_sh.packed)

        out_ref = reference.sweep(self._broadcast(state_ref, k, d))
        out_sh = sharded.sweep(self._broadcast(state_sh, k, d))
        # Assignments come from per-object argmax over identical scores.
        np.testing.assert_array_equal(out_ref.labels, out_sh.labels)
        np.testing.assert_array_equal(out_ref.state.packed, out_sh.state.packed)
        np.testing.assert_array_equal(out_ref.win_counts, out_sh.win_counts)
        np.testing.assert_allclose(out_ref.win_gain, out_sh.win_gain, atol=1e-12)
        np.testing.assert_allclose(out_ref.rival_pen, out_sh.rival_pen, atol=1e-12)
        assert out_ref.changed == out_sh.changed


class TestShardedMGCPL:
    @pytest.mark.parametrize("n_shards", [2, 3, 5])
    def test_matches_serial_on_synthetic(self, small_clusters, n_shards):
        serial = MGCPL(random_state=0).fit(small_clusters)
        sharded = ShardedMGCPL(
            n_shards=n_shards, backend="serial", random_state=0
        ).fit(small_clusters)
        assert adjusted_rand_index(serial.labels_, sharded.labels_) >= 0.99
        assert sharded.kappa_ == serial.kappa_

    @pytest.mark.parametrize("dataset_name", ["Vot", "Bal"])
    def test_matches_serial_on_uci_analogues(self, dataset_name):
        dataset = load_dataset(dataset_name)
        serial = MGCPL(random_state=7).fit(dataset)
        sharded = ShardedMGCPL(n_shards=4, backend="serial", random_state=7).fit(dataset)
        assert adjusted_rand_index(serial.labels_, sharded.labels_) >= 0.95
        assert abs(sharded.result_.final_k - serial.result_.final_k) <= 1

    def test_shard_below_the_block_floor_matches_the_loop_oracle(self):
        """Uneven shards, the first below :func:`block_floor`, the others
        above it at the first level (k0 = 49, M = 48): each shard's GEMM
        keeps the whole-matrix bits, so labels, encoding and kappa equal
        the loop engine's serial fit."""
        data = make_categorical_clusters(
            n_objects=2400, n_features=8, n_clusters=4, n_categories=6,
            purity=0.8, random_state=3, name="small-shard",
        )
        shards = [np.arange(0, 150), np.arange(150, 1250), np.arange(1250, 2400)]
        floor = packed_mod.block_floor(49, sum(data.n_categories))
        assert len(shards[0]) < floor <= min(len(shards[1]), len(shards[2]))
        loop = MGCPL(engine="loop", random_state=2).fit(data)
        sharded = ShardedMGCPL(n_shards=shards, backend="serial", random_state=2).fit(data)
        assert sharded.result_.initial_k == 49
        assert sharded.kappa_ == loop.kappa_
        np.testing.assert_array_equal(sharded.labels_, loop.labels_)
        np.testing.assert_array_equal(sharded.encoding_, loop.encoding_)

    def test_partition_plan_sharding(self, small_clusters):
        plan = MultiGranularPartitioner(3, random_state=0).fit_partition(small_clusters)
        sharded = ShardedMGCPL(n_shards=plan, backend="serial", random_state=0)
        sharded.fit(small_clusters)
        assert sharded.labels_.shape[0] == small_clusters.n_objects

    def test_online_mode_rejected(self):
        with pytest.raises(ValueError, match=r"MGCPL\(update_mode='online'\)"):
            ShardedMGCPL(update_mode="online")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ShardedMGCPL(backend="thread")

    @pytest.mark.parametrize(
        "folded",
        ["shm", "sharedmem", "shared-memory", "process", "multiprocess", "processes"],
    )
    def test_folded_backend_name_fits_on_serial(self, small_clusters, folded):
        # Saved configs and archives naming a folded single-host backend
        # fit in-process, with the serial backend's labels.
        reference = ShardedMGCPL(
            k0=4, n_shards=2, backend="serial", random_state=0, max_epochs=2
        ).fit(small_clusters)
        model = ShardedMGCPL(
            k0=4, n_shards=2, backend=folded, random_state=0, max_epochs=2
        ).fit(small_clusters)
        assert isinstance(model.last_executor_, InProcessShardExecutor)
        np.testing.assert_array_equal(model.labels_, reference.labels_)
        np.testing.assert_array_equal(model.encoding_, reference.encoding_)


class TestShardedCAME:
    def test_bit_identical_to_serial(self, small_clusters):
        gamma = MGCPL(random_state=3).fit(small_clusters).encoding_
        serial = CAME(n_clusters=3, random_state=5).fit(gamma)
        sharded = ShardedCAME(
            n_clusters=3, n_shards=4, backend="serial", random_state=5
        ).fit(gamma)
        np.testing.assert_array_equal(serial.labels_, sharded.labels_)
        assert serial.objective_ == sharded.objective_
        np.testing.assert_array_equal(serial.modes_, sharded.modes_)
        np.testing.assert_allclose(serial.feature_weights_, sharded.feature_weights_)

    @pytest.mark.parametrize("layout", ["assignments", "index-arrays", "plan"])
    def test_object_level_shard_layout(self, small_clusters, layout):
        """Each distinct row of Gamma goes to the shard of its first object."""
        gamma = MGCPL(random_state=3).fit(small_clusters).encoding_
        n = gamma.shape[0]
        assignments = np.random.default_rng(1).integers(0, 3, size=n)
        spec = {
            "assignments": assignments,
            "index-arrays": [np.flatnonzero(assignments == s) for s in range(3)],
            "plan": MultiGranularPartitioner(3, random_state=0).fit_partition(small_clusters),
        }[layout]
        serial = CAME(n_clusters=3, random_state=5).fit(gamma)
        sharded = ShardedCAME(
            n_clusters=3, n_shards=spec, backend="serial", random_state=5
        ).fit(gamma)
        assert sharded.labels_.tobytes() == serial.labels_.tobytes()
        assert sharded.objective_ == serial.objective_
        executor = sharded.last_executor_
        covered = np.sort(np.concatenate(executor.shard_indices))
        assert np.array_equal(covered, np.arange(np.unique(gamma, axis=0).shape[0]))


class TestShardedMCDC:
    def test_matches_serial_pipeline(self, small_clusters):
        serial = MCDC(n_clusters=3, random_state=11).fit(small_clusters)
        sharded = ShardedMCDC(
            n_clusters=3, n_shards=3, backend="serial", random_state=11
        ).fit(small_clusters)
        assert adjusted_rand_index(serial.labels_, sharded.labels_) >= 0.95
        assert sharded.kappa_ == serial.kappa_

    def test_encoder_matches_serial(self, small_clusters):
        serial = MCDCEncoder(random_state=11).fit(small_clusters)
        sharded = ShardedMCDCEncoder(
            n_shards=3, backend="serial", random_state=11
        ).fit(small_clusters)
        assert isinstance(sharded.mgcpl_, ShardedMGCPL)
        assert sharded.kappa_ == serial.kappa_
        assert sharded.encoding_.shape == serial.encoding_.shape
        for column in range(serial.encoding_.shape[1]):
            assert adjusted_rand_index(
                serial.encoding_[:, column], sharded.encoding_[:, column]
            ) >= 0.95


class TestMovedRowCounts:
    """A sweep's counts, updated from the rows that moved, equal a full recount."""

    @pytest.mark.parametrize("engine", ["dense", "loop"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_counts_equal_a_full_recount_after_every_sweep(self, engine, weighted):
        rng = np.random.default_rng(7)
        n, k = 900, 6
        cats = [1, 3, 5, 2, 4]
        codes = np.stack([rng.integers(0, m, size=n) for m in cats], axis=1)
        codes[rng.random(codes.shape) < 0.1] = -1
        # Three uneven shards: 150, 480 and 270 rows.
        shards = [np.arange(0, 150), np.arange(150, 630), np.arange(630, n)]
        executor = InProcessShardExecutor(codes, cats, shards, engine=engine)
        # A third of the rows start unassigned (-1), as in an epoch's first sweep.
        labels = np.where(rng.random(n) < 1 / 3, -1, rng.integers(0, k, size=n))
        state = executor.begin_epoch(k, labels)
        u = cluster_weight_from_delta(np.ones(k))
        omega = rng.random((len(cats), k)) if weighted else None
        partial_updates = 0
        for _ in range(6):
            outcome = executor.sweep(SweepBroadcast(
                state=state, u=u, rho=np.zeros(k), omega=omega,
                blocked=np.zeros(k, dtype=bool),
            ))
            full = state_from_labels(codes, cats, outcome.labels, k)
            for got, want in zip(
                (outcome.state.packed, outcome.state.valid_counts, outcome.state.sizes),
                (full.packed, full.valid_counts, full.sizes),
            ):
                assert got.tobytes() == want.tobytes()
            for worker, idx in zip(executor._workers, shards):
                shard = state_from_labels(codes[idx], cats, outcome.labels[idx], k)
                assert worker.counts.packed.tobytes() == shard.packed.tobytes()
                assert worker.counts.sizes.tobytes() == shard.sizes.tobytes()
                moved = np.count_nonzero(outcome.labels[idx] != labels[idx])
                partial_updates += 0 < 2 * moved <= idx.size
            labels, state = outcome.labels, outcome.state
        assert partial_updates > 0, "no sweep took the moved-row update"


class TestShardedCoordinator:
    def test_hamming_assign_matches_full_engine(self, small_clusters):
        codes, cats = small_clusters.codes, list(small_clusters.n_categories)
        rng = np.random.default_rng(4)
        modes = codes[rng.choice(codes.shape[0], size=4, replace=False)]
        theta = np.full(codes.shape[1], 1.0 / codes.shape[1])
        with make_executor("serial", codes, cats, shards=4) as coordinator:
            coordinator.begin_epoch(4, None)
            labels = coordinator.hamming_assign(modes, theta)
        full = make_engine(codes, cats, 4)
        expected = np.argmin(full.hamming_distances(modes, theta), axis=1)
        np.testing.assert_array_equal(labels, expected)


@pytest.mark.parametrize(
    "cls, required",
    [
        pytest.param(cls, required, id=cls.__name__)
        for cls, required in [
            (ShardedMGCPL, {}),
            (ShardedCAME, {"n_clusters": 2}),
            (ShardedMCDCEncoder, {}),
            (ShardedMCDC, {"n_clusters": 2}),
        ]
    ],
)
def test_sharded_estimators_default_to_serial_without_mp_context(cls, required):
    assert cls(**required).backend == "serial"
    # The folded backend's only option is no longer a parameter.
    assert "mp_context" not in inspect.signature(cls).parameters
    with pytest.raises(TypeError, match="mp_context"):
        cls(mp_context=None, **required)


def _sharded_fit_labels(seed, dataset):
    return ShardedMGCPL(
        k0=4, n_shards=2, random_state=seed, max_epochs=2
    ).fit(dataset).labels_


@pytest.mark.timeout(120)
def test_sharded_fits_inside_trial_workers_return(small_clusters):
    """``map_trials(n_jobs=2)`` over default-backend sharded fits returns.

    Each trial process fits on its own cores with the default backend, and
    its labels equal the same fit run here.
    """
    assert ShardedMGCPL().backend == "serial"
    got = map_trials(partial(_sharded_fit_labels, dataset=small_clusters), [1, 2], n_jobs=2)
    want = [_sharded_fit_labels(seed, small_clusters) for seed in (1, 2)]
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
