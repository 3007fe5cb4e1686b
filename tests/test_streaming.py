"""The streaming-native sharded runtime (ISSUE 9).

The contract under test: the mini-batch online mode driven by
:class:`StreamingCoordinator` over ≥2 real loopback TCP workers is
**bit-identical** to the serial ``update_mode="online"`` reference on the
same seed; appends extend resident workers in place and survive a
``kill -9`` mid-stream (recovery re-ships the shard *including* its
appends, so the stream converges to the no-failure state); a warm
``refit`` after appends ships zero shard payload bytes; hot-shard splits
change the topology but never the numerics; and the shard cache honours
an LRU byte budget.  The coordinator-side similarity patching is pinned
against the engine's own arithmetic, element for element.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.cli import build_parser
from repro.core.mgcpl import MGCPL, cluster_weight_from_delta, winning_ratio
from repro.core.sync import InProcessShardExecutor, ShardWorker, SweepBroadcast
from repro.data import make_drift_stream
from repro.data.generators import make_categorical_clusters
from repro.data.dataset import CategoricalDataset
from repro.distributed import StreamingMGCPL, parse_byte_size, shard_content_key
from repro.distributed.rpc import WorkerServer, local_worker_pool
from repro.distributed.shardcache import CACHE_MAX_ENV, ShardCache
from repro.distributed.transport import make_executor
from repro.distributed.streaming import _exact_similarity, _pack_offsets
from repro.engine import make_engine
from repro.engine.packed import PackedFrequencyEngine

pytestmark = pytest.mark.timeout(120)


@pytest.fixture(scope="module")
def stream_dataset():
    return make_categorical_clusters(
        n_objects=240, n_features=6, n_clusters=3, random_state=11,
        name="streaming-fit",
    )


@pytest.fixture(scope="module")
def tcp_hosts():
    with local_worker_pool(2) as hosts:
        yield hosts


def serial_online(dataset, **params):
    params.setdefault("random_state", 0)
    return MGCPL(update_mode="online", **params).fit(dataset)


def spawn_worker_process():
    """Launch ``repro worker`` in a subprocess; returns (process, address)."""
    cmd = [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"]
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                    env.get("PYTHONPATH")) if p
    )
    process = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    line = process.stdout.readline()
    match = re.search(r"listening on (\S+)", line)
    if not match:  # pragma: no cover - diagnostics for a broken spawn
        process.kill()
        raise RuntimeError(f"worker printed {line!r} instead of its address")
    return process, match.group(1)


# ---------------------------------------------------------------------- #
# Engine layer: in-place row extension
# ---------------------------------------------------------------------- #
class TestEngineAppendRows:
    def make(self, codes, ncat, k=3):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, k, size=codes.shape[0])
        return make_engine(codes, ncat, k, kind="dense", labels=labels), labels

    def test_append_extends_in_place_bit_identically(self):
        rng = np.random.default_rng(3)
        ncat = [4, 5, 3]
        codes = rng.integers(0, 3, size=(40, 3)).astype(np.int64)
        extra = rng.integers(0, 3, size=(9, 3)).astype(np.int64)
        engine, _ = self.make(codes, ncat)
        n_after = engine.append_rows(extra)
        assert n_after == 49
        fresh = make_engine(
            np.concatenate([codes, extra]), ncat, 3, kind="dense",
            labels=np.zeros(49, dtype=np.int64),
        )
        np.testing.assert_array_equal(engine.codes, fresh.codes)
        np.testing.assert_array_equal(engine._packed_codes, fresh._packed_codes)
        if getattr(engine, "_onehot", None) is not None:
            np.testing.assert_array_equal(engine._onehot, fresh._onehot)

    def test_append_rejects_wrong_width(self):
        engine, _ = self.make(np.zeros((5, 3), dtype=np.int64), [2, 2, 2], k=2)
        with pytest.raises(ValueError):
            engine.append_rows(np.zeros((2, 4), dtype=np.int64))

    def test_append_rejects_out_of_vocabulary(self):
        engine, _ = self.make(np.zeros((5, 2), dtype=np.int64), [2, 2], k=2)
        with pytest.raises(ValueError):
            engine.append_rows(np.full((1, 2), 7, dtype=np.int64))


# ---------------------------------------------------------------------- #
# Worker verbs: append / split / online_sims
# ---------------------------------------------------------------------- #
class TestWorkerStreamingVerbs:
    def worker(self, n=20, d=4, seed=5):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 3, size=(n, d)).astype(np.int64)
        return ShardWorker(codes, [3] * d), codes

    def test_append_extends_rows_and_labels(self):
        worker, codes = self.worker()
        worker.begin_epoch(2, np.zeros(20, dtype=np.int64))
        extra = np.ones((4, 4), dtype=np.int64)
        assert worker.append(extra) == 24
        assert worker.codes.shape[0] == 24
        np.testing.assert_array_equal(worker.labels[20:], [-1, -1, -1, -1])
        np.testing.assert_array_equal(worker.codes[20:], extra)

    def test_append_validates_width(self):
        worker, _ = self.worker()
        with pytest.raises(ValueError):
            worker.append(np.zeros((2, 7), dtype=np.int64))

    def test_split_truncates_in_place(self):
        worker, codes = self.worker()
        worker.begin_epoch(2, np.zeros(20, dtype=np.int64))
        assert worker.split(12) == 12
        assert worker.codes.shape[0] == 12
        assert worker.labels.shape[0] == 12
        np.testing.assert_array_equal(worker.codes, codes[:12])

    @pytest.mark.parametrize("bad", [0, 20, 25, -3])
    def test_split_rejects_degenerate_counts(self, bad):
        worker, _ = self.worker()
        with pytest.raises(ValueError):
            worker.split(bad)

    def test_online_sims_matches_engine_similarity(self):
        worker, codes = self.worker(n=30)
        labels = np.random.default_rng(1).integers(0, 3, size=30)
        worker.begin_epoch(3, labels)
        reference = make_engine(codes, [3] * 4, 3, kind="dense", labels=labels)
        state = reference.snapshot()
        rows = np.array([0, 7, 29], dtype=np.int64)
        exclude = labels[rows]
        sims = worker.online_sims(rows, exclude, state)
        for j, i in enumerate(rows):
            expected = reference.similarity_object(
                codes[i], exclude_cluster=int(labels[i])
            )
            np.testing.assert_array_equal(sims[j], expected)

    def test_online_sims_requires_an_epoch(self):
        worker, _ = self.worker()
        with pytest.raises(RuntimeError):
            worker.online_sims(
                np.array([0]), np.array([0]),
                make_engine(worker.codes, [3] * 4, 2, kind="dense").snapshot(),
            )


# ---------------------------------------------------------------------- #
# The bit-identity precondition: coordinator patching == engine arithmetic
# ---------------------------------------------------------------------- #
class TestExactSimilarityPinning:
    """``_exact_similarity`` must reproduce ``similarity_object`` bitwise.

    This pins the floating-point contract the streaming mode rests on:
    numpy's pairwise summation gives the same bits for a contiguous 1-d
    ``s.sum()`` (the patch path) as for the matching row of the engine's
    2-d reduction — including the leave-one-out branch and feature
    weighting.  If a numpy upgrade ever broke this, streaming bit-identity
    would silently become approximate; this test makes it loud.
    """

    @pytest.mark.parametrize("use_omega", [False, True])
    @pytest.mark.parametrize("missing", [False, True])
    def test_patch_equals_engine_row(self, use_omega, missing):
        rng = np.random.default_rng(42)
        d, k, n = 7, 4, 60
        ncat = [3, 4, 2, 5, 3, 4, 2]
        codes = np.stack(
            [rng.integers(0, m, size=n) for m in ncat], axis=1
        ).astype(np.int64)
        if missing:
            mask = rng.random(codes.shape) < 0.2
            codes[mask] = -1
        labels = rng.integers(0, k, size=n)
        engine = PackedFrequencyEngine(codes, ncat, k)
        engine.rebuild(labels)
        state = engine.snapshot()
        omega = rng.random((d, k)) if use_omega else None
        offsets = _pack_offsets(ncat)
        packed = np.where(codes >= 0, codes + offsets[None, :], -1)
        for i in [0, 13, 59]:
            excl = int(labels[i])
            expected = engine.similarity_object(
                codes[i], feature_weights=omega, exclude_cluster=excl
            )
            for cluster in range(k):
                got = _exact_similarity(
                    state, packed[i], cluster, excl, omega, d
                )
                assert got == expected[cluster], (i, cluster)


# ---------------------------------------------------------------------- #
# Mini-batch online mode: bit-identical to the serial reference
# ---------------------------------------------------------------------- #
class TestStreamingBitIdentity:
    @pytest.mark.parametrize("block_rows", [17, 64, 100_000])
    def test_tcp_fleet_matches_serial_online(
        self, stream_dataset, tcp_hosts, block_rows
    ):
        reference = serial_online(stream_dataset)
        with StreamingMGCPL(
            hosts=tcp_hosts, block_rows=block_rows, random_state=0
        ) as streaming:
            streaming.fit(stream_dataset)
            assert streaming.n_clusters_ == reference.n_clusters_
            np.testing.assert_array_equal(streaming.labels_, reference.labels_)
            stats = streaming.last_executor_.transport_stats()
        assert stats["n_shards"] == 2
        assert stats["payload_bytes_shipped"] > 0  # the one cold handshake

    def test_in_process_executor_supports_online_sims_too(self, stream_dataset):
        """The sync (serial) executor speaks the same verb — the streaming
        coordinator is transport-agnostic."""
        executor = InProcessShardExecutor(
            stream_dataset.codes, stream_dataset.n_categories
        )
        labels = np.zeros(stream_dataset.n_objects, dtype=np.int64)
        executor.begin_epoch(2, labels)
        parts = executor.online_sims(
            make_engine(
                stream_dataset.codes, stream_dataset.n_categories, 2,
                kind="dense", labels=labels,
            ).snapshot(),
            [np.array([0, 1])],
            [np.array([0, 0])],
        )
        assert len(parts) == 1 and parts[0].shape == (2, 2)

    def test_hot_shard_splits_do_not_perturb_results(
        self, stream_dataset, tcp_hosts
    ):
        reference = serial_online(stream_dataset)
        with StreamingMGCPL(
            hosts=tcp_hosts, block_rows=32, split_rows=50, random_state=0
        ) as streaming:
            streaming.fit(stream_dataset)
            np.testing.assert_array_equal(streaming.labels_, reference.labels_)
            executor = streaming.last_executor_
            stats = executor.transport_stats()
            assert stats["splits"] >= 1
            assert stats["n_shards"] > 2
            for event in executor.split_events:
                assert event["rows_kept"] >= 1 and event["rows_moved"] >= 1

    def test_rejects_batch_mode_and_loop_engine(self):
        with pytest.raises(ValueError, match="online"):
            StreamingMGCPL(hosts=["127.0.0.1:1"], update_mode="batch")
        with pytest.raises(ValueError, match="loop"):
            StreamingMGCPL(hosts=["127.0.0.1:1"], engine="loop")
        with pytest.raises(ValueError, match="block_rows"):
            StreamingMGCPL(hosts=["127.0.0.1:1"], block_rows=0)

    def test_sharded_batch_error_points_here(self):
        from repro.distributed import ShardedMGCPL

        with pytest.raises(ValueError, match="StreamingMGCPL"):
            ShardedMGCPL(update_mode="online")


# ---------------------------------------------------------------------- #
# Appends and warm refits
# ---------------------------------------------------------------------- #
class TestWarmRefit:
    def test_refit_after_ingest_ships_zero_payload_bytes(
        self, stream_dataset, tcp_hosts
    ):
        rng = np.random.default_rng(9)
        batch1 = rng.integers(0, 3, size=(31, 6)).astype(np.int64)
        batch2 = rng.integers(0, 3, size=(17, 6)).astype(np.int64)
        with StreamingMGCPL(
            hosts=tcp_hosts, block_rows=40, random_state=0
        ) as streaming:
            streaming.fit(stream_dataset)
            executor = streaming.last_executor_
            cold_payload = executor.transport_stats()["payload_bytes_shipped"]
            assert cold_payload > 0

            streaming.ingest(batch1)
            streaming.ingest(batch2)
            stats = executor.transport_stats()
            # Appends travel on their own counter, never the handshake one.
            assert stats["payload_bytes_shipped"] == cold_payload
            assert stats["append_bytes_shipped"] == batch1.nbytes + batch2.nbytes

            streaming.refit()
            stats = executor.transport_stats()
            assert stats["payload_bytes_shipped"] == cold_payload, (
                "warm refit must ship zero shard payload bytes"
            )
            assert streaming.last_executor_ is executor  # still resident

            # The warm refit equals a scratch serial fit on the same rows.
            everything = CategoricalDataset.from_codes(
                np.concatenate([stream_dataset.codes, batch1, batch2]),
                n_categories=stream_dataset.n_categories,
            )
            reference = MGCPL(update_mode="online", random_state=0).fit(everything)
            np.testing.assert_array_equal(streaming.labels_, reference.labels_)

    def test_appends_route_to_least_loaded_shard(self, stream_dataset, tcp_hosts):
        with StreamingMGCPL(
            hosts=tcp_hosts, block_rows=64, random_state=0
        ) as streaming:
            streaming.fit(stream_dataset)
            executor = streaming.last_executor_
            sizes_before = [idx.size for idx in executor.shard_indices]
            shard_of = executor.append_rows(
                np.zeros((4, 6), dtype=np.int64)
            )
            sizes_after = [idx.size for idx in executor.shard_indices]
            assert sum(sizes_after) == sum(sizes_before) + 4
            # Deterministic: least-loaded first, ties to the lowest index.
            expected = executor.route_rows(0)  # sanity: empty routing works
            assert expected.size == 0
            assert max(sizes_after) - min(sizes_after) <= max(
                1, max(sizes_before) - min(sizes_before)
            )
            assert shard_of.shape == (4,)

    def test_plain_tcp_executor_takes_appends_and_splits(
        self, stream_dataset, tcp_hosts
    ):
        """The streaming verbs live on the plain ``"tcp"`` backend: after an
        append and a split, a sweep is bit-identical to the serial executor
        over the same rows and shard layout."""
        rng = np.random.default_rng(3)
        batch = rng.integers(0, 3, size=(37, 6)).astype(np.int64)
        codes, cats = stream_dataset.codes, list(stream_dataset.n_categories)
        everything = np.concatenate([codes, batch])
        k, d = 4, codes.shape[1]
        labels = rng.integers(0, k, size=everything.shape[0]).astype(np.int64)

        def begin_and_sweep(executor):
            state = executor.begin_epoch(k, labels)
            return executor.sweep(SweepBroadcast(
                state=state,
                u=cluster_weight_from_delta(np.ones(k)),
                rho=winning_ratio(np.zeros(k)),
                omega=np.full((d, k), 1.0 / d),
                blocked=(state.sizes <= 0),
            ))

        with make_executor("tcp", codes, cats, shards=2, hosts=tcp_hosts) as tcp:
            tcp.append_rows(batch)
            assert tcp.split_shard(0) == 2
            layout = [idx.copy() for idx in tcp.shard_indices]
            got = begin_and_sweep(tcp)
            stats = tcp.transport_stats()
        assert stats["append_bytes_shipped"] == batch.nbytes
        assert stats["splits"] == 1 and stats["n_shards"] == 3
        with make_executor("serial", everything, cats, shards=layout) as serial:
            want = begin_and_sweep(serial)
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.state.packed, want.state.packed)
        np.testing.assert_array_equal(got.win_counts, want.win_counts)
        np.testing.assert_array_equal(got.win_sim_total, want.win_sim_total)

    def test_refit_without_fit_raises(self):
        est = StreamingMGCPL(hosts=["127.0.0.1:1"])
        with pytest.raises(RuntimeError, match="resident"):
            est.refit()


# ---------------------------------------------------------------------- #
# Append + SIGKILL recovery: the stream converges to the no-failure state
# ---------------------------------------------------------------------- #
class TestAppendRecovery:
    def test_sigkill_mid_stream_converges_to_no_failure_state(self, stream_dataset):
        procs, addresses = [], []
        try:
            for _ in range(3):
                process, address = spawn_worker_process()
                procs.append(process)
                addresses.append(address)
            rng = np.random.default_rng(21)
            batch1 = rng.integers(0, 3, size=(30, 6)).astype(np.int64)
            batch2 = rng.integers(0, 3, size=(30, 6)).astype(np.int64)
            with StreamingMGCPL(
                hosts=addresses, block_rows=48, random_state=0
            ) as streaming:
                streaming.fit(stream_dataset)
                executor = streaming.last_executor_
                streaming.ingest(batch1)

                # kill -9 one resident worker mid-stream; the next append
                # that touches its shard triggers re-placement, which must
                # replay the rows appended before the crash too.
                victim = int(executor.placement[0])
                procs[victim].kill()
                procs[victim].wait(timeout=10)
                time.sleep(0.2)

                streaming.ingest(batch2)
                assert executor.recovery_events, "the crash went unnoticed"
                streaming.refit()

            everything = CategoricalDataset.from_codes(
                np.concatenate([stream_dataset.codes, batch1, batch2]),
                n_categories=stream_dataset.n_categories,
            )
            reference = MGCPL(update_mode="online", random_state=0).fit(everything)
            np.testing.assert_array_equal(streaming.labels_, reference.labels_)
        finally:
            for process in procs:
                if process.poll() is None:
                    process.kill()
            for process in procs:
                process.wait(timeout=10)


# ---------------------------------------------------------------------- #
# Shard-cache LRU byte budget
# ---------------------------------------------------------------------- #
class TestShardCacheLRU:
    def fill(self, cache, n, rows=16):
        """Put ``n`` distinct entries with strictly increasing mtimes."""
        keys = []
        for i in range(n):
            codes = np.full((rows, 2), i, dtype=np.int64)
            key = shard_content_key(codes, [rows + 1, rows + 1])
            path = cache.put(key, codes, [rows + 1, rows + 1])
            stamp = 1_000_000 + i
            os.utime(path, (stamp, stamp))
            keys.append(key)
        return keys

    def test_parse_byte_size(self):
        assert parse_byte_size(None) is None
        assert parse_byte_size("") is None
        assert parse_byte_size(4096) == 4096
        assert parse_byte_size("512k") == 512 * 1024
        assert parse_byte_size("2m") == 2 * 1024**2
        assert parse_byte_size("1.5g") == int(1.5 * 1024**3)
        with pytest.raises(ValueError, match="malformed"):
            parse_byte_size("lots")
        with pytest.raises(ValueError, match="positive"):
            parse_byte_size("0")
        with pytest.raises(ValueError, match="positive"):
            parse_byte_size(-3)

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ShardCache(tmp_path)
        self.fill(cache, 5)
        assert cache.evictions == 0
        assert len(cache._entries()) == 5

    def test_put_evicts_least_recently_used_first(self, tmp_path):
        cache = ShardCache(tmp_path)
        entry_size = cache.path_for(self.fill(cache, 1)[0]).stat().st_size
        cache = ShardCache(tmp_path, max_bytes=3 * entry_size)
        keys = self.fill(cache, 5)  # re-puts key 0 (touch), adds 4 more
        assert cache.evictions >= 2
        assert cache.total_bytes() <= 3 * entry_size
        # The newest entries survive; the oldest were evicted.
        assert cache.has(keys[-1])
        assert not cache.has(keys[0]) or not cache.has(keys[1])

    def test_get_touch_protects_an_entry(self, tmp_path):
        cache = ShardCache(tmp_path, max_bytes=10**9)
        keys = self.fill(cache, 3)
        entry_size = cache.path_for(keys[0]).stat().st_size
        cache.max_bytes = 3 * entry_size
        assert cache.get(keys[0]) is not None  # oldest becomes most recent
        extra = self.fill(cache, 1, rows=17)  # overflow: one must go
        # key 0 was just used, so key 1 (now the oldest) is the victim.
        assert cache.has(keys[0])
        assert not cache.has(keys[1])
        assert cache.has(extra[0])

    def test_own_put_is_never_evicted_by_itself(self, tmp_path):
        cache = ShardCache(tmp_path, max_bytes=1)  # absurdly small budget
        keys = self.fill(cache, 1)
        assert cache.has(keys[0])  # over budget, but the fresh put survives

    def test_env_var_budget_and_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_MAX_ENV, "64k")
        assert ShardCache(tmp_path).max_bytes == 64 * 1024
        assert ShardCache(tmp_path, max_bytes="1m").max_bytes == 1024**2
        monkeypatch.delenv(CACHE_MAX_ENV)
        assert ShardCache(tmp_path).max_bytes is None

    def test_worker_server_accepts_budget(self, tmp_path):
        server = WorkerServer(
            "127.0.0.1", 0, shard_cache=tmp_path / "cache",
            shard_cache_max_bytes="2m",
        )
        try:
            assert server.shard_cache.max_bytes == 2 * 1024**2
        finally:
            server.shutdown()

    def test_cli_exposes_the_flag(self):
        args = build_parser().parse_args(
            ["worker", "--shard-cache", "/tmp/c", "--shard-cache-max-bytes", "512m"]
        )
        assert args.shard_cache_max_bytes == "512m"


# ---------------------------------------------------------------------- #
# Concept-drift stream generator
# ---------------------------------------------------------------------- #
class TestDriftStream:
    def test_seeded_streams_are_reproducible(self):
        a = make_drift_stream(n_batches=5, batch_rows=40, random_state=7)
        b = make_drift_stream(n_batches=5, batch_rows=40, random_state=7)
        for batch_a, batch_b in zip(a, b):
            np.testing.assert_array_equal(batch_a.codes, batch_b.codes)
            np.testing.assert_array_equal(batch_a.labels, batch_b.labels)
            np.testing.assert_array_equal(batch_a.true_modes, batch_b.true_modes)

    def test_shapes_vocabulary_and_labels(self):
        stream = make_drift_stream(
            n_batches=4, batch_rows=25, n_features=5, n_clusters=3,
            n_categories=4, random_state=0,
        )
        assert len(stream) == 4
        for batch in stream:
            assert batch.codes.shape == (25, 5)
            assert batch.n_categories == [4] * 5
            assert batch.labels.shape == (25,)
            assert set(np.unique(batch.labels)) <= {0, 1, 2}
            assert batch.codes.min() >= 0 and batch.codes.max() < 4
            assert batch.true_modes.shape == (3, 5)

    def test_drift_migrates_modes_and_zero_drift_is_stationary(self):
        drifting = make_drift_stream(
            n_batches=8, batch_rows=20, drift=0.4, random_state=1
        )
        assert any(
            not np.array_equal(drifting[0].true_modes, batch.true_modes)
            for batch in drifting[1:]
        )
        frozen = make_drift_stream(
            n_batches=5, batch_rows=20, drift=0.0, random_state=1
        )
        assert all(
            np.array_equal(frozen[0].true_modes, batch.true_modes)
            for batch in frozen
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            make_drift_stream(n_categories=1)
        with pytest.raises(ValueError):
            make_drift_stream(drift=1.5)
        with pytest.raises(ValueError):
            make_drift_stream(cluster_weights=[1.0])
