"""The fault-tolerant elastic shard runtime (ISSUE 8).

The contract under test: a worker that is ``kill -9``-ed mid-fit does not
abort the fit — the shard is re-placed deterministically onto a surviving
host, its state replayed from the tracked labels, and the fit completes
**bit-identical** to the serial reference for batch MGCPL; the
content-addressed shard cache makes re-fits of the same data ship zero
payload bytes (asserted via the transport counters); heartbeats mark hosts
dead after consecutive missed probes and reinstate them on the first
success; placement from :meth:`GranularityAwareScheduler.place_shards` is
deterministic for a fixed seed, including after a host loss; and the S1
codec knobs (frame cap, connect/receive timeouts) honour their environment
variables with validation.

Real process death is exercised through ``repro worker`` subprocesses
(SIGKILL, no cleanup); the cheaper protocol paths run over in-process
worker threads (``local_worker_pool``).
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
from repro.core.mgcpl import MGCPL
from repro.core.sync import InProcessShardExecutor
from repro.data.generators import make_categorical_clusters
from repro.distributed import (
    GranularityAwareScheduler,
    HeartbeatMonitor,
    RemoteWorkerError,
    ResilientTCPExecutor,
    RetryPolicy,
    ShardCache,
    ShardedMGCPL,
    TransportError,
    make_executor,
    measured_node_pool,
    parse_byte_size,
    shard_content_key,
)
from repro.distributed import codec, rpc
from repro.distributed.rpc import WorkerServer
from repro.distributed.shardcache import CACHE_MAX_ENV

pytestmark = pytest.mark.timeout(120)


# ---------------------------------------------------------------------- #
# Real worker processes (so SIGKILL is SIGKILL)
# ---------------------------------------------------------------------- #
def spawn_worker_process(shard_cache=None):
    """Launch ``repro worker`` in a subprocess; returns (process, address)."""
    cmd = [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"]
    if shard_cache is not None:
        cmd += ["--shard-cache", str(shard_cache)]
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


@pytest.fixture()
def worker_fleet():
    """Three killable ``repro worker`` subprocesses; yields (procs, addresses)."""
    procs, addresses = [], []
    try:
        for _ in range(3):
            process, address = spawn_worker_process()
            procs.append(process)
            addresses.append(address)
        yield procs, addresses
    finally:
        for process in procs:
            if process.poll() is None:
                process.kill()
        for process in procs:
            process.wait(timeout=10)


@pytest.fixture(scope="module")
def fit_dataset():
    return make_categorical_clusters(
        n_objects=900, n_features=8, n_clusters=3, random_state=7,
        name="resilience-fit",
    )


# ---------------------------------------------------------------------- #
# S1: configurable frame cap and timeouts
# ---------------------------------------------------------------------- #
class TestCodecConfiguration:
    def test_frame_cap_defaults_to_module_constant(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_FRAME", raising=False)
        assert codec.frame_cap() == codec.MAX_FRAME

    def test_frame_cap_honours_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_FRAME", "4096")
        assert codec.frame_cap() == 4096

    @pytest.mark.parametrize("bad", ["zero", "-5", "0", "1.5"])
    def test_frame_cap_rejects_malformed_env(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_MAX_FRAME", bad)
        with pytest.raises(ValueError, match="REPRO_MAX_FRAME"):
            codec.frame_cap()

    def test_env_frame_cap_enforced_on_send(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_FRAME", "64")

        class _Sink:
            def sendall(self, data):  # pragma: no cover - must not be reached
                raise AssertionError("oversized frame was sent")

        with pytest.raises(TransportError, match="exceeds the 64"):
            codec.send_frame(_Sink(), b"x" * 65)

    def test_explicit_max_frame_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_FRAME", "1000000")

        class _Sink:
            def sendall(self, data):  # pragma: no cover
                raise AssertionError("oversized frame was sent")

        with pytest.raises(TransportError, match="exceeds the 32"):
            codec.send_frame(_Sink(), b"x" * 33, max_frame=32)

    def test_connect_timeout_default_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CONNECT_TIMEOUT", raising=False)
        assert codec.default_connect_timeout() == 10.0
        monkeypatch.setenv("REPRO_CONNECT_TIMEOUT", "2.5")
        assert codec.default_connect_timeout() == 2.5
        monkeypatch.setenv("REPRO_CONNECT_TIMEOUT", "-1")
        with pytest.raises(ValueError, match="REPRO_CONNECT_TIMEOUT"):
            codec.default_connect_timeout()

    def test_io_timeout_default_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_IO_TIMEOUT", raising=False)
        assert codec.default_io_timeout() is None
        monkeypatch.setenv("REPRO_IO_TIMEOUT", "7.5")
        assert codec.default_io_timeout() == 7.5
        monkeypatch.setenv("REPRO_IO_TIMEOUT", "nope")
        with pytest.raises(ValueError, match="REPRO_IO_TIMEOUT"):
            codec.default_io_timeout()


# ---------------------------------------------------------------------- #
# The content-addressed shard cache
# ---------------------------------------------------------------------- #
class TestShardCache:
    def test_content_key_is_stable_and_content_sensitive(self, toy_codes):
        key = shard_content_key(toy_codes, [3, 3, 3])
        assert key == shard_content_key(toy_codes.copy(), [3, 3, 3])
        assert key != shard_content_key(toy_codes, [4, 3, 3])  # vocab differs
        changed = toy_codes.copy()
        changed[0, 0] += 1
        assert key != shard_content_key(changed, [3, 3, 3])

    def test_put_get_roundtrip(self, tmp_path, toy_codes):
        cache = ShardCache(tmp_path)
        key = shard_content_key(toy_codes, [3, 3, 3])
        cache.put(key, toy_codes, [3, 3, 3])
        assert cache.has(key)
        codes, ncat = cache.get(key)
        np.testing.assert_array_equal(codes, toy_codes)
        assert ncat == [3, 3, 3]

    def test_corrupt_entry_is_a_miss(self, tmp_path, toy_codes):
        cache = ShardCache(tmp_path)
        key = shard_content_key(toy_codes, [3, 3, 3])
        path = cache.put(key, toy_codes, [3, 3, 3])
        path.write_bytes(b"not an npz archive")
        assert cache.get(key) is None

    def test_malformed_key_rejected(self, tmp_path):
        cache = ShardCache(tmp_path)
        with pytest.raises(ValueError, match="malformed"):
            cache.path_for("../../etc/passwd")


# ---------------------------------------------------------------------- #
# Retry policy and heartbeats
# ---------------------------------------------------------------------- #
class TestLiveness:
    def test_retry_delays_are_capped_and_jittered(self):
        import random

        policy = RetryPolicy(max_retries=6, base_delay=0.2, max_delay=2.0)
        delays = list(policy.delays(random.Random(0)))
        assert len(delays) == 6
        assert all(0 < delay <= 2.0 for delay in delays)

    def test_retry_policy_validates(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)

    def test_heartbeat_marks_dead_and_reinstates(self):
        with rpc.local_worker_pool(1) as hosts:
            transitions = []
            monitor = HeartbeatMonitor(
                hosts + ["127.0.0.1:1"], interval=0.05, timeout=0.5,
                max_misses=2, on_change=lambda h, a: transitions.append((h, a)),
            ).start()
            try:
                deadline = time.monotonic() + 10.0
                while monitor.is_alive("127.0.0.1:1") and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert monitor.is_alive(hosts[0])
                assert not monitor.is_alive("127.0.0.1:1")
                assert ("127.0.0.1:1", False) in transitions
                snapshot = monitor.snapshot()
                assert snapshot[hosts[0]]["alive"]
                assert snapshot["127.0.0.1:1"]["consecutive_misses"] >= 2
            finally:
                monitor.stop()
            # reinstatement: feed a manual success observation in
            monitor.observe("127.0.0.1:1", True, latency=0.001)
            assert monitor.is_alive("127.0.0.1:1")
            assert ("127.0.0.1:1", True) in transitions

    def test_ping_host_fails_cleanly_on_dead_address(self):
        with pytest.raises(TransportError):
            rpc.ping_host("127.0.0.1:1", timeout=0.5)


# ---------------------------------------------------------------------- #
# Fault injection: SIGKILL mid-fit, fit completes bit-identical
# ---------------------------------------------------------------------- #
class TestRecovery:
    def test_sigkill_mid_protocol_recovers_bit_identical(
        self, worker_fleet, small_clusters
    ):
        procs, hosts = worker_fleet
        executor = make_executor(
            "tcp", small_clusters.codes, small_clusters.n_categories,
            shards=3, hosts=hosts, max_retries=2,
        )
        reference = InProcessShardExecutor(
            small_clusters.codes, small_clusters.n_categories,
            shard_indices=executor.shard_indices,
        )
        assert isinstance(executor, ResilientTCPExecutor)
        np.testing.assert_array_equal(
            executor.begin_epoch(3, None).sizes, reference.begin_epoch(3, None).sizes
        )
        modes = small_clusters.codes[[0, 80, 160]]
        theta = np.ones(small_clusters.codes.shape[1])
        for step in range(5):
            if step == 2:
                procs[0].kill()
                procs[0].wait(timeout=10)
            np.testing.assert_array_equal(
                executor.hamming_assign(modes, theta),
                reference.hamming_assign(modes, theta),
            )
        assert len(executor.recovery_events) == 1
        event = executor.recovery_events[0]
        assert event["from_host"] == hosts[0]
        assert event["to_host"] in hosts[1:]
        assert event["recovery_seconds"] > 0
        # the dead host left the candidate set for the executor's lifetime
        assert 0 not in executor.alive_host_indices()
        executor.close()
        reference.close()

    def test_sigkill_mid_fit_completes_identical_to_serial(
        self, worker_fleet, fit_dataset, monkeypatch
    ):
        procs, hosts = worker_fleet
        serial = MGCPL(random_state=3, update_mode="batch").fit(fit_dataset)
        model = ShardedMGCPL(
            n_shards=3, backend="tcp", hosts=hosts, random_state=3,
            backend_options={"max_retries": 3},
        )
        # Kill a worker right before the third sweep is dispatched: tied to
        # the fit's progress, not to a wall-clock delay the fit may outrun.
        sweep = ResilientTCPExecutor.sweep
        sweeps = []

        def sweep_then_kill(executor, broadcast):
            sweeps.append(broadcast)
            if len(sweeps) == 3:
                procs[1].kill()
                procs[1].wait(timeout=10)
            return sweep(executor, broadcast)

        monkeypatch.setattr(ResilientTCPExecutor, "sweep", sweep_then_kill)
        model.fit(fit_dataset)
        assert len(sweeps) > 3, "the fit ended before the worker was killed"
        assert procs[1].poll() is not None, "worker survived the whole fit"
        np.testing.assert_array_equal(model.labels_, serial.labels_)

    def test_no_surviving_host_embeds_original_error(self, worker_fleet, small_clusters):
        procs, hosts = worker_fleet
        executor = make_executor(
            "tcp", small_clusters.codes, small_clusters.n_categories,
            shards=2, hosts=[hosts[0]], max_retries=1,
        )
        executor.begin_epoch(2, None)
        procs[0].kill()
        procs[0].wait(timeout=10)
        with pytest.raises(TransportError, match="re-placement failed"):
            executor.hamming_assign(
                small_clusters.codes[[0, 1]], np.ones(small_clusters.codes.shape[1])
            )
        assert executor.recovery_events == []
        executor.close()

    def test_remote_worker_error_is_never_retried(self, small_clusters):
        with rpc.local_worker_pool(2) as hosts:
            executor = make_executor(
                "tcp", small_clusters.codes, small_clusters.n_categories,
                shards=2, hosts=hosts, max_retries=3,
            )
            # rebuild before any begin_epoch: a deterministic application
            # error from a healthy worker — recovery must NOT kick in.
            with pytest.raises(RemoteWorkerError, match="worker raised"):
                executor.rebuild(np.zeros(small_clusters.n_objects, dtype=np.int64))
            assert executor.recovery_events == []
            executor.close()

    def test_recovery_restores_from_worker_cache(self, tmp_path, small_clusters):
        """A re-placed shard handshakes from the cache: zero payload bytes."""
        with rpc.local_worker_pool(2, shard_cache=tmp_path) as survivors:
            process, doomed = spawn_worker_process()
            try:
                executor = make_executor(
                    "tcp", small_clusters.codes, small_clusters.n_categories,
                    shards=2, hosts=[doomed, survivors[0]],
                    shard_cache=tmp_path, max_retries=2,
                )
                executor.begin_epoch(3, None)
                shipped_before = executor.transport_stats()["payload_bytes_shipped"]
                process.kill()
                process.wait(timeout=10)
                executor.hamming_assign(
                    small_clusters.codes[[0, 1, 2]],
                    np.ones(small_clusters.codes.shape[1]),
                )
                assert len(executor.recovery_events) == 1
                assert executor.recovery_events[0]["cache_status"] == "hit"
                stats = executor.transport_stats()
                assert stats["payload_bytes_shipped"] == shipped_before
                executor.close()
            finally:
                if process.poll() is None:
                    process.kill()
                process.wait(timeout=10)


# ---------------------------------------------------------------------- #
# Warm shard cache: second fit ships zero payload bytes
# ---------------------------------------------------------------------- #
class TestShardCacheOnTheWire:
    def test_second_fit_ships_zero_bytes(self, tmp_path, small_clusters):
        coordinator_cache = tmp_path / "coordinator"
        worker_cache = tmp_path / "workers"
        with rpc.local_worker_pool(2, shard_cache=worker_cache) as hosts:
            first = make_executor(
                "tcp", small_clusters.codes, small_clusters.n_categories,
                shards=2, hosts=hosts, shard_cache=coordinator_cache,
            )
            cold = first.transport_stats()
            assert cold["payload_bytes_shipped"] > 0
            assert cold["cache_misses"] == 2
            first.begin_epoch(3, None)
            first.close()

            second = make_executor(
                "tcp", small_clusters.codes, small_clusters.n_categories,
                shards=2, hosts=hosts, shard_cache=coordinator_cache,
            )
            warm = second.transport_stats()
            assert warm["payload_bytes_shipped"] == 0
            assert warm["cache_hits"] == 2
            # and the warm executor still computes
            assert int(second.begin_epoch(3, None).sizes.sum()) == 0
            second.close()

    def test_shared_directory_never_ships(self, tmp_path, small_clusters):
        """Coordinator and workers sharing one cache dir: zero bytes from fit one."""
        with rpc.local_worker_pool(2, shard_cache=tmp_path) as hosts:
            executor = make_executor(
                "tcp", small_clusters.codes, small_clusters.n_categories,
                shards=2, hosts=hosts, shard_cache=tmp_path,
            )
            stats = executor.transport_stats()
            assert stats["payload_bytes_shipped"] == 0
            assert stats["cache_hits"] == 2
            executor.close()

    def test_without_cache_codes_ship_in_the_hello(self, small_clusters):
        with rpc.local_worker_pool(1) as hosts:
            executor = make_executor(
                "tcp", small_clusters.codes, small_clusters.n_categories,
                shards=1, hosts=hosts,
            )
            stats = executor.transport_stats()
            assert stats["payload_bytes_shipped"] == small_clusters.codes.nbytes
            executor.close()


# ---------------------------------------------------------------------- #
# S3: placement determinism (incl. after a simulated host loss)
# ---------------------------------------------------------------------- #
class TestPlacementDeterminism:
    SIZES = [400, 300, 300, 200, 150]

    def test_same_hosts_same_seed_identical_maps(self):
        pool = measured_node_pool({0: 120.0, 1: 80.0, 2: 200.0, 3: 95.0})
        first = GranularityAwareScheduler(
            n_groups=2, random_state=0
        ).place_shards(self.SIZES, pool)
        second = GranularityAwareScheduler(
            n_groups=2, random_state=0
        ).place_shards(self.SIZES, pool)
        assert first == second
        assert all(0 <= node < 4 for node in first)

    def test_determinism_survives_host_loss(self):
        surviving = {0: 120.0, 2: 200.0, 3: 95.0}  # host 1 lost
        pool = measured_node_pool(surviving)
        first = GranularityAwareScheduler(
            n_groups=2, random_state=0
        ).place_shards(self.SIZES, pool)
        second = GranularityAwareScheduler(
            n_groups=2, random_state=0
        ).place_shards(self.SIZES, pool)
        assert first == second
        # pool indices map back to host ids through sorted(surviving)
        hosts = sorted(surviving)
        assert {hosts[p] for p in first} <= {0, 2, 3}

    def test_replacement_host_choice_is_deterministic(self, small_clusters):
        """Least-resident-rows among the living, ties to the lowest index."""
        with rpc.local_worker_pool(3) as hosts:
            executor = make_executor(
                "tcp", small_clusters.codes, small_clusters.n_categories,
                shards=3, hosts=hosts, placement=[0, 1, 2],
            )
            try:
                # drop host 2's transport from the books: hosts 0 and 1 carry
                # one shard each (a tie) -> host 0 must win, repeatably
                assert executor._pick_host(exclude={2}) == 0
                assert executor._pick_host(exclude={2}) == 0
                assert executor._pick_host(exclude={0, 2}) == 1
                assert executor._pick_host(exclude={0, 1, 2}) is None
            finally:
                executor.close()

    def test_measured_pool_features_stay_in_vocabulary(self):
        from repro.distributed.node import NODE_FEATURES

        pool = measured_node_pool({h: 50.0 + 10.0 * h for h in range(8)})
        for node in pool.nodes:
            for feature, value in node.features.items():
                assert value in NODE_FEATURES[feature]
        # fastest host gets the fastest bucket
        assert pool.nodes[7].features["gpu_type"] == "D"
        assert pool.nodes[0].features["gpu_type"] == "A"
        # to_dataset works (MCDC grouping path)
        assert pool.to_dataset().n_objects == 8


# ---------------------------------------------------------------------- #
# Elastic rebalancing
# ---------------------------------------------------------------------- #
class TestRebalancing:
    def test_rebalance_fit_matches_serial(self, fit_dataset):
        serial = MGCPL(random_state=1, update_mode="batch").fit(fit_dataset)
        with rpc.local_worker_pool(2) as hosts:
            model = ShardedMGCPL(
                n_shards=4, backend="tcp", hosts=hosts, random_state=1,
                backend_options={"rebalance": True},
            )
            model.fit(fit_dataset)
        np.testing.assert_array_equal(model.labels_, serial.labels_)

    def test_rebalance_moves_load_off_a_slow_host(self, small_clusters):
        """With measured timings faked, the scheduler shifts shards correctly."""
        with rpc.local_worker_pool(2) as hosts:
            executor = make_executor(
                "tcp", small_clusters.codes, small_clusters.n_categories,
                shards=4, hosts=hosts, rebalance=True,
            )
            try:
                executor.begin_epoch(3, None)
                # fake measurements: host 0 is 10x slower than host 1
                executor._host_rows[0] = 1000.0
                executor._host_seconds[0] = 10.0
                executor._host_rows[1] = 1000.0
                executor._host_seconds[1] = 1.0
                before = list(executor.placement)
                executor.begin_epoch(3, None)  # boundary -> rebalance hook
                after = list(executor.placement)
                assert executor.rebalance_events, "no rebalance was applied"
                moved = executor.rebalance_events[0]
                assert moved["makespan_after"] < moved["makespan_before"]
                assert after.count(1) > before.count(1)
                # and the executor still computes correctly after the moves
                reference = InProcessShardExecutor(
                    small_clusters.codes, small_clusters.n_categories,
                    shard_indices=executor.shard_indices,
                )
                reference.begin_epoch(3, None)
                modes = small_clusters.codes[[0, 80, 160]]
                theta = np.ones(small_clusters.codes.shape[1])
                np.testing.assert_array_equal(
                    executor.hamming_assign(modes, theta),
                    reference.hamming_assign(modes, theta),
                )
                reference.close()
            finally:
                executor.close()


# ---------------------------------------------------------------------- #
# Option threading: estimators and CLI
# ---------------------------------------------------------------------- #
class TestOptionThreading:
    def test_estimator_validates_backend_options_early(self):
        with pytest.raises(ValueError, match="does not accept option"):
            ShardedMGCPL(
                n_shards=2, backend="serial",
                backend_options={"shard_cache": "/tmp/nope"},
            )

    def test_estimator_passes_options_through(self, tmp_path, small_clusters):
        with rpc.local_worker_pool(2) as hosts:
            model = ShardedMGCPL(
                n_shards=2, backend="tcp", hosts=hosts, random_state=0,
                backend_options={"shard_cache": str(tmp_path), "max_retries": 1},
            )
            model.fit(small_clusters)
        assert model.labels_ is not None
        # the coordinator-side put landed the shards in the cache
        assert any(tmp_path.rglob("*.npz"))

    @staticmethod
    def _backend_namespace(**overrides):
        import argparse

        defaults = dict(
            backend=None, workers=None, max_retries=None,
            heartbeat_interval=None, shard_cache=None,
        )
        defaults.update(overrides)
        return argparse.Namespace(**defaults)

    def test_cli_flags_require_backend(self):
        from repro.cli import _resolve_backend_args

        with pytest.raises(SystemExit, match="--shard-cache"):
            _resolve_backend_args(self._backend_namespace(shard_cache="/tmp/cache"))

    def test_cli_flags_validate_values(self):
        from repro.cli import _resolve_backend_args

        with pytest.raises(SystemExit, match="--max-retries"):
            _resolve_backend_args(self._backend_namespace(
                backend="tcp", workers="127.0.0.1:1", max_retries=-2,
            ))
        with pytest.raises(SystemExit, match="--heartbeat-interval"):
            _resolve_backend_args(self._backend_namespace(
                backend="tcp", workers="127.0.0.1:1", heartbeat_interval=0.0,
            ))

    def test_cli_rejects_options_on_wrong_backend(self):
        from repro.cli import _resolve_backend_args

        with pytest.raises(SystemExit, match="does not take --shard-cache"):
            _resolve_backend_args(self._backend_namespace(
                backend="serial", shard_cache="/tmp/cache",
            ))

    def test_cli_accepts_full_tcp_option_set(self, tmp_path):
        from repro.cli import _resolve_backend_args

        backend, hosts, options = _resolve_backend_args(self._backend_namespace(
            backend="tcp", workers="127.0.0.1:1,127.0.0.1:2",
            max_retries=4, heartbeat_interval=0.5, shard_cache=str(tmp_path),
        ))
        assert backend == "tcp"
        assert hosts == ["127.0.0.1:1", "127.0.0.1:2"]
        assert options == {
            "max_retries": 4,
            "heartbeat_interval": 0.5,
            "shard_cache": str(tmp_path),
        }

    def test_fitted_model_with_backend_options_persists(
        self, tmp_path, small_clusters
    ):
        """save_model/load_model round-trips the backend_options dict."""
        from repro.persistence import load_model, save_model

        with rpc.local_worker_pool(2) as hosts:
            model = ShardedMGCPL(
                n_shards=2, backend="tcp", hosts=hosts, random_state=0,
                backend_options={"max_retries": 1, "shard_cache": str(tmp_path)},
            )
            model.fit(small_clusters)
            path = save_model(model, tmp_path / "model.npz")
        # Loading needs no live workers: predict serves from the archive.
        loaded = load_model(path)
        assert loaded.get_params()["backend_options"] == {
            "max_retries": 1, "shard_cache": str(tmp_path),
        }
        np.testing.assert_array_equal(
            loaded.predict(small_clusters.codes), model.predict(small_clusters.codes)
        )

    def test_experiment_config_threads_backend_options(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import route_through_backend

        config = ExperimentConfig(
            backend="serial",
            backend_options=(("max_retries", 3),),
        )
        name, extra = route_through_backend("mcdc", config)
        assert name == "mcdc@sharded"
        assert extra["backend_options"] == {"max_retries": 3}


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
