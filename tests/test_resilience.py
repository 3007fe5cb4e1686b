"""The fault-tolerant ``tcp`` shard runtime.

The contract under test: a worker that is ``kill -9``-ed mid-fit does not
abort the fit — the shard is re-placed deterministically onto a surviving
host, its state replayed from the tracked labels, and the fit completes
**bit-identical** to the serial reference for batch MGCPL; each shard's codes
ship once, in the hello (asserted via the transport counters); placement
from :meth:`GranularityAwareScheduler.place_shards` is deterministic for a
fixed seed, including after a host loss; backend options are validated and
threaded through estimators, the CLI, saved models and experiment configs;
and the codec knobs (frame cap, connect/receive timeouts) honour their
environment variables with validation.

Real process death is exercised through ``repro worker`` subprocesses
(SIGKILL, no cleanup); the cheaper protocol paths run over in-process
worker threads (``local_worker_pool``).
"""

from __future__ import annotations

import json
import logging
import os
import re
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.cli import build_parser
from repro.core.mgcpl import MGCPL
from repro.core.sync import InProcessShardExecutor
from repro.data.generators import make_categorical_clusters
from repro.distributed import (
    GranularityAwareScheduler,
    NodePool,
    RemoteWorkerError,
    ResilientTCPExecutor,
    RetryPolicy,
    ShardedMCDC,
    ShardedMGCPL,
    TransportError,
    make_executor,
    make_node_pool,
)
from repro.distributed import codec, rpc
from repro.distributed.transport import resolve_backend

pytestmark = pytest.mark.timeout(120)


# ---------------------------------------------------------------------- #
# Real worker processes (so SIGKILL is SIGKILL)
# ---------------------------------------------------------------------- #
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
# Retry policy and liveness probes
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

    def test_ping_host_fails_cleanly_on_dead_address(self):
        with pytest.raises(TransportError):
            rpc.ping_host("127.0.0.1:1", timeout=0.5)

    def test_ping_host_answers_a_live_worker(self, small_clusters):
        """A ping session holds no shard state: the worker then serves a fit."""
        with rpc.local_worker_pool(1) as hosts:
            latency = rpc.ping_host(hosts[0], timeout=5.0)
            assert 0 < latency < 5.0
            executor = make_executor(
                "tcp", small_clusters.codes, small_clusters.n_categories,
                shards=1, hosts=hosts,
            )
            reference = InProcessShardExecutor(
                small_clusters.codes, small_clusters.n_categories,
                shard_indices=executor.shard_indices,
            )
            try:
                np.testing.assert_array_equal(
                    executor.begin_epoch(3, None).sizes,
                    reference.begin_epoch(3, None).sizes,
                )
                modes = small_clusters.codes[[0, 80, 160]]
                theta = np.ones(small_clusters.codes.shape[1])
                np.testing.assert_array_equal(
                    executor.hamming_assign(modes, theta),
                    reference.hamming_assign(modes, theta),
                )
            finally:
                executor.close()
                reference.close()

    def test_ping_host_rejects_a_peer_that_is_not_a_worker(self):
        """A listener that hangs up after accepting is a failed probe, not a hang."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        address = "%s:%d" % listener.getsockname()

        def accept_and_hang_up():
            conn, _ = listener.accept()
            conn.close()

        thread = threading.Thread(target=accept_and_hang_up, daemon=True)
        thread.start()
        try:
            with pytest.raises(TransportError):
                rpc.ping_host(address, timeout=5.0)
        finally:
            thread.join(timeout=10)
            listener.close()


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
        # the re-placed shard's codes shipped again, and the stats keep the
        # retired transport's bytes
        shard = executor.shard_indices[event["shard"]]
        assert executor.transport_stats()["payload_bytes_shipped"] == (
            small_clusters.codes.nbytes + small_clusters.codes[shard].nbytes
        )
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
            # hamming_assign before any begin_epoch: a deterministic
            # application error from a healthy worker — recovery must NOT
            # kick in.
            with pytest.raises(RemoteWorkerError, match="worker raised"):
                executor.hamming_assign(
                    small_clusters.codes[[0, 1]], np.ones(small_clusters.codes.shape[1])
                )
            assert executor.recovery_events == []
            executor.close()

# ---------------------------------------------------------------------- #
# The handshake ships each shard's codes once, in the hello
# ---------------------------------------------------------------------- #
class TestHandshake:
    def test_codes_ship_once_in_the_hello(self, small_clusters):
        with rpc.local_worker_pool(1) as hosts:
            executor = make_executor(
                "tcp", small_clusters.codes, small_clusters.n_categories,
                shards=1, hosts=hosts,
            )
            stats = executor.transport_stats()
            assert stats["payload_bytes_shipped"] == small_clusters.codes.nbytes
            executor.close()

    @pytest.mark.parametrize("shards", [2, 3])
    def test_each_shard_ships_once_across_hosts(self, small_clusters, shards):
        """More shards than hosts: the shards' codes together ship once."""
        with rpc.local_worker_pool(2) as hosts:
            executor = make_executor(
                "tcp", small_clusters.codes, small_clusters.n_categories,
                shards=shards, hosts=hosts,
            )
            try:
                assert len(executor.shard_indices) == shards
                executor.begin_epoch(3, None)
                executor.hamming_assign(
                    small_clusters.codes[[0, 1, 2]],
                    np.ones(small_clusters.codes.shape[1]),
                )
                stats = executor.transport_stats()
                assert stats["payload_bytes_shipped"] == small_clusters.codes.nbytes
            finally:
                executor.close()

    def test_every_reply_reports_the_worker_elapsed(self, small_clusters):
        """Each transport keeps the worker-side seconds of its last reply."""
        with rpc.local_worker_pool(2) as hosts:
            executor = make_executor(
                "tcp", small_clusters.codes, small_clusters.n_categories,
                shards=2, hosts=hosts,
            )
            try:
                executor.begin_epoch(3, None)
                executor.hamming_assign(
                    small_clusters.codes[[0, 1, 2]],
                    np.ones(small_clusters.codes.shape[1]),
                )
                elapsed = [t.last_elapsed for t in executor._transports]
                assert len(elapsed) == 2
                assert all(isinstance(e, float) and e >= 0 for e in elapsed)
            finally:
                executor.close()


# ---------------------------------------------------------------------- #
# S3: placement determinism (incl. after a simulated host loss)
# ---------------------------------------------------------------------- #
class TestPlacementDeterminism:
    SIZES = [400, 300, 300, 200, 150]

    def test_same_hosts_same_seed_identical_maps(self):
        pool = make_node_pool(n_nodes=4, n_profiles=2, random_state=0)
        first = GranularityAwareScheduler(
            n_groups=2, random_state=0
        ).place_shards(self.SIZES, pool)
        second = GranularityAwareScheduler(
            n_groups=2, random_state=0
        ).place_shards(self.SIZES, pool)
        assert first == second
        assert all(0 <= node < 4 for node in first)

    def test_determinism_survives_host_loss(self):
        full = make_node_pool(n_nodes=4, n_profiles=2, random_state=0)
        pool = NodePool(nodes=[n for n in full.nodes if n.node_id != 1])  # host 1 lost
        first = GranularityAwareScheduler(
            n_groups=2, random_state=0
        ).place_shards(self.SIZES, pool)
        second = GranularityAwareScheduler(
            n_groups=2, random_state=0
        ).place_shards(self.SIZES, pool)
        assert first == second
        # pool indices map back to host ids through pool.nodes
        assert {pool.nodes[p].node_id for p in first} <= {0, 2, 3}

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
# ---------------------------------------------------------------------- #
# Option threading: estimators and CLI
# ---------------------------------------------------------------------- #
class TestOptionThreading:
    def test_estimator_validates_backend_options_early(self):
        with pytest.raises(ValueError, match="does not accept option"):
            ShardedMGCPL(
                n_shards=2, backend="serial", backend_options={"max_retries": 1},
            )
        with pytest.raises(ValueError, match="does not accept option"):
            ShardedMGCPL(
                n_shards=2, backend="tcp", hosts=["127.0.0.1:1"],
                backend_options={"nope": 1},
            )

    @pytest.mark.parametrize("retired", ["shard_cache", "heartbeat_interval", "rebalance"])
    def test_each_retired_option_is_dropped_with_one_warning(self, retired, caplog):
        from repro.distributed.runtime import RETIRED_BACKEND_OPTIONS

        assert retired in RETIRED_BACKEND_OPTIONS
        with caplog.at_level(logging.WARNING, logger="repro"):
            model = ShardedMGCPL(
                n_shards=2, backend="tcp", hosts=["127.0.0.1:1"],
                backend_options={retired: 1, "timeout": 5.0},
            )
        assert [r.getMessage() for r in caplog.records] == [
            f"ignoring retired backend option(s) {retired}"
        ]
        assert model.backend_options == {"timeout": 5.0}

    def test_unknown_option_beside_a_retired_one_still_raises(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro"):
            with pytest.raises(ValueError, match="does not accept option.*nope"):
                ShardedMGCPL(
                    n_shards=2, backend="tcp", hosts=["127.0.0.1:1"],
                    backend_options={"rebalance": True, "nope": 1},
                )
        assert [r.getMessage() for r in caplog.records] == [
            "ignoring retired backend option(s) rebalance"
        ]

    def test_tcp_backend_takes_four_options(self):
        from repro.distributed.transport import get_backend_spec

        assert get_backend_spec("tcp").options == (
            "hosts", "placement", "timeout", "max_retries",
        )

    def test_estimator_passes_options_through(self, small_clusters):
        with rpc.local_worker_pool(2) as hosts:
            model = ShardedMGCPL(
                n_shards=2, backend="tcp", hosts=hosts, random_state=0,
                backend_options={"max_retries": 1},
            )
            model.fit(small_clusters)
        assert model.labels_ is not None
        assert model.last_executor_.retry_policy.max_retries == 1

    @staticmethod
    def _backend_namespace(**overrides):
        import argparse

        defaults = dict(backend=None, workers=None, max_retries=None)
        defaults.update(overrides)
        return argparse.Namespace(**defaults)

    def test_cli_flags_require_backend(self):
        from repro.cli import _resolve_backend_args

        with pytest.raises(SystemExit, match="--max-retries"):
            _resolve_backend_args(self._backend_namespace(max_retries=1))

    def test_cli_flags_validate_values(self):
        from repro.cli import _resolve_backend_args

        with pytest.raises(SystemExit, match="--max-retries"):
            _resolve_backend_args(self._backend_namespace(
                backend="tcp", workers="127.0.0.1:1", max_retries=-2,
            ))

    def test_cli_rejects_options_on_wrong_backend(self):
        from repro.cli import _resolve_backend_args

        with pytest.raises(SystemExit, match="does not take --max-retries"):
            _resolve_backend_args(self._backend_namespace(
                backend="serial", max_retries=1,
            ))

    def test_cli_accepts_full_tcp_option_set(self):
        from repro.cli import _resolve_backend_args

        backend, hosts, options = _resolve_backend_args(self._backend_namespace(
            backend="tcp", workers="127.0.0.1:1,127.0.0.1:2", max_retries=4,
        ))
        assert backend == "tcp"
        assert hosts == ["127.0.0.1:1", "127.0.0.1:2"]
        assert options == {"max_retries": 4}

    @pytest.mark.parametrize("argv", [
        ["run", "table2", "--heartbeat-interval", "1.0"],
        ["run", "table2", "--shard-cache", "/tmp/cache"],
        ["worker", "--shard-cache", "/tmp/cache"],
        ["worker", "--shard-cache-max-bytes", "512m"],
    ])
    def test_cli_rejects_retired_flags(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_fitted_model_with_backend_options_persists(
        self, tmp_path, small_clusters, caplog
    ):
        """save_model/load_model round-trips backend_options; retired keys drop."""
        from repro.persistence import load_model, save_model

        with rpc.local_worker_pool(2) as hosts:
            with caplog.at_level(logging.WARNING, logger="repro"):
                model = ShardedMCDC(
                    n_clusters=3, n_shards=2, backend="tcp", hosts=hosts,
                    random_state=0, backend_options={"max_retries": 1},
                )
            model.fit(small_clusters)
            # An archive written before the option was retired still names it.
            model.backend_options = {"rebalance": True, "max_retries": 3}
            path = save_model(model, tmp_path / "model.npz")
        assert not caplog.records
        # Loading needs no live workers: predict serves from the archive.
        with caplog.at_level(logging.WARNING, logger="repro"):
            loaded = load_model(path)
        assert [r.getMessage() for r in caplog.records] == [
            "ignoring retired backend option(s) rebalance"
        ]
        assert loaded.get_params()["backend_options"] == {"max_retries": 3}
        assert loaded.backend_options == {"max_retries": 3}
        np.testing.assert_array_equal(
            loaded.predict(small_clusters.codes), model.predict(small_clusters.codes)
        )

        # An archive of the folded shared-memory backend: its default
        # backend name and its (always null) multiprocessing context.
        serial = ShardedMCDC(n_clusters=3, n_shards=2, backend="serial", random_state=0)
        serial.fit(small_clusters)
        path = save_model(serial, tmp_path / "serial.npz")
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(str(arrays["__meta__"]))
        meta["params"].update(backend="shm", mp_context=None)
        arrays["__meta__"] = np.asarray(json.dumps(meta))
        np.savez_compressed(path, **arrays)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro"):
            old = load_model(path)
        assert [r.getMessage() for r in caplog.records] == [
            "ignoring retired parameter(s) mp_context"
        ]
        assert resolve_backend(old.backend) == "serial"
        assert "mp_context" not in old.get_params()
        np.testing.assert_array_equal(
            old.predict(small_clusters.codes), serial.predict(small_clusters.codes)
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

    def test_experiment_config_naming_a_retired_option_still_builds(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import route_through_backend
        from repro.registry import make_clusterer

        config = ExperimentConfig(
            backend="tcp", hosts=("127.0.0.1:1",),
            backend_options=(("heartbeat_interval", 1.0), ("shard_cache", "/c")),
        )
        name, extra = route_through_backend("mcdc", config)
        estimator = make_clusterer(name, n_clusters=2, **extra)
        assert estimator.backend_options is None
