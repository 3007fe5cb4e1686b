"""The serving tier: concurrency contract, snapshots, drain, reconnect.

The contract under test (ISSUE 5): a loopback ``ServingClient.predict`` is
**bit-identical** to calling ``predict`` on the model in process; concurrent
predicts racing an ingest stream only ever observe exact post-batch states
(never a torn one); a snapshot taken under load reloads to an
``EngineState`` identical to the same estimator fed the same batches in one
process; and drain leaves no stuck threads.  Everything here runs under a
hard timeout so a deadlock in the lock or socket code fails fast.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.data.uci.registry import load_dataset
from repro.distributed.transport import TransportError
from repro.persistence import load_model, save_model
from repro.registry import make_clusterer
from repro.serving import ModelServer, ServingClient, serve_model

pytestmark = pytest.mark.timeout(90)


def fit_reference(dataset):
    return make_clusterer("kmodes", n_clusters=dataset.n_clusters_true or 2,
                          n_init=2, random_state=0).fit(dataset)


@pytest.fixture(scope="module")
def vot():
    return load_dataset("Vot")


@pytest.fixture(scope="module")
def vot_model(vot):
    return fit_reference(vot)


@pytest.fixture()
def model_file(vot_model, tmp_path):
    path = tmp_path / "model.npz"
    save_model(vot_model, path)
    return path


@pytest.fixture()
def server(model_file):
    server = serve_model(model_file)
    yield server
    server.stop(timeout=10)


# ---------------------------------------------------------------------- #
# Loopback equivalence
# ---------------------------------------------------------------------- #
class TestLoopbackEquivalence:
    @pytest.mark.parametrize("dataset_name", ["Vot", "Bal"])
    def test_predict_bit_identical_to_in_process(self, dataset_name, tmp_path):
        dataset = load_dataset(dataset_name)
        model = fit_reference(dataset)
        path = tmp_path / "m.npz"
        save_model(model, path)
        server = serve_model(path)
        try:
            with ServingClient(server.address) as client:
                np.testing.assert_array_equal(
                    client.predict(dataset), model.predict(dataset)
                )
                # raw coded arrays take the same path as datasets
                np.testing.assert_array_equal(
                    client.predict(dataset.codes), model.predict(dataset.codes)
                )
        finally:
            assert server.stop(timeout=10)

    def test_welcome_and_info_report_model_facts(self, server, vot_model):
        with ServingClient(server.address) as client:
            assert client.server_info["clusterer"] == "KModes"
            assert client.server_info["n_clusters"] == vot_model.n_clusters_
            info = client.info()
            assert info["n_objects"] == vot_model.labels_.shape[0]
            assert info["ingested_batches"] == 0
            assert info["service"] == "repro-serving"

    def test_application_error_reported_session_survives(self, server, vot):
        with ServingClient(server.address) as client:
            bad = np.zeros((4, vot.n_features + 3), dtype=np.int64)
            with pytest.raises(TransportError, match="model server raised"):
                client.predict(bad)
            # the session keeps serving after a reported error
            labels = client.predict(vot.codes[:10])
            assert labels.shape == (10,)

    def test_in_memory_model_with_snapshots_requires_a_path(self, vot_model):
        with pytest.raises(ValueError, match="snapshot_path"):
            ModelServer(vot_model, snapshot_every=1)

    def test_unfitted_model_rejected(self):
        with pytest.raises(RuntimeError, match="not been fitted"):
            ModelServer(make_clusterer("kmodes", n_clusters=2))


# ---------------------------------------------------------------------- #
# Ingest + snapshots
# ---------------------------------------------------------------------- #
class TestIngestAndSnapshots:
    def test_ingest_and_snapshot_bit_identical_to_in_process(
        self, model_file, vot, tmp_path
    ):
        batches = [vot.codes[i::4] for i in range(3)]
        snapshot_path = tmp_path / "snapshot.npz"
        server = serve_model(
            model_file, snapshot_path=snapshot_path, snapshot_every=2
        )
        reference = load_model(model_file)
        try:
            with ServingClient(server.address) as client:
                for batch in batches:
                    served_labels = client.ingest(batch)
                    np.testing.assert_array_equal(served_labels, reference.ingest(batch))
                forced = client.snapshot()
                info = client.info()
            assert forced == snapshot_path
            assert info["ingested_batches"] == 3
            assert info["snapshots_taken"] >= 2  # one at the 2nd ingest + forced
        finally:
            assert server.stop(timeout=10)

        loaded = load_model(snapshot_path)
        state, ref_state = loaded.assignment_model_.state, reference.assignment_model_.state
        np.testing.assert_array_equal(state.packed, ref_state.packed)
        np.testing.assert_array_equal(state.valid_counts, ref_state.valid_counts)
        np.testing.assert_array_equal(state.sizes, ref_state.sizes)
        np.testing.assert_array_equal(loaded.labels_, reference.labels_)
        probe = vot.codes[::3]
        np.testing.assert_array_equal(loaded.predict(probe), reference.predict(probe))

    def test_snapshot_writes_are_atomic_no_debris(self, model_file, vot):
        server = serve_model(model_file, snapshot_every=1)
        try:
            with ServingClient(server.address) as client:
                client.ingest(vot.codes[:20])
                client.snapshot()
        finally:
            assert server.stop(timeout=10)
        leftovers = [p for p in model_file.parent.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
        assert load_model(model_file).labels_.shape[0] == vot.n_objects + 20

    def test_periodic_snapshot_fires_while_dirty(self, model_file, vot):
        server = serve_model(model_file, snapshot_interval=0.2)
        try:
            with ServingClient(server.address) as client:
                client.ingest(vot.codes[:10])
                deadline = time.monotonic() + 15
                while time.monotonic() < deadline:
                    if client.info()["snapshots_taken"] >= 1:
                        break
                    time.sleep(0.05)
                assert client.info()["snapshots_taken"] >= 1
        finally:
            assert server.stop(timeout=10)

    def test_drain_takes_a_final_snapshot_of_unsaved_ingests(self, model_file, vot):
        server = serve_model(model_file)  # no snapshot triggers configured
        with ServingClient(server.address) as client:
            client.ingest(vot.codes[:15])
        assert server.stop(timeout=10)
        assert server.snapshots_taken == 1  # the drain-time flush
        assert load_model(model_file).labels_.shape[0] == vot.n_objects + 15


# ---------------------------------------------------------------------- #
# Concurrency: N predict clients racing an ingest stream
# ---------------------------------------------------------------------- #
class TestConcurrency:
    N_CLIENTS = 4
    PREDICTS_PER_CLIENT = 12
    N_BATCHES = 3

    def _reference_states(self, model_file, batches, probe):
        """Single-threaded serial execution: the only replies the server may give.

        Returns the reference estimator (after all batches), the probe
        predictions after 0..K batches, and the labels each ingest assigned.
        """
        reference = load_model(model_file)
        allowed = [reference.predict(probe)]
        ingest_labels = []
        for batch in batches:
            ingest_labels.append(reference.ingest(batch))
            allowed.append(reference.predict(probe))
        return reference, allowed, ingest_labels

    def test_concurrent_predicts_match_serial_execution_exactly(
        self, model_file, vot
    ):
        batches = [vot.codes[i :: self.N_BATCHES] for i in range(self.N_BATCHES)]
        probe = vot.codes[::5]
        _, allowed, ingest_labels = self._reference_states(model_file, batches, probe)
        allowed_bytes = {a.tobytes() for a in allowed}

        server = serve_model(model_file)
        failures: list = []
        responses: list = []

        def hammer():
            try:
                with ServingClient(server.address) as client:
                    for _ in range(self.PREDICTS_PER_CLIENT):
                        responses.append(client.predict(probe))
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append(exc)

        try:
            threads = [
                threading.Thread(target=hammer) for _ in range(self.N_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            with ServingClient(server.address) as writer:
                for batch, expected in zip(batches, ingest_labels):
                    # ingests are serialized, so the served labels must be
                    # bit-identical to the reference's for the same batch
                    np.testing.assert_array_equal(writer.ingest(batch), expected)
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert len(responses) == self.N_CLIENTS * self.PREDICTS_PER_CLIENT
            # Every concurrent reply is bit-identical to one of the K+1 serial
            # states: readers never observe a torn or intermediate merge.
            for reply in responses:
                assert reply.tobytes() in allowed_bytes
            # And once the stream is done, the served state is the final one.
            with ServingClient(server.address) as client:
                np.testing.assert_array_equal(client.predict(probe), allowed[-1])
        finally:
            assert server.stop(timeout=10)

    def test_snapshot_under_load_reloads_to_identical_state(self, model_file, vot, tmp_path):
        batches = [vot.codes[i :: self.N_BATCHES] for i in range(self.N_BATCHES)]
        probe = vot.codes[::5]
        reference, _, _ = self._reference_states(model_file, batches, probe)
        snapshot_path = tmp_path / "under-load.npz"

        server = serve_model(model_file, snapshot_path=snapshot_path)
        stop_hammer = threading.Event()
        failures: list = []

        def hammer():
            try:
                with ServingClient(server.address) as client:
                    while not stop_hammer.is_set():
                        client.predict(probe)
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(self.N_CLIENTS)]
        try:
            for thread in threads:
                thread.start()
            with ServingClient(server.address) as writer:
                for batch in batches:
                    writer.ingest(batch)
                path = writer.snapshot()
        finally:
            stop_hammer.set()
            for thread in threads:
                thread.join(timeout=30)
            server_drained = server.stop(timeout=10)
        assert server_drained
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

        loaded = load_model(path)
        state, ref_state = loaded.assignment_model_.state, reference.assignment_model_.state
        np.testing.assert_array_equal(state.packed, ref_state.packed)
        np.testing.assert_array_equal(state.valid_counts, ref_state.valid_counts)
        np.testing.assert_array_equal(state.sizes, ref_state.sizes)

    def test_drain_leaves_no_stuck_threads(self, model_file, vot):
        server = serve_model(model_file)
        idle_clients = [
            ServingClient(server.address).connect() for _ in range(3)
        ]
        try:
            # each idle session has a live server thread parked between requests
            for client in idle_clients:
                client.predict(vot.codes[:5])
            assert server.stop(timeout=10), "drain timed out"
            assert not any(t.is_alive() for t in server._sessions)
            assert server._serve_thread is not None
            assert not server._serve_thread.is_alive()
        finally:
            for client in idle_clients:
                client.close()

    def test_stalled_mid_frame_client_cannot_block_drain(self, model_file, vot):
        # A slow-loris peer: one header byte, then silence.  The session
        # thread must still notice the drain instead of parking in recv.
        server = serve_model(model_file)
        loris = socket.create_connection((server.host, server.port), timeout=5)
        try:
            loris.sendall(b"\x00")
            with ServingClient(server.address) as client:
                client.predict(vot.codes[:5])  # server is otherwise healthy
            assert server.stop(timeout=10), "stalled peer blocked the drain"
            assert not any(t.is_alive() for t in server._sessions)
        finally:
            loris.close()

    def test_finished_sessions_are_pruned(self, model_file, vot):
        # A long-lived server must not retain one Thread per connection served.
        server = serve_model(model_file)
        try:
            for _ in range(5):
                with ServingClient(server.address) as client:
                    client.predict(vot.codes[:3])
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and server._sessions:
                time.sleep(0.1)
            assert server._sessions == []
        finally:
            assert server.stop(timeout=10)

    def test_client_initiated_shutdown_drains(self, model_file):
        server = serve_model(model_file)
        with ServingClient(server.address) as client:
            client.shutdown_server()
        assert server.drained.wait(timeout=10)

    def test_once_server_exits_after_sessions_finish(self, model_file, vot):
        server = serve_model(model_file, once=True)
        with ServingClient(server.address) as client:
            client.predict(vot.codes[:5])
        assert server.drained.wait(timeout=10)


# ---------------------------------------------------------------------- #
# Connection lifecycle
# ---------------------------------------------------------------------- #
class TestConnectionLifecycle:
    def test_reconnect_on_refused_waits_for_the_server(self, model_file, vot_model, vot):
        # Reserve a port, start the server only after the client began
        # connecting: the refused connects must be retried, not fatal.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        holder = {}

        def late_start():
            time.sleep(0.5)
            holder["server"] = ModelServer(model_file, "127.0.0.1", port).start()

        starter = threading.Thread(target=late_start)
        starter.start()
        try:
            with ServingClient(f"127.0.0.1:{port}", connect_timeout=15) as client:
                np.testing.assert_array_equal(
                    client.predict(vot.codes[:10]), vot_model.predict(vot.codes[:10])
                )
        finally:
            starter.join(timeout=10)
            if "server" in holder:
                holder["server"].stop(timeout=10)

    def test_client_reconnects_after_server_restart(self, model_file, vot):
        first = serve_model(model_file)
        host, port = first.host, first.port
        client = ServingClient(f"{host}:{port}", connect_timeout=10)
        try:
            client.predict(vot.codes[:5])
            assert first.stop(timeout=10)
            with pytest.raises(TransportError):
                client.predict(vot.codes[:5])  # connection died with the server
            second = ModelServer(model_file, host, port).start()
            try:
                # next request reconnects (fresh handshake) transparently
                labels = client.predict(vot.codes[:5])
                assert labels.shape == (5,)
            finally:
                assert second.stop(timeout=10)
        finally:
            client.close()

    def test_connect_to_dead_port_fails_with_transport_error(self):
        with pytest.raises(TransportError, match="cannot connect"):
            ServingClient("127.0.0.1:1", connect_timeout=0.5, retry_interval=0.1).connect()

    def test_serving_client_against_a_shard_worker_fails_cleanly(self, vot):
        from repro.distributed import rpc

        worker = rpc.serve_worker("127.0.0.1:0")
        try:
            with pytest.raises(TransportError):
                ServingClient(worker.address, connect_timeout=2).connect()
        finally:
            worker.shutdown()

    def test_shard_coordinator_against_a_model_server_fails_cleanly(self, model_file, vot):
        from repro.distributed import rpc

        server = serve_model(model_file)
        try:
            with pytest.raises(TransportError):
                rpc.TCPTransport(
                    server.address, vot.codes[:10], list(vot.n_categories)
                )
        finally:
            assert server.stop(timeout=10)


# ---------------------------------------------------------------------- #
# CLI integration
# ---------------------------------------------------------------------- #
class TestServeCLI:
    def test_parser_accepts_serve_options(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "m.npz", "--listen", "0.0.0.0:9100",
             "--snapshot-every", "10", "--snapshot-path", "s.npz", "--once"]
        )
        assert args.command == "serve"
        assert args.model == "m.npz" and args.snapshot_every == 10 and args.once

    def test_predict_requires_model_or_server(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="MODEL archive path or --server"):
            main(["predict", "Vot"])
        with pytest.raises(SystemExit, match="one or the other"):
            main(["predict", "m.npz", "Vot", "--server", "127.0.0.1:1"])

    def test_serve_missing_model_is_a_usage_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="does not exist"):
            main(["serve", "no-such-model.npz"])

    def test_predict_against_live_server_matches_local_predict(
        self, model_file, capsys
    ):
        from repro.cli import main

        server = serve_model(model_file)
        try:
            assert main(["predict", "--server", server.address, "Vot"]) == 0
            via_server = capsys.readouterr().out
            assert main(["predict", str(model_file), "Vot"]) == 0
            local = capsys.readouterr().out
            assert via_server.splitlines()[0] == local.splitlines()[0]
            assert "assigned" in via_server and "ACC=" in via_server
        finally:
            assert server.stop(timeout=10)


# ---------------------------------------------------------------------- #
# Hot model reload (ISSUE 9): swap the archive under the write lock
# ---------------------------------------------------------------------- #
class TestHotReload:
    @pytest.fixture()
    def other_model_file(self, vot, tmp_path):
        other = make_clusterer(
            "kmodes", n_clusters=3, n_init=2, random_state=1
        ).fit(vot)
        path = tmp_path / "other.npz"
        save_model(other, path)
        return path, other

    def test_reload_swaps_model_without_dropping_the_session(
        self, server, vot, vot_model, other_model_file
    ):
        other_path, other = other_model_file
        with ServingClient(server.address) as client:
            np.testing.assert_array_equal(client.predict(vot), vot_model.predict(vot))
            meta = client.reload(str(other_path))
            assert meta["n_clusters"] == other.n_clusters_
            assert meta["reloads"] == 1
            # Same session, new model — no reconnect happened.
            np.testing.assert_array_equal(client.predict(vot), other.predict(vot))
            assert client.info()["reloads"] == 1

    def test_reload_default_path_rereads_launch_archive(
        self, model_file, vot, vot_model, other_model_file
    ):
        other_path, other = other_model_file
        save_model(other, model_file)  # the archive changed on disk
        server = serve_model(model_file)
        try:
            with ServingClient(server.address) as client:
                # Still serving the old in-memory model until asked.
                meta = client.reload()
                assert meta["path"] == str(model_file)
                np.testing.assert_array_equal(client.predict(vot), other.predict(vot))
        finally:
            assert server.stop(timeout=10)

    def test_reload_missing_path_or_archive_is_reported(self, vot_model, server):
        with ServingClient(server.address) as client:
            with pytest.raises(TransportError, match="(?s)does not exist|No such file"):
                client.reload("/no/such/archive.npz")
            # The session survives the failed reload and the model is intact.
            assert client.info()["reloads"] == 0

    def test_replica_rejects_reload_and_resyncs_after_primary_reload(
        self, server, vot, other_model_file
    ):
        other_path, other = other_model_file
        replica = serve_model(None, replica_of=server.address)
        try:
            with ServingClient(replica.address) as client:
                with pytest.raises(TransportError, match="read replica"):
                    client.reload(str(other_path))
            with ServingClient(server.address) as client:
                client.reload(str(other_path))
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                with ServingClient(replica.address) as client:
                    if client.info()["n_clusters"] == other.n_clusters_:
                        np.testing.assert_array_equal(
                            client.predict(vot), other.predict(vot)
                        )
                        break
                time.sleep(0.25)
            else:
                pytest.fail("replica never resynced to the reloaded model")
        finally:
            assert replica.stop(timeout=10)
