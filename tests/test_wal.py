"""Durable serving ingest: the write-ahead log and its recovery contract.

The contract under test (ISSUE 10): with ``wal=True`` every acked ingest is
appended to ``<snapshot_path>.wal`` *before* it is applied, so a server
killed between snapshots — with a real ``SIGKILL``, not a polite drain —
recovers by replay to an ``EngineState`` **bit-identical** to everything it
acknowledged.  A torn final record (the append the crash interrupted) is
discarded by CRC; records already contained in the loaded snapshot are
skipped by their recorded object counts; a successful snapshot rotates the
log so it stays bounded; ``reload`` truncates it.  Also covered: the two
PR 10 bugfixes — a post-apply snapshot failure must still ack the ingest
(reported out-of-band via ``snapshot_failures``), and ``snapshot_interval=0``
must be rejected instead of silently coerced to "disabled".
"""

from __future__ import annotations

import io
import logging
import os
import re
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.data.uci.registry import load_dataset
from repro.distributed.codec import (
    pack_message,
    read_wal_records,
    wal_record,
)
from repro.distributed.transport import TransportError
from repro.persistence import load_model, save_model
from repro.registry import make_clusterer
from repro.serving import ModelServer, ServingClient, WriteAheadLog, route_serving

pytestmark = pytest.mark.timeout(120)


# ---------------------------------------------------------------------- #
# Fixtures & helpers
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def vot():
    return load_dataset("Vot")


@pytest.fixture(scope="module")
def vot_model(vot):
    return make_clusterer(
        "kmodes", n_clusters=2, n_init=1, random_state=0
    ).fit(vot.codes[:120])


@pytest.fixture()
def model_file(vot_model, tmp_path):
    path = tmp_path / "model.npz"
    save_model(vot_model, path)
    return path


def batches(vot, *slices):
    return [vot.codes[a:b] for a, b in slices]


#: Three disjoint ingest batches past the fitted prefix.
BATCH_SLICES = [(120, 150), (150, 190), (190, 232)]


def state_arrays(model):
    state = model.assignment_model_.state
    return (
        np.asarray(state.packed),
        np.asarray(state.valid_counts),
        np.asarray(state.sizes),
    )


def assert_states_identical(recovered, reference):
    for got, want in zip(state_arrays(recovered), state_arrays(reference)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(recovered.labels_, reference.labels_)


def reference_fed(model_file, batch_list):
    """An in-process model fed exactly ``batch_list`` through plain ingest."""
    model = load_model(model_file)
    for batch in batch_list:
        model.ingest(batch)
    return model


def wal_body(seq, base_n, codes, labels):
    return pack_message(
        "wal", {"seq": seq, "base_n": int(base_n)},
        codes=np.asarray(codes, dtype=np.int64),
        labels=np.asarray(labels, dtype=np.int64),
    )


# ---------------------------------------------------------------------- #
# Record framing (codec helpers)
# ---------------------------------------------------------------------- #
class TestWalRecordFraming:
    def test_round_trip_multiple_records(self):
        bodies = [b"first", b"second record", b"x" * 1000]
        data = b"".join(wal_record(b) for b in bodies)
        got, clean = read_wal_records(data)
        assert got == bodies
        assert clean == len(data)

    def test_empty_input(self):
        assert read_wal_records(b"") == ([], 0)

    def test_torn_tail_dropped_earlier_records_kept(self):
        intact = wal_record(b"intact-one") + wal_record(b"intact-two")
        torn = wal_record(b"torn-by-the-crash")[:-5]
        got, clean = read_wal_records(intact + torn)
        assert got == [b"intact-one", b"intact-two"]
        assert clean == len(intact)

    def test_truncated_header_is_a_torn_tail(self):
        intact = wal_record(b"ok")
        got, clean = read_wal_records(intact + b"\x00\x01\x02")
        assert got == [b"ok"]
        assert clean == len(intact)

    def test_crc_mismatch_stops_the_scan(self):
        first = wal_record(b"good")
        second = bytearray(wal_record(b"flipped"))
        second[-1] ^= 0xFF  # corrupt the body, not the header
        third = wal_record(b"unreachable")
        got, clean = read_wal_records(first + bytes(second) + third)
        assert got == [b"good"]
        assert clean == len(first)

    def test_corrupt_length_prefix_stops_the_scan(self):
        first = wal_record(b"good")
        huge = (2**62).to_bytes(8, "big") + b"\x00" * 20
        got, clean = read_wal_records(first + huge)
        assert got == [b"good"]
        assert clean == len(first)

    def test_oversized_body_rejected_at_append(self):
        with pytest.raises(TransportError, match="exceeds"):
            wal_record(b"x" * 100, max_record=50)

    def test_cap_enforced_symmetrically_at_read(self):
        record = wal_record(b"y" * 100)
        got, clean = read_wal_records(record, max_record=50)
        assert got == [] and clean == 0


class TestWriteAheadLogFile:
    def test_append_read_counters(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "log.wal", sync="always")
        wal.append(b"alpha")
        wal.append(b"beta-longer")
        assert wal.records == 2
        bodies, clean, torn = WriteAheadLog.read(tmp_path / "log.wal")
        assert bodies == [b"alpha", b"beta-longer"]
        assert clean == wal.size_bytes and torn == 0
        wal.close()

    def test_missing_file_reads_empty(self, tmp_path):
        assert WriteAheadLog.read(tmp_path / "nope.wal") == ([], 0, 0)

    def test_rotate_empties_the_file(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "log.wal", sync="batch")
        wal.append(b"doomed")
        wal.rotate()
        assert wal.records == 0 and wal.size_bytes == 0
        assert (tmp_path / "log.wal").stat().st_size == 0
        wal.append(b"fresh")
        assert WriteAheadLog.read(tmp_path / "log.wal")[0] == [b"fresh"]
        wal.close()

    def test_truncate_to_discards_a_torn_tail(self, tmp_path):
        path = tmp_path / "log.wal"
        path.write_bytes(wal_record(b"keep") + wal_record(b"torn")[:-2])
        bodies, clean, torn = WriteAheadLog.read(path)
        assert bodies == [b"keep"] and torn > 0
        wal = WriteAheadLog(path, sync="batch")
        wal.truncate_to(clean)
        wal.append(b"next")
        assert WriteAheadLog.read(path)[0] == [b"keep", b"next"]
        wal.close()

    def test_invalid_sync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="wal_sync"):
            WriteAheadLog(tmp_path / "log.wal", sync="sometimes")


# ---------------------------------------------------------------------- #
# WAL-logged ingest is exact (assign + replay_ingest == ingest)
# ---------------------------------------------------------------------- #
class TestWalIngestExactness:
    @pytest.mark.parametrize("wal_sync", ["always", "batch", "none"])
    def test_acked_labels_and_state_match_plain_ingest(
        self, vot, model_file, wal_sync
    ):
        server = ModelServer(model_file, wal=True, wal_sync=wal_sync).start()
        try:
            reference = load_model(model_file)
            with ServingClient(server.address) as client:
                for batch in batches(vot, *BATCH_SLICES):
                    np.testing.assert_array_equal(
                        client.ingest(batch), reference.ingest(batch)
                    )
            assert_states_identical(server.model, reference)
            info = server.info()
            assert info["wal"] is True
            assert info["wal_sync"] == wal_sync
            assert info["wal_records"] == len(BATCH_SLICES)
            assert info["wal_bytes"] == server.wal_path.stat().st_size or (
                wal_sync == "none"  # buffered: file may lag the counter
            )
        finally:
            assert server.stop(timeout=10)


# ---------------------------------------------------------------------- #
# Crash-recovery matrix: real SIGKILL on a subprocess server
# ---------------------------------------------------------------------- #
CRASH_DRIVER = textwrap.dedent("""
    import os, signal, sys, time

    from repro.serving.server import ModelServer, WriteAheadLog

    crash_point = os.environ.get("WAL_CRASH_POINT", "")
    crash_batch = int(os.environ.get("WAL_CRASH_BATCH", "0"))
    model_path, wal_sync = sys.argv[1], sys.argv[2]

    if crash_point:
        original = WriteAheadLog.append
        seen = {"n": 0}

        def crashing(self, body):
            seen["n"] += 1
            if crash_point == "before_append" and seen["n"] == crash_batch:
                os.kill(os.getpid(), signal.SIGKILL)
            original(self, body)
            if crash_point == "after_append" and seen["n"] == crash_batch:
                os.kill(os.getpid(), signal.SIGKILL)

        WriteAheadLog.append = crashing

    server = ModelServer(model_path, wal=True, wal_sync=wal_sync).start()
    print(f"listening on {server.address}", flush=True)
    while True:
        time.sleep(0.5)
""")


def spawn_crashing_server(tmp_path, model_file, wal_sync, crash_point="",
                          crash_batch=0):
    """A subprocess WAL server armed to SIGKILL itself mid-append."""
    driver = tmp_path / "crash_driver.py"
    driver.write_text(CRASH_DRIVER)
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                    env.get("PYTHONPATH")) if p
    )
    if crash_point:
        env["WAL_CRASH_POINT"] = crash_point
        env["WAL_CRASH_BATCH"] = str(crash_batch)
    process = subprocess.Popen(
        [sys.executable, str(driver), str(model_file), wal_sync],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    line = process.stdout.readline()
    match = re.search(r"listening on (\S+)", line)
    if not match:  # pragma: no cover - diagnostics for a broken spawn
        process.kill()
        raise RuntimeError(f"server printed {line!r} instead of its address")
    return process, match.group(1)


class TestCrashRecoveryMatrix:
    def recover(self, model_file, wal_sync="always"):
        """Restart on the same paths; returns the recovered server (unbound)."""
        return ModelServer(model_file, wal=True, wal_sync=wal_sync)

    def test_sigkill_before_append_loses_only_the_unacked_batch(
        self, vot, model_file, tmp_path
    ):
        b1, b2, b3 = batches(vot, *BATCH_SLICES)
        process, address = spawn_crashing_server(
            tmp_path, model_file, "always", crash_point="before_append",
            crash_batch=3,
        )
        try:
            with ServingClient(address) as client:
                client.ingest(b1)
                client.ingest(b2)
                with pytest.raises(TransportError):
                    client.ingest(b3)  # the server died before logging it
            assert process.wait(timeout=30) == -signal.SIGKILL
        finally:
            process.kill()
            process.wait(timeout=30)
        recovered = self.recover(model_file)
        assert recovered.wal_replayed_batches == 2
        assert_states_identical(
            recovered.model, reference_fed(model_file, [b1, b2])
        )

    def test_sigkill_after_append_before_apply_replays_the_durable_record(
        self, vot, model_file, tmp_path
    ):
        # wal_sync="batch" (flush to the OS, no fsync) on purpose: an OS
        # page-cache write survives a process SIGKILL, which is exactly the
        # "batch" durability claim in the module docs.
        b1, b2 = batches(vot, *BATCH_SLICES[:2])
        process, address = spawn_crashing_server(
            tmp_path, model_file, "batch", crash_point="after_append",
            crash_batch=2,
        )
        try:
            with ServingClient(address) as client:
                client.ingest(b1)
                with pytest.raises(TransportError):
                    client.ingest(b2)  # logged, then killed before the ack
            assert process.wait(timeout=30) == -signal.SIGKILL
        finally:
            process.kill()
            process.wait(timeout=30)
        # The append completed before the kill, so the record is durable and
        # recovery replays it: acked-plus-the-logged-tail, never less than
        # everything acked.
        recovered = self.recover(model_file, wal_sync="batch")
        assert recovered.wal_replayed_batches == 2
        assert_states_identical(
            recovered.model, reference_fed(model_file, [b1, b2])
        )

    def test_sigkill_between_ack_and_snapshot_recovers_everything_acked(
        self, vot, model_file, tmp_path
    ):
        """The headline contract, end to end through the real CLI."""
        all_batches = batches(vot, *BATCH_SLICES)
        snap = tmp_path / "snap.npz"
        cmd = [sys.executable, "-m", "repro", "serve", str(model_file),
               "--listen", "127.0.0.1:0", "--snapshot-path", str(snap),
               "--wal", "--wal-sync", "batch", "--no-warmup"]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                        env.get("PYTHONPATH")) if p
        )

        def spawn():
            process = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, text=True, env=env
            )
            banner, address = [], None
            for line in process.stdout:
                banner.append(line)
                match = re.search(r"listening on (\S+)", line)
                if match:
                    address = match.group(1)
                    break
            if address is None:  # pragma: no cover
                process.kill()
                raise RuntimeError(f"no address in {banner!r}")
            return process, address, "".join(banner)

        process, address, banner = spawn()
        try:
            assert f"write-ahead log -> {snap}.wal" in banner
            with ServingClient(address) as client:
                for batch in all_batches:
                    client.ingest(batch)  # every ack lands before the kill
        finally:
            process.kill()  # SIGKILL: no drain, no farewell snapshot
            process.wait(timeout=30)

        # Restart on the very same command line; it must announce the replay
        # and serve a state bit-identical to the acked ingests.
        process, address, banner = spawn()
        try:
            assert "wal replay: recovered 3 acked ingest batches" in banner
            with ServingClient(address) as client:
                info = client.info()
                assert info["wal_replayed_batches"] == 3
                assert client.snapshot() == snap
        finally:
            process.kill()
            process.wait(timeout=30)
        assert_states_identical(
            load_model(snap), reference_fed(model_file, all_batches)
        )


# ---------------------------------------------------------------------- #
# Replay unit behaviour: torn tails, stale records, mismatched pairs
# ---------------------------------------------------------------------- #
class TestReplayEdgeCases:
    def test_torn_final_record_dropped_earlier_ones_replayed(
        self, vot, model_file, tmp_path
    ):
        b1, b2 = batches(vot, *BATCH_SLICES[:2])
        reference = load_model(model_file)
        body1 = wal_body(1, reference.labels_.shape[0],
                         b1, reference.ingest(b1))
        body2 = wal_body(2, reference.labels_.shape[0],
                         b2, reference.assignment_model_.assign(b2))
        wal_path = model_file.with_name(model_file.name + ".wal")
        wal_path.write_bytes(
            wal_record(body1) + wal_record(body2)[:-7]  # crash mid-append
        )
        server = ModelServer(model_file, wal=True)
        assert server.wal_replayed_batches == 1
        assert_states_identical(server.model, reference_fed(model_file, [b1]))
        # The torn tail is truncated away so new appends extend a clean log.
        assert wal_path.stat().st_size == len(wal_record(body1))

    def test_stale_records_skipped_after_snapshot_rotate_crash_window(
        self, vot, model_file, tmp_path
    ):
        # Simulate a crash between the snapshot's os.replace and the WAL
        # rotation: the snapshot already contains the logged batches, and
        # replay must skip them (base_n below the snapshot's object count)
        # instead of double-applying.
        b1, b2 = batches(vot, *BATCH_SLICES[:2])
        snap = tmp_path / "snap.npz"
        server = ModelServer(model_file, snapshot_path=snap, wal=True).start()
        try:
            with ServingClient(server.address) as client:
                client.ingest(b1)
                client.ingest(b2)
            wal_path = server.wal_path
            stale = wal_path.read_bytes()
            with ServingClient(server.address) as client:
                client.snapshot()  # lands the snapshot AND rotates
            wal_path.write_bytes(stale)  # un-rotate: the crash window
        finally:
            assert server.stop(timeout=10)
        restarted = ModelServer(snap, wal=True)
        assert restarted.wal_replayed_batches == 0  # both records skipped
        assert_states_identical(
            restarted.model, reference_fed(model_file, [b1, b2])
        )

    def test_mismatched_snapshot_wal_pair_refuses_to_recover(
        self, vot, model_file
    ):
        b1 = batches(vot, *BATCH_SLICES[:1])[0]
        reference = load_model(model_file)
        body = wal_body(
            1, reference.labels_.shape[0] + 17,  # from some *other* snapshot
            b1, reference.assignment_model_.assign(b1),
        )
        model_file.with_name(model_file.name + ".wal").write_bytes(
            wal_record(body)
        )
        with pytest.raises(TransportError, match="not a pair"):
            ModelServer(model_file, wal=True)

    def test_foreign_record_kind_refuses_to_recover(self, vot, model_file):
        body = pack_message("delta", {"seq": 1},
                            codes=np.zeros((1, 16), dtype=np.int64))
        model_file.with_name(model_file.name + ".wal").write_bytes(
            wal_record(body)
        )
        with pytest.raises(TransportError, match="malformed log record"):
            ModelServer(model_file, wal=True)

    def test_record_written_before_the_upgrade_names_the_log(self, vot, model_file):
        # A record whose body is an npz archive, as the previous frame
        # layout wrote it: recovery must name the log and say how to drain it.
        buffer = io.BytesIO()
        np.savez(
            buffer,
            __meta__=np.asarray('{"kind": "wal", "seq": 1, "base_n": 120}'),
            codes=np.asarray(vot.codes[120:125], dtype=np.int64),
            labels=np.zeros(5, dtype=np.int64),
        )
        wal_path = model_file.with_name(model_file.name + ".wal")
        wal_path.write_bytes(wal_record(buffer.getvalue()))
        with pytest.raises(TransportError, match="older version") as excinfo:
            ModelServer(model_file, wal=True)
        assert str(wal_path) in str(excinfo.value)
        assert "unknown magic b'PK" in str(excinfo.value)


# ---------------------------------------------------------------------- #
# Rotation: snapshots and reload keep the log bounded
# ---------------------------------------------------------------------- #
class TestRotation:
    def test_explicit_snapshot_rotates(self, vot, model_file, tmp_path):
        snap = tmp_path / "snap.npz"
        server = ModelServer(model_file, snapshot_path=snap, wal=True).start()
        try:
            with ServingClient(server.address) as client:
                client.ingest(batches(vot, *BATCH_SLICES[:1])[0])
                assert server.info()["wal_records"] == 1
                client.snapshot()
            assert server.info()["wal_records"] == 0
            assert server.wal_path.stat().st_size == 0
        finally:
            assert server.stop(timeout=10)

    def test_snapshot_every_trigger_rotates(self, vot, model_file, tmp_path):
        snap = tmp_path / "snap.npz"
        server = ModelServer(
            model_file, snapshot_path=snap, snapshot_every=1, wal=True
        ).start()
        try:
            with ServingClient(server.address) as client:
                for batch in batches(vot, *BATCH_SLICES):
                    client.ingest(batch)
                    # every ingest snapshots, so the log never accumulates
                    assert server.info()["wal_records"] == 0
            assert snap.exists()
        finally:
            assert server.stop(timeout=10)

    def test_reload_truncates(self, vot, model_file):
        server = ModelServer(model_file, wal=True).start()
        try:
            with ServingClient(server.address) as client:
                client.ingest(batches(vot, *BATCH_SLICES[:1])[0])
                assert server.info()["wal_records"] == 1
                client.reload()  # back to the on-disk archive
            assert server.info()["wal_records"] == 0
            assert server.wal_path.stat().st_size == 0
        finally:
            assert server.stop(timeout=10)

    def test_drain_snapshot_rotates_and_closes(self, vot, model_file):
        # Build the reference before the drain snapshot overwrites the
        # archive (the default snapshot path IS the model file).
        reference = reference_fed(model_file, batches(vot, *BATCH_SLICES[:1]))
        server = ModelServer(model_file, wal=True).start()
        with ServingClient(server.address) as client:
            client.ingest(batches(vot, *BATCH_SLICES[:1])[0])
        wal_path = server.wal_path
        assert server.stop(timeout=10)
        # The drain snapshot persisted the batch and rotated the log, so a
        # restart replays nothing and still serves the acked state.
        assert wal_path.stat().st_size == 0
        restarted = ModelServer(model_file, wal=True)
        assert restarted.wal_replayed_batches == 0
        assert_states_identical(restarted.model, reference)


# ---------------------------------------------------------------------- #
# Bugfix regressions
# ---------------------------------------------------------------------- #
class TestAckSemanticsOnSnapshotFailure:
    def test_failed_post_ingest_snapshot_still_acks(
        self, vot, model_file, tmp_path, caplog
    ):
        # An unwritable snapshot target: the path's parent is a regular
        # file, so mkdir/mkstemp under it fails deterministically (works
        # even when the suite runs as root, unlike permission bits).
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        server = ModelServer(
            model_file,
            snapshot_path=blocker / "snap.npz",
            snapshot_every=1,
        ).start()
        try:
            batch = batches(vot, *BATCH_SLICES[:1])[0]
            reference = load_model(model_file)
            with ServingClient(server.address) as client:
                # The regression: this used to come back as an error frame
                # even though the batch was applied and the delta published.
                np.testing.assert_array_equal(
                    client.ingest(batch), reference.ingest(batch)
                )
                info = client.info()
            assert info["snapshot_failures"] == 1
            assert info["ingested_batches"] == 1
            assert_states_identical(server.model, reference)
        finally:
            server.stop(timeout=10)  # drain snapshot fails too: reported
        warnings = [
            record.getMessage() for record in caplog.records
            if record.name == "repro.serving.server"
            and record.levelno == logging.WARNING
        ]
        assert any(
            message.startswith("post-ingest snapshot failed") for message in warnings
        ), warnings
        assert any(message.startswith("final snapshot failed") for message in warnings)
        assert server.snapshot_failures >= 2  # the ingest one + the drain one

    def test_explicit_snapshot_request_still_errors(
        self, vot, model_file, tmp_path
    ):
        # Only the *post-apply* failure is out-of-band; a client-requested
        # snapshot that fails has nothing acked riding on it and must raise.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        server = ModelServer(
            model_file, snapshot_path=blocker / "snap.npz"
        ).start()
        try:
            with ServingClient(server.address) as client:
                with pytest.raises(TransportError):
                    client.snapshot()
        finally:
            server.stop(timeout=10)


class TestSnapshotIntervalValidation:
    def test_zero_rejected_not_coerced_to_disabled(self, model_file):
        with pytest.raises(ValueError, match="snapshot_interval must be positive"):
            ModelServer(model_file, snapshot_interval=0)

    def test_negative_rejected(self, model_file):
        with pytest.raises(ValueError, match="snapshot_interval must be positive"):
            ModelServer(model_file, snapshot_interval=-2.5)

    def test_none_still_means_disabled(self, model_file):
        server = ModelServer(model_file, snapshot_interval=None)
        assert server.snapshot_interval is None

    def test_cli_rejects_zero(self, model_file, capsys):
        with pytest.raises(SystemExit, match="snapshot_interval must be positive"):
            cli_main(["serve", str(model_file), "--snapshot-interval", "0"])


class TestWalValidation:
    def test_invalid_sync_policy(self, model_file):
        with pytest.raises(ValueError, match="wal_sync"):
            ModelServer(model_file, wal=True, wal_sync="eventually")

    def test_wal_needs_a_snapshot_path(self, vot_model):
        with pytest.raises(ValueError, match="snapshot to pair with"):
            ModelServer(vot_model, wal=True)  # in-memory model: no paths

    def test_wal_rejected_on_a_replica(self, model_file):
        primary = ModelServer(model_file).start()
        try:
            with pytest.raises(ValueError, match="read replica"):
                ModelServer(None, replica_of=primary.address, wal=True)
        finally:
            assert primary.stop(timeout=10)

    def test_cli_rejects_wal_without_snapshot_path(self, vot_model, tmp_path):
        # Served from a model file there is always a snapshot path (the
        # archive itself), so exercise the server-side error through the
        # constructor; the CLI turns the same ValueError into SystemExit.
        with pytest.raises(ValueError):
            ModelServer(vot_model, wal=True, wal_sync="always")


# ---------------------------------------------------------------------- #
# Observability: WAL facts in info/welcome and through the router
# ---------------------------------------------------------------------- #
class TestWalFacts:
    def test_info_and_welcome_carry_wal_facts(self, vot, model_file):
        server = ModelServer(model_file, wal=True, wal_sync="always").start()
        try:
            with ServingClient(server.address) as client:
                welcome = client.server_info
                assert welcome["wal"] is True
                assert welcome["wal_sync"] == "always"
                client.ingest(batches(vot, *BATCH_SLICES[:1])[0])
                info = client.info()
            assert info["wal_records"] == 1
            assert info["wal_bytes"] > 0
            assert info["wal_path"] == str(server.wal_path)
            assert info["wal_replayed_batches"] == 0
            assert info["snapshot_failures"] == 0
        finally:
            assert server.stop(timeout=10)

    def test_wal_off_reports_off(self, model_file):
        server = ModelServer(model_file)
        info = server.info()
        assert info["wal"] is False
        assert info["wal_sync"] is None
        assert info["wal_path"] is None
        assert info["wal_records"] == 0

    def test_router_surfaces_primary_wal_facts(self, vot, model_file):
        server = ModelServer(model_file, wal=True).start()
        router = route_serving(primary=server.address)
        try:
            with ServingClient(router.address) as client:
                client.ingest(batches(vot, *BATCH_SLICES[:1])[0])
                info = client.info()
            facts = info["primary_wal"]
            assert facts["wal"] is True
            assert facts["wal_sync"] == "batch"
            assert facts["wal_records"] == 1
            assert facts["snapshot_failures"] == 0
        finally:
            assert router.stop(timeout=10)
            assert server.stop(timeout=10)

    def test_router_without_primary_reports_none(self, model_file):
        server = ModelServer(model_file).start()
        router = route_serving(replicas=[server.address])
        try:
            assert router.info()["primary_wal"] is None
        finally:
            assert router.stop(timeout=10)
            assert server.stop(timeout=10)
