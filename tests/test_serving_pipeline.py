"""Pipelining, micro-batching, replication, routing: the PR 7 contracts.

What must hold (ISSUE 7):

* batched / pipelined predicts are **bit-identical** to sequential per-row
  predicts — including while an ingest stream races the batcher (every reply
  is some exact post-batch state, the final state is exactly the serial one);
* the frame layout round-trips exactly and fails *cleanly* under fuzz
  (truncation, corruption, bad dtypes, trailing garbage) — ``TransportError``,
  never a wedged session or batcher thread;
* tag protocol violations (duplicate, unknown, out-of-order beyond the
  window, mid-pipeline disconnect) fail the affected futures and connection
  without taking the server down;
* a read replica observes exactly the primary's post-batch states — no torn
  reads — and keeps serving (last good state) through a primary outage;
* the router round-robins predicts across replicas and sends every ingest to
  the primary, bit-identically.
"""

from __future__ import annotations

import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data.uci.registry import load_dataset
from repro.distributed.codec import (
    FRAME_MAGIC,
    pack_message,
    recv_frame,
    send_frame,
    send_frames,
    unpack_message,
)
from repro.distributed.transport import TransportError
from repro.persistence import load_model, save_model
from repro.registry import make_clusterer
from repro.serving import (
    ModelServer,
    ServingClient,
    ServingRouter,
    route_serving,
    serve_model,
)
from repro.serving.protocol import (
    SERVICE_NAME,
    SERVING_PROTOCOL_VERSION,
    request_tag,
)

pytestmark = pytest.mark.timeout(90)


def fit_reference(dataset):
    return make_clusterer("kmodes", n_clusters=dataset.n_clusters_true or 2,
                          n_init=2, random_state=0).fit(dataset)


def states_equal(a, b):
    return (np.array_equal(a.packed, b.packed)
            and np.array_equal(a.valid_counts, b.valid_counts)
            and np.array_equal(a.sizes, b.sizes)
            and a.n_categories == b.n_categories)


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


# ---------------------------------------------------------------------- #
# The frame layout: round-trip and fuzz
# ---------------------------------------------------------------------- #
_WIRE_DTYPES = ("<i8", "<f8", "<i4", "|u1", "|b1")


@st.composite
def frame_arrays(draw, min_arrays=0, max_arrays=12):
    """Named arrays of every wire dtype at ndim 0-4, some empty or non-contiguous."""
    arrays = {}
    for i in range(draw(st.integers(min_arrays, max_arrays))):
        array = draw(hnp.arrays(
            np.dtype(draw(st.sampled_from(_WIRE_DTYPES))),
            hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
        ))
        if array.ndim:
            array = draw(st.sampled_from((array, array[::-1], array[::2])))
        arrays[f"a{i}"] = array
    return arrays


frame_meta = st.dictionaries(
    st.text(max_size=6).filter(lambda key: key != "kind"),
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    max_size=4,
)


class TestCompactCodec:
    def test_roundtrip_supported_dtypes(self):
        for dtype in (np.int64, np.float64, np.int32, np.uint8, np.bool_):
            array = (np.arange(12) % 2 == 0).reshape(3, 4) \
                if dtype is np.bool_ else np.arange(12, dtype=dtype).reshape(3, 4)
            body = pack_message("predict", {"tag": 7}, codes=array)
            assert body.startswith(FRAME_MAGIC)
            kind, meta, arrays = unpack_message(body)
            assert kind == "predict" and meta == {"tag": 7}
            np.testing.assert_array_equal(arrays["codes"], array)
            assert arrays["codes"].dtype == array.dtype
            assert arrays["codes"].flags.writeable

    def test_roundtrip_edge_shapes(self):
        for array in (
            np.int64(41),                    # 0-d scalar
            np.empty((0, 5), dtype=np.int64),  # empty batch
            np.arange(8, dtype=np.int64)[::2],  # non-contiguous view
        ):
            kind, meta, arrays = unpack_message(pack_message("x", {}, v=array))
            assert kind == "x"
            np.testing.assert_array_equal(arrays["v"], np.asarray(array))
            assert arrays["v"].shape == np.asarray(array).shape

    @given(kind=st.text(max_size=8), meta=frame_meta, arrays=frame_arrays())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, kind, meta, arrays):
        got_kind, got_meta, got = unpack_message(pack_message(kind, meta, **arrays))
        assert (got_kind, got_meta) == (kind, meta)
        assert list(got) == list(arrays)
        for name, array in arrays.items():
            assert got[name].dtype == array.dtype
            assert got[name].shape == array.shape
            assert got[name].tobytes() == array.tobytes()  # bit-exact, NaNs too
            assert got[name].flags.writeable and got[name].flags.owndata

    @given(arrays=frame_arrays(min_arrays=2, max_arrays=4), flip=st.integers(1, 255))
    @settings(max_examples=25, deadline=None)
    def test_truncation_and_corruption_property(self, arrays, flip):
        body = pack_message("update", {"changed": True, "elapsed": 0.5}, **arrays)
        for cut in range(len(body)):
            with pytest.raises(TransportError):
                unpack_message(body[:cut])
        for position in range(len(body)):
            corrupt = bytearray(body)
            corrupt[position] ^= flip
            try:
                unpack_message(bytes(corrupt))
            except TransportError:
                pass

    def test_no_array_body(self):
        body = pack_message("info", {"tag": 3})
        assert body.startswith(FRAME_MAGIC)
        assert unpack_message(body) == ("info", {"tag": 3}, {})

    def test_unsupported_payloads_rejected_at_pack_time(self):
        for kwargs in (
            {"a": np.zeros(3, dtype=np.float32)},           # dtype not listed
            {"a": np.zeros(3, dtype=">i8")},                # big-endian
            {"a": np.asarray(["x", "y"])},                  # strings
            {"a": np.asarray([{}], dtype=object)},          # objects
            {"a": np.zeros((1, 1, 1, 1, 1), dtype=np.int64)},  # ndim > 4
            {"n" * 256: np.zeros(2, dtype=np.int64)},       # name over 255 bytes
        ):
            with pytest.raises(TransportError, match="cannot frame"):
                pack_message("k", {"m": 1}, **kwargs)

    def test_every_truncation_fails_cleanly(self):
        body = pack_message(
            "predict", {"tag": 9}, codes=np.arange(20, dtype=np.int64).reshape(4, 5)
        )
        for cut in range(len(body)):
            with pytest.raises(TransportError):
                unpack_message(body[:cut])

    def test_trailing_garbage_rejected(self):
        body = pack_message("predict", {"tag": 1}, codes=np.zeros(3, dtype=np.int64))
        with pytest.raises(TransportError):
            unpack_message(body + b"\x00")

    def test_unlisted_dtype_on_the_wire_rejected(self):
        # Hand-craft a frame claiming a dtype outside the whitelist: the
        # receiver must refuse it rather than np.frombuffer arbitrary bytes.
        good = pack_message("x", {}, v=np.zeros(2, dtype=np.int64))
        assert b"<i8" in good
        evil = good.replace(b"<i8", b"<f2")
        with pytest.raises(TransportError, match="dtype"):
            unpack_message(evil)

    def test_bad_meta_json_rejected(self):
        meta = b"{not json"
        body = FRAME_MAGIC + struct.pack(">I", len(meta)) + meta + b"\x00"
        with pytest.raises(TransportError, match="malformed frame"):
            unpack_message(body)

    def test_shape_whose_byte_count_wraps_int64_rejected(self):
        # (65536,) * 4 elements of 8 bytes is 2**67 bytes, which wraps to 0 in
        # int64 arithmetic; the reader must see it exceed the 0 bytes left
        # (not "fit" an empty payload and fail later in reshape).
        meta = b'{"kind": "x"}'
        body = (
            FRAME_MAGIC + struct.pack(">I", len(meta)) + meta
            + b"\x01" + b"\x01v" + b"\x03<i8" + b"\x04" + struct.pack(">4I", *(65536,) * 4)
        )
        with pytest.raises(TransportError, match="malformed frame: truncated"):
            unpack_message(body)

    def test_request_tag_validation(self):
        assert request_tag({}) is None
        assert request_tag({"tag": 0}) == 0
        assert request_tag({"tag": 41}) == 41
        for bad in (-1, 1.5, "7", True, [1]):
            with pytest.raises(TransportError):
                request_tag({"tag": bad})


# ---------------------------------------------------------------------- #
# Pipelined client against the real server
# ---------------------------------------------------------------------- #
class TestPipelinedPredicts:
    def test_map_predict_bit_identical_to_in_process(self, vot_model, vot):
        batches = [np.ascontiguousarray(vot.codes[i::9]) for i in range(9)]
        expected = [vot_model.predict(b) for b in batches]
        server = serve_model(vot_model, max_batch_rows=4096)
        try:
            with ServingClient(server.address) as client:
                results = client.map_predict(batches)
            for got, want in zip(results, expected):
                np.testing.assert_array_equal(got, want)
            info = server.info()
            assert info["predict_batches"] >= 1
            assert info["predict_rows_batched"] == sum(b.shape[0] for b in batches)
        finally:
            assert server.stop(timeout=10)

    def test_futures_resolve_in_any_harvest_order(self, vot_model, vot):
        probe = vot.codes[:6]
        expected = vot_model.predict(probe)
        server = serve_model(vot_model, max_batch_rows=4096)
        try:
            with ServingClient(server.address) as client:
                futures = [client.predict_async(probe) for _ in range(20)]
                for future in reversed(futures):  # harvest newest-first
                    np.testing.assert_array_equal(future.result(), expected)
                assert all(f.done() for f in futures)
        finally:
            assert server.stop(timeout=10)

    def test_in_flight_window_is_honoured(self, vot_model, vot):
        probe = vot.codes[:2]
        expected = vot_model.predict(probe)
        server = serve_model(vot_model, max_batch_rows=4096)
        try:
            with ServingClient(server.address, max_in_flight=4) as client:
                futures = [client.predict_async(probe) for _ in range(32)]
                assert len(client._pending) <= 4
                for future in futures:
                    np.testing.assert_array_equal(future.result(), expected)
        finally:
            assert server.stop(timeout=10)

    def test_tagged_bad_rows_error_without_wedging_session(self, vot_model, vot):
        server = serve_model(vot_model, max_batch_rows=4096)
        try:
            with ServingClient(server.address) as client:
                bad = client.predict_async(np.zeros((2, 99), dtype=np.int64))
                good = client.predict_async(vot.codes[:3])
                with pytest.raises(TransportError, match="model server raised"):
                    bad.result()
                # The same session keeps answering after a tagged error.
                np.testing.assert_array_equal(
                    good.result(), vot_model.predict(vot.codes[:3])
                )
                np.testing.assert_array_equal(
                    client.predict(vot.codes[:5]), vot_model.predict(vot.codes[:5])
                )
        finally:
            assert server.stop(timeout=10)

    def test_mixed_sync_and_async_on_one_session(self, vot_model, vot):
        server = serve_model(vot_model, max_batch_rows=4096)
        try:
            with ServingClient(server.address) as client:
                futures = [client.predict_async(vot.codes[:4]) for _ in range(8)]
                info = client.info()  # untagged, while tags are in flight
                assert info["role"] == "primary"
                for future in futures:
                    np.testing.assert_array_equal(
                        future.result(), vot_model.predict(vot.codes[:4])
                    )
        finally:
            assert server.stop(timeout=10)

    def test_batched_pipelined_exact_under_racing_ingest(self, model_file, vot):
        """The acceptance bit: batcher + ingest racing, every reply exact."""
        n_batches = 6
        batches = [vot.codes[i::n_batches] for i in range(n_batches)]
        probe = np.ascontiguousarray(vot.codes[::5])
        reference = load_model(model_file)
        allowed = [reference.predict(probe)]
        ingest_labels = []
        for batch in batches:
            ingest_labels.append(reference.ingest(batch))
            allowed.append(reference.predict(probe))
        allowed_bytes = {a.tobytes() for a in allowed}

        server = serve_model(model_file, max_batch_rows=4096)
        failures: list = []
        replies: list = []

        def hammer():
            try:
                with ServingClient(server.address) as client:
                    for _ in range(5):
                        replies.extend(client.map_predict([probe] * 4))
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        try:
            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for thread in threads:
                thread.start()
            with ServingClient(server.address) as writer:
                for batch, expected in zip(batches, ingest_labels):
                    np.testing.assert_array_equal(writer.ingest(batch), expected)
            for thread in threads:
                thread.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert failures == []
            assert len(replies) == 6 * 5 * 4
            for reply in replies:
                # Bit-identical to one of the serial post-batch states —
                # never a torn mid-merge answer, despite batch coalescing.
                assert reply.tobytes() in allowed_bytes
            # Final served state is exactly the serial end state.
            with ServingClient(server.address) as client:
                np.testing.assert_array_equal(client.predict(probe), allowed[-1])
            assert states_equal(
                server.model.assignment_model_.state,
                reference.assignment_model_.state,
            )
        finally:
            assert server.stop(timeout=10)

    def test_burst_replies_stay_matched_under_thread_churn(self, vot_model, vot):
        """Replies the batcher writes per session in one burst, and the client
        reads ahead, each reach their own future — with more clients than
        cores and threads switching every few microseconds."""
        rows = np.ascontiguousarray(vot.codes, dtype=np.int64)
        expected = vot_model.predict(rows)
        server = serve_model(vot_model, max_batch_rows=4096)
        failures: list = []

        def pipeline(offset):
            try:
                with ServingClient(server.address) as client:
                    spans = [((offset + 3 * i) % (len(rows) - 2), 1 + i % 3)
                             for i in range(150)]
                    futures = [client.predict_async(rows[a : a + n]) for a, n in spans]
                    for (a, n), future in zip(spans, futures):
                        np.testing.assert_array_equal(future.result(), expected[a : a + n])
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=pipeline, args=(k * 37,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(previous)
            assert server.stop(timeout=10)
        assert failures == []

    def test_batcher_answers_a_sessions_burst_in_one_frame(self, vot_model, vot):
        """Tagged predicts of one session in one batch come back as one
        ``labels`` frame whose ``tags``/``rows`` split the labels exactly."""
        rows = np.ascontiguousarray(vot.codes, dtype=np.int64)
        spans = {0: (0, 3), 1: (5, 1), 2: (9, 2)}
        server = serve_model(vot_model, max_batch_rows=4096, max_batch_delay_ms=500)
        try:
            with ServingClient(server.address) as client:
                client.connect()
                send_frames(client._sock, [
                    pack_message("predict", {"tag": tag}, codes=rows[a : a + n])
                    for tag, (a, n) in spans.items()
                ])
                kind, _, arrays = unpack_message(recv_frame(client._sock))
        finally:
            assert server.stop(timeout=10)
        assert kind == "labels"
        assert sorted(arrays["tags"].tolist()) == [0, 1, 2]
        start = 0
        for tag, n in zip(arrays["tags"].tolist(), arrays["rows"].tolist()):
            a, want = spans[tag]
            assert n == want
            np.testing.assert_array_equal(
                arrays["labels"][start : start + n], vot_model.predict(rows[a : a + n])
            )
            start += n
        assert start == arrays["labels"].shape[0]

    def test_malformed_tag_ends_session_but_not_server(self, vot_model, vot):
        server = serve_model(vot_model, max_batch_rows=4096)
        try:
            with ServingClient(server.address) as client:
                client.connect()
                send_frame(client._sock, pack_message(
                    "predict", {"tag": -1}, codes=_two_rows(vot)
                ))
                with pytest.raises(TransportError):
                    recv_frame(client._sock)  # server dropped the session
            # ...but new sessions (and the batcher) still work.
            with ServingClient(server.address) as client:
                np.testing.assert_array_equal(
                    client.predict(vot.codes[:4]), vot_model.predict(vot.codes[:4])
                )
        finally:
            assert server.stop(timeout=10)

    def test_client_disconnect_with_tags_in_flight_leaves_batcher_alive(
        self, vot_model, vot
    ):
        server = serve_model(vot_model, max_batch_rows=4096)
        try:
            for _ in range(3):
                rude = ServingClient(server.address).connect()
                for tag in range(10):
                    send_frame(rude._sock, pack_message(
                        "predict", {"tag": tag}, codes=_two_rows(vot)
                    ))
                rude._sock.close()  # vanish with replies still owed
                rude._pending.clear()
                rude._sock = None
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with ServingClient(server.address) as client:
                    got = client.map_predict([vot.codes[:4]])
                np.testing.assert_array_equal(
                    got[0], vot_model.predict(vot.codes[:4])
                )
                break
        finally:
            assert server.stop(timeout=10)


def _two_rows(vot):
    return np.ascontiguousarray(vot.codes[:2], dtype=np.int64)


# ---------------------------------------------------------------------- #
# Tag protocol violations, via a scripted fake server
# ---------------------------------------------------------------------- #
def scripted_server(script):
    """A one-session fake server; ``script(conn)`` runs after the welcome."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()[:2]
    errors = []

    def run():
        try:
            conn, _ = listener.accept()
            recv_frame(conn)  # hello
            send_frame(conn, pack_message("welcome", {
                "service": SERVICE_NAME, "protocol": SERVING_PROTOCOL_VERSION,
            }))
            script(conn)
            conn.close()
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            errors.append(exc)
        finally:
            listener.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return f"{host}:{port}", thread, errors


class TestTagViolations:
    def test_out_of_order_tagged_responses_are_matched(self):
        def reply_in_reverse(conn):
            tags = []
            for _ in range(3):
                _, meta, _ = unpack_message(recv_frame(conn))
                tags.append(meta["tag"])
            for tag in reversed(tags):
                send_frame(conn, pack_message(
                    "labels", {"tag": tag, "n": 1},
                    labels=np.asarray([tag], dtype=np.int64),
                ))

        address, thread, errors = scripted_server(reply_in_reverse)
        with ServingClient(address) as client:
            futures = [client.predict_async(np.zeros((1, 2), dtype=np.int64))
                       for _ in range(3)]
            # Matched by tag: future i gets the labels stamped with tag i,
            # even though the wire order was reversed.
            for i, future in enumerate(futures):
                np.testing.assert_array_equal(future.result(), [i])
        thread.join(timeout=10)
        assert errors == []

    def test_one_frame_answering_several_tags_is_split_by_rows(self):
        def reply_grouped(conn):
            for _ in range(3):
                recv_frame(conn)
            send_frame(conn, pack_message(
                "labels", {"n": 6},
                labels=np.asarray([7, 7, 7, 5, 5, 6], dtype=np.int64),
                tags=np.asarray([2, 0, 1], dtype=np.int64),
                rows=np.asarray([3, 2, 1], dtype=np.int64),
            ))

        address, thread, errors = scripted_server(reply_grouped)
        with ServingClient(address) as client:
            futures = [client.predict_async(np.zeros((n, 2), dtype=np.int64))
                       for n in (2, 1, 3)]
            np.testing.assert_array_equal(futures[0].result(), [5, 5])
            np.testing.assert_array_equal(futures[1].result(), [6])
            np.testing.assert_array_equal(futures[2].result(), [7, 7, 7])
        thread.join(timeout=10)
        assert errors == []

    @pytest.mark.parametrize("tags, rows, labels", [
        ([0], [2], [1]),            # rows claim more labels than sent
        ([0], [-1], []),            # negative row count
        ([0, 0], [1, 1], [1, 1]),   # one tag answered twice
        ([0.0], [1], [1]),          # non-integer tag
    ], ids=["short", "negative", "duplicate", "float-tag"])
    def test_malformed_grouped_reply_fails_cleanly(self, tags, rows, labels):
        def reply_malformed(conn):
            recv_frame(conn)
            send_frame(conn, pack_message(
                "labels", {},
                labels=np.asarray(labels, dtype=np.int64),
                tags=np.asarray(tags),
                rows=np.asarray(rows, dtype=np.int64),
            ))
            try:
                recv_frame(conn)  # park until the client hangs up
            except TransportError:
                pass

        address, thread, errors = scripted_server(reply_malformed)
        with ServingClient(address) as client:
            future = client.predict_async(np.zeros((1, 2), dtype=np.int64))
            with pytest.raises(TransportError):
                future.result()
            assert client._sock is None  # connection dropped, not wedged
        thread.join(timeout=10)

    def test_unknown_tag_fails_all_outstanding(self):
        def reply_unknown(conn):
            recv_frame(conn)
            send_frame(conn, pack_message(
                "labels", {"tag": 999, "n": 1},
                labels=np.zeros(1, dtype=np.int64),
            ))

        address, thread, errors = scripted_server(reply_unknown)
        with ServingClient(address) as client:
            future = client.predict_async(np.zeros((1, 2), dtype=np.int64))
            with pytest.raises(TransportError, match="unknown|already-answered"):
                future.result()
            assert client._sock is None  # connection dropped, not wedged
        thread.join(timeout=10)

    def test_duplicate_tag_fails_cleanly(self):
        def reply_twice(conn):
            _, meta, _ = unpack_message(recv_frame(conn))
            tag = meta["tag"]
            for _ in range(2):
                send_frame(conn, pack_message(
                    "labels", {"tag": tag, "n": 1},
                    labels=np.zeros(1, dtype=np.int64),
                ))
            recv_frame(conn)  # park until the client hangs up

        address, thread, errors = scripted_server(reply_twice)
        with ServingClient(address) as client:
            first = client.predict_async(np.zeros((1, 2), dtype=np.int64))
            np.testing.assert_array_equal(first.result(), [0])
            second = client.predict_async(np.zeros((1, 2), dtype=np.int64))
            # The duplicate (already-answered tag 0) arrives while waiting
            # for tag 1: protocol violation, connection dropped, future fails.
            with pytest.raises(TransportError):
                second.result()
            assert client._sock is None
        thread.join(timeout=10)

    def test_mid_pipeline_disconnect_fails_every_future(self, vot_model, vot):
        def vanish(conn):
            recv_frame(conn)  # read one request, answer nothing
            conn.close()

        address, thread, errors = scripted_server(vanish)
        client = ServingClient(address)
        futures = []
        try:
            for _ in range(4):
                futures.append(
                    client.predict_async(np.zeros((1, 2), dtype=np.int64))
                )
        except TransportError:
            pass  # the disconnect can surface on a send, too
        assert futures  # at least the first went out before the hangup
        for future in futures:
            with pytest.raises(TransportError):
                future.result()
        thread.join(timeout=10)
        # The client recovers: point it at a real server and predict again.
        server = serve_model(vot_model)
        try:
            fresh = ServingClient(server.address)
            np.testing.assert_array_equal(
                fresh.predict(vot.codes[:3]), vot_model.predict(vot.codes[:3])
            )
            fresh.close()
        finally:
            assert server.stop(timeout=10)


# ---------------------------------------------------------------------- #
# Reconnect backoff
# ---------------------------------------------------------------------- #
class TestReconnectBackoff:
    def test_connect_deadline_still_honoured(self):
        # A port nothing listens on: the backoff must give up by the
        # deadline, not spin forever or overshoot by a full max interval.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # freed: connections are now refused
        client = ServingClient(
            f"127.0.0.1:{port}", connect_timeout=0.8, retry_interval=0.05
        )
        started = time.monotonic()
        with pytest.raises(TransportError, match="cannot connect"):
            client.connect()
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"backoff overshot the deadline: {elapsed:.1f}s"

    def test_backoff_delays_grow_and_are_capped(self, monkeypatch):
        sleeps = []

        def no_listener(*args, **kwargs):
            raise ConnectionRefusedError(111, "refused")

        monkeypatch.setattr(socket, "create_connection", no_listener)
        monkeypatch.setattr(time, "sleep", lambda s: sleeps.append(s))
        client = ServingClient(
            "127.0.0.1:1", connect_timeout=3600.0,
            retry_interval=0.1, max_retry_interval=0.4,
        )
        # Exhaust a handful of attempts, then stop the clock-free loop.
        original_monotonic = time.monotonic

        def advancing():
            return original_monotonic() + sum(sleeps)

        monkeypatch.setattr(time, "monotonic", advancing)
        client.connect_timeout = sum([0.1, 0.2, 0.4, 0.4, 0.4]) + 0.05
        with pytest.raises(TransportError):
            client.connect()
        assert len(sleeps) >= 2
        # Jittered exponential: each delay is within [0.5, 1.0] x the
        # deterministic schedule, and never above the cap.
        schedule = [min(0.1 * (2 ** i), 0.4) for i in range(len(sleeps))]
        for actual, nominal in zip(sleeps, schedule):
            assert 0.5 * nominal <= actual <= nominal + 1e-9
            assert actual <= 0.4 + 1e-9


# ---------------------------------------------------------------------- #
# Replication
# ---------------------------------------------------------------------- #
class TestReplicaGroup:
    def test_replica_catches_up_exactly_under_concurrent_ingest(
        self, model_file, vot
    ):
        n_batches = 8
        batches = [vot.codes[i::n_batches] for i in range(n_batches)]
        reference = load_model(model_file)
        for batch in batches:
            reference.ingest(batch)

        primary = serve_model(model_file)
        replica = None
        try:
            replica = serve_model(None, replica_of=primary.address)
            stop = threading.Event()
            torn: list = []

            def read_replica():
                # Hammer the replica while deltas land: every reply must be
                # an exact post-batch state of the *replica's* model; a torn
                # read would crash or mismatch inside predict.
                probe = vot.codes[::11]
                with ServingClient(replica.address) as client:
                    while not stop.is_set():
                        labels = client.predict(probe)
                        if labels.shape != (probe.shape[0],):
                            torn.append(labels.shape)

            reader = threading.Thread(target=read_replica)
            reader.start()
            with ServingClient(primary.address) as writer:
                for batch in batches:
                    writer.ingest(batch)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and replica.replica_seq < n_batches:
                time.sleep(0.05)
            stop.set()
            reader.join(timeout=30)
            assert torn == []
            assert replica.replica_seq == n_batches
            assert states_equal(
                replica.model.assignment_model_.state,
                reference.assignment_model_.state,
            )
            np.testing.assert_array_equal(
                replica.model.labels_, reference.labels_
            )
            # Served answers match the caught-up state bit-exactly.
            probe = vot.codes[::3]
            with ServingClient(replica.address) as client:
                np.testing.assert_array_equal(
                    client.predict(probe), reference.predict(probe)
                )
        finally:
            if replica is not None:
                assert replica.stop(timeout=10)
            assert primary.stop(timeout=10)

    def test_replica_rejects_ingest(self, vot_model, vot):
        primary = serve_model(vot_model)
        replica = None
        try:
            replica = serve_model(None, replica_of=primary.address)
            with ServingClient(replica.address) as client:
                with pytest.raises(TransportError, match="read replica"):
                    client.ingest(vot.codes[:5])
                # The session survives the rejected write.
                np.testing.assert_array_equal(
                    client.predict(vot.codes[:5]),
                    vot_model.predict(vot.codes[:5]),
                )
        finally:
            if replica is not None:
                assert replica.stop(timeout=10)
            assert primary.stop(timeout=10)

    def test_replica_serves_last_state_through_primary_outage(
        self, model_file, vot
    ):
        primary = serve_model(model_file)
        replica = None
        try:
            replica = serve_model(
                None, replica_of=primary.address, connect_timeout=5.0
            )
            with ServingClient(primary.address) as writer:
                writer.ingest(vot.codes[:40])
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and replica.replica_seq < 1:
                time.sleep(0.05)
            assert replica.replica_seq == 1
            expected = replica.model.predict(vot.codes[::7])
            assert primary.stop(timeout=10)  # primary dies
            time.sleep(0.3)
            # The replica still answers reads from its last good state.
            with ServingClient(replica.address) as client:
                np.testing.assert_array_equal(
                    client.predict(vot.codes[::7]), expected
                )
                assert client.info()["role"] == "replica"
        finally:
            if replica is not None:
                assert replica.stop(timeout=10)

    def test_replica_requires_no_model_and_reachable_primary(self):
        with pytest.raises(ValueError, match="replica"):
            ModelServer("whatever.npz", replica_of="127.0.0.1:1")
        with pytest.raises(TransportError, match="cannot reach primary"):
            ModelServer(None, replica_of="127.0.0.1:1", connect_timeout=0.3)
        with pytest.raises(TypeError, match="needs a model"):
            ModelServer(None)


# ---------------------------------------------------------------------- #
# Router
# ---------------------------------------------------------------------- #
class TestRouter:
    def test_round_robin_reads_and_primary_writes(self, model_file, vot):
        primary = serve_model(model_file)
        replicas, router = [], None
        try:
            replicas = [
                serve_model(None, replica_of=primary.address) for _ in range(2)
            ]
            router = route_serving(
                primary=primary.address,
                replicas=[r.address for r in replicas],
            )
            probe = vot.codes[::4]
            expected = load_model(model_file).predict(probe)
            # Several sessions: round-robin spreads them over both replicas.
            for _ in range(4):
                with ServingClient(router.address) as client:
                    np.testing.assert_array_equal(client.predict(probe), expected)
                    np.testing.assert_array_equal(
                        client.map_predict([probe[:3]] * 5)[0], expected[:3]
                    )
            assert all(v > 0 for v in router.routed_predicts.values()), (
                router.routed_predicts
            )
            # Ingest goes to the primary (and only the primary).
            before = primary.ingested_batches
            with ServingClient(router.address) as client:
                client.ingest(vot.codes[:25])
                info = client.info()
            assert info["role"] == "router"
            assert info["routed_ingests"] == 1
            assert primary.ingested_batches == before + 1
            assert all(r.ingested_batches == 0 for r in replicas)
        finally:
            if router is not None:
                assert router.stop(timeout=10)
            for replica in replicas:
                assert replica.stop(timeout=10)
            assert primary.stop(timeout=10)

    def test_read_only_fleet_rejects_ingest(self, vot_model, vot):
        backend = serve_model(vot_model)
        router = None
        try:
            router = route_serving(replicas=[backend.address])
            with ServingClient(router.address) as client:
                np.testing.assert_array_equal(
                    client.predict(vot.codes[:5]),
                    vot_model.predict(vot.codes[:5]),
                )
                with pytest.raises(TransportError, match="read-only fleet"):
                    client.ingest(vot.codes[:5])
        finally:
            if router is not None:
                assert router.stop(timeout=10)
            assert backend.stop(timeout=10)

    def test_router_requires_some_backend(self):
        with pytest.raises(ValueError, match="primary and/or replicas"):
            ServingRouter()


class TestRouterFailover:
    """A killed read replica is evicted, retried elsewhere, and reinstated."""

    def test_dead_replica_evicted_and_predicts_keep_succeeding(
        self, vot_model, vot
    ):
        survivor = serve_model(vot_model)
        victim = serve_model(vot_model)
        router = None
        probe = vot.codes[:10]
        expected = vot_model.predict(probe)
        try:
            router = route_serving(
                replicas=[survivor.address, victim.address],
                probe_interval=60.0, connect_timeout=2.0,
            )
            with ServingClient(router.address) as client:
                np.testing.assert_array_equal(client.predict(probe), expected)
            victim.shutdown()
            # Enough sessions to be routed at the corpse at least once: the
            # failover must be invisible to every one of them.
            for _ in range(4):
                with ServingClient(router.address) as client:
                    np.testing.assert_array_equal(client.predict(probe), expected)
            assert router.dead_backends() == [victim.address]
            with ServingClient(router.address) as client:
                assert client.info()["dead_backends"] == [victim.address]
        finally:
            if router is not None:
                assert router.stop(timeout=10)
            assert survivor.stop(timeout=10)
            victim.shutdown()

    def test_dead_replica_reinstated_after_probe_interval(self, vot_model, vot):
        backends = [serve_model(vot_model) for _ in range(2)]
        router = None
        probe = vot.codes[:10]
        try:
            router = route_serving(
                replicas=[b.address for b in backends],
                probe_interval=0.2, connect_timeout=2.0,
            )
            # Falsely declare a healthy backend dead: the next probe-due
            # request must find it alive and put it back in the rotation.
            router._mark_backend_dead(backends[0].address)
            assert router.dead_backends() == [backends[0].address]
            time.sleep(0.3)
            for _ in range(3):
                with ServingClient(router.address) as client:
                    client.predict(probe)
            assert router.dead_backends() == []
        finally:
            if router is not None:
                assert router.stop(timeout=10)
            for backend in backends:
                assert backend.stop(timeout=10)

    def test_every_backend_dead_yields_clean_error(self, vot_model, vot):
        backend = serve_model(vot_model)
        router = None
        try:
            router = route_serving(
                replicas=[backend.address],
                probe_interval=0.1, connect_timeout=0.5,
            )
            backend.shutdown()
            with ServingClient(router.address) as client:
                with pytest.raises(TransportError, match="no read backend reachable"):
                    client.predict(vot.codes[:5])
        finally:
            if router is not None:
                assert router.stop(timeout=10)
            backend.shutdown()


# ---------------------------------------------------------------------- #
# Warm-up and CLI surface
# ---------------------------------------------------------------------- #
class TestWarmupAndCli:
    def test_warm_up_runs_the_full_predict_path(self, vot_model):
        server = ModelServer(vot_model, once=True)
        try:
            result = server.warm_up()
            assert isinstance(result, bool)
            assert server.model.assignment_model_._cache is not None
        finally:
            server.shutdown()

    def test_parser_accepts_serving_tier_options(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args([
            "serve", "model.npz", "--batch-rows", "512",
            "--batch-delay-ms", "2.5", "--no-warmup",
        ])
        assert args.batch_rows == 512
        assert args.batch_delay_ms == 2.5
        assert args.no_warmup is True
        assert args.replica_of is None
        args = parser.parse_args(["serve", "--replica-of", "h:1"])
        assert args.model is None and args.replica_of == "h:1"
        args = parser.parse_args([
            "route", "--primary", "h:1", "--replicas", "h:2,h:3",
        ])
        assert args.command == "route"
        assert args.primary == "h:1" and args.replicas == "h:2,h:3"

    def test_serve_needs_exactly_one_model_source(self):
        from repro.cli import _serve, build_parser

        parser = build_parser()
        with pytest.raises(SystemExit, match="exactly one model source"):
            _serve(parser.parse_args(["serve"]))
        with pytest.raises(SystemExit, match="exactly one model source"):
            _serve(parser.parse_args(
                ["serve", "model.npz", "--replica-of", "h:1"]
            ))
