"""The serving client: a fitted model behind ``host:port``.

:class:`ServingClient` gives application code the estimator surface
(``predict`` / ``ingest`` / ``info`` / ``snapshot``) over one TCP connection
to a :class:`~repro.serving.server.ModelServer`.  Lifecycle is a context
manager::

    with ServingClient("127.0.0.1:9100") as client:
        labels = client.predict(batch)          # bit-identical to in-process
        client.ingest(fresh_batch)              # exact EngineState merge

Pipelining
----------
``predict`` is strict request/response: one round-trip per call, throughput
bounded by latency.  The pipelined path keeps many predicts in flight on the
same connection::

    futures = [client.predict_async(batch) for batch in batches]
    labels = client.gather(*futures)            # or future.result() each

    labels = client.map_predict(batches)        # submit-all + gather, in order

Tagged requests go out back-to-back on the one connection;
the server coalesces whatever is queued into single kernel calls
(micro-batching) and answers each tag — possibly out of order, and possibly
several tags in one frame.  Responses
are matched by tag, never by position, and every reply is bit-identical to
a per-batch ``predict``.  At most ``max_in_flight`` predicts are pending at
once; submitting past the window first harvests the oldest replies.  All
calls on one client must come from one thread (use one client per thread —
connections are cheap; the server multiplexes sessions into shared batches).

Connection handling:

* **Reconnect with backoff** — connecting retries ``ECONNREFUSED`` with
  capped exponential backoff plus jitter until ``connect_timeout`` elapses,
  so a client racing a just-launched server (the common fleet-startup
  pattern) waits for it instead of dying — and a thundering herd of clients
  does not hammer the listen queue in lockstep.
* **Lazy reconnect, never replay** — after a transport failure the socket is
  dropped, every in-flight pipelined predict fails with the transport error,
  and the *next* request opens a fresh connection (and re-handshakes).  A
  failed request itself is never resent automatically: ``ingest`` is not
  idempotent, and the client cannot know whether the server applied the batch
  before the connection died.  Callers that need exactly-once ingest must
  deduplicate at the application level.

Durability
----------
What an ingest ack *means* depends on how the server was launched; the
client can read it off ``server_info`` (the welcome meta, refreshed by
``info()``): ``wal`` tells whether a write-ahead log is on, ``wal_sync``
its sync level.  With ``wal`` on, every acked ingest has already been
appended to the server's log before it was applied — ``always`` survives
machine power loss, ``batch`` (the default) survives a server crash/SIGKILL
— and a restarted server replays the log to a state bit-identical to
everything it acked.  Without a WAL, acks are write-behind: batches since
the last snapshot are lost on a crash.  ``snapshot_failures`` in ``info()``
counts background snapshot errors the server reported out-of-band instead
of failing an already-applied ingest.

Server-side application errors raise
:class:`~repro.distributed.transport.TransportError` carrying the remote
traceback (delivered through the matching future on the pipelined path), and
the session stays usable afterwards.  A response with an unknown or
already-answered tag is a protocol violation: the connection is dropped and
every outstanding future fails.
"""

from __future__ import annotations

import random
import socket
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.base import ArrayOrDataset, extract_codes
from repro.distributed.codec import (
    FrameReader,
    default_connect_timeout,
    default_io_timeout,
    pack_message,
    parse_address,
    send_frame,
    unpack_message,
)
from repro.distributed.transport import TransportError
from repro.serving.protocol import check_welcome, hello_body, raise_remote_error

__all__ = ["ServingClient", "PendingPredict"]


def _remote_error(meta: Dict[str, Any]) -> TransportError:
    """A server-reported ``error`` frame as an exception object (not raised)."""
    try:
        raise_remote_error(meta)
    except TransportError as exc:
        return exc


class PendingPredict:
    """A pipelined predict in flight; :meth:`result` blocks for the labels."""

    __slots__ = ("_client", "tag", "n_rows", "_labels", "_error", "_done")

    def __init__(self, client: "ServingClient", tag: int, n_rows: int) -> None:
        self._client = client
        self.tag = tag
        self.n_rows = n_rows
        self._labels: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self._done = False

    def done(self) -> bool:
        return self._done

    def result(self) -> np.ndarray:
        """The assigned labels (receives further replies as needed)."""
        while not self._done:
            self._client._pump_one()
        if self._error is not None:
            raise self._error
        return self._labels

    def _fulfill(self, labels: Optional[np.ndarray], error: Optional[BaseException]) -> None:
        self._labels = labels
        self._error = error
        self._done = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self._done else "pending"
        return f"PendingPredict(tag={self.tag}, rows={self.n_rows}, {state})"


class ServingClient:
    """One connection to a model server, with the estimator-style surface.

    Parameters
    ----------
    address:
        ``"host:port"`` of a running ``repro serve`` server (or router).
    connect_timeout:
        Total seconds to keep retrying a refused connection before giving up
        (covers the server-still-starting race).  Default: the
        ``REPRO_CONNECT_TIMEOUT`` codec default (10 s).
    retry_interval:
        Base delay between connection attempts; attempts back off
        exponentially from here (with jitter) up to ``max_retry_interval``.
    max_retry_interval:
        Cap on the backoff delay between connection attempts.
    timeout:
        Optional per-operation socket timeout in seconds (default: the
        ``REPRO_IO_TIMEOUT`` codec default, i.e. block; a predict on a large
        batch legitimately takes a while).
    max_in_flight:
        Pipelining window: the most unanswered ``predict_async`` requests
        allowed at once before submission first harvests old replies.
    """

    def __init__(
        self,
        address: str,
        connect_timeout: Optional[float] = None,
        retry_interval: float = 0.2,
        max_retry_interval: float = 2.0,
        timeout: Optional[float] = None,
        max_in_flight: int = 256,
    ) -> None:
        self.address = address
        self._host, self._port = parse_address(address)
        self.connect_timeout = float(
            default_connect_timeout() if connect_timeout is None else connect_timeout
        )
        self.retry_interval = float(retry_interval)
        self.max_retry_interval = float(max_retry_interval)
        self.timeout = default_io_timeout() if timeout is None else timeout
        self.max_in_flight = int(max_in_flight)
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[FrameReader] = None
        self._next_tag = 0
        self._pending: Dict[int, PendingPredict] = {}
        #: The server's welcome meta (model class, k, counters at connect).
        self.server_info: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # Connection lifecycle
    # ------------------------------------------------------------------ #
    def connect(self) -> "ServingClient":
        """Ensure a live, handshaken connection (backing off on refused)."""
        if self._sock is not None:
            return self
        deadline = time.monotonic() + self.connect_timeout
        attempt = 0
        while True:
            remaining = deadline - time.monotonic()
            try:
                sock = socket.create_connection(
                    (self._host, self._port), timeout=max(0.1, remaining)
                )
                break
            except ConnectionRefusedError as exc:
                # Capped exponential backoff with jitter: waiting clients
                # spread out instead of retrying in lockstep, and the total
                # wait never exceeds the connect_timeout deadline.
                delay = min(
                    self.retry_interval * (2.0 ** attempt), self.max_retry_interval
                )
                delay *= 0.5 + 0.5 * random.random()
                attempt += 1
                if time.monotonic() + delay >= deadline:
                    raise TransportError(
                        f"cannot connect to model server at {self.address}: {exc}"
                    ) from exc
                time.sleep(delay)
            except OSError as exc:
                raise TransportError(
                    f"cannot connect to model server at {self.address}: {exc}"
                ) from exc
        try:
            sock.settimeout(self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = FrameReader(sock)
            send_frame(sock, hello_body())
            kind, meta, _ = unpack_message(reader.recv())
            self.server_info = check_welcome(kind, meta, self.address)
        except BaseException:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
            raise
        self._sock, self._reader = sock, reader
        return self

    def close(self) -> None:
        """Drop the connection (idempotent); the server ends the session.

        Any still-outstanding pipelined predicts fail with a transport error
        (their replies can no longer arrive on this connection).
        """
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        if self._pending:
            self._fail_pending(TransportError(
                f"connection to {self.address} closed with "
                f"{len(self._pending)} predicts outstanding"
            ))

    def __enter__(self) -> "ServingClient":
        return self.connect()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Reply plumbing (shared by sync and pipelined paths)
    # ------------------------------------------------------------------ #
    def _fail_pending(self, exc: BaseException) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            future._fulfill(None, exc)

    def _transport_failed(self, exc: BaseException) -> TransportError:
        """Drop the connection and fail everything in flight; returns the
        error to raise (futures carry it too)."""
        wrapped = TransportError(
            f"model server at {self.address} failed mid-request: {exc}"
        )
        self._fail_pending(wrapped)
        self.close()
        return wrapped

    def _recv_reply(self) -> Tuple[str, Dict[str, Any], Dict[str, np.ndarray]]:
        try:
            return unpack_message(self._reader.recv())
        except (TransportError, socket.timeout) as exc:
            raise self._transport_failed(exc) from exc

    def _route_tagged(
        self, kind: str, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]
    ) -> None:
        """Deliver one tagged response to its future(s); tag violations kill
        the connection (a reply that matches nothing can never be harvested)."""
        if "tags" in arrays:
            return self._route_answers(arrays)
        future = self._pop_pending(meta.get("tag"))
        if kind == "error":
            future._fulfill(None, _remote_error(meta))
        else:
            future._fulfill(np.asarray(arrays["labels"], dtype=np.int64), None)

    def _route_answers(self, arrays: Dict[str, np.ndarray]) -> None:
        """A ``labels`` reply to several predicts: ``rows[i]`` labels for ``tags[i]``."""
        tags, rows, labels = arrays["tags"], arrays.get("rows"), arrays.get("labels")
        if (rows is None or labels is None or tags.dtype.kind != "i" or rows.dtype.kind != "i"
                or tags.ndim != 1 or rows.shape != tags.shape or labels.ndim != 1
                or rows.min(initial=0) < 0 or rows.sum() != len(labels)):
            raise self._transport_failed(
                TransportError("malformed labels reply: tags, rows and labels disagree"))
        ends = np.cumsum(rows).tolist()
        for tag, start, end in zip(tags.tolist(), [0] + ends, ends):
            self._pop_pending(tag)._fulfill(labels[start:end].astype(np.int64), None)

    def _pop_pending(self, tag: Any) -> PendingPredict:
        future = self._pending.pop(tag, None)
        if future is None:
            raise self._transport_failed(TransportError(
                f"response carries unknown or already-answered tag {tag!r}"
            ))
        return future

    def _pump_one(self) -> None:
        """Receive at least one frame; each must belong to a pipelined predict."""
        if self._sock is None:
            # close()/a transport error already failed every future; nothing
            # can still be pending here.
            raise TransportError(f"not connected to {self.address}")
        self._route_one_tagged()
        self._route_buffered()

    def _route_one_tagged(self) -> None:
        kind, meta, arrays = self._recv_reply()
        if meta.get("tag") is None and "tags" not in arrays:
            raise self._transport_failed(TransportError(
                f"expected a tagged response, got untagged {kind!r}"
            ))
        self._route_tagged(kind, meta, arrays)

    def _route_buffered(self) -> None:
        """Route the tagged replies that arrived along with the last one.

        The reader reads ahead, so several replies can land in one system
        call; routing them now leaves no whole reply buffered out of sight
        of a caller who ``select``s on the socket.  A protocol violation
        here has already dropped the connection and failed every pending
        future, which is how the caller learns of it.
        """
        try:
            while self._sock is not None and self._reader.has_frame():
                self._route_one_tagged()
        except TransportError:
            pass

    def _recv_untagged(self) -> Tuple[str, Dict[str, Any], Dict[str, np.ndarray]]:
        """The next *untagged* frame (tagged ones are routed along the way)."""
        while True:
            kind, meta, arrays = self._recv_reply()
            if meta.get("tag") is None and "tags" not in arrays:
                self._route_buffered()
                return kind, meta, arrays
            self._route_tagged(kind, meta, arrays)

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #
    def _request(
        self, kind: str, meta: Optional[Dict[str, Any]] = None, **arrays: np.ndarray
    ) -> Tuple[str, Dict[str, Any], Dict[str, np.ndarray]]:
        self.connect()
        try:
            send_frame(self._sock, pack_message(kind, meta, **arrays))
        except (TransportError, socket.timeout) as exc:
            # The connection state is unknown: drop it so the next request
            # reconnects cleanly.  Do NOT replay this request (see module doc).
            raise self._transport_failed(exc) from exc
        reply_kind, reply_meta, reply_arrays = self._recv_untagged()
        if reply_kind == "error":
            raise_remote_error(reply_meta)
        return reply_kind, reply_meta, reply_arrays

    @staticmethod
    def _codes(X: ArrayOrDataset) -> np.ndarray:
        return np.ascontiguousarray(extract_codes(X), dtype=np.int64)

    def predict(self, X: ArrayOrDataset) -> np.ndarray:
        """Assign a batch on the server; bit-identical to in-process predict."""
        _, _, arrays = self._request("predict", codes=self._codes(X))
        return np.asarray(arrays["labels"], dtype=np.int64)

    def predict_async(self, X: ArrayOrDataset) -> PendingPredict:
        """Submit a predict without waiting; returns a future (see module doc).

        Replies are matched by tag and may be harvested in any order via
        :meth:`PendingPredict.result` or :meth:`gather`.  When the in-flight
        window is full the oldest reply is harvested first.
        """
        codes = self._codes(X)
        self.connect()
        while len(self._pending) >= self.max_in_flight:
            self._pump_one()
        tag = self._next_tag
        self._next_tag += 1
        future = PendingPredict(self, tag, int(codes.shape[0]))
        self._pending[tag] = future
        try:
            send_frame(self._sock, pack_message("predict", {"tag": tag}, codes=codes))
        except (TransportError, socket.timeout) as exc:
            raise self._transport_failed(exc) from exc
        return future

    def gather(self, *futures: PendingPredict) -> List[np.ndarray]:
        """Wait for pipelined predicts; labels in the order the futures are
        given.  With no arguments, waits for *every* outstanding predict (in
        submission order)."""
        if not futures:
            futures = tuple(self._pending.values())
        return [future.result() for future in futures]

    def map_predict(self, batches: Iterable[ArrayOrDataset]) -> List[np.ndarray]:
        """Pipeline a predict per batch; labels in batch order.

        Equivalent to ``[self.predict(b) for b in batches]`` — bit-identical
        labels — but with up to ``max_in_flight`` requests on the wire at
        once, so throughput is bounded by server kernel time, not round-trips.
        """
        return self.gather(*[self.predict_async(batch) for batch in batches])

    def ingest(self, X: ArrayOrDataset) -> np.ndarray:
        """Stream a batch into the served model; returns its assigned labels.

        Tagged predicts still in flight may be answered from the pre- or
        post-ingest state (each is some exact post-batch state); call
        :meth:`gather` first when before/after matters.
        """
        _, _, arrays = self._request("ingest", codes=self._codes(X))
        return np.asarray(arrays["labels"], dtype=np.int64)

    def info(self) -> Dict[str, Any]:
        """The server's current model/counter facts."""
        _, meta, _ = self._request("info")
        return dict(meta)

    def snapshot(self) -> Path:
        """Force an atomic snapshot now; returns the server-side path."""
        _, meta, _ = self._request("snapshot")
        return Path(meta["path"])

    def reload(self, path: Optional[str] = None) -> Dict[str, Any]:
        """Hot-swap the served model from a server-side archive path.

        With ``path=None`` the server re-reads the archive it was launched
        from.  The swap happens under the server's write lock, so no predict
        ever sees a torn model; sessions (including this one) stay open.
        Connected replicas resync from the reloaded archive.  Returns the
        server's reply meta (``path``, ``n_clusters``, ``reloads``).
        """
        meta_out = {} if path is None else {"path": str(path)}
        _, meta, _ = self._request("reload", meta_out)
        return dict(meta)

    def shutdown_server(self) -> None:
        """Ask the server to drain and stop, then close this connection."""
        try:
            self._request("shutdown")
        finally:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "connected" if self._sock is not None else "disconnected"
        return f"ServingClient({self.address!r}, {state})"
