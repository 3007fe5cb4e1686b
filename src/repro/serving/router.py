"""A serving front door: one address fanning out to a replica group.

:class:`ServingRouter` speaks the serving protocol on its listen address and
forwards each request, as raw frame bytes, to the right backend:

* ``predict`` — round-robin across the *read backends* (the replicas; the
  primary serves reads too when no replicas are configured), so read
  throughput scales with the replica count while every client keeps one
  stable address;
* ``ingest`` / ``snapshot`` — always to the *primary*, the single writer
  (an error frame if the router has no primary configured);
* ``info`` — answered locally with the router's own topology and routing
  counters, enriched with the model facts (clusterer, ``n_clusters``, ...)
  fetched from a read backend — so clients that size buffers off the
  welcome (``repro predict --server``) work unchanged through the router —
  plus a ``primary_wal`` dict of the primary's durability facts (``wal``,
  ``wal_sync``, ``wal_records``, ``snapshot_failures``, ...) so writers
  behind the router can still see whether acked means durable;
* ``shutdown`` — drains the router itself; backends are never shut down
  through the router.

Pipelining is preserved: a session's tagged predicts all flow to one read
backend (sessions are spread round-robin), forwarded without waiting, and a
relay thread pipes the backend's tagged replies straight back — so the
micro-batcher on the backend still sees the client's full in-flight window.
Untagged requests keep strict request/response through per-backend
synchronous connections.

The router never inspects array payloads — bodies are opaque bytes between
``recv_frame`` and ``send_frame`` (only the JSON meta is peeked at for the
kind and tag), so routed replies are bit-identical to direct ones.

Replicas joining or leaving is a deployment concern: construct the router
with the topology (`repro route --replicas ...`).  A read backend that is
down is *evicted* from the round-robin rotation rather than surfaced to the
client: predicts (idempotent by construction) retry transparently on the
next backend, and the dead backend is re-probed — by routing one request at
it — every ``probe_interval`` seconds, rejoining the rotation on the first
successful reconnect.  Only when every read backend is down does the client
see an error frame.  Ingests and snapshots are never retried (the primary is
a single writer and ingestion is not idempotent); a dead primary keeps
yielding error frames until it returns.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.distributed.codec import (
    FrameReader,
    ThreadedFrameServer,
    default_connect_timeout,
    pack_message,
    parse_address,
    recv_frame,
    send_frame,
    unpack_message,
)
from repro.distributed.transport import TransportError
from repro.serving.protocol import (
    SERVICE_NAME,
    SERVING_PROTOCOL_VERSION,
    check_welcome,
    error_body,
    hello_body,
    request_tag,
)

__all__ = ["ServingRouter", "route_serving"]


def _open_backend(address: str, timeout: float) -> socket.socket:
    """Connect + handshake one backend session (raises TransportError)."""
    host, port = parse_address(address)
    try:
        sock = socket.create_connection((host, port), timeout=max(0.1, timeout))
    except OSError as exc:
        raise TransportError(f"cannot reach backend at {address}: {exc}") from exc
    try:
        sock.settimeout(timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_frame(sock, hello_body())
        kind, meta, _ = unpack_message(recv_frame(sock))
        check_welcome(kind, meta, address)
        sock.settimeout(None)
        return sock
    except BaseException:
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass
        raise


class _RouterSession:
    """One client connection's view of the backends (owned by its thread)."""

    def __init__(self, router: "ServingRouter", conn: socket.socket) -> None:
        self.router = router
        self.conn = conn
        self.send_lock = threading.Lock()
        self.dead = False
        #: Per-backend synchronous connections (untagged request/response).
        self.sync_conns: Dict[str, socket.socket] = {}
        #: The one backend this session's *tagged* predicts stream to.
        self.pipe_conn: Optional[socket.socket] = None
        self.pipe_address: Optional[str] = None
        self.pipe_thread: Optional[threading.Thread] = None

    def send(self, body: bytes) -> None:
        with self.send_lock:
            send_frame(self.conn, body)

    def sync_conn(self, address: str) -> socket.socket:
        sock = self.sync_conns.get(address)
        if sock is None:
            sock = _open_backend(address, self.router.connect_timeout)
            self.sync_conns[address] = sock
        return sock

    def forward_sync(self, address: str, body: bytes) -> bytes:
        """Raw round-trip through a backend; drops that conn on failure."""
        try:
            sock = self.sync_conn(address)
            send_frame(sock, body)
            return recv_frame(sock)
        except (TransportError, OSError):
            sock = self.sync_conns.pop(address, None)
            if sock is not None:
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass
            raise

    def ensure_pipe(self) -> socket.socket:
        """The streaming read-backend conn (+ its reply relay thread).

        Tries the rotation's candidates in order, evicting backends whose
        connect/handshake fails, so one dead replica never costs a client
        its streaming session.
        """
        if self.pipe_conn is None:
            last_error: Optional[Exception] = None
            for address in self.router._read_candidates():
                try:
                    self.pipe_conn = _open_backend(address, self.router.connect_timeout)
                except (TransportError, OSError) as exc:
                    last_error = exc
                    self.router._mark_backend_dead(address)
                    continue
                self.router._mark_backend_alive(address)
                self.pipe_address = address
                self.pipe_thread = threading.Thread(target=self._relay, daemon=True)
                self.pipe_thread.start()
                break
            else:
                raise TransportError(
                    f"no read backend reachable: {last_error}"
                ) from last_error
        return self.pipe_conn

    def _relay(self) -> None:
        """Pump every frame from the read backend straight to the client."""
        reader = FrameReader(self.pipe_conn)
        try:
            while True:
                body = reader.recv(lambda: self.dead or self.router._closing.is_set())
                if body is None:
                    return
                self.send(body)
        except (TransportError, OSError):
            # Backend or client gone mid-pipeline: drop the client connection
            # so outstanding futures fail fast instead of waiting forever.
            self.dead = True
            try:
                self.conn.close()
            except OSError:  # pragma: no cover
                pass

    def close(self) -> None:
        self.dead = True
        for sock in list(self.sync_conns.values()) + (
            [self.pipe_conn] if self.pipe_conn is not None else []
        ):
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        self.sync_conns.clear()
        if self.pipe_thread is not None:
            self.pipe_thread.join(timeout=2.0)


class ServingRouter(ThreadedFrameServer):
    """Round-robin serving router over a primary and its read replicas.

    Parameters
    ----------
    primary:
        ``"host:port"`` of the (single) ingest-accepting server, or ``None``
        for a read-only fleet (ingests then fail with an error frame).
    replicas:
        Read-backend addresses.  Empty means the primary serves reads too.
    host, port, once:
        As for :class:`~repro.distributed.codec.ThreadedFrameServer`.
    connect_timeout:
        Seconds allowed for each backend connect + handshake (default: the
        ``REPRO_CONNECT_TIMEOUT`` codec default).
    probe_interval:
        Seconds a read backend marked dead sits out of the round-robin
        rotation before one request is routed at it as a liveness probe.
    """

    def __init__(
        self,
        primary: Optional[str] = None,
        replicas: Sequence[str] = (),
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        connect_timeout: Optional[float] = None,
        probe_interval: float = 5.0,
        once: bool = False,
    ) -> None:
        super().__init__(host, port, once=once)
        self.primary = primary
        self.replicas: List[str] = list(replicas)
        if self.primary is None and not self.replicas:
            raise ValueError("a router needs a primary and/or replicas")
        for address in ([self.primary] if self.primary else []) + self.replicas:
            parse_address(address)  # fail fast on malformed topology
        self.read_backends: List[str] = self.replicas or [self.primary]
        self.connect_timeout = float(
            default_connect_timeout() if connect_timeout is None else connect_timeout
        )
        self.probe_interval = float(probe_interval)
        self._rr_lock = threading.Lock()
        self._rr = 0
        #: Dead read backends: address -> monotonic time of the next probe.
        self._dead_until: Dict[str, float] = {}
        #: Routed-predict counters per backend address (observability/tests).
        self.routed_predicts: Dict[str, int] = {a: 0 for a in self.read_backends}
        self.routed_ingests = 0
        self._serve_thread: Optional[threading.Thread] = None
        self.drained = threading.Event()
        #: Last model facts fetched from a backend (stale-ok welcome cache).
        self._model_facts: Dict[str, Any] = {}
        #: Last durability facts fetched from the primary (stale-ok cache).
        self._primary_wal: Dict[str, Any] = {}

    # -- read-backend rotation & liveness ------------------------------- #
    def _read_candidates(self) -> List[str]:
        """Read backends to try, in order: the round-robin pick first.

        Backends marked dead are skipped until their probe is due; a backend
        whose probe *is* due goes to the *front* of the list, so the next
        request is actually routed at it and doubles as the liveness probe —
        a success reinstates it, a failure fails over to the healthy rotation
        (invisible to the caller) and re-arms the probe timer.  With every
        backend dead, the full rotation is returned: trying is strictly
        better than refusing.
        """
        now = time.monotonic()
        with self._rr_lock:
            offset = self._rr % len(self.read_backends)
            self._rr += 1
            rotated = (
                self.read_backends[offset:] + self.read_backends[:offset]
            )
            healthy = [a for a in rotated if a not in self._dead_until]
            probe_due = [
                a for a in rotated
                if a in self._dead_until and now >= self._dead_until[a]
            ]
        return (probe_due + healthy) or rotated

    def _mark_backend_dead(self, address: str) -> None:
        if address not in self.read_backends:
            return
        with self._rr_lock:
            self._dead_until[address] = time.monotonic() + self.probe_interval

    def _mark_backend_alive(self, address: str) -> None:
        with self._rr_lock:
            self._dead_until.pop(address, None)

    def dead_backends(self) -> List[str]:
        with self._rr_lock:
            return sorted(self._dead_until)

    def _count_predict(self, address: str) -> None:
        with self._rr_lock:
            self.routed_predicts[address] = self.routed_predicts.get(address, 0) + 1

    # ------------------------------------------------------------------ #
    #: Backend info fields clients may size requests off (welcome meta).
    _MODEL_FACT_KEYS = ("clusterer", "n_clusters", "n_features", "n_objects")

    def _backend_model_facts(self) -> Dict[str, Any]:
        """Model facts from a read backend; last good answer on failure."""
        for address in self._read_candidates():
            sock = None
            try:
                sock = _open_backend(address, self.connect_timeout)
                send_frame(sock, pack_message("info", {}))
                kind, meta, _ = unpack_message(recv_frame(sock))
            except (TransportError, OSError):
                self._mark_backend_dead(address)
                continue
            finally:
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:  # pragma: no cover
                        pass
            self._mark_backend_alive(address)
            if kind == "info":
                with self._rr_lock:
                    self._model_facts = {
                        key: meta[key] for key in self._MODEL_FACT_KEYS if key in meta
                    }
            break
        with self._rr_lock:
            return dict(self._model_facts)

    #: Primary durability facts surfaced through the router (clients writing
    #: through one stable address can still see whether acked means durable).
    _PRIMARY_WAL_KEYS = (
        "wal", "wal_sync", "wal_path", "wal_records", "wal_bytes",
        "wal_replayed_batches", "snapshot_failures",
    )

    def _primary_wal_facts(self) -> Optional[Dict[str, Any]]:
        """The primary's WAL/durability facts; last good answer on failure."""
        if self.primary is None:
            return None
        sock = None
        try:
            sock = _open_backend(self.primary, self.connect_timeout)
            send_frame(sock, pack_message("info", {}))
            kind, meta, _ = unpack_message(recv_frame(sock))
            if kind == "info":
                with self._rr_lock:
                    self._primary_wal = {
                        key: meta[key]
                        for key in self._PRIMARY_WAL_KEYS
                        if key in meta
                    }
        except (TransportError, OSError):
            pass  # primary down: serve the cached (possibly empty) facts
        finally:
            if sock is not None:
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass
        with self._rr_lock:
            return dict(self._primary_wal)

    def info(self) -> Dict[str, Any]:
        facts = self._backend_model_facts()
        primary_wal = self._primary_wal_facts()
        with self._rr_lock:
            routed = dict(self.routed_predicts)
            ingests = self.routed_ingests
        facts.update({
            "protocol": SERVING_PROTOCOL_VERSION,
            "service": SERVICE_NAME,
            "role": "router",
            "primary": self.primary,
            "replicas": list(self.replicas),
            "read_backends": list(self.read_backends),
            "dead_backends": self.dead_backends(),
            "routed_predicts": routed,
            "routed_ingests": ingests,
            "primary_wal": primary_wal,
        })
        return facts

    def handle_session(self, conn: socket.socket) -> None:
        session = _RouterSession(self, conn)
        reader = FrameReader(conn)
        try:
            body = reader.recv(self._closing.is_set)
            if body is None:
                return
            kind, meta, _ = unpack_message(body)
            if kind != "hello" or meta.get("service") != SERVICE_NAME:
                session.send(error_body(
                    TransportError(f"expected a {SERVICE_NAME} hello, got {kind!r}"),
                    include_traceback=False,
                ))
                return
            if meta.get("protocol") != SERVING_PROTOCOL_VERSION:
                session.send(error_body(
                    TransportError(
                        f"protocol {meta.get('protocol')!r} != {SERVING_PROTOCOL_VERSION}"
                    ),
                    include_traceback=False,
                ))
                return
            session.send(pack_message("welcome", self.info()))
            while not session.dead:
                body = reader.recv(lambda: session.dead or self._closing.is_set())
                if body is None:
                    return
                kind, meta, _ = unpack_message(body)
                tag = request_tag(meta)
                if kind == "shutdown":
                    session.send(pack_message("ok", {"draining": True}))
                    self.shutdown()
                    return
                try:
                    reply = self._route(session, kind, tag, body)
                except TransportError as exc:
                    reply = error_body(exc, include_traceback=False, tag=tag)
                except Exception as exc:  # noqa: BLE001 - reported to client
                    reply = error_body(exc, tag=tag)
                if reply is not None:
                    session.send(reply)
        except TransportError:
            pass  # client disconnect / malformed frame
        except Exception:
            pass  # a bad payload must never kill the router
        finally:
            session.close()

    def _route(
        self, session: _RouterSession, kind: str, tag: Optional[int], body: bytes
    ) -> Optional[bytes]:
        """Forward one request; returns the reply body (None = sent async)."""
        if kind == "info":
            return pack_message("info", {**self.info(), **({} if tag is None else {"tag": tag})})
        if kind == "predict":
            if tag is not None:
                # Streamed: forward now, the relay thread returns the reply.
                sock = session.ensure_pipe()
                send_frame(sock, body)
                self._count_predict(session.pipe_address)
                return None
            # Untagged predicts are idempotent, so a dead backend is evicted
            # and the request retried on the next one instead of surfacing a
            # TransportError to the client.
            last_error: Optional[Exception] = None
            for address in self._read_candidates():
                try:
                    reply = session.forward_sync(address, body)
                except (TransportError, OSError) as exc:
                    last_error = exc
                    self._mark_backend_dead(address)
                    continue
                self._mark_backend_alive(address)
                self._count_predict(address)
                return reply
            raise TransportError(f"no read backend reachable: {last_error}")
        if kind in ("ingest", "snapshot"):
            if self.primary is None:
                raise RuntimeError(
                    f"this router fronts a read-only fleet (no primary); "
                    f"cannot forward {kind!r}"
                )
            reply = session.forward_sync(self.primary, body)
            if kind == "ingest":
                with self._rr_lock:
                    self.routed_ingests += 1
            return reply
        if kind == "replicate":
            raise RuntimeError(
                "replicate through a router is not supported; replicas sync "
                "from the primary directly (repro serve --replica-of)"
            )
        raise ValueError(f"unknown request kind {kind!r}")

    # ------------------------------------------------------------------ #
    # Lifecycle (mirrors ModelServer so tests/CLI drive both the same way)
    # ------------------------------------------------------------------ #
    def start(self) -> "ServingRouter":
        self._serve_thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._serve_thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> bool:
        self.shutdown()
        thread = self._serve_thread
        if thread is not None:
            thread.join(timeout)
        return self.drained.wait(timeout=max(0.0, timeout))

    def _on_drained(self) -> None:
        self.drained.set()


def route_serving(
    listen: str = "127.0.0.1:0",
    primary: Optional[str] = None,
    replicas: Sequence[str] = (),
    **kwargs: Any,
) -> ServingRouter:
    """Start a :class:`ServingRouter` on a daemon thread; returns it (bound)."""
    host, port = parse_address(listen)
    return ServingRouter(primary, replicas, host, port, **kwargs).start()
