"""The ``"tcp"`` transport backend: shards on remote ``repro worker`` hosts.

The LocalUpdate/GlobalStep decomposition makes the multi-host case cheap:
per sweep only ``O(k * M)`` count statistics and the shard's labels travel,
so a plain TCP socket per shard is plenty.  Two layers live here (the wire
codec itself — length-prefixed frames of JSON meta plus raw typed arrays,
pickle-free, arrays round-tripping bit-exactly — is shared with the serving
tier and lives in :mod:`repro.distributed.codec`):

* **Worker** — :class:`WorkerServer` listens on ``host:port`` (the
  ``repro worker --listen`` CLI subcommand hosts one).  Each coordinator
  connection is served on its own thread: the handshake ships the shard's
  codes once, a :class:`~repro.core.sync.ShardWorker` keeps them resident,
  and subsequent frames are shard-local method calls.  One server therefore
  hosts any number of shards (one connection each) and any number of
  sequential fits.
* **Coordinator** — :class:`TCPTransport` is one shard's channel over one
  socket; ``submit`` writes the request frame immediately (the socket
  pipelines), ``result`` reads reply frames in order.  :class:`TCPExecutor`
  connects one transport per shard, placing shard *i* on
  ``hosts[placement[i]]`` (round-robin by default; a
  :meth:`~repro.distributed.scheduler.GranularityAwareScheduler.place_shards`
  placement groups shards onto MCDC-consistent nodes).

A worker that dies mid-sweep (connection reset / EOF) raises
:class:`~repro.distributed.transport.TransportError` on the coordinator —
never a hang — and a malformed frame (fuzzed bytes, a truncated body, a
corrupt length prefix) ends the session cleanly on the worker.  The protocol
is trusted-network plumbing: no authentication or encryption; run it on
cluster-internal interfaces only.

Protocol v2 extended the v1 handshake for the resilience layer
(:mod:`repro.distributed.resilience`); v3 (this module) keeps that handshake
and moves every frame body to the codec's one layout:

* every shard ``hello`` carries the shard's codes; a ``hello`` without them
  gets a ``ProtocolError`` and the session ends;
* ``hello`` with ``mode="ping"`` opens a *liveness session* with no shard at
  all — :func:`ping_host` uses it to probe worker health without touching
  shard state;
* every reply carries the worker-side wall time of the call (``elapsed`` in
  the reply meta), read back as :attr:`TCPTransport.last_elapsed`.
"""

from __future__ import annotations

import socket
import threading
import time
import traceback
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.sync import ShardUpdate, ShardWorker, SweepBroadcast
from repro.distributed.codec import (
    ThreadedFrameServer,
    default_connect_timeout,
    default_io_timeout,
    pack_message,
    parse_address,
    recv_frame,
    send_frame,
    unpack_message,
)
from repro.distributed.transport import RemoteWorkerError, ShardExecutor, TransportError
from repro.engine import EngineState

__all__ = [
    "PROTOCOL_VERSION",
    "TCPTransport",
    "TCPExecutor",
    "WorkerServer",
    "serve_worker",
    "local_worker_pool",
    "ping_host",
    "parse_address",
    "pack_message",
    "unpack_message",
    "send_frame",
    "recv_frame",
]

PROTOCOL_VERSION = 3

#: The shard-local methods a worker serves.
SHARD_METHODS = ("begin_epoch", "sweep", "hamming_assign", "ping", "shutdown")


# -- EngineState / protocol dataclass (de)serialisation ------------------ #
def _state_arrays(state: EngineState, prefix: str) -> Dict[str, np.ndarray]:
    return {
        f"{prefix}packed": state.packed,
        f"{prefix}valid": state.valid_counts,
        f"{prefix}sizes": state.sizes,
        f"{prefix}ncat": np.asarray(state.n_categories, dtype=np.int64),
    }


def _state_from_arrays(arrays: Dict[str, np.ndarray], prefix: str) -> EngineState:
    return EngineState(
        arrays[f"{prefix}packed"],
        arrays[f"{prefix}valid"],
        arrays[f"{prefix}sizes"],
        tuple(int(m) for m in arrays[f"{prefix}ncat"]),
    )


def encode_request(method: str, args: tuple) -> bytes:
    """One shard-local method call as a frame body."""
    meta: Dict[str, Any] = {"method": method}
    arrays: Dict[str, np.ndarray] = {}
    if method == "begin_epoch":
        n_clusters, labels = args
        meta["n_clusters"] = int(n_clusters)
        meta["has_labels"] = labels is not None
        if labels is not None:
            arrays["labels"] = np.asarray(labels, dtype=np.int64)
    elif method == "sweep":
        (broadcast,) = args
        meta["has_omega"] = broadcast.omega is not None
        arrays.update(_state_arrays(broadcast.state, "state_"))
        arrays["u"] = broadcast.u
        arrays["rho"] = broadcast.rho
        arrays["blocked"] = broadcast.blocked
        if broadcast.omega is not None:
            arrays["omega"] = broadcast.omega
    elif method == "hamming_assign":
        modes, theta = args
        arrays["modes"] = np.asarray(modes)
        arrays["theta"] = np.asarray(theta)
    elif method in ("ping", "shutdown"):
        pass
    else:
        raise TransportError(f"unknown shard method {method!r}")
    return pack_message("call", meta, **arrays)


def decode_request(meta: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> Tuple[str, tuple]:
    method = meta["method"]
    if method == "begin_epoch":
        labels = arrays["labels"] if meta["has_labels"] else None
        return method, (int(meta["n_clusters"]), labels)
    if method == "sweep":
        broadcast = SweepBroadcast(
            state=_state_from_arrays(arrays, "state_"),
            u=arrays["u"],
            rho=arrays["rho"],
            omega=arrays["omega"] if meta["has_omega"] else None,
            blocked=arrays["blocked"],
        )
        return method, (broadcast,)
    if method == "hamming_assign":
        return method, (arrays["modes"], arrays["theta"])
    if method in ("ping", "shutdown"):
        return method, ()
    raise TransportError(f"unknown shard method {method!r}")


def encode_result(result: Any, meta: Optional[Dict[str, Any]] = None) -> bytes:
    """A shard method's return value as a frame body.

    ``meta`` lets the worker attach side-channel facts to any reply — the
    v2 protocol uses it for ``elapsed`` (worker-side wall seconds of the
    call), which the coordinator reads without the estimators ever seeing
    it.
    """
    meta = dict(meta or {})
    if isinstance(result, EngineState):
        return pack_message("state", meta, **_state_arrays(result, "state_"))
    if isinstance(result, ShardUpdate):
        return pack_message(
            "update",
            {"changed": bool(result.changed), **meta},
            labels=result.labels,
            win_counts=result.win_counts,
            win_gain=result.win_gain,
            rival_pen=result.rival_pen,
            rival_counts=result.rival_counts,
            win_sim_total=result.win_sim_total,
            **_state_arrays(result.state, "state_"),
        )
    if isinstance(result, np.ndarray):
        return pack_message("array", meta, array=result)
    if isinstance(result, (int, np.integer)):
        return pack_message("scalar", {"value": int(result), **meta})
    raise TransportError(f"cannot encode worker result of type {type(result).__name__}")


def decode_result(kind: str, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> Any:
    if kind == "state":
        return _state_from_arrays(arrays, "state_")
    if kind == "update":
        return ShardUpdate(
            labels=arrays["labels"],
            changed=bool(meta["changed"]),
            state=_state_from_arrays(arrays, "state_"),
            win_counts=arrays["win_counts"],
            win_gain=arrays["win_gain"],
            rival_pen=arrays["rival_pen"],
            rival_counts=arrays["rival_counts"],
            win_sim_total=arrays["win_sim_total"],
        )
    if kind == "array":
        return arrays["array"]
    if kind == "scalar":
        return int(meta["value"])
    if kind == "error":
        # RemoteWorkerError: the channel is healthy, the *application* raised.
        # The resilience layer must not treat this as a dead worker.
        raise RemoteWorkerError(
            f"worker raised {meta.get('error', 'an exception')}: {meta.get('message', '')}"
            + ("\n--- worker traceback ---\n" + meta["traceback"] if meta.get("traceback") else "")
        )
    raise TransportError(f"unknown response kind {kind!r}")


# ---------------------------------------------------------------------- #
# Worker side
# ---------------------------------------------------------------------- #
def _serve_ping_session(conn: socket.socket) -> None:
    """A liveness-only session: no shard, answers ``ping`` until closed."""
    send_frame(conn, pack_message("welcome", {
        "protocol": PROTOCOL_VERSION, "mode": "ping",
    }))
    while True:
        try:
            body = recv_frame(conn)
        except TransportError:
            return
        method, _ = decode_request(*unpack_message(body)[1:])
        if method in ("ping", "shutdown"):
            send_frame(conn, pack_message("scalar", {"value": 1}))
            if method == "shutdown":
                return
        else:
            send_frame(conn, pack_message("error", {
                "error": "ProtocolError",
                "message": f"a ping session hosts no shard; cannot run {method!r}",
            }))


def _serve_session(conn: socket.socket) -> None:
    """One coordinator connection: handshake, then a shard-call loop.

    The ``hello`` carries the shard's codes exactly once per session, after
    which every request is a small method payload against the resident
    :class:`ShardWorker`.  Every reply carries the call's worker-side wall
    time (``elapsed``).  Worker-side exceptions are reported back as
    ``error`` frames so the coordinator can re-raise them, and so is a call
    of a method the worker does not serve (a ``ProtocolError``); a bad
    handshake gets a ``ProtocolError`` frame and transport-level failures
    end the session.
    """

    def refuse(message: str) -> None:
        send_frame(conn, pack_message("error", {
            "error": "ProtocolError", "message": message,
        }))

    try:
        kind, meta, arrays = unpack_message(recv_frame(conn))
        if kind != "hello":
            refuse(f"expected hello, got {kind!r}")
            return
        if meta.get("protocol") != PROTOCOL_VERSION:
            refuse(f"protocol {meta.get('protocol')!r} != {PROTOCOL_VERSION}")
            return
        if meta.get("mode") == "ping":
            _serve_ping_session(conn)
            return
        if "codes" not in arrays or "ncat" not in arrays:
            # An older coordinator's cache-first hello: this worker keeps no
            # shard cache, so answer plainly instead of asking for the codes.
            refuse("the hello carries no shard codes; ship them in the hello")
            return
        worker = ShardWorker(
            arrays["codes"], [int(m) for m in arrays["ncat"]],
            engine=str(meta.get("engine", "auto")),
        )
        send_frame(conn, pack_message("welcome", {
            "protocol": PROTOCOL_VERSION,
            "n_objects": worker.ping(),
        }))
        while True:
            try:
                body = recv_frame(conn)
            except TransportError:
                return  # coordinator went away; nothing left to serve
            # A frame that does not decode leaves the stream in an unknown
            # state: end the session (cleanly) rather than guess at framing.
            _, meta, arrays = unpack_message(body)
            if meta.get("method") not in SHARD_METHODS:
                # A verb this worker does not serve (one an older coordinator
                # still sends): refuse the call by name, keep the session.
                refuse(f"unknown shard method {meta.get('method')!r}")
                continue
            method, args = decode_request(meta, arrays)
            if method == "shutdown":
                send_frame(conn, pack_message("scalar", {"value": 0}))
                return
            started = time.perf_counter()
            try:
                result = getattr(worker, method)(*args)
            except Exception as exc:  # report, keep serving
                send_frame(conn, pack_message("error", {
                    "error": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(),
                }))
                continue
            elapsed = time.perf_counter() - started
            send_frame(conn, encode_result(result, {"elapsed": elapsed}))
    except TransportError:
        pass  # half-open teardown / malformed frame; the peer sees its own error
    except Exception:
        pass  # adversarial handshake payload (e.g. codes of the wrong shape)
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class WorkerServer(ThreadedFrameServer):
    """A shard host: accepts coordinator connections and serves shard calls.

    The accept-loop mechanics (immediate bind so ``port=0`` resolves before
    :meth:`serve_forever`, one daemon thread per session, ``once`` semantics,
    idempotent :meth:`shutdown`) live in :class:`ThreadedFrameServer`; this
    subclass contributes the shard-session protocol.
    """

    def handle_session(self, conn: socket.socket) -> None:
        _serve_session(conn)


def serve_worker(listen: str = "127.0.0.1:0", once: bool = False) -> WorkerServer:
    """Start a :class:`WorkerServer` on a daemon thread; returns it (bound).

    The blocking equivalent — what ``repro worker --listen`` runs — is
    ``WorkerServer(host, port).serve_forever()``.
    """
    host, port = parse_address(listen)
    server = WorkerServer(host, port, once=once)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


@contextmanager
def local_worker_pool(n_workers: int = 2, host: str = "127.0.0.1") -> Iterator[List[str]]:
    """Spin up ``n_workers`` loopback worker servers (threads); yields addresses.

    Test/demo convenience: the in-process equivalent of launching
    ``repro worker`` on ``n_workers`` machines.
    """
    servers = [serve_worker(f"{host}:0") for _ in range(int(n_workers))]
    try:
        yield [server.address for server in servers]
    finally:
        for server in servers:
            server.shutdown()


def ping_host(address: str, timeout: Optional[float] = None) -> float:
    """Round-trip a liveness probe to a worker; returns the latency in seconds.

    Opens a throwaway ``mode="ping"`` session (no shard payload, no resident
    state) and runs one ``ping``.  Raises :class:`TransportError` if the
    worker is unreachable, hung past ``timeout`` (default: the codec's
    connect timeout), or answers garbage.
    """
    timeout = default_connect_timeout() if timeout is None else float(timeout)
    host, port = parse_address(address)
    started = time.perf_counter()
    try:
        sock = socket.create_connection((host, port), timeout=max(0.1, timeout))
    except OSError as exc:
        raise TransportError(f"cannot reach worker at {address}: {exc}") from exc
    try:
        sock.settimeout(timeout)
        send_frame(sock, pack_message("hello", {
            "protocol": PROTOCOL_VERSION, "mode": "ping",
        }))
        kind, meta, _ = unpack_message(recv_frame(sock))
        if kind != "welcome" or meta.get("mode") != "ping":
            raise TransportError(
                f"worker at {address} rejected the ping handshake (got {kind!r})"
            )
        send_frame(sock, encode_request("ping", ()))
        unpack_message(recv_frame(sock))
        return time.perf_counter() - started
    except socket.timeout as exc:
        raise TransportError(f"worker at {address} timed out on ping") from exc
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass


# ---------------------------------------------------------------------- #
# Coordinator side
# ---------------------------------------------------------------------- #
class TCPTransport:
    """One shard's channel to a remote worker over a single socket.

    Connecting performs the handshake: the ``hello`` carries the codes, which
    stay resident on the worker.  ``submit`` writes the request frame
    immediately (TCP pipelines; replies come back in order), ``result`` reads
    the next reply frame.

    Observability: :attr:`payload_bytes_shipped` counts the shard-code bytes
    shipped in the hello and :attr:`last_elapsed` the worker-side wall
    seconds of the most recent completed call (``None`` before the first
    one).
    """

    def __init__(
        self,
        address: str,
        codes: np.ndarray,
        n_categories: Sequence[int],
        engine: str = "auto",
        timeout: Optional[float] = None,
        connect_timeout: Optional[float] = None,
        defer_welcome: bool = False,
    ) -> None:
        self.address = address
        self._pending = 0
        self._welcomed = False
        self.payload_bytes_shipped = 0
        self.last_elapsed: Optional[float] = None
        connect_timeout = (
            default_connect_timeout() if connect_timeout is None else float(connect_timeout)
        )
        self._timeout = default_io_timeout() if timeout is None else timeout
        host, port = parse_address(address)
        try:
            self._sock: Optional[socket.socket] = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as exc:
            raise TransportError(f"cannot connect to worker at {address}: {exc}") from exc
        try:
            # The handshake runs under the *connect* timeout — a worker that
            # accepted the connection but never answers the hello must fail
            # the handshake, not hang the coordinator.  The per-operation
            # timeout takes over once welcomed.
            self._sock.settimeout(connect_timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            codes = np.ascontiguousarray(codes, dtype=np.int64)
            self._expected_objects = int(codes.shape[0])
            send_frame(self._sock, pack_message(
                "hello", {"protocol": PROTOCOL_VERSION, "engine": engine},
                codes=codes, ncat=np.asarray(list(n_categories), dtype=np.int64),
            ))
            self.payload_bytes_shipped = int(codes.nbytes)
            # `defer_welcome` lets a multi-shard caller ship every shard's
            # hello first and gather the replies afterwards, so the workers'
            # engine builds overlap instead of serialising per host.
            if not defer_welcome:
                self.await_welcome()
        except BaseException:
            self.close()
            raise

    def await_welcome(self) -> None:
        """Block until the worker acknowledges the resident shard (idempotent)."""
        if self._welcomed:
            return
        if self._sock is None:
            raise TransportError(f"transport to {self.address} is closed")
        kind, meta, arrays = unpack_message(recv_frame(self._sock))
        if kind == "error":
            decode_result(kind, meta, arrays)  # raises TransportError
        if kind != "welcome" or meta.get("n_objects") != self._expected_objects:
            raise TransportError(
                f"handshake with worker at {self.address} failed (got {kind!r})"
            )
        self._welcomed = True
        self._sock.settimeout(self._timeout)

    def submit(self, method: str, args: tuple) -> None:
        if self._sock is None:
            raise TransportError(f"transport to {self.address} is closed")
        try:
            send_frame(self._sock, encode_request(method, args))
        except TransportError as exc:
            raise TransportError(f"worker at {self.address}: {exc}") from exc
        self._pending += 1

    def result(self) -> Any:
        if self._sock is None:
            raise TransportError(f"transport to {self.address} is closed")
        if self._pending <= 0:
            raise TransportError(f"no pending call on transport to {self.address}")
        self._pending -= 1
        try:
            kind, meta, arrays = unpack_message(recv_frame(self._sock))
        except (TransportError, socket.timeout) as exc:
            raise TransportError(
                f"worker at {self.address} failed mid-operation: {exc}"
            ) from exc
        elapsed = meta.pop("elapsed", None)
        if elapsed is not None:
            self.last_elapsed = float(elapsed)
        return decode_result(kind, meta, arrays)

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is None:
            return
        try:
            if self._pending == 0:
                sock.settimeout(1.0)
                send_frame(sock, encode_request("shutdown", ()))
                recv_frame(sock)  # worker acks, then both sides close cleanly
        except (TransportError, OSError):
            pass  # best-effort goodbye; the worker handles abrupt EOF too
        finally:
            self._pending = 0
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass


class TCPExecutor(ShardExecutor):
    """Shard executor whose shards live behind ``repro worker`` TCP servers.

    One :class:`TCPTransport` per shard.  ``_map`` pipelines: every shard's
    request goes out before any reply is awaited, so the shard steps on
    different workers overlap.

    Parameters (beyond the registry's standard ones)
    ----------
    hosts:
        ``"host:port"`` worker addresses (required).
    placement:
        Optional host index per shard — e.g. from
        :meth:`GranularityAwareScheduler.place_shards`; defaults to
        round-robin ``shard i -> hosts[i % len(hosts)]``.
    timeout:
        Optional per-operation socket timeout in seconds
        (default: ``REPRO_IO_TIMEOUT`` or block).

    Construction is transactional: if any shard fails to connect or
    handshake, every already-connected transport is closed before the error
    propagates.

    Note: the ``"tcp"`` registry name resolves to the fault-tolerant
    subclass :class:`repro.distributed.resilience.ResilientTCPExecutor`;
    this base class is the plain fail-fast channel layer.
    """

    def __init__(
        self,
        codes: np.ndarray,
        n_categories: Sequence[int],
        shard_indices: Sequence[np.ndarray],
        engine: str = "auto",
        hosts: Optional[Sequence[str]] = None,
        placement: Optional[Sequence[int]] = None,
        timeout: Optional[float] = None,
    ) -> None:
        if not hosts:
            raise ValueError(
                "the tcp backend requires hosts=['host:port', ...] — start them "
                "with `repro worker --listen HOST:PORT`"
            )
        hosts = [str(h) for h in hosts]
        n_shards = len(shard_indices)
        if placement is None:
            placement = [i % len(hosts) for i in range(n_shards)]
        placement = [int(p) for p in placement]
        if len(placement) != n_shards:
            raise ValueError(
                f"placement names {len(placement)} shards but there are {n_shards}"
            )
        if placement and not all(0 <= p < len(hosts) for p in placement):
            raise ValueError(f"placement indices must be in [0, {len(hosts)})")
        codes = np.asarray(codes, dtype=np.int64)
        n_categories = [int(m) for m in n_categories]
        transports: List[TCPTransport] = []
        try:
            # Two phases so the handshakes pipeline: ship every shard's hello
            # first, then gather the welcomes — worker-side engine builds for
            # shards on different hosts overlap instead of running serially.
            for idx, host_index in zip(shard_indices, placement):
                transports.append(TCPTransport(
                    hosts[host_index], codes[idx], n_categories, engine,
                    timeout=timeout, defer_welcome=True,
                ))
            for transport in transports:
                transport.await_welcome()
        except BaseException:
            for transport in transports:
                transport.close()
            raise
        super().__init__(shard_indices, codes.shape[0])
        self._transports: List[Optional[TCPTransport]] = transports
        self.hosts = hosts
        self.placement = placement
        self._engine = engine
        self._timeout = timeout
        self._codes = codes
        self._n_categories = n_categories

    def _map(self, method: str, per_shard_args=None, common: tuple = ()) -> list:
        if not self._transports:
            raise TransportError(f"executor is closed; cannot run {method!r}")
        if per_shard_args is None:
            per_shard_args = [() for _ in self.shard_indices]
        for transport, args in zip(self._transports, per_shard_args):
            transport.submit(method, (*args, *common))
        return [transport.result() for transport in self._transports]

    def close(self) -> None:
        transports, self._transports = self._transports, []
        for transport in transports:
            if transport is not None:
                transport.close()

    def transport_stats(self) -> dict:
        """Aggregate wire observability across the live shard transports."""
        transports = [t for t in self._transports if t is not None]
        return {
            "payload_bytes_shipped": sum(t.payload_bytes_shipped for t in transports),
        }
