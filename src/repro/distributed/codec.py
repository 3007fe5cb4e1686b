"""Shared wire codec and threaded frame server for every repro network tier.

Every message on every repro socket — shard-worker RPC, serving requests and
replies, replication streams, the router — and every write-ahead-log record
is one frame body in one layout (protocol version 3), pickle-free and
bit-exact for the numeric dtypes the tiers exchange:

* :func:`pack_message` / :func:`unpack_message` — ``(kind, meta, arrays)``
  <-> frame body.  The body is :data:`FRAME_MAGIC`, a JSON meta (carrying
  ``kind``) and N typed arrays as raw C-order bytes behind a small header
  (name, dtype, shape).  The packer raises
  :class:`~repro.distributed.transport.TransportError` for an array the
  layout cannot carry; the reader raises it for any body that is not a
  well-formed frame — an unknown magic (an npz or ``RFC1`` body of an older
  version), truncation, bad JSON, a missing ``kind``, an unlisted dtype, a
  shape larger than the bytes left, trailing bytes — never a raw
  ``json``/``numpy`` exception, so adversarial input fails cleanly on both
  ends of the socket.  npz stays the on-disk model archive format
  (:mod:`repro.persistence`); it never travels as a frame body.
* :func:`send_frame` / :func:`send_frames` / :func:`recv_frame` and
  :class:`FrameReader` — the length-prefixed framing with
  a frame-size cap enforced on *both* send and receive, so a corrupt length
  prefix can never turn into a multi-exabyte allocation and an oversized send
  fails at the sender with the real diagnosis.  The cap defaults to
  :data:`MAX_FRAME` (1 GiB) but is configurable: per call via the
  ``max_frame`` argument, or fleet-wide via the ``REPRO_MAX_FRAME``
  environment variable (see :func:`frame_cap`).  The default connect and
  per-operation socket timeouts are likewise configurable through
  ``REPRO_CONNECT_TIMEOUT`` / ``REPRO_IO_TIMEOUT``
  (:func:`default_connect_timeout` / :func:`default_io_timeout`).
  A :class:`FrameReader` is kept per connection by the serving tier: it
  reads ahead, so a burst of pipelined frames costs one system call rather
  than two per frame, and it can poll, so an idle session of a long-lived
  server notices a shutdown request instead of blocking in ``recv`` forever.
* :class:`ThreadedFrameServer` — the accept-loop skeleton shared by the shard
  worker (:class:`repro.distributed.rpc.WorkerServer`) and the model server
  (:class:`repro.serving.ModelServer`): bind immediately (so ``port=0``
  resolves before ``serve_forever``), one daemon thread per session, ``once``
  semantics (exit when every accepted session finished), idempotent
  ``shutdown``.
* :func:`wal_record` / :func:`read_wal_records` — the on-disk record framing
  of the serving tier's write-ahead ingest log (PR 10).  A record is the
  wire frame layout plus a CRC: ``u64 body length | u32 crc32(body) | body``,
  where the body is a :func:`pack_message` frame body.  The CRC is
  what makes crash recovery exact: a record torn by a crash mid-append
  (truncated length, truncated body, or a body that does not match its
  checksum) is detected and *dropped*, never half-applied —
  :func:`read_wal_records` returns every intact record plus the byte offset
  where the clean prefix ends, so the reader can truncate the torn tail
  before appending again.
"""

from __future__ import annotations

import json
import math
import os
import socket
import struct
import threading
import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.transport import TransportError

__all__ = [
    "MAX_FRAME",
    "FRAME_MAGIC",
    "frame_cap",
    "default_connect_timeout",
    "default_io_timeout",
    "pack_message",
    "unpack_message",
    "send_frame",
    "send_frames",
    "recv_frame",
    "FrameReader",
    "wal_record",
    "read_wal_records",
    "parse_address",
    "ThreadedFrameServer",
]

#: Frame header: one unsigned 64-bit big-endian body length.
_LEN = struct.Struct(">Q")

#: Default sanity cap on a single frame (1 GiB) — a corrupt length prefix
#: must not turn into an attempted multi-exabyte allocation.  The effective
#: cap is :func:`frame_cap` (``REPRO_MAX_FRAME`` overrides this constant).
MAX_FRAME = 1 << 30


def _positive_number_env(name: str, kind: type) -> Optional[float]:
    """Parse a positive-number environment override; ``None`` when unset."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = kind(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a positive {kind.__name__}, got {raw!r}"
        ) from None
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {raw!r}")
    return value


def frame_cap() -> int:
    """The effective per-frame byte cap.

    ``REPRO_MAX_FRAME`` (a positive integer, validated) overrides the
    :data:`MAX_FRAME` default, so deployments shipping very large shards —
    or hardening against them — can retune every sender and receiver without
    code changes.  Callers can still override per call through the
    ``max_frame`` argument of :func:`send_frame` / :func:`recv_frame`.
    """
    env = _positive_number_env("REPRO_MAX_FRAME", int)
    return MAX_FRAME if env is None else int(env)


def default_connect_timeout() -> float:
    """Default connect/handshake timeout in seconds (``REPRO_CONNECT_TIMEOUT``).

    Used by every codec consumer that dials out (the TCP shard transports,
    the serving client and router) when no explicit ``connect_timeout`` is
    passed.  Defaults to 10 seconds.
    """
    env = _positive_number_env("REPRO_CONNECT_TIMEOUT", float)
    return 10.0 if env is None else float(env)


def default_io_timeout() -> Optional[float]:
    """Default per-operation socket timeout (``REPRO_IO_TIMEOUT``; ``None`` blocks).

    Unset means block indefinitely — a sweep or predict on a large batch
    legitimately takes a while — but fleets that prefer failing fast over
    waiting on a wedged peer can arm a global receive deadline here.
    """
    return _positive_number_env("REPRO_IO_TIMEOUT", float)


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``"host:port"`` (the port is mandatory)."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"worker address must be 'host:port', got {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"invalid port in worker address {address!r}") from None


# ---------------------------------------------------------------------- #
# Codec: one frame body layout for every message
# ---------------------------------------------------------------------- #
#: First bytes of every frame body.  Bodies of older protocol versions start
#: with ``PK`` (npz archives) or ``RFC1`` (the single-array layout) and are
#: rejected by :func:`unpack_message` with the magic they carry.
FRAME_MAGIC = b"RFM3"

#: Dtypes a body may carry: fixed-width little-endian numerics and bools.
_DTYPES = {name: np.dtype(name) for name in ("<i8", "<f8", "<i4", "|u1", "|b1")}

#: Each carried dtype's header field (``u8 dtype_len, dtype``), by dtype.
_DTYPE_FIELDS = {
    dtype: bytes((len(name),)) + name.encode("ascii") for name, dtype in _DTYPES.items()
}

#: Most dimensions one array may have, and the dims field for each ndim.
_MAX_NDIM = 4
_DIMS = [struct.Struct(f">{ndim}I") for ndim in range(_MAX_NDIM + 1)]

_U32 = struct.Struct(">I")
_U8 = struct.Struct(">B")


def pack_message(kind: str, meta: Optional[Dict[str, Any]] = None, **arrays) -> bytes:
    """Serialise one message into a frame body.

    Layout: ``magic | u32 meta_len | meta JSON (with "kind") | u8 n_arrays |
    per array: u8 name_len, name, u8 dtype_len, dtype, u8 ndim, ndim * u32
    dims, raw C-order bytes``.  An array the layout cannot carry (a dtype
    outside :data:`_DTYPES`, more than four dimensions, a dimension over
    2**32 - 1, a name over 255 bytes) raises :class:`TransportError`.
    """
    meta_bytes = json.dumps({"kind": kind, **(meta or {})}).encode("utf-8")
    if len(meta_bytes) > 0xFFFFFFFF or len(arrays) > 0xFF:
        raise TransportError(
            f"cannot frame {kind!r}: {len(meta_bytes)} meta bytes, {len(arrays)} arrays"
        )
    parts = [FRAME_MAGIC, _U32.pack(len(meta_bytes)), meta_bytes, _U8.pack(len(arrays))]
    for name, array in arrays.items():
        array = np.asarray(array)
        dtype_field = _DTYPE_FIELDS.get(array.dtype)
        name_bytes = name.encode("utf-8")
        if (
            dtype_field is None
            or array.ndim > _MAX_NDIM
            or len(name_bytes) > 0xFF
            or max(array.shape, default=0) > 0xFFFFFFFF
        ):
            raise TransportError(
                f"cannot frame array {name!r} of dtype {array.dtype.str} and shape "
                f"{array.shape}: a frame carries {sorted(_DTYPES)} arrays of at "
                f"most {_MAX_NDIM} dimensions"
            )
        if not array.flags.c_contiguous:
            array = np.ascontiguousarray(array)
        parts += [
            _U8.pack(len(name_bytes)), name_bytes, dtype_field,
            _U8.pack(array.ndim), _DIMS[array.ndim].pack(*array.shape),
            array,  # bytes.join reads the C-order buffer directly
        ]
    return b"".join(parts)


def _truncated(offset: int) -> TransportError:
    return TransportError(f"malformed frame: truncated at byte {offset}")


def _text(view: memoryview, offset: int) -> Tuple[str, int]:
    """A ``u8``-length-prefixed UTF-8 string at ``offset``; returns it and its end."""
    end = offset + 1 + view[offset]
    if end > len(view):
        raise _truncated(offset)
    return str(view[offset + 1 : end], "utf-8"), end


def unpack_message(body: bytes) -> Tuple[str, Dict[str, Any], Dict[str, np.ndarray]]:
    """Inverse of :func:`pack_message`: a frame body to ``(kind, meta, arrays)``.

    Every malformed body — an unknown magic (including the bodies older
    protocol versions wrote), truncation anywhere, bad JSON, a missing
    ``kind``, an unlisted dtype, a shape whose byte count exceeds the bytes
    left, trailing bytes — raises :class:`TransportError`, so a fuzzed or
    corrupted frame fails identically on every consumer.  The arrays are
    owned and writable (copies, not views of ``body``).
    """
    view = memoryview(body)
    if view[: len(FRAME_MAGIC)] != FRAME_MAGIC:
        raise TransportError(
            f"malformed frame: unknown magic {bytes(view[:len(FRAME_MAGIC)])!r} "
            f"(expected {FRAME_MAGIC!r}); a body written by an older protocol "
            "version (npz or RFC1) is not readable"
        )
    try:
        offset = len(FRAME_MAGIC) + _U32.size
        end = offset + _U32.unpack_from(view, len(FRAME_MAGIC))[0]
        if end > len(view):
            raise _truncated(offset)
        meta = json.loads(str(view[offset:end], "utf-8"))
        if not isinstance(meta, dict) or not isinstance(meta.get("kind"), str):
            raise TransportError("malformed frame: meta must be a JSON object with a string 'kind'")
        kind = meta.pop("kind")
        arrays: Dict[str, np.ndarray] = {}
        offset = end + 1
        for _ in range(view[end]):
            name, offset = _text(view, offset)
            dtype_str, offset = _text(view, offset)
            dtype = _DTYPES.get(dtype_str)
            if dtype is None or name in arrays:
                raise TransportError(
                    f"malformed frame: array {name!r} of dtype {dtype_str!r} is not allowed"
                )
            ndim = view[offset]
            if ndim > _MAX_NDIM:
                raise TransportError(f"malformed frame: {ndim} dimensions")
            shape = _DIMS[ndim].unpack_from(view, offset + 1)
            offset += 1 + 4 * ndim
            # Python ints: a fixed-width product could wrap to a byte count
            # that "fits" the bytes left.
            count = math.prod(shape)
            end = offset + count * dtype.itemsize
            if end > len(view):
                raise _truncated(offset)
            arrays[name] = np.frombuffer(view, dtype, count, offset).reshape(shape).copy()
            offset = end
    except TransportError:
        raise
    except Exception as exc:
        raise TransportError(f"malformed frame: {exc}") from exc
    if offset != len(view):
        raise TransportError("malformed frame: trailing bytes after the last array")
    return kind, meta, arrays


def send_frame(sock: socket.socket, body: bytes, max_frame: Optional[int] = None) -> None:
    send_frames(sock, (body,), max_frame)


def send_frames(
    sock: socket.socket, bodies: Sequence[bytes], max_frame: Optional[int] = None
) -> None:
    """Send frames in one write: a burst of replies costs one system call."""
    cap = frame_cap() if max_frame is None else int(max_frame)
    parts = []
    for body in bodies:
        if len(body) > cap:
            # Enforced on both ends: failing here names the real problem
            # instead of the receiver dropping the connection and the sender
            # reporting a phantom worker death.
            raise TransportError(
                f"frame of {len(body)} bytes exceeds the {cap} cap; "
                "use more (smaller) shards, or raise REPRO_MAX_FRAME"
            )
        parts += (_LEN.pack(len(body)), body)
    try:
        sock.sendall(b"".join(parts))
    except OSError as exc:
        raise TransportError(f"connection lost while sending: {exc}") from exc


class FrameReader:
    """Receives length-prefixed frames from one socket, reading ahead.

    Each ``recv`` system call asks for up to :attr:`readahead` bytes, so a
    burst of pipelined frames costs one call instead of two per frame; bytes
    past the current frame stay buffered for the next :meth:`recv`.  A
    reader must therefore be the only reader of its socket from creation
    on.  The frame-size cap is checked on every length prefix.
    """

    #: Bytes asked for per ``recv`` call beyond what the current frame needs.
    readahead = 1 << 16

    def __init__(self, sock: socket.socket, max_frame: Optional[int] = None) -> None:
        self.sock = sock
        self._cap = frame_cap() if max_frame is None else int(max_frame)
        self._buffer = bytearray()

    def _missing(self) -> int:
        """Bytes still missing from the buffered frame (0: it is whole)."""
        if len(self._buffer) < _LEN.size:
            return _LEN.size - len(self._buffer)
        (length,) = _LEN.unpack_from(self._buffer)
        if length > self._cap:
            raise TransportError(f"frame of {length} bytes exceeds the {self._cap} cap")
        return max(0, _LEN.size + length - len(self._buffer))

    def has_frame(self) -> bool:
        """Whether a whole frame is already buffered (``recv`` needs no call)."""
        return not self._missing()

    def recv(
        self,
        stop_requested: Optional[Callable[[], bool]] = None,
        poll_interval: float = 0.2,
    ) -> Optional[bytes]:
        """The next frame body.

        With ``stop_requested`` the socket is read with a ``poll_interval``
        timeout, and the check runs between polls — while idle *and*
        mid-frame — so a stalled peer can never park a draining server's
        session thread; ``None`` is returned once it holds.  The socket's
        timeout is restored on exit.  Without it, a socket timeout or a
        disconnect raises :class:`TransportError`.
        """
        if stop_requested is not None and stop_requested():
            return None
        missing = self._missing()
        polling = bool(missing) and stop_requested is not None
        if polling:
            previous_timeout = self.sock.gettimeout()
            self.sock.settimeout(poll_interval)
        try:
            while missing:
                try:
                    chunk = self.sock.recv(min(max(missing, self.readahead), 1 << 20))
                except socket.timeout as exc:
                    if stop_requested is None:
                        raise TransportError(f"connection lost while receiving: {exc}") from exc
                    if stop_requested():
                        return None
                    continue
                except OSError as exc:
                    raise TransportError(f"connection lost while receiving: {exc}") from exc
                if not chunk:
                    raise TransportError(
                        "peer closed the connection mid-frame (worker died or was killed?)"
                    )
                self._buffer += chunk
                missing = self._missing()
                if missing and stop_requested is not None and stop_requested():
                    return None
        finally:
            if polling:
                try:
                    self.sock.settimeout(previous_timeout)
                except OSError:  # pragma: no cover - socket already torn down
                    pass
        end = _LEN.size + _LEN.unpack_from(self._buffer)[0]
        with memoryview(self._buffer) as view:
            body = bytes(view[_LEN.size : end])
        del self._buffer[:end]
        return body


class _ExactFrameReader(FrameReader):
    """Reads never past the frame's end: nothing is left buffered."""

    readahead = 0


def recv_frame(sock: socket.socket, max_frame: Optional[int] = None) -> bytes:
    """One frame body, read exactly (the socket holds nothing of the next)."""
    return _ExactFrameReader(sock, max_frame).recv()


# ---------------------------------------------------------------------- #
# Write-ahead-log record framing (serving-tier durability)
# ---------------------------------------------------------------------- #
#: WAL record header: the frame length prefix plus a CRC-32 of the body.
_WAL_HEADER = struct.Struct(">QI")


def wal_record(body: bytes, max_record: Optional[int] = None) -> bytes:
    """One append-only log record: ``u64 len | u32 crc32(body) | body``.

    The body is a regular frame body (:func:`pack_message`), so a WAL record
    is the wire layout with a checksum bolted on — the checksum is what lets
    :func:`read_wal_records` tell a record torn by a crash mid-append from an
    intact one.  Oversized bodies are rejected with the same cap as
    :func:`send_frame` (a corrupt length must never drive a huge allocation
    at replay, so the cap is enforced symmetrically at append).
    """
    cap = frame_cap() if max_record is None else int(max_record)
    if len(body) > cap:
        raise TransportError(
            f"WAL record of {len(body)} bytes exceeds the {cap} cap; "
            "ingest smaller batches, or raise REPRO_MAX_FRAME"
        )
    return _WAL_HEADER.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF) + body


def read_wal_records(
    data: bytes, max_record: Optional[int] = None
) -> Tuple[List[bytes], int]:
    """Every intact record in ``data``, plus the clean-prefix byte offset.

    Reads records front to back and stops at the first sign of damage: a
    truncated header, a length over the cap (a corrupt prefix), a truncated
    body, or a CRC mismatch.  Returns ``(bodies, clean_offset)`` where
    ``clean_offset`` is the end of the last intact record — everything past
    it is a torn tail the writer crashed in the middle of (or trailing
    corruption) and must be discarded: truncate the file to ``clean_offset``
    before appending again.  Records *before* the damage are exactly the
    appends that completed, so replaying them is exact.
    """
    cap = frame_cap() if max_record is None else int(max_record)
    bodies: List[bytes] = []
    offset = 0
    total = len(data)
    while offset + _WAL_HEADER.size <= total:
        length, crc = _WAL_HEADER.unpack_from(data, offset)
        if length > cap:
            break  # corrupt length prefix: nothing past it can be trusted
        end = offset + _WAL_HEADER.size + length
        if end > total:
            break  # torn tail: the append never completed
        body = data[offset + _WAL_HEADER.size : end]
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            break  # bit rot or a torn overwrite: drop from here on
        bodies.append(body)
        offset = end
    return bodies, offset


# ---------------------------------------------------------------------- #
# The threaded accept-loop skeleton
# ---------------------------------------------------------------------- #
class ThreadedFrameServer:
    """Accept-loop base class shared by the shard worker and the model server.

    Binds immediately (so ``port=0`` resolves to a real ephemeral port before
    :meth:`serve_forever` is entered — callers can read :attr:`address` right
    after construction), serves each connection on a daemon thread via the
    :meth:`handle_session` hook, and stops when :meth:`shutdown` closes the
    listening socket.

    With ``once``, the server exits as soon as every session accepted so far
    has finished (and at least one ran).  Sessions are *always* served on
    their own threads — a client opening several concurrent connections (a
    coordinator placing several shards on one worker, a fleet of serving
    clients) would otherwise deadlock against an inline handler.
    """

    #: How long :meth:`serve_forever` waits for each session thread on exit.
    session_join_timeout = 30.0

    def __init__(self, host: str = "127.0.0.1", port: int = 0, once: bool = False) -> None:
        self.once = bool(once)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self.host, self.port = self._sock.getsockname()[:2]
        self._closing = threading.Event()
        self._sessions: List[threading.Thread] = []
        self._accepted = 0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    def handle_session(self, conn: socket.socket) -> None:  # pragma: no cover
        """Serve one accepted connection (runs on its own daemon thread)."""
        raise NotImplementedError

    def _run_session(self, conn: socket.socket) -> None:
        try:
            self.handle_session(conn)
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    # ------------------------------------------------------------------ #
    def serve_forever(self) -> None:
        """Accept and serve sessions until :meth:`shutdown` (or ``once`` exit)."""
        # Poll the listening socket rather than blocking in accept(): closing
        # a socket does not reliably wake another thread's blocked accept()
        # (shutdown would stall), and with ``once`` the exit condition (all
        # accepted sessions finished) must be evaluated between accepts.
        try:
            try:
                self._sock.settimeout(0.2)
            except OSError:  # shutdown() already closed the listener
                self._closing.set()
            while not self._closing.is_set():
                try:
                    conn, _ = self._sock.accept()
                except socket.timeout:
                    # Drop finished session threads so a long-lived server
                    # does not retain one Thread per connection ever served.
                    self._sessions = [t for t in self._sessions if t.is_alive()]
                    if self.once and self._accepted and not self._sessions:
                        break
                    continue
                except OSError:
                    break  # listening socket closed by shutdown()
                thread = threading.Thread(
                    target=self._run_session, args=(conn,), daemon=True
                )
                thread.start()
                self._sessions.append(thread)
                self._accepted += 1
            for thread in self._sessions:
                thread.join(timeout=self.session_join_timeout)
        finally:
            self.shutdown()
            self._on_drained()

    def _on_drained(self) -> None:
        """Hook run after every session has been joined (subclass cleanup)."""

    def shutdown(self) -> None:
        """Stop accepting connections (idempotent); in-flight sessions finish."""
        self._closing.set()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass
