"""The long-lived model server: load once, serve ``predict``/``ingest`` forever.

:class:`ModelServer` is the serving tier the roadmap has been building toward
since PR 2: it loads a fitted clusterer from an ``.npz`` archive exactly once
(:func:`repro.persistence.load_model`), keeps it resident, and answers
requests over the shared frame codec (:mod:`repro.distributed.codec`), one
session thread per client connection (:class:`ThreadedFrameServer`).

Concurrency contract
--------------------
``predict`` is read-only and runs *concurrently* across sessions under a
shared read lock; ``ingest`` mutates the model (the estimator's exact
:class:`~repro.engine.state.EngineState` merge plus the ``labels_`` append)
and is *serialized* under the write lock, with writer preference so a steady
stream of predicts cannot starve an ingest.  Because every ingest is an exact
count merge, the served model is bit-identical to the same estimator fed the
same batches in the same order in one process — concurrency changes the
interleaving, never the arithmetic.  The assignment model's lazy mode/weight
cache is pre-warmed after load and after every ingest (while the write lock
is still held), so reader threads only ever see a fully-built cache.

Micro-batching (PR 7)
---------------------
``predict`` requests are routed through a coalescing queue: a batcher thread
drains up to ``max_batch_rows`` pending rows across *all* sessions (waiting
at most ``max_batch_delay_ms`` once the first row arrived; the default of 0
drains whatever is queued, so batches form naturally while the previous
kernel runs), stacks them, runs ONE engine assignment kernel under ONE read
lock acquisition, and scatters the per-request label slices back.  Row
assignment is row-independent, so the batched labels are **bit-identical**
to per-request predicts — batching changes the overhead, never the answer.
``max_batch_rows=0`` disables the queue and restores the per-request path.

Replication
-----------
With ``replica_of="host:port"`` the server starts as a *read replica*: it
fetches the primary's full model archive over a ``replicate`` stream, then
applies one exact delta per primary ingest batch (the primary's raw codes
and assigned labels, replayed via :meth:`BaseClusterer.replay_ingest` under
this server's write lock) — so replica reads observe exactly the primary's
post-batch states, never a torn one.  A replica answers ``predict``/``info``
and rejects ``ingest``; if the primary goes away it keeps serving its last
state and resyncs (full archive again) when the primary returns.  On the
primary side every open ``replicate`` session is a subscriber; a subscriber
that cannot keep up (bounded queue) is dropped and resyncs on reconnect.

Durability
----------
Snapshots write the model back to disk through ``save_model`` into a
temporary file in the target directory followed by an atomic ``os.replace``,
so a crash mid-snapshot can never leave a torn archive — readers of the
snapshot path always see either the previous or the new complete model.
Snapshots are triggered three ways: every ``snapshot_every`` ingest batches
(taken synchronously, still under the write lock), every
``snapshot_interval`` seconds (a background thread, under a read lock), and
once more during graceful drain if any ingest arrived since the last one.

With snapshots alone the tier is *write-behind*: ingests acknowledged after
the last snapshot and before a crash would be lost.  ``wal=True`` closes
that window with a write-ahead ingest log (PR 10).  Before an ingest batch
is applied, one CRC-checked record — the batch codes plus the labels this
server assigned — is appended to ``<snapshot_path>.wal``; only after the
append succeeds is the batch merged and acknowledged.  On startup, a server
finding WAL records newer than its snapshot replays them through
``replay_ingest`` — an exact count merge under the recorded labels — so the
recovered state is **bit-identical** to everything it acked (a final record
torn by the crash is detected by its CRC and dropped; it was never acked).
Each record carries the model's object count at append time, so records
already contained in the snapshot (a crash between the snapshot landing and
the log rotating) are recognised and skipped, never double-applied.

What ``--wal-sync`` guarantees per acked ingest:

* ``always`` — the record is ``fsync``'d before the batch is applied:
  durable against process *and* machine crashes.
* ``batch`` (default) — the record is flushed to the OS before the batch is
  applied: durable against a process crash (SIGKILL), lost only if the whole
  machine dies before the kernel writes it back.
* ``none`` — the record stays in the process's buffer: no extra guarantee
  over snapshots (the buffer flushes at rotation); fastest.

Every successful snapshot rotates the log (truncates it under the snapshot
mutex — the records are now contained in the archive), so the WAL stays
bounded by the snapshot cadence.  ``reload`` also truncates it: deltas
against the replaced model are meaningless, mirroring how delta subscribers
are severed (the reloaded state itself is durable from the next snapshot).

Shutdown drains gracefully: the listening socket closes first, idle sessions
notice via the interruptible receive and exit, in-flight requests (including
queued batcher items) finish and are answered, then the final snapshot lands.
"""

from __future__ import annotations

import os
import queue
import socket
import tempfile
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.base import BaseClusterer
from repro.distributed.codec import (
    FrameReader,
    ThreadedFrameServer,
    pack_message,
    parse_address,
    read_wal_records,
    recv_frame,
    send_frame,
    send_frames,
    unpack_message,
    wal_record,
)
from repro.distributed.transport import TransportError
from repro.persistence import load_model, save_model
from repro.serving.protocol import (
    REQUEST_KINDS,
    SERVICE_NAME,
    SERVING_PROTOCOL_VERSION,
    check_welcome,
    error_body,
    hello_body,
    request_tag,
)
from repro.utils.log import get_logger

__all__ = ["ReadWriteLock", "WriteAheadLog", "ModelServer", "serve_model"]

_logger = get_logger(__name__)

#: ``--wal-sync`` policies, weakest durability last (see module docs).
WAL_SYNC_POLICIES = ("always", "batch", "none")


class WriteAheadLog:
    """Append-only CRC-checked ingest log backing a :class:`ModelServer`.

    One record per ingest batch, in the :func:`wal_record` framing, appended
    *before* the batch is applied.  The caller serialises access (appends
    happen under the server's write lock, rotation under the snapshot mutex
    while at least a read lock is held, so the two never overlap).

    Parameters
    ----------
    path:
        The log file (``<snapshot_path>.wal``).  Opened for append; existing
        bytes are preserved — read them with :meth:`read` *before*
        constructing the writer and replay them through the model.
    sync:
        One of :data:`WAL_SYNC_POLICIES` — what each :meth:`append` does
        after writing the record: ``always`` flushes and ``fsync``s (durable
        against machine crash), ``batch`` flushes to the OS (durable against
        process crash), ``none`` leaves it buffered (no guarantee).
    """

    def __init__(self, path: Union[str, Path], sync: str = "batch") -> None:
        if sync not in WAL_SYNC_POLICIES:
            raise ValueError(
                f"wal_sync must be one of {WAL_SYNC_POLICIES}, got {sync!r}"
            )
        self.path = Path(path)
        self.sync = sync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "ab")
        #: Records appended (or found intact at open) in this log generation.
        self.records = 0
        #: Bytes of intact records currently in the file.
        self.size_bytes = self._file.tell()

    @staticmethod
    def read(path: Union[str, Path]) -> Tuple[List[bytes], int, int]:
        """Intact record bodies on disk: ``(bodies, clean_offset, torn_bytes)``.

        ``torn_bytes`` is the length of the tail past the last intact record
        — non-zero exactly when the previous writer crashed mid-append (that
        record was never acked) or the tail rotted.  Truncate to
        ``clean_offset`` (see :meth:`truncate_to`) before appending again.
        """
        try:
            raw = Path(path).read_bytes()
        except FileNotFoundError:
            return [], 0, 0
        bodies, clean = read_wal_records(raw)
        return bodies, clean, len(raw) - clean

    def truncate_to(self, offset: int) -> None:
        """Drop everything past ``offset`` (discarding a torn tail)."""
        self._file.flush()
        self._file.truncate(offset)
        self.size_bytes = offset

    def append(self, body: bytes) -> None:
        """Write one record and make it as durable as the sync policy says.

        Raises on any I/O failure (e.g. disk full) *before* the caller
        applies the batch — the append-before-apply discipline: a batch that
        could not be logged is never applied, so it is reported as an error
        and the client knows it was not ingested.
        """
        record = wal_record(body)
        self._file.write(record)
        if self.sync == "always":
            self._file.flush()
            os.fsync(self._file.fileno())
        elif self.sync == "batch":
            self._file.flush()
        self.records += 1
        self.size_bytes += len(record)

    def rotate(self) -> None:
        """Empty the log: its records are now contained in a landed snapshot.

        Flushes first so stale buffered bytes cannot resurface after the
        truncate, then cuts the file to zero.  Called with the snapshot
        mutex held, right after the snapshot's atomic ``os.replace`` — a
        crash between the two leaves stale records behind, which replay
        recognises by their recorded object counts and skips.
        """
        self._file.flush()
        self._file.truncate(0)
        if self.sync == "always":
            os.fsync(self._file.fileno())
        self.records = 0
        self.size_bytes = 0

    def close(self) -> None:
        try:
            self._file.flush()
            self._file.close()
        except OSError:  # pragma: no cover - best-effort at shutdown
            pass


class ReadWriteLock:
    """Readers-writer lock with writer preference.

    Any number of readers hold the lock together; a writer holds it alone.
    A *waiting* writer blocks new readers, so ingests get through a steady
    predict stream (at the cost of momentarily queueing reads — correct for
    a serving tier where writes are rare and must not starve).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._writing = False

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writing or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


class _SessionSink:
    """Per-session reply channel: one send lock, async-reply accounting.

    Responses to *tagged* (pipelined) requests are sent by the batcher
    thread while the session thread is already receiving the next request,
    so every send goes through one lock per connection; the outstanding
    counter lets the session thread wait for its in-flight replies before
    closing the socket at drain.
    """

    def __init__(self, conn: socket.socket) -> None:
        self.conn = conn
        self._send_lock = threading.Lock()
        self._cond = threading.Condition()
        self._outstanding = 0
        self.dead = False

    def send(self, *bodies: bytes) -> None:
        with self._send_lock:
            send_frames(self.conn, bodies)

    def send_quiet(self, *bodies: bytes) -> None:
        """Send from a shared thread: a dead session must not raise here."""
        try:
            self.send(*bodies)
        except (TransportError, OSError):
            self.dead = True

    def begin_async(self) -> None:
        with self._cond:
            self._outstanding += 1

    def end_async(self, n: int = 1) -> None:
        with self._cond:
            self._outstanding -= n
            if self._outstanding <= 0:
                self._cond.notify_all()

    def wait_async_drained(self, timeout: float) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: self._outstanding <= 0, timeout)


def _answers_body(items: List["_BatchItem"]) -> bytes:
    """One ``labels`` reply to several tagged predicts: ``rows[i]`` labels for ``tags[i]``."""
    return pack_message(
        "labels", None,
        labels=np.concatenate([item.labels for item in items]),
        tags=np.array([item.tag for item in items], dtype=np.int64),
        rows=np.array([len(item.labels) for item in items], dtype=np.int64),
    )


class _BatchItem:
    """One pending predict: its rows, and how to deliver the answer."""

    __slots__ = ("codes", "tag", "sink", "event", "labels", "error", "arrived")

    def __init__(
        self, codes: np.ndarray, tag: Optional[int], sink: Optional[_SessionSink]
    ) -> None:
        self.codes = codes
        self.tag = tag
        #: Set for pipelined requests: the batcher replies directly.  ``None``
        #: for strict request/response items: the session thread waits on
        #: ``event`` and sends the reply itself (preserving response order).
        self.sink = sink
        self.event = None if sink is not None else threading.Event()
        self.labels: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.arrived = time.monotonic()

    def reply(self) -> bytes:
        """The answer frame: the error, tagged like the request, or a strict
        item's labels (the batcher answers tagged labels with :func:`_answers_body`)."""
        if self.error is not None:
            return error_body(self.error, tag=self.tag)
        return pack_message("labels", {"n": int(self.labels.shape[0])}, labels=self.labels)


class _PredictBatcher:
    """Coalesce predicts across sessions into single engine kernel calls.

    One daemon thread drains the queue: it takes whole items until adding the
    next one would exceed ``max_rows`` (a single oversized item still runs
    alone — it is one kernel call anyway), optionally waits
    ``max_delay_s`` from the first item's arrival for more rows to coalesce,
    stacks the codes, runs ONE ``model.predict`` under ONE read-lock
    acquisition, and scatters the label slices back to the items.  At close
    (server drain) everything still queued is processed and answered before
    the thread exits; items submitted after close are rejected.
    """

    def __init__(self, server: "ModelServer", max_rows: int, max_delay_s: float) -> None:
        self._server = server
        self.max_rows = max_rows
        self.max_delay_s = max_delay_s
        self._cond = threading.Condition()
        self._items: deque = deque()
        self._queued_rows = 0
        self._closing = False
        self._thread: Optional[threading.Thread] = None
        # Trajectory counters (exposed through ModelServer.info()).
        self.batches_run = 0
        self.rows_run = 0
        self.largest_batch = 0

    def start(self) -> "_PredictBatcher":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def submit(self, item: _BatchItem) -> None:
        with self._cond:
            if self._closing:
                raise RuntimeError("server is draining; predict not accepted")
            self._items.append(item)
            self._queued_rows += item.codes.shape[0]
            self._cond.notify_all()

    def close(self, timeout: float = 10.0) -> None:
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)

    def _run(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._execute(batch)

    def _next_batch(self) -> Optional[List[_BatchItem]]:
        with self._cond:
            while not self._items and not self._closing:
                self._cond.wait(0.2)
            if not self._items:
                return None  # closing and fully drained
            if self.max_delay_s > 0 and not self._closing:
                deadline = self._items[0].arrived + self.max_delay_s
                while self._queued_rows < self.max_rows and not self._closing:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
            batch: List[_BatchItem] = []
            rows = 0
            while self._items and (
                not batch or rows + self._items[0].codes.shape[0] <= self.max_rows
            ):
                item = self._items.popleft()
                self._queued_rows -= item.codes.shape[0]
                batch.append(item)
                rows += item.codes.shape[0]
            return batch

    def _execute(self, batch: List[_BatchItem]) -> None:
        try:
            if len(batch) == 1:
                codes = batch[0].codes
            else:
                codes = np.concatenate([item.codes for item in batch], axis=0)
            # ONE read-lock acquisition, ONE assignment kernel for the whole
            # coalesced batch; rows are independent, so slicing the labels
            # back out is bit-identical to per-request predicts.
            with self._server._lock.read():
                labels = self._server.model.predict(codes)
            offset = 0
            for item in batch:
                n = item.codes.shape[0]
                item.labels = labels[offset : offset + n]
                offset += n
            self.batches_run += 1
            self.rows_run += int(codes.shape[0])
            self.largest_batch = max(self.largest_batch, int(codes.shape[0]))
        except Exception as exc:  # noqa: BLE001 - delivered per item
            for item in batch:
                item.error = exc
        # Strict items are answered by their session threads, in order;
        # a session's pipelined items by one frame and one write.
        answered: Dict[_SessionSink, List[_BatchItem]] = {}
        for item in batch:
            if item.sink is None:
                item.event.set()
            else:
                answered.setdefault(item.sink, []).append(item)
        for sink, items in answered.items():
            if items[0].error is not None:  # the whole batch failed
                sink.send_quiet(*(item.reply() for item in items))
            else:
                sink.send_quiet(_answers_body(items))
            sink.end_async(len(items))


class _Subscriber:
    """One connected replica: a bounded delta queue on the primary."""

    def __init__(self, maxsize: int = 1024) -> None:
        self.queue: "queue.Queue" = queue.Queue(maxsize=maxsize)
        self.broken = False

    def put(self, payload: Tuple[int, np.ndarray, np.ndarray]) -> None:
        if self.broken:
            # Severed (queue overflow, or a model reload made the delta
            # stream meaningless): deltas for the new state must not reach a
            # replica that still holds the old one.
            return
        try:
            self.queue.put_nowait(payload)
        except queue.Full:
            # A replica that cannot keep up is dropped; it detects the gap
            # (or the closed session) and resyncs from the full archive.
            self.broken = True


class ModelServer(ThreadedFrameServer):
    """Serve a fitted clusterer over TCP: concurrent reads, serialized writes.

    Parameters
    ----------
    model:
        A fitted :class:`BaseClusterer`, or a path to an ``.npz`` archive
        written by ``save_model`` (loaded once, here).  Must be ``None`` when
        ``replica_of`` is given — a replica's model comes from its primary.
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (read
        :attr:`address` after construction).
    snapshot_path:
        Where snapshots land.  Defaults to the model archive path when the
        model was given as a path; with an in-memory model it must be set
        explicitly for snapshots to be available.
    snapshot_every:
        Take a snapshot after every N ``ingest`` batches (0 disables).
    snapshot_interval:
        Also snapshot every this-many seconds while dirty (``None``
        disables; 0 is rejected, not silently treated as disabled).
    wal:
        Run a write-ahead ingest log at ``<snapshot_path>.wal`` (see the
        module docs): every ingest batch is logged *before* it is applied,
        and on startup any records newer than the snapshot are replayed so
        the recovered state is bit-identical to everything this server
        acked.  Requires a snapshot path; rejected on replicas (their state
        comes from the primary — run the WAL there).
    wal_sync:
        Durability of each logged record: ``"always"`` (fsync — survives
        machine crash), ``"batch"`` (flush to OS — survives process crash,
        the default) or ``"none"`` (buffered — snapshots only).
    max_batch_rows:
        Predict micro-batching: coalesce queued predicts into kernel calls of
        at most this many rows (0 disables batching entirely).
    max_batch_delay_ms:
        Extra milliseconds the batcher may wait from the first queued row to
        build a fuller batch.  0 (default) drains whatever is queued —
        batches then form naturally while the previous kernel runs.
    replica_of:
        ``"host:port"`` of a primary server: start as a read replica (see
        module docs).  ``predict``/``info``/``snapshot`` are served,
        ``ingest`` is rejected.
    connect_timeout:
        Replica only: seconds to keep retrying the initial sync connection.
    once:
        Exit ``serve_forever`` when every session accepted so far has
        finished (single-client demos and tests).
    """

    #: Per-session socket timeout: a peer that stops reading its replies (or
    #: never finishes its handshake) is dropped after this long instead of
    #: parking a thread — or the batcher — forever.
    session_send_timeout = 60.0

    def __init__(
        self,
        model: Union[BaseClusterer, str, Path, None],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        snapshot_path: Union[str, Path, None] = None,
        snapshot_every: int = 0,
        snapshot_interval: Optional[float] = None,
        wal: bool = False,
        wal_sync: str = "batch",
        max_batch_rows: int = 4096,
        max_batch_delay_ms: float = 0.0,
        replica_of: Optional[str] = None,
        connect_timeout: float = 10.0,
        once: bool = False,
    ) -> None:
        self.replica_of = replica_of
        self.replica_seq = -1
        self._replication_sock: Optional[socket.socket] = None
        if replica_of is not None:
            if model is not None:
                raise ValueError(
                    "a replica's model comes from its primary: pass model=None "
                    "with replica_of="
                )
            parse_address(replica_of)  # fail fast on a malformed address
            # Fetch the initial full sync before binding: if the primary is
            # unreachable the constructor fails instead of listening with no
            # model to serve.  The stream socket is kept open so no delta
            # published between sync and serve_forever can be missed.
            self._replication_sock, model, self.replica_seq = (
                self._open_replication_stream(connect_timeout)
            )
        elif model is None:
            raise TypeError("ModelServer needs a model (or replica_of=)")

        super().__init__(host, port, once=once)
        if isinstance(model, (str, Path)):
            self.model_path: Optional[Path] = Path(model)
            model = load_model(model)
        else:
            self.model_path = None
        if not isinstance(model, BaseClusterer):
            raise TypeError(
                f"ModelServer expects a fitted clusterer or a model path, "
                f"got {type(model).__name__}"
            )
        model._check_fitted()
        self.model = model
        self.snapshot_path = (
            Path(snapshot_path) if snapshot_path is not None else self.model_path
        )
        self.snapshot_every = int(snapshot_every or 0)
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        # `if snapshot_interval` would silently coerce an explicit 0 to
        # "disabled", bypassing the positivity check below — only None
        # means disabled (the PR 10 validation bugfix).
        self.snapshot_interval = (
            None if snapshot_interval is None else float(snapshot_interval)
        )
        if self.snapshot_interval is not None and self.snapshot_interval <= 0:
            raise ValueError("snapshot_interval must be positive")
        if (self.snapshot_every or self.snapshot_interval) and self.snapshot_path is None:
            raise ValueError(
                "snapshots are enabled but there is nowhere to write them: "
                "pass snapshot_path= (or serve from a model file path)"
            )
        self.wal_enabled = bool(wal)
        self.wal_sync = str(wal_sync)
        if self.wal_sync not in WAL_SYNC_POLICIES:
            raise ValueError(
                f"wal_sync must be one of {WAL_SYNC_POLICIES}, got {wal_sync!r}"
            )
        if self.wal_enabled:
            if self.is_replica:
                raise ValueError(
                    "a read replica cannot run a write-ahead log: its state "
                    "comes from the primary (run the WAL there)"
                )
            if self.snapshot_path is None:
                raise ValueError(
                    "wal=True needs a snapshot to pair with: pass "
                    "snapshot_path= (or serve from a model file path)"
                )
        self.max_batch_rows = int(max_batch_rows or 0)
        if self.max_batch_rows < 0:
            raise ValueError("max_batch_rows must be >= 0")
        self.max_batch_delay_ms = float(max_batch_delay_ms or 0.0)
        if self.max_batch_delay_ms < 0:
            raise ValueError("max_batch_delay_ms must be >= 0")
        self.connect_timeout = float(connect_timeout)

        self._lock = ReadWriteLock()
        self._snapshot_mutex = threading.Lock()
        self._serve_thread: Optional[threading.Thread] = None
        self._snapshot_thread: Optional[threading.Thread] = None
        self._replication_thread: Optional[threading.Thread] = None
        self._batcher: Optional[_PredictBatcher] = None
        self._subscribers: List[_Subscriber] = []
        self._subscribers_lock = threading.Lock()
        self.drained = threading.Event()
        self.ingested_batches = 0
        self.ingested_objects = 0
        self.snapshots_taken = 0
        self.snapshot_failures = 0
        self.reloads = 0
        self._ingests_since_snapshot = 0
        self._wal: Optional[WriteAheadLog] = None
        self.wal_replayed_batches = 0
        self.wal_replayed_objects = 0
        if self.wal_enabled:
            # Replay-before-serve: records newer than the snapshot we just
            # loaded are exactly the ingests acked after it — apply them
            # before the first client can observe (or mutate) the state.
            self._wal = self._recover_wal()
        # Pre-warm the lazy mode/weight cache so concurrent reader threads
        # never race on filling it (readers share the read lock).
        if self.model.assignment_model_ is not None:
            _ = self.model.assignment_model_.modes

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def is_replica(self) -> bool:
        return self.replica_of is not None

    @property
    def wal_path(self) -> Optional[Path]:
        """Where the write-ahead log lives (``None`` when disabled)."""
        if not self.wal_enabled or self.snapshot_path is None:
            return None
        return self.snapshot_path.with_name(self.snapshot_path.name + ".wal")

    def _recover_wal(self) -> WriteAheadLog:
        """Replay on-disk WAL records through the loaded model, then open the
        log for appending (constructor only: no readers exist yet).

        Exactness rests on three rules: a record whose recorded object count
        (``base_n``) is *below* the model's is already contained in the
        loaded snapshot (a crash landed between the snapshot's ``os.replace``
        and the log rotation) and is skipped, never double-applied; a record
        at the model's count is replayed through ``replay_ingest`` — the
        same exact count merge a live ingest performs; and a record *above*
        the count means the snapshot and log are not a pair (restored from
        different backups?), which fails loudly rather than recovering a
        wrong state.  A torn tail (CRC/truncation, detected by
        ``read_wal_records``) is a record that was never acked: dropped and
        truncated away so new appends extend a clean log.
        """
        path = self.wal_path
        bodies, clean_offset, torn_bytes = WriteAheadLog.read(path)
        applied = objects = 0
        for body in bodies:
            try:
                kind, meta, arrays = unpack_message(body)
            except TransportError as exc:
                raise TransportError(
                    f"{path}: cannot decode a log record ({exc}); a WAL written "
                    "by an older version must be drained first — restart that "
                    "version and take a snapshot (which empties the log) "
                    "before upgrading"
                ) from exc
            if kind != "wal" or "base_n" not in meta:
                raise TransportError(
                    f"{path}: malformed log record (kind {kind!r}); refusing "
                    "to recover from a log this server cannot have written"
                )
            base_n = int(meta["base_n"])
            have_n = int(self.model.labels_.shape[0])
            if base_n < have_n:
                continue  # already contained in the snapshot we loaded
            if base_n > have_n:
                raise TransportError(
                    f"{path}: log record expects a model of {base_n} objects "
                    f"but the loaded snapshot has {have_n} — snapshot and WAL "
                    "are not a pair; refusing to recover a wrong state"
                )
            self.model.replay_ingest(arrays["codes"], arrays["labels"])
            applied += 1
            objects += int(arrays["labels"].shape[0])
        if torn_bytes:
            _logger.warning(
                "dropped a torn %d-byte WAL tail (that record was never "
                "acknowledged)", torn_bytes,
            )
        wal = WriteAheadLog(path, self.wal_sync)
        if torn_bytes:
            wal.truncate_to(clean_offset)
        wal.records = len(bodies)
        wal.size_bytes = clean_offset
        self.wal_replayed_batches = applied
        self.wal_replayed_objects = objects
        # Replayed batches count as ingested (they were acked) and are not
        # yet in the snapshot on disk, so the next snapshot trigger (or the
        # drain snapshot) persists them and rotates the log.
        self.ingested_batches += applied
        self.ingested_objects += objects
        self._ingests_since_snapshot += applied
        return wal

    def warm_up(self) -> None:
        """Pre-pay the first request's cost: the lazily built assignment cache.

        Pushes one probe row through the full predict path, so the first
        client request never pays the cache build.
        """
        assignment = self.model.assignment_model_
        if assignment is not None:
            with self._lock.read():
                self.model.predict(assignment.modes[:1])

    def serve_forever(self) -> None:
        if self.max_batch_rows:
            self._batcher = _PredictBatcher(
                self, self.max_batch_rows, self.max_batch_delay_ms / 1000.0
            ).start()
        if self.snapshot_interval is not None:
            self._snapshot_thread = threading.Thread(
                target=self._periodic_snapshots, daemon=True
            )
            self._snapshot_thread.start()
        if self.is_replica:
            self._replication_thread = threading.Thread(
                target=self._replication_loop, daemon=True
            )
            self._replication_thread.start()
        super().serve_forever()

    def start(self) -> "ModelServer":
        """Run :meth:`serve_forever` on a daemon thread; returns self (bound)."""
        self._serve_thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._serve_thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> bool:
        """Initiate graceful drain and wait for it; True if fully drained."""
        self.shutdown()
        thread = self._serve_thread
        if thread is not None:
            thread.join(timeout)
        return self.drained.wait(timeout=max(0.0, timeout))

    def _on_drained(self) -> None:
        batcher = self._batcher
        if batcher is not None:
            batcher.close(timeout=10.0)
        for thread in (self._snapshot_thread, self._replication_thread):
            if thread is not None:
                thread.join(timeout=5.0)
        sock = self._replication_sock
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        if self.snapshot_path is not None and self._ingests_since_snapshot:
            try:
                with self._lock.read():
                    self._write_snapshot()
            except Exception as exc:  # noqa: BLE001 - drain must complete
                self.snapshot_failures += 1
                _logger.warning("final snapshot failed: %s", exc)
        if self._wal is not None:
            # After the drain snapshot the log is rotated (empty); if that
            # snapshot failed, the records stay behind for the next start
            # to replay — acked ingests survive an ugly shutdown too.
            self._wal.close()
        self.drained.set()

    def _periodic_snapshots(self) -> None:
        while not self._closing.wait(self.snapshot_interval):
            try:
                with self._lock.read():
                    if self._ingests_since_snapshot:
                        self._write_snapshot()
            except Exception as exc:  # noqa: BLE001 - keep the timer alive
                self.snapshot_failures += 1
                _logger.warning("periodic snapshot failed: %s", exc)

    # ------------------------------------------------------------------ #
    # Sessions
    # ------------------------------------------------------------------ #
    def handle_session(self, conn: socket.socket) -> None:
        sink = _SessionSink(conn)
        reader = FrameReader(conn)
        try:
            body = reader.recv(self._closing.is_set)
            if body is None:
                return  # draining before the handshake arrived
            kind, meta, arrays = unpack_message(body)
            if kind != "hello" or meta.get("service") != SERVICE_NAME:
                sink.send(error_body(
                    TransportError(f"expected a {SERVICE_NAME} hello, got {kind!r}"),
                    include_traceback=False,
                ))
                return
            if meta.get("protocol") != SERVING_PROTOCOL_VERSION:
                sink.send(error_body(
                    TransportError(
                        f"protocol {meta.get('protocol')!r} != {SERVING_PROTOCOL_VERSION}"
                    ),
                    include_traceback=False,
                ))
                return
            conn.settimeout(self.session_send_timeout)
            sink.send(pack_message("welcome", self.info()))
            while not sink.dead:
                body = reader.recv(self._closing.is_set)
                if body is None:
                    return  # draining; the client reconnects elsewhere
                kind, meta, arrays = unpack_message(body)
                tag = request_tag(meta)  # malformed tag ends the session
                if kind == "shutdown":
                    sink.send(pack_message("ok", {"draining": True}))
                    self.shutdown()
                    return
                if kind == "replicate":
                    self._serve_replication(conn, meta)
                    return
                if kind == "predict" and self._batcher is not None:
                    self._submit_predict(sink, arrays, tag)
                    continue
                try:
                    reply = self._dispatch(kind, arrays, tag, meta)
                except TransportError:
                    raise  # framing/stream integrity broke: end the session
                except Exception as exc:  # report, keep serving this client
                    reply = error_body(exc, tag=tag)
                sink.send(reply)
        except TransportError:
            pass  # disconnect or malformed frame; the client sees its own error
        except Exception:
            pass  # adversarial payloads must never kill the server
        finally:
            # Answer in-flight batched predicts before the socket closes, so
            # a drain never swallows a request the server already accepted.
            sink.wait_async_drained(timeout=10.0)

    def _submit_predict(
        self, sink: _SessionSink, arrays: Dict[str, np.ndarray], tag: Optional[int]
    ) -> None:
        """Validate and enqueue one predict; replies with an error frame on
        bad input (batch members must be clean before they are stacked)."""
        try:
            codes = np.ascontiguousarray(arrays["codes"], dtype=np.int64)
            assignment = self.model.assignment_model_
            if assignment is None:
                raise RuntimeError("served model has no assignment model")
            d = assignment.n_features
            if codes.ndim != 2 or codes.shape[1] != d:
                raise ValueError(
                    f"codes must be 2-d with {d} features, got shape {codes.shape}"
                )
        except Exception as exc:  # noqa: BLE001 - reported to this client
            sink.send(error_body(exc, tag=tag))
            return
        item = _BatchItem(codes, tag, sink if tag is not None else None)
        if item.sink is not None:
            sink.begin_async()
        try:
            self._batcher.submit(item)
        except RuntimeError as exc:  # draining: queue no longer accepts work
            if item.sink is not None:
                sink.end_async()
            sink.send(error_body(exc, tag=tag))
            return
        if item.sink is None:
            # Strict request/response: wait for the batch, reply in order.
            while not item.event.wait(1.0):
                thread = self._batcher._thread
                if thread is not None and not thread.is_alive():
                    item.error = RuntimeError("predict batcher exited")
                    break
            sink.send(item.reply())

    def _dispatch(
        self,
        kind: str,
        arrays: Dict[str, np.ndarray],
        tag: Optional[int] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> bytes:
        extra = {} if tag is None else {"tag": tag}
        if kind == "predict":
            codes = np.asarray(arrays["codes"], dtype=np.int64)
            with self._lock.read():
                labels = self.model.predict(codes)
            return pack_message("labels", {"n": int(labels.shape[0]), **extra}, labels=labels)
        if kind == "ingest":
            if self.is_replica:
                raise RuntimeError(
                    f"this server is a read replica of {self.replica_of}; "
                    "ingest on the primary"
                )
            codes = np.asarray(arrays["codes"], dtype=np.int64)
            with self._lock.write():
                if self._wal is not None:
                    # Append-before-apply: assign the batch exactly as
                    # `ingest` would (`assign` is the same coerce + distance
                    # kernel), log codes + labels, and only then fold it in
                    # via `replay_ingest` — the identical count merge, so a
                    # recovery that replays this record lands bit-identical
                    # to the state acked here.  A failed append (disk full)
                    # raises before anything is applied: the client gets an
                    # error for a batch that truly was not ingested.
                    labels = self.model.assignment_model_.assign(codes)
                    self._wal.append(pack_message(
                        "wal",
                        {
                            "seq": self.ingested_batches + 1,
                            "base_n": int(self.model.labels_.shape[0]),
                        },
                        codes=codes,
                        labels=labels,
                    ))
                    self.model.replay_ingest(codes, labels)
                else:
                    labels = self.model.ingest(codes)
                self.ingested_batches += 1
                self.ingested_objects += int(labels.shape[0])
                self._ingests_since_snapshot += 1
                # Re-warm the cache before readers come back.
                _ = self.model.assignment_model_.modes
                self._publish_delta(codes, labels)
                snapshot_taken = False
                if (
                    self.snapshot_every
                    and self._ingests_since_snapshot >= self.snapshot_every
                ):
                    # The batch is applied and its delta published; a
                    # snapshot failure past this point must not turn into an
                    # error frame — a client that never auto-replays would
                    # conclude an ingest that actually succeeded had failed.
                    # Ack with the applied labels; report the snapshot
                    # problem out-of-band (the PR 10 ack-semantics bugfix).
                    try:
                        self._write_snapshot()
                        snapshot_taken = True
                    except Exception as exc:  # noqa: BLE001 - acked anyway
                        self.snapshot_failures += 1
                        _logger.warning(
                            "post-ingest snapshot failed (the batch was "
                            "applied and is acknowledged): %s", exc,
                        )
            return pack_message(
                "labels",
                {"n": int(labels.shape[0]), "snapshot_taken": snapshot_taken, **extra},
                labels=labels,
            )
        if kind == "info":
            with self._lock.read():
                return pack_message("info", {**self.info(), **extra})
        if kind == "snapshot":
            with self._lock.read():
                path = self._write_snapshot()
            return pack_message("snapshot", {"path": str(path), **extra})
        if kind == "reload":
            if self.is_replica:
                raise RuntimeError(
                    f"this server is a read replica of {self.replica_of}; "
                    "reload on the primary (replicas resync from it)"
                )
            path = (meta or {}).get("path") or self.model_path
            if path is None:
                raise ValueError(
                    "reload needs a path: pass one in the request meta (or "
                    "serve from a model file path)"
                )
            path = Path(path)
            # Load and validate OUTSIDE the write lock: a slow or corrupt
            # archive must not stall every predict, and a failed load leaves
            # the served model untouched.
            model = load_model(path)
            model._check_fitted()
            with self._lock.write():
                self.model = model
                self.reloads += 1
                # The archive on disk may diverge from snapshot_path; mark
                # dirty so the next snapshot persists the reloaded state.
                self._ingests_since_snapshot += 1
                # Readers must only ever see a fully-built cache.
                if model.assignment_model_ is not None:
                    _ = model.assignment_model_.modes
                # Sever every delta subscriber: deltas against the old model
                # are meaningless now.  Each replica's session ends and it
                # resyncs from the full (reloaded) archive on reconnect.
                with self._subscribers_lock:
                    for subscriber in self._subscribers:
                        subscriber.broken = True
                # The WAL's records are deltas against the old model too:
                # truncate, mirroring the subscriber sever.  The reloaded
                # state is durable from the next snapshot (marked dirty
                # above); until it lands, recovery restores the snapshot.
                if self._wal is not None:
                    with self._snapshot_mutex:
                        self._wal.rotate()
            return pack_message(
                "reloaded",
                {
                    "path": str(path),
                    "n_clusters": int(model.n_clusters_),
                    "reloads": int(self.reloads),
                    **extra,
                },
            )
        raise ValueError(
            f"unknown request kind {kind!r}; this server speaks "
            + ", ".join(REQUEST_KINDS)
        )

    # ------------------------------------------------------------------ #
    # Replication: primary side (publish) and replica side (apply)
    # ------------------------------------------------------------------ #
    def _publish_delta(self, codes: np.ndarray, labels: np.ndarray) -> None:
        """Fan one applied ingest batch out to subscribers (write lock held)."""
        if not self._subscribers:
            return
        payload = (self.ingested_batches, codes, labels)
        with self._subscribers_lock:
            for subscriber in self._subscribers:
                subscriber.put(payload)

    def _model_archive_bytes(self) -> bytes:
        """The current model as ``.npz`` archive bytes (caller holds a lock)."""
        fd, tmp = tempfile.mkstemp(prefix="repro-sync-", suffix=".npz")
        os.close(fd)
        try:
            save_model(self.model, tmp)
            with open(tmp, "rb") as handle:
                return handle.read()
        finally:
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover
                pass

    def _serve_replication(self, conn: socket.socket, meta: Dict[str, Any]) -> None:
        """Turn this session into a one-way sync + delta stream (primary)."""
        subscriber = _Subscriber()
        # The write lock makes (archive, seq, registration) atomic against a
        # racing ingest: every batch is either in the shipped archive or in
        # the subscriber's queue, never both, never neither.
        with self._lock.write():
            archive = self._model_archive_bytes()
            seq = self.ingested_batches
            with self._subscribers_lock:
                self._subscribers.append(subscriber)
        try:
            send_frame(conn, pack_message(
                "sync", {"seq": seq},
                archive=np.frombuffer(archive, dtype=np.uint8),
            ))
            while not self._closing.is_set() and not subscriber.broken:
                try:
                    delta_seq, codes, labels = subscriber.queue.get(timeout=0.2)
                except queue.Empty:
                    continue
                send_frame(conn, pack_message(
                    "delta", {"seq": delta_seq}, codes=codes, labels=labels
                ))
        except (TransportError, OSError):
            pass  # replica went away; it resyncs on reconnect
        finally:
            with self._subscribers_lock:
                if subscriber in self._subscribers:
                    self._subscribers.remove(subscriber)

    def _open_replication_stream(
        self, timeout: float
    ) -> Tuple[socket.socket, BaseClusterer, int]:
        """Connect to the primary and fetch the full sync (replica side)."""
        host, port = parse_address(self.replica_of)
        # The constructor runs the initial sync before super().__init__, so
        # there is no _closing event yet; reconnects have one and use it to
        # abort promptly on drain.
        closing = getattr(self, "_closing", None)
        deadline = time.monotonic() + timeout
        attempt = 0
        while True:
            if closing is not None and closing.is_set():
                raise TransportError("server is draining")
            try:
                sock = socket.create_connection(
                    (host, port), timeout=max(0.1, deadline - time.monotonic())
                )
                break
            except OSError as exc:
                delay = min(0.1 * (2 ** attempt), 2.0)
                attempt += 1
                if time.monotonic() + delay >= deadline:
                    raise TransportError(
                        f"cannot reach primary at {self.replica_of}: {exc}"
                    ) from exc
                if closing is not None:
                    if closing.wait(delay):
                        raise TransportError("server is draining")
                else:
                    time.sleep(delay)
        try:
            sock.settimeout(60.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            send_frame(sock, hello_body())
            kind, meta, _ = unpack_message(recv_frame(sock))
            check_welcome(kind, meta, self.replica_of)
            send_frame(sock, pack_message("replicate", {"seq": -1}))
            kind, meta, arrays = unpack_message(recv_frame(sock))
            if kind != "sync":
                raise TransportError(
                    f"primary at {self.replica_of} answered replicate with {kind!r}"
                )
            model = self._load_archive_bytes(arrays["archive"].tobytes())
            sock.settimeout(None)
            return sock, model, int(meta["seq"])
        except BaseException:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
            raise

    @staticmethod
    def _load_archive_bytes(archive: bytes) -> BaseClusterer:
        fd, tmp = tempfile.mkstemp(prefix="repro-replica-", suffix=".npz")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(archive)
            return load_model(tmp)
        finally:
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover
                pass

    def _replication_loop(self) -> None:
        """Replica: apply the primary's delta stream; resync on any break."""
        sock = self._replication_sock
        self._replication_sock = None
        reader = None if sock is None else FrameReader(sock)
        while not self._closing.is_set():
            try:
                if sock is None:
                    sock, model, seq = self._open_replication_stream(self.connect_timeout)
                    reader = FrameReader(sock)
                    with self._lock.write():
                        self.model = model
                        self.replica_seq = seq
                        if model.assignment_model_ is not None:
                            _ = model.assignment_model_.modes
                body = reader.recv(self._closing.is_set)
                if body is None:
                    break  # draining
                kind, meta, arrays = unpack_message(body)
                if kind != "delta":
                    raise TransportError(
                        f"replication stream sent {kind!r}, expected 'delta'"
                    )
                seq = int(meta["seq"])
                if seq != self.replica_seq + 1:
                    raise TransportError(
                        f"replication gap: have {self.replica_seq}, got {seq}"
                    )
                with self._lock.write():
                    self.model.replay_ingest(arrays["codes"], arrays["labels"])
                    # Readers must only ever see a fully-built cache.
                    _ = self.model.assignment_model_.modes
                    self.replica_seq = seq
            except (TransportError, OSError, KeyError, ValueError):
                # Primary gone or stream corrupt: keep serving the last good
                # state, retry with a full resync until drained.
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:  # pragma: no cover
                        pass
                    sock = None
                if self._closing.wait(0.5):
                    break
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    def info(self) -> Dict[str, Any]:
        """JSON-serialisable server/model facts (the welcome/info meta)."""
        assignment = self.model.assignment_model_
        batcher = self._batcher
        return {
            "protocol": SERVING_PROTOCOL_VERSION,
            "service": SERVICE_NAME,
            "role": "replica" if self.is_replica else "primary",
            "clusterer": type(self.model).__name__,
            "n_clusters": int(self.model.n_clusters_),
            "n_features": None if assignment is None else int(assignment.n_features),
            "n_objects": int(self.model.labels_.shape[0]),
            "ingested_batches": int(self.ingested_batches),
            "ingested_objects": int(self.ingested_objects),
            "snapshots_taken": int(self.snapshots_taken),
            "snapshot_failures": int(self.snapshot_failures),
            "reloads": int(self.reloads),
            "wal": bool(self.wal_enabled),
            "wal_path": None if self.wal_path is None else str(self.wal_path),
            "wal_sync": self.wal_sync if self.wal_enabled else None,
            "wal_records": 0 if self._wal is None else int(self._wal.records),
            "wal_bytes": 0 if self._wal is None else int(self._wal.size_bytes),
            "wal_replayed_batches": int(self.wal_replayed_batches),
            "wal_replayed_objects": int(self.wal_replayed_objects),
            "snapshot_path": None if self.snapshot_path is None else str(self.snapshot_path),
            "model_path": None if self.model_path is None else str(self.model_path),
            "max_batch_rows": int(self.max_batch_rows),
            "max_batch_delay_ms": float(self.max_batch_delay_ms),
            "predict_batches": 0 if batcher is None else int(batcher.batches_run),
            "predict_rows_batched": 0 if batcher is None else int(batcher.rows_run),
            "largest_predict_batch": 0 if batcher is None else int(batcher.largest_batch),
            "replica_of": self.replica_of,
            "replica_seq": int(self.replica_seq),
            "replicas_connected": len(self._subscribers),
        }

    def _write_snapshot(self) -> Path:
        """Atomically persist the model (caller holds the read or write lock)."""
        if self.snapshot_path is None:
            raise RuntimeError(
                "no snapshot path configured: pass snapshot_path= (or serve "
                "from a model file path)"
            )
        with self._snapshot_mutex:
            target = self.snapshot_path
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(target.parent), prefix=target.name + ".", suffix=".tmp"
            )
            os.close(fd)
            try:
                save_model(self.model, tmp)
                os.replace(tmp, target)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:  # pragma: no cover - already replaced/removed
                    pass
                raise
            # The snapshot now contains every logged batch: rotate the WAL
            # so it stays bounded by the snapshot cadence.  A crash between
            # the replace above and this truncate leaves stale records
            # behind, which replay recognises (base_n below the snapshot's
            # object count) and skips.
            if self._wal is not None:
                self._wal.rotate()
            self.snapshots_taken += 1
            self._ingests_since_snapshot = 0
        return target


def serve_model(
    model: Union[BaseClusterer, str, Path, None],
    listen: str = "127.0.0.1:0",
    **kwargs: Any,
) -> ModelServer:
    """Start a :class:`ModelServer` on a daemon thread; returns it (bound).

    The blocking equivalent — what ``repro serve`` runs — is
    ``ModelServer(model, host, port, ...).serve_forever()``.
    """
    host, port = parse_address(listen)
    return ModelServer(model, host, port, **kwargs).start()
