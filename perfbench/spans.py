"""In-memory span tracing for the benchmark's traced runs.

A :class:`Tracer` records one span per call at the layer boundaries of
``repro`` — name, start, end, parent span, trace id and a few computed
attributes (rows, bytes) — and keeps them in memory until :meth:`dump`.
:func:`install` wraps the boundary functions in the current process: class
methods on their class, module functions at every name a caller binds
(``repro.serving.server.pack_message`` as well as the codec's own).  The
benchmark process, and every ``repro worker`` / ``repro serve`` subprocess
started through ``launch.py``, install the same wrappers and dump their spans
to one JSON-lines file each; :func:`load` merges them and
:func:`layer_metrics` turns them into the per-layer metrics.

Timestamps come from :func:`time.perf_counter`, which on Linux is the
system-wide monotonic clock, so spans of different processes share a time
axis and can be cut by the benchmark's phase windows.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

clock = time.perf_counter


class Tracer:
    """Span recorder for one process (thread-safe; spans stay in memory)."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.spans: list = []
        #: Trace id given to spans that start with no open parent span.
        self.trace_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, trace):
        stack = self._stack()
        parent, parent_trace = stack[-1] if stack else (None, self.trace_id)
        span_id = next(self._ids)
        trace = parent_trace if trace is None else trace
        stack.append((span_id, trace))
        return span_id, parent, trace

    def _close(self, span_id, parent, trace, name, start, end, attrs) -> None:
        self._stack().pop()
        self.spans.append((span_id, parent, name, start, end, trace, attrs))

    def leaf(self, name: str, start: float, end: float, attrs=None) -> None:
        """Record a finished span that had no children (e.g. a lock wait)."""
        stack = self._stack()
        parent, trace = stack[-1] if stack else (None, self.trace_id)
        self.spans.append((next(self._ids), parent, name, start, end, trace, attrs))

    @contextmanager
    def span(self, name: str, trace=None):
        """Record the enclosed block; yields a dict that becomes the attributes."""
        span_id, parent, trace = self._open(trace)
        attrs: dict = {}
        start = clock()
        try:
            yield attrs
        finally:
            self._close(span_id, parent, trace, name, start, clock(), attrs or None)

    def dump(self, path) -> None:
        """Write every span recorded so far as JSON lines."""
        pid = os.getpid()
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, trace, attrs in list(self.spans):
                out.write(json.dumps({
                    "pid": pid, "role": self.role, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end, "trace": trace,
                    "attrs": attrs,
                }) + "\n")


def _wrap(tracer: Tracer, function, name, attrs=None, trace=None):
    """``function`` recording a span per call.

    ``name`` may be a callable of the call's arguments (one wrapped codec
    function serves several span names); ``attrs(args, kwargs, result)``
    returns the span's attributes and ``trace(args, kwargs, result)`` its own
    trace id (``None`` keeps the one inherited from the parent span).
    """

    @functools.wraps(function)
    def traced(*args, **kwargs):
        span_id, parent, span_trace = tracer._open(None)
        start = clock()
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            end = clock()
            own_trace = trace(args, kwargs, result) if trace else None
            tracer._close(
                span_id, parent, span_trace if own_trace is None else own_trace,
                name(args) if callable(name) else name, start, end,
                attrs(args, kwargs, result) if attrs else None,
            )

    return traced


def _patch(owner, attr, wrapper) -> None:
    setattr(owner, attr, wrapper(getattr(owner, attr)))


def _meta_tag(meta):
    return meta.get("tag") if isinstance(meta, dict) else None


def _pack_trace(args, kwargs, result):
    """A request's tag, from the meta of the frame being packed."""
    return _meta_tag(args[1] if len(args) > 1 else kwargs.get("meta"))


def _unpack_trace(args, kwargs, result):
    """A request's tag, from the meta of the frame just unpacked."""
    return None if result is None else _meta_tag(result[1])


def _install_codec(tracer: Tracer) -> None:
    """Codec entry points at every name the fit and serving paths bind."""
    from repro.distributed import codec, rpc
    from repro.serving import client, protocol, server

    def site(module, pack_name, unpack_name):
        for attr in ("pack_message", "pack_compact"):
            if hasattr(module, attr):
                _patch(module, attr, lambda f, n=pack_name: _wrap(
                    tracer, f, n, attrs=lambda a, k, r: {"codec": "pack"},
                    trace=_pack_trace,
                ))
        if hasattr(module, "unpack_message"):
            _patch(module, "unpack_message", lambda f: _wrap(
                tracer, f, unpack_name, attrs=lambda a, k, r: {"codec": "unpack"},
                trace=_unpack_trace,
            ))

    def server_pack_name(args):
        return "serving.wal.encode" if args and args[0] == "wal" else "serving.server.encode"

    site(codec, "distributed.codec.pack", "distributed.codec.unpack")
    site(rpc, "distributed.codec.pack", "distributed.codec.unpack")
    site(protocol, "distributed.codec.pack", "distributed.codec.unpack")
    site(client, "serving.client.encode", "serving.client.decode")
    site(server, server_pack_name, "serving.server.decode")

    _patch(rpc, "send_frame", lambda f: _wrap(
        tracer, f, "distributed.rpc.send", attrs=lambda a, k, r: {"bytes": len(a[1])},
    ))
    _patch(rpc, "recv_frame", lambda f: _wrap(
        tracer, f, "distributed.rpc.recv",
        attrs=lambda a, k, r: {"bytes": 0 if r is None else len(r)},
    ))


def _install_engine(tracer: Tracer) -> None:
    from repro.engine.packed import OneHotCache, PackedFrequencyEngine
    from repro.engine.state import EngineState

    def similarity_bytes(args, kwargs, result):
        engine = args[0]
        codes = args[1] if len(args) > 1 else kwargs.get("codes")
        n = engine.codes.shape[0] if codes is None else len(codes)
        # One-hot read plus the (n, k) similarity write, float64.
        return {"bytes": 8 * n * (engine.n_values + engine.n_clusters)}

    cls = PackedFrequencyEngine
    _patch(cls, "similarity_matrix", lambda f: _wrap(
        tracer, f, "engine.similarity_matrix", attrs=similarity_bytes))
    _patch(cls, "rebuild", lambda f: _wrap(tracer, f, "engine.rebuild"))
    _patch(cls, "hamming_distances", lambda f: _wrap(tracer, f, "engine.hamming_distances"))
    _patch(cls, "_one_hot", lambda f: _wrap(
        tracer, f, "engine.onehot",
        attrs=lambda a, k, r: {"bytes": 8 * len(a[1]) * a[0].n_values}))
    _patch(OneHotCache, "lookup", lambda f: _wrap(
        tracer, f, "engine.onehot_cache.lookup",
        attrs=lambda a, k, r: {"misses": int(r is None)}))
    _patch(EngineState, "merge", lambda f: _wrap(tracer, f, "engine.state.merge"))
    _patch(EngineState, "feature_cluster_weights", lambda f: _wrap(
        tracer, f, "engine.state.feature_cluster_weights"))


def _install_core(tracer: Tracer) -> None:
    from repro.core.assignment import AssignmentModel
    from repro.core.came import CAME
    from repro.core.mgcpl import MGCPL
    from repro.core.sync import InProcessShardExecutor, ShardWorker
    from repro.distributed.transport import ShardExecutor

    _patch(MGCPL, "_fit", lambda f: _wrap(
        tracer, f, "core.mgcpl.fit",
        attrs=lambda a, k, r: {"levels": len(a[0].result_.levels)} if r is not None else None))
    _patch(CAME, "_fit", lambda f: _wrap(tracer, f, "core.came.fit"))
    _patch(ShardWorker, "sweep", lambda f: _wrap(tracer, f, "core.sync.sweep"))
    _patch(AssignmentModel, "assign", lambda f: _wrap(
        tracer, f, "core.assignment.assign", attrs=lambda a, k, r: {"rows": len(a[1])}))
    _patch(AssignmentModel, "replay", lambda f: _wrap(
        tracer, f, "core.assignment.replay", attrs=lambda a, k, r: {"rows": len(a[1])}))

    def straggler(args, kwargs, result):
        # Worker-side wall seconds of this round's sweep, one per shard.
        elapsed = [
            t.last_elapsed for t in getattr(args[0], "_transports", ())
            if t is not None and getattr(t, "last_elapsed", None) is not None
        ]
        return {"straggler_s": max(elapsed) - min(elapsed) if elapsed else 0.0}

    # Both executor kinds are the executor protocol's sweep round trip.
    _patch(InProcessShardExecutor, "sweep", lambda f: _wrap(
        tracer, f, "distributed.executor.sweep"))
    _patch(ShardExecutor, "sweep", lambda f: _wrap(
        tracer, f, "distributed.executor.sweep", attrs=straggler))


def _install_distributed(tracer: Tracer) -> None:
    from repro.distributed.resilience import ResilientTCPExecutor
    from repro.distributed.rpc import TCPExecutor

    original_close = TCPExecutor.close

    def close(self):
        # transport_stats() reads the live transports, which close() drops.
        if getattr(self, "_transports", None):
            shipped = self.transport_stats()["payload_bytes_shipped"]
            now = clock()
            tracer.leaf("distributed.transport.close", now, now,
                        {"payload_bytes": shipped})
        return original_close(self)

    TCPExecutor.close = close
    _patch(ResilientTCPExecutor, "_recover_shard", lambda f: _wrap(
        tracer, f, "distributed.resilience.recover"))


def _install_serving(tracer: Tracer) -> None:
    from repro.serving import server

    original_execute = server._PredictBatcher._execute

    def execute(self, batch):
        now = time.monotonic()  # the clock _BatchItem.arrived is read from
        tags = [item.tag for item in batch]
        with tracer.span("serving.server.batch", trace=tags) as attrs:
            attrs["rows"] = sum(len(item.codes) for item in batch)
            attrs["queue_wait_s"] = sum(now - item.arrived for item in batch)
            return original_execute(self, batch)

    server._PredictBatcher._execute = execute

    def traced_lock(original, name):
        @contextmanager
        def lock(self):
            requested = clock()
            with original(self):
                tracer.leaf(f"{name}.wait", requested, clock())
                with tracer.span(f"{name}.held"):
                    yield
        return lock

    lock_cls = server.ReadWriteLock
    lock_cls.read = traced_lock(lock_cls.read, "serving.server.lock_read")
    lock_cls.write = traced_lock(lock_cls.write, "serving.server.lock_write")

    wal_cls = server.WriteAheadLog
    original_append = wal_cls.append

    def append(self, body):
        before = self.size_bytes
        with tracer.span("serving.wal.append") as attrs:
            original_append(self, body)
            attrs["bytes"] = self.size_bytes - before

    wal_cls.append = append
    _patch(server, "save_model", lambda f: _wrap(tracer, f, "persistence.save_model"))
    _patch(server, "load_model", lambda f: _wrap(tracer, f, "persistence.load_model"))


def install(role: str) -> Tracer:
    """Wrap every traced boundary in this process; returns its tracer."""
    tracer = Tracer(role)
    _install_codec(tracer)
    _install_engine(tracer)
    _install_core(tracer)
    _install_distributed(tracer)
    _install_serving(tracer)
    return tracer


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #
#: Per-layer metric -> (kind, span name, attribute).  Kinds: ``calls`` (span
#: count), ``self`` (duration minus child spans), ``wall`` (duration),
#: ``attr`` (sum of an attribute), ``codec`` (self time of every codec
#: call, whatever layer it was made from).  Spans are taken from the
#: measured phases of the run, in every process; ``persistence.load_model``
#: from the server starts of the set-up instead.
LAYER_METRICS = {
    "engine.similarity_matrix.calls": ("calls", "engine.similarity_matrix", None),
    "engine.similarity_matrix.self_s": ("self", "engine.similarity_matrix", None),
    "engine.similarity_matrix.bytes_computed": ("attr", "engine.similarity_matrix", "bytes"),
    "engine.rebuild.self_s": ("self", "engine.rebuild", None),
    "engine.hamming_distances.self_s": ("self", "engine.hamming_distances", None),
    "engine.state.feature_cluster_weights.self_s": (
        "self", "engine.state.feature_cluster_weights", None),
    "engine.state.merge.self_s": ("self", "engine.state.merge", None),
    "engine.onehot.bytes_computed": ("attr", "engine.onehot", "bytes"),
    "engine.onehot_cache.misses": ("attr", "engine.onehot_cache.lookup", "misses"),
    "core.mgcpl.fit.self_s": ("self", "core.mgcpl.fit", None),
    "core.mgcpl.sweeps": ("calls", "distributed.executor.sweep", None),
    "core.mgcpl.levels": ("attr", "core.mgcpl.fit", "levels"),
    "core.sync.sweep.self_s": ("self", "core.sync.sweep", None),
    "core.came.fit.self_s": ("self", "core.came.fit", None),
    "core.assignment.assign.calls": ("calls", "core.assignment.assign", None),
    "core.assignment.assign.rows": ("attr", "core.assignment.assign", "rows"),
    "core.assignment.assign.self_s": ("self", "core.assignment.assign", None),
    "core.assignment.replay.self_s": ("self", "core.assignment.replay", None),
    "distributed.executor.sweep.calls": ("calls", "distributed.executor.sweep", None),
    "distributed.executor.sweep.wall_s": ("wall", "distributed.executor.sweep", None),
    "distributed.executor.straggler_s": ("attr", "distributed.executor.sweep", "straggler_s"),
    "distributed.rpc.frames": ("calls", "distributed.rpc.send", None),
    "distributed.rpc.bytes": ("attr", "distributed.rpc.send", "bytes"),
    "distributed.rpc.recv_wait_s": ("wall", "distributed.rpc.recv", "bench"),
    "distributed.transport.payload_bytes_shipped": (
        "attr", "distributed.transport.close", "payload_bytes"),
    "distributed.codec.pack.self_s": ("codec", None, "pack"),
    "distributed.codec.unpack.self_s": ("codec", None, "unpack"),
    "distributed.resilience.recoveries": ("calls", "distributed.resilience.recover", None),
    "serving.client.encode.self_s": ("self", "serving.client.encode", None),
    "serving.client.decode.self_s": ("self", "serving.client.decode", None),
    "serving.server.decode.self_s": ("self", "serving.server.decode", None),
    "serving.server.encode.self_s": ("self", "serving.server.encode", None),
    "serving.server.batch_queue.wait_s": ("attr", "serving.server.batch", "queue_wait_s"),
    "serving.server.lock_read.wait_s": ("wall", "serving.server.lock_read.wait", None),
    "serving.server.lock_write.wait_s": ("wall", "serving.server.lock_write.wait", None),
    "serving.server.lock_write.held_s": ("wall", "serving.server.lock_write.held", None),
    "serving.wal.append.self_s": ("self", "serving.wal.append", None),
    "serving.wal.records": ("calls", "serving.wal.append", None),
    "serving.wal.bytes": ("attr", "serving.wal.append", "bytes"),
    "persistence.save_model.calls": ("calls", "persistence.save_model", None),
    "persistence.save_model.self_s": ("self", "persistence.save_model", None),
    "persistence.load_model.self_s": ("self", "persistence.load_model", None),
}

#: Metrics read from the set-up windows instead of the measured phases.
SETUP_METRICS = ("persistence.load_model.self_s",)


def load(directory) -> list:
    """Every span dumped into ``directory``, with its self time filled in."""
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[(span["pid"], span["parent"])] += span["end"] - span["start"]
    for span in spans:
        span["self"] = span["end"] - span["start"] - child_time[(span["pid"], span["id"])]
    return spans


def within(spans, windows) -> list:
    """Spans that start inside any of the ``(start, end)`` windows."""
    return [s for s in spans if any(lo <= s["start"] <= hi for lo, hi in windows)]


def assign_traces(spans, fit_windows) -> None:
    """Give spans without a trace id the fit whose window holds them."""
    for span in spans:
        if span["trace"] is None:
            for index, (lo, hi) in enumerate(fit_windows):
                if lo <= span["start"] <= hi:
                    span["trace"] = f"fit-{index}"
                    break


def layer_metrics(spans, run_windows, setup_windows) -> dict:
    """Every :data:`LAYER_METRICS` value over the given phase windows."""
    measured, setup = within(spans, run_windows), within(spans, setup_windows)
    out = {}
    for metric, (kind, name, attr) in LAYER_METRICS.items():
        pool = setup if metric in SETUP_METRICS else measured
        if kind == "codec":
            chosen = [s for s in pool if (s["attrs"] or {}).get("codec") == attr]
        else:
            chosen = [s for s in pool if s["name"] == name]
            if kind == "wall" and attr is not None:
                chosen = [s for s in chosen if s["role"] == attr]
        if kind == "calls":
            value = float(len(chosen))
        elif kind in ("self", "codec"):
            value = sum(s["self"] for s in chosen)
        elif kind == "wall":
            value = sum(s["end"] - s["start"] for s in chosen)
        else:
            value = float(sum((s["attrs"] or {}).get(attr, 0) for s in chosen))
        out[metric] = value
    return out


def coverage(spans, fit_windows) -> float:
    """Share of the fits' wall time covered by the top-level traced spans.

    Top-level span durations are the sum of the self times of every span
    below them, so this is the share of ``fit_s`` the named layers' self
    times account for.
    """
    total = sum(hi - lo for lo, hi in fit_windows)
    top = [s for s in within(spans, fit_windows) if s["role"] == "bench" and s["parent"] is None]
    return sum(s["end"] - s["start"] for s in top) / total if total else 0.0
