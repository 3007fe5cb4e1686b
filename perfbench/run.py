"""The repro benchmark: fit a model, serve it, and check every answer.

Run from the repository root::

    python3 perfbench/run.py --workload fit-local --seed 1 --seconds 30 --trace 0

Inputs come from ``--seed`` (``make_categorical_clusters``: d=12, 8 planted
clusters, 6 categories, purity 0.75, plus 4096 held-out rows).  A run of
either workload alternates two kinds of measured work:

* **fits** — a fixed number of back-to-back fits in this process:
  ``MCDC.fit`` on 50 000 rows (``fit-local``, 2 fits), or
  ``ShardedMCDC(backend="tcp", n_shards=2)`` on 20 000 rows against two
  ``repro worker`` subprocesses (``fit-tcp``, 3 fits);
* **serve rounds** — the fitted model, saved and served by ``repro serve
  --wal --wal-sync batch --snapshot-every 50``.  A round is a *read* stretch
  (open loop of 1-row predicts at 2000/s on one connection), a *mixed*
  stretch (the same stream plus 64-row ingests at 50/s on a second
  connection) and a *bulk* stretch (closed loop of pipelined 1024-row
  predicts, 8 in flight).

The first fit comes first; the serve rounds are then split between the
remaining fits, so every figure samples the whole run.  ``--seconds`` sets
the serving work: read 1/6 of it, mixed 1/3, and 200 bulk requests per
second of it.  Open-loop latencies are timed from each request's due time;
a latency figure is the median over the rounds.  Set-up (the workers
answering a ping, the server answering its first client) is repeated three
times and its median kept.

Every answer is checked: fit labels are identical across a run's fits (and,
on ``fit-tcp``, to a serial in-process fit), their ARI against the planted
labels stays above a floor, every served label equals the in-process
``predict`` of the model in a state the server could have held, and at the
end a server snapshot equals an in-process model that ingested the same
acknowledged batches.  A failed check prints the failure on standard error
and ``"correct": false`` with no metrics.

With ``--trace 1`` the run is made twice, in fresh processes and with half
the seconds each: untraced, then traced (``spans.py`` wraps the layer
boundaries in every process).  It prints the per-layer metrics of
``BENCHMARK.json``, with the traced-minus-untraced difference of every
end-to-end metric.  The last line of standard output is always one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import OrderedDict, deque
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
clock = spans.clock

WORKLOADS = {
    "fit-local": {"n_objects": 50_000, "backend": None, "fits": 2},
    "fit-tcp": {"n_objects": 20_000, "backend": "tcp", "fits": 3},
}
DATA = {"n_features": 12, "n_clusters": 8, "n_categories": 6, "purity": 0.75}
HOLDOUT = 4096
SETUP_REPEATS = 3
PREDICT_RATE = 2000.0
INGEST_RATE = 50.0
INGEST_ROWS = 64
BULK_ROWS = 1024
BULK_WINDOW = 8
BULK_REQUESTS_PER_SECOND = 200
#: Serving runs as this many rounds of (read, mixed, bulk) stretches, and a
#: figure is the median over rounds, so one stall of the host moves one
#: round, not the figure.
SERVE_ROUNDS = 10
ARI_FLOOR = 0.4
#: A generator whose own median lateness exceeds this did not keep up with
#: its schedule.  (A stall of the whole host delays the p99 of the generator
#: and of the server alike, so the median is the generator's own figure.)
LATENESS_LIMIT_MS = 1.0
IO_TIMEOUT = 60.0
RUN_DEADLINE_S = 170.0


class CheckFailed(Exception):
    """An output of the system under test was wrong."""


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------- #
# Processes and scratch files
# ---------------------------------------------------------------------- #
class Workspace:
    """A run's scratch directory inside the checkout and its child processes.

    :meth:`close` stops every child (SIGTERM, then SIGKILL) and waits for it,
    then removes the directory, whatever state the run ended in.
    """

    def __init__(self, tracing: bool) -> None:
        self.base = ROOT / ".perfbench-tmp"
        self.base.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=self.base))
        self.tracing = tracing
        self.procs: list = []
        self.env = dict(os.environ, TMPDIR=str(self.dir))
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def spawn(self, role: str, *args: str) -> subprocess.Popen:
        """Start ``repro ARGS`` (through ``launch.py`` when tracing)."""
        index = len(self.procs)
        if self.tracing:
            spans_file = self.dir / f"spans-{role}-{index}.jsonl"
            command = [sys.executable, str(HERE / "launch.py"), str(spans_file), role, *args]
        else:
            command = [sys.executable, "-m", "repro", *args]
        with open(self.dir / f"{role}-{index}.log", "wb") as stderr:
            proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=stderr, env=self.env, cwd=self.dir
            )
        self.procs.append(proc)
        return proc

    @staticmethod
    def stop(proc: subprocess.Popen, grace: float = 10.0) -> None:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()

    def close(self) -> None:
        for proc in self.procs:
            self.stop(proc)
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.base.rmdir()
        except OSError:
            pass  # another run's directory is still there


def read_address(proc: subprocess.Popen, timeout: float = 30.0) -> str:
    """The ``HOST:PORT`` a ``repro worker``/``repro serve`` child prints when ready."""
    deadline = clock() + timeout
    fd = proc.stdout.fileno()
    buffer = b""
    while True:
        for line in buffer.split(b"\n")[:-1]:
            if b" listening on " in line:
                return line.rsplit(b" ", 1)[1].decode()
        remaining = deadline - clock()
        if remaining <= 0:
            raise TimeoutError("child process did not start listening")
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(f"child process exited with code {proc.wait()}")
            buffer += chunk


# ---------------------------------------------------------------------- #
# Load generation
# ---------------------------------------------------------------------- #
def predict_stream(client, rows: np.ndarray, rate: float, start: float, duration: float) -> dict:
    """Open loop of 1-row predicts at ``rate``/s on one pipelined connection.

    One thread sends each request at its due time and harvests replies in
    between; the client's socket is polled only to learn that a reply is
    waiting, every read and write goes through ``predict_async``/``result``.
    """
    from repro.distributed.transport import TransportError

    n = max(1, int(rate * duration))
    due = start + np.arange(n) / rate
    sent = np.full(n, np.nan)
    done = np.full(n, np.nan)
    labels = np.full(n, -1, dtype=np.int64)
    row = np.arange(n) % len(rows)
    singles = [rows[i : i + 1] for i in range(len(rows))]
    sock = client._sock
    pending: OrderedDict = OrderedDict()
    errors = 0

    def harvest() -> None:
        nonlocal errors
        first = next(iter(pending.values()))
        try:
            first.result()
        except TransportError:
            pass
        now = clock()
        while pending:
            index, future = next(iter(pending.items()))
            if not future.done():
                break
            pending.popitem(last=False)
            done[index] = now
            try:
                labels[index] = future.result()[0]
            except TransportError:
                errors += 1

    i = 0
    while i < n or pending:
        now = clock()
        if i < n and now >= due[i]:
            sent[i] = now
            pending[i] = client.predict_async(singles[row[i]])
            i += 1
            continue
        wait = due[i] - now if i < n else IO_TIMEOUT
        if not pending:
            time.sleep(wait)
            continue
        ready, _, _ = select.select([sock], [], [], wait)
        if ready:
            harvest()
        elif i >= n:
            raise TimeoutError("predict replies stopped arriving")
    ok = ~np.isnan(done) & (labels >= 0)
    return {"due": due, "sent": sent, "done": done, "labels": labels, "row": row,
            "ok": ok, "errors": errors}


def ingest_stream(client, batches: list, first: int, rate: float, start: float,
                  duration: float, out: dict) -> None:
    """Open loop of ingest batches at ``rate``/s on its own connection.

    Sends ``batches[(first + j) % len(batches)]`` for j = 0, 1, ...
    """
    from repro.distributed.transport import TransportError

    m = max(1, int(rate * duration))
    due = start + np.arange(m) / rate
    batch = (first + np.arange(m)) % len(batches)
    sent, acked = np.full(m, np.nan), np.full(m, np.nan)
    labels, ok = [None] * m, np.zeros(m, dtype=bool)
    try:
        for j in range(m):
            delay = due[j] - clock()
            if delay > 0:
                time.sleep(delay)
            sent[j] = clock()
            try:
                labels[j] = client.ingest(batches[batch[j]])
                ok[j] = True
            except TransportError as exc:
                log(f"ingest {first + j} failed: {exc}")
            acked[j] = clock()
    finally:
        out.update(due=due, sent=sent, acked=acked, labels=labels, ok=ok, batch=batch)


def bulk_round(client, blocks: list, n_requests: int) -> dict:
    """Closed loop of pipelined ``BULK_ROWS``-row predicts, ``BULK_WINDOW`` in flight.

    Keeps each distinct answer per block (not every reply), so checking the
    replies costs the benchmark process no memory to speak of.
    """
    answers = set()
    window: deque = deque()
    started = clock()
    for request in range(n_requests + BULK_WINDOW):
        if len(window) == BULK_WINDOW or request >= n_requests:
            block, future = window.popleft()
            answers.add((block, future.result().tobytes()))
        if request < n_requests:
            block = request % len(blocks)
            window.append((block, client.predict_async(blocks[block])))
    return {"requests": n_requests, "answers": answers,
            "rows_per_s": n_requests * BULK_ROWS / (clock() - started)}


class ServePhase:
    """The read, mixed and bulk phases, run as rounds a few at a time.

    A round is a read stretch, a mixed stretch and a bulk stretch.  The run
    alternates fits with batches of rounds (the server idles during a fit),
    so the samples of every phase, and the fits, spread over the whole run
    instead of one stretch of the host's load.  Each bulk round records the
    number of ingests applied before it (none is in flight then).
    """

    def __init__(self, client, holdout: np.ndarray, seconds: int) -> None:
        from repro.serving import ServingClient

        self.client, self.holdout = client, holdout
        self.batches = [holdout[j : j + INGEST_ROWS] for j in range(0, HOLDOUT, INGEST_ROWS)]
        self.blocks = [holdout[j : j + BULK_ROWS] for j in range(0, HOLDOUT, BULK_ROWS)]
        self.read_s = seconds / 6.0 / SERVE_ROUNDS
        self.mixed_s = seconds / 3.0 / SERVE_ROUNDS
        self.n_bulk = max(BULK_WINDOW, int(seconds * BULK_REQUESTS_PER_SECOND / SERVE_ROUNDS))
        self.reads, self.mixes, self.ingest_rounds, self.bulks = [], [], [], []
        self.windows: list = []
        self.applied = 0
        self.writer = ServingClient(client.address, timeout=IO_TIMEOUT).connect()

    def run(self, rounds: int) -> None:
        gc.collect()
        gc.disable()  # the generator's own pauses would show as server latency
        started = clock()
        try:
            for _ in range(rounds):
                self.reads.append(predict_stream(
                    self.client, self.holdout, PREDICT_RATE, clock() + 0.01, self.read_s))
                start, out = clock() + 0.01, {}
                first = sum(len(r["due"]) for r in self.ingest_rounds)
                thread = threading.Thread(target=ingest_stream, args=(
                    self.writer, self.batches, first, INGEST_RATE, start, self.mixed_s, out))
                thread.start()
                try:
                    self.mixes.append(predict_stream(
                        self.client, self.holdout, PREDICT_RATE, start, self.mixed_s))
                finally:
                    thread.join()
                self.ingest_rounds.append(out)
                self.applied += int(out["ok"].sum())
                bulk = bulk_round(self.client, self.blocks, self.n_bulk)
                bulk["state"] = self.applied
                self.bulks.append(bulk)
        finally:
            gc.enable()
            self.windows.append((started, clock()))

    def ingests(self) -> dict:
        """Every round's ingest stream, concatenated."""
        ingests = {key: np.concatenate([r[key] for r in self.ingest_rounds])
                   for key in ("due", "sent", "acked", "ok", "batch")}
        ingests["labels"] = [labels for r in self.ingest_rounds for labels in r["labels"]]
        return ingests

    def close(self) -> None:
        self.writer.close()


def verify_serving(replica, holdout, batches, blocks, streams, ingests, bulks, snapshot):
    """Check every served answer against an in-process replay of the ingests.

    ``replica`` starts as the served model; state s is it after the first s
    acknowledged ingests.  A 1-row predict may have met any state from the
    number of ingests acked before it was sent to the number sent before its
    reply arrived; a bulk round saw exactly the state it recorded.  The
    server's snapshot must equal the final state bit for bit.
    """
    applied = np.flatnonzero(ingests["ok"])
    acked, sent = ingests["acked"][applied], ingests["sent"][applied]
    rows = np.concatenate([s["row"] for s in streams])
    labels = np.concatenate([s["labels"] for s in streams])
    matched = ~np.concatenate([s["ok"] for s in streams])
    low = np.concatenate([np.searchsorted(acked, s["sent"], side="right") for s in streams])
    high = np.concatenate([np.searchsorted(sent, s["done"], side="left") for s in streams])
    for state in range(len(applied) + 1):
        chosen = ~matched & (low <= state) & (state <= high)
        if chosen.any():
            matched[chosen] = replica.predict(holdout[rows[chosen]]) == labels[chosen]
        for bulk in bulks:
            if bulk["state"] == state:
                expected = [replica.predict(block).tobytes() for block in blocks]
                if any(raw != expected[b] for b, raw in bulk["answers"]):
                    raise CheckFailed("bulk replies differ from in-process predict")
        if state < len(applied):
            j = applied[state]
            if not np.array_equal(replica.ingest(batches[ingests["batch"][j]]),
                                  ingests["labels"][j]):
                raise CheckFailed(f"ingest {j} labels differ from in-process ingest")
    if not matched.all():
        raise CheckFailed(f"{int((~matched).sum())} served labels match no server state")
    ours, theirs = replica.assignment_model_.state, snapshot.assignment_model_.state
    if not (np.array_equal(ours.packed, theirs.packed)
            and np.array_equal(ours.valid_counts, theirs.valid_counts)
            and np.array_equal(ours.sizes, theirs.sizes)
            and ours.n_categories == theirs.n_categories
            and np.array_equal(replica.labels_, snapshot.labels_)):
        raise CheckFailed("server snapshot differs from the in-process replay of its ingests")


def percentiles_ms(seconds: np.ndarray) -> tuple:
    values = np.asarray(seconds, dtype=np.float64) * 1000.0
    return float(np.percentile(values, 50)), float(np.percentile(values, 99))


def round_percentiles_ms(streams: list) -> tuple:
    """Median over the rounds' streams of their p50 and p99 latency.

    Latency is timed from each request's due time; failed requests are left
    out (they are counted as failed operations).
    """
    per_round = [percentiles_ms((s["done"] - s["due"])[s["ok"]]) for s in streams]
    return (statistics.median(p50 for p50, _ in per_round),
            statistics.median(p99 for _, p99 in per_round))


def stream_stats(name: str, lateness: np.ndarray, sent: int, ok: int, failed: int) -> dict:
    p50, p99 = percentiles_ms(lateness)
    return {f"loadgen.{name}.lateness_p50_ms": p50, f"loadgen.{name}.lateness_p99_ms": p99,
            f"loadgen.{name}.sent": float(sent), f"loadgen.{name}.succeeded": float(ok),
            f"loadgen.{name}.failed": float(failed)}


# ---------------------------------------------------------------------- #
# One pass of a workload
# ---------------------------------------------------------------------- #
def start_workers(ws: Workspace) -> tuple:
    from repro.distributed.rpc import ping_host

    started = clock()
    procs = [ws.spawn("worker", "worker", "--listen", "127.0.0.1:0") for _ in range(2)]
    hosts = [read_address(proc) for proc in procs]
    for host in hosts:
        ping_host(host, timeout=10.0)
    return procs, hosts, (started, clock())


def start_server(ws: Workspace, model_path: Path, index: int) -> tuple:
    from repro.serving import ServingClient

    started = clock()
    proc = ws.spawn(
        "server", "serve", str(model_path), "--listen", "127.0.0.1:0",
        "--wal", "--wal-sync", "batch", "--snapshot-every", "50",
        "--snapshot-path", str(ws.dir / f"snapshot-{index}.npz"),
    )
    client = ServingClient(read_address(proc), timeout=IO_TIMEOUT, max_in_flight=1 << 20)
    client.connect()
    return proc, client, (started, clock())


def stop_server(proc: subprocess.Popen, client) -> None:
    """Drain the server through the protocol, so it exits on its own."""
    from repro.serving import ServingClient

    address = client.address
    client.close()
    with ServingClient(address, timeout=IO_TIMEOUT) as control:
        control.shutdown_server()
    proc.wait(30.0)


def run_pass(workload: str, seed: int, seconds: int, tracing: bool, ws: Workspace) -> dict:
    """Run one workload pass; returns e2e (and, when tracing, layer) metrics."""
    tracer = spans.install("bench") if tracing else None
    from repro import MCDC, load_model, save_model
    from repro.data.generators import make_categorical_clusters
    from repro.distributed.runtime import ShardedMCDC
    from repro.metrics.pair_counting import adjusted_rand_index

    spec = WORKLOADS[workload]
    n = spec["n_objects"]
    data = make_categorical_clusters(n_objects=n + HOLDOUT, random_state=seed, **DATA)
    codes = np.ascontiguousarray(data.codes[:n])
    holdout = np.ascontiguousarray(data.codes[n:])

    worker_setup, hosts = [], None
    if spec["backend"] == "tcp":
        for repeat in range(SETUP_REPEATS):
            workers, hosts, window = start_workers(ws)
            worker_setup.append(window)
            if repeat < SETUP_REPEATS - 1:
                for proc in workers:
                    ws.stop(proc)
    fit_windows, fitted = [], []

    def fit():
        if spec["backend"] == "tcp":
            estimator = ShardedMCDC(n_clusters=8, backend="tcp", n_shards=2, hosts=hosts,
                                    random_state=seed)
        else:
            estimator = MCDC(n_clusters=8, random_state=seed)
        if tracer is not None:
            tracer.trace_id = f"fit-{len(fitted)}"
        started = clock()
        model = estimator.fit(codes)
        fit_windows.append((started, clock()))
        if tracer is not None:
            tracer.trace_id = None
        fitted.append(model.labels_)
        log(f"fit {len(fitted) - 1}: {fit_windows[-1][1] - started:.3f} s")
        return model

    # Every fit of a run yields the same labels (checked below), so the
    # first one is the served model.
    model_path = ws.dir / "model.npz"
    save_model(fit(), model_path)
    server_setup = []
    for repeat in range(SETUP_REPEATS):
        server, client, window = start_server(ws, model_path, repeat)
        server_setup.append(window)
        if repeat < SETUP_REPEATS - 1:
            stop_server(server, client)
    setup_s = statistics.median(
        (s1 - s0) + ((w[1] - w[0]) if worker_setup else 0.0)
        for (s0, s1), w in zip(server_setup, worker_setup or server_setup)
    )

    serve = ServePhase(client, holdout, seconds)
    try:
        cuts = np.linspace(0, SERVE_ROUNDS, spec["fits"] + 1).round().astype(int)
        for index, rounds in enumerate(np.diff(cuts)):
            if index:
                fit()
            serve.run(int(rounds))
    finally:
        serve.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ingests = serve.ingests()
    streams = serve.reads + serve.mixes
    applied = int(ingests["ok"].sum())
    attempted = len(fitted) + sum(len(r["due"]) for r in streams) + len(ingests["due"])
    attempted += sum(b["requests"] for b in serve.bulks)
    failed = sum(r["errors"] for r in streams) + len(ingests["ok"]) - applied

    # -- checks ------------------------------------------------------------ #
    if any(not np.array_equal(labels, fitted[0]) for labels in fitted):
        raise CheckFailed("fit labels differ between fits of one run")
    ari = adjusted_rand_index(np.asarray(data.labels[:n]), fitted[0])
    if not ari >= ARI_FLOOR:
        raise CheckFailed(f"fit ARI {ari:.4f} is below the floor {ARI_FLOOR}")
    verify_serving(load_model(model_path), holdout, serve.batches, serve.blocks, streams,
                   ingests, serve.bulks, load_model(client.snapshot()))
    info = client.info()
    stop_server(server, client)
    for proc in ws.procs:
        ws.stop(proc)  # the workers; their span files are written on the way out
    if spec["backend"] == "tcp":
        serial = MCDC(n_clusters=8, random_state=seed).fit(codes)
        if not np.array_equal(serial.labels_, fitted[0]):
            raise CheckFailed("tcp fit labels differ from the serial in-process fit")

    # -- metrics ------------------------------------------------------------ #
    ing_ok = ingests["ok"]
    ingest_p50, ingest_p99 = percentiles_ms((ingests["acked"] - ingests["due"])[ing_ok])
    # Ingest sends wait for the previous ack (one synchronous connection);
    # only the part of the delay that is the generator's own counts as late.
    ready_at = np.maximum(ingests["due"], np.concatenate(([-np.inf], ingests["acked"][:-1])))
    loadgen: dict = {}
    for name, group in (("read", serve.reads), ("mixed", serve.mixes)):
        ok = np.concatenate([r["ok"] for r in group])
        loadgen.update(stream_stats(
            name, np.concatenate([r["sent"] - r["due"] for r in group]), len(ok),
            int(ok.sum()), sum(r["errors"] for r in group)))
    loadgen.update(stream_stats("ingest", ingests["sent"] - ready_at, len(ing_ok),
                                int(ing_ok.sum()), int((~ing_ok).sum())))
    for stream in ("read", "mixed", "ingest"):
        late = loadgen[f"loadgen.{stream}.lateness_p50_ms"]
        log(f"{stream} generator: lateness p50 {late:.3f} ms, "
            f"p99 {loadgen[f'loadgen.{stream}.lateness_p99_ms']:.3f} ms, "
            f"sent {loadgen[f'loadgen.{stream}.sent']:.0f}, "
            f"failed {loadgen[f'loadgen.{stream}.failed']:.0f}")
        if late > LATENESS_LIMIT_MS:
            raise CheckFailed(f"invalid run: the {stream} generator ran late "
                              f"(p50 {late:.3f} ms > {LATENESS_LIMIT_MS} ms)")
    predict_p50, predict_p99 = round_percentiles_ms(serve.reads)
    mixed_p50, mixed_p99 = round_percentiles_ms(serve.mixes)
    metrics = {
        "setup_s": setup_s,
        "fit_s": statistics.median(hi - lo for lo, hi in fit_windows),
        "fit_ari": float(ari),
        "peak_rss_mb": peak_rss_mb,
        "predict_p50_ms": predict_p50,
        "predict_p99_ms": predict_p99,
        "mixed_predict_p50_ms": mixed_p50,
        "mixed_predict_p99_ms": mixed_p99,
        "ingest_p50_ms": ingest_p50,
        "ingest_p99_ms": ingest_p99,
        "bulk_rows_per_s": statistics.median(b["rows_per_s"] for b in serve.bulks),
    }
    if tracer is not None:
        tracer.dump(ws.dir / "spans-bench.jsonl")
        recorded = spans.load(ws.dir)
        spans.assign_traces(recorded, fit_windows)
        kept = ws.base / f"trace-{workload}-{seed}.jsonl"
        with open(kept, "w", encoding="utf-8") as out:
            out.writelines(json.dumps(span) + "\n" for span in recorded)
        log(f"{len(recorded)} spans of every process written to {kept}")
        metrics.update(spans.layer_metrics(recorded, fit_windows + serve.windows, server_setup))
        covered = spans.coverage(recorded, fit_windows)
        if workload == "fit-local" and covered < 0.5:
            raise CheckFailed(f"traced layers cover only {covered:.0%} of fit_s")
        metrics["trace.fit_coverage"] = covered
        batches_run = info.get("predict_batches") or 0
        metrics["serving.server.rows_per_batch"] = (
            info["predict_rows_batched"] / batches_run if batches_run else 0.0)
        metrics["serving.server.snapshot_failures"] = float(info["snapshot_failures"])
        metrics.update(loadgen)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
def environment() -> dict:
    from repro.engine import NUMBA_AVAILABLE, resolve_engine_kind

    n_values = DATA["n_features"] * DATA["n_categories"]
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "numba": NUMBA_AVAILABLE,
        "engine": {name: resolve_engine_kind("auto", spec["n_objects"], n_values)
                   for name, spec in WORKLOADS.items()},
        "blas_threads": blas or f"unset (OpenBLAS default: {os.cpu_count()})",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def one_pass(args) -> dict:
    """Run the workload once in this process; never raises."""
    ws = Workspace(bool(args.trace))
    try:
        return {"ok": True, **run_pass(args.workload, args.seed, args.seconds, bool(args.trace), ws)}
    except CheckFailed as exc:
        log(f"CHECK FAILED: {exc}")
    except Exception:  # noqa: BLE001 - any failure is reported, not raised
        import traceback

        log("run failed:\n" + traceback.format_exc())
    finally:
        ws.close()
    return {"ok": False, "attempted": 1, "failed": 1, "metrics": {}}


def child_pass(args, seconds: int, trace: int, deadline: float) -> dict:
    """Run one pass in a fresh interpreter (its own caches, RSS and wrappers)."""
    remaining = deadline - clock()
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
               "--pass-deadline", f"{remaining - 3.0:.1f}"]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, remaining))
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(15.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {"ok": False, "attempted": 1, "failed": 1,
                                                "metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-deadline", type=float, default=None,
                        help=argparse.SUPPRESS)  # internal: one pass, raw output
    args = parser.parse_args(argv)

    benchmark_file = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not benchmark_file.is_file():
        log(f"no repro sources or BENCHMARK.json under {ROOT}; run from a repository checkout")
        return 2
    sys.path.insert(0, str(SRC))
    benchmark = json.loads(benchmark_file.read_text())

    def interrupted(signum, frame):
        raise SystemExit(128 + signum)

    def overdue(signum, frame):
        raise TimeoutError("the run took longer than its deadline")

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGALRM, overdue)
    budget = args.pass_deadline if args.pass_deadline is not None else RUN_DEADLINE_S
    signal.alarm(max(1, int(budget)))
    deadline = clock() + budget

    if args.pass_deadline is not None:
        print(json.dumps(one_pass(args)), flush=True)
        return 0
    log(f"environment: {json.dumps(environment())}")
    if args.trace:
        # Two passes must fit in one run's time: each gets half the seconds.
        seconds = max(6, args.seconds // 2)
        untraced = child_pass(args, seconds, 0, deadline - RUN_DEADLINE_S / 2)
        traced = child_pass(args, seconds, 1, deadline)
        passes = [untraced, traced]
        metrics = dict(traced["metrics"])
        for entry in benchmark["end_to_end"]:
            name = entry["name"]
            if name in traced["metrics"] and name in untraced["metrics"]:
                metrics[f"overhead.{name}"] = traced["metrics"][name] - untraced["metrics"][name]
        names = benchmark["per_layer"]
    else:
        passes = [one_pass(args)]
        metrics = passes[0]["metrics"]
        names = benchmark["end_to_end"]
    correct = all(p["ok"] for p in passes)
    missing = [entry["name"] for entry in names if entry["name"] not in metrics]
    if correct and missing:
        log(f"metrics not produced: {missing}")
        correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, sum(p["attempted"] for p in passes)),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in names
        } if correct else {},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
