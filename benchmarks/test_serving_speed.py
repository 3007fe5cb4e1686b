"""Benchmark: serving-tier saturation — pipelining, batching, replicas.

The serving tier's throughput story (ISSUE 7): a fleet of concurrent
clients hammering one served model with single-row predicts.  The strict
request/response path pays one full frame round-trip and one kernel launch
per row; the pipelined client (tagged requests, read-ahead replies) plus the
server-side micro-batcher (one read-lock + one kernel per coalesced batch)
collapse both costs across every connected client.  Every measured
configuration lands in ``BENCH_serving.json`` (via
:mod:`benchmarks.reporting`, commit-stamped), so the saturation trajectory
— predictions/sec as clients × batch knobs × replicas vary — is data in
the tree.

Armed assertion: at 64 concurrent clients, batched+pipelined predicts must
be at least **3x** the sequential per-row throughput, in the median of three
alternating pairs (each side on a fresh server).  The sequential path
spends its budget on per-request system calls, thread hand-offs and kernel
launches; the pipelined path shares them across a batch, and the batcher
answers each session's share of a batch with one frame.  On a shared 2-CPU
host the measured margin has a median of 5.4x over 20 runs, 4.1x at the
lowest (it was ~10x on one CPU while the sequential path still paid npz
framing on every request).  Every benchmark also asserts the labels are
bit-identical to the in-process model — speed never changes the answer.

Scaled down by default; export ``REPRO_BENCH_FULL=1`` for the acceptance
scale.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import numpy as np

from benchmarks import reporting
from repro.data.generators import make_categorical_clusters
from repro.registry import make_clusterer
from repro.serving import ServingClient, route_serving, serve_model

FULL_SCALE = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

N_CLIENTS = 64
SEQ_REQUESTS = 100 if FULL_SCALE else 25      # per client, strict path
PIPE_REQUESTS = 400 if FULL_SCALE else 100    # per client, pipelined path
GATE_PAIRS = 3                                # alternating seq/pipelined pairs
FIT_N, FIT_D, FIT_K = 3000, 12, 8


def _fitted_model():
    ds = make_categorical_clusters(
        n_objects=FIT_N, n_features=FIT_D, n_clusters=FIT_K, n_categories=6,
        purity=0.75, random_state=11, name="serving-speed",
    )
    model = make_clusterer("kmodes", n_clusters=FIT_K, n_init=1, random_state=0)
    return model.fit(ds), np.ascontiguousarray(ds.codes, dtype=np.int64)


_MODEL_CACHE = []


def _shared_model():
    if not _MODEL_CACHE:
        _MODEL_CACHE.append(_fitted_model())
    return _MODEL_CACHE


def _drive_clients(n_clients, address, requests, rows, reference, pipelined):
    """``n_clients`` threads × ``requests`` single-row predicts; returns the
    wall seconds of the loaded phase (connections are set up beforehand)."""
    errors = []
    barrier = threading.Barrier(n_clients + 1)

    def worker(client_id):
        try:
            with ServingClient(address) as client:
                barrier.wait()  # connect + handshake outside the clock
                if pipelined:
                    futures = [
                        client.predict_async(rows[(client_id + i) % rows.shape[0], None])
                        for i in range(requests)
                    ]
                    results = client.gather(*futures)
                else:
                    results = [
                        client.predict(rows[(client_id + i) % rows.shape[0], None])
                        for i in range(requests)
                    ]
                for i, labels in enumerate(results):
                    expected = reference[(client_id + i) % rows.shape[0]]
                    if labels.shape != (1,) or labels[0] != expected:
                        raise AssertionError(
                            f"client {client_id} request {i}: got {labels}, "
                            f"expected [{expected}]"
                        )
        except Exception as exc:  # noqa: BLE001 - surfaced by the main thread
            errors.append(exc)
            try:
                barrier.abort()
            except threading.BrokenBarrierError:  # pragma: no cover
                pass

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return elapsed


def _timed_phase(model, codes, reference, pipelined):
    """One loaded phase on a fresh server; returns (seconds, server info)."""
    server = serve_model(model, max_batch_rows=4096 if pipelined else 0)
    try:
        seconds = _drive_clients(
            N_CLIENTS, server.address, PIPE_REQUESTS if pipelined else SEQ_REQUESTS,
            codes, reference, pipelined=pipelined,
        )
        info = server.info()
    finally:
        assert server.stop(timeout=15)
    return seconds, info


def test_batched_pipelining_beats_sequential_at_64_clients(benchmark):
    """The armed 3x: pipelined+batched vs strict per-row, 64 clients.

    One sample of each side under a varying host load once read 2.84x, so
    the gate compares the median of :data:`GATE_PAIRS` alternating
    sequential/pipelined pairs, each side on a fresh server.
    """
    model, codes = _shared_model()[0]
    reference = model.predict(codes)
    seq_total = N_CLIENTS * SEQ_REQUESTS
    pipe_total = N_CLIENTS * PIPE_REQUESTS

    def pairs():
        runs = []
        for index in range(GATE_PAIRS):
            order = (False, True) if index % 2 == 0 else (True, False)
            timed = {pipelined: _timed_phase(model, codes, reference, pipelined)
                     for pipelined in order}
            runs.append((timed[False][0], timed[True][0], timed[True][1]))
        return runs

    runs = benchmark.pedantic(pairs, iterations=1, rounds=1)
    seq_seconds = [seq for seq, _, _ in runs]
    pipe_seconds = [pipe for _, pipe, _ in runs]
    speedups = [(pipe_total / pipe) / (seq_total / seq) for seq, pipe, _ in runs]
    speedup = float(np.median(speedups))
    seq_tp = seq_total / float(np.median(seq_seconds))
    pipe_tp = pipe_total / float(np.median(pipe_seconds))
    server_info = runs[-1][2]

    reporting.record(
        "serving", "predict_sequential_64_clients",
        n=seq_total, d=FIT_D, k=FIT_K,
        wall_seconds=float(np.median(seq_seconds)), throughput=seq_tp,
        clients=N_CLIENTS, requests_per_client=SEQ_REQUESTS,
        max_batch_rows=0, pipelined=False,
        pairs=GATE_PAIRS, pair_wall_seconds=seq_seconds, pair_speedups=speedups,
    )
    reporting.record(
        "serving", "predict_batched_pipelined_64_clients",
        n=pipe_total, d=FIT_D, k=FIT_K,
        wall_seconds=float(np.median(pipe_seconds)), throughput=pipe_tp,
        speedup=speedup,
        clients=N_CLIENTS, requests_per_client=PIPE_REQUESTS,
        max_batch_rows=4096, pipelined=True,
        baseline="predict_sequential_64_clients",
        pairs=GATE_PAIRS, pair_wall_seconds=pipe_seconds, pair_speedups=speedups,
        predict_batches=server_info["predict_batches"],
        largest_predict_batch=server_info["largest_predict_batch"],
    )
    benchmark.extra_info["sequential_predicts_per_s"] = seq_tp
    benchmark.extra_info["pipelined_predicts_per_s"] = pipe_tp
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["pair_speedups"] = speedups

    # Armed: batching+pipelining must pay for itself (median 5.4x on a
    # shared 2-CPU host; see the module docstring).
    assert speedup >= 3.0, (
        f"batched+pipelined is only {speedup:.2f}x the sequential path at "
        f"{N_CLIENTS} clients in the median of {GATE_PAIRS} pairs "
        f"(pairs: {', '.join(f'{x:.2f}x' for x in speedups)}; needs >= 3x)"
    )


def test_batch_knob_grid(benchmark):
    """Throughput across the batching knobs (recorded, not armed)."""
    model, codes = _shared_model()[0]
    reference = model.predict(codes)
    clients = 8
    requests = PIPE_REQUESTS if FULL_SCALE else 50

    def sweep():
        results = {}
        for max_rows in (1, 64, 4096):
            server = serve_model(model, max_batch_rows=max_rows)
            try:
                seconds = _drive_clients(
                    clients, server.address, requests, codes, reference,
                    pipelined=True,
                )
            finally:
                assert server.stop(timeout=15)
            throughput = clients * requests / seconds
            results[max_rows] = (seconds, throughput)
            reporting.record(
                "serving", "predict_batch_knob_grid",
                n=clients * requests, d=FIT_D, k=FIT_K,
                wall_seconds=seconds, throughput=throughput,
                clients=clients, requests_per_client=requests,
                max_batch_rows=max_rows, pipelined=True,
            )
        return results

    results = benchmark.pedantic(sweep, iterations=1, rounds=1)
    for max_rows, (_, throughput) in results.items():
        benchmark.extra_info[f"rows{max_rows}_predicts_per_s"] = throughput


def test_wal_ingest_overhead(benchmark, tmp_path):
    """Ingest throughput with the write-ahead log at each sync level vs no
    WAL (recorded, not armed: the interesting number is the overhead factor,
    which depends on the disk).  Exactness is the assertion — WAL-logged
    ingest must land bit-identical state to plain ingest."""
    from repro.persistence import save_model

    model, codes = _shared_model()[0]
    n_batches = 100 if FULL_SCALE else 30
    rows = 256 if FULL_SCALE else 64
    rng = np.random.default_rng(7)
    batch_list = [
        np.ascontiguousarray(
            codes[rng.integers(0, codes.shape[0], size=rows)], dtype=np.int64
        )
        for _ in range(n_batches)
    ]

    def measure(config_name, **server_kwargs):
        workdir = tmp_path / config_name
        workdir.mkdir()
        model_file = workdir / "model.npz"
        save_model(model, model_file)
        server = serve_model(model_file, **server_kwargs)
        try:
            with ServingClient(server.address) as client:
                started = time.perf_counter()
                for batch in batch_list:
                    client.ingest(batch)
                seconds = time.perf_counter() - started
            state = server.model.assignment_model_.state
            arrays = (
                np.array(state.packed),
                np.array(state.valid_counts),
                np.array(state.sizes),
            )
        finally:
            assert server.stop(timeout=15)
        return seconds, arrays

    def sweep():
        results = {}
        results["off"] = measure("off")
        for sync in ("none", "batch", "always"):
            results[sync] = measure(sync, wal=True, wal_sync=sync)
        return results

    results = benchmark.pedantic(sweep, iterations=1, rounds=1)

    # Speed never changes the answer: every configuration ends bit-identical.
    for sync, (_, arrays) in results.items():
        for got, want in zip(arrays, results["off"][1]):
            np.testing.assert_array_equal(got, want, err_msg=f"wal_sync={sync}")

    total_rows = n_batches * rows
    off_seconds = results["off"][0]
    for sync, (seconds, _) in results.items():
        throughput = total_rows / seconds
        reporting.record(
            "serving", "ingest_wal_overhead",
            n=total_rows, d=FIT_D, k=FIT_K,
            wall_seconds=seconds, throughput=throughput,
            batches=n_batches, rows_per_batch=rows,
            wal_sync=sync,
            ingest_overhead_x=max(seconds / off_seconds, 1e-9),
            baseline="ingest_wal_overhead[off]",
        )
        benchmark.extra_info[f"wal_{sync}_ingests_per_s"] = throughput


def test_replica_group_throughput(benchmark):
    """Router + replicas serve exact reads under load (recorded, not armed:
    on one CPU every extra replica shares the same core, so the scaling
    claim would be vacuous here — exactness is the assertion instead)."""
    model, codes = _shared_model()[0]
    reference = model.predict(codes)
    clients = 16
    requests = PIPE_REQUESTS if FULL_SCALE else 50

    primary = serve_model(model, max_batch_rows=4096)
    replicas, router = [], None
    try:
        replicas = [
            serve_model(None, replica_of=primary.address, max_batch_rows=4096)
            for _ in range(2)
        ]
        router = route_serving(
            primary=primary.address, replicas=[r.address for r in replicas]
        )

        def loaded_phase():
            return _drive_clients(
                clients, router.address, requests, codes, reference,
                pipelined=True,
            )

        seconds = benchmark.pedantic(loaded_phase, iterations=1, rounds=1)
        routed = router.info()["routed_predicts"]
    finally:
        if router is not None:
            assert router.stop(timeout=15)
        for replica in replicas:
            assert replica.stop(timeout=15)
        assert primary.stop(timeout=15)

    throughput = clients * requests / seconds
    # Round-robin must actually spread the sessions across both replicas.
    assert all(count > 0 for count in routed.values()), routed
    reporting.record(
        "serving", "predict_routed_2_replicas",
        n=clients * requests, d=FIT_D, k=FIT_K,
        wall_seconds=seconds, throughput=throughput,
        clients=clients, requests_per_client=requests,
        max_batch_rows=4096, pipelined=True, replicas=2,
    )
    benchmark.extra_info["routed_predicts_per_s"] = throughput


# ---------------------------------------------------------------------- #
# Cold start: spawn a `repro serve` process -> first answered client
# ---------------------------------------------------------------------- #
REPO_SRC = os.path.join(reporting.REPO_ROOT, "src")
COLD_SPAWNS = 10 if FULL_SCALE else 3
COLD_FIT_N = 50_000 if FULL_SCALE else 3000


def perfbench_shaped_archive(path, n_objects=COLD_FIT_N, seed=1):
    """Save ``MCDC(n_clusters=8)`` fitted on perfbench's data shape to ``path``."""
    from repro.persistence import save_model

    ds = make_categorical_clusters(
        n_objects=n_objects, n_features=12, n_clusters=8, n_categories=6,
        purity=0.75, random_state=seed, name="cold-start",
    )
    return save_model(make_clusterer("mcdc", n_clusters=8, random_state=seed).fit(ds), path)


def steal_ticks():
    """The host's cumulative CPU steal ticks (``/proc/stat``; 0 if unreadable)."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def _peak_rss_mb(pid):
    """A live process's peak resident set (``VmHWM``) in MB; ``nan`` if unknown."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return float("nan")


def spawn_to_first_answer(model_path, src=REPO_SRC, python_flags=(), stderr_path=None):
    """Spawn ``repro serve MODEL`` from ``src``; time it to the first welcome.

    Returns ``(seconds, child peak RSS in MB)``.  The clock runs from just
    before the spawn until the first client's handshake is answered; the
    child is then shut down through the protocol.
    """
    env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=src)
    with open(stderr_path or os.devnull, "wb") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *python_flags, "-m", "repro", "serve", str(model_path),
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=os.path.dirname(src),
        )
        try:
            for line in proc.stdout:
                if b" listening on " in line:
                    address = line.rsplit(b" ", 1)[1].decode().strip()
                    break
            else:
                raise RuntimeError(f"repro serve exited with {proc.wait()} before listening")
            client = ServingClient(address, timeout=30.0).connect()
            seconds = time.perf_counter() - started
            peak_mb = _peak_rss_mb(proc.pid)
            client.shutdown_server()
            proc.wait(30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    return seconds, peak_mb


def test_cold_start_to_first_answer(benchmark, tmp_path):
    """Spawn -> first welcome of ``repro serve`` on an MCDC archive (recorded,
    not armed: the time is mostly interpreter and import start-up, which host
    load moves).  Asserts that the server never imports ``networkx``."""
    model_path = perfbench_shaped_archive(tmp_path / "model.npz")

    def spawns():
        steal_before = steal_ticks()
        runs = [spawn_to_first_answer(model_path) for _ in range(COLD_SPAWNS)]
        return runs, steal_ticks() - steal_before

    runs, steal = benchmark.pedantic(spawns, iterations=1, rounds=1)
    seconds = np.array([s for s, _ in runs])
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    peak_mb = float(np.median([mb for _, mb in runs]))

    # One more spawn, untimed, lists the child's imports.
    imports = tmp_path / "importtime.txt"
    spawn_to_first_answer(model_path, python_flags=("-X", "importtime"), stderr_path=imports)
    imported = {line.rsplit("|", 1)[1].strip() for line in imports.read_text().splitlines()
                if line.startswith("import time:") and "|" in line}
    assert "repro.serving.server" in imported, "importtime listing is empty"
    assert not {"networkx", "repro.baselines"} & imported

    reporting.record(
        "serving", "serve_cold_start",
        n=COLD_FIT_N, d=12, k=8, wall_seconds=float(median),
        q1_seconds=float(q1), q3_seconds=float(q3), repeats=COLD_SPAWNS,
        child_peak_rss_mb=peak_mb, steal_ticks=steal,
        subject="spawn of 'repro serve MODEL' to the first answered handshake",
    )
    benchmark.extra_info["median_seconds"] = float(median)
    benchmark.extra_info["child_peak_rss_mb"] = peak_mb
