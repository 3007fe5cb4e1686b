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
be at least **3x** the sequential per-row throughput.  The sequential path
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


def test_batched_pipelining_beats_sequential_at_64_clients(benchmark):
    """The armed 3x: pipelined+batched vs strict per-row, 64 clients."""
    model, codes = _shared_model()[0]
    reference = model.predict(codes)

    sequential = serve_model(model, max_batch_rows=0)
    try:
        seq_seconds = _drive_clients(
            N_CLIENTS, sequential.address, SEQ_REQUESTS, codes, reference,
            pipelined=False,
        )
    finally:
        assert sequential.stop(timeout=15)
    seq_total = N_CLIENTS * SEQ_REQUESTS
    seq_tp = seq_total / seq_seconds

    batched = serve_model(model, max_batch_rows=4096)
    try:
        def loaded_phase():
            return _drive_clients(
                N_CLIENTS, batched.address, PIPE_REQUESTS, codes, reference,
                pipelined=True,
            )

        pipe_seconds = benchmark.pedantic(loaded_phase, iterations=1, rounds=1)
        server_info = batched.info()
    finally:
        assert batched.stop(timeout=15)
    pipe_total = N_CLIENTS * PIPE_REQUESTS
    pipe_tp = pipe_total / pipe_seconds
    speedup = pipe_tp / seq_tp

    reporting.record(
        "serving", "predict_sequential_64_clients",
        n=seq_total, d=FIT_D, k=FIT_K,
        wall_seconds=seq_seconds, throughput=seq_tp,
        clients=N_CLIENTS, requests_per_client=SEQ_REQUESTS,
        max_batch_rows=0, pipelined=False,
    )
    reporting.record(
        "serving", "predict_batched_pipelined_64_clients",
        n=pipe_total, d=FIT_D, k=FIT_K,
        wall_seconds=pipe_seconds, throughput=pipe_tp, speedup=speedup,
        clients=N_CLIENTS, requests_per_client=PIPE_REQUESTS,
        max_batch_rows=4096, pipelined=True,
        baseline="predict_sequential_64_clients",
        predict_batches=server_info["predict_batches"],
        largest_predict_batch=server_info["largest_predict_batch"],
    )
    benchmark.extra_info["sequential_predicts_per_s"] = seq_tp
    benchmark.extra_info["pipelined_predicts_per_s"] = pipe_tp
    benchmark.extra_info["speedup"] = speedup

    # Armed: batching+pipelining must pay for itself (median 5.4x on a
    # shared 2-CPU host; see the module docstring).
    assert speedup >= 3.0, (
        f"batched+pipelined {pipe_tp:.0f}/s is only {speedup:.2f}x the "
        f"sequential {seq_tp:.0f}/s at {N_CLIENTS} clients (needs >= 3x)"
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
