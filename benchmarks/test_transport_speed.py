"""Benchmark: sweep throughput of the serial and TCP backends.

One MGCPL sweep is the unit of work of the whole distributed runtime: the
coordinator broadcasts ``O(k * M)`` counts, every shard runs the competition
for its objects, and the shard states merge back.  This benchmark times that
round trip through ``make_executor`` for every registered backend on the
same data and shard layout, which puts a number on the transport's overhead
(loopback TCP pays two codec passes and a socket hop per shard per sweep;
serial pays nothing).

The default size is scaled down so the suite stays fast; export
``REPRO_BENCH_FULL=1`` for the acceptance scale.  Throughput assertions are
not armed in the sweep comparison — relative backend speed is
machine-dependent — but both backends must produce **bit-identical** sweep
outcomes, which is asserted on every run.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks import reporting
from repro.core.mgcpl import cluster_weight_from_delta, winning_ratio
from repro.core.sync import SweepBroadcast
from repro.data.generators import make_categorical_clusters
from repro.distributed import make_executor
from repro.distributed.rpc import local_worker_pool

FULL_SCALE = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

BENCH_N = 100_000 if FULL_SCALE else 6_000
BENCH_D = 12
BENCH_K = 24
BENCH_SHARDS = 4
N_SWEEPS = 8 if FULL_SCALE else 3


def _bench_dataset():
    return make_categorical_clusters(
        n_objects=BENCH_N, n_features=BENCH_D, n_clusters=6, n_categories=6,
        purity=0.75, random_state=31, name="transport-speed",
    )


def _run_sweeps(executor, labels, k, d):
    """Drive ``N_SWEEPS`` broadcast/sweep rounds; returns the last outcome."""
    state = executor.begin_epoch(k, labels)
    outcome = None
    for _ in range(N_SWEEPS):
        broadcast = SweepBroadcast(
            state=state,
            u=cluster_weight_from_delta(np.ones(k)),
            rho=winning_ratio(np.zeros(k)),
            omega=np.full((d, k), 1.0 / d),
            blocked=(state.sizes <= 0),
        )
        outcome = executor.sweep(broadcast)
        state = outcome.state
    return outcome


def test_transport_sweep_throughput(benchmark):
    ds = _bench_dataset()
    codes, cats = ds.codes, list(ds.n_categories)
    d = codes.shape[1]
    rng = np.random.default_rng(0)
    labels = rng.integers(0, BENCH_K, size=codes.shape[0]).astype(np.int64)

    outcomes, seconds = {}, {}

    def timed(backend_name, **options):
        with make_executor(
            backend_name, codes, cats, shards=BENCH_SHARDS, **options
        ) as executor:
            start = time.perf_counter()
            outcome = _run_sweeps(executor, labels, BENCH_K, d)
            seconds[backend_name] = time.perf_counter() - start
        outcomes[backend_name] = outcome

    def all_backends():
        timed("serial")
        with local_worker_pool(BENCH_SHARDS) as hosts:
            timed("tcp", hosts=hosts)

    benchmark.pedantic(all_backends, iterations=1, rounds=1)

    for name, elapsed in seconds.items():
        benchmark.extra_info[f"{name}_seconds"] = elapsed
        benchmark.extra_info[f"{name}_sweeps_per_s"] = N_SWEEPS / max(elapsed, 1e-9)
        reporting.record(
            "transport",
            f"sweep_throughput_{name}",
            n=BENCH_N,
            d=BENCH_D,
            k=BENCH_K,
            wall_seconds=elapsed,
            throughput=BENCH_N * N_SWEEPS / max(elapsed, 1e-9),
            n_shards=BENCH_SHARDS,
            n_sweeps=N_SWEEPS,
        )
    benchmark.extra_info["n_objects"] = BENCH_N
    benchmark.extra_info["n_shards"] = BENCH_SHARDS

    # The transport must not change the math: the tcp final sweep is
    # bit-identical (same shard layout, same merge order, exact codecs).
    reference, over_tcp = outcomes["serial"], outcomes["tcp"]
    np.testing.assert_array_equal(over_tcp.labels, reference.labels)
    np.testing.assert_array_equal(over_tcp.state.packed, reference.state.packed)
    np.testing.assert_array_equal(over_tcp.win_counts, reference.win_counts)


def test_tcp_worker_recovery_time(benchmark):
    """Wall-clock cost of losing a worker mid-fit (SIGKILL, no goodbye).

    A subprocess worker holds one shard; it is killed between two sweeps and
    the resilient executor must re-place the shard on a surviving in-process
    worker and finish with bit-identical results.  The recorded
    ``recovery_seconds`` (detect + reconnect + replay) is the runtime's
    MTTR for one shard at this scale and lands in ``BENCH_transport.json``.
    """
    import re
    import subprocess
    import sys

    ds = make_categorical_clusters(
        n_objects=4_000, n_features=10, n_clusters=4, n_categories=5,
        purity=0.8, random_state=11, name="recovery",
    )
    codes, cats = ds.codes, list(ds.n_categories)
    k, d = 6, codes.shape[1]
    rng = np.random.default_rng(0)
    labels = rng.integers(0, k, size=codes.shape[0]).astype(np.int64)

    def victim_worker():
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONUNBUFFERED="1"),
        )
        match = re.search(r"listening on (\S+)", process.stdout.readline())
        assert match, "worker did not announce its address"
        return process, match.group(1)

    def killed_fit():
        with local_worker_pool(2) as survivors:
            process, doomed = victim_worker()
            try:
                with make_executor(
                    "tcp", codes, cats, shards=3,
                    hosts=[doomed] + list(survivors), max_retries=2,
                ) as executor:
                    _run_sweeps(executor, labels, k, d)
                    process.kill()
                    process.wait(timeout=10)
                    outcome = _run_sweeps(executor, labels, k, d)
                    assert executor.recovery_events, "no recovery happened"
                    return outcome, executor.recovery_events[0]
            finally:
                if process.poll() is None:
                    process.kill()
                process.wait(timeout=10)

    start = time.perf_counter()
    outcome, event = benchmark.pedantic(killed_fit, iterations=1, rounds=1)
    wall = time.perf_counter() - start

    with make_executor("serial", codes, cats, shards=3) as reference:
        expected = _run_sweeps(reference, labels, k, d)
        expected = _run_sweeps(reference, labels, k, d)
    np.testing.assert_array_equal(outcome.labels, expected.labels)

    benchmark.extra_info["recovery_seconds"] = event["recovery_seconds"]
    benchmark.extra_info["recovery_attempts"] = event["attempts"]
    reporting.record(
        "transport",
        "tcp_worker_recovery",
        n=codes.shape[0],
        d=d,
        k=k,
        wall_seconds=wall,
        recovery_seconds=event["recovery_seconds"],
        recovery_attempts=event["attempts"],
        recovery_method=event["method"],
        n_shards=3,
    )
    assert event["recovery_seconds"] >= 0


def test_tcp_handshake_ships_codes_once(benchmark):
    """Connect cost is one codes shipment; sweeps move only O(k*M) counts."""
    ds = make_categorical_clusters(
        n_objects=2_000, n_features=10, n_clusters=4, n_categories=5,
        purity=0.8, random_state=3, name="handshake",
    )
    codes, cats = ds.codes, list(ds.n_categories)

    def connect_and_sweep():
        with local_worker_pool(2) as hosts:
            with make_executor("tcp", codes, cats, shards=2, hosts=hosts) as executor:
                return _run_sweeps(
                    executor,
                    np.zeros(codes.shape[0], dtype=np.int64),
                    4,
                    codes.shape[1],
                )

    outcome = benchmark.pedantic(connect_and_sweep, iterations=1, rounds=1)
    assert outcome is not None and outcome.labels.shape[0] == codes.shape[0]
    if not FULL_SCALE:
        pytest.skip("smoke run: timings recorded, no thresholds asserted")
