"""Benchmark: sharded MGCPL wall-clock vs the serial batch engine.

Two measurements pin the sharded runtime into the bench trajectory:

* ``test_sharded_equivalence_smoke`` (always runs) — a small fit over the
  ``tcp`` backend on loopback ``repro worker`` servers
  (:func:`~repro.distributed.rpc.local_worker_pool`), asserting the sharded
  labels agree with the serial ones; this keeps the runtime exercised on
  every CI run.
* ``test_sharded_speedup`` — the acceptance measurement: serial vs 4-shard
  ``tcp`` wall clock on one Fig. 6-style epoch workload.  The default size
  is scaled down so the suite stays fast; export ``REPRO_BENCH_FULL=1`` for
  the n=200 000 acceptance scale.  The >1.5x speedup assertion is only armed
  when the machine actually has >= 4 cores to give (sharding cannot beat
  serial on a single core); on smaller machines the timings are still
  measured and reported via ``benchmark.extra_info``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.mgcpl import MGCPL
from repro.data.generators import make_categorical_clusters
from repro.distributed import ShardedMGCPL
from repro.distributed.rpc import local_worker_pool
from repro.metrics import adjusted_rand_index

FULL_SCALE = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

BENCH_N = 200_000 if FULL_SCALE else 8_000
BENCH_D = 16
BENCH_SHARDS = 4
#: Cap k0/sweeps so one epoch dominates and the serial/sharded comparison
#: times the same, bounded amount of work.
MGCPL_PARAMS = dict(k0=32, max_sweeps=6, max_epochs=1, random_state=13)


def _bench_dataset():
    return make_categorical_clusters(
        n_objects=BENCH_N, n_features=BENCH_D, n_clusters=6, n_categories=6,
        purity=0.75, random_state=21, name="sharded-speed",
    )


def test_sharded_equivalence_smoke(benchmark):
    ds = make_categorical_clusters(
        n_objects=4_000, n_features=10, n_clusters=4, n_categories=5,
        purity=0.8, random_state=5, name="sharded-smoke",
    )
    serial = MGCPL(**MGCPL_PARAMS).fit(ds)

    with local_worker_pool(2) as hosts:

        def sharded_fit():
            return ShardedMGCPL(
                n_shards=2, backend="tcp", hosts=hosts, **MGCPL_PARAMS
            ).fit(ds)

        model = benchmark.pedantic(sharded_fit, iterations=1, rounds=1)
    ari = adjusted_rand_index(serial.labels_, model.labels_)
    benchmark.extra_info["ari_vs_serial"] = float(ari)
    assert ari >= 0.95, f"sharded fit must match serial labels; ARI={ari:.3f}"


def test_sharded_speedup(benchmark):
    ds = _bench_dataset()

    start = time.perf_counter()
    serial = MGCPL(**MGCPL_PARAMS).fit(ds)
    serial_seconds = time.perf_counter() - start

    with local_worker_pool(BENCH_SHARDS) as hosts:

        def sharded_fit():
            return ShardedMGCPL(
                n_shards=BENCH_SHARDS, backend="tcp", hosts=hosts, **MGCPL_PARAMS
            ).fit(ds)

        start = time.perf_counter()
        model = benchmark.pedantic(sharded_fit, iterations=1, rounds=1)
        sharded_seconds = time.perf_counter() - start

    speedup = serial_seconds / max(sharded_seconds, 1e-9)
    benchmark.extra_info["n_objects"] = BENCH_N
    benchmark.extra_info["n_shards"] = BENCH_SHARDS
    benchmark.extra_info["serial_seconds"] = serial_seconds
    benchmark.extra_info["sharded_seconds"] = sharded_seconds
    benchmark.extra_info["speedup"] = speedup

    assert adjusted_rand_index(serial.labels_, model.labels_) >= 0.95

    cores = os.cpu_count() or 1
    if not FULL_SCALE or cores < BENCH_SHARDS:
        pytest.skip(
            f"speedup assertion needs REPRO_BENCH_FULL=1 and >= {BENCH_SHARDS} cores "
            f"(have REPRO_BENCH_FULL={'1' if FULL_SCALE else '0'}, {cores} cores); "
            f"measured {speedup:.2f}x at n={BENCH_N}"
        )
    assert speedup > 1.5, (
        f"sharded MGCPL with {BENCH_SHARDS} workers must be > 1.5x faster than serial "
        f"at n={BENCH_N}; got {speedup:.2f}x "
        f"(serial {serial_seconds:.2f}s vs sharded {sharded_seconds:.2f}s)"
    )
