"""Sharded quickstart: run MGCPL/MCDC across worker processes.

The sharded runtime partitions the coded data once, keeps each shard
resident in its own worker process (the default ``"shm"`` backend maps the
data from one shared-memory segment and keeps its worker pools alive between
fits), and per sweep exchanges only the merged
count statistics (a few hundred KB) — never the data.  The results match the
serial estimators: exactly for the merged counts and CAME, and to
floating-point tolerance for MGCPL's competition trajectory.

Run with ``PYTHONPATH=src python examples/sharded_clustering.py``.
"""

import time

from repro.core import MCDC, MGCPL
from repro.data.generators import make_categorical_clusters
from repro.distributed import MultiGranularPartitioner, ShardedMCDC, ShardedMGCPL, shm
from repro.metrics import adjusted_rand_index


def main() -> None:
    dataset = make_categorical_clusters(
        n_objects=20_000, n_features=12, n_clusters=5, n_categories=6,
        purity=0.8, random_state=0, name="sharded-demo",
    )
    params = dict(k0=24, max_epochs=3, random_state=0)

    start = time.perf_counter()
    serial = MGCPL(**params).fit(dataset)
    serial_s = time.perf_counter() - start

    # Contiguous sharding over 4 worker processes.  On a single-core machine
    # swap backend="shm" for backend="serial" to run the same protocol
    # without pools.  The first (cold) fit spawns the worker pools; the
    # second (warm) fit reuses them, resident since the first one closed.
    shm.shutdown()
    start = time.perf_counter()
    sharded = ShardedMGCPL(n_shards=4, backend="shm", **params).fit(dataset)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = ShardedMGCPL(n_shards=4, backend="shm", **params).fit(dataset)
    warm_s = time.perf_counter() - start

    print(f"serial MGCPL:  kappa={serial.kappa_}  ({serial_s:.2f}s)")
    print(f"sharded MGCPL: kappa={sharded.kappa_}  "
          f"(cold {cold_s:.2f}s, warm {warm_s:.2f}s, 4 workers)")
    print(f"label agreement (ARI): {adjusted_rand_index(serial.labels_, sharded.labels_):.4f}")
    print(f"cold vs warm fit identical: {(sharded.labels_ == warm.labels_).all()}")

    # Shards can also come from the multi-granular pre-partitioner, so the
    # runtime's data placement preserves the locality structure MGCPL found.
    plan = MultiGranularPartitioner(4, random_state=0).fit_partition(dataset)
    locality_sharded = ShardedMGCPL(n_shards=plan, backend="serial", **params).fit(dataset)
    print(f"partitioner-backed shards: kappa={locality_sharded.kappa_}")

    # The full pipeline, sharded end to end (MGCPL epochs + CAME aggregation).
    pipeline = ShardedMCDC(n_clusters=5, n_shards=4, backend="shm", random_state=0)
    labels = pipeline.fit_predict(dataset)
    reference = MCDC(n_clusters=5, random_state=0).fit_predict(dataset)
    print(f"ShardedMCDC vs MCDC ARI: {adjusted_rand_index(reference, labels):.4f}")
    print(f"ShardedMCDC vs truth ARI: {adjusted_rand_index(dataset.labels, labels):.4f}")
    shm.shutdown()


if __name__ == "__main__":
    main()
