"""Sharded quickstart: run MGCPL/MCDC over shards, in-process and over TCP.

The sharded runtime partitions the coded data once, keeps each shard
resident where it is swept — in the caller's process with the default
``"serial"`` backend, behind a ``repro worker`` with ``"tcp"`` — and per
sweep exchanges only the merged count statistics (a few hundred KB), never
the data.  Both backends give bit-identical labels for the same shards.
The results match the unsharded estimators: exactly for the merged counts
and CAME, and to floating-point tolerance for MGCPL's competition
trajectory.

Run with ``PYTHONPATH=src python examples/sharded_clustering.py``.
"""

import time

import numpy as np

from repro.core import MCDC, MGCPL
from repro.data.generators import make_categorical_clusters
from repro.distributed import MultiGranularPartitioner, ShardedMCDC, ShardedMGCPL
from repro.distributed.rpc import local_worker_pool
from repro.metrics import adjusted_rand_index


def timed(fit):
    start = time.perf_counter()
    model = fit()
    return model, time.perf_counter() - start


def main() -> None:
    dataset = make_categorical_clusters(
        n_objects=20_000, n_features=12, n_clusters=5, n_categories=6,
        purity=0.8, random_state=0, name="sharded-demo",
    )
    params = dict(k0=24, max_epochs=3, random_state=0)

    serial, serial_s = timed(lambda: MGCPL(**params).fit(dataset))

    # Two contiguous shards, first in-process (each shard's sweep uses the
    # host's cores through block workers), then on two loopback workers —
    # the same protocol `repro worker` hosts on other machines serve.
    sharded, sharded_s = timed(lambda: ShardedMGCPL(n_shards=2, **params).fit(dataset))
    with local_worker_pool(2) as hosts:
        over_tcp, tcp_s = timed(lambda: ShardedMGCPL(
            n_shards=2, backend="tcp", hosts=hosts, **params
        ).fit(dataset))
    assert np.array_equal(sharded.labels_, over_tcp.labels_), "tcp labels differ"

    print(f"MGCPL:                kappa={serial.kappa_}  ({serial_s:.2f}s)")
    print(f"ShardedMGCPL serial:  kappa={sharded.kappa_}  ({sharded_s:.2f}s, 2 shards)")
    print(f"ShardedMGCPL tcp:     kappa={over_tcp.kappa_}  ({tcp_s:.2f}s, 2 workers)")
    print(f"label agreement with MGCPL (ARI): "
          f"{adjusted_rand_index(serial.labels_, sharded.labels_):.4f}")
    print("serial and tcp labels bit-identical: True")

    # Shards can also come from the multi-granular pre-partitioner, so the
    # runtime's data placement preserves the locality structure MGCPL found.
    plan = MultiGranularPartitioner(4, random_state=0).fit_partition(dataset)
    locality_sharded = ShardedMGCPL(n_shards=plan, **params).fit(dataset)
    print(f"partitioner-backed shards: kappa={locality_sharded.kappa_}")

    # The full pipeline, sharded end to end (MGCPL epochs + CAME aggregation).
    labels = ShardedMCDC(n_clusters=5, n_shards=2, random_state=0).fit_predict(dataset)
    reference = MCDC(n_clusters=5, random_state=0).fit_predict(dataset)
    print(f"ShardedMCDC vs MCDC ARI: {adjusted_rand_index(reference, labels):.4f}")
    print(f"ShardedMCDC vs truth ARI: {adjusted_rand_index(dataset.labels, labels):.4f}")


if __name__ == "__main__":
    main()
