"""Benchmark: constant-time ``ingest`` vs a scratch refit.

A fitted model is kept current over a concept-drift stream
(``make_drift_stream``).  Two ways to absorb ``B`` batches:

* **ingest** — ``MGCPL.ingest`` assigns each batch with the fitted
  assignment model and merges its counts exactly; its cost is the batch, not
  the history.
* **scratch refit** — one ``MGCPL`` fit over every accumulated row, the
  cheapest scratch schedule (any fresher cadence only widens the gap).

The armed assertion: ingesting the whole stream must beat that single
end-of-stream scratch refit by at least **5x** (the measured margin is two
orders of magnitude; 5x absorbs CI noise).  Both sides cap the epochs at
the same count, so the comparison is between paths, not convergence depth.

Scaled down by default; export ``REPRO_BENCH_FULL=1`` for the acceptance
scale.  ``REPRO_BENCH_RECORD=1`` appends the measurement to
``BENCH_streaming.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks import reporting
from repro.core.mgcpl import MGCPL
from repro.data.dataset import CategoricalDataset
from repro.data.generators import make_categorical_clusters, make_drift_stream

FULL_SCALE = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

BASE_N = 2400 if FULL_SCALE else 600
BATCH_ROWS = 400 if FULL_SCALE else 150
N_BATCHES = 6 if FULL_SCALE else 3
D, K, NCAT = 8, 3, 6
FIT_PARAMS = dict(max_epochs=4, random_state=0)


def _workload():
    base = make_categorical_clusters(
        n_objects=BASE_N, n_features=D, n_clusters=K, n_categories=NCAT,
        purity=0.8, random_state=3, name="ingest-speed",
    )
    stream = make_drift_stream(
        n_batches=N_BATCHES, batch_rows=BATCH_ROWS, n_features=D,
        n_clusters=K, n_categories=NCAT, drift=0.1, random_state=3,
    )
    return base, stream


def test_ingest_beats_scratch_refit(benchmark):
    """The armed 5x: absorbing the stream via ingest vs a scratch refit."""
    base, stream = _workload()
    rows_ingested = sum(batch.n_objects for batch in stream)
    full = CategoricalDataset.from_codes(
        np.concatenate([base.codes] + [batch.codes for batch in stream]),
        n_categories=base.n_categories, name="ingest-accumulated",
    )

    model = MGCPL(**FIT_PARAMS).fit(base)

    def absorb_stream():
        started = time.perf_counter()
        assigned = sum(model.ingest(batch).shape[0] for batch in stream)
        assert assigned == rows_ingested
        return time.perf_counter() - started

    ingest_seconds = benchmark.pedantic(absorb_stream, iterations=1, rounds=1)

    started = time.perf_counter()
    MGCPL(**FIT_PARAMS).fit(full)
    scratch_seconds = time.perf_counter() - started

    speedup = scratch_seconds / ingest_seconds
    reporting.record(
        "streaming", "ingest_vs_scratch_refit",
        n=rows_ingested, d=D, k=K,
        wall_seconds=ingest_seconds,
        throughput=rows_ingested / ingest_seconds,
        speedup=speedup,
        baseline="scratch_refit_accumulated",
        scratch_wall_seconds=scratch_seconds,
        n_batches=N_BATCHES,
    )
    benchmark.extra_info["ingest_vs_scratch_speedup"] = speedup

    assert speedup >= 5.0, (
        f"ingest ({ingest_seconds:.3f}s) is only {speedup:.2f}x the scratch "
        f"refit ({scratch_seconds:.2f}s) — needs >= 5x"
    )
