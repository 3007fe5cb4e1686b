"""Micro-benchmark: packed similarity engine vs the seed loop implementation.

Measurements pinned into the ``BENCH_engine.json`` trajectory:

* ``test_similarity_matrix_throughput`` — one full similarity sweep at
  n=50 000, d=20, k=100 (the acceptance scale): the dense
  :class:`~repro.engine.packed.PackedFrequencyEngine` must be at least 3x
  faster than the seed per-feature loop implementation
  (:class:`~repro.engine.reference.LoopEngine`).
* ``test_fit_local_sweep_and_reassignment`` — record-only: one dense fused
  sweep (on the engine's block workers and on one) and one stranded-member
  reassignment at the repository benchmark's fit-local shape (n=50 000,
  d=12, 6 categories, k=224), median and IQR of :data:`REPEATS` runs each;
  smoke-scaled to n=5 000 unless ``REPRO_BENCH_FULL=1``.
* ``test_onehot_cache_reuses_encoding`` — the second fit over one data set
  must re-encode nothing (the one-hot cache hits) and not get slower.
* ``test_mgcpl_fit_wall_clock`` — a full MGCPL fit, packed vs loop backend,
  on the Fig. 6 synthetic family.  The default size is scaled down so the
  suite stays fast; export ``REPRO_BENCH_FULL=1`` to run the paper's full
  n=200 000 scale (the loop reference is skipped there — it needs minutes
  per sweep, which is the point of the engine).
* ``test_fit_peak_memory`` — record-only: the peak memory of
  ``MCDC(n_clusters=8).fit`` on perfbench's fit-local data, each repeat in
  fresh processes: the process's ``ru_maxrss`` (imports included, as
  perfbench's ``peak_rss_mb``) and, in a second process, the fit's
  ``tracemalloc`` peak (the engine's arrays alone); n=50 000 with
  ``REPRO_BENCH_FULL=1``, else smoke-scaled to 5 000.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time

import numpy as np

from benchmarks import reporting
from repro.core.mgcpl import MGCPL, cluster_weight_from_delta, winning_ratio
from repro.data.generators import make_categorical_clusters
from repro.engine import make_engine, state_from_labels
from repro.engine import packed as packed_mod

FULL_SCALE = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

SIM_N, SIM_D, SIM_K = 50_000, 20, 100
FIT_N = 200_000 if FULL_SCALE else 4_000
#: The repository benchmark's fit-local shape (``perfbench/run.py``).
LOCAL_N = 50_000 if FULL_SCALE else 5_000
LOCAL_D, LOCAL_CATS, LOCAL_K = 12, 6, 224
REPEATS = 7


def _sim_problem():
    ds = make_categorical_clusters(
        n_objects=SIM_N, n_features=SIM_D, n_clusters=8, n_categories=8,
        purity=0.7, random_state=42, name="engine-speed",
    )
    rng = np.random.default_rng(0)
    labels = rng.integers(0, SIM_K, size=SIM_N)
    omega = rng.random((SIM_D, SIM_K))
    return ds, labels, omega


def _best_of(fn, rounds: int = 3) -> float:
    best = np.inf
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_similarity_matrix_throughput(benchmark):
    ds, labels, omega = _sim_problem()
    cats = list(ds.n_categories)

    packed = make_engine(ds.codes, cats, SIM_K, kind="dense", labels=labels)
    loop = make_engine(ds.codes, cats, SIM_K, kind="loop", labels=labels)

    def packed_sweep():
        return packed.similarity_matrix(feature_weights=omega, exclude_labels=labels)

    def loop_sweep():
        return loop.similarity_matrix(feature_weights=omega, exclude_labels=labels)

    packed.similarity_matrix()  # warm the cached one-hot outside the timing
    packed_time = _best_of(packed_sweep)
    loop_time = _best_of(loop_sweep)
    speedup = loop_time / packed_time

    sims = benchmark.pedantic(packed_sweep, iterations=1, rounds=3)
    assert np.allclose(sims, loop_sweep(), atol=1e-12)
    benchmark.extra_info["loop_seconds"] = loop_time
    benchmark.extra_info["packed_seconds"] = packed_time
    benchmark.extra_info["speedup"] = speedup
    reporting.record(
        "engine",
        "similarity_matrix_dense_vs_loop",
        n=SIM_N,
        d=SIM_D,
        k=SIM_K,
        wall_seconds=packed_time,
        throughput=SIM_N / packed_time,
        speedup=speedup,
        baseline="loop",
        baseline_seconds=loop_time,
    )
    assert speedup >= 3.0, (
        f"packed engine must be >= 3x faster than the seed loop implementation at "
        f"n={SIM_N}, d={SIM_D}, k={SIM_K}; got {speedup:.2f}x "
        f"(loop {loop_time:.3f}s vs packed {packed_time:.3f}s)"
    )


def _median_iqr(seconds):
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return float(median), float(q3 - q1)


def test_fit_local_sweep_and_reassignment(benchmark, monkeypatch):
    """Record-only: the two per-level costs MGCPL pays at fit-local's shape.

    One dense fused ``competitive_sweep`` (an epoch's k=224 sweep) and one
    ``_reassign_dead_members`` with two thirds of the objects stranded.
    The sweep is timed on the engine's block workers and, for the speedup,
    on the calling thread alone (BLAS keeps its threads there).  Nothing is
    armed; the entry carries the median and IQR of each and the worker count.
    """
    ds = make_categorical_clusters(
        n_objects=LOCAL_N, n_features=LOCAL_D, n_clusters=8, n_categories=LOCAL_CATS,
        purity=0.75, random_state=1, name="fit-local",
    )
    codes, cats = ds.codes, list(ds.n_categories)
    rng = np.random.default_rng(0)
    labels = rng.integers(0, LOCAL_K, size=LOCAL_N)
    omega = rng.random((LOCAL_D, LOCAL_K))
    alive = rng.random(LOCAL_K) < 1 / 3
    state = state_from_labels(codes, cats, labels, LOCAL_K)
    engine = make_engine(codes, cats, LOCAL_K, kind="dense", labels=labels)
    u = cluster_weight_from_delta(np.ones(LOCAL_K))
    rho = winning_ratio(np.zeros(LOCAL_K))
    blocked = engine.sizes <= 0
    estimator = MGCPL(engine="dense")
    _, workers = engine._row_blocks(LOCAL_N)

    def sweep():
        return engine.competitive_sweep(labels, u, rho, omega, blocked)

    def reassign():
        return estimator._reassign_dead_members(codes, cats, labels, alive, omega, state)

    def timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    sweep(), reassign()  # warm the cached one-hot and the allocator
    sweep_median, sweep_iqr = _median_iqr([timed(sweep) for _ in range(REPEATS)])
    reassign_median, reassign_iqr = _median_iqr([timed(reassign) for _ in range(REPEATS)])
    assert alive[reassign()].all()
    threaded = [np.ascontiguousarray(part).tobytes() for part in sweep()]
    with monkeypatch.context() as patch:
        patch.setattr(packed_mod, "cpu_share", lambda: 1)
        single_median, single_iqr = _median_iqr([timed(sweep) for _ in range(REPEATS)])
        assert [np.ascontiguousarray(part).tobytes() for part in sweep()] == threaded

    benchmark.pedantic(sweep, iterations=1, rounds=1)
    benchmark.extra_info["sweep_median_seconds"] = sweep_median
    benchmark.extra_info["single_worker_sweep_median_seconds"] = single_median
    benchmark.extra_info["reassign_median_seconds"] = reassign_median
    reporting.record(
        "engine",
        "fit_local_sweep_and_reassignment",
        n=LOCAL_N,
        d=LOCAL_D,
        k=LOCAL_K,
        wall_seconds=sweep_median,
        throughput=LOCAL_N / sweep_median,
        speedup=single_median / sweep_median,
        baseline="one block worker, BLAS on every core",
        baseline_seconds=single_median,
        baseline_iqr_seconds=single_iqr,
        workers=workers,
        repeats=REPEATS,
        sweep_iqr_seconds=sweep_iqr,
        reassign_median_seconds=reassign_median,
        reassign_iqr_seconds=reassign_iqr,
        stranded=int((~alive[labels]).sum()),
    )


def test_onehot_cache_reuses_encoding(benchmark):
    """Restart fits over one data set hit the cached one-hot encoding."""
    ds = make_categorical_clusters(
        n_objects=4_000, n_features=10, n_clusters=5, n_categories=6,
        purity=0.75, random_state=11, name="onehot-cache",
    )
    cache = ds.onehot_cache()

    def fit(seed):
        start = time.perf_counter()
        MGCPL(engine="dense", max_epochs=4, random_state=seed).fit(ds)
        return time.perf_counter() - start

    cold_seconds = fit(0)
    hits_after_cold, misses_after_cold = cache.hits, cache.misses
    assert misses_after_cold >= 1
    warm_seconds = min(fit(seed) for seed in (1, 2))
    # The restarts re-encode nothing: no new misses, strictly more hits —
    # and reuse must not make fits slower (generous bound; the encode is a
    # small slice of a fit, so equality-ish is the expected outcome).
    assert cache.misses == misses_after_cold
    assert cache.hits > hits_after_cold
    assert warm_seconds <= cold_seconds * 1.10

    benchmark.pedantic(lambda: fit(3), iterations=1, rounds=1)
    benchmark.extra_info["cold_fit_seconds"] = cold_seconds
    benchmark.extra_info["warm_fit_seconds"] = warm_seconds
    reporting.record(
        "engine",
        "onehot_cache_restart_fit",
        n=4_000,
        d=10,
        wall_seconds=warm_seconds,
        speedup=cold_seconds / warm_seconds,
        baseline="cold_fit",
        baseline_seconds=cold_seconds,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )


def test_mgcpl_fit_wall_clock(benchmark):
    ds = make_categorical_clusters(
        n_objects=FIT_N, n_features=10, n_clusters=5, n_categories=6,
        purity=0.75, random_state=7, name="fig6-fit",
    )

    def packed_fit():
        return MGCPL(engine="auto", max_epochs=5, random_state=3).fit(ds)

    model = benchmark.pedantic(packed_fit, iterations=1, rounds=1)
    assert model.n_clusters_ >= 1
    assert len(model.kappa_) >= 1

    if not FULL_SCALE:
        # The loop reference is only affordable at the scaled-down size; at
        # n=200k a single loop sweep takes minutes, which is what the packed
        # engine exists to fix.
        start = time.perf_counter()
        MGCPL(engine="loop", max_epochs=5, random_state=3).fit(ds)
        loop_seconds = time.perf_counter() - start
        benchmark.extra_info["loop_fit_seconds"] = loop_seconds


REPO_SRC = os.path.join(reporting.REPO_ROOT, "src")
MEMORY_REPEATS = 5

#: One fit in a fresh interpreter, importing what perfbench's fit-local
#: pass imports before it fits; prints fit seconds, ``ru_maxrss`` and, when
#: traced, the ``tracemalloc`` peak of the fit alone.
_FIT_MEMORY_SCRIPT = textwrap.dedent("""
    import json, resource, sys, time, tracemalloc
    import numpy as np
    from repro import MCDC
    from repro.data.generators import make_categorical_clusters
    from repro.metrics.pair_counting import adjusted_rand_index

    n, seed, traced = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "1"
    data = make_categorical_clusters(
        n_objects=n, n_features=12, n_clusters=8, n_categories=6, purity=0.75,
        random_state=seed, name="fit-local",
    )
    codes = np.ascontiguousarray(data.codes)
    if traced:
        tracemalloc.start()
    started = time.perf_counter()
    labels = MCDC(n_clusters=8, random_state=seed).fit(codes).labels_
    fit_seconds = time.perf_counter() - started
    peak = tracemalloc.get_traced_memory()[1] if traced else 0
    print(json.dumps({
        "fit_seconds": fit_seconds,
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tracemalloc_peak_mb": peak / 2**20,
        "ari": adjusted_rand_index(data.labels, labels),
    }))
""")


def fit_memory(src=REPO_SRC, n=LOCAL_N, seed=1, traced=False):
    """Run :data:`_FIT_MEMORY_SCRIPT` against the sources in ``src``; its JSON line.

    Run untraced for ``ru_maxrss`` (tracing adds its own memory and time)
    and traced for the fit's ``tracemalloc`` peak.
    """
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _FIT_MEMORY_SCRIPT, str(n), str(seed), "1" if traced else "0"],
        capture_output=True, text=True, env=env, cwd=os.path.dirname(src), timeout=600,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def fit_memory_summary(runs):
    """Median, q1 and q3 of ``ru_maxrss`` and the traced peak over repeats."""
    summary = {}
    for field, key in (("ru_maxrss_mb", "untraced"), ("tracemalloc_peak_mb", "traced")):
        q1, median, q3 = np.percentile([run[key][field] for run in runs], [25, 50, 75])
        summary.update({field: float(median), f"{field}_q1": float(q1), f"{field}_q3": float(q3)})
    summary["fit_seconds"] = float(np.median([run["untraced"]["fit_seconds"] for run in runs]))
    return summary


def test_fit_peak_memory(benchmark):
    """Record-only: ``MCDC(n_clusters=8).fit``'s peak memory, fresh processes.

    Each repeat runs one untraced and one traced process; the entry holds
    the median, q1 and q3 of both peaks over :data:`MEMORY_REPEATS`
    repeats.  :func:`fit_memory` takes another tree's ``src`` too, so a
    parent/change pair can be recorded the same way.
    """

    def repeats():
        return [
            {"untraced": fit_memory(), "traced": fit_memory(traced=True)}
            for _ in range(MEMORY_REPEATS)
        ]

    runs = benchmark.pedantic(repeats, iterations=1, rounds=1)
    assert len({run["untraced"]["ari"] for run in runs}) == 1
    summary = fit_memory_summary(runs)
    # The fit's own arrays are a part of the process's peak.
    assert 0 < summary["tracemalloc_peak_mb"] < summary["ru_maxrss_mb"]
    benchmark.extra_info.update(summary)
    reporting.record(
        "engine", "fit_peak_memory",
        n=LOCAL_N, d=LOCAL_D, k=8, wall_seconds=summary["fit_seconds"],
        repeats=MEMORY_REPEATS, **summary,
        subject="MCDC(n_clusters=8).fit on perfbench's fit-local data, seed 1",
    )
