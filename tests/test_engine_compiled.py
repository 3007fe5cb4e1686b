"""Bit-exactness tests for the compiled sweep kernels and the one-hot cache.

:class:`~repro.engine.compiled.CompiledEngine` promises *bit-identical*
results to the :class:`~repro.engine.reference.LoopEngine` oracle — not just
``allclose`` — because its kernels replicate the reference's floating-point
operation order exactly.  These tests pin that contract on random problems
with missing values, on the seed UCI data sets, through the fused
``competitive_sweep`` path of :func:`repro.core.sync.mgcpl_sweep_local`, and
through a full MGCPL fit.  They run with or without numba: absent numba the
kernels execute interpreted through the identity ``njit`` fallback, so the
contract is enforced on every CI leg.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine.compiled as compiled_mod
from repro.core.mgcpl import MGCPL, cluster_weight_from_delta, winning_ratio
from repro.core.sync import ShardWorker, SweepBroadcast
from repro.data.dataset import CategoricalDataset
from repro.data.uci.registry import load_dataset
from repro.engine import (
    ENGINES,
    NUMBA_AVAILABLE,
    CompiledEngine,
    LoopEngine,
    OneHotCache,
    make_engine,
    resolve_engine_kind,
)
from repro.engine.compiled import warm_up_kernels


def random_problem(seed: int, n=80, d=6, k=5, missing=0.15):
    rng = np.random.default_rng(seed)
    cats = [int(rng.integers(2, 7)) for _ in range(d)]
    codes = np.stack([rng.integers(0, m, size=n) for m in cats], axis=1)
    codes[rng.random((n, d)) < missing] = -1
    labels = rng.integers(0, k, size=n)
    return codes, cats, labels, rng


def build_pair(codes, cats, k, labels):
    compiled = CompiledEngine(codes, cats, k)
    compiled.rebuild(labels)
    loop = LoopEngine(codes, cats, k)
    loop.rebuild(labels)
    return compiled, loop


class TestKernelBitExactness:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_similarity_matrix_exact(self, seed):
        codes, cats, labels, rng = random_problem(seed)
        compiled, loop = build_pair(codes, cats, 5, labels)
        omega = rng.random((codes.shape[1], 5))
        for fw in (None, omega):
            for excl in (None, labels):
                assert np.array_equal(
                    compiled.similarity_matrix(feature_weights=fw, exclude_labels=excl),
                    loop.similarity_matrix(feature_weights=fw, exclude_labels=excl),
                )

    @pytest.mark.parametrize("seed", [0, 2])
    def test_nearest_clusters_exact(self, seed):
        """Blocked reassignment through the kernel == the loop's whole matrix."""
        codes, cats, labels, rng = random_problem(seed)
        compiled, loop = build_pair(codes, cats, 5, labels)
        omega = rng.random((codes.shape[1], 5))
        rows = np.flatnonzero(rng.random(codes.shape[0]) < 0.5)
        allowed = np.array([True, False, True, True, False])
        for fw in (None, omega):
            assert np.array_equal(
                compiled.nearest_clusters(rows, allowed, fw),
                loop.nearest_clusters(rows, allowed, fw),
            )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_hamming_distances_exact(self, seed):
        codes, cats, labels, rng = random_problem(seed)
        compiled, loop = build_pair(codes, cats, 5, labels)
        refs = np.stack([rng.integers(0, m, size=6) for m in cats], axis=1)
        refs[rng.random(refs.shape) < 0.2] = -1
        theta = rng.random(codes.shape[1])
        assert np.array_equal(
            compiled.hamming_distances(refs, theta), loop.hamming_distances(refs, theta)
        )
        assert np.array_equal(compiled.hamming_distances(refs), loop.hamming_distances(refs))

    @pytest.mark.parametrize("abbrev", ["Vot", "Bal"])
    def test_uci_datasets_exact(self, abbrev):
        """Vot (native missing values) and Bal, with extra missing injected."""
        ds = load_dataset(abbrev)
        rng = np.random.default_rng(99)
        codes = ds.codes.copy()
        codes[rng.random(codes.shape) < 0.08] = -1
        k = 5
        labels = rng.integers(0, k, size=codes.shape[0])
        omega = rng.random((codes.shape[1], k))
        compiled, loop = build_pair(codes, list(ds.n_categories), k, labels)
        assert np.array_equal(compiled.packed, np.concatenate(loop.counts, axis=1))
        assert np.array_equal(
            compiled.similarity_matrix(feature_weights=omega, exclude_labels=labels),
            loop.similarity_matrix(feature_weights=omega, exclude_labels=labels),
        )

    @pytest.mark.parametrize("seed", [0, 11])
    def test_fused_sweep_matches_numpy_path(self, seed):
        """The ``competitive_sweep`` fast path returns the same ShardUpdate."""
        codes, cats, labels, rng = random_problem(seed, n=150)
        k = 5
        worker_loop = ShardWorker(codes, cats, engine="loop")
        worker_comp = ShardWorker(codes, cats, engine="compiled")
        state_l = worker_loop.begin_epoch(k, labels)
        state_c = worker_comp.begin_epoch(k, labels)
        assert np.array_equal(state_l.packed, state_c.packed)
        blocked = np.zeros(k, dtype=bool)
        blocked[2] = True
        broadcast = SweepBroadcast(
            state=state_l,
            u=cluster_weight_from_delta(np.ones(k)),
            rho=winning_ratio(rng.random(k)),
            omega=rng.random((codes.shape[1], k)),
            blocked=blocked,
        )
        up_l = worker_loop.sweep(broadcast)
        up_c = worker_comp.sweep(broadcast)
        for field in (
            "labels",
            "win_counts",
            "win_gain",
            "rival_pen",
            "rival_counts",
            "win_sim_total",
        ):
            assert np.array_equal(getattr(up_l, field), getattr(up_c, field)), field
        assert np.array_equal(up_l.state.packed, up_c.state.packed)
        assert up_l.changed == up_c.changed

    def test_fused_sweep_all_blocked_and_unweighted(self):
        codes, cats, labels, _ = random_problem(5, n=70)
        k = 5
        worker_loop = ShardWorker(codes, cats, engine="loop")
        worker_comp = ShardWorker(codes, cats, engine="compiled")
        state = worker_loop.begin_epoch(k, labels)
        worker_comp.begin_epoch(k, labels)
        broadcast = SweepBroadcast(
            state=state,
            u=np.ones(k),
            rho=np.zeros(k),
            omega=None,
            blocked=np.ones(k, dtype=bool),
        )
        up_l = worker_loop.sweep(broadcast)
        up_c = worker_comp.sweep(broadcast)
        assert np.array_equal(up_l.labels, up_c.labels)
        assert np.array_equal(up_l.win_sim_total, up_c.win_sim_total)

    def test_full_mgcpl_fit_bit_identical(self):
        codes, cats, _, _ = random_problem(7, n=140, d=6, missing=0.1)
        ds = CategoricalDataset.from_codes(codes, n_categories=cats)
        fit_loop = MGCPL(k0=6, random_state=3, engine="loop", max_epochs=4).fit(ds)
        fit_comp = MGCPL(k0=6, random_state=3, engine="compiled", max_epochs=4).fit(ds)
        assert np.array_equal(fit_loop.labels_, fit_comp.labels_)
        assert np.array_equal(fit_loop.encoding_, fit_comp.encoding_)

    def test_warm_up_kernels(self):
        assert warm_up_kernels() is NUMBA_AVAILABLE


class TestAutoSelection:
    def test_compiled_registered(self):
        assert ENGINES["compiled"] is CompiledEngine

    def test_auto_prefers_compiled_with_numba(self, monkeypatch):
        monkeypatch.setattr(compiled_mod, "NUMBA_AVAILABLE", True)
        assert resolve_engine_kind("auto", 1000, 50) == "compiled"

    def test_auto_falls_back_without_numba(self, monkeypatch):
        monkeypatch.setattr(compiled_mod, "NUMBA_AVAILABLE", False)
        assert resolve_engine_kind("auto", 1000, 50) == "dense"

    def test_explicit_kind_wins(self, monkeypatch):
        monkeypatch.setattr(compiled_mod, "NUMBA_AVAILABLE", True)
        assert resolve_engine_kind("dense", 1000, 50) == "dense"
        assert resolve_engine_kind("loop", 1000, 50) == "loop"


class TestOneHotCache:
    def test_hit_requires_same_array_and_vocab(self):
        cache = OneHotCache()
        codes, cats, labels, _ = random_problem(0)
        a = make_engine(codes, cats, 5, kind="dense", labels=labels, onehot_cache=cache)
        a.similarity_matrix()
        assert cache.misses == 1
        b = make_engine(codes, cats, 5, kind="dense", labels=labels, onehot_cache=cache)
        b.similarity_matrix()
        assert (cache.hits, cache.misses) == (1, 1)
        # A copy is a different array: identity keying must not hit.
        c = make_engine(
            codes.copy(), cats, 5, kind="dense", labels=labels, onehot_cache=cache
        )
        c.similarity_matrix()
        assert cache.misses == 2

    def test_capacity_eviction(self):
        cache = OneHotCache(capacity=1)
        codes_a, cats, labels, _ = random_problem(1)
        codes_b = codes_a.copy()
        for arr in (codes_a, codes_b, codes_a):
            engine = make_engine(arr, cats, 5, kind="dense", labels=labels, onehot_cache=cache)
            engine.similarity_matrix()
        # FIFO capacity 1: codes_a was evicted by codes_b, so the third
        # build misses again.
        assert cache.misses == 3 and cache.hits == 0

    def test_cached_encoding_is_equivalent(self):
        cache = OneHotCache()
        codes, cats, labels, rng = random_problem(2)
        omega = rng.random((codes.shape[1], 5))
        first = make_engine(codes, cats, 5, kind="dense", labels=labels, onehot_cache=cache)
        uncached = make_engine(codes, cats, 5, kind="dense", labels=labels)
        assert np.array_equal(
            first.similarity_matrix(feature_weights=omega),
            uncached.similarity_matrix(feature_weights=omega),
        )
        second = make_engine(codes, cats, 5, kind="dense", labels=labels, onehot_cache=cache)
        assert np.array_equal(
            second.similarity_matrix(feature_weights=omega),
            uncached.similarity_matrix(feature_weights=omega),
        )
        assert cache.hits >= 1

    def test_loop_engine_ignores_cache_kwarg(self):
        codes, cats, labels, _ = random_problem(3)
        engine = make_engine(codes, cats, 5, kind="loop", labels=labels, onehot_cache=OneHotCache())
        assert isinstance(engine, LoopEngine)

    def test_dataset_cache_reused_across_fits(self):
        codes, cats, _, _ = random_problem(4, n=120)
        ds = CategoricalDataset.from_codes(codes, n_categories=cats)
        cache = ds.onehot_cache()
        assert ds.onehot_cache() is cache
        MGCPL(k0=5, random_state=1, engine="dense", max_epochs=3).fit(ds)
        hits1, misses1 = cache.hits, cache.misses
        assert misses1 >= 1
        MGCPL(k0=5, random_state=2, engine="dense", max_epochs=3).fit(ds)
        # The restart re-encodes nothing: same misses, strictly more hits.
        assert cache.misses == misses1
        assert cache.hits > hits1
