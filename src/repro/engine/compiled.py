"""Compiled (numba) inner-sweep backend, bit-faithful to :class:`LoopEngine`.

The batch sweep's hot loop — score every object against every cluster, pick
winner and rival, accumulate the Eqs. 10-13 competition statistics — is a
``n * k * d`` gather/accumulate that the vectorised backends express as a
BLAS multiply over a dense one-hot plus half a dozen ``(n, k)`` temporaries.
This module implements the same loop directly, as ``@njit`` kernels over the
packed count table, which removes both the one-hot materialisation and the
intermediate ``(n, k)`` array traffic and fuses the similarity, argmax and
margin passes into one parallel sweep over the objects.

numba is an **optional** dependency (the ``[compiled]`` extra).  When it is
not importable the kernels below run as plain Python functions — identical
numerics, interpreter speed — so :class:`CompiledEngine` is always
constructible and the equivalence suite runs everywhere, while
:func:`repro.engine.make_engine` only *auto*-selects the compiled backend
when numba is actually present (``NUMBA_AVAILABLE``).

Bit-exactness contract
----------------------
Every kernel replicates :class:`repro.engine.reference.LoopEngine`'s exact
floating-point operation order, which is the repo's numerical oracle:

* similarity accumulates per feature in ascending ``r`` order, as
  ``(count * (1/valid)) * weight`` (reciprocal-multiply, then weight) with
  the leave-one-out own-cluster term computed as a true division
  ``(count - 1) / (valid - 1)`` before weighting, and divides by ``d`` last;
* winner/rival selection uses NumPy's first-maximum ``argmax`` tie rule
  (strict ``>`` from ``-inf``);
* the competition statistics accumulate serially in ascending object order,
  matching ``np.bincount(..., weights=...)`` / ``np.add.at``.

Counts (``rebuild`` / ``add`` / ``remove`` / snapshots) are integer-valued
floats inherited unchanged from :class:`PackedFrequencyEngine`, so they are
exact under any summation order.  The result: labels, counts and
:class:`~repro.engine.state.EngineState` snapshots from a compiled fit are
bit-identical to a :class:`LoopEngine` fit, missing values included.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.engine.packed import PackedFrequencyEngine
from repro.utils.validation import check_array_2d

try:  # pragma: no cover - exercised on the numba CI leg
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:  # numba absent: run the kernels interpreted
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):  # noqa: D103 - identity decorator fallback
        if args and callable(args[0]) and not kwargs:
            return args[0]

        def wrap(fn):
            return fn

        return wrap

    prange = range


__all__ = ["NUMBA_AVAILABLE", "CompiledEngine"]


# ---------------------------------------------------------------------- #
# Kernels (numba-subset Python: explicit loops, float64 everywhere)
# ---------------------------------------------------------------------- #
@njit(cache=True, parallel=True)
def _similarity_kernel(pc, counts, valid, cw, w_lk, has_w, excl, out):
    """Eq. 1/14 similarities of every object to every cluster.

    ``cw[l, c]`` is the precomputed ``(count * 1/valid) * weight`` column
    table (LoopEngine's per-feature expression, evaluated once outside the
    kernel); the own-cluster column is recomputed with the leave-one-out
    correction from the raw ``counts`` / ``valid`` tables.  ``excl[i] == -1``
    means no leave-one-out row for object ``i``.
    """
    n, d = pc.shape
    k = counts.shape[0]
    dd = float(d)
    for i in prange(n):
        own = excl[i]
        for l in range(k):
            acc = 0.0
            if l == own:
                for r in range(d):
                    c = pc[i, r]
                    if c < 0:
                        continue
                    v = valid[l, r]
                    if v > 1.0:
                        s = (counts[l, c] - 1.0) / (v - 1.0)
                    else:
                        s = 0.0
                    if has_w:
                        s = s * w_lk[l, r]
                    acc = acc + s
            else:
                for r in range(d):
                    c = pc[i, r]
                    if c >= 0:
                        acc = acc + cw[l, c]
            out[i, l] = acc / dd


@njit(cache=True, parallel=True)
def _sweep_select_kernel(
    pc, counts, valid, cw, w_lk, has_w, labels, t, blocked,
    winners, rivals, winner_sims, rival_sims, has_rival,
):
    """Fused similarity + winner/rival selection (the per-object pass).

    Per object: accumulate the similarity of every cluster, turn it into the
    competition score ``t_l * sim`` (``-inf`` for blocked clusters) and track
    best/second-best with NumPy's first-maximum tie rule.  Independent across
    objects, so the loop parallelises; the order-sensitive statistics are
    left to the serial :func:`_sweep_stats_kernel`.
    """
    n, d = pc.shape
    k = counts.shape[0]
    dd = float(d)
    for i in prange(n):
        own = labels[i]
        sims_row = np.empty(k, dtype=np.float64)
        best = -np.inf
        best_l = 0
        second = -np.inf
        second_l = 0
        for l in range(k):
            acc = 0.0
            if l == own:
                for r in range(d):
                    c = pc[i, r]
                    if c < 0:
                        continue
                    v = valid[l, r]
                    if v > 1.0:
                        s = (counts[l, c] - 1.0) / (v - 1.0)
                    else:
                        s = 0.0
                    if has_w:
                        s = s * w_lk[l, r]
                    acc = acc + s
            else:
                for r in range(d):
                    c = pc[i, r]
                    if c >= 0:
                        acc = acc + cw[l, c]
            sim = acc / dd
            sims_row[l] = sim
            if blocked[l]:
                score = -np.inf
            else:
                score = t[l] * sim
            if score > best:
                second = best
                second_l = best_l
                best = score
                best_l = l
            elif score > second:
                second = score
                second_l = l
        winners[i] = best_l
        rivals[i] = second_l
        winner_sims[i] = sims_row[best_l]
        if second > -np.inf:
            has_rival[i] = True
            rival_sims[i] = sims_row[second_l]
        else:
            has_rival[i] = False
            rival_sims[i] = 0.0


@njit(cache=True)
def _sweep_stats_kernel(
    winners, rivals, winner_sims, rival_sims, has_rival,
    win_counts, win_gain, rival_pen, rival_counts, win_sim_total,
):
    """Eqs. 10-13 statistics, accumulated serially in object order.

    Must stay serial: ``np.bincount(..., weights=...)`` and ``np.add.at``
    add in ascending ``i`` order and float addition does not commute.
    """
    n = winners.shape[0]
    for i in range(n):
        w = winners[i]
        ws = winner_sims[i]
        rs = rival_sims[i]
        win_counts[w] += 1.0
        margin = ws - rs
        if margin < 0.0:
            margin = 0.0
        win_gain[w] += margin
        win_sim_total[w] += ws
        if has_rival[i]:
            rival_pen[rivals[i]] += rs
            rival_counts[rivals[i]] += 1.0


@njit(cache=True, parallel=True)
def _hamming_kernel(codes, refs, weights, out):
    """Weighted Hamming distances; missing on either side is a mismatch."""
    n, d = codes.shape
    q = refs.shape[0]
    for i in prange(n):
        for j in range(q):
            acc = 0.0
            for r in range(d):
                a = codes[i, r]
                b = refs[j, r]
                if a != b or a < 0 or b < 0:
                    acc = acc + weights[r]
            out[i, j] = acc


# ---------------------------------------------------------------------- #
# The engine
# ---------------------------------------------------------------------- #
class CompiledEngine(PackedFrequencyEngine):
    """Packed backend whose sweep kernels are compiled loops (numba optional).

    Counts, snapshots and the Eqs. 15-18 statistics are inherited from
    :class:`PackedFrequencyEngine` (integer-exact); the similarity, Hamming
    and fused competitive-sweep kernels are ``@njit`` loops that are
    bit-identical to :class:`~repro.engine.reference.LoopEngine` — see the
    module docstring for the exactness contract.  Without numba the kernels
    run interpreted (correct but slow); ``make_engine("auto")`` therefore
    only picks this backend when :data:`NUMBA_AVAILABLE` is true.
    """

    def _kernel_tables(
        self, feature_weights: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, bool]:
        """The ``(k, M)`` column table + ``(k, d)`` weight table of one sweep.

        Replicates LoopEngine's per-element expression
        ``(count * (1/valid)) * weight`` with the same two multiplies.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_valid = np.where(self.valid_counts > 0, 1.0 / self.valid_counts, 0.0)
        cw = self.packed * self._expand(inv_valid)
        if feature_weights is not None:
            w_lk = np.ascontiguousarray(np.asarray(feature_weights, dtype=np.float64).T)
            cw = cw * self._expand(w_lk)
            return np.ascontiguousarray(cw), w_lk, True
        return np.ascontiguousarray(cw), np.ones((1, 1), dtype=np.float64), False

    # ------------------------------------------------------------------ #
    # Similarities
    # ------------------------------------------------------------------ #
    def similarity_matrix(
        self,
        codes=None,
        feature_weights: Optional[np.ndarray] = None,
        exclude_labels: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if codes is None:
            packed_codes = self._packed_codes
        else:
            codes = check_array_2d(codes, "codes", dtype=np.int64)
            if codes.shape[1] != self.codes.shape[1]:
                raise ValueError(
                    f"codes has {codes.shape[1]} features, expected {self.codes.shape[1]}"
                )
            packed_codes = np.ascontiguousarray(self.pack(codes))
        n = packed_codes.shape[0]
        if exclude_labels is not None:
            excl = np.ascontiguousarray(exclude_labels, dtype=np.int64)
            if excl.shape[0] != n:
                raise ValueError("exclude_labels must have one entry per object")
        else:
            excl = np.full(n, -1, dtype=np.int64)
        cw, w_lk, has_w = self._kernel_tables(feature_weights)
        out = np.empty((n, self.n_clusters), dtype=np.float64)
        _similarity_kernel(
            packed_codes, self.packed, self.valid_counts, cw, w_lk, has_w, excl, out
        )
        return out

    def similarity_object(
        self,
        x,
        feature_weights: Optional[np.ndarray] = None,
        exclude_cluster: Optional[int] = None,
    ) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64).ravel()
        d = self.codes.shape[1]
        if x.shape[0] != d:
            raise ValueError(f"Object has {x.shape[0]} features, expected {d}")
        exclude = None
        if exclude_cluster is not None and exclude_cluster >= 0:
            exclude = np.asarray([exclude_cluster], dtype=np.int64)
        return self.similarity_matrix(
            x[None, :], feature_weights=feature_weights, exclude_labels=exclude
        )[0]

    def _block_scorer(self, feature_weights: Optional[np.ndarray]):
        """Blocked scoring (``nearest_clusters``) through the loop-exact kernel.

        The kernel reads packed codes, so a block needs no encoding.
        """
        cw, w_lk, has_w = self._kernel_tables(feature_weights)

        def score(packed_codes: np.ndarray, out: np.ndarray) -> np.ndarray:
            no_loo = np.full(packed_codes.shape[0], -1, dtype=np.int64)
            _similarity_kernel(
                packed_codes, self.packed, self.valid_counts, cw, w_lk, has_w, no_loo, out
            )
            return out

        return np.ascontiguousarray, score

    # ------------------------------------------------------------------ #
    # The fused competitive sweep (MGCPL's LocalUpdate hot loop)
    # ------------------------------------------------------------------ #
    def competitive_sweep(
        self,
        labels: np.ndarray,
        u: np.ndarray,
        rho: np.ndarray,
        omega: Optional[np.ndarray],
        blocked: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One shard-local competition pass, fused into two kernels.

        Returns ``(winners, win_counts, win_gain, rival_pen, rival_counts,
        win_sim_total)`` — bit-identical to the NumPy expression of
        :func:`repro.core.sync.mgcpl_sweep_local` evaluated over a
        :class:`LoopEngine` similarity matrix.
        """
        n = self._packed_codes.shape[0]
        k = self.n_clusters
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        if labels.shape[0] != n:
            raise ValueError("labels must have one entry per object")
        # scores = ((1 - rho) * u) * sims: the (1 - rho) * u factor is one
        # elementwise product in the NumPy path too, so precompute it there.
        t = (1.0 - np.asarray(rho, dtype=np.float64)) * np.asarray(u, dtype=np.float64)
        t = np.ascontiguousarray(t)
        blocked = np.ascontiguousarray(np.asarray(blocked, dtype=np.bool_))
        cw, w_lk, has_w = self._kernel_tables(omega)

        winners = np.empty(n, dtype=np.int64)
        rivals = np.empty(n, dtype=np.int64)
        winner_sims = np.empty(n, dtype=np.float64)
        rival_sims = np.empty(n, dtype=np.float64)
        has_rival = np.empty(n, dtype=np.bool_)
        _sweep_select_kernel(
            self._packed_codes, self.packed, self.valid_counts, cw, w_lk, has_w,
            labels, t, blocked, winners, rivals, winner_sims, rival_sims, has_rival,
        )

        win_counts = np.zeros(k, dtype=np.float64)
        win_gain = np.zeros(k, dtype=np.float64)
        rival_pen = np.zeros(k, dtype=np.float64)
        rival_counts = np.zeros(k, dtype=np.float64)
        win_sim_total = np.zeros(k, dtype=np.float64)
        _sweep_stats_kernel(
            winners, rivals, winner_sims, rival_sims, has_rival,
            win_counts, win_gain, rival_pen, rival_counts, win_sim_total,
        )
        return winners, win_counts, win_gain, rival_pen, rival_counts, win_sim_total

    # ------------------------------------------------------------------ #
    # Hamming (CAME's Eq. 20 assignment)
    # ------------------------------------------------------------------ #
    def hamming_distances(
        self, references, feature_weights: Optional[np.ndarray] = None
    ) -> np.ndarray:
        references = check_array_2d(references, "references", dtype=np.int64)
        d = self.codes.shape[1]
        if references.shape[1] != d:
            raise ValueError(f"references has {references.shape[1]} features, expected {d}")
        if feature_weights is None:
            weights = np.ones(d, dtype=np.float64)
        else:
            weights = np.ascontiguousarray(feature_weights, dtype=np.float64).ravel()
            if weights.shape[0] != d:
                raise ValueError(f"feature_weights must have length {d}")
        out = np.empty((self.codes.shape[0], references.shape[0]), dtype=np.float64)
        _hamming_kernel(self.codes, np.ascontiguousarray(references), weights, out)
        return out


def warm_up_kernels() -> bool:
    """Trigger JIT compilation of every kernel on a tiny problem.

    Returns :data:`NUMBA_AVAILABLE`.  Benchmarks call this once so compile
    time never pollutes a measurement; without numba it is a no-op-cheap
    interpreted pass.
    """
    engine = CompiledEngine(
        np.array([[0, 1], [1, -1]], dtype=np.int64), [2, 2], 2
    )
    engine.rebuild(np.array([0, 1], dtype=np.int64))
    engine.similarity_matrix(
        feature_weights=np.full((2, 2), 0.5), exclude_labels=np.array([0, 1])
    )
    engine.similarity_matrix()
    engine.competitive_sweep(
        np.array([0, 1], dtype=np.int64),
        np.ones(2), np.zeros(2), np.full((2, 2), 0.5), np.zeros(2, dtype=bool),
    )
    engine.competitive_sweep(
        np.array([0, 1], dtype=np.int64),
        np.ones(2), np.zeros(2), None, np.zeros(2, dtype=bool),
    )
    engine.hamming_distances(np.array([[0, 0]], dtype=np.int64), np.ones(2))
    return NUMBA_AVAILABLE
