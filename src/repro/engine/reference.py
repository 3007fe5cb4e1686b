"""Per-feature loop reference backend.

This is the original (seed) per-feature frequency-table implementation,
kept verbatim behind the :class:`repro.engine.base.FrequencyEngine` protocol.  It
stores the counts as a Python list of ``d`` per-feature ``(k, m_r)`` arrays
and loops over features, which makes it easy to audit against the paper's
equations — the packed backends are property-tested against it
(``tests/test_engine.py``) and benchmarked against it
(``benchmarks/test_engine_speed.py``).  Do not use it on large data.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.engine.base import FrequencyEngine
from repro.engine.state import EngineState
from repro.utils.validation import check_array_2d, check_positive_int


class LoopEngine(FrequencyEngine):
    """Reference frequency-table backend with per-feature Python loops.

    Attributes
    ----------
    counts:
        List of ``d`` arrays of shape ``(k, m_r)``; ``counts[r][l, t]`` is
        ``Psi_{F_r = f_rt}(C_l)``.
    valid:
        ``(d, k)`` array; ``valid[r, l]`` is ``Psi_{F_r != NULL}(C_l)``.
    sizes:
        ``(k,)`` array of cluster cardinalities ``n_l``.
    """

    def __init__(self, codes, n_categories: Sequence[int], n_clusters: int) -> None:
        self.codes = check_array_2d(codes, "codes", dtype=np.int64)
        self.n_clusters = check_positive_int(n_clusters, "n_clusters")
        self.n_categories = [int(m) for m in n_categories]
        n, d = self.codes.shape
        if len(self.n_categories) != d:
            raise ValueError(f"n_categories must have length {d}, got {len(self.n_categories)}")
        self.counts: List[np.ndarray] = [
            np.zeros((self.n_clusters, m), dtype=np.float64) for m in self.n_categories
        ]
        self.valid = np.zeros((d, self.n_clusters), dtype=np.float64)
        self.sizes = np.zeros(self.n_clusters, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Construction / bulk updates
    # ------------------------------------------------------------------ #
    def rebuild(self, labels) -> None:
        labels = np.asarray(labels, dtype=np.int64)
        n, d = self.codes.shape
        if labels.shape[0] != n:
            raise ValueError("labels must have one entry per object")
        assigned = labels >= 0
        self.sizes[:] = np.bincount(labels[assigned], minlength=self.n_clusters)[
            : self.n_clusters
        ]
        for r in range(d):
            col = self.codes[:, r]
            mask = assigned & (col >= 0)
            self.counts[r][:] = 0.0
            np.add.at(self.counts[r], (labels[mask], col[mask]), 1.0)
            self.valid[r] = self.counts[r].sum(axis=1)

    # ------------------------------------------------------------------ #
    # Incremental updates
    # ------------------------------------------------------------------ #
    def add(self, i: int, cluster: int) -> None:
        self.sizes[cluster] += 1
        row = self.codes[i]
        for r in range(row.shape[0]):
            code = row[r]
            if code >= 0:
                self.counts[r][cluster, code] += 1
                self.valid[r, cluster] += 1

    def remove(self, i: int, cluster: int) -> None:
        if self.sizes[cluster] <= 0:
            raise ValueError(f"Cluster {cluster} is already empty")
        self.sizes[cluster] -= 1
        row = self.codes[i]
        for r in range(row.shape[0]):
            code = row[r]
            if code >= 0:
                self.counts[r][cluster, code] -= 1
                self.valid[r, cluster] -= 1

    def add_many(self, indices, clusters) -> None:
        for i, cluster in zip(np.asarray(indices), np.asarray(clusters)):
            self.add(int(i), int(cluster))

    def remove_many(self, indices, clusters) -> None:
        for i, cluster in zip(np.asarray(indices), np.asarray(clusters)):
            self.remove(int(i), int(cluster))

    # ------------------------------------------------------------------ #
    # Sufficient-statistics snapshots (sharded execution)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> EngineState:
        """Pack the per-feature count tables into the shared snapshot layout.

        Snapshots are layout-normalised so a state taken from a LoopEngine
        shard merges bit-identically with states from the packed backends.
        """
        packed = np.concatenate(self.counts, axis=1)
        return EngineState(
            packed, self.valid.T.copy(), self.sizes.copy(), tuple(self.n_categories)
        )

    def restore(self, state: EngineState) -> None:
        if tuple(state.n_categories) != tuple(self.n_categories):
            raise ValueError(
                "EngineState vocabulary does not match this engine: "
                f"{state.n_categories} vs {tuple(self.n_categories)}"
            )
        if state.n_clusters != self.n_clusters:
            raise ValueError(
                f"EngineState has {state.n_clusters} clusters, engine has {self.n_clusters}"
            )
        start = 0
        for r, m in enumerate(self.n_categories):
            self.counts[r][:] = state.packed[:, start : start + m]
            start += m
        self.valid[:] = state.valid_counts.T
        self.sizes[:] = state.sizes

    # ------------------------------------------------------------------ #
    # Similarities (Eqs. 1-2 and 14)
    # ------------------------------------------------------------------ #
    def similarity_object(
        self,
        x,
        feature_weights: Optional[np.ndarray] = None,
        exclude_cluster: Optional[int] = None,
    ) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64).ravel()
        d = len(self.counts)
        if x.shape[0] != d:
            raise ValueError(f"Object has {x.shape[0]} features, expected {d}")
        sims = np.zeros(self.n_clusters, dtype=np.float64)
        for r in range(d):
            code = x[r]
            if code < 0:
                continue
            denom = self.valid[r]
            with np.errstate(divide="ignore", invalid="ignore"):
                s_r = np.where(denom > 0, self.counts[r][:, code] / denom, 0.0)
            if exclude_cluster is not None and exclude_cluster >= 0:
                v = self.valid[r][exclude_cluster]
                c = self.counts[r][exclude_cluster, code]
                s_r[exclude_cluster] = (c - 1.0) / (v - 1.0) if v > 1 else 0.0
            if feature_weights is not None:
                s_r = s_r * feature_weights[r]
            sims += s_r
        return sims / d

    def similarity_matrix(
        self,
        codes=None,
        feature_weights: Optional[np.ndarray] = None,
        exclude_labels: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        codes = self.codes if codes is None else check_array_2d(codes, "codes", dtype=np.int64)
        n, d = codes.shape
        if d != len(self.counts):
            raise ValueError(f"codes has {d} features, expected {len(self.counts)}")
        if exclude_labels is not None:
            exclude_labels = np.asarray(exclude_labels, dtype=np.int64)
            if exclude_labels.shape[0] != n:
                raise ValueError("exclude_labels must have one entry per object")
        sims = np.zeros((n, self.n_clusters), dtype=np.float64)
        rows = np.arange(n)
        for r in range(d):
            col = codes[:, r]
            denom = self.valid[r]  # (k,)
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = np.where(denom > 0, 1.0 / denom, 0.0)
            # (n, k) frequency of each object's value in each cluster
            safe = np.where(col >= 0, col, 0)
            freq = self.counts[r][:, safe].T * inv[None, :]
            freq[col < 0, :] = 0.0
            if exclude_labels is not None:
                assigned = (exclude_labels >= 0) & (col >= 0)
                own = exclude_labels[assigned]
                counts_own = self.counts[r][own, safe[assigned]]
                valid_own = self.valid[r][own]
                with np.errstate(divide="ignore", invalid="ignore"):
                    loo = np.where(valid_own > 1, (counts_own - 1.0) / (valid_own - 1.0), 0.0)
                freq[rows[assigned], own] = loo
            if feature_weights is not None:
                freq = freq * feature_weights[r][None, :]
            sims += freq
        return sims / d

    # ------------------------------------------------------------------ #
    # Feature-cluster weighting (Eqs. 15-18)
    # ------------------------------------------------------------------ #
    def inter_cluster_difference(self) -> np.ndarray:
        d = len(self.counts)
        alpha = np.zeros((d, self.n_clusters), dtype=np.float64)
        for r in range(d):
            counts = self.counts[r]  # (k, m)
            total = counts.sum(axis=0)  # (m,)
            valid = self.valid[r]  # (k,)
            valid_total = valid.sum()
            for l in range(self.n_clusters):
                if valid[l] <= 0:
                    continue
                rest_valid = valid_total - valid[l]
                p_in = counts[l] / valid[l]
                p_out = (total - counts[l]) / rest_valid if rest_valid > 0 else np.zeros_like(p_in)
                alpha[r, l] = np.sqrt(np.sum((p_in - p_out) ** 2)) / np.sqrt(2.0)
        return alpha

    def intra_cluster_similarity(self) -> np.ndarray:
        d = len(self.counts)
        beta = np.zeros((d, self.n_clusters), dtype=np.float64)
        sizes = self.sizes
        for r in range(d):
            counts = self.counts[r]
            valid = self.valid[r]
            with np.errstate(divide="ignore", invalid="ignore"):
                sum_sq = (counts**2).sum(axis=1)
                beta[r] = np.where(
                    (valid > 0) & (sizes > 0), sum_sq / (valid * np.maximum(sizes, 1.0)), 0.0
                )
        return beta

    def feature_cluster_weights(self) -> np.ndarray:
        H = self.inter_cluster_difference() * self.intra_cluster_similarity()
        d = H.shape[0]
        col_sums = H.sum(axis=0)  # (k,)
        omega = np.empty_like(H)
        for l in range(self.n_clusters):
            if col_sums[l] > 0:
                omega[:, l] = H[:, l] / col_sums[l]
            else:
                omega[:, l] = 1.0 / d
        return omega

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def modes(self) -> np.ndarray:
        d = len(self.counts)
        out = np.full((self.n_clusters, d), -1, dtype=np.int64)
        for r in range(d):
            counts = self.counts[r]
            has_any = counts.sum(axis=1) > 0
            out[has_any, r] = np.argmax(counts[has_any], axis=1)
        return out
