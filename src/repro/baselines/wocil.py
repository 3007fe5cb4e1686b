"""WOCIL-style subspace clustering with an unknown number of clusters.

Re-implementation of the algorithmic idea of Jia & Cheung (2017), "Subspace
clustering of categorical and numerical data with an unknown number of
clusters": objects are assigned by a feature-weighted object-cluster
similarity, per-cluster feature (subspace) weights are learned from the
within-cluster value concentration, and redundant clusters are eliminated
through a competition penalty on the cluster mixing weights, so that learning
started from an over-estimated ``k`` converges to the underlying number of
clusters.  Only the categorical part of the original mixed-data method is
needed here (the paper's data sets are purely categorical).

The implementation reuses the frequency-table substrate of this library; the
deterministic initialisation of the original paper is approximated by a
density-based seed selection, which is why the method behaves stably across
restarts (a property the MCDC paper remarks upon).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.registry import register_clusterer
from repro.core.base import ArrayOrDataset, BaseClusterer, coerce_codes, compact_labels
from repro.engine import make_engine
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive_int


@register_clusterer(
    "wocil",
    description="Weighted object-cluster iterative learning baseline",
    example_params={"n_clusters": 2},
)
class WOCIL(BaseClusterer):
    """Weighted object-cluster similarity clustering with cluster-number learning.

    Parameters
    ----------
    n_clusters:
        The sought number of clusters.  When ``auto_k`` is True this is used
        as a lower bound the elimination may not cross.
    initial_clusters:
        Initial (over-estimated) number of clusters; ``None`` uses
        ``n_clusters + 3``.
    auto_k:
        Whether to let the competition eliminate redundant clusters.
    max_iter:
        Maximum number of assignment sweeps.
    engine:
        Frequency-table backend (``"auto"``, ``"dense"``, ``"compiled"`` or
        ``"loop"``); see :mod:`repro.engine`.
    random_state:
        Seed or generator (only used to break ties in seeding).
    """

    def __init__(
        self,
        n_clusters: int,
        initial_clusters: Optional[int] = None,
        auto_k: bool = True,
        max_iter: int = 50,
        engine: str = "auto",
        random_state: RandomState = None,
    ) -> None:
        self.n_clusters = check_positive_int(n_clusters, "n_clusters")
        if initial_clusters is not None:
            initial_clusters = check_positive_int(initial_clusters, "initial_clusters")
        self.initial_clusters = initial_clusters
        self.auto_k = bool(auto_k)
        self.max_iter = check_positive_int(max_iter, "max_iter")
        self.engine = engine
        self.random_state = random_state

    def _fit(self, X: ArrayOrDataset) -> "WOCIL":
        codes, n_categories = coerce_codes(X)
        n, d = codes.shape
        k0 = self.initial_clusters or (self.n_clusters + 3 if self.auto_k else self.n_clusters)
        k0 = int(min(max(k0, self.n_clusters), n))
        rng = ensure_rng(self.random_state)

        labels = self._density_seed_assignment(codes, n_categories, k0, rng)
        table = make_engine(codes, n_categories, k0, kind=self.engine, labels=labels)
        mixing = np.full(k0, 1.0 / k0)
        alive = np.ones(k0, dtype=bool)

        for _ in range(self.max_iter):
            omega = table.feature_cluster_weights()
            sims = table.similarity_matrix(feature_weights=omega)
            scores = mixing[None, :] * sims
            scores[:, ~alive] = -np.inf
            new_labels = scores.argmax(axis=1).astype(np.int64)

            counts = np.bincount(new_labels, minlength=k0).astype(np.float64)
            mixing = counts / counts.sum()
            if self.auto_k:
                # Eliminate clusters whose mixing weight collapsed, but never
                # go below the requested number of clusters.
                threshold = 1.0 / (2.0 * n) + 1.0 / (4.0 * k0 * max(np.sqrt(n), 1.0))
                candidates = alive & (mixing < max(threshold, 1.0 / (k0 * 10.0)))
                n_alive = int(alive.sum())
                removable = max(n_alive - self.n_clusters, 0)
                if removable > 0 and candidates.any():
                    order = np.flatnonzero(candidates)[np.argsort(mixing[candidates])]
                    for cluster in order[:removable]:
                        alive[cluster] = False
                        new_labels[new_labels == cluster] = -1
                    if (new_labels < 0).any():
                        fallback = scores.copy()
                        fallback[:, ~alive] = -np.inf
                        missing = new_labels < 0
                        new_labels[missing] = fallback[missing].argmax(axis=1)

            if np.array_equal(new_labels, labels):
                labels = new_labels
                break
            table.move_many(np.arange(n), labels, new_labels)
            labels = new_labels

        self.labels_ = compact_labels(labels)
        self.n_clusters_ = int(np.unique(self.labels_).size)
        self.feature_weights_ = table.feature_cluster_weights()
        self.mixing_weights_ = mixing
        return self

    @staticmethod
    def _density_seed_assignment(codes, n_categories, k, rng) -> np.ndarray:
        """Deterministic density-peak style seeding.

        Objects are ranked by the summed marginal frequency of their values
        (an estimate of local density); seeds are picked greedily from the
        densest objects subject to being sufficiently different from the
        seeds chosen so far, and every object is assigned to its most similar
        seed.
        """
        n, d = codes.shape
        density = np.zeros(n, dtype=np.float64)
        for r in range(d):
            col = codes[:, r]
            freq = np.bincount(col[col >= 0], minlength=n_categories[r]).astype(np.float64)
            freq /= max(freq.sum(), 1.0)
            density += np.where(col >= 0, freq[np.clip(col, 0, None)], 0.0)

        order = np.argsort(-density)
        seeds = [int(order[0])]
        for candidate in order[1:]:
            if len(seeds) >= k:
                break
            overlaps = [np.count_nonzero(codes[candidate] == codes[s]) for s in seeds]
            if max(overlaps) < d:  # not an exact duplicate of an existing seed
                seeds.append(int(candidate))
        while len(seeds) < k:
            seeds.append(int(rng.integers(0, n)))

        seed_codes = codes[np.asarray(seeds, dtype=np.int64)]
        matches = np.zeros((n, k), dtype=np.float64)
        for j in range(k):
            matches[:, j] = np.count_nonzero(codes == seed_codes[j], axis=1)
        return matches.argmax(axis=1).astype(np.int64)
