"""Classic frequency-sensitive competitive learning for categorical data.

This module implements the single-granularity competitive learning mechanism
described in the paper's preliminaries (Sec. II-B, Eqs. 3-8): clusters are
initialised from randomly selected seed objects, each input strengthens its
winning cluster (Eq. 8), the winning chance of frequent winners is damped by
the winning-ratio term (Eqs. 6-7), and redundant clusters starve and are
eliminated, so that learning started from ``k >= k*`` converges towards the
true number of clusters.

It is used directly by the MCDC2 ablation (Sec. IV-D) and serves as the
foundation that :class:`repro.core.mgcpl.MGCPL` extends with rival
penalization and multi-granular stages.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.base import ArrayOrDataset, BaseClusterer, coerce_codes, compact_labels
from repro.engine import make_engine
from repro.registry import register_clusterer
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive_int


@register_clusterer(
    "competitive",
    aliases=("competitive-learning",),
    description="Frequency-sensitive competitive learning (Sec. II-B)",
    example_params={"n_initial_clusters": 4},
)
class CompetitiveLearningClusterer(BaseClusterer):
    """Competitive learning clusterer (Sec. II-B) with cluster elimination.

    Parameters
    ----------
    n_initial_clusters:
        Initial ``k``; must be at least as large as the expected true number
        of clusters so redundant clusters can be eliminated.
    learning_rate:
        The small step ``eta`` used to award the winner (Eq. 8).
    max_sweeps:
        Upper bound on full passes over the data per run.
    prune_empty:
        Whether clusters that lose all their objects are removed.
    engine:
        Frequency-table backend (``"auto"``, ``"dense"``, ``"compiled"`` or
        ``"loop"``); see :mod:`repro.engine`.
    random_state:
        Seed or generator controlling seed-object selection.
    """

    def __init__(
        self,
        n_initial_clusters: int,
        learning_rate: float = 0.03,
        max_sweeps: int = 50,
        prune_empty: bool = True,
        engine: str = "auto",
        random_state: RandomState = None,
    ) -> None:
        self.n_initial_clusters = check_positive_int(n_initial_clusters, "n_initial_clusters")
        if not 0 < learning_rate < 1:
            raise ValueError(f"learning_rate must be in (0, 1), got {learning_rate}")
        self.learning_rate = float(learning_rate)
        self.max_sweeps = check_positive_int(max_sweeps, "max_sweeps")
        self.prune_empty = bool(prune_empty)
        self.engine = engine
        self.random_state = random_state

    def _fit(self, X: ArrayOrDataset) -> "CompetitiveLearningClusterer":
        codes, n_categories = coerce_codes(X)
        n, d = codes.shape
        rng = ensure_rng(self.random_state)
        k = min(self.n_initial_clusters, n)

        # Seed each cluster with one randomly chosen object (Algorithm 1, line 3).
        seeds = rng.choice(n, size=k, replace=False)
        labels = np.full(n, -1, dtype=np.int64)
        labels[seeds] = np.arange(k)
        table = make_engine(codes, n_categories, k, kind=self.engine, labels=labels)

        weights = np.ones(k, dtype=np.float64)          # u_l
        wins = np.zeros(k, dtype=np.float64)            # g_l of the previous sweep
        history: List[int] = []

        for _ in range(self.max_sweeps):
            total_wins = wins.sum()
            rho = wins / total_wins if total_wins > 0 else np.zeros(k)
            sims = table.similarity_matrix()             # Eq. 1
            scores = (1.0 - rho)[None, :] * weights[None, :] * sims   # Eq. 6
            winners = np.argmax(scores, axis=1)

            # Award winners (Eq. 8), clipping weights to [0, 1].
            win_counts = np.bincount(winners, minlength=k).astype(np.float64)
            weights = np.clip(weights + self.learning_rate * (win_counts > 0), 0.0, 1.0)
            wins = win_counts

            if np.array_equal(winners, labels):
                break
            table.move_many(np.arange(n), labels, winners)
            labels = winners
            history.append(int(np.count_nonzero(table.sizes > 0)))

        if self.prune_empty:
            labels = compact_labels(labels)
        self.labels_ = labels
        self.n_clusters_ = int(np.unique(labels).size)
        self.cluster_weights_ = weights
        self.size_history_ = history
        return self
