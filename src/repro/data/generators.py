"""Synthetic categorical data generators.

Provides the two synthetic scalability data sets of the paper (Table II rows
9-10: ``Syn_n`` with large ``n`` and ``Syn_d`` with large ``d``), a generic
well-separated cluster generator, and a *nested multi-granular* generator that
reproduces the phenomenon motivating MGCPL: fine-grained compact clusters that
merge into coarser clusters (Fig. 2 of the paper).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive_int, check_probability


def _sample_cluster_profiles(
    rng: np.random.Generator,
    n_clusters: int,
    n_features: int,
    n_categories: Sequence[int],
    purity: float,
) -> List[np.ndarray]:
    """Sample per-cluster value distributions for each feature.

    Each cluster gets a preferred ("modal") value per feature which is drawn
    with probability ``purity``; the remaining mass is spread uniformly over
    the other values.  Distinct clusters prefer distinct values whenever the
    vocabulary allows it, which yields well-separated clusters for high
    ``purity`` and increasingly overlapping ones as ``purity`` decreases.
    """
    profiles = []
    for r in range(n_features):
        m = int(n_categories[r])
        table = np.full((n_clusters, m), (1.0 - purity) / max(m - 1, 1))
        preferred = rng.permutation(m)
        for l in range(n_clusters):
            mode = preferred[l % m]
            if m == 1:
                table[l, mode] = 1.0
            else:
                table[l, mode] = purity
        table /= table.sum(axis=1, keepdims=True)
        profiles.append(table)
    return profiles


def make_categorical_clusters(
    n_objects: int,
    n_features: int,
    n_clusters: int,
    n_categories=4,
    purity: float = 0.85,
    cluster_weights: Optional[Sequence[float]] = None,
    random_state: RandomState = None,
    name: str = "synthetic",
) -> CategoricalDataset:
    """Generate a categorical data set with ``n_clusters`` planted clusters.

    Parameters
    ----------
    n_objects, n_features, n_clusters:
        Size of the data set and number of planted clusters.
    n_categories:
        Either an int (same vocabulary size for every feature) or a sequence
        of per-feature vocabulary sizes.
    purity:
        Probability that an object draws its cluster's modal value on a
        feature; higher means better separated clusters.
    cluster_weights:
        Optional relative cluster sizes (normalised internally).
    random_state:
        Seed or generator.
    """
    n_objects = check_positive_int(n_objects, "n_objects")
    n_features = check_positive_int(n_features, "n_features")
    n_clusters = check_positive_int(n_clusters, "n_clusters")
    purity = check_probability(purity, "purity")
    rng = ensure_rng(random_state)

    if isinstance(n_categories, (int, np.integer)):
        n_categories = [int(n_categories)] * n_features
    else:
        n_categories = [int(m) for m in n_categories]
        if len(n_categories) != n_features:
            raise ValueError(
                f"n_categories must have length {n_features}, got {len(n_categories)}"
            )
    if any(m < 2 for m in n_categories):
        raise ValueError("Every feature needs at least 2 possible values")

    if cluster_weights is None:
        weights = np.full(n_clusters, 1.0 / n_clusters)
    else:
        weights = np.asarray(cluster_weights, dtype=np.float64)
        if weights.shape[0] != n_clusters or (weights <= 0).any():
            raise ValueError("cluster_weights must be positive and of length n_clusters")
        weights = weights / weights.sum()

    labels = rng.choice(n_clusters, size=n_objects, p=weights)
    profiles = _sample_cluster_profiles(rng, n_clusters, n_features, n_categories, purity)

    codes = np.empty((n_objects, n_features), dtype=np.int64)
    for r in range(n_features):
        table = profiles[r]
        cdf = np.cumsum(table, axis=1)
        u = rng.random(n_objects)
        codes[:, r] = (u[:, None] > cdf[labels]).sum(axis=1)
    return CategoricalDataset.from_codes(
        codes, n_categories=n_categories, labels=labels, name=name
    )


def make_nested_clusters(
    n_objects: int = 1200,
    n_features: int = 8,
    n_coarse: int = 3,
    fine_per_coarse: int = 3,
    n_categories: int = 6,
    coarse_purity: float = 0.9,
    fine_purity: float = 0.9,
    random_state: RandomState = None,
    name: str = "nested-synthetic",
) -> CategoricalDataset:
    """Generate data with a *nested* multi-granular cluster structure.

    Half of the features carry the coarse-grained signal (shared by all fine
    clusters inside the same coarse cluster) and the other half carry the
    fine-grained signal, so the data exhibit the paper's nested cluster effect:
    ``n_coarse * fine_per_coarse`` compact fine clusters that merge into
    ``n_coarse`` coarse clusters.  The returned labels are the coarse labels;
    fine labels are exposed via the ``fine_labels`` attribute set on the
    returned data set object.
    """
    n_objects = check_positive_int(n_objects, "n_objects")
    n_coarse = check_positive_int(n_coarse, "n_coarse")
    fine_per_coarse = check_positive_int(fine_per_coarse, "fine_per_coarse")
    if n_features < 2:
        raise ValueError("n_features must be >= 2 so that both granularities have features")
    rng = ensure_rng(random_state)

    n_fine = n_coarse * fine_per_coarse
    fine_labels = rng.integers(0, n_fine, size=n_objects)
    coarse_labels = fine_labels // fine_per_coarse

    d_coarse = n_features // 2
    d_fine = n_features - d_coarse
    coarse_ds = _conditional_codes(rng, coarse_labels, n_coarse, d_coarse, n_categories, coarse_purity)
    fine_ds = _conditional_codes(rng, fine_labels, n_fine, d_fine, n_categories, fine_purity)
    codes = np.hstack([coarse_ds, fine_ds])

    dataset = CategoricalDataset.from_codes(
        codes,
        n_categories=[n_categories] * n_features,
        labels=coarse_labels,
        name=name,
    )
    # Expose the fine-grained labels for multi-granular analyses and tests.
    dataset.fine_labels = fine_labels  # type: ignore[attr-defined]
    return dataset


def _conditional_codes(
    rng: np.random.Generator,
    labels: np.ndarray,
    n_clusters: int,
    n_features: int,
    n_categories: int,
    purity: float,
) -> np.ndarray:
    """Sample codes for ``n_features`` features conditioned on ``labels``."""
    profiles = _sample_cluster_profiles(
        rng, n_clusters, n_features, [n_categories] * n_features, purity
    )
    n = labels.shape[0]
    codes = np.empty((n, n_features), dtype=np.int64)
    for r in range(n_features):
        cdf = np.cumsum(profiles[r], axis=1)
        u = rng.random(n)
        codes[:, r] = (u[:, None] > cdf[labels]).sum(axis=1)
    return codes


def make_drift_stream(
    n_batches: int = 20,
    batch_rows: int = 128,
    n_features: int = 8,
    n_clusters: int = 3,
    n_categories: int = 6,
    purity: float = 0.9,
    drift: float = 0.1,
    cluster_weights: Optional[Sequence[float]] = None,
    random_state: RandomState = None,
    name: str = "drift-stream",
) -> List[CategoricalDataset]:
    """Generate a concept-drift stream: cluster modes migrate across batches.

    Every batch draws from ``n_clusters`` planted clusters over ONE shared
    vocabulary (``n_categories`` values per feature), but between consecutive
    batches each (cluster, feature) pair re-draws its modal value with
    probability ``drift`` — the clusters keep their identities while their
    signatures wander, which is the concept-drift regime ``ingest`` has to
    track.  ``drift=0`` degenerates to a stationary stream.

    Fully seeded: the same ``random_state`` reproduces the same stream,
    batch for batch.  Each returned :class:`CategoricalDataset` carries its
    ground-truth ``labels`` plus a ``true_modes`` attribute — the
    ``(n_clusters, n_features)`` modal values in force when that batch was
    drawn — so drift benchmarks can score mode recovery over time.
    """
    n_batches = check_positive_int(n_batches, "n_batches")
    batch_rows = check_positive_int(batch_rows, "batch_rows")
    n_features = check_positive_int(n_features, "n_features")
    n_clusters = check_positive_int(n_clusters, "n_clusters")
    n_categories = check_positive_int(n_categories, "n_categories")
    if n_categories < 2:
        raise ValueError("Every feature needs at least 2 possible values")
    purity = check_probability(purity, "purity")
    drift = check_probability(drift, "drift")
    rng = ensure_rng(random_state)

    if cluster_weights is None:
        weights = np.full(n_clusters, 1.0 / n_clusters)
    else:
        weights = np.asarray(cluster_weights, dtype=np.float64)
        if weights.shape[0] != n_clusters or (weights <= 0).any():
            raise ValueError(
                "cluster_weights must be positive and of length n_clusters"
            )
        weights = weights / weights.sum()

    # Initial modal values: distinct across clusters where the vocabulary
    # allows, exactly like the stationary generator.
    modes = np.empty((n_features, n_clusters), dtype=np.int64)
    for r in range(n_features):
        preferred = rng.permutation(n_categories)
        modes[r] = [preferred[l % n_categories] for l in range(n_clusters)]

    off_mode = (1.0 - purity) / (n_categories - 1)
    batches: List[CategoricalDataset] = []
    for t in range(n_batches):
        labels = rng.choice(n_clusters, size=batch_rows, p=weights)
        codes = np.empty((batch_rows, n_features), dtype=np.int64)
        for r in range(n_features):
            table = np.full((n_clusters, n_categories), off_mode)
            table[np.arange(n_clusters), modes[r]] = purity
            cdf = np.cumsum(table, axis=1)
            u = rng.random(batch_rows)
            codes[:, r] = (u[:, None] > cdf[labels]).sum(axis=1)
        batch = CategoricalDataset.from_codes(
            codes,
            n_categories=[n_categories] * n_features,
            labels=labels,
            name=f"{name}[{t}]",
        )
        # The signatures in force when this batch was drawn (k, d).
        batch.true_modes = modes.T.copy()  # type: ignore[attr-defined]
        batches.append(batch)

        # Drift: each (feature, cluster) modal value migrates to a NEW value
        # with probability ``drift`` before the next batch.
        moved = rng.random((n_features, n_clusters)) < drift
        fresh = rng.integers(0, n_categories - 1, size=(n_features, n_clusters))
        fresh += fresh >= modes  # skip the current mode: always a real move
        modes = np.where(moved, fresh, modes)
    return batches


def make_syn_n(
    n_objects: int = 200_000,
    random_state: RandomState = 0,
) -> CategoricalDataset:
    """The paper's ``Syn_n`` data set: large ``n`` (200 000), d=10, k*=3, well separated."""
    return make_categorical_clusters(
        n_objects=n_objects,
        n_features=10,
        n_clusters=3,
        n_categories=5,
        purity=0.92,
        random_state=random_state,
        name="Syn_n",
    )


def make_syn_d(
    n_features: int = 1000,
    n_objects: int = 20_000,
    random_state: RandomState = 0,
) -> CategoricalDataset:
    """The paper's ``Syn_d`` data set: large ``d`` (1000), n=20 000, k*=3, well separated."""
    return make_categorical_clusters(
        n_objects=n_objects,
        n_features=n_features,
        n_clusters=3,
        n_categories=4,
        purity=0.92,
        random_state=random_state,
        name="Syn_d",
    )
