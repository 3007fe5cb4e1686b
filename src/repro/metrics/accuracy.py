"""Clustering accuracy (ACC) and purity."""

from __future__ import annotations

import numpy as np

from repro.metrics.contingency import contingency_matrix


def clustering_accuracy(labels_true, labels_pred) -> float:
    """Clustering Accuracy (ACC) in [0, 1].

    The fraction of correctly clustered objects under the optimal one-to-one
    matching between predicted clusters and true classes, computed with the
    Hungarian algorithm on the contingency table (the standard definition used
    by the paper).
    """
    # scipy is imported here, not at module level: the other indices (ARI
    # above all) need none of its ~40 MB of modules and libraries.
    from scipy.optimize import linear_sum_assignment

    table = contingency_matrix(labels_true, labels_pred)
    n = table.sum()
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    row_ind, col_ind = linear_sum_assignment(-padded)
    matched = padded[row_ind, col_ind].sum()
    return float(matched) / float(n)


def purity(labels_true, labels_pred) -> float:
    """Cluster purity in [0, 1]: each predicted cluster votes for its majority class."""
    table = contingency_matrix(labels_true, labels_pred)
    return float(table.max(axis=0).sum()) / float(table.sum())
