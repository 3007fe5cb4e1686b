"""Contingency-table utilities shared by all validity indices."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.validation import check_labels


def _canonicalize(labels: np.ndarray) -> Tuple[np.ndarray, int]:
    """Map arbitrary integer labels to 0..k-1 and return the number of distinct labels."""
    uniques, mapped = np.unique(labels, return_inverse=True)
    return mapped, uniques.size


def contingency_matrix(labels_true, labels_pred) -> np.ndarray:
    """Contingency table ``C`` with ``C[i, j]`` = #objects in true class i and predicted cluster j."""
    labels_true = check_labels(labels_true, name="labels_true")
    labels_pred = check_labels(labels_pred, n=labels_true.shape[0], name="labels_pred")
    true_mapped, n_true = _canonicalize(labels_true)
    pred_mapped, n_pred = _canonicalize(labels_pred)
    table = np.zeros((n_true, n_pred), dtype=np.int64)
    np.add.at(table, (true_mapped, pred_mapped), 1)
    return table


def relabel_to_match(labels_true, labels_pred) -> np.ndarray:
    """Relabel predicted clusters to best match the true classes (Hungarian assignment).

    Returns a copy of ``labels_pred`` whose cluster ids are replaced by the
    optimally matched true-class ids; unmatched predicted clusters (when the
    prediction has more clusters than the ground truth) keep fresh ids beyond
    the true-class range.
    """
    from scipy.optimize import linear_sum_assignment

    labels_true = check_labels(labels_true, name="labels_true")
    labels_pred = check_labels(labels_pred, n=labels_true.shape[0], name="labels_pred")
    table = contingency_matrix(labels_true, labels_pred)
    true_ids = np.unique(labels_true)
    pred_ids = np.unique(labels_pred)
    # Maximise matched mass == minimise negated table, padding to square.
    n = max(table.shape)
    padded = np.zeros((n, n), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    row_ind, col_ind = linear_sum_assignment(-padded)
    mapping = {}
    next_free = int(true_ids.max()) + 1 if true_ids.size else 0
    for r, c in zip(row_ind, col_ind):
        if c < pred_ids.size:
            if r < true_ids.size:
                mapping[int(pred_ids[c])] = int(true_ids[r])
            else:
                mapping[int(pred_ids[c])] = next_free
                next_free += 1
    out = np.array([mapping[int(p)] for p in labels_pred], dtype=np.int64)
    return out
