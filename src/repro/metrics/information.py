"""Information-theoretic validity indices: MI, NMI and AMI.

AMI (Adjusted Mutual Information) adjusts the mutual information for chance
using the expected mutual information under the permutation (hypergeometric)
model, following Vinh, Epps & Bailey (2010) — the same definition used by the
scikit-learn implementation the paper relies on.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.contingency import contingency_matrix
from repro.utils.validation import check_labels


def entropy_of_labels(labels) -> float:
    """Shannon entropy (in nats) of a label vector."""
    labels = check_labels(labels, name="labels")
    _, counts = np.unique(labels, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def mutual_information(labels_true, labels_pred) -> float:
    """Mutual information (in nats) between two labelings."""
    table = contingency_matrix(labels_true, labels_pred).astype(np.float64)
    n = table.sum()
    joint = table / n
    p_true = joint.sum(axis=1, keepdims=True)
    p_pred = joint.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(joint > 0, joint / (p_true @ p_pred), 1.0)
        mi = np.where(joint > 0, joint * np.log(ratio), 0.0).sum()
    return float(max(mi, 0.0))


def normalized_mutual_information(labels_true, labels_pred, average: str = "arithmetic") -> float:
    """Normalized mutual information in [0, 1]."""
    mi = mutual_information(labels_true, labels_pred)
    h_true = entropy_of_labels(labels_true)
    h_pred = entropy_of_labels(labels_pred)
    norm = _generalized_average(h_true, h_pred, average)
    if norm == 0.0:
        return 1.0 if mi == 0.0 else 0.0
    return float(mi / norm)


def expected_mutual_information(table: np.ndarray) -> float:
    """Expected MI of two labelings with the marginals of ``table`` under the permutation model."""
    from scipy.special import gammaln

    table = np.asarray(table, dtype=np.float64)
    n = table.sum()
    a = table.sum(axis=1)  # true-class sizes
    b = table.sum(axis=0)  # predicted-cluster sizes
    emi = 0.0
    log_n = np.log(n)
    gln_a = gammaln(a + 1)
    gln_b = gammaln(b + 1)
    gln_na = gammaln(n - a + 1)
    gln_nb = gammaln(n - b + 1)
    gln_n = gammaln(n + 1)
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            start = int(max(a[i] + b[j] - n, 1))
            end = int(min(a[i], b[j]))
            if end < start:
                continue
            nij = np.arange(start, end + 1, dtype=np.float64)
            term1 = nij / n * (np.log(nij) + log_n - np.log(a[i]) - np.log(b[j]))
            log_term2 = (
                gln_a[i] + gln_b[j] + gln_na[i] + gln_nb[j]
                - gln_n
                - gammaln(nij + 1)
                - gammaln(a[i] - nij + 1)
                - gammaln(b[j] - nij + 1)
                - gammaln(n - a[i] - b[j] + nij + 1)
            )
            emi += float(np.sum(term1 * np.exp(log_term2)))
    return emi


def adjusted_mutual_information(labels_true, labels_pred, average: str = "arithmetic") -> float:
    """Adjusted Mutual Information (AMI): 1 for identical partitions, ~0 for random ones."""
    labels_true = check_labels(labels_true, name="labels_true")
    labels_pred = check_labels(labels_pred, n=labels_true.shape[0], name="labels_pred")
    table = contingency_matrix(labels_true, labels_pred)
    # Degenerate cases: a single cluster on both sides is a perfect (trivial) match.
    if table.shape[0] == 1 and table.shape[1] == 1:
        return 1.0
    mi = mutual_information(labels_true, labels_pred)
    emi = expected_mutual_information(table)
    h_true = entropy_of_labels(labels_true)
    h_pred = entropy_of_labels(labels_pred)
    norm = _generalized_average(h_true, h_pred, average)
    denom = norm - emi
    if abs(denom) < 1e-15:
        return 1.0 if abs(mi - emi) < 1e-15 else 0.0
    return float((mi - emi) / denom)


def _generalized_average(u: float, v: float, average: str) -> float:
    if average == "arithmetic":
        return 0.5 * (u + v)
    if average == "geometric":
        return float(np.sqrt(u * v))
    if average == "min":
        return min(u, v)
    if average == "max":
        return max(u, v)
    raise ValueError(f"Unknown average method {average!r}")
