"""Wilcoxon signed-rank test (paper Sec. IV-C, Table IV).

Implemented from first principles: zero differences are discarded (Wilcoxon's
original treatment), ties get average ranks, and the p-value uses the exact
permutation distribution of the signed-rank statistic for small samples
(n <= 25) and the normal approximation with tie correction otherwise.  The
implementation is cross-checked against ``scipy.stats.wilcoxon`` in the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class WilcoxonResult:
    """Outcome of a Wilcoxon signed-rank test."""

    statistic: float  # W+ (sum of ranks of positive differences)
    p_value: float
    n_effective: int  # number of non-zero differences actually ranked
    significant: bool
    alpha: float
    alternative: str

    def symbol(self) -> str:
        """Paper notation: '+' when significant, '-' otherwise (Table IV)."""
        return "+" if self.significant else "-"


def _signed_ranks(diff: np.ndarray) -> np.ndarray:
    """Average ranks of |diff| with ties handled by midranks."""
    abs_diff = np.abs(diff)
    order = np.argsort(abs_diff, kind="mergesort")
    ranks = np.empty_like(abs_diff)
    sorted_abs = abs_diff[order]
    n = len(diff)
    i = 0
    position = 1.0
    while i < n:
        j = i
        while j + 1 < n and sorted_abs[j + 1] == sorted_abs[i]:
            j += 1
        avg_rank = (position + position + (j - i)) / 2.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg_rank
        position += j - i + 1
        i = j + 1
    return ranks


def _exact_p_value(w_plus: float, ranks: np.ndarray, alternative: str) -> float:
    """Exact p-value by enumerating all 2^n sign assignments (n <= 25)."""
    n = len(ranks)
    # Enumerate via meet-in-the-middle style direct enumeration of sums.
    totals = np.zeros(1)
    for r in ranks:
        totals = np.concatenate([totals, totals + r])
    total_count = totals.shape[0]
    if alternative == "greater":
        p = float(np.count_nonzero(totals >= w_plus - 1e-12)) / total_count
    elif alternative == "less":
        p = float(np.count_nonzero(totals <= w_plus + 1e-12)) / total_count
    else:  # two-sided
        total_rank_sum = ranks.sum()
        mean = total_rank_sum / 2.0
        dev = abs(w_plus - mean)
        p = float(np.count_nonzero(np.abs(totals - mean) >= dev - 1e-12)) / total_count
    return min(p, 1.0)


def _normal_p_value(w_plus: float, ranks: np.ndarray, alternative: str) -> float:
    """Normal approximation with tie correction and continuity correction."""
    from scipy.stats import norm

    n = len(ranks)
    mean = n * (n + 1) / 4.0
    # Tie correction term on the variance.
    _, tie_counts = np.unique(ranks, return_counts=True)
    tie_term = float(((tie_counts**3 - tie_counts)).sum()) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    if var <= 0:
        return 1.0
    sd = np.sqrt(var)
    if alternative == "greater":
        z = (w_plus - mean - 0.5) / sd
        return float(norm.sf(z))
    if alternative == "less":
        z = (w_plus - mean + 0.5) / sd
        return float(norm.cdf(z))
    z = (abs(w_plus - mean) - 0.5) / sd
    return float(2.0 * norm.sf(z))


def wilcoxon_signed_rank(
    x: Sequence[float],
    y: Sequence[float],
    alpha: float = 0.1,
    alternative: str = "two-sided",
    exact_threshold: int = 25,
) -> WilcoxonResult:
    """Paired Wilcoxon signed-rank test of ``x`` versus ``y``.

    Parameters
    ----------
    x, y:
        Paired observations (e.g. per-data-set scores of two methods).
    alpha:
        Significance level; the paper uses 0.1 (90% confidence).
    alternative:
        'two-sided' (paper Table IV), 'greater' (x tends to exceed y) or 'less'.
    exact_threshold:
        Use the exact distribution when the number of non-zero differences is
        at most this value.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if alternative not in ("two-sided", "greater", "less"):
        raise ValueError(f"Unknown alternative {alternative!r}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")

    diff = x - y
    nonzero = diff[diff != 0]
    n_eff = int(nonzero.shape[0])
    if n_eff == 0:
        # Identical samples: no evidence of difference.
        return WilcoxonResult(0.0, 1.0, 0, False, alpha, alternative)

    ranks = _signed_ranks(nonzero)
    w_plus = float(ranks[nonzero > 0].sum())
    if n_eff <= exact_threshold:
        p = _exact_p_value(w_plus, ranks, alternative)
    else:
        p = _normal_p_value(w_plus, ranks, alternative)
    return WilcoxonResult(w_plus, p, n_eff, p < alpha, alpha, alternative)
