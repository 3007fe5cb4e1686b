"""Serializable sufficient-statistics snapshots of a frequency engine.

The per-cluster categorical value counts maintained by every
:class:`~repro.engine.base.FrequencyEngine` backend are *additive*: the
counts of a data set are exactly the element-wise sum of the counts of any
partition of it.  :class:`EngineState` captures those counts (in the packed
``(k, M)`` layout of :mod:`repro.engine.packed`) as a plain, picklable bundle
of arrays, which is what makes the sharded runtime of
:mod:`repro.distributed.runtime` exact rather than approximate:

* a worker computes the counts of its shard and ships ``engine.snapshot()``
  to the coordinator;
* the coordinator sums the shard snapshots with :meth:`EngineState.merge` —
  counts are integer-valued floats, so the merge is **bit-identical** to
  building the counts over the concatenated data in one process;
* the merged global state is broadcast back and loaded into each worker with
  ``engine.restore(state)``, after which shard-local similarity sweeps are
  evaluated against the *global* cluster statistics.

The Eqs. 15-18 feature-cluster weights and the per-cluster modes are pure
functions of the counts; the ``counts_*`` helpers below implement them once,
shared by the packed backends and by :class:`EngineState` itself, so the
coordinator can evaluate them on a merged state without any data matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np


# ---------------------------------------------------------------------- #
# Count-only statistics shared by the packed backends and EngineState
# ---------------------------------------------------------------------- #
def expand_per_feature(per_feature: np.ndarray, n_categories: Sequence[int]) -> np.ndarray:
    """Broadcast a per-feature row/matrix across each feature's packed columns."""
    return np.repeat(per_feature, list(n_categories), axis=-1)


def _offsets(n_categories: Sequence[int]) -> np.ndarray:
    sizes = np.asarray(list(n_categories), dtype=np.int64)
    return np.concatenate(([0], np.cumsum(sizes)[:-1]))


def _segment_sums(matrix: np.ndarray, n_categories: Sequence[int]) -> np.ndarray:
    """Per-feature segment sums of a ``(k, M)`` matrix: shape ``(k, d)``."""
    return np.add.reduceat(matrix, _offsets(n_categories), axis=1)


def counts_inter_cluster_difference(
    packed: np.ndarray, valid_counts: np.ndarray, n_categories: Sequence[int]
) -> np.ndarray:
    """``alpha_rl`` (Eq. 15) of a packed count table: shape ``(d, k)``."""
    total = packed.sum(axis=0)                              # (M,)
    valid = valid_counts                                    # (k, d)
    valid_total = valid.sum(axis=0)                         # (d,)
    rest_valid = valid_total[None, :] - valid               # (k, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        valid_cols = expand_per_feature(valid, n_categories)
        p_in = np.where(valid_cols > 0, packed / valid_cols, 0.0)
        rest = expand_per_feature(rest_valid, n_categories)
        p_out = np.where(rest > 0, (total[None, :] - packed) / rest, 0.0)
    sq = _segment_sums((p_in - p_out) ** 2, n_categories)   # (k, d)
    alpha = np.where(valid > 0, np.sqrt(sq) / np.sqrt(2.0), 0.0)
    return np.ascontiguousarray(alpha.T)


def counts_intra_cluster_similarity(
    packed: np.ndarray,
    valid_counts: np.ndarray,
    sizes: np.ndarray,
    n_categories: Sequence[int],
) -> np.ndarray:
    """``beta_rl`` (Eq. 16) of a packed count table: shape ``(d, k)``."""
    sum_sq = _segment_sums(packed**2, n_categories)         # (k, d)
    valid = valid_counts
    sizes = sizes[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.where(
            (valid > 0) & (sizes > 0),
            sum_sq / (valid * np.maximum(sizes, 1.0)),
            0.0,
        )
    return np.ascontiguousarray(beta.T)


def counts_feature_cluster_weights(
    packed: np.ndarray,
    valid_counts: np.ndarray,
    sizes: np.ndarray,
    n_categories: Sequence[int],
) -> np.ndarray:
    """``omega_rl`` (Eqs. 17-18) of a packed count table: shape ``(d, k)``."""
    H = counts_inter_cluster_difference(
        packed, valid_counts, n_categories
    ) * counts_intra_cluster_similarity(packed, valid_counts, sizes, n_categories)
    d = H.shape[0]
    col_sums = H.sum(axis=0)                                # (k,)
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = np.where(col_sums[None, :] > 0, H / col_sums[None, :], 1.0 / d)
    return omega


def counts_modes(
    packed: np.ndarray, valid_counts: np.ndarray, n_categories: Sequence[int]
) -> np.ndarray:
    """Per-cluster modal values of a packed count table: shape ``(k, d)``.

    One ``argmax`` over a ``(k, d, max m)`` grid of the counts padded with
    ``-1`` (never the first maximum, as counts are non-negative); a cluster
    with no value of a feature gets ``-1``.
    """
    n_categories = list(n_categories)
    k, d = packed.shape[0], len(n_categories)
    sizes = np.asarray(n_categories, dtype=np.int64)
    features = np.repeat(np.arange(d), sizes)
    values = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    grid = np.full((k, d, int(sizes.max(initial=1))), -1.0)
    grid[:, features, values] = packed
    return np.where(valid_counts > 0, grid.argmax(axis=2), -1).astype(np.int64)


def state_from_labels(
    codes: np.ndarray,
    n_categories: Sequence[int],
    labels: np.ndarray,
    n_clusters: int | None = None,
    weights: np.ndarray | None = None,
) -> "EngineState":
    """Count an assignment directly into an :class:`EngineState`.

    Follows the same conventions as the engine backends: ``sizes`` counts
    every assigned object (``0 <= labels < n_clusters``), while ``packed`` and
    ``valid_counts`` exclude missing entries (``codes == -1``).  The result is
    bit-identical to ``make_engine(...).snapshot()`` but needs no engine (no
    one-hot cache, no similarity kernels), which is what makes it cheap enough
    to run after every fit — it is the persistence layer's way of capturing a
    fitted model's sufficient statistics.

    ``weights`` (one integer-valued weight per row, e.g. the multiplicity
    of a distinct row) scales each row's counts; integer-valued float sums
    are exact, so the counts equal those of each row repeated that many
    times.  Every count is one ``bincount`` over linearised ``(cluster,
    packed value)`` cells, with a spare cluster row for unassigned objects
    and a spare column for missing values, both dropped.
    """
    codes = np.asarray(codes, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != codes.shape[0]:
        raise ValueError("labels must have one entry per object")
    n_categories = [int(m) for m in n_categories]
    d = len(n_categories)
    if codes.shape[1] != d:
        raise ValueError(f"codes has {codes.shape[1]} features but n_categories has {d}")
    if n_clusters is None:
        n_clusters = int(labels.max()) + 1 if labels.size and labels.max() >= 0 else 1
    k = int(n_clusters)
    M = sum(n_categories)
    width = M + 1

    rows = np.where((labels >= 0) & (labels < k), labels, k)
    cells = np.where(codes >= 0, codes + _offsets(n_categories), M)
    lin = (rows * width)[:, None] + cells
    cell_weights = None if weights is None else np.repeat(weights, d)
    counts = np.bincount(lin.ravel(), weights=cell_weights, minlength=(k + 1) * width)
    packed = counts.reshape(k + 1, width)[:k, :-1].astype(np.float64)
    sizes = np.bincount(rows, weights=weights, minlength=k + 1)[:k].astype(np.float64)
    valid = _segment_sums(packed, n_categories) if d else np.zeros((k, 0))
    return EngineState(packed, valid, sizes, tuple(n_categories))


@dataclass
class EngineState:
    """Additive sufficient statistics of a frequency engine.

    Attributes
    ----------
    packed:
        ``(k, M)`` value counts in the packed layout (``M = sum_r m_r``).
    valid_counts:
        ``(k, d)`` non-missing counts ``Psi_{F_r != NULL}(C_l)``.
    sizes:
        ``(k,)`` cluster cardinalities.
    n_categories:
        Per-feature vocabulary sizes (defines the packed column layout).
    """

    packed: np.ndarray
    valid_counts: np.ndarray
    sizes: np.ndarray
    n_categories: Tuple[int, ...]

    def __post_init__(self) -> None:
        self.packed = np.asarray(self.packed, dtype=np.float64)
        self.valid_counts = np.asarray(self.valid_counts, dtype=np.float64)
        self.sizes = np.asarray(self.sizes, dtype=np.float64)
        self.n_categories = tuple(int(m) for m in self.n_categories)
        k, M = self.packed.shape
        if self.valid_counts.shape != (k, len(self.n_categories)):
            raise ValueError(
                f"valid_counts must have shape {(k, len(self.n_categories))}, "
                f"got {self.valid_counts.shape}"
            )
        if self.sizes.shape != (k,):
            raise ValueError(f"sizes must have shape {(k,)}, got {self.sizes.shape}")
        if M != sum(self.n_categories):
            raise ValueError(
                f"packed has {M} columns but n_categories sums to {sum(self.n_categories)}"
            )

    # ------------------------------------------------------------------ #
    @property
    def n_clusters(self) -> int:
        return self.packed.shape[0]

    @property
    def n_features(self) -> int:
        return len(self.n_categories)

    def copy(self) -> "EngineState":
        return EngineState(
            self.packed.copy(), self.valid_counts.copy(), self.sizes.copy(), self.n_categories
        )

    # ------------------------------------------------------------------ #
    # Merging
    # ------------------------------------------------------------------ #
    def _check_compatible(self, other: "EngineState") -> None:
        if other.n_categories != self.n_categories:
            raise ValueError(
                "cannot merge EngineStates with different vocabularies: "
                f"{other.n_categories} vs {self.n_categories}"
            )
        if other.n_clusters != self.n_clusters:
            raise ValueError(
                "cannot merge EngineStates with different cluster counts: "
                f"{other.n_clusters} vs {self.n_clusters}"
            )

    def merge(self, *others: "EngineState") -> "EngineState":
        """Sum this state with ``others`` (shard-then-merge is exact).

        Counts are integer-valued floats well below 2**53, so float addition
        is exact and the merged state is bit-identical to counting over the
        union of the shards in one process.
        """
        merged = self.copy()
        for other in others:
            self._check_compatible(other)
            merged.packed += other.packed
            merged.valid_counts += other.valid_counts
            merged.sizes += other.sizes
        return merged

    @staticmethod
    def merge_all(states: Iterable["EngineState"]) -> "EngineState":
        """Merge an iterable of states (must be non-empty)."""
        states = list(states)
        if not states:
            raise ValueError("merge_all needs at least one EngineState")
        return states[0].merge(*states[1:])

    @classmethod
    def zeros(cls, n_categories: Sequence[int], n_clusters: int) -> "EngineState":
        """An empty state (all counts zero) for the given layout."""
        n_categories = tuple(int(m) for m in n_categories)
        M, d = sum(n_categories), len(n_categories)
        return cls(
            np.zeros((n_clusters, M)), np.zeros((n_clusters, d)),
            np.zeros(n_clusters), n_categories,
        )

    # ------------------------------------------------------------------ #
    # Count-only statistics
    # ------------------------------------------------------------------ #
    def modes(self) -> np.ndarray:
        """Per-cluster modal values (``(k, d)``; ``-1`` for empty clusters)."""
        return counts_modes(self.packed, self.valid_counts, self.n_categories)

    def inter_cluster_difference(self) -> np.ndarray:
        """``alpha_rl`` (Eq. 15) of these counts: shape ``(d, k)``."""
        return counts_inter_cluster_difference(self.packed, self.valid_counts, self.n_categories)

    def intra_cluster_similarity(self) -> np.ndarray:
        """``beta_rl`` (Eq. 16) of these counts: shape ``(d, k)``."""
        return counts_intra_cluster_similarity(
            self.packed, self.valid_counts, self.sizes, self.n_categories
        )

    def feature_cluster_weights(self) -> np.ndarray:
        """The Eqs. 15-18 weights ``omega_rl`` of these counts: ``(d, k)``."""
        return counts_feature_cluster_weights(
            self.packed, self.valid_counts, self.sizes, self.n_categories
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EngineState(k={self.n_clusters}, d={self.n_features}, "
            f"n={int(self.sizes.sum())})"
        )
