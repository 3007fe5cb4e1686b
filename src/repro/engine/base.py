"""Backend protocol of the packed similarity engine.

Every frequency-table backend maintains the per-cluster categorical value
counts ``Psi_{F_r = f_rt}(C_l)`` behind the object-cluster similarity of the
paper (Eqs. 1-2 and 14) and exposes the same operations:

* bulk construction (:meth:`FrequencyEngine.rebuild`) and incremental
  maintenance (``add`` / ``remove`` / ``move`` and their ``*_many`` bulk
  variants) as objects move between clusters;
* the object-cluster similarities (``similarity_matrix`` /
  ``similarity_object``) including the leave-one-out correction used by
  MGCPL's competition;
* the feature-to-cluster weight statistics of Eqs. 15-18
  (``inter_cluster_difference`` / ``intra_cluster_similarity`` /
  ``feature_cluster_weights``);
* weighted Hamming distances to arbitrary reference rows
  (:meth:`FrequencyEngine.hamming_distances`), the primitive behind CAME's
  mode assignment step (Eq. 20).

Concrete backends live in :mod:`repro.engine.packed` (the vectorised
``PackedFrequencyEngine``, the ``"dense"`` engine that ``"auto"``,
``"chunked"`` and ``"compiled"`` alias; its one-hot is cached up to 2**26
cells and encoded per row block above that, so its memory stays bounded)
and :mod:`repro.engine.reference` (``"loop"``, the per-feature loop
implementation kept as a numerical reference).  ``hamming_distances`` is
shared by both.  New backends (sparse, multi-process) only need
to implement this protocol to become drop-in replacements for every consumer:
MGCPL, CAME, the competitive-learning baseline, WOCIL and the distributed
pre-partitioner.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.blas import run_in_threads
from repro.utils.validation import check_array_2d

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.engine.state import EngineState


class FrequencyEngine(ABC):
    """Abstract per-cluster frequency-table backend.

    Parameters
    ----------
    codes:
        ``(n, d)`` integer-coded data matrix (``-1`` marks missing values).
    n_categories:
        Vocabulary size ``m_r`` of each feature.
    n_clusters:
        Number of cluster slots ``k`` (clusters may be empty).

    Attributes
    ----------
    codes:
        The data matrix the engine was built over.
    n_categories:
        Per-feature vocabulary sizes.
    n_clusters:
        Number of cluster slots.
    sizes:
        ``(k,)`` array of cluster cardinalities ``n_l``.
    """

    codes: np.ndarray
    n_categories: List[int]
    n_clusters: int
    sizes: np.ndarray

    # ------------------------------------------------------------------ #
    # Construction / bulk updates
    # ------------------------------------------------------------------ #
    @classmethod
    def from_labels(
        cls,
        codes,
        labels,
        n_clusters: int,
        n_categories: Optional[Sequence[int]] = None,
        **kwargs,
    ) -> "FrequencyEngine":
        """Build the engine from a full assignment vector (``-1`` = unassigned)."""
        codes = np.asarray(codes, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape[0] != codes.shape[0]:
            raise ValueError("labels must have one entry per object")
        if n_categories is None:
            n_categories = [int(codes[:, r].max()) + 1 for r in range(codes.shape[1])]
        engine = cls(codes, n_categories, n_clusters, **kwargs)
        engine.rebuild(labels)
        return engine

    @abstractmethod
    def rebuild(self, labels) -> None:
        """Recompute all counts from scratch for the assignment ``labels``."""

    # ------------------------------------------------------------------ #
    # Incremental updates
    # ------------------------------------------------------------------ #
    @abstractmethod
    def add(self, i: int, cluster: int) -> None:
        """Add object ``i`` to ``cluster``."""

    @abstractmethod
    def remove(self, i: int, cluster: int) -> None:
        """Remove object ``i`` from ``cluster``."""

    def move(self, i: int, source: int, target: int) -> None:
        """Move object ``i`` from cluster ``source`` to ``target``."""
        if source == target:
            return
        self.remove(i, source)
        self.add(i, target)

    @abstractmethod
    def add_many(self, indices, clusters) -> None:
        """Add objects ``indices`` to their respective ``clusters`` in bulk."""

    @abstractmethod
    def remove_many(self, indices, clusters) -> None:
        """Remove objects ``indices`` from their respective ``clusters`` in bulk."""

    def move_many(self, indices, sources, targets) -> None:
        """Move objects between clusters in bulk.

        ``sources`` entries of ``-1`` mean the object was unassigned (a plain
        bulk add); objects whose source equals their target are skipped.
        """
        indices = np.asarray(indices, dtype=np.int64)
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        changed = sources != targets
        indices, sources, targets = indices[changed], sources[changed], targets[changed]
        assigned = sources >= 0
        if assigned.any():
            self.remove_many(indices[assigned], sources[assigned])
        if indices.size:
            self.add_many(indices, targets)

    # ------------------------------------------------------------------ #
    # Sufficient-statistics snapshots (sharded execution)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def snapshot(self) -> "EngineState":
        """Copy the current counts into a serializable :class:`EngineState`.

        Snapshots use the packed ``(k, M)`` layout regardless of the backend,
        so states taken from different backends over the same vocabulary are
        interchangeable and mergeable (see :mod:`repro.engine.state`).
        """

    @abstractmethod
    def restore(self, state: "EngineState") -> None:
        """Overwrite the engine's counts with ``state``.

        The engine's data matrix is untouched: restoring a *global* merged
        state into a shard-local engine is exactly how a sharded worker
        evaluates its objects against the global cluster statistics.
        """

    # ------------------------------------------------------------------ #
    # Similarities (Eqs. 1-2 and 14)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def similarity_object(
        self,
        x,
        feature_weights: Optional[np.ndarray] = None,
        exclude_cluster: Optional[int] = None,
    ) -> np.ndarray:
        """Similarity of one coded object ``x`` to every cluster: shape ``(k,)``."""

    @abstractmethod
    def similarity_matrix(
        self,
        codes=None,
        feature_weights: Optional[np.ndarray] = None,
        exclude_labels: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Similarity of every object to every cluster: shape ``(n, k)``."""

    def nearest_clusters(
        self,
        rows,
        allowed: np.ndarray,
        feature_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Most similar allowed cluster of each object in ``rows``: shape ``(len(rows),)``.

        ``rows`` are ascending object indices and ``allowed`` is a ``(k,)``
        mask; ties (and a row with no allowed cluster) go to the lowest
        cluster index, as ``argmax`` over ``-inf``-masked similarities.
        This default is the reference: it masks the whole
        :meth:`similarity_matrix`.  The packed backends score one row block
        at a time instead and never hold an ``(n, k)`` array.
        """
        sims = self.similarity_matrix(feature_weights=feature_weights)
        masked = np.where(np.asarray(allowed, dtype=bool)[None, :], sims, -np.inf)
        return masked[np.asarray(rows, dtype=np.int64)].argmax(axis=1)

    # ------------------------------------------------------------------ #
    # Feature-cluster weighting (Eqs. 15-18)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def inter_cluster_difference(self) -> np.ndarray:
        """``alpha_rl`` (Eq. 15): shape ``(d, k)``."""

    @abstractmethod
    def intra_cluster_similarity(self) -> np.ndarray:
        """``beta_rl`` (Eq. 16): shape ``(d, k)``."""

    @abstractmethod
    def feature_cluster_weights(self) -> np.ndarray:
        """``omega_rl`` (Eqs. 17-18): shape ``(d, k)``."""

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    @abstractmethod
    def modes(self) -> np.ndarray:
        """Per-cluster modal value of every feature: shape ``(k, d)``."""

    def hamming_distances(
        self, references, feature_weights: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Weighted Hamming distance of every object to each reference row.

        ``references`` is a ``(q, d)`` coded matrix (e.g. cluster modes);
        ``feature_weights`` an optional ``(d,)`` weight vector.  Missing
        values (``-1``) on either side always count as a mismatch; values
        outside a feature's vocabulary are rejected.  Returns shape
        ``(n, q)``.

        Per feature ``r``, an ``(m_r + 1, q)`` table holds the weight each
        value pays against each reference (last row: a missing value);
        gathering it by the objects' codes gives that feature's ``(n, q)``
        terms, added in ascending feature order — the loop's order, so the
        result is exact and no one-hot is built.  Rows are independent, so
        the packed engines fill row parts on their block workers
        (:meth:`_row_parts`) with the same bits.
        """
        references = check_array_2d(references, "references", dtype=np.int64)
        n, d = self.codes.shape
        if references.shape[1] != d:
            raise ValueError(f"references has {references.shape[1]} features, expected {d}")
        if feature_weights is None:
            weights = np.ones(d, dtype=np.float64)
        else:
            weights = np.asarray(feature_weights, dtype=np.float64).ravel()
            if weights.shape[0] != d:
                raise ValueError(f"feature_weights must have length {d}")
        vocab = np.asarray(self.n_categories, dtype=np.int64)
        if references.shape[0] and (references.max(axis=0) >= vocab).any():
            raise ValueError("references contain values outside the declared vocabularies")
        tables = []
        for r, m in enumerate(self.n_categories):
            ref = references[:, r]
            mismatch = (np.arange(m + 1)[:, None] != ref[None, :]) | (ref[None, :] < 0)
            tables.append(np.where(mismatch, weights[r], 0.0))
        dist = np.zeros((n, references.shape[0]), dtype=np.float64)
        parts, workers = self._row_parts(n)
        todo = iter(parts)

        def fill() -> None:
            for start, stop in todo:
                block = dist[start:stop]
                for r, (m, table) in enumerate(zip(self.n_categories, tables)):
                    col = self.codes[start:stop, r]
                    block += table.take(np.where(col >= 0, col, m), axis=0)

        run_in_threads(fill, workers)
        return dist

    def _row_parts(self, n: int) -> Tuple[List[Tuple[int, int]], int]:
        """Contiguous row parts of a row-independent pass, and its worker count.

        One part on the calling thread here; the packed engines split the
        rows among their block workers (:mod:`repro.engine.packed`).
        """
        return [(0, n)], 1

    def nonempty_clusters(self) -> np.ndarray:
        """Indices of clusters that currently contain at least one object."""
        return np.flatnonzero(self.sizes > 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n, d = self.codes.shape
        return f"{type(self).__name__}(n={n}, d={d}, k={self.n_clusters})"
