"""CAME: Cluster Aggregation based on MGCPL Encoding (paper Algorithm 2).

CAME treats the multi-granular partitions learned by MGCPL as a new
``(n, sigma)`` categorical representation ``Gamma`` (one feature per
granularity level) and clusters it with a feature-weighted k-modes procedure:
objects are assigned to the cluster whose mode is closest under the weighted
Hamming distance (Eq. 20), and the weight ``theta_r`` of each granularity
level is refreshed from the intra-cluster similarity it contributes
(Eqs. 21-22), so that the level whose partition agrees best with the emerging
clustering dominates the aggregation.  The alternating optimisation minimises
the objective of Eq. 19 and converges in a finite number of iterations.

Granular clusters nest, so many objects share their label at every level
and ``Gamma``'s rows repeat heavily (thousands of distinct rows among tens
of thousands of objects).  The assignment, mode and theta steps run on
the distinct rows (:class:`DistinctRows`), found once per fit in ``np.unique(gamma, axis=0)``'s
order: the weighted Hamming assignment (the engine's
:meth:`~repro.engine.base.FrequencyEngine.hamming_distances`, on the shard
executor) labels each distinct row once and every object takes its row's
label, while the counts behind the mode update and the matches behind the
theta update weight each distinct row by its multiplicity.  Those sums are
integer-valued, so modes and ``Theta`` keep the bits of a pass over every
object.  The empty-cluster repair and the objective still see every
object: the repair draws among objects, and the objective's float sum over
all ``n`` rows fixes ``objective_`` and which restart wins.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.assignment import AssignmentModel
from repro.core.base import ArrayOrDataset, BaseClusterer, coerce_codes, compact_labels
from repro.core.sync import InProcessShardExecutor
from repro.engine import ENGINES, EngineState, resolve_engine_kind, state_from_labels
from repro.registry import register_clusterer
from repro.utils.rng import RandomState, spawn_rngs
from repro.utils.validation import check_positive_int


class Labeling(NamedTuple):
    """An assignment of Gamma's objects, by distinct row or per object.

    ``rows`` holds one label per distinct row while every object has its
    row's label.  After a repair that moved objects it is ``None`` and
    ``objects`` holds the per-object labels instead.
    """

    rows: Optional[np.ndarray]
    objects: Optional[np.ndarray]


class DistinctRows(NamedTuple):
    """Gamma's distinct rows, how many objects share each, and each object's row.

    Granular clusters nest, so many objects share their label at every level
    and Gamma's rows repeat heavily.  CAME assigns, counts and matches each
    distinct row once, weighted by its multiplicity.
    """

    rows: np.ndarray                    # (u, sigma), np.unique(axis=0) order
    multiplicity: np.ndarray            # (u,) objects per row
    inverse: np.ndarray                 # (n,) each object's row
    n_categories: Tuple[int, ...]

    @classmethod
    def of(cls, codes: np.ndarray, n_categories: Sequence[int]) -> "DistinctRows":
        """The distinct rows of a non-negative code matrix, by one sort of int64 keys.

        A row's key reads its codes as the digits of a mixed-radix number
        (radix: the column's largest code plus one), so keys sort as rows
        do lexicographically, in ``np.unique(codes, axis=0)``'s order,
        without its sort of structured rows.  Before a column would carry
        the keys past int64, the keys so far are replaced by their dense
        ranks (same order, at most ``n`` values), and a column too wide
        even then by its own dense ranks.
        """
        key = np.zeros(codes.shape[0], dtype=np.int64)
        bound = 1  # every key is below it
        for column in codes.T:
            radix = int(column.max()) + 1
            if bound * radix > _KEY_MAX:
                key, bound = _dense_ranks(key)
            if bound * radix > _KEY_MAX:
                column, radix = _dense_ranks(column)
            key = key * radix + column
            bound *= radix
        _, first, inverse, counts = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True
        )
        return cls(codes[first], counts, inverse.ravel(), tuple(n_categories))

    def object_labels(self, labeling: Labeling) -> np.ndarray:
        """Every object's label under ``labeling``."""
        return labeling.objects if labeling.rows is None else labeling.rows[self.inverse]

    def counted(self, gamma: np.ndarray, labeling: Labeling):
        """``(codes, labels, weights)`` to count ``labeling`` over."""
        if labeling.rows is None:
            return gamma, labeling.objects, None
        return self.rows, labeling.rows, self.multiplicity

    def state(self, gamma: np.ndarray, labeling: Labeling, n_clusters: int) -> EngineState:
        """The cluster counts of ``labeling`` (integer-valued, so exact either way)."""
        codes, labels, weights = self.counted(gamma, labeling)
        return state_from_labels(codes, self.n_categories, labels, n_clusters, weights=weights)

    def same(self, a: Labeling, b: Labeling) -> bool:
        """Whether two labelings give every object the same label."""
        if a.rows is not None and b.rows is not None:
            return np.array_equal(a.rows, b.rows)
        return np.array_equal(self.object_labels(a), self.object_labels(b))


#: Largest int64: a distinct-row key never exceeds it.
_KEY_MAX = int(np.iinfo(np.int64).max)


def _dense_ranks(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Each value's rank among the distinct values, and how many there are."""
    distinct, ranks = np.unique(values, return_inverse=True)
    return ranks.ravel().astype(np.int64), int(distinct.size)


@register_clusterer(
    "came",
    description="Cluster Aggregation based on MGCPL Encoding (Algorithm 2)",
    example_params={"n_clusters": 2},
)
class CAME(BaseClusterer):
    """Feature-weighted k-modes aggregation of a multi-granular encoding.

    Parameters
    ----------
    n_clusters:
        The sought number of clusters ``k`` (typically ``k*``).
    weighted:
        Whether to learn the granularity-level weights ``Theta`` (Eqs. 21-22).
        With ``weighted=False`` all levels keep identical weights — this is
        the MCDC4 ablation of the paper.
    n_init:
        Number of random restarts; the solution with the lowest objective
        (Eq. 19) is kept.
    max_iter:
        Maximum number of alternating iterations per restart.
    engine:
        Frequency-table backend used for the mode/assignment steps:
        ``"auto"`` (default: ``"compiled"`` when numba is importable,
        otherwise ``"dense"``), ``"dense"``, ``"compiled"`` or ``"loop"``.
        ``"dense"`` bounds its memory by itself above 2**26 one-hot cells.
    random_state:
        Seed or generator for mode initialisation.

    Attributes
    ----------
    labels_:
        Final partition ``Q`` as a label vector.
    feature_weights_:
        The learned level weights ``Theta`` (shape ``(sigma,)``).
    modes_:
        Cluster modes ``Z`` over the encoding (shape ``(k, sigma)``).
    objective_:
        Final value of the objective ``P(Q, Theta)`` (Eq. 19).
    """

    def __init__(
        self,
        n_clusters: int,
        weighted: bool = True,
        n_init: int = 10,
        max_iter: int = 100,
        engine: str = "auto",
        random_state: RandomState = None,
    ) -> None:
        self.n_clusters = check_positive_int(n_clusters, "n_clusters")
        self.weighted = bool(weighted)
        self.n_init = check_positive_int(n_init, "n_init")
        self.max_iter = check_positive_int(max_iter, "max_iter")
        if resolve_engine_kind(engine, 0, 0) not in ENGINES:
            raise ValueError(
                f"engine must be 'auto' or one of {sorted(ENGINES)}, got {engine!r}"
            )
        self.engine = engine
        self.random_state = random_state

    # ------------------------------------------------------------------ #
    def _fit(self, X: ArrayOrDataset) -> "CAME":
        """Cluster the encoding ``Gamma`` (an ``(n, sigma)`` label matrix)."""
        gamma, n_categories = coerce_codes(X)
        n, sigma = gamma.shape
        if self.n_clusters > n:
            raise ValueError(f"n_clusters={self.n_clusters} exceeds number of objects {n}")

        # CAME treats a missing entry as a regular category of its level
        # (two missing entries agree), while the engine's Hamming kernel
        # counts missing as always-mismatch.  Remapping missing values to a
        # dedicated sentinel category per level keeps the assignment step,
        # theta update and objective on one consistent metric; sentinel
        # modes are mapped back to -1 in ``modes_``.
        sentinel = np.asarray(n_categories, dtype=np.int64)
        has_missing = bool((gamma < 0).any())
        if has_missing:
            gamma = np.where(gamma >= 0, gamma, sentinel[None, :])
            n_categories = [m + 1 for m in n_categories]

        # Every restart runs on Gamma's distinct rows, and draws its initial
        # modes from them.  One executor serves every restart: it holds the
        # distinct rows and answers the assignment step.  The default
        # executor holds one in-process shard (the serial path); ShardedCAME
        # swaps in any registered transport backend (TCP workers) through
        # make_executor.
        distinct = DistinctRows.of(gamma, n_categories)
        executor = self._make_executor(distinct.rows, n_categories, distinct.inverse)
        try:
            executor.begin_epoch(self.n_clusters, None)
            best: Optional[Tuple[float, np.ndarray, np.ndarray, np.ndarray, int]] = None
            for rng in spawn_rngs(self.random_state, self.n_init):
                labels, theta, modes, objective, n_iter = self._single_run(
                    gamma, distinct, executor, rng
                )
                if best is None or objective < best[0]:
                    best = (objective, labels, theta, modes, n_iter)
        finally:
            executor.close()

        assert best is not None
        objective, labels, theta, modes, n_iter = best
        if has_missing:
            modes = np.where(modes == sentinel[None, :], -1, modes)
        self.labels_ = labels
        self.n_clusters_ = int(np.unique(labels).size)
        self.feature_weights_ = theta
        self.modes_ = modes
        self.objective_ = float(objective)
        self.n_iter_ = int(n_iter)
        return self

    #: Fitted attributes persisted alongside the assignment model.
    _persisted_attributes = ("feature_weights_", "modes_", "objective_", "n_iter_")

    def _build_assignment_model(self, X: ArrayOrDataset) -> AssignmentModel:
        """CAME predicts with its fitted level weights ``Theta`` (Eq. 20).

        The counts are taken over the raw encoding (missing entries stay
        missing, i.e. always-mismatch at predict time, matching
        ``hamming_distances``); the weights are the learned ``Theta`` rather
        than the generic Eqs. 15-18 weights.
        """
        gamma, n_categories = coerce_codes(X)
        return AssignmentModel.from_labels(
            gamma, n_categories, self.labels_, feature_weights=self.feature_weights_
        )

    # ------------------------------------------------------------------ #
    def _make_executor(
        self, rows: np.ndarray, n_categories, inverse: np.ndarray
    ) -> InProcessShardExecutor:
        """Shard executor for the assignment step over ``rows``, Gamma's distinct rows.

        ``inverse`` maps each object to its row.  ``ShardedCAME`` overrides
        this with a registry-built transport backend
        (``repro.distributed.transport.make_executor``); the alternating
        loop is executor-protocol code either way.
        """
        return InProcessShardExecutor(rows, n_categories, engine=self.engine)

    def _single_run(
        self,
        gamma: np.ndarray,
        distinct: DistinctRows,
        executor,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float, int]:
        """One alternating-optimisation restart as LocalUpdate/GlobalStep rounds.

        The assignment step (Eq. 20) runs shard-locally on the executor,
        once per distinct row of Gamma; every object takes its row's label.
        The mode update, the theta update (Eqs. 21-22), the empty-cluster
        repair and the objective are the GlobalStep, evaluated by the
        coordinator.  Counts and matches are taken over the distinct rows
        weighted by their multiplicities: integer-valued sums, equal to
        those over every object.  A repair that moves objects may split a
        row's objects, so that iteration counts the objects themselves.
        Per-row distances are independent of the sharding, so the sharded
        path is bit-identical to the serial one.
        """
        sigma = gamma.shape[1]
        theta = np.full(sigma, 1.0 / sigma)

        modes = self._initial_modes(gamma, distinct.rows, rng)
        labeling = self._assign(executor, modes, theta, gamma, distinct, rng)

        n_iter = 0
        for iteration in range(self.max_iter):
            n_iter = iteration + 1
            modes = self._modes_from_state(distinct.state(gamma, labeling, self.n_clusters))
            if self.weighted:
                codes, labels, weights = distinct.counted(gamma, labeling)
                theta = self._update_theta(codes, labels, modes, weights)
            new_labeling = self._assign(executor, modes, theta, gamma, distinct, rng)
            converged = distinct.same(labeling, new_labeling)
            labeling = new_labeling
            if converged:
                break

        modes = self._modes_from_state(distinct.state(gamma, labeling, self.n_clusters))
        labels = distinct.object_labels(labeling)
        objective = self._objective(gamma, labels, modes, theta)
        return compact_labels(labels), theta, modes, objective, n_iter

    def _assign(self, executor, modes, theta, gamma, distinct, rng) -> Labeling:
        """The assignment step (Eq. 20) on the distinct rows, then the repair.

        The repair runs on the per-object labels, and only when a cluster is
        empty, which is when :meth:`_repair_empty` moves objects or draws.
        """
        row_labels = executor.hamming_assign(modes, theta)
        if np.bincount(row_labels, minlength=self.n_clusters).all():
            return Labeling(row_labels, None)
        return Labeling(None, self._repair_empty(gamma, row_labels[distinct.inverse], rng))

    def _initial_modes(
        self, gamma: np.ndarray, unique_rows: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Initialise modes from distinct rows of the encoding when possible.

        ``unique_rows`` are Gamma's distinct rows in ``np.unique(gamma,
        axis=0)``'s order (:class:`DistinctRows`), found once per fit.
        """
        k = self.n_clusters
        if unique_rows.shape[0] >= k:
            idx = rng.choice(unique_rows.shape[0], size=k, replace=False)
            return unique_rows[idx].copy()
        idx = rng.choice(gamma.shape[0], size=k, replace=gamma.shape[0] < k)
        return gamma[idx].copy()

    def _repair_empty(
        self, gamma: np.ndarray, labels: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Keep all ``k`` clusters populated by re-seeding empty ones with random objects."""
        labels = labels.copy()
        k = self.n_clusters
        counts = np.bincount(labels, minlength=k)
        for cluster in np.flatnonzero(counts == 0):
            donors = np.flatnonzero(np.bincount(labels, minlength=k)[labels] > 1)
            if donors.size == 0:
                break
            chosen = rng.choice(donors)
            labels[chosen] = cluster
        return labels

    @staticmethod
    def _modes_from_state(state: EngineState) -> np.ndarray:
        """Mode update: per cluster and level, the most frequent label value.

        The state reports ``-1`` for empty clusters; those rows fall back to
        value 0 (as the original loop implementation left them), which keeps
        an empty cluster's mode valid until :meth:`_repair_empty` refills it.
        """
        modes = state.modes()
        return np.where(modes >= 0, modes, 0)

    @staticmethod
    def _update_theta(
        gamma: np.ndarray,
        labels: np.ndarray,
        modes: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Level-weight update (Eqs. 21-22): weight by intra-cluster agreement.

        ``weights`` counts each row of ``gamma`` that many times (the
        multiplicities of distinct rows); the match counts are integers.
        """
        sigma = gamma.shape[1]
        agree = gamma == modes[labels]
        if weights is not None:
            agree = agree * weights[:, None]
        matches = agree.sum(axis=0).astype(np.float64)  # I_r
        total = matches.sum()
        if total <= 0:
            return np.full(sigma, 1.0 / sigma)
        return matches / total

    @staticmethod
    def _objective(
        gamma: np.ndarray, labels: np.ndarray, modes: np.ndarray, theta: np.ndarray
    ) -> float:
        """The CAME objective ``P(Q, Theta)`` (Eq. 19)."""
        mismatches = (gamma != modes[labels]).astype(np.float64)
        return float((mismatches * theta[None, :]).sum())
