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

Both alternating steps run on the packed frequency engine
(:mod:`repro.engine`): the mode update reads the per-cluster level-value
counts straight from the packed table, and the weighted Hamming assignment is
one BLAS multiply against the engine's cached one-hot encoding of ``Gamma``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.assignment import AssignmentModel
from repro.core.base import ArrayOrDataset, BaseClusterer, coerce_codes, compact_labels
from repro.core.sync import InProcessShardExecutor
from repro.engine import ENGINES, EngineState, resolve_engine_kind
from repro.registry import register_clusterer
from repro.utils.rng import RandomState, spawn_rngs
from repro.utils.validation import check_positive_int


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

        # One executor serves every restart: the packed one-hot encoding of
        # Gamma is immutable, only the cluster counts are rebuilt per step.
        # The default executor holds one in-process shard (the serial path);
        # ShardedCAME swaps in any registered transport backend (process
        # pools, TCP workers) through make_executor.
        executor = self._make_executor(gamma, n_categories)
        try:
            executor.begin_epoch(self.n_clusters, None)
            # Every restart draws its initial modes from the same distinct rows.
            unique_rows = np.unique(gamma, axis=0)
            best: Optional[Tuple[float, np.ndarray, np.ndarray, np.ndarray, int]] = None
            for rng in spawn_rngs(self.random_state, self.n_init):
                labels, theta, modes, objective, n_iter = self._single_run(
                    gamma, unique_rows, executor, rng
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
    def _make_executor(self, gamma: np.ndarray, n_categories) -> InProcessShardExecutor:
        """Shard executor for the assignment/mode steps (one in-process shard).

        ``ShardedCAME`` overrides this with a registry-built transport
        backend (``repro.distributed.transport.make_executor``); the
        alternating loop is executor-protocol code either way.
        """
        return InProcessShardExecutor(gamma, n_categories, engine=self.engine)

    def _single_run(
        self,
        gamma: np.ndarray,
        unique_rows: np.ndarray,
        executor,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float, int]:
        """One alternating-optimisation restart as LocalUpdate/GlobalStep rounds.

        The assignment step (Eq. 20) and the count rebuild behind the mode
        update run shard-locally on the executor; the mode argmax, the theta
        update (Eqs. 21-22), the empty-cluster repair and the objective are
        the GlobalStep, evaluated by the coordinator on the merged counts and
        the full label vector.  Per-object distances are independent of the
        sharding, so the sharded path is bit-identical to the serial one.
        """
        n, sigma = gamma.shape
        theta = np.full(sigma, 1.0 / sigma)

        modes = self._initial_modes(gamma, unique_rows, rng)
        labels = executor.hamming_assign(modes, theta)
        labels = self._repair_empty(gamma, labels, rng)

        n_iter = 0
        for iteration in range(self.max_iter):
            n_iter = iteration + 1
            modes = self._modes_from_state(executor.rebuild(labels))
            if self.weighted:
                theta = self._update_theta(gamma, labels, modes)
            new_labels = executor.hamming_assign(modes, theta)
            new_labels = self._repair_empty(gamma, new_labels, rng)
            if np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels

        modes = self._modes_from_state(executor.rebuild(labels))
        objective = self._objective(gamma, labels, modes, theta)
        return compact_labels(labels), theta, modes, objective, n_iter

    def _initial_modes(
        self, gamma: np.ndarray, unique_rows: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Initialise modes from distinct rows of the encoding when possible.

        ``unique_rows`` is ``np.unique(gamma, axis=0)``, computed once per fit.
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
    def _update_theta(gamma: np.ndarray, labels: np.ndarray, modes: np.ndarray) -> np.ndarray:
        """Level-weight update (Eqs. 21-22): weight by intra-cluster agreement."""
        sigma = gamma.shape[1]
        matches = (gamma == modes[labels]).sum(axis=0).astype(np.float64)  # I_r
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
