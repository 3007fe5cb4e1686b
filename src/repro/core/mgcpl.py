"""MGCPL: Multi-Granular Competitive Penalization Learning (paper Algorithm 1).

MGCPL explores the nested multi-granular cluster structure of categorical
data.  Learning starts from a relatively large number of seed clusters
``k_0`` (default ``sqrt(n)``).  Within an *epoch*, clusters compete for every
object: the winner is selected by the frequency-damped, weight-scaled
object-cluster similarity (Eq. 6), is awarded a small weight increment
(Eq. 12), while its nearest rival is penalized proportionally to its own
similarity (Eqs. 9, 13).  Feature-to-cluster weights ``omega_rl`` (Eqs.
14-18) sharpen the similarity as clusters take shape.  Clusters that stop
winning objects starve and are eliminated; when the partition stops changing
the epoch converges with ``k_i`` surviving clusters — one granularity level.
The learner then *inherits* that partition, resets the competition statistics
and re-launches, producing coarser and coarser levels until two consecutive
epochs converge to the same number of clusters (``k_sigma``).

The sequence of partitions ``Gamma = {Y_1, ..., Y_sigma}`` and cluster counts
``kappa = {k_1, ..., k_sigma}`` are the inputs of CAME
(:class:`repro.core.came.CAME`).

Two execution engines are provided:

* ``update_mode="online"`` — faithful to Algorithm 1: objects are processed
  one at a time and the frequency tables / weights are updated incrementally.
  Pure-Python loops; use on small data and in tests.
* ``update_mode="batch"`` (default) — one vectorised sweep computes all
  object-cluster similarities at once and applies the winner/rival updates in
  aggregate.  Preserves the competitive-penalization semantics while scaling
  to the paper's 200 000-object synthetic data set (Fig. 6).

The batch epoch is expressed as a bulk-synchronous LocalUpdate/GlobalStep
loop (:mod:`repro.core.sync`): shard-local competition sweeps feed a global
count merge and broadcast.  Serially it runs with one in-process shard; the
sharded wrappers construct any registered transport backend through
:func:`repro.distributed.transport.make_executor` — worker processes or
remote TCP hosts — and drive the identical loop over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.base import (
    ArrayOrDataset,
    BaseClusterer,
    coerce_codes,
    compact_labels,
    dataset_onehot_cache,
)
from repro.core.sync import InProcessShardExecutor, SweepBroadcast
from repro.engine import ENGINES, make_engine, resolve_engine_kind
from repro.registry import register_clusterer
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive_int


def winning_ratio(wins_prev: np.ndarray, alive: Optional[np.ndarray] = None) -> np.ndarray:
    """Frequency-damping ratio ``rho_l`` (Eq. 7), counted above the fair share only.

    Eq. 7 damps the score of cluster ``l`` by its share of last-sweep wins so
    that seed points in marginal positions are not starved before they had a
    chance to learn.  Applying the raw share once clusters are large makes a
    cluster that legitimately owns a third of the data lose ~33% of its score
    and causes the partition to oscillate instead of converging, so only the
    wins *in excess of the fair share* (total wins divided by the number of
    alive clusters) contribute to the damping — a cluster winning exactly its
    fair share is not penalized, while an early winner hogging most objects
    still is (the purpose of Eq. 7).

    When ``alive`` is not given, the fair share is derived from the clusters
    that actually won at least one object — counting eliminated or empty
    cluster slots would inflate the denominator, shrink the fair share of
    every real cluster, and under-penalise hogging clusters.
    """
    wins_prev = np.asarray(wins_prev, dtype=np.float64)
    total = wins_prev.sum()
    if total <= 0:
        return np.zeros_like(wins_prev)
    if alive is not None:
        n_alive = int(np.asarray(alive).sum())
    else:
        n_alive = int(np.count_nonzero(wins_prev > 0))
    fair = total / max(n_alive, 1)
    return np.clip(wins_prev - fair, 0.0, None) / total


def cluster_weight_from_delta(delta: np.ndarray) -> np.ndarray:
    """Sigmoid cluster weight ``u_l = 1 / (1 + exp(-10 delta_l + 5))`` (Eq. 11).

    The exponent is clipped to avoid overflow for strongly penalized clusters.
    """
    exponent = np.clip(-10.0 * np.asarray(delta, dtype=np.float64) + 5.0, -500.0, 500.0)
    return 1.0 / (1.0 + np.exp(exponent))


def online_competition_step(
    sims: np.ndarray,
    sizes: np.ndarray,
    alive: np.ndarray,
    rho: np.ndarray,
    delta: np.ndarray,
    eta: float,
    wins_current: np.ndarray,
    win_gain: np.ndarray,
    win_sim_total: np.ndarray,
    rival_pen: np.ndarray,
) -> int:
    """One object's winner/rival competition (Algorithm 1 lines 5-10).

    Given the object's similarity vector against the *current* cluster
    statistics, pick the winner ``v`` and rival ``h``, award/penalize
    ``delta`` (Eqs. 11-13) and accumulate the sweep's starvation statistics —
    exactly as the serial online reference.  The caller applies the
    assignment move; ``delta`` and the accumulators are mutated in place.
    """
    u = cluster_weight_from_delta(delta)
    scores = (1.0 - rho) * u * sims
    blocked = (sizes <= 0) | ~alive
    scores = np.where(blocked, -np.inf, scores)

    v = int(np.argmax(scores))
    rival_scores = scores.copy()
    rival_scores[v] = -np.inf
    h = int(np.argmax(rival_scores))

    wins_current[v] += 1.0                      # Eq. 10
    margin = max(sims[v] - (sims[h] if np.isfinite(rival_scores[h]) else 0.0), 0.0)
    win_gain[v] += margin
    win_sim_total[v] += sims[v]
    delta[v] = min(delta[v] + eta * margin, 20.0)          # Eq. 12 (margin award)
    if np.isfinite(rival_scores[h]):
        delta[h] = max(delta[h] - eta * sims[h], 0.5)      # Eq. 13 (floored)
        rival_pen[h] += sims[h]
    return v


@dataclass
class GranularityLevel:
    """One converged granularity level produced by MGCPL."""

    index: int
    n_clusters: int
    labels: np.ndarray
    n_sweeps: int
    cluster_weights: np.ndarray

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)


@dataclass
class MGCPLResult:
    """Full output of an MGCPL run: the multi-granular partitions and metadata."""

    initial_k: int
    levels: List[GranularityLevel] = field(default_factory=list)

    @property
    def kappa(self) -> List[int]:
        """The learned series of cluster counts ``{k_1, ..., k_sigma}``."""
        return [level.n_clusters for level in self.levels]

    @property
    def sigma(self) -> int:
        """Number of granularity levels learned."""
        return len(self.levels)

    @property
    def encoding(self) -> np.ndarray:
        """The MGCPL encoding ``Gamma``: an ``(n, sigma)`` matrix of cluster labels."""
        if not self.levels:
            raise RuntimeError("MGCPLResult has no levels")
        return np.column_stack([level.labels for level in self.levels])

    @property
    def final_labels(self) -> np.ndarray:
        """Labels of the coarsest granularity level (``k_sigma`` clusters)."""
        return self.levels[-1].labels

    @property
    def final_k(self) -> int:
        """The coarsest learned number of clusters ``k_sigma``."""
        return self.levels[-1].n_clusters

    def level_for_k(self, k: int) -> GranularityLevel:
        """Return the level whose cluster count is closest to ``k`` (ties: coarser)."""
        if not self.levels:
            raise RuntimeError("MGCPLResult has no levels")
        best = min(self.levels, key=lambda lvl: (abs(lvl.n_clusters - k), -lvl.index))
        return best


@register_clusterer(
    "mgcpl",
    description="Multi-Granular Competitive Penalization Learning (Algorithm 1)",
)
class MGCPL(BaseClusterer):
    """Multi-Granular Competitive Penalization Learning (Algorithm 1).

    Parameters
    ----------
    k0:
        Initial number of clusters.  ``None`` (default) uses the paper's
        setting ``k_0 = sqrt(n)`` (rounded up, at least 2, at most n).
    learning_rate:
        The learning rate ``eta`` (paper default 0.03).
    max_sweeps:
        Maximum number of passes over the data per epoch.
    max_epochs:
        Safety cap on the number of granularity levels.
    update_mode:
        ``"batch"`` (vectorised, default) or ``"online"`` (faithful
        object-at-a-time updates).
    engine:
        Frequency-table backend: ``"auto"`` (default: ``"compiled"`` when
        numba is importable, otherwise ``"dense"``), ``"dense"``,
        ``"compiled"`` or ``"loop"`` (the slow reference).  ``"dense"``
        bounds its memory by itself above 2**26 one-hot cells.  See
        :mod:`repro.engine`.
    use_feature_weights:
        Whether to use the feature-to-cluster weighting of Eqs. 14-18
        (disabling it falls back to the unweighted similarity of Eq. 1).
    random_state:
        Seed or generator controlling seed-object selection and sweep order.

    Attributes
    ----------
    result_:
        The :class:`MGCPLResult` with all granularity levels.
    kappa_:
        Convenience alias for ``result_.kappa``.
    encoding_:
        The ``(n, sigma)`` encoding ``Gamma``.
    labels_:
        Labels of the coarsest level (``k_sigma`` clusters).
    """

    def __init__(
        self,
        k0: Optional[int] = None,
        learning_rate: float = 0.03,
        max_sweeps: int = 30,
        max_epochs: int = 30,
        update_mode: str = "batch",
        engine: str = "auto",
        use_feature_weights: bool = True,
        prominence_threshold: float = 0.1,
        max_starve_fraction: float = 0.5,
        min_surviving_clusters: int = 2,
        random_state: RandomState = None,
    ) -> None:
        if k0 is not None:
            k0 = check_positive_int(k0, "k0", minimum=2)
        if not 0 < learning_rate < 1:
            raise ValueError(f"learning_rate must be in (0, 1), got {learning_rate}")
        if update_mode not in ("batch", "online"):
            raise ValueError(f"update_mode must be 'batch' or 'online', got {update_mode!r}")
        if resolve_engine_kind(engine, 0, 0) not in ENGINES:
            raise ValueError(
                f"engine must be 'auto' or one of {sorted(ENGINES)}, got {engine!r}"
            )
        if not 0.0 <= prominence_threshold < 1.0:
            raise ValueError(
                f"prominence_threshold must be in [0, 1), got {prominence_threshold}"
            )
        if not 0.0 < max_starve_fraction <= 1.0:
            raise ValueError(
                f"max_starve_fraction must be in (0, 1], got {max_starve_fraction}"
            )
        self.k0 = k0
        self.learning_rate = float(learning_rate)
        self.max_sweeps = check_positive_int(max_sweeps, "max_sweeps")
        self.max_epochs = check_positive_int(max_epochs, "max_epochs")
        self.update_mode = update_mode
        self.engine = engine
        self.use_feature_weights = bool(use_feature_weights)
        self.prominence_threshold = float(prominence_threshold)
        self.max_starve_fraction = float(max_starve_fraction)
        self.min_surviving_clusters = check_positive_int(
            min_surviving_clusters, "min_surviving_clusters"
        )
        self.random_state = random_state

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    #: Fitted attributes persisted alongside the assignment model.
    _persisted_attributes = ("kappa_",)

    def _fit(self, X: ArrayOrDataset) -> "MGCPL":
        codes, n_categories = coerce_codes(X)
        # A dataset-owned cache lets the dense one-hot encoding survive this
        # fit: the next fit over the same dataset (a restart) reuses it.
        self._onehot_cache = dataset_onehot_cache(X)
        n, d = codes.shape
        rng = ensure_rng(self.random_state)

        k_initial = self.k0 if self.k0 is not None else int(np.ceil(np.sqrt(n)))
        k_initial = int(min(max(k_initial, 2), n))

        result = MGCPLResult(initial_k=k_initial)

        executor = (
            self._make_executor(codes, n_categories)
            if self.update_mode == "batch" else None
        )
        try:
            k_old = -1
            k_current = k_initial
            min_k = self.min_surviving_clusters
            for epoch in range(self.max_epochs):
                # Every epoch re-launches the competition from k_current randomly
                # selected seed objects (Algorithm 1, line 3 sits inside the outer
                # loop): only the *number* of clusters is inherited from the
                # previous granularity level, while the learning statistics are
                # cleared (line 13).  A degenerate epoch in which all but one
                # cluster drain empty is retried with fresh seeds; if it keeps
                # collapsing, the previously learned levels stand and MGCPL stops.
                epoch_result = None
                for _attempt in range(3):
                    seeds = rng.choice(n, size=k_current, replace=False)
                    labels = np.full(n, -1, dtype=np.int64)
                    labels[seeds] = np.arange(k_current)
                    labels, k_new, n_sweeps, weights = self._run_epoch(
                        codes, n_categories, labels, k_current, rng, executor
                    )
                    if k_new >= min(min_k, k_current):
                        epoch_result = (labels, k_new, n_sweeps, weights)
                        break
                if epoch_result is None:
                    break
                labels, k_new, n_sweeps, weights = epoch_result
                result.levels.append(
                    GranularityLevel(
                        index=epoch,
                        n_clusters=k_new,
                        labels=labels.copy(),
                        n_sweeps=n_sweeps,
                        cluster_weights=weights,
                    )
                )
                if k_new == k_old or k_new <= min_k:
                    break
                k_old = k_new
                k_current = k_new
        finally:
            if executor is not None:
                executor.close()

        if not result.levels:
            # Extreme fallback (e.g. every retry collapsed): a single level
            # with all objects in one cluster keeps the API contract intact.
            result.levels.append(
                GranularityLevel(
                    index=0,
                    n_clusters=1,
                    labels=np.zeros(n, dtype=np.int64),
                    n_sweeps=0,
                    cluster_weights=np.ones(1),
                )
            )
        self.result_ = result
        self.kappa_ = result.kappa
        self.encoding_ = result.encoding
        self.labels_ = result.final_labels
        self.n_clusters_ = result.final_k
        return self

    def fit_encode(self, X: ArrayOrDataset) -> np.ndarray:
        """Fit MGCPL and return the multi-granular encoding ``Gamma``."""
        self.fit(X)
        return self.encoding_

    # ------------------------------------------------------------------ #
    # Epoch execution
    # ------------------------------------------------------------------ #
    def _make_executor(self, codes: np.ndarray, n_categories: List[int]):
        """Shard executor driving the batch epochs (one in-process shard).

        Subclasses (``repro.distributed.runtime.ShardedMGCPL``) override this
        to construct a registered transport backend via
        ``repro.distributed.transport.make_executor`` — worker processes,
        remote TCP hosts, or any plugin; the epoch loop itself only speaks
        the executor protocol and never branches on the backend.
        """
        return InProcessShardExecutor(
            codes,
            n_categories,
            engine=self.engine,
            onehot_cache=getattr(self, "_onehot_cache", None),
        )

    def _run_epoch(
        self,
        codes: np.ndarray,
        n_categories: List[int],
        labels_init: np.ndarray,
        k: int,
        rng: np.random.Generator,
        executor=None,
    ) -> Tuple[np.ndarray, int, int, np.ndarray]:
        """Run one competitive-penalization epoch starting from ``labels_init``.

        Returns the converged labels (compacted to ``0..k_new-1``), the number
        of surviving clusters, the number of sweeps used, and the surviving
        clusters' final weights.
        """
        if self.update_mode == "batch":
            if executor is None:
                # Direct callers get a private executor, closed after the epoch.
                with self._make_executor(codes, n_categories) as executor:
                    labels, delta, n_sweeps = self._epoch_batch(
                        codes, n_categories, labels_init, k, executor
                    )
            else:
                labels, delta, n_sweeps = self._epoch_batch(
                    codes, n_categories, labels_init, k, executor
                )
        else:
            labels, delta, n_sweeps = self._epoch_online(
                codes, n_categories, labels_init, k, rng
            )

        surviving = np.unique(labels)
        weights = cluster_weight_from_delta(delta[surviving])
        labels = compact_labels(labels)
        return labels, int(surviving.size), n_sweeps, weights

    def _epoch_batch(
        self,
        codes: np.ndarray,
        n_categories: List[int],
        labels_init: np.ndarray,
        k: int,
        executor,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Vectorised epoch as a bulk-synchronous shard loop.

        Each sweep is one LocalUpdate/GlobalStep round (see
        :mod:`repro.core.sync`): the executor runs the winner/rival
        competition shard-locally against the broadcast global counts, and
        this loop — the GlobalStep — merges the shard statistics, advances
        the learning state and decides convergence.  With the default
        single-shard in-process executor this is the serial batch engine;
        with the process-pool executor of the distributed runtime the exact
        same loop runs sharded.

        Elimination.  Under the paper's dynamics a cluster starves when its
        accumulated rival penalties (Eq. 13) outpace its winner awards
        (Eq. 12): its weight ``u_l`` decays towards zero, it stops attracting
        objects and its members are carved up by the survivors.  Waiting for
        that decay to play out takes a number of sweeps inversely
        proportional to ``eta`` even after the partition has stopped
        changing, so once the partition is stable we evaluate the net
        competitive balance ``B_l = W_l - P_l`` (wins minus similarity-
        weighted rival designations, i.e. the per-sweep drift of
        ``delta_l``) and eliminate the clusters whose balance is negative —
        exactly the clusters the award/penalty dynamics would eventually
        starve.  The epoch converges when the partition is stable and every
        surviving cluster has a non-negative balance.
        """
        n, d = codes.shape
        eta = self.learning_rate
        state = executor.begin_epoch(k, labels_init)

        # Reset of the learning statistics at the start of every epoch
        # (Algorithm 1, line 13): g_l = 0 and delta_l = 1 (=> u_l ~ 0.99).
        delta = np.ones(k, dtype=np.float64)
        wins_prev = np.zeros(k, dtype=np.float64)
        omega = np.full((d, k), 1.0 / d)
        labels = np.asarray(labels_init, dtype=np.int64).copy()
        alive = np.ones(k, dtype=bool)
        starved_this_epoch = False

        n_sweeps = 0
        for sweep in range(self.max_sweeps):
            n_sweeps = sweep + 1
            u = cluster_weight_from_delta(delta)
            rho = winning_ratio(wins_prev, alive)
            # Dead and eliminated clusters cannot attract objects.
            blocked = (state.sizes <= 0) | ~alive

            outcome = executor.sweep(
                SweepBroadcast(
                    state=state,
                    u=u,
                    rho=rho,
                    omega=omega if self.use_feature_weights else None,
                    blocked=blocked,
                )
            )
            state = outcome.state

            # Winner award (Eq. 12) and rival penalization (Eq. 13), aggregated
            # over the sweep.  The award of a win is proportional to the
            # winning *margin* s(x_i, C_v) - s(x_i, C_h) (see DESIGN.md §4:
            # with the constant +eta step of Eq. 12 a cluster that keeps
            # winning its own members can never starve and the multi-granular
            # elimination of Fig. 5 cannot emerge); every rival designation
            # contributes -eta * s(x_i, C_h) exactly as in Eq. 13.
            # The aggregate sweep update is normalised by the number of events
            # each cluster participated in, so the per-sweep drift of delta_l
            # stays on the order of +/- eta (one online step) regardless of n,
            # and the cluster weights evolve gradually as in the online
            # algorithm instead of jumping to saturation after a single sweep.
            events = np.maximum(outcome.win_counts + outcome.rival_counts, 1.0)
            delta = np.clip(
                delta + eta * (outcome.win_gain - outcome.rival_pen) / events, 0.5, 20.0
            )
            wins_prev = outcome.win_counts

            if not outcome.changed or sweep == self.max_sweeps - 1:
                starving = self._select_starving(
                    alive,
                    outcome.win_gain - outcome.rival_pen,
                    outcome.win_counts,
                    outcome.win_gain,
                    outcome.win_sim_total,
                )
                if starved_this_epoch or not starving.any():
                    labels = outcome.labels
                    break
                # One starvation event per epoch: the clusters whose penalties
                # outpace their awards at the stable partition are eliminated,
                # the partition is allowed to re-stabilise, and the epoch ends.
                # Coarser granularities are explored by the following epochs.
                starved_this_epoch = True
                alive &= ~starving
                delta[starving] = -20.0
                labels = outcome.labels
                if self.use_feature_weights:
                    omega = state.feature_cluster_weights()
                continue

            labels = outcome.labels
            if self.use_feature_weights:
                omega = state.feature_cluster_weights()
        labels = self._reassign_dead_members(codes, n_categories, labels, alive, omega)
        return labels, delta, n_sweeps

    def _reassign_dead_members(
        self,
        codes: np.ndarray,
        n_categories: List[int],
        labels: np.ndarray,
        alive: np.ndarray,
        omega: np.ndarray,
    ) -> np.ndarray:
        """Move objects still attached to eliminated clusters to their best surviving cluster.

        Needed when an epoch runs out of sweeps before the partition
        re-stabilises after a starvation event; a coordinator-side engine is
        built on demand (the common converged case has nothing stranded and
        skips the work entirely).  Only the stranded rows are scored
        (:meth:`~repro.engine.base.FrequencyEngine.nearest_clusters`), one
        row block at a time on the packed engines.
        """
        labels = labels.copy()
        stranded = (labels < 0) | ~alive[np.clip(labels, 0, alive.size - 1)]
        if not stranded.any():
            return labels
        table = make_engine(
            codes,
            n_categories,
            alive.size,
            kind=self.engine,
            labels=np.where(stranded, -1, labels),
        )
        allowed = alive & (table.sizes > 0)
        if not allowed.any():
            allowed = alive
        labels[stranded] = table.nearest_clusters(
            np.flatnonzero(stranded),
            allowed,
            feature_weights=omega if self.use_feature_weights else None,
        )
        return labels

    def _select_starving(
        self,
        alive: np.ndarray,
        balance: np.ndarray,
        win_counts: np.ndarray,
        win_gain: np.ndarray,
        win_sim_total: np.ndarray,
    ) -> np.ndarray:
        """Clusters eliminated at a stable partition.

        A cluster starves when any of the following holds:

        * it won no objects during the stable sweep (it has already been
          carved up by the survivors);
        * its competitive balance (margin awards minus rival penalties) is
          negative — the paper's award/penalty dynamics would drive its
          weight ``u_l`` to zero;
        * its *prominence* — the average winning margin of its members
          relative to their similarity to it — falls below
          ``prominence_threshold``, i.e. its members are nearly indifferent
          between it and their second choice, which is precisely the
          signature of a fine-grained cluster that should merge into a
          coarser one.

        At most ``max_starve_fraction`` of the currently alive clusters are
        starved per event (the weakest ones by balance), and at least
        ``min_surviving_clusters`` always survive, which yields the staged,
        multi-granular convergence of the paper's Fig. 5 instead of a
        one-shot collapse.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            prominence = np.where(win_sim_total > 0, win_gain / win_sim_total, 0.0)
        starving = alive & (
            (balance < 0.0)
            | (win_counts == 0)
            | (prominence < self.prominence_threshold)
        )
        n_alive = int(alive.sum())
        max_kill = min(
            max(int(np.floor(self.max_starve_fraction * n_alive)), 1),
            max(n_alive - self.min_surviving_clusters, 0),
        )
        if starving.sum() > max_kill:
            # Keep the strongest clusters: starve only the worst `max_kill`.
            candidates = np.flatnonzero(starving)
            order = candidates[np.argsort(balance[candidates])]
            keep = order[max_kill:]
            starving[keep] = False
        return starving

    def _epoch_online(
        self,
        codes: np.ndarray,
        n_categories: List[int],
        labels_init: np.ndarray,
        k: int,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Faithful object-at-a-time epoch (Algorithm 1 lines 4-12).

        The same starvation rule as the batch engine is applied once a sweep
        finishes without any reassignment: clusters whose rival penalties
        outpaced their awards during that stable sweep are eliminated and the
        sweeping continues; the epoch converges when the partition is stable
        and no cluster is starving.
        """
        n, d = codes.shape
        eta = self.learning_rate
        labels = np.asarray(labels_init, dtype=np.int64).copy()
        table = make_engine(codes, n_categories, k, kind=self.engine, labels=labels)

        delta = np.ones(k, dtype=np.float64)
        wins_prev = np.zeros(k, dtype=np.float64)
        omega = np.full((d, k), 1.0 / d)
        alive = np.ones(k, dtype=bool)
        starved_this_epoch = False

        n_sweeps = 0
        for sweep in range(self.max_sweeps):
            n_sweeps = sweep + 1
            changed = False
            wins_current = np.zeros(k, dtype=np.float64)
            win_gain = np.zeros(k, dtype=np.float64)
            win_sim_total = np.zeros(k, dtype=np.float64)
            rival_pen = np.zeros(k, dtype=np.float64)
            rho = winning_ratio(wins_prev, alive)

            order = rng.permutation(n)
            for i in order:
                sims = table.similarity_object(
                    codes[i],
                    feature_weights=omega if self.use_feature_weights else None,
                    exclude_cluster=int(labels[i]),
                )
                v = online_competition_step(
                    sims, table.sizes, alive, rho, delta, eta,
                    wins_current, win_gain, win_sim_total, rival_pen,
                )
                # Assign the object to the winner (Eq. 4 / line 6).
                if labels[i] != v:
                    if labels[i] >= 0:
                        table.remove(i, labels[i])
                    table.add(i, v)
                    labels[i] = v
                    changed = True

            wins_prev = wins_current
            if self.use_feature_weights:
                omega = table.feature_cluster_weights()     # Eqs. 15-18 (line 11)
            if not changed or sweep == self.max_sweeps - 1:
                starving = self._select_starving(
                    alive, win_gain - rival_pen, wins_current, win_gain, win_sim_total
                )
                if starved_this_epoch or not starving.any():
                    break
                starved_this_epoch = True
                alive &= ~starving
                delta[starving] = -20.0
        labels = self._reassign_dead_members(codes, n_categories, labels, alive, omega)
        return labels, delta, n_sweeps
