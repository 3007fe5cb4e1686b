"""MCDC: MGCPL-guided Categorical Data Clustering (the full pipeline).

MCDC chains the two components of the paper: MGCPL learns the nested
multi-granular cluster structure and produces the encoding ``Gamma``; CAME
(or any other categorical clusterer) aggregates the encoding into a final
partition with the sought number of clusters ``k``.

:class:`MCDCEncoder` exposes the intermediate encoding so that existing
categorical clustering algorithms can be *enhanced* by MCDC — this is how the
paper builds the MCDC+GUDMM and MCDC+FKMAWCW variants of Table III.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.base import ArrayOrDataset, BaseClusterer
from repro.core.came import CAME
from repro.core.mgcpl import MGCPL, MGCPLResult
from repro.data.dataset import CategoricalDataset
from repro.registry import register_clusterer
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive_int


class MCDCEncoder:
    """Encode categorical data by its MGCPL multi-granular cluster affiliations.

    The encoder runs MGCPL and exposes ``Gamma`` both as a raw ``(n, sigma)``
    integer matrix (:meth:`transform`) and as a :class:`CategoricalDataset`
    (:meth:`transform_dataset`) so any categorical clusterer in this library
    can consume it directly.
    """

    def __init__(
        self,
        k0: Optional[int] = None,
        learning_rate: float = 0.03,
        update_mode: str = "batch",
        engine: str = "auto",
        use_feature_weights: bool = True,
        random_state: RandomState = None,
    ) -> None:
        self.k0 = k0
        self.learning_rate = learning_rate
        self.update_mode = update_mode
        self.engine = engine
        self.use_feature_weights = use_feature_weights
        self.random_state = random_state

    def _build_mgcpl(self) -> MGCPL:
        """The MGCPL instance the encoder runs; the sharded encoder overrides this."""
        return MGCPL(
            k0=self.k0,
            learning_rate=self.learning_rate,
            update_mode=self.update_mode,
            engine=self.engine,
            use_feature_weights=self.use_feature_weights,
            random_state=self.random_state,
        )

    def fit(self, X: ArrayOrDataset) -> "MCDCEncoder":
        self.mgcpl_ = self._build_mgcpl().fit(X)
        self.result_: MGCPLResult = self.mgcpl_.result_
        self.encoding_ = self.result_.encoding
        self.kappa_ = self.result_.kappa
        return self

    def transform(self, X: Optional[ArrayOrDataset] = None) -> np.ndarray:
        """Return the ``(n, sigma)`` encoding of the fitted data."""
        self._check_fitted()
        return self.encoding_

    def transform_dataset(self, name: str = "mgcpl-encoding") -> CategoricalDataset:
        """Return the encoding wrapped as a :class:`CategoricalDataset`.

        Feature names carry the level index *and* its cluster count: MGCPL
        converges exactly when two consecutive levels share a cluster count,
        so naming levels by ``kappa`` alone would produce duplicate names
        (and :class:`CategoricalDataset` rejects those — this is what made
        every ``final_clusterer`` pipeline fail on converged encodings).
        """
        self._check_fitted()
        gamma = self.encoding_
        n_categories = [int(gamma[:, r].max()) + 1 for r in range(gamma.shape[1])]
        return CategoricalDataset.from_codes(
            gamma,
            n_categories=n_categories,
            feature_names=[f"level_{i}_k{k}" for i, k in enumerate(self.kappa_)],
            name=name,
        )

    def fit_transform(self, X: ArrayOrDataset) -> np.ndarray:
        return self.fit(X).transform()

    def _check_fitted(self) -> None:
        if not hasattr(self, "encoding_"):
            raise RuntimeError("MCDCEncoder must be fitted before transform()")


@register_clusterer(
    "mcdc",
    aliases=("mcdc+came",),
    description="The complete MCDC pipeline (MGCPL + CAME)",
    example_params={"n_clusters": 2},
)
class MCDC(BaseClusterer):
    """The complete MCDC clustering approach (MGCPL + CAME).

    Parameters
    ----------
    n_clusters:
        The sought number of clusters ``k`` handed to the aggregation stage.
    k0:
        Initial number of clusters of MGCPL; ``None`` uses ``sqrt(n)``
        (the paper's setting).
    learning_rate:
        MGCPL learning rate ``eta`` (paper default 0.03).
    weighted_aggregation:
        Whether CAME learns the granularity-level weights ``Theta``
        (``False`` reproduces the MCDC4 ablation).
    n_init:
        Number of CAME restarts.
    final_clusterer:
        Optional alternative clusterer applied to the MGCPL encoding instead
        of CAME (e.g. GUDMM or FKMAWCW, giving MCDC+G. / MCDC+F.).  The object
        must implement ``fit_predict`` on a :class:`CategoricalDataset`.
    update_mode:
        MGCPL execution engine (``"batch"`` or ``"online"``).
    engine:
        Frequency-table backend shared by MGCPL and CAME: ``"auto"``
        (default: ``"compiled"`` when numba is importable, otherwise
        ``"dense"``), ``"dense"``, ``"compiled"`` or ``"loop"``; ``"dense"``
        bounds its memory by itself above 2**26 one-hot cells.  See
        :mod:`repro.engine`.
    random_state:
        Seed or generator.

    Attributes
    ----------
    labels_:
        Final cluster labels.
    encoder_:
        The fitted :class:`MCDCEncoder` (gives access to ``Gamma`` and ``kappa``).
    aggregator_:
        The fitted CAME instance (or the supplied ``final_clusterer``).
    """

    def __init__(
        self,
        n_clusters: int,
        k0: Optional[int] = None,
        learning_rate: float = 0.03,
        weighted_aggregation: bool = True,
        n_init: int = 10,
        final_clusterer: Optional[BaseClusterer] = None,
        update_mode: str = "batch",
        engine: str = "auto",
        random_state: RandomState = None,
    ) -> None:
        self.n_clusters = check_positive_int(n_clusters, "n_clusters")
        self.k0 = k0
        self.learning_rate = learning_rate
        self.weighted_aggregation = bool(weighted_aggregation)
        self.n_init = check_positive_int(n_init, "n_init")
        self.final_clusterer = final_clusterer
        self.update_mode = update_mode
        self.engine = engine
        self.random_state = random_state

    def _build_encoder(self, seed: int) -> MCDCEncoder:
        """The MGCPL encoder stage; ``ShardedMCDC`` overrides this hook."""
        return MCDCEncoder(
            k0=self.k0,
            learning_rate=self.learning_rate,
            update_mode=self.update_mode,
            engine=self.engine,
            random_state=seed,
        )

    def _build_aggregator(self, seed: int) -> CAME:
        """The CAME aggregation stage; ``ShardedMCDC`` overrides this hook."""
        return CAME(
            n_clusters=self.n_clusters,
            weighted=self.weighted_aggregation,
            n_init=self.n_init,
            engine=self.engine,
            random_state=seed,
        )

    #: Fitted attributes persisted alongside the assignment model.
    _persisted_attributes = ("kappa_",)

    def _fit(self, X: ArrayOrDataset) -> "MCDC":
        rng = ensure_rng(self.random_state)
        encoder_seed = int(rng.integers(0, 2**31 - 1))
        aggregator_seed = int(rng.integers(0, 2**31 - 1))

        self.encoder_ = self._build_encoder(encoder_seed).fit(X)
        self.kappa_ = self.encoder_.kappa_
        self.encoding_ = self.encoder_.encoding_

        if self.final_clusterer is not None:
            encoded = self.encoder_.transform_dataset()
            labels = self.final_clusterer.fit_predict(encoded)
            self.aggregator_ = self.final_clusterer
        else:
            came = self._build_aggregator(aggregator_seed)
            labels = came.fit_predict(self.encoding_)
            self.aggregator_ = came

        self.labels_ = np.asarray(labels, dtype=np.int64)
        self.n_clusters_ = int(np.unique(self.labels_).size)
        return self

    @property
    def granularity_levels(self) -> List[int]:
        """The learned ``kappa`` sequence (requires a fitted model)."""
        self._check_fitted()
        return list(self.kappa_)


# ---------------------------------------------------------------------- #
# Composite paper methods: MCDC enhancing an existing clusterer (Sec. IV-A)
# ---------------------------------------------------------------------- #
def _enhanced_mcdc(final_factory, n_clusters, final_n_init, random_state, params):
    final = final_factory(
        n_clusters=n_clusters, n_init=final_n_init, random_state=random_state
    )
    backend = params.pop("backend", None)
    hosts = params.pop("hosts", None)
    if hosts is not None and backend is None:
        # Match the Sharded* estimators' strictness: hosts without a backend
        # must not silently produce a serial fit.
        raise ValueError("hosts= requires backend= (e.g. backend='tcp')")
    if backend is not None:
        # Sharded variant of the composite: the MGCPL encoder runs on the
        # requested transport backend; the final (baseline) clusterer is
        # inherently serial and stays on the coordinator.
        from repro.distributed.runtime import ShardedMCDC  # layered import

        return ShardedMCDC(
            n_clusters=n_clusters,
            final_clusterer=final,
            random_state=random_state,
            backend=backend,
            hosts=hosts,
            **params,
        )
    return MCDC(
        n_clusters=n_clusters,
        final_clusterer=final,
        random_state=random_state,
        **params,
    )


@register_clusterer(
    "mcdc+gudmm",
    aliases=("mcdc+g", "mcdc+g."),
    description="MCDC enhancing GUDMM: GUDMM clusters the MGCPL encoding",
    example_params={"n_clusters": 2},
)
def make_mcdc_gudmm(
    n_clusters: int,
    final_n_init: int = 3,
    random_state: RandomState = None,
    **mcdc_params,
) -> MCDC:
    """The paper's ``MCDC+G.``: GUDMM applied to the MGCPL encoding."""
    from repro.baselines.gudmm import GUDMM  # local import: baselines layer

    return _enhanced_mcdc(GUDMM, n_clusters, final_n_init, random_state, mcdc_params)


@register_clusterer(
    "mcdc+fkmawcw",
    aliases=("mcdc+f", "mcdc+f."),
    description="MCDC enhancing FKMAWCW: FKMAWCW clusters the MGCPL encoding",
    example_params={"n_clusters": 2},
)
def make_mcdc_fkmawcw(
    n_clusters: int,
    final_n_init: int = 3,
    random_state: RandomState = None,
    **mcdc_params,
) -> MCDC:
    """The paper's ``MCDC+F.``: FKMAWCW applied to the MGCPL encoding."""
    from repro.baselines.fkmawcw import FKMAWCW  # local import: baselines layer

    return _enhanced_mcdc(FKMAWCW, n_clusters, final_n_init, random_state, mcdc_params)
