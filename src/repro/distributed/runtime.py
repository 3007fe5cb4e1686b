"""Sharded execution of MGCPL, CAME and MCDC: the ``Sharded*`` estimators.

:class:`ShardedMGCPL` / :class:`ShardedCAME` / :class:`ShardedMCDC` are
drop-in wrappers over the serial estimators that construct their shard
executor through :func:`~repro.distributed.transport.make_executor`, so any
registered backend — ``"serial"`` (the default), ``"tcp"`` or a plugin —
drives the *same* epoch/iteration loops.  Sharded results match the
serial ones: exactly for the count statistics and CAME (whose per-object
distances do not cross shard boundaries), and to floating-point tolerance
for MGCPL's learning trajectory (shard-wise partial sums of the competition
statistics regroup float additions).

With ``backend="serial"`` the estimators run the in-process multi-shard
executor — the full shard/merge protocol without processes, each shard's
sweep on the host's cores through the packed engine's block workers —
which is what the equivalence tests exercise deterministically.  With
``backend="tcp"`` the shards live behind ``repro worker`` servers, on other
hosts or on this one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.came import CAME
from repro.core.mcdc import MCDC, MCDCEncoder
from repro.core.mgcpl import MGCPL
from repro.distributed.transport import (
    ShardExecutor,
    ShardSpec,
    default_n_shards,
    get_backend_spec,
    make_executor,
    resolve_shard_indices,
)
from repro.registry import register_clusterer
from repro.utils.log import get_logger

__all__ = [
    "ShardedMGCPL",
    "ShardedCAME",
    "ShardedMCDC",
    "ShardedMCDCEncoder",
    "default_n_shards",
    "resolve_shard_indices",
]

_logger = get_logger(__name__)

#: Options the ``tcp`` backend no longer takes.  Saved models and experiment
#: configs may still name them; they are dropped with a warning so those
#: archives keep loading.
RETIRED_BACKEND_OPTIONS = ("shard_cache", "heartbeat_interval", "rebalance")


# ---------------------------------------------------------------------- #
# Sharded estimators
# ---------------------------------------------------------------------- #
class _ShardedMixin:
    """Shared sharding knobs of the Sharded* wrappers (validated once here)."""

    def _init_sharding(
        self,
        n_shards: ShardSpec,
        backend: str,
        hosts: Optional[Sequence[str]] = None,
        backend_options=None,
    ) -> None:
        # Validate the backend/hosts pairing now: an unknown backend, a
        # host-addressed backend without hosts, or hosts on a backend that
        # cannot use them must fail at construction, not mid-fit.
        spec = get_backend_spec(backend)
        hosts = list(hosts) if hosts is not None else None
        if "hosts" in spec.options and not hosts:
            raise ValueError(
                f"backend {spec.name!r} requires hosts=['host:port', ...] — "
                "start them with `repro worker --listen HOST:PORT`"
            )
        if hosts and "hosts" not in spec.options:
            raise ValueError(f"backend {spec.name!r} does not take hosts=")
        # Same early-validation story for the pass-through backend options
        # (max_retries/... on tcp): reject unknown keys here, not
        # after the dataset has been sharded.
        backend_options = dict(backend_options) if backend_options else {}
        retired = sorted(set(backend_options) & set(RETIRED_BACKEND_OPTIONS))
        if retired:
            _logger.warning(
                "ignoring retired backend option(s) %s", ", ".join(retired)
            )
            for key in retired:
                del backend_options[key]
        backend_options = backend_options or None
        if backend_options:
            unknown = sorted(set(backend_options) - set(spec.options))
            if unknown:
                raise ValueError(
                    f"backend {spec.name!r} does not accept option(s) "
                    f"{', '.join(unknown)}; it takes: {', '.join(spec.options) or 'none'}"
                )
        self.n_shards = n_shards
        self.backend = backend
        self.hosts = hosts
        self.backend_options = backend_options

    def _make_coordinator(
        self, codes: np.ndarray, n_categories, engine: str, shards: ShardSpec = None
    ) -> ShardExecutor:
        """The executor over ``codes``, sharded as ``shards`` (default: ``n_shards``)."""
        options = {}
        if self.backend_options:
            options.update(self.backend_options)
        if self.hosts is not None:
            options["hosts"] = list(self.hosts)
        executor = make_executor(
            self.backend,
            codes,
            n_categories,
            shards=self.n_shards if shards is None else shards,
            engine=engine,
            **options,
        )
        # Post-fit observability: the fit loop closes its executor, but the
        # object (and, on the resilient tcp backend, its recovery_events /
        # transport_stats) stays inspectable here.
        self.last_executor_ = executor
        return executor


@register_clusterer(
    "mgcpl@sharded",
    aliases=("sharded-mgcpl", "sharded_mgcpl"),
    description="MGCPL with batch epochs sharded over a pluggable backend",
    example_params={"n_shards": 2, "backend": "serial"},
)
class ShardedMGCPL(_ShardedMixin, MGCPL):
    """MGCPL whose batch epochs run sharded over a pluggable transport backend.

    Identical learning dynamics to :class:`~repro.core.mgcpl.MGCPL` (the
    epoch loop is shared code); only the shard executor differs.  Labels and
    the granularity ladder match the serial estimator up to floating-point
    regrouping of the competition statistics.

    Parameters (in addition to MGCPL's)
    ----------
    n_shards:
        Number of shards; ``None`` (default) uses one shard per available
        core (``backend="tcp"``: one per host).  Richer shard specs — an
        assignment vector, a :class:`PartitionPlan`, or index arrays — are
        accepted too.
    backend:
        A registered executor backend: ``"serial"`` (default) or ``"tcp"``
        (shards on ``repro worker`` servers).
    hosts:
        ``"host:port"`` worker addresses (``backend="tcp"`` only).
    backend_options:
        Extra backend options as a mapping — e.g. ``{"max_retries": 3,
        "timeout": 30.0}`` on ``"tcp"``.  Validated against the backend's
        registered option names.
    """

    def __init__(
        self,
        n_shards: ShardSpec = None,
        backend: str = "serial",
        hosts: Optional[Sequence[str]] = None,
        backend_options=None,
        **mgcpl_params,
    ) -> None:
        if mgcpl_params.get("update_mode", "batch") != "batch":
            raise ValueError(
                "ShardedMGCPL only supports update_mode='batch'; for online "
                "updates use MGCPL(update_mode='online')"
            )
        super().__init__(**mgcpl_params)
        self._init_sharding(n_shards, backend, hosts, backend_options)

    def _make_executor(self, codes: np.ndarray, n_categories: List[int]) -> ShardExecutor:
        return self._make_coordinator(codes, n_categories, self.engine)


@register_clusterer(
    "came@sharded",
    aliases=("sharded-came", "sharded_came"),
    description="CAME with its assignment step sharded",
    example_params={"n_clusters": 2, "n_shards": 2, "backend": "serial"},
)
class ShardedCAME(_ShardedMixin, CAME):
    """CAME whose assignment step runs sharded.

    The shards hold Gamma's distinct rows and assign each one (Eq. 20);
    the counts behind the mode update, the theta update, the empty-cluster
    repair and the objective run on the coordinator.  Bit-identical to the
    serial :class:`~repro.core.came.CAME` for the same ``random_state`` on
    every backend, as per-row Hamming distances never cross shard
    boundaries.  An object-level shard layout (an assignment vector, a
    :class:`PartitionPlan` or index arrays) places each distinct row on the
    shard of its first object.
    """

    def __init__(
        self,
        n_clusters: int,
        n_shards: ShardSpec = None,
        backend: str = "serial",
        hosts: Optional[Sequence[str]] = None,
        backend_options=None,
        **came_params,
    ) -> None:
        super().__init__(n_clusters, **came_params)
        self._init_sharding(n_shards, backend, hosts, backend_options)

    def _make_executor(
        self, rows: np.ndarray, n_categories, inverse: np.ndarray
    ) -> ShardExecutor:
        shards = self.n_shards
        if shards is not None and not isinstance(shards, (int, np.integer)):
            owner = np.empty(inverse.size, dtype=np.int64)
            for shard, indices in enumerate(resolve_shard_indices(inverse.size, shards)):
                owner[indices] = shard
            shards = owner[np.unique(inverse, return_index=True)[1]]
        return self._make_coordinator(rows, n_categories, self.engine, shards)


class ShardedMCDCEncoder(_ShardedMixin, MCDCEncoder):
    """MCDC encoder that runs :class:`ShardedMGCPL` for the MGCPL stage."""

    def __init__(
        self,
        n_shards: ShardSpec = None,
        backend: str = "serial",
        hosts: Optional[Sequence[str]] = None,
        backend_options=None,
        **encoder_params,
    ) -> None:
        super().__init__(**encoder_params)
        self._init_sharding(n_shards, backend, hosts, backend_options)

    def _build_mgcpl(self) -> ShardedMGCPL:
        return ShardedMGCPL(
            n_shards=self.n_shards,
            backend=self.backend,
            hosts=self.hosts,
            backend_options=self.backend_options,
            k0=self.k0,
            learning_rate=self.learning_rate,
            update_mode=self.update_mode,
            engine=self.engine,
            use_feature_weights=self.use_feature_weights,
            random_state=self.random_state,
        )


@register_clusterer(
    "mcdc@sharded",
    aliases=("sharded-mcdc", "sharded_mcdc"),
    description="The full MCDC pipeline on the sharded runtime",
    example_params={"n_clusters": 2, "n_shards": 2, "backend": "serial"},
)
class ShardedMCDC(_ShardedMixin, MCDC):
    """The full MCDC pipeline on the sharded runtime.

    MGCPL epochs fan out over the shard workers; the CAME aggregation of
    the (small, ``(n, sigma)``) encoding runs sharded as well so the whole
    pipeline exercises one execution model.  Seeding mirrors the serial
    :class:`~repro.core.mcdc.MCDC` draw for draw, so for the same
    ``random_state`` the pipelines follow the same trajectory up to MGCPL's
    floating-point regrouping.
    """

    def __init__(
        self,
        n_clusters: int,
        n_shards: ShardSpec = None,
        backend: str = "serial",
        hosts: Optional[Sequence[str]] = None,
        backend_options=None,
        **mcdc_params,
    ) -> None:
        super().__init__(n_clusters, **mcdc_params)
        self._init_sharding(n_shards, backend, hosts, backend_options)

    def _build_encoder(self, seed: int) -> ShardedMCDCEncoder:
        return ShardedMCDCEncoder(
            n_shards=self.n_shards,
            backend=self.backend,
            hosts=self.hosts,
            backend_options=self.backend_options,
            k0=self.k0,
            learning_rate=self.learning_rate,
            update_mode=self.update_mode,
            engine=self.engine,
            random_state=seed,
        )

    def _build_aggregator(self, seed: int) -> ShardedCAME:
        return ShardedCAME(
            n_clusters=self.n_clusters,
            n_shards=self.n_shards,
            backend=self.backend,
            hosts=self.hosts,
            backend_options=self.backend_options,
            weighted=self.weighted_aggregation,
            n_init=self.n_init,
            engine=self.engine,
            random_state=seed,
        )


# ---------------------------------------------------------------------- #
# Multi-host registry names: "<method>@tcp" pins backend="tcp" so remote
# fits are one make_clusterer("mgcpl@tcp", hosts=[...]) away.
# ---------------------------------------------------------------------- #
@register_clusterer(
    "mgcpl@tcp",
    aliases=("tcp-mgcpl",),
    description="MGCPL sharded over remote `repro worker` TCP hosts",
    example_params={"hosts": ["127.0.0.1:0"]},
)
def _make_mgcpl_tcp(**params) -> ShardedMGCPL:
    params.setdefault("backend", "tcp")
    return ShardedMGCPL(**params)


@register_clusterer(
    "came@tcp",
    aliases=("tcp-came",),
    description="CAME sharded over remote `repro worker` TCP hosts",
    example_params={"n_clusters": 2, "hosts": ["127.0.0.1:0"]},
)
def _make_came_tcp(n_clusters: int, **params) -> ShardedCAME:
    params.setdefault("backend", "tcp")
    return ShardedCAME(n_clusters, **params)


@register_clusterer(
    "mcdc@tcp",
    aliases=("tcp-mcdc",),
    description="The full MCDC pipeline over remote `repro worker` TCP hosts",
    example_params={"n_clusters": 2, "hosts": ["127.0.0.1:0"]},
)
def _make_mcdc_tcp(n_clusters: int, **params) -> ShardedMCDC:
    params.setdefault("backend", "tcp")
    return ShardedMCDC(n_clusters, **params)
