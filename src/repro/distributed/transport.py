"""The shard-executor API: one registry, two backends.

PR 2 factored MGCPL's batch epoch (and CAME's alternating optimisation) into
a bulk-synchronous LocalUpdate/GlobalStep loop whose only contact with the
execution substrate is the *executor protocol* — ``begin_epoch`` / ``sweep``
/ ``hamming_assign`` / ``close``.  This module turns that
implicit protocol into a formal API, mirroring the clusterer registry of
:mod:`repro.registry`:

* :class:`ShardExecutor` is the coordinator-side ABC.  It owns the shard
  layout and implements the whole GlobalStep plumbing (scatter labels, gather
  per-shard results, merge :class:`~repro.engine.state.EngineState` counts)
  over a single abstract primitive, :meth:`ShardExecutor._map`.
* :func:`register_backend` / :func:`make_executor` form the backend registry.
  ``make_executor("serial" | "tcp", ...)`` is the only construction path for
  backends — estimators never branch on backend names.

Backends shipped with the library, one per job — one host, many hosts:

============  ===================================================  =========
name          executor                                             options
============  ===================================================  =========
``serial``    :class:`repro.core.sync.InProcessShardExecutor`:     —
              in-process shards whose sweeps use the host's cores
              through the packed engine's block workers; aliases
              keep the names of the folded single-host backends
``tcp``       one socket per shard to ``repro worker`` hosts,      ``hosts``,
              with retry-reconnect and shard re-placement          ``placement``,
              (:mod:`repro.distributed.rpc` +                      ``timeout``,
              :mod:`repro.distributed.resilience`); aliases        ``max_retries``
              ``streaming``, ``stream`` (kept for saved configs)
============  ===================================================  =========

``repro worker`` processes run OpenBLAS on one thread
(:mod:`repro.utils.blas`; an operator-set ``OPENBLAS_NUM_THREADS`` wins),
so a tcp fit's parallelism comes from the number of shards: place one shard
per core, on as many hosts as there are, or on one host with one worker per
core (:func:`repro.distributed.rpc.local_worker_pool` runs loopback workers
as threads of the caller, for tests and demos).  ``serial`` runs in the
caller's process.  Neither thread count changes a result bit.

Transport failures (a worker process dying, a socket closing mid-sweep)
surface as :class:`TransportError` rather than hangs or bare OS errors.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.sync import (
    InProcessShardExecutor,
    ShardUpdate,
    SweepBroadcast,
    SweepOutcome,
    contiguous_shards,
    shards_from_assignments,
)
from repro.distributed.partitioner import PartitionPlan
from repro.engine import EngineState
from repro.utils.registry import NamedRegistry
from repro.utils.validation import check_positive_int

__all__ = [
    "TransportError",
    "RemoteWorkerError",
    "ShardExecutor",
    "BackendSpec",
    "register_backend",
    "make_executor",
    "resolve_backend",
    "get_backend_spec",
    "available_backends",
    "backend_specs",
    "default_n_shards",
    "resolve_shard_indices",
    "ShardSpec",
]


class TransportError(RuntimeError):
    """A shard transport failed: worker died, connection lost, or handshake broke.

    Raised instead of letting backend-specific failures (``BrokenProcessPool``,
    ``ConnectionResetError``, EOF on a socket) leak through — or worse, hang —
    so callers can handle every backend's failure mode uniformly.
    """


class RemoteWorkerError(TransportError):
    """The worker *application* raised (reported back over a healthy channel).

    Distinguished from plain :class:`TransportError` so the resilience layer
    can tell a dead worker (re-place the shard, retry) from a deterministic
    remote exception (re-raises identically on any host — recovery would just
    replay the failure, so it is surfaced immediately instead).
    """


ShardSpec = Union[None, int, np.ndarray, PartitionPlan, Sequence[np.ndarray]]


def default_n_shards(requested: Optional[int] = None) -> int:
    """A sensible shard count: the requested one, else the ``REPRO_N_SHARDS``
    environment override, else one shard per available core (capped at
    :data:`MAX_DEFAULT_SHARDS` so the default stays spawnable).

    ``REPRO_N_SHARDS`` lets CI and containerized runs pin shard counts without
    code changes (container CPU quotas make ``os.cpu_count()`` a poor guide).
    """
    if requested is not None:
        return check_positive_int(requested, "n_shards")
    env = os.environ.get("REPRO_N_SHARDS", "").strip()
    if env:
        try:
            requested = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_N_SHARDS must be a positive integer, got {env!r}"
            ) from None
        return check_positive_int(requested, "REPRO_N_SHARDS")
    return min(max(os.cpu_count() or 1, 1), MAX_DEFAULT_SHARDS)


#: Cap on the *default* shard count (explicit requests may exceed it).
MAX_DEFAULT_SHARDS = 64


def resolve_shard_indices(n: int, shards: ShardSpec) -> List[np.ndarray]:
    """Normalise a shard specification into per-shard index arrays.

    ``shards`` may be ``None`` (one contiguous shard per available core, or
    per ``REPRO_N_SHARDS``), an int (contiguous split), a per-object
    assignment vector (a bare 1-d array of length ``n`` is always read as
    ``object i -> shard assignments[i]``), a :class:`PartitionPlan` (reuse the
    multi-granular pre-partitioner's locality-preserving layout), or a
    list/tuple of explicit per-shard index arrays (wrap a single index array
    in a list — unwrapped it would be parsed as an assignment vector).
    """
    if shards is None:
        return contiguous_shards(n, default_n_shards())
    if isinstance(shards, (int, np.integer)):
        return contiguous_shards(n, int(shards))
    if isinstance(shards, PartitionPlan):
        indices = shards_from_assignments(shards.assignments, shards.n_partitions)
    elif isinstance(shards, np.ndarray) and shards.ndim == 1 and shards.shape[0] == n:
        indices = shards_from_assignments(shards)
    else:
        indices = [np.asarray(idx, dtype=np.int64) for idx in shards]
    covered = np.concatenate(indices) if indices else np.empty(0, dtype=np.int64)
    if covered.size != n or np.unique(covered).size != n:
        raise ValueError("shard indices must cover every object exactly once")
    # Drop empty shards (a PartitionPlan may leave a bin empty on tiny data).
    return [idx for idx in indices if idx.size > 0]


# ---------------------------------------------------------------------- #
# The coordinator-side executor ABC
# ---------------------------------------------------------------------- #
class ShardExecutor(ABC):
    """Coordinator-side half of the LocalUpdate/GlobalStep protocol.

    Concrete backends provide :meth:`_map` (run one shard-local method on
    every shard and gather the per-shard results in shard order); everything
    the estimators call — the executor protocol proper — is implemented here
    once: label scatter, :class:`~repro.engine.state.EngineState` merges and
    the :class:`~repro.core.sync.SweepOutcome` assembly.
    """

    def __init__(self, shard_indices: Sequence[np.ndarray], n_objects: int) -> None:
        self.shard_indices = [np.asarray(idx, dtype=np.int64) for idx in shard_indices]
        self.n_objects = int(n_objects)

    @property
    def n_shards(self) -> int:
        return len(self.shard_indices)

    @abstractmethod
    def _map(self, method: str, per_shard_args=None, common: tuple = ()) -> list:
        """Run one shard-local method on every shard; per-shard results in order."""

    def _scatter(self, labels: Optional[np.ndarray]) -> list:
        if labels is None:
            return [(None,) for _ in self.shard_indices]
        labels = np.asarray(labels, dtype=np.int64)
        return [(labels[idx],) for idx in self.shard_indices]

    # ------------------------------------------------------------------ #
    # Executor protocol
    # ------------------------------------------------------------------ #
    def begin_epoch(self, n_clusters: int, labels: Optional[np.ndarray]) -> EngineState:
        """Build the shard engines for ``n_clusters`` and merge the counts."""
        args = [(n_clusters, shard_labels) for (shard_labels,) in self._scatter(labels)]
        return EngineState.merge_all(self._map("begin_epoch", args))

    def sweep(self, broadcast: SweepBroadcast) -> SweepOutcome:
        """One global MGCPL sweep: shard-local competition + exact count merge."""
        updates: List[ShardUpdate] = self._map("sweep", common=(broadcast,))
        return SweepOutcome.from_updates(updates, self.shard_indices, self.n_objects)

    def hamming_assign(self, modes: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """CAME's Eq. 20 assignment, shard-local; gathered in coordinator order."""
        shard_labels = self._map("hamming_assign", common=(modes, theta))
        labels = np.empty(self.n_objects, dtype=np.int64)
        for idx, part in zip(self.shard_indices, shard_labels):
            labels[idx] = part
        return labels

    def close(self) -> None:
        """Tear the backend down; must be idempotent."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# The in-process reference executor (repro.core.sync) predates this ABC and
# cannot import it without a cycle; it satisfies the protocol structurally
# and is blessed as a virtual subclass so isinstance checks hold.
ShardExecutor.register(InProcessShardExecutor)


# ---------------------------------------------------------------------- #
# Backend registry
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class BackendSpec:
    """One registry entry: how to build a shard executor and what to call it.

    ``factory(codes, n_categories, shard_indices, engine, **options)`` must
    return a :class:`ShardExecutor`; ``options`` names the keyword options the
    factory accepts, so :func:`make_executor` can reject unknown ones with a
    message that names the backend instead of a bare ``TypeError``.
    """

    name: str
    factory: Callable[..., ShardExecutor]
    description: str = ""
    aliases: Tuple[str, ...] = ()
    options: Tuple[str, ...] = ()


def _populate_backends() -> None:
    """Import the modules whose definitions carry the registration decorators."""
    import repro.distributed.resilience  # noqa: F401  (registers "tcp")


_BACKENDS = NamedRegistry("executor backend", populate=_populate_backends)

_normalize = NamedRegistry.normalize


def register_backend(
    name: str,
    *,
    aliases: Tuple[str, ...] = (),
    description: str = "",
    options: Tuple[str, ...] = (),
):
    """Function/class decorator adding an entry to the backend registry."""

    def wrap(obj):
        doc_lines = (obj.__doc__ or "").strip().splitlines()
        spec = BackendSpec(
            name=_normalize(name),
            factory=obj,
            description=description or (doc_lines[0] if doc_lines else ""),
            aliases=tuple(_normalize(a) for a in aliases),
            options=tuple(options),
        )
        _BACKENDS.register(spec.name, spec, factory=obj, aliases=spec.aliases)
        return obj

    return wrap


def resolve_backend(name: str) -> str:
    """Canonical registry name for ``name`` (exact, alias, or error)."""
    return _BACKENDS.resolve(name)


def get_backend_spec(name: str) -> BackendSpec:
    """The :class:`BackendSpec` registered under ``name`` (or an alias)."""
    return _BACKENDS.get(name)


def available_backends() -> List[str]:
    """Sorted canonical names of every registered executor backend."""
    return _BACKENDS.names()


def backend_specs() -> List[BackendSpec]:
    """All backend registry entries, sorted by canonical name."""
    return _BACKENDS.specs()


def make_executor(
    backend: str,
    codes: np.ndarray,
    n_categories: Sequence[int],
    shards: ShardSpec = None,
    engine: str = "auto",
    **options: Any,
) -> ShardExecutor:
    """Construct a shard executor through the backend registry.

    Parameters
    ----------
    backend:
        Registered backend name (``"serial"``, ``"tcp"``, an alias of one,
        or any plugin registered with :func:`register_backend`).
    codes:
        ``(n, d)`` integer-coded data matrix.
    n_categories:
        Per-feature vocabulary sizes.
    shards:
        Shard specification (see :func:`resolve_shard_indices`).  ``None``
        defaults to one shard per core — except for backends taking a
        ``hosts`` option, where it defaults to one shard per host.
    engine:
        Frequency-engine backend built inside each shard worker.
    options:
        Backend-specific keyword options (``hosts``, ``placement``,
        ``timeout``, ``max_retries`` for ``tcp``), validated against the
        backend's declared option names.
    """
    spec = get_backend_spec(backend)
    unknown = sorted(set(options) - set(spec.options))
    if unknown:
        accepted = ", ".join(spec.options) if spec.options else "none"
        raise ValueError(
            f"backend {spec.name!r} does not accept option(s) {unknown}; "
            f"accepted options: {accepted}"
        )
    codes = np.asarray(codes, dtype=np.int64)
    if shards is None and options.get("hosts"):
        shards = len(options["hosts"])
    shard_indices = resolve_shard_indices(codes.shape[0], shards)
    return spec.factory(
        codes, list(n_categories), shard_indices, engine=engine, **options
    )


# ---------------------------------------------------------------------- #
# The serial backend (the reference executor, registered here)
# ---------------------------------------------------------------------- #
#: Names of the serial backend.  The last six named single-host process
#: backends, since folded into this one; saved models and experiment
#: configs still carry them.
SERIAL_ALIASES = (
    "inprocess", "in-process", "local",
    "shm", "sharedmem", "shared-memory", "process", "multiprocess", "processes",
)


@register_backend(
    "serial",
    aliases=SERIAL_ALIASES,
    description="In-process shards on one host's cores: the protocol-faithful reference",
)
def _make_serial_executor(
    codes: np.ndarray,
    n_categories: Sequence[int],
    shard_indices: Sequence[np.ndarray],
    engine: str = "auto",
) -> InProcessShardExecutor:
    """In-process shards on one host's cores: the protocol-faithful reference."""
    return InProcessShardExecutor(codes, n_categories, shard_indices, engine=engine)
