"""Packed similarity engine: the shared frequency-table backend.

Every layer of the reproduction — MGCPL's competitive sweeps, CAME's
aggregation substrate, the competitive-learning and WOCIL baselines, and the
distributed pre-partitioner — evaluates the paper's object-cluster similarity
(Eqs. 1-2 and 14-18) through one of the backends in this package:

* :class:`PackedFrequencyEngine` (``"dense"``) — packed ``(k, M)`` counts,
  BLAS similarity kernels and MGCPL's sweep fused into one cache-blocked
  pass; the default.  Its one-hot is cached up to
  :data:`~repro.engine.packed.ONEHOT_MAX_CELLS` (2**26) cells and encoded one
  row block at a time above that, so memory stays bounded at any ``n``
  (Fig. 6 scale and beyond) with the same bits.
* :class:`LoopEngine` — the seed per-feature loop implementation, kept as the
  numerical reference for property tests and benchmarks.

Use :func:`make_engine` to construct a backend by name: ``"auto"``
(the default), ``"dense"`` or ``"loop"``.  ``"chunked"`` and ``"compiled"``,
separate engines once, are aliases of ``"dense"``.
"""

from __future__ import annotations

import importlib.util
from typing import Optional, Sequence

import numpy as np

from repro.engine.base import FrequencyEngine
from repro.engine.packed import OneHotCache, PackedFrequencyEngine
from repro.engine.reference import LoopEngine
from repro.engine.state import EngineState, state_from_labels

#: Whether numba is installed: a host fact perfbench records (nothing imports it).
NUMBA_AVAILABLE = importlib.util.find_spec("numba") is not None

ENGINES = {
    "dense": PackedFrequencyEngine,
    "loop": LoopEngine,
}

#: Other accepted names of an engine kind.  ``"chunked"`` and ``"compiled"``
#: named separate engines once, and saved models' parameters still carry them.
ENGINE_ALIASES = {"auto": "dense", "chunked": "dense", "compiled": "dense"}


def resolve_engine_kind(kind: str, n_objects: int, n_values: int) -> str:
    """Resolve ``"auto"`` or an alias to a concrete backend name.

    Every engine-name check goes through here.  The problem size does not
    matter: the dense engine bounds its own memory
    (:data:`~repro.engine.packed.ONEHOT_MAX_CELLS`).

    Raises
    ------
    ValueError
        If ``kind`` names neither an engine nor an alias.
    """
    if isinstance(kind, str):
        resolved = ENGINE_ALIASES.get(kind, kind)
        if resolved in ENGINES:
            return resolved
    raise ValueError(
        f"Unknown engine kind {kind!r}; expected one of {sorted(ENGINES)} "
        f"or an alias {sorted(ENGINE_ALIASES)}"
    )


def make_engine(
    codes,
    n_categories: Sequence[int],
    n_clusters: int,
    kind: str = "auto",
    labels: Optional[np.ndarray] = None,
    **kwargs,
) -> FrequencyEngine:
    """Build a frequency-table backend.

    Parameters
    ----------
    codes:
        ``(n, d)`` integer-coded data matrix (``-1`` marks missing values).
    n_categories:
        Per-feature vocabulary sizes.
    n_clusters:
        Number of cluster slots.
    kind:
        ``"auto"`` (default), ``"dense"`` or ``"loop"`` (``"auto"``,
        ``"chunked"`` and ``"compiled"`` are aliases of ``"dense"``).
    labels:
        Optional initial assignment; when given the engine is rebuilt from it.
    kwargs:
        Extra backend parameters (an ``onehot_cache`` shared by the packed
        backends; the loop backend drops it, so one call site can serve
        every backend).
    """
    codes = np.asarray(codes, dtype=np.int64)
    engine_cls = ENGINES[resolve_engine_kind(kind, codes.shape[0], int(sum(n_categories)))]
    if not issubclass(engine_cls, PackedFrequencyEngine):
        kwargs = {k: v for k, v in kwargs.items() if k != "onehot_cache"}
    engine = engine_cls(codes, n_categories, n_clusters, **kwargs)
    if labels is not None:
        engine.rebuild(labels)
    return engine


__all__ = [
    "EngineState",
    "state_from_labels",
    "FrequencyEngine",
    "PackedFrequencyEngine",
    "LoopEngine",
    "OneHotCache",
    "NUMBA_AVAILABLE",
    "ENGINES",
    "ENGINE_ALIASES",
    "resolve_engine_kind",
    "make_engine",
]
