"""Central clusterer registry: one place that knows every method by name.

Before this module existed, the method zoo was re-enumerated by hand in every
layer — the experiment runner's ``if``/``elif`` ladder, the CLI's method list,
the figure drivers' private factories.  Now each estimator registers itself
where it is defined::

    @register_clusterer("mcdc", aliases=("MCDC",), example_params={"n_clusters": 2})
    class MCDC(BaseClusterer):
        ...

and every consumer constructs through the factory::

    model = make_clusterer("mcdc", n_clusters=4, random_state=0)
    model = make_clusterer("mcdc@sharded", n_clusters=4, n_shards=8)
    model = make_clusterer("MCDC+G.", n_clusters=4)   # paper aliases resolve too

Names are case-insensitive and ignore spaces; the paper's Table III column
names (``"K-MODES"``, ``"MCDC+G."``) are registered as aliases of the
canonical entries, and the sharded wrappers are registered under
``"<name>@sharded"`` (plus ``"<name>@tcp"`` presets that pin the multi-host
backend).  Registration itself lives next to each class; this module lazily
imports the implementation packages on the first lookup of a name that is
not registered yet (or the first listing), so ``import repro.registry``
stays cycle-free and cheap, and ``make_clusterer("mcdc")`` or loading an
MCDC model never imports the baselines or the sharded runtime.

The *executor backend* registry behind the sharded wrappers' ``backend=``
parameter follows the same pattern one layer down — see
:func:`repro.distributed.transport.register_backend` /
:func:`~repro.distributed.transport.make_executor`.  Both registries share
the same bookkeeping (normalised names, alias conflict detection, lazy
population with rollback) through
:class:`repro.utils.registry.NamedRegistry`; this module keeps the
clusterer-specific spec and public functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.utils.registry import NamedRegistry

__all__ = [
    "ClustererSpec",
    "register_clusterer",
    "make_clusterer",
    "resolve_name",
    "get_clusterer_spec",
    "available_clusterers",
    "registered_specs",
    "spec_for_instance",
]


def _populate() -> None:
    """Import the packages whose modules carry the registration decorators."""
    import repro.baselines  # noqa: F401
    import repro.core  # noqa: F401
    import repro.distributed.runtime  # noqa: F401


_REGISTRY = NamedRegistry("clusterer", populate=_populate)

#: Case- and whitespace-insensitive lookup key (shared helper).
_normalize = NamedRegistry.normalize


@dataclass(frozen=True)
class ClustererSpec:
    """One registry entry: how to build a clusterer and what to call it."""

    name: str
    factory: Callable[..., Any]
    cls: Optional[type]
    aliases: Tuple[str, ...] = ()
    description: str = ""
    #: Minimal kwargs with which ``factory`` constructs a working instance;
    #: used by the registry-completeness test and by documentation.
    example_params: Dict[str, Any] = field(default_factory=dict)


def register_clusterer(
    name: str,
    *,
    aliases: Tuple[str, ...] = (),
    description: str = "",
    example_params: Optional[Dict[str, Any]] = None,
):
    """Class/function decorator adding an entry to the clusterer registry.

    Applied to a :class:`~repro.core.base.BaseClusterer` subclass the class
    itself is the factory; applied to a function the function is the factory
    (used for composite methods such as ``"mcdc+gudmm"``, where the paper
    method is an MCDC configured with a baseline as final clusterer).
    """

    def wrap(obj):
        doc_lines = (obj.__doc__ or "").strip().splitlines()
        spec = ClustererSpec(
            name=_normalize(name),
            factory=obj,
            cls=obj if isinstance(obj, type) else None,
            aliases=tuple(_normalize(a) for a in aliases),
            description=description or (doc_lines[0] if doc_lines else ""),
            example_params=dict(example_params or {}),
        )
        _REGISTRY.register(spec.name, spec, factory=obj, aliases=spec.aliases)
        return obj

    return wrap


def resolve_name(name: str) -> str:
    """Canonical registry name for ``name`` (exact, alias, or error)."""
    return _REGISTRY.resolve(name)


def get_clusterer_spec(name: str) -> ClustererSpec:
    """The :class:`ClustererSpec` registered under ``name`` (or an alias)."""
    return _REGISTRY.get(name)


def make_clusterer(name: str, **params: Any):
    """Construct a registered clusterer by name.

    ``params`` are passed to the registered factory unchanged, so each
    method's own signature (and validation) applies::

        make_clusterer("kmodes", n_clusters=3, n_init=5, random_state=0)
    """
    return get_clusterer_spec(name).factory(**params)


def available_clusterers() -> List[str]:
    """Sorted canonical names of every registered clusterer."""
    return _REGISTRY.names()


def registered_specs() -> List[ClustererSpec]:
    """All registry entries, sorted by canonical name."""
    return _REGISTRY.specs()


def spec_for_instance(model: Any) -> ClustererSpec:
    """The registry entry whose class is exactly ``type(model)``.

    Composite (function-factory) entries have no class of their own; a model
    they build resolves to the underlying class's entry — e.g. the
    ``"mcdc+gudmm"`` factory returns an :class:`~repro.core.mcdc.MCDC`, which
    resolves to ``"mcdc"`` and persists its ``final_clusterer`` as a nested
    parameter.

    The classes registered so far are searched first: a model's class is
    normally registered by the import that defined it, so saving one
    populates the registry only when its class is not found there.
    """
    for populate in (False, True):
        for spec in _REGISTRY.specs(populate=populate):
            if spec.cls is type(model):
                return spec
    raise ValueError(
        f"{type(model).__name__} is not a registered clusterer class; "
        "register it with @register_clusterer to enable persistence"
    )
