"""Generic name/alias registry with lazy population — one helper, two users.

The clusterer registry (:mod:`repro.registry`) and the executor-backend
registry (:mod:`repro.distributed.transport`) grew the same machinery
independently: normalised case/space-insensitive names, alias tables with
conflict detection, idempotent re-registration of the same factory, and a
lazy ``populate`` step that imports the defining modules on the first lookup
that misses and *rolls back* on failure so a broken import surfaces on every
attempt instead of leaving an empty registry behind.  A name whose module is
already imported resolves without populating, so loading an MCDC model never
imports the baselines (and their graph library) or the sharded runtime.
:class:`NamedRegistry` is that machinery extracted once; each user keeps its
own spec dataclass and public functions and delegates the bookkeeping here.

Usage pattern::

    _REGISTRY = NamedRegistry("clusterer", populate=_import_defining_modules)

    def register_thing(name, ...):
        def wrap(obj):
            spec = ThingSpec(...)
            _REGISTRY.register(spec.name, spec, factory=obj, aliases=spec.aliases)
            return obj
        return wrap

    def resolve_name(name):
        return _REGISTRY.resolve(name)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

__all__ = ["NamedRegistry"]


class NamedRegistry:
    """Name -> spec mapping with aliases, normalisation and lazy population.

    Parameters
    ----------
    kind:
        The noun used in error messages (``"clusterer"``, ``"executor
        backend"``), so every user's errors keep naming their own domain.
    populate:
        Optional zero-argument callable that imports the modules carrying the
        registration decorators.  It runs at most once: on the first
        :meth:`resolve` of a name that is not registered yet, or on the first
        listing (:meth:`names`, :meth:`specs`, ``in``, ``len``).  If it
        raises, the registry rolls back to unpopulated so the next such lookup
        retries the imports and surfaces the real failure instead of an empty
        "Unknown ..." error.
    """

    def __init__(self, kind: str, populate: Optional[Callable[[], None]] = None) -> None:
        self.kind = kind
        self._specs: Dict[str, Any] = {}
        self._factories: Dict[str, Any] = {}
        self._aliases: Dict[str, str] = {}
        self._populate = populate
        self._populated = populate is None

    @staticmethod
    def normalize(name: str) -> str:
        """Case- and whitespace-insensitive lookup key."""
        return name.strip().lower().replace(" ", "")

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        spec: Any,
        *,
        factory: Any = None,
        aliases: Iterable[str] = (),
    ) -> str:
        """Add ``spec`` under ``name`` (and ``aliases``); returns the key.

        ``factory`` is the identity used to make re-registration idempotent:
        registering the *same* factory under its existing name is a no-op
        (module reloads, decorator re-entry during population), while a
        different factory claiming a taken name or alias is an error.
        """
        key = self.normalize(name)
        factory = spec if factory is None else factory
        existing = self._factories.get(key)
        if existing is not None and existing is not factory:
            raise ValueError(f"{self.kind} name {key!r} is already registered")
        self._specs[key] = spec
        self._factories[key] = factory
        for alias in aliases:
            alias_key = self.normalize(alias)
            claimed = self._aliases.get(alias_key)
            if claimed is not None and claimed != key:
                raise ValueError(
                    f"{self.kind} alias {alias_key!r} already points at {claimed!r}"
                )
            self._aliases[alias_key] = key
        return key

    # ------------------------------------------------------------------ #
    # Lazy population
    # ------------------------------------------------------------------ #
    def ensure_populated(self) -> None:
        """Run the ``populate`` hook once (with rollback on failure)."""
        if self._populated:
            return
        # Set first: the imports below re-enter through the decorators.
        self._populated = True
        try:
            self._populate()
        except BaseException:
            self._populated = False
            raise

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def _lookup(self, key: str) -> Optional[str]:
        if key in self._specs:
            return key
        return self._aliases.get(key)

    def resolve(self, name: str) -> str:
        """Canonical registry key for ``name`` (exact, alias, or error).

        A name or alias that is already registered answers at once; only a
        miss runs ``populate``, so a process imports no more of the defining
        modules than the names it looks up need.
        """
        key = self.normalize(name)
        found = self._lookup(key)
        if found is None and not self._populated:
            self.ensure_populated()
            found = self._lookup(key)
        if found is None:
            raise ValueError(
                f"Unknown {self.kind} {name!r}; available: {', '.join(self.names())}"
            )
        return found

    def get(self, name: str) -> Any:
        """The spec registered under ``name`` (or one of its aliases)."""
        return self._specs[self.resolve(name)]

    def names(self) -> List[str]:
        """Sorted canonical names of every registered entry."""
        self.ensure_populated()
        return sorted(self._specs)

    def specs(self, populate: bool = True) -> List[Any]:
        """All registered specs, sorted by canonical name.

        ``populate=False`` lists only what is registered so far, without
        importing anything.
        """
        if populate:
            self.ensure_populated()
        return [self._specs[name] for name in sorted(self._specs)]

    def __contains__(self, name: str) -> bool:
        self.ensure_populated()
        key = self.normalize(name)
        return key in self._specs or key in self._aliases

    def __len__(self) -> int:
        self.ensure_populated()
        return len(self._specs)
