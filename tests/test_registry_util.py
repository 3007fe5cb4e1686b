"""The generic name/alias/lazy-populate registry helper.

The machinery shared by the clusterer registry (:mod:`repro.registry`) and
the executor-backend registry (:mod:`repro.distributed.transport`) lives in
:class:`repro.utils.registry.NamedRegistry`; this file tests the helper
itself — normalisation, alias resolution, double-registration conflicts,
population on a lookup miss only, and the population rollback that keeps a
failed import loud on every lookup — and that both production registries
actually run on it.
"""

from __future__ import annotations

import pytest

from repro.utils.registry import NamedRegistry


def make_registry(**kwargs) -> NamedRegistry:
    return NamedRegistry("widget", **kwargs)


class TestNormalisationAndAliases:
    def test_names_are_case_and_space_insensitive(self):
        registry = make_registry()
        registry.register("My Widget", spec={"id": 1})
        assert registry.resolve("my widget") == "mywidget"
        assert registry.resolve("MYWIDGET") == "mywidget"
        assert registry.resolve(" My  Widget ") == "mywidget"

    def test_aliases_resolve_to_canonical_name(self):
        registry = make_registry()
        registry.register("kmodes", spec="spec", aliases=("K-MODES", "k modes"))
        assert registry.resolve("k-modes") == "kmodes"
        assert registry.resolve("K Modes") == "kmodes"
        assert registry.get("K-MODES") == "spec"
        # aliases are resolvable but not listed as canonical names
        assert registry.names() == ["kmodes"]
        assert "k-modes" in registry
        assert len(registry) == 1

    def test_unknown_name_lists_available(self):
        registry = make_registry()
        registry.register("alpha", spec=1)
        registry.register("beta", spec=2)
        with pytest.raises(ValueError, match="Unknown widget 'gamma'.*alpha, beta"):
            registry.resolve("gamma")

    def test_specs_sorted_by_canonical_name(self):
        registry = make_registry()
        registry.register("zeta", spec="z")
        registry.register("alpha", spec="a")
        assert registry.specs() == ["a", "z"]
        assert registry.names() == ["alpha", "zeta"]


class TestDoubleRegistration:
    def test_same_factory_is_idempotent(self):
        registry = make_registry()

        def factory():
            return None

        registry.register("thing", spec="v1", factory=factory)
        # module reload / decorator re-entry: same factory, no error
        registry.register("thing", spec="v2", factory=factory)
        assert registry.get("thing") == "v2"

    def test_different_factory_for_same_name_rejected(self):
        registry = make_registry()
        registry.register("thing", spec="a", factory=object())
        with pytest.raises(ValueError, match="widget name 'thing' is already registered"):
            registry.register("thing", spec="b", factory=object())

    def test_alias_claimed_by_another_name_rejected(self):
        registry = make_registry()
        registry.register("first", spec=1, aliases=("shared",))
        with pytest.raises(ValueError, match="alias 'shared' already points at 'first'"):
            registry.register("second", spec=2, aliases=("shared",))

    def test_alias_reclaimed_by_same_name_is_fine(self):
        registry = make_registry()

        def factory():
            return None

        registry.register("first", spec=1, factory=factory, aliases=("nick",))
        registry.register("first", spec=1, factory=factory, aliases=("nick",))
        assert registry.resolve("nick") == "first"


class TestLazyPopulation:
    def test_populate_runs_once_on_first_lookup(self):
        calls = []

        def populate():
            calls.append(1)
            registry.register("late", spec="populated")

        registry = make_registry(populate=populate)
        assert not calls  # construction does not populate
        assert registry.resolve("late") == "late"
        assert registry.names() == ["late"]
        assert calls == [1]  # subsequent lookups reuse the populated state

    def test_population_rolls_back_on_import_failure(self):
        attempts = []

        def populate():
            attempts.append(1)
            registry.register("partial", spec="half-done")
            if len(attempts) < 3:
                raise ImportError("missing optional dependency")
            registry.register("complete", spec="done")

        registry = make_registry(populate=populate)
        # The failure must surface (not an empty "Unknown widget" error) and
        # must surface again on the next lookup — no half-populated registry.
        with pytest.raises(ImportError, match="missing optional"):
            registry.resolve("complete")
        with pytest.raises(ImportError, match="missing optional"):
            registry.names()
        assert registry.resolve("complete") == "complete"  # third attempt succeeds
        assert attempts == [1, 1, 1]

    def test_registry_without_populate_is_ready_immediately(self):
        registry = make_registry()
        assert registry.names() == []


class TestPopulateOnMiss:
    """A lookup that hits imports nothing; only a miss runs ``populate``."""

    @staticmethod
    def counting_registry():
        calls = []

        def populate():
            calls.append(1)
            registry.register("late", spec="populated", aliases=("tardy",))

        registry = make_registry(populate=populate)
        registry.register("early", spec="eager", aliases=("prompt",))
        return registry, calls

    def test_hit_on_name_or_alias_does_not_populate(self):
        registry, calls = self.counting_registry()
        assert registry.resolve("early") == "early"
        assert registry.resolve("PROMPT") == "early"
        assert registry.get("prompt") == "eager"
        assert calls == []

    def test_miss_populates_once(self):
        registry, calls = self.counting_registry()
        assert registry.resolve("tardy") == "late"
        assert registry.resolve("late") == "late"
        assert calls == [1]

    def test_unknown_name_lists_every_populated_name(self):
        registry, calls = self.counting_registry()
        with pytest.raises(ValueError, match="Unknown widget 'gamma'; available: early, late$"):
            registry.resolve("gamma")
        with pytest.raises(ValueError, match="available: early, late$"):
            registry.resolve("gamma")
        assert calls == [1]

    def test_unpopulated_listing_imports_nothing(self):
        registry, calls = self.counting_registry()
        assert registry.specs(populate=False) == ["eager"]
        assert calls == []
        assert registry.specs() == ["eager", "populated"]
        assert calls == [1]

    def test_spec_for_instance_of_a_core_class_populates_nothing(self, monkeypatch):
        import repro.registry as clusterers
        from repro.core import MCDC

        calls = []
        monkeypatch.setattr(clusterers._REGISTRY, "_populate", lambda: calls.append(1))
        monkeypatch.setattr(clusterers._REGISTRY, "_populated", False)
        assert clusterers.spec_for_instance(MCDC(n_clusters=2)).name == "mcdc"
        assert clusterers.resolve_name("MCDC") == "mcdc"
        assert calls == []

    def test_spec_for_instance_of_an_unlisted_class_populates(self, monkeypatch):
        import repro.registry as clusterers
        from repro.core import MCDC

        class Unregistered(MCDC):
            pass

        calls = []
        monkeypatch.setattr(clusterers._REGISTRY, "_populate", lambda: calls.append(1))
        monkeypatch.setattr(clusterers._REGISTRY, "_populated", False)
        with pytest.raises(ValueError, match="not a registered clusterer class"):
            clusterers.spec_for_instance(Unregistered(n_clusters=2))
        assert calls == [1]


class TestProductionRegistriesUseTheHelper:
    def test_clusterer_registry_is_a_named_registry(self):
        import repro.registry as clusterers

        assert isinstance(clusterers._REGISTRY, NamedRegistry)
        assert clusterers._REGISTRY.kind == "clusterer"
        assert clusterers.resolve_name("K-MODES") == "kmodes"

    def test_backend_registry_is_a_named_registry(self):
        from repro.distributed import transport

        assert isinstance(transport._BACKENDS, NamedRegistry)
        assert transport._BACKENDS.kind == "executor backend"
        assert transport.resolve_backend("in-process") == "serial"

    def test_error_messages_name_each_domain(self):
        import repro.registry as clusterers
        from repro.distributed import transport

        with pytest.raises(ValueError, match="Unknown clusterer"):
            clusterers.resolve_name("no-such-method")
        with pytest.raises(ValueError, match="Unknown executor backend"):
            transport.resolve_backend("no-such-backend")
