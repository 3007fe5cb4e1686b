"""The v2 estimator contract, exercised over every registry entry.

Covers: out-of-sample ``predict`` (nearest weighted-Hamming mode, unseen
codes -> missing), ``save``/``load`` round trips through ``EngineState``
snapshots with bit-identical predictions, ``clone`` independence, and the
exact ``partial_fit`` / ``ingest`` streaming semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CAME, MCDC, MGCPL, BaseClusterer, coerce_codes, codes_in_vocabulary
from repro.core.assignment import AssignmentModel
from repro.data.generators import make_categorical_clusters
from repro.distributed.rpc import local_worker_pool
from repro.distributed.runtime import ShardedMGCPL
from repro.engine import EngineState, make_engine, state_from_labels
from repro.persistence import load_model, save_model
from repro.registry import make_clusterer, registered_specs

#: Per-entry overrides so every method resolves the generator's three crisp
#: clusters (and is therefore exactly mode-consistent on the training data).
FIT_OVERRIDES = {
    "competitive": {"n_initial_clusters": 5},
    "fkmawcw": {"n_init": 5},
    # seed picked so the fuzzy final stage resolves all three crisp clusters
    "mcdc+fkmawcw": {"random_state": 1},
}


def _assert_params_equal(a, b):
    """Param-dict equality where nested estimators compare by their params."""
    assert set(a) == set(b)
    for key, value in a.items():
        if isinstance(value, BaseClusterer):
            assert isinstance(b[key], BaseClusterer)
            assert value is not b[key]  # clone() must not share nested estimators
            _assert_params_equal(value.get_params(), b[key].get_params())
        else:
            assert value == b[key]


def _contract_params(spec, request=None):
    params = dict(spec.example_params)
    if "n_clusters" in params:
        params["n_clusters"] = 3
    params.update(FIT_OVERRIDES.get(spec.name, {}))
    if spec.cls is None or "random_state" in spec.cls._get_param_names():
        params.setdefault("random_state", 0)
    if "hosts" in params and request is not None:
        # The @tcp entries carry placeholder addresses in example_params;
        # swap in the module's live loopback workers so their fits are real
        # multi-host sessions.
        params["hosts"] = list(request.getfixturevalue("tcp_hosts"))
    return params


@pytest.fixture(scope="module")
def tcp_hosts():
    """Two loopback `repro worker` servers backing the @tcp registry entries."""
    with local_worker_pool(2) as hosts:
        yield hosts


@pytest.fixture(scope="module")
def train_dataset():
    return make_categorical_clusters(
        n_objects=160, n_features=6, n_clusters=3, n_categories=4,
        purity=0.97, random_state=7, name="estimator-train",
    )


@pytest.fixture(scope="module")
def heldout_codes():
    return make_categorical_clusters(
        n_objects=48, n_features=6, n_clusters=3, n_categories=4,
        purity=0.97, random_state=8, name="estimator-heldout",
    ).codes


ALL_SPECS = registered_specs()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=[s.name for s in ALL_SPECS])
class TestContractOverRegistry:
    def test_fit_save_load_predict(self, spec, train_dataset, heldout_codes, tmp_path, request):
        model = make_clusterer(spec.name, **_contract_params(spec, request))
        model.fit(train_dataset)

        # predict on the training data reproduces the fitted partition
        np.testing.assert_array_equal(model.predict(train_dataset), model.labels_)

        # held-out rows get valid cluster ids
        held = model.predict(heldout_codes)
        assert held.shape == (heldout_codes.shape[0],)
        assert held.min() >= 0 and held.max() < model.n_clusters_

        # save -> load -> bit-identical predictions on train and held-out
        path = tmp_path / f"{spec.name.replace('@', '_at_')}.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert type(loaded) is type(model)
        assert loaded.n_clusters_ == model.n_clusters_
        np.testing.assert_array_equal(loaded.labels_, model.labels_)
        np.testing.assert_array_equal(loaded.predict(heldout_codes), held)
        np.testing.assert_array_equal(
            loaded.predict(train_dataset), model.predict(train_dataset)
        )

    def test_ingest_replays_bit_identically_on_a_loaded_replica(
        self, spec, train_dataset, heldout_codes, tmp_path, request
    ):
        """The served-ingest contract: a primary's ingest, replayed on a
        replica loaded from the primary's snapshot, gives the same state."""
        primary = make_clusterer(spec.name, **_contract_params(spec, request))
        primary.fit(train_dataset)
        path = tmp_path / f"{spec.name.replace('@', '_at_')}.npz"
        save_model(primary, path)
        replica = load_model(path)

        first, second = heldout_codes[:20], heldout_codes[20:]
        expected_first = primary.predict(first)
        labels_first = primary.ingest(first)
        # a batch is assigned against the statistics from before it
        np.testing.assert_array_equal(labels_first, expected_first)
        labels_second = primary.ingest(second)
        replica.replay_ingest(first, labels_first)
        replica.replay_ingest(second, labels_second)

        assert primary.n_clusters_ == replica.n_clusters_
        np.testing.assert_array_equal(replica.labels_, primary.labels_)
        assert replica.labels_.shape[0] == train_dataset.n_objects + heldout_codes.shape[0]
        state_p = primary.assignment_model_.state
        state_r = replica.assignment_model_.state
        np.testing.assert_array_equal(state_r.packed, state_p.packed)
        np.testing.assert_array_equal(state_r.sizes, state_p.sizes)
        np.testing.assert_array_equal(
            replica.predict(heldout_codes), primary.predict(heldout_codes)
        )

    def test_clone_is_unfitted_and_independent(self, spec, train_dataset, request):
        model = make_clusterer(spec.name, **_contract_params(spec, request))
        clone = model.clone()
        assert clone is not model
        _assert_params_equal(clone.get_params(), model.get_params())
        assert clone.labels_ is None

        clone.fit(train_dataset)
        # fitting the clone must not leak any fitted state into the original
        assert model.labels_ is None
        assert model.assignment_model_ is None
        with pytest.raises(RuntimeError):
            model.predict(train_dataset)


class TestChunkedEngineAlias:
    def test_chunked_model_round_trips_and_refits(self, train_dataset, heldout_codes, tmp_path):
        """``"chunked"`` — a separate engine once — still loads and fits as dense."""
        model = MCDC(n_clusters=3, engine="chunked", random_state=0).fit(train_dataset)
        dense = MCDC(n_clusters=3, engine="dense", random_state=0).fit(train_dataset)
        np.testing.assert_array_equal(model.labels_, dense.labels_)

        path = tmp_path / "chunked.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.get_params()["engine"] == "chunked"
        np.testing.assert_array_equal(loaded.predict(heldout_codes), model.predict(heldout_codes))
        loaded.fit(train_dataset)
        np.testing.assert_array_equal(loaded.labels_, model.labels_)


class TestCompiledEngineAlias:
    """Every engine alias — ``"compiled"``, the numba engine once, ``"auto"``
    and ``"chunked"`` — fits, saves and loads as dense."""

    @pytest.mark.parametrize("alias", ["compiled", "auto", "chunked"])
    @pytest.mark.parametrize("cls", [MCDC, MGCPL], ids=["MCDC", "MGCPL"])
    def test_compiled_fits_as_dense(self, cls, alias, train_dataset):
        params = {"n_clusters": 3} if cls is MCDC else {}
        model = cls(engine=alias, random_state=0, **params).fit(train_dataset)
        dense = cls(engine="dense", random_state=0, **params).fit(train_dataset)
        np.testing.assert_array_equal(model.labels_, dense.labels_)
        assert list(model.kappa_) == list(dense.kappa_)
        np.testing.assert_array_equal(model.encoding_, dense.encoding_)

    @pytest.mark.parametrize("alias", ["compiled", "auto", "chunked"])
    def test_came_alias_fits_as_dense(self, alias, train_dataset):
        model = CAME(n_clusters=3, engine=alias, random_state=0).fit(train_dataset)
        dense = CAME(n_clusters=3, engine="dense", random_state=0).fit(train_dataset)
        np.testing.assert_array_equal(model.labels_, dense.labels_)
        np.testing.assert_array_equal(model.modes_, dense.modes_)
        np.testing.assert_array_equal(model.feature_weights_, dense.feature_weights_)

    @pytest.mark.parametrize("alias", ["compiled", "auto", "chunked"])
    def test_compiled_model_round_trips(self, alias, train_dataset, heldout_codes, tmp_path):
        model = MCDC(n_clusters=3, engine=alias, random_state=0).fit(train_dataset)
        dense = MCDC(n_clusters=3, engine="dense", random_state=0).fit(train_dataset)
        path = tmp_path / f"{alias}.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.get_params()["engine"] == alias
        np.testing.assert_array_equal(loaded.predict(heldout_codes), model.predict(heldout_codes))
        np.testing.assert_array_equal(loaded.predict(heldout_codes), dense.predict(heldout_codes))


class TestPredictSemantics:
    def test_unseen_codes_treated_as_missing(self, train_dataset):
        model = MCDC(n_clusters=3, random_state=0).fit(train_dataset)
        base = np.array(train_dataset.codes[:8], copy=True)
        reference = model.predict(base)

        # a code far outside the vocabulary must behave exactly like missing
        unseen = base.copy()
        unseen[:, 0] = 99
        missing = base.copy()
        missing[:, 0] = -1
        np.testing.assert_array_equal(model.predict(unseen), model.predict(missing))
        np.testing.assert_array_equal(
            model.assignment_model_.coerce(unseen), model.assignment_model_.coerce(missing)
        )
        # and the clean rows are untouched by the coercion
        np.testing.assert_array_equal(model.assignment_model_.coerce(base), base)
        assert reference.shape == (8,)

    def test_predict_requires_fit(self):
        model = MCDC(n_clusters=3, random_state=0)
        with pytest.raises(RuntimeError):
            model.predict(np.zeros((4, 6), dtype=np.int64))

    def test_came_uses_theta_weights(self, train_dataset):
        came = CAME(n_clusters=3, random_state=0).fit(train_dataset)
        assert came.assignment_model_.feature_weights is not None
        np.testing.assert_allclose(
            came.assignment_model_.feature_weights, came.feature_weights_
        )


class TestPartialFit:
    """partial_fit over batches must equal fit on the concatenation, exactly."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: MGCPL(random_state=5),
            lambda: CAME(n_clusters=3, random_state=5),
            lambda: MCDC(n_clusters=3, random_state=5),
        ],
        ids=["mgcpl", "came", "mcdc"],
    )
    def test_two_batches_equal_concatenated_fit(self, factory, train_dataset):
        X = train_dataset.codes
        b1, b2 = X[:70], X[70:]

        reference = factory().fit(X)
        streamed = factory().partial_fit(b1).partial_fit(b2)

        np.testing.assert_array_equal(streamed.labels_, reference.labels_)
        assert streamed.n_clusters_ == reference.n_clusters_
        assert streamed.n_batches_seen_ == 2
        state_a = streamed.assignment_model_.state
        state_b = reference.assignment_model_.state
        np.testing.assert_array_equal(state_a.packed, state_b.packed)
        np.testing.assert_array_equal(state_a.sizes, state_b.sizes)

    def test_sharded_mgcpl_matches_serial_fit_bit_identically(self, train_dataset):
        """The acceptance criterion: k streamed batches == one serial fit."""
        X = train_dataset.codes
        batches = [X[:50], X[50:90], X[90:]]

        serial = MGCPL(random_state=11).fit(X)
        sharded = ShardedMGCPL(n_shards=1, backend="serial", random_state=11)
        for batch in batches:
            sharded.partial_fit(batch)

        np.testing.assert_array_equal(sharded.labels_, serial.labels_)
        assert sharded.kappa_ == serial.kappa_
        np.testing.assert_array_equal(
            sharded.assignment_model_.state.packed, serial.assignment_model_.state.packed
        )

    def test_sharded_mgcpl_multi_shard_self_consistent(self, train_dataset):
        X = train_dataset.codes
        streamed = ShardedMGCPL(n_shards=3, backend="serial", random_state=11)
        streamed.partial_fit(X[:80])
        streamed.partial_fit(X[80:])
        refit = ShardedMGCPL(n_shards=3, backend="serial", random_state=11).fit(X)
        np.testing.assert_array_equal(streamed.labels_, refit.labels_)

    def test_mismatched_width_rejected(self, train_dataset):
        model = MGCPL(random_state=0).partial_fit(train_dataset.codes[:40])
        with pytest.raises(ValueError):
            model.partial_fit(train_dataset.codes[:10, :3])

    def test_fit_resets_the_stream(self, train_dataset):
        """An intervening fit() discards the partial_fit buffer entirely."""
        X = train_dataset.codes
        model = MGCPL(random_state=3)
        model.partial_fit(X[:40])
        model.fit(X[40:80])          # full fit: stream must reset
        model.partial_fit(X[80:120])

        # the stream now holds only the post-fit batch, not the pre-fit one
        assert model.n_batches_seen_ == 1
        fresh = MGCPL(random_state=3).fit(X[80:120])
        np.testing.assert_array_equal(model.labels_, fresh.labels_)


class TestIngest:
    def test_ingest_extends_labels_and_merges_counts(self, train_dataset, heldout_codes):
        model = MCDC(n_clusters=3, random_state=0).fit(train_dataset)
        n_train = model.labels_.shape[0]
        before = model.assignment_model_.state.copy()

        batch_labels = model.ingest(heldout_codes)
        assert model.labels_.shape[0] == n_train + heldout_codes.shape[0]
        np.testing.assert_array_equal(model.labels_[n_train:], batch_labels)

        # merged statistics == prior counts + exact delta of the new batch
        delta = state_from_labels(
            heldout_codes, before.n_categories, batch_labels, before.n_clusters
        )
        expected = before.merge(delta)
        np.testing.assert_array_equal(model.assignment_model_.state.packed, expected.packed)
        np.testing.assert_array_equal(model.assignment_model_.state.sizes, expected.sizes)

    def test_ingest_requires_fit(self, heldout_codes):
        with pytest.raises(RuntimeError):
            MCDC(n_clusters=3, random_state=0).ingest(heldout_codes)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: MGCPL(random_state=0),
            lambda: CAME(n_clusters=3, random_state=0),
            lambda: MCDC(n_clusters=3, random_state=0),
        ],
        ids=["mgcpl", "came", "mcdc"],
    )
    def test_successive_ingests_equal_one_count_of_everything(
        self, factory, train_dataset, heldout_codes
    ):
        """After batches B1, B2 the statistics are the counts of train + B1 +
        B2 under ``labels_``, in one pass: each merge is exact."""
        model = factory().fit(train_dataset)
        model.ingest(heldout_codes[:17])
        model.ingest(heldout_codes[17:])
        state = model.assignment_model_.state
        everything = np.concatenate([train_dataset.codes, heldout_codes])
        expected = state_from_labels(
            everything, state.n_categories, model.labels_, state.n_clusters
        )
        np.testing.assert_array_equal(state.packed, expected.packed)
        np.testing.assert_array_equal(state.sizes, expected.sizes)

    def test_ingest_keeps_the_clusters_and_refreshes_the_modes(self, train_dataset):
        model = MGCPL(random_state=0).fit(train_dataset)
        k, kappa = model.n_clusters_, list(model.kappa_)
        # flood one cluster with a single pattern until it becomes its mode
        pattern = np.array(train_dataset.codes[:1], copy=True)
        pattern[0, 0] = (pattern[0, 0] + 1) % train_dataset.n_categories[0]
        cluster = int(model.predict(pattern)[0])
        before = model.assignment_model_.modes.copy()
        model.ingest(np.repeat(pattern, 4 * train_dataset.n_objects, axis=0))

        assert model.n_clusters_ == k and list(model.kappa_) == kappa
        after = model.assignment_model_.modes
        np.testing.assert_array_equal(after, model.assignment_model_.state.modes())
        np.testing.assert_array_equal(after[cluster], pattern[0])
        assert not np.array_equal(after[cluster], before[cluster])

    def test_unseen_codes_ingest_as_missing(self, train_dataset, heldout_codes):
        unseen = np.array(heldout_codes, copy=True)
        unseen[::3, 1] = 99
        missing = np.array(heldout_codes, copy=True)
        missing[::3, 1] = -1
        a = MCDC(n_clusters=3, random_state=0).fit(train_dataset)
        b = MCDC(n_clusters=3, random_state=0).fit(train_dataset)
        np.testing.assert_array_equal(a.ingest(unseen), b.ingest(missing))
        np.testing.assert_array_equal(
            a.assignment_model_.state.packed, b.assignment_model_.state.packed
        )

    @pytest.mark.parametrize(
        "batch",
        [np.empty((0, 6), dtype=np.int64), np.zeros((3, 4), dtype=np.int64)],
        ids=["empty", "wrong-width"],
    )
    def test_bad_batch_is_rejected_and_leaves_the_model_as_it_was(
        self, batch, train_dataset
    ):
        model = MCDC(n_clusters=3, random_state=0).fit(train_dataset)
        labels = model.labels_.copy()
        packed = model.assignment_model_.state.packed.copy()
        with pytest.raises(ValueError):
            model.ingest(batch)
        np.testing.assert_array_equal(model.labels_, labels)
        np.testing.assert_array_equal(model.assignment_model_.state.packed, packed)

    def test_replay_ingest_requires_fit(self, heldout_codes):
        with pytest.raises(RuntimeError):
            MCDC(n_clusters=3, random_state=0).replay_ingest(
                heldout_codes, np.zeros(heldout_codes.shape[0], dtype=np.int64)
            )

    @pytest.mark.parametrize(
        "bad", ["short", "negative", "past-k"],
    )
    def test_replay_rejects_labels_a_primary_cannot_have_sent(
        self, bad, train_dataset, heldout_codes
    ):
        model = MGCPL(random_state=0).fit(train_dataset)
        labels = model.predict(heldout_codes)
        if bad == "short":
            labels = labels[:-1]
        elif bad == "negative":
            labels[0] = -1
        else:
            labels[-1] = model.n_clusters_
        n_before = model.labels_.shape[0]
        sizes = model.assignment_model_.state.sizes.copy()
        with pytest.raises(ValueError, match="labels must"):
            model.replay_ingest(heldout_codes, labels)
        assert model.labels_.shape[0] == n_before
        np.testing.assert_array_equal(model.assignment_model_.state.sizes, sizes)


class TestBaseHelpers:
    def test_coerce_codes_matches_per_column_loop(self, rng):
        codes = rng.integers(-1, 7, size=(50, 5))
        coerced, n_categories = coerce_codes(codes)
        expected = [int(max(codes[:, r].max(), 0)) + 1 for r in range(codes.shape[1])]
        assert n_categories == expected
        np.testing.assert_array_equal(coerced, codes)

    def test_coerce_codes_empty_and_all_missing(self):
        with pytest.raises(ValueError):
            coerce_codes(np.empty((0, 3), dtype=np.int64))
        _, n_cat = coerce_codes(np.full((4, 2), -1, dtype=np.int64))
        assert n_cat == [1, 1]

    def test_codes_in_vocabulary(self):
        codes = np.array([[0, 5, -3], [2, 1, 0]], dtype=np.int64)
        out = codes_in_vocabulary(codes, [3, 4, 2])
        np.testing.assert_array_equal(out, [[0, -1, -1], [2, 1, 0]])

    def test_fit_predict_checks_fitted_without_assert(self, train_dataset):
        class Misbehaving(BaseClusterer):
            def _fit(self, X):
                return self  # never sets labels_

        with pytest.raises(RuntimeError, match="has not been fitted"):
            Misbehaving().fit_predict(train_dataset)

    def test_state_from_labels_matches_engine_snapshot(self, rng):
        codes = rng.integers(-1, 4, size=(120, 5))
        _, n_categories = coerce_codes(codes)
        labels = rng.integers(0, 6, size=120)
        engine = make_engine(codes, n_categories, 6, kind="dense", labels=labels)
        direct = state_from_labels(codes, n_categories, labels, 6)
        snap = engine.snapshot()
        np.testing.assert_array_equal(direct.packed, snap.packed)
        np.testing.assert_array_equal(direct.valid_counts, snap.valid_counts)
        np.testing.assert_array_equal(direct.sizes, snap.sizes)
        assert direct.n_categories == snap.n_categories

    def test_assignment_model_rejects_bad_theta(self):
        state = EngineState.zeros([3, 3], 2)
        with pytest.raises(ValueError):
            AssignmentModel(state, feature_weights=np.ones(5))

    def test_set_params_validates(self):
        model = MCDC(n_clusters=3)
        model.set_params(n_clusters=4, learning_rate=0.05)
        assert model.n_clusters == 4 and model.learning_rate == 0.05
        with pytest.raises(ValueError, match="Invalid parameter"):
            model.set_params(bogus=1)
        with pytest.raises(ValueError):
            MGCPL().set_params(learning_rate=2.0)  # revalidated through __init__
