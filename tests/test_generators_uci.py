"""Tests for the synthetic generators and the UCI data set regenerations."""

import numpy as np
import pytest

from repro.data.generators import (
    make_categorical_clusters,
    make_drift_stream,
    make_nested_clusters,
    make_syn_d,
    make_syn_n,
)
from repro.data.uci import (
    TABLE2_SPECS,
    available_datasets,
    load_balance_scale,
    load_car_evaluation,
    load_dataset,
    load_nursery,
    load_tictactoe,
)
from repro.data.uci.registry import get_spec
from repro.metrics import adjusted_rand_index


class TestClusterGenerator:
    def test_shapes(self):
        ds = make_categorical_clusters(100, 5, 3, random_state=0)
        assert ds.n_objects == 100
        assert ds.n_features == 5
        assert ds.n_clusters_true == 3

    def test_reproducible(self):
        a = make_categorical_clusters(50, 4, 2, random_state=3)
        b = make_categorical_clusters(50, 4, 2, random_state=3)
        assert np.array_equal(a.codes, b.codes)

    def test_purity_controls_separability(self):
        pure = make_categorical_clusters(300, 6, 3, purity=0.95, random_state=0)
        noisy = make_categorical_clusters(300, 6, 3, purity=0.4, random_state=0)

        def class_signal(ds):
            # Fraction of objects whose first-feature value equals their cluster mode.
            signal = 0
            for label in range(3):
                col = ds.codes[ds.labels == label, 0]
                signal += np.bincount(col).max()
            return signal / ds.n_objects

        assert class_signal(pure) > class_signal(noisy)

    def test_cluster_weights_respected(self):
        ds = make_categorical_clusters(
            1000, 4, 2, cluster_weights=[0.9, 0.1], random_state=0
        )
        counts = np.bincount(ds.labels)
        assert counts[0] > counts[1] * 3

    def test_invalid_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            make_categorical_clusters(10, 2, 2, n_categories=1)

    def test_per_feature_vocabulary(self):
        ds = make_categorical_clusters(50, 3, 2, n_categories=[2, 3, 4], random_state=0)
        assert ds.n_categories == [2, 3, 4]


class TestNestedGenerator:
    def test_nested_structure_present(self):
        ds = make_nested_clusters(random_state=0)
        assert ds.n_clusters_true == 3
        fine = ds.fine_labels
        assert np.unique(fine).size == 9
        # Fine labels refine the coarse labels exactly.
        assert np.array_equal(fine // 3, ds.labels)

    def test_fine_structure_informative(self):
        ds = make_nested_clusters(random_state=0)
        # Objects in the same fine cluster agree on more features than random pairs.
        same_fine = adjusted_rand_index(ds.fine_labels, ds.fine_labels)
        assert same_fine == 1.0


class TestSyntheticScalabilitySets:
    def test_syn_n_statistics(self):
        ds = make_syn_n(n_objects=5000, random_state=0)
        assert ds.n_features == 10
        assert ds.n_clusters_true == 3

    def test_syn_d_statistics(self):
        ds = make_syn_d(n_features=50, n_objects=500, random_state=0)
        assert ds.n_features == 50
        assert ds.n_clusters_true == 3


class TestExactUciRegenerations:
    def test_tictactoe_exact_counts(self):
        ds = load_tictactoe()
        assert ds.n_objects == 958
        assert ds.n_features == 9
        counts = np.bincount(ds.labels)
        assert sorted(counts.tolist()) == [332, 626]

    def test_balance_exact_counts(self):
        ds = load_balance_scale()
        assert ds.n_objects == 625
        counts = sorted(np.bincount(ds.labels).tolist())
        assert counts == [49, 288, 288]

    def test_car_size_and_classes(self):
        ds = load_car_evaluation()
        assert ds.n_objects == 1728
        assert ds.n_features == 6
        assert ds.n_clusters_true == 4
        # Majority class (unacc) dominates as in the original distribution.
        assert np.bincount(ds.labels).max() / ds.n_objects > 0.6

    def test_nursery_size_and_hard_rule(self):
        ds = load_nursery()
        assert ds.n_objects == 12960
        assert ds.n_clusters_true == 5
        # health = not_recom (one third of combinations) always maps to one class.
        health_col = ds.feature_names.index("health")
        not_recom_code = ds.categories[health_col].index("not_recom")
        mask = ds.codes[:, health_col] == not_recom_code
        assert np.unique(ds.labels[mask]).size == 1
        assert mask.sum() == 4320


class TestRegistry:
    @pytest.mark.parametrize("spec", TABLE2_SPECS[:8], ids=lambda s: s.abbrev)
    def test_all_datasets_match_table2(self, spec):
        ds = spec.loader()
        assert ds.n_objects == spec.n
        assert ds.n_features == spec.d
        assert ds.n_clusters_true == spec.k_star

    def test_available_datasets(self):
        assert available_datasets() == ["Car", "Con", "Che", "Mus", "Tic", "Vot", "Bal", "Nur"]
        assert len(available_datasets(include_synthetic=True)) == 10

    def test_lookup_by_alias(self):
        assert get_spec("mushroom").abbrev == "Mus"
        assert get_spec("Tic Tac Toe").abbrev == "Tic"

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            load_dataset("does-not-exist")

    def test_loaders_are_deterministic(self):
        a = load_dataset("Con")
        b = load_dataset("Con")
        assert np.array_equal(a.codes, b.codes)


# ---------------------------------------------------------------------- #
# Concept-drift stream generator
# ---------------------------------------------------------------------- #
class TestDriftStream:
    def test_seeded_streams_are_reproducible(self):
        a = make_drift_stream(n_batches=5, batch_rows=40, random_state=7)
        b = make_drift_stream(n_batches=5, batch_rows=40, random_state=7)
        for batch_a, batch_b in zip(a, b):
            np.testing.assert_array_equal(batch_a.codes, batch_b.codes)
            np.testing.assert_array_equal(batch_a.labels, batch_b.labels)
            np.testing.assert_array_equal(batch_a.true_modes, batch_b.true_modes)

    def test_shapes_vocabulary_and_labels(self):
        stream = make_drift_stream(
            n_batches=4, batch_rows=25, n_features=5, n_clusters=3,
            n_categories=4, random_state=0,
        )
        assert len(stream) == 4
        for batch in stream:
            assert batch.codes.shape == (25, 5)
            assert batch.n_categories == [4] * 5
            assert batch.labels.shape == (25,)
            assert set(np.unique(batch.labels)) <= {0, 1, 2}
            assert batch.codes.min() >= 0 and batch.codes.max() < 4
            assert batch.true_modes.shape == (3, 5)

    def test_drift_migrates_modes_and_zero_drift_is_stationary(self):
        drifting = make_drift_stream(
            n_batches=8, batch_rows=20, drift=0.4, random_state=1
        )
        assert any(
            not np.array_equal(drifting[0].true_modes, batch.true_modes)
            for batch in drifting[1:]
        )
        frozen = make_drift_stream(
            n_batches=5, batch_rows=20, drift=0.0, random_state=1
        )
        assert all(
            np.array_equal(frozen[0].true_modes, batch.true_modes)
            for batch in frozen
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            make_drift_stream(n_categories=1)
        with pytest.raises(ValueError):
            make_drift_stream(drift=1.5)
        with pytest.raises(ValueError):
            make_drift_stream(cluster_weights=[1.0])
