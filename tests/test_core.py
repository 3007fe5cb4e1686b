"""Tests for the core contribution: competitive learning, MGCPL, CAME, MCDC, ablations."""

import numpy as np
import pytest

from repro.core import CAME, MCDC, MCDCEncoder, MGCPL, CompetitiveLearningClusterer
from repro.core.ablations import MCDC1, MCDC2, MCDC3, MCDC4, make_ablation
from repro.core.base import compact_labels, coerce_codes
from repro.core.mgcpl import cluster_weight_from_delta
from repro.data.dataset import CategoricalDataset
from repro.metrics import adjusted_rand_index, clustering_accuracy


class TestBase:
    def test_coerce_codes_from_dataset(self, small_clusters):
        codes, n_categories = coerce_codes(small_clusters)
        assert codes.shape == small_clusters.codes.shape
        assert n_categories == small_clusters.n_categories

    def test_coerce_codes_from_array(self):
        codes, n_categories = coerce_codes(np.array([[0, 1], [2, 0]]))
        assert n_categories == [3, 2]

    def test_compact_labels(self):
        assert compact_labels(np.array([5, 5, 9, 1])).tolist() == [1, 1, 2, 0]

    def test_fit_predict_requires_fit_setting_labels(self, small_clusters):
        model = MGCPL(random_state=0)
        with pytest.raises(RuntimeError):
            model._check_fitted()


class TestClusterWeight:
    def test_sigmoid_midpoint(self):
        assert cluster_weight_from_delta(np.array([0.5]))[0] == pytest.approx(0.5)

    def test_monotone_and_bounded(self):
        deltas = np.linspace(-30, 30, 50)
        u = cluster_weight_from_delta(deltas)
        assert np.all(np.diff(u) >= 0)
        assert np.all((u >= 0) & (u <= 1))

    def test_no_overflow_for_extreme_delta(self):
        u = cluster_weight_from_delta(np.array([-1e6, 1e6]))
        assert np.isfinite(u).all()


class TestCompetitiveLearning:
    def test_eliminates_redundant_clusters(self, small_clusters):
        model = CompetitiveLearningClusterer(n_initial_clusters=8, random_state=0)
        model.fit(small_clusters)
        assert model.n_clusters_ <= 8
        assert model.labels_.shape[0] == small_clusters.n_objects

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            CompetitiveLearningClusterer(4, learning_rate=1.5)

    def test_recovers_separated_clusters(self, tiny_clusters):
        model = CompetitiveLearningClusterer(n_initial_clusters=4, random_state=1)
        labels = model.fit_predict(tiny_clusters)
        assert clustering_accuracy(tiny_clusters.labels, labels) > 0.6


class TestMGCPL:
    def test_kappa_is_decreasing_staircase(self, small_clusters):
        model = MGCPL(random_state=0).fit(small_clusters)
        kappa = model.kappa_
        assert len(kappa) >= 1
        assert all(kappa[i] >= kappa[i + 1] for i in range(len(kappa) - 1))
        assert kappa[0] <= model.result_.initial_k

    def test_encoding_shape_and_content(self, small_clusters):
        model = MGCPL(random_state=0).fit(small_clusters)
        gamma = model.encoding_
        assert gamma.shape == (small_clusters.n_objects, model.result_.sigma)
        for level_index, level in enumerate(model.result_.levels):
            assert np.unique(gamma[:, level_index]).size == level.n_clusters

    def test_final_level_near_true_k(self, small_clusters):
        model = MGCPL(random_state=0).fit(small_clusters)
        assert abs(model.n_clusters_ - small_clusters.n_clusters_true) <= 2

    def test_final_partition_quality(self, small_clusters):
        model = MGCPL(random_state=0).fit(small_clusters)
        assert adjusted_rand_index(small_clusters.labels, model.labels_) > 0.4

    def test_default_k0_is_sqrt_n(self, small_clusters):
        model = MGCPL(random_state=0).fit(small_clusters)
        assert model.result_.initial_k == int(np.ceil(np.sqrt(small_clusters.n_objects)))

    def test_explicit_k0(self, tiny_clusters):
        model = MGCPL(k0=5, random_state=0).fit(tiny_clusters)
        assert model.result_.initial_k == 5

    def test_online_engine_agrees_on_separated_data(self, tiny_clusters):
        online = MGCPL(update_mode="online", random_state=0).fit(tiny_clusters)
        assert online.n_clusters_ >= 2
        assert adjusted_rand_index(tiny_clusters.labels, online.labels_) > 0.3

    @pytest.mark.parametrize("engine", ["loop", "compiled"])
    def test_online_mode_is_bit_identical_across_engines(self, tiny_clusters, engine):
        """Serial ``update_mode="online"`` is the one online path; every
        engine backend must walk it to the same partitions."""
        dense = MGCPL(update_mode="online", engine="dense", random_state=0).fit(tiny_clusters)
        other = MGCPL(update_mode="online", engine=engine, random_state=0).fit(tiny_clusters)
        assert other.kappa_ == dense.kappa_
        np.testing.assert_array_equal(other.labels_, dense.labels_)
        np.testing.assert_array_equal(other.encoding_, dense.encoding_)

    def test_level_for_k_picks_closest(self, small_clusters):
        result = MGCPL(random_state=0).fit(small_clusters).result_
        target = result.kappa[0]
        assert result.level_for_k(target).n_clusters == target

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MGCPL(learning_rate=0.0)
        with pytest.raises(ValueError):
            MGCPL(update_mode="turbo")
        with pytest.raises(ValueError):
            MGCPL(prominence_threshold=1.5)
        with pytest.raises(ValueError):
            MGCPL(k0=1)

    def test_feature_weights_can_be_disabled(self, tiny_clusters):
        model = MGCPL(use_feature_weights=False, random_state=0).fit(tiny_clusters)
        assert model.n_clusters_ >= 2

    def test_accepts_raw_code_matrix(self, tiny_clusters):
        model = MGCPL(random_state=0).fit(tiny_clusters.codes)
        assert model.labels_.shape[0] == tiny_clusters.n_objects

    def test_fit_encode_returns_gamma(self, tiny_clusters):
        gamma = MGCPL(random_state=0).fit_encode(tiny_clusters)
        assert gamma.ndim == 2


class TestCAME:
    def test_aggregates_encoding_to_requested_k(self, small_clusters):
        gamma = MGCPL(random_state=0).fit_encode(small_clusters)
        came = CAME(n_clusters=3, random_state=0).fit(gamma)
        assert came.n_clusters_ == 3
        assert came.labels_.shape[0] == small_clusters.n_objects

    def test_theta_is_probability_vector(self, small_clusters):
        gamma = MGCPL(random_state=0).fit_encode(small_clusters)
        came = CAME(n_clusters=3, random_state=0).fit(gamma)
        assert came.feature_weights_.shape == (gamma.shape[1],)
        assert came.feature_weights_.sum() == pytest.approx(1.0)
        assert np.all(came.feature_weights_ >= 0)

    def test_unweighted_mode_keeps_uniform_theta(self, small_clusters):
        gamma = MGCPL(random_state=0).fit_encode(small_clusters)
        came = CAME(n_clusters=3, weighted=False, random_state=0).fit(gamma)
        assert np.allclose(came.feature_weights_, 1.0 / gamma.shape[1])

    def test_missing_values_in_encoding_treated_as_category(self):
        # Two missing entries of the same level agree with each other (the
        # historical semantics): rows sharing a missing pattern cluster
        # together, and the sentinel is reported back as -1 in the modes.
        gamma = np.array([[0, -1], [0, -1], [1, 2], [1, 2], [0, -1], [1, 2]])
        came = CAME(n_clusters=2, n_init=3, random_state=0).fit(gamma)
        assert came.n_clusters_ == 2
        assert len(set(came.labels_[[0, 1, 4]])) == 1
        assert len(set(came.labels_[[2, 3, 5]])) == 1
        assert set(np.unique(came.modes_)) <= {-1, 0, 1, 2}
        assert (came.modes_ == -1).any()

    def test_perfect_encoding_is_recovered(self):
        # A single-level encoding identical to the ground truth must be reproduced.
        labels = np.repeat([0, 1, 2], 20)
        gamma = labels.reshape(-1, 1)
        came = CAME(n_clusters=3, random_state=0).fit(gamma)
        assert adjusted_rand_index(labels, came.labels_) == pytest.approx(1.0)

    def test_objective_decreases_with_weighting(self, small_clusters):
        gamma = MGCPL(random_state=0).fit_encode(small_clusters)
        weighted = CAME(n_clusters=3, random_state=0).fit(gamma).objective_
        unweighted = CAME(n_clusters=3, weighted=False, random_state=0).fit(gamma).objective_
        assert weighted <= unweighted + 1e-6

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            CAME(n_clusters=10).fit(np.zeros((3, 2), dtype=int))


class TestMCDC:
    def test_end_to_end_quality_on_separated_data(self, small_clusters):
        mcdc = MCDC(n_clusters=3, random_state=0).fit(small_clusters)
        assert mcdc.n_clusters_ == 3
        assert adjusted_rand_index(small_clusters.labels, mcdc.labels_) > 0.45

    def test_exposes_granularity_levels(self, small_clusters):
        mcdc = MCDC(n_clusters=3, random_state=0).fit(small_clusters)
        assert mcdc.granularity_levels == mcdc.kappa_
        assert mcdc.encoding_.shape[0] == small_clusters.n_objects

    def test_reproducible_with_seed(self, tiny_clusters):
        a = MCDC(n_clusters=2, random_state=5).fit_predict(tiny_clusters)
        b = MCDC(n_clusters=2, random_state=5).fit_predict(tiny_clusters)
        assert np.array_equal(a, b)

    def test_final_clusterer_hook(self, tiny_clusters):
        from repro.baselines import KModes

        mcdc = MCDC(
            n_clusters=2,
            final_clusterer=KModes(n_clusters=2, n_init=2, random_state=0),
            random_state=0,
        ).fit(tiny_clusters)
        assert isinstance(mcdc.aggregator_, KModes)
        assert mcdc.labels_.shape[0] == tiny_clusters.n_objects

    def test_encoder_transform_dataset(self, tiny_clusters):
        encoder = MCDCEncoder(random_state=0).fit(tiny_clusters)
        encoded = encoder.transform_dataset()
        assert isinstance(encoded, CategoricalDataset)
        assert encoded.n_objects == tiny_clusters.n_objects
        assert encoded.n_features == len(encoder.kappa_)

    def test_encoder_requires_fit(self):
        with pytest.raises(RuntimeError):
            MCDCEncoder().transform()


class TestAblations:
    def test_factory_builds_all_versions(self):
        for version, cls in [(1, MCDC1), (2, MCDC2), (3, MCDC3), (4, MCDC4)]:
            assert isinstance(make_ablation(version, n_clusters=3), cls)
        with pytest.raises(ValueError):
            make_ablation(5, n_clusters=3)

    def test_mcdc4_disables_weighting(self):
        assert MCDC4(n_clusters=3).weighted_aggregation is False

    def test_mcdc3_uses_mgcpl_final_partition(self, small_clusters):
        model = MCDC3(random_state=0).fit(small_clusters)
        assert model.n_clusters_ == model.mgcpl_.n_clusters_
        assert np.array_equal(model.labels_, model.mgcpl_.labels_)

    def test_mcdc2_initialises_with_kstar_plus_two(self, tiny_clusters):
        model = MCDC2(n_clusters=2, random_state=0).fit(tiny_clusters)
        assert model.base_.n_initial_clusters == 4
        assert model.labels_.shape[0] == tiny_clusters.n_objects

    def test_mcdc1_produces_requested_k(self, small_clusters):
        model = MCDC1(n_clusters=3, n_init=3, random_state=0).fit(small_clusters)
        assert model.n_clusters_ <= 3
        assert clustering_accuracy(small_clusters.labels, model.labels_) > 0.5

    def test_full_mcdc_not_worse_than_mcdc1_on_nested_data(self, nested_dataset):
        full = MCDC(n_clusters=3, random_state=0).fit_predict(nested_dataset)
        reduced = MCDC1(n_clusters=3, n_init=3, random_state=0).fit_predict(nested_dataset)
        ari_full = adjusted_rand_index(nested_dataset.labels, full)
        ari_reduced = adjusted_rand_index(nested_dataset.labels, reduced)
        assert ari_full >= ari_reduced - 0.15
