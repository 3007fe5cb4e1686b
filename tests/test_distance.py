"""Tests for the distance substrate: Hamming, object-cluster similarity, value distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.graph_based import build_value_graph, graph_value_distances
from repro.distance.hamming import hamming_distance, hamming_matrix, pairwise_hamming
from repro.distance.value_cooccurrence import (
    cooccurrence_value_distances,
    mutual_information_matrix,
)
from repro.engine import make_engine


def dense_engine(codes, labels, k):
    """The dense engine over ``codes`` (vocabularies inferred), built from ``labels``."""
    codes = np.asarray(codes)
    cats = [int(codes[:, r].max()) + 1 for r in range(codes.shape[1])]
    return make_engine(codes, cats, k, kind="dense", labels=np.asarray(labels))


class TestHamming:
    def test_identical_is_zero(self):
        assert hamming_distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_all_different_is_one_normalized(self):
        assert hamming_distance([0, 0], [1, 1]) == 1.0

    def test_unnormalized_counts_mismatches(self):
        assert hamming_distance([0, 1, 2], [0, 2, 2], normalize=False) == 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            hamming_distance([1, 2], [1, 2, 3])

    def test_matrix_against_centers(self, toy_codes):
        centers = np.array([[0, 0, 0], [2, 2, 2]])
        D = hamming_matrix(toy_codes, centers)
        assert D.shape == (8, 2)
        assert D[0, 0] == 0.0
        assert D[4, 1] == 0.0
        assert D[0, 1] == 1.0

    def test_pairwise_symmetric_zero_diagonal(self, toy_codes):
        D = pairwise_hamming(toy_codes)
        assert np.allclose(D, D.T)
        assert np.allclose(np.diag(D), 0.0)

    def test_feature_count_mismatch_raises(self, toy_codes):
        with pytest.raises(ValueError):
            hamming_matrix(toy_codes, np.array([[0, 0]]))


class TestObjectClusterSimilarity:
    def test_counts_from_labels(self, toy_codes, toy_labels):
        table = dense_engine(toy_codes, toy_labels, 2)
        assert table.sizes.tolist() == [4.0, 4.0]
        # Feature 0's packed columns start at 0: all of cluster 0 has value 0
        # on feature 0, all of cluster 1 value 2.
        assert table.packed[0, 0] == 4
        assert table.packed[1, 2] == 4

    def test_similarity_matrix_range_and_shape(self, toy_codes, toy_labels):
        sims = dense_engine(toy_codes, toy_labels, 2).similarity_matrix()
        assert sims.shape == (8, 2)
        assert sims.min() >= 0.0
        assert sims.max() <= 1.0

    def test_objects_prefer_their_own_cluster(self, toy_codes, toy_labels):
        sims = dense_engine(toy_codes, toy_labels, 2).similarity_matrix()
        preferred = sims.argmax(axis=1)
        assert np.array_equal(preferred, toy_labels)

    def test_incremental_add_remove_matches_rebuild(self, toy_codes, toy_labels):
        table = dense_engine(toy_codes, toy_labels, 2)
        table.move(0, 0, 1)
        moved_labels = toy_labels.copy()
        moved_labels[0] = 1
        rebuilt = dense_engine(toy_codes, moved_labels, 2)
        assert np.array_equal(table.packed, rebuilt.packed)
        assert np.array_equal(table.valid_counts, rebuilt.valid_counts)
        assert np.array_equal(table.sizes, rebuilt.sizes)

    def test_remove_from_empty_cluster_raises(self, toy_codes, toy_labels):
        table = dense_engine(toy_codes, toy_labels, 3)
        with pytest.raises(ValueError):
            table.remove(0, 2)

    def test_missing_values_excluded(self):
        codes = np.array([[0, -1], [0, 1], [1, 1]])
        table = dense_engine(codes, [0, 0, 0], 1)
        assert table.valid_counts[0, 1] == 2.0
        sims = table.similarity_matrix()
        assert sims.shape == (3, 1)

    def test_leave_one_out_reduces_own_similarity(self, toy_codes, toy_labels):
        table = dense_engine(toy_codes, toy_labels, 2)
        plain = table.similarity_matrix()
        loo = table.similarity_matrix(exclude_labels=toy_labels)
        own_plain = plain[np.arange(8), toy_labels]
        own_loo = loo[np.arange(8), toy_labels]
        assert np.all(own_loo <= own_plain + 1e-12)
        # Similarities to other clusters are unchanged.
        other = 1 - toy_labels
        assert np.allclose(plain[np.arange(8), other], loo[np.arange(8), other])

    def test_singleton_cluster_loo_similarity_is_zero(self):
        codes = np.array([[0, 0], [1, 1], [1, 0]])
        labels = np.array([0, 1, 1])
        table = dense_engine(codes, labels, 2)
        loo = table.similarity_matrix(exclude_labels=labels)
        assert loo[0, 0] == 0.0

    def test_similarity_object_matches_matrix(self, toy_codes, toy_labels):
        table = dense_engine(toy_codes, toy_labels, 2)
        matrix = table.similarity_matrix()
        for i in range(toy_codes.shape[0]):
            row = table.similarity_object(toy_codes[i])
            assert np.allclose(row, matrix[i])

    def test_feature_weights_are_probabilities(self, toy_codes, toy_labels):
        table = dense_engine(toy_codes, toy_labels, 2)
        omega = table.feature_cluster_weights()
        assert omega.shape == (3, 2)
        assert np.allclose(omega.sum(axis=0), 1.0)
        assert np.all(omega >= 0)

    def test_alpha_higher_for_discriminative_feature(self, toy_codes, toy_labels):
        table = dense_engine(toy_codes, toy_labels, 2)
        alpha = table.inter_cluster_difference()
        # Feature 0 perfectly separates the clusters, feature 2 barely does.
        assert alpha[0, 0] > alpha[2, 0]

    def test_beta_is_compactness(self, toy_codes, toy_labels):
        table = dense_engine(toy_codes, toy_labels, 2)
        beta = table.intra_cluster_similarity()
        assert np.all(beta >= 0) and np.all(beta <= 1.0)
        assert beta[0, 0] == pytest.approx(1.0)  # feature 0 is constant inside cluster 0

    def test_modes(self, toy_codes, toy_labels):
        table = dense_engine(toy_codes, toy_labels, 2)
        modes = table.modes()
        assert modes[0].tolist() == [0, 0, 0]
        assert modes[1].tolist() == [2, 2, 2]

    def test_empty_cluster_mode_is_minus_one(self, toy_codes, toy_labels):
        table = dense_engine(toy_codes, toy_labels, 3)
        assert np.all(table.modes()[2] == -1)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_similarity_bounds_property(self, seed):
        rng = np.random.default_rng(seed)
        n, d, k = 30, 4, 3
        codes = rng.integers(0, 4, size=(n, d))
        labels = rng.integers(0, k, size=n)
        sims = dense_engine(codes, labels, k).similarity_matrix()
        assert np.all(sims >= -1e-12)
        assert np.all(sims <= 1.0 + 1e-12)


class TestValueCooccurrence:
    def test_mutual_information_symmetric_nonnegative(self, toy_codes):
        mi = mutual_information_matrix(toy_codes)
        assert np.allclose(mi, mi.T)
        assert np.all(mi >= 0)

    def test_distance_matrices_shape_and_diagonal(self, toy_codes):
        distances = cooccurrence_value_distances(toy_codes)
        assert len(distances) == 3
        for r, D in enumerate(distances):
            assert D.shape[0] == D.shape[1]
            assert np.allclose(np.diag(D), 0.0)
            assert np.allclose(D, D.T)
            assert np.all(D >= 0) and np.all(D <= 1.0 + 1e-9)

    def test_single_feature_falls_back_to_hamming(self):
        codes = np.array([[0], [1], [2]])
        distances = cooccurrence_value_distances(codes)
        assert np.allclose(distances[0], 1 - np.eye(3))

    def test_correlated_values_are_close(self):
        # Feature 0 values 0 and 1 co-occur with identical contexts -> small distance;
        # value 2 has a different context -> larger distance.
        codes = np.array(
            [[0, 5], [1, 5], [0, 5], [1, 5], [2, 7], [2, 7], [2, 7], [2, 7]]
        )
        codes[:, 1] -= 5
        D = cooccurrence_value_distances(codes, weight_by_mutual_information=False)[0]
        assert D[0, 1] < D[0, 2]


class TestGraphBased:
    def test_graph_nodes_cover_all_values(self, toy_codes):
        graph, offsets = build_value_graph(toy_codes)
        n_values = sum(int(toy_codes[:, r].max()) + 1 for r in range(toy_codes.shape[1]))
        assert graph.number_of_nodes() == n_values

    def test_distances_properties(self, toy_codes):
        distances = graph_value_distances(toy_codes)
        for D in distances:
            assert np.allclose(np.diag(D), 0.0)
            assert np.all(D >= 0) and np.all(D <= 1.0 + 1e-9)
            assert np.allclose(D, D.T)
