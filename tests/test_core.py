"""Tests for the core contribution: competitive learning, MGCPL, CAME, MCDC, ablations."""

import numpy as np
import pytest

from repro.core import CAME, MCDC, MCDCEncoder, MGCPL, CompetitiveLearningClusterer
from repro.core.ablations import MCDC1, MCDC2, MCDC3, MCDC4, make_ablation
from repro.core.base import compact_labels, coerce_codes
from repro.core.came import DistinctRows
from repro.core.mgcpl import cluster_weight_from_delta
from repro.data.dataset import CategoricalDataset
from repro.metrics import adjusted_rand_index, clustering_accuracy
from repro.utils.rng import spawn_rngs


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

    @pytest.mark.parametrize("engine", ["loop"])
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


def per_object_came(X, k, weighted=True, n_init=10, max_iter=100, random_state=None):
    """CAME with every step over all ``n`` objects: the reference for the
    distinct-row aggregation.  Returns ``(labels, theta, modes, objective,
    n_iter)`` as the fitted attributes hold them."""
    gamma, cats = coerce_codes(X)
    n, sigma = gamma.shape
    sentinel = np.asarray(cats, dtype=np.int64)
    has_missing = bool((gamma < 0).any())
    if has_missing:
        gamma = np.where(gamma >= 0, gamma, sentinel[None, :])
        cats = [m + 1 for m in cats]
    unique_rows = np.unique(gamma, axis=0)

    def assign(modes, theta):
        distances = np.zeros((n, k))
        for r in range(sigma):  # ascending levels, as the Hamming kernel adds them
            distances += np.where(gamma[:, r, None] != modes[None, :, r], theta[r], 0.0)
        return np.argmin(distances, axis=1)

    def repair(labels, rng):
        labels = labels.copy()
        for cluster in np.flatnonzero(np.bincount(labels, minlength=k) == 0):
            donors = np.flatnonzero(np.bincount(labels, minlength=k)[labels] > 1)
            if donors.size == 0:
                break
            labels[rng.choice(donors)] = cluster
        return labels

    def modes_of(labels):
        modes = np.zeros((k, sigma), dtype=np.int64)
        for cluster in range(k):
            for r in range(sigma):
                counts = np.bincount(gamma[labels == cluster, r], minlength=cats[r])
                modes[cluster, r] = np.argmax(counts) if counts.sum() else 0
        return modes

    best = None
    for rng in spawn_rngs(random_state, n_init):
        theta = np.full(sigma, 1.0 / sigma)
        if unique_rows.shape[0] >= k:
            modes = unique_rows[rng.choice(unique_rows.shape[0], size=k, replace=False)].copy()
        else:
            modes = gamma[rng.choice(n, size=k, replace=n < k)].copy()
        labels = repair(assign(modes, theta), rng)
        n_iter = 0
        for iteration in range(max_iter):
            n_iter = iteration + 1
            modes = modes_of(labels)
            if weighted:
                matches = (gamma == modes[labels]).sum(axis=0).astype(np.float64)
                total = matches.sum()
                theta = matches / total if total > 0 else np.full(sigma, 1.0 / sigma)
            new_labels = repair(assign(modes, theta), rng)
            if np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
        modes = modes_of(labels)
        mismatches = (gamma != modes[labels]).astype(np.float64)
        objective = float((mismatches * theta[None, :]).sum())
        if best is None or objective < best[3]:
            best = (compact_labels(labels), theta, modes, objective, n_iter)
    labels, theta, modes, objective, n_iter = best
    if has_missing:
        modes = np.where(modes == sentinel[None, :], -1, modes)
    return labels, theta, modes, objective, n_iter


def nested_encoding(rng, n, sigma=4, missing=0.0):
    """Gamma with heavy duplication: every level coarsens the one before."""
    labels = rng.integers(0, 2 ** (sigma + 1), size=n)
    gamma = np.stack([labels >> r for r in range(sigma)], axis=1)
    noisy = rng.random(gamma.shape) < 0.05
    gamma[noisy] = rng.integers(0, 3, size=noisy.sum())
    gamma[rng.random(gamma.shape) < missing] = -1
    return gamma


#: Encodings for the distinct-row CAME: (gamma builder, k, repair fires).
CAME_CASES = {
    "heavy-duplication": lambda rng: nested_encoding(rng, 600),
    "all-distinct": lambda rng: np.stack(
        [rng.permutation(150), rng.integers(0, 4, size=150), rng.integers(0, 3, size=150)],
        axis=1,
    ),
    "all-identical": lambda rng: np.ones((40, 3), dtype=np.int64),
    "missing-values": lambda rng: nested_encoding(rng, 400, missing=0.1),
    "few-distinct-rows": lambda rng: rng.integers(0, 2, size=(300, 2)),
}


class TestCAMEDistinctRows:
    """CAME on Gamma's distinct rows gives the per-object algorithm's bytes."""

    @pytest.mark.parametrize("case", sorted(CAME_CASES))
    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("n_init", [1, 3])
    def test_matches_the_per_object_reference(self, case, weighted, n_init):
        gamma = CAME_CASES[case](np.random.default_rng(len(case)))
        k = 5
        came = CAME(n_clusters=k, weighted=weighted, n_init=n_init, random_state=4).fit(gamma)
        labels, theta, modes, objective, n_iter = per_object_came(
            gamma, k, weighted=weighted, n_init=n_init, random_state=4
        )
        assert came.labels_.tobytes() == labels.tobytes()
        assert came.feature_weights_.tobytes() == theta.tobytes()
        assert came.modes_.tobytes() == modes.tobytes()
        assert np.float64(came.objective_).tobytes() == np.float64(objective).tobytes()
        assert came.n_iter_ == n_iter

    @pytest.mark.parametrize("case", ["all-identical", "few-distinct-rows"])
    def test_repair_fires_and_splits_duplicates(self, case, monkeypatch):
        """Fewer distinct rows than clusters: the repair moves objects."""
        gamma = CAME_CASES[case](np.random.default_rng(len(case)))
        moved = []
        repair = CAME._repair_empty

        def recording(self, gamma, labels, rng):
            repaired = repair(self, gamma, labels, rng)
            moved.append(int((repaired != labels).sum()))
            return repaired

        monkeypatch.setattr(CAME, "_repair_empty", recording)
        CAME(n_clusters=5, n_init=2, random_state=4).fit(gamma)
        assert moved and max(moved) > 0

    def test_mcdc_encoding_matches_the_reference(self, small_clusters):
        gamma = MGCPL(random_state=3).fit_encode(small_clusters)
        came = CAME(n_clusters=3, random_state=5).fit(gamma)
        labels, theta, modes, objective, n_iter = per_object_came(gamma, 3, random_state=5)
        assert came.labels_.tobytes() == labels.tobytes()
        assert came.feature_weights_.tobytes() == theta.tobytes()
        assert came.modes_.tobytes() == modes.tobytes()
        assert came.objective_ == objective and came.n_iter_ == n_iter


class TestDistinctRows:
    """``DistinctRows.of`` finds ``np.unique(axis=0)``'s rows, in its order."""

    @pytest.mark.parametrize(
        "shape, high",
        [((500, 3), 4), ((2000, 6), 30), ((300, 30), 200), ((50, 1), 7), ((200, 2), 2**62)],
        ids=["small", "mcdc-like", "sigma30-m200", "one-level", "huge-codes"],
    )
    def test_matches_numpy_unique(self, shape, high):
        rng = np.random.default_rng(shape[1])
        base = rng.integers(0, high, size=(shape[0] // 4 + 1, shape[1]))
        gamma = base[rng.integers(0, base.shape[0], size=shape[0])]  # repeated rows
        rows, inverse, counts = np.unique(gamma, axis=0, return_inverse=True, return_counts=True)
        distinct = DistinctRows.of(gamma, [high] * shape[1])
        assert distinct.rows.tobytes() == rows.tobytes()
        assert np.array_equal(distinct.multiplicity, counts)
        assert np.array_equal(distinct.inverse, inverse.ravel())
        assert np.array_equal(distinct.rows[distinct.inverse], gamma)


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
