"""K-means, hierarchical clustering, validity indices, cluster-count selection."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packwise import (
    ClusterModel,
    DegenerateModelError,
    ahc,
    davies_bouldin,
    dunn,
    kmeans,
    select_k,
)
from packwise.clustering import save_dendrogram, save_index_table

from conftest import separated_centers


def two_blobs(rng, n_per=40, sigma=0.5):
    a = rng.normal([0.0, 0.0], sigma, size=(n_per, 2))
    b = rng.normal([10.0, 10.0], sigma, size=(n_per, 2))
    return np.vstack([a, b]), np.array([0.0, 0.0]), np.array([10.0, 10.0]), sigma


def planted_patterns(run_seed, modes=10, n=100):
    rng = np.random.default_rng(run_seed)
    centers = separated_centers(rng, modes=modes)
    sigma = 0.05 * centers.mean()
    labels = rng.integers(0, modes, size=n)
    X = centers[labels] + rng.normal(0, sigma, size=(n, centers.shape[1]))
    return X, centers, labels


@st.composite
def labelled_patterns(draw):
    """(X, labels, k): count-like patterns up to 12 wide with duplicate rows,
    singleton clusters and, sometimes, every cluster a single repeated row."""
    S = draw(st.integers(1, 12))
    n = draw(st.integers(2, 24))
    k = draw(st.integers(2, n))
    labels = np.array(list(range(k)) + draw(st.lists(st.integers(0, k - 1),
                                                     min_size=n - k, max_size=n - k)))
    value = st.one_of(st.integers(0, 300), st.integers(0, 100_000).map(lambda v: v / 100))
    row = st.lists(value, min_size=S, max_size=S).map(lambda r: np.array(r, dtype=float))
    if draw(st.booleans()):
        rows = [draw(row) for _ in range(k)]
        return np.vstack([rows[c] for c in labels]), labels, k
    X = []
    for _ in range(n):
        X.append(X[draw(st.integers(0, len(X) - 1))] if X and draw(st.booleans())
                 else draw(row))
    return np.vstack(X), labels, k


class TestKMeans:
    def test_k1_returns_global_mean(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5, 2, size=(30, 4))
        model = kmeans(X, 1, seed=0)
        assert model.k == 1
        assert np.allclose(model.centroids[0], X.mean(axis=0))
        assert model.db_index is None and model.dunn_index is None

    def test_two_blobs_recovers_means(self):
        rng = np.random.default_rng(1)
        X, mean_a, mean_b, sigma = two_blobs(rng)
        model = kmeans(X, 2, seed=1)
        # Each recovered centroid within 3 sigma of a planted mean.
        for planted in (mean_a, mean_b):
            nearest = min(np.linalg.norm(c - planted) for c in model.centroids)
            assert nearest < 3 * sigma

    def test_ten_representatives_from_hundred_patterns(self):
        X, _, _ = planted_patterns(2)
        model = kmeans(X, 10, seed=2)
        assert model.centroids.shape == (10, 5)
        assert len(set(model.assignments.tolist())) == 10

    def test_k_above_distinct_rejected(self):
        X = np.tile([1.0, 2.0], (6, 1))
        with pytest.raises(DegenerateModelError):
            kmeans(X, 2, seed=0)

    def test_k_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.eye(3), 0, seed=0)

    def test_objective_trace_monotone(self):
        for seed in range(5):
            X, _, _ = planted_patterns(30 + seed)
            model = kmeans(X, 7, seed=seed)
            trace = np.array(model.objective_trace)
            assert np.all(np.diff(trace) <= 1e-9)

    def test_deterministic_given_seed(self):
        X, _, _ = planted_patterns(3)
        a = kmeans(X, 10, seed=7)
        b = kmeans(X, 10, seed=7)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)

    def test_permutation_invariance(self):
        X, _, _ = planted_patterns(4)
        perm = np.random.default_rng(0).permutation(len(X))
        a = kmeans(X, 10, seed=5)
        b = kmeans(X[perm], 10, seed=5)
        # Centroid multisets match; compare after sorting rows.
        sa = a.centroids[np.lexsort(a.centroids.T[::-1])]
        sb = b.centroids[np.lexsort(b.centroids.T[::-1])]
        assert np.allclose(sa, sb, atol=1e-9)
        assert a.db_index == pytest.approx(b.db_index, rel=1e-9)
        assert a.dunn_index == pytest.approx(b.dunn_index, rel=1e-9)
        # Assignments agree up to the permutation and label renaming.
        assert len(set(zip(a.assignments[perm].tolist(), b.assignments.tolist()))) == 10


class TestAgglomerative:
    def test_merge_count(self):
        X, _, _ = planted_patterns(6, n=40)
        for linkage in ("ward", "complete", "average"):
            model, dendro = ahc(X, 3, linkage=linkage)
            assert dendro.n_merges == 39, linkage
            assert model.centroids.shape == (3, 5), linkage

    def test_k_equals_n_gives_singletons(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(12, 3))
        model, _ = ahc(X, 12)
        assert model.k == 12
        sc = model.centroids[np.lexsort(model.centroids.T[::-1])]
        sx = X[np.lexsort(X.T[::-1])]
        assert np.allclose(sc, sx)

    def test_planted_modes_recovered(self):
        X, _, truth = planted_patterns(8)
        model, _ = ahc(X, 10)
        # Clusters coincide with modes: most common true label per cluster
        # accounts for >= 95% of points overall.
        agree = 0
        for c in range(10):
            members = truth[model.assignments == c]
            agree += np.bincount(members).max()
        assert agree / len(X) >= 0.95

    def test_merge_distances_nondecreasing(self):
        for linkage in ("ward", "complete", "average"):
            X, _, _ = planted_patterns(9, n=50)
            _, dendro = ahc(X, 5, linkage=linkage)
            d = dendro.distances()
            assert np.all(np.diff(d) >= -1e-12), linkage

    def test_unknown_linkage_rejected(self):
        with pytest.raises(ValueError):
            ahc(np.eye(4), 2, linkage="single-file")

    def test_k_above_distinct_rejected(self):
        X = np.tile([3.0, 1.0], (5, 1))
        with pytest.raises(DegenerateModelError):
            ahc(X, 3)


class TestDaviesBouldin:
    def test_zero_scatter_singletons(self):
        X = np.array([[0.0, 0.0], [10.0, 0.0]])
        model = ClusterModel(k=2, centroids=X.copy(), assignments=np.array([0, 1]),
                             method="kmeans")
        assert davies_bouldin(model, X) == 0.0

    def test_needs_k_at_least_two(self):
        X = np.array([[0.0], [1.0]])
        model = ClusterModel(k=1, centroids=np.array([[0.5]]),
                             assignments=np.array([0, 0]), method="kmeans")
        with pytest.raises(ValueError):
            davies_bouldin(model, X)

    def test_coincident_centroids_degenerate(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        model = ClusterModel(k=2, centroids=np.array([[0.5], [0.5]]),
                             assignments=np.array([0, 0, 1, 1]), method="kmeans")
        with pytest.raises(DegenerateModelError):
            davies_bouldin(model, X)

    def test_lower_at_true_k(self):
        X, _, _ = planted_patterns(11)
        scores = {k: kmeans(X, k, seed=11).db_index for k in (7, 10, 13)}
        assert scores[10] < scores[7]
        assert scores[10] < scores[13]


class TestDunn:
    def test_tight_singletons_infinite(self):
        X = np.array([[0.0, 0.0], [5.0, 5.0]])
        model = ClusterModel(k=2, centroids=X.copy(), assignments=np.array([0, 1]),
                             method="ahc")
        assert dunn(model, X) == float("inf")

    def test_needs_k_at_least_two(self):
        X = np.array([[0.0], [1.0]])
        model = ClusterModel(k=1, centroids=np.array([[0.5]]),
                             assignments=np.array([0, 0]), method="kmeans")
        with pytest.raises(ValueError):
            dunn(model, X)

    def test_diameter_dominated_by_spread_cluster(self):
        # One cluster holds two far points; its diameter sets the denominator.
        X = np.array([[0.0], [8.0], [100.0], [101.0]])
        model = ClusterModel(k=2, centroids=np.array([[4.0], [100.5]]),
                             assignments=np.array([0, 0, 1, 1]), method="kmeans")
        value = dunn(model, X)
        assert value == pytest.approx((100.0 - 8.0) / 8.0)

    def test_higher_at_true_k(self):
        X, _, _ = planted_patterns(12)
        scores = {k: kmeans(X, k, seed=12).dunn_index for k in (7, 10, 13)}
        assert scores[10] > scores[7]
        assert scores[10] > scores[13]

    @settings(max_examples=200, deadline=None)
    @given(labelled_patterns())
    def test_matches_scalar_oracle(self, case):
        X, labels, k = case
        model = ClusterModel(k=k, centroids=np.vstack([X[labels == c].mean(axis=0)
                                                       for c in range(k)]),
                             assignments=labels, method="kmeans")
        diameter, separation = 0.0, math.inf
        for i in range(len(X)):
            for j in range(i + 1, len(X)):
                d = math.dist(X[i], X[j])
                if labels[i] == labels[j]:
                    diameter = max(diameter, d)
                else:
                    separation = min(separation, d)
        value = dunn(model, X)
        if diameter == 0.0:
            assert value == math.inf
        else:
            oracle = separation / diameter
            assert abs(value - oracle) <= 1e-12 * max(1.0, abs(oracle))

    def test_memory_bounded_by_cluster_blocks(self):
        # The n x n x S difference tensor of 2000 x 5 patterns alone is 160 MB.
        rng = np.random.default_rng(0)
        X = rng.normal(100.0, 30.0, size=(2000, 5))
        labels = rng.integers(0, 2, size=2000)
        model = ClusterModel(k=2, centroids=np.vstack([X[labels == c].mean(axis=0)
                                                       for c in range(2)]),
                             assignments=labels, method="kmeans")
        tracemalloc.start()
        try:
            dunn(model, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestSelectK:
    def test_recovers_planted_mode_count(self):
        X, _, _ = planted_patterns(13)
        model, rows = select_k(X, (2, 15), seed=13)
        assert model.k == 10
        assert [r[0] for r in rows] == list(range(2, 16))

    def test_singleton_range(self):
        X, _, _ = planted_patterns(14, n=40)
        model, rows = select_k(X, (2, 2), seed=0)
        assert model.k == 2
        assert len(rows) == 1

    def test_empty_range_rejected(self):
        X, _, _ = planted_patterns(15, n=30)
        with pytest.raises(ValueError):
            select_k(X, (5, 4), seed=0)

    def test_identical_patterns_degenerate(self):
        X = np.tile([2.0, 2.0], (30, 1))
        with pytest.raises(DegenerateModelError):
            select_k(X, (2, 5), seed=0)

    def test_range_must_fit_pattern_count(self):
        X, _, _ = planted_patterns(16, n=10)
        with pytest.raises(ValueError):
            select_k(X, (2, 10), seed=0)


class TestCsvWriters:
    def test_index_table_format(self, tmp_path):
        path = tmp_path / "index.csv"
        save_index_table([(2, 1.25, 0.5), (3, 0.75, 1.5)], path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "k,davies_bouldin,dunn"
        assert lines[1] == "2,1.25,0.5"

    def test_dendrogram_format(self, tmp_path):
        X = np.array([[0.0], [1.0], [10.0]])
        _, dendro = ahc(X, 2)
        path = tmp_path / "dendro.csv"
        save_dendrogram(dendro, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,cluster_a,cluster_b,distance"
        assert len(lines) == 3
