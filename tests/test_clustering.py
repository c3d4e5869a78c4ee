"""K-means, hierarchical clustering, validity indices, cluster-count selection."""

import hashlib
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
from packwise import clustering
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

    def test_canonical_order_of_other_patterns_refused(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 3))
        canonical = clustering._canonical_order(X)
        model = kmeans(X, 3, seed=4, canonical=canonical)
        assert np.array_equal(model.assignments, kmeans(X, 3, seed=4).assignments)
        with pytest.raises(ValueError):
            kmeans(X[:15], 3, seed=4, canonical=canonical)

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


def golden_patterns(S):
    rng = np.random.default_rng(500 + S)
    centers = rng.integers(20, 221, size=(6, S)).astype(float)
    X = centers[rng.integers(0, 6, size=120)] + rng.normal(0, 6, size=(120, S))
    return np.round(X, 2)


# Seven distinct rows, sixteen patterns in canonical (lexicographic) order:
# at k=4 one restart of select_k(seed=19) empties a cluster and takes the
# farthest-point repair.
DUPLICATE_HEAVY = np.repeat(
    np.array([[1.0, 11.0], [3.0, 10.0], [4.0, 1.0], [5.0, 1.0], [6.0, 3.0],
              [10.0, 8.0], [11.0, 11.0]]),
    [2, 2, 3, 4, 2, 2, 1], axis=0)


class TestKMeansGolden:
    """select_k outputs pinned bytewise, so a rewrite of the Lloyd sweep must
    keep every float: sha256 prefixes of the best model's centroid and
    assignment bytes, of repr(objective_trace) and of repr(rows)."""

    GOLDEN = {
        1: (3, "2cf6759dacdd0791", "e45754258ab8006f", "260ca8f365c5ad4e", "958ad5a27dc3327e"),
        2: (3, "42f27e663960d53e", "ac09e52227496267", "c5c9f9470f17c1c2", "101fae47237a2d48"),
        5: (6, "9a56b7b2f120dd3f", "f354963dc82ebce3", "ab611ea041113645", "548c777013734d15"),
        8: (5, "00b3bde8203ef10f", "16069d1839c146fc", "bfc69b591596d367", "987b5dc63f47945f"),
        12: (6, "874aaf4a73d54b7b", "c01cc219addbf31b", "7221905cd24175af", "174d850d6b2462ab"),
        20: (6, "374248eab4441876", "d4d6b7ff00c448a8", "192ab5f15fde0d1a", "ba3de65a8da02b70"),
    }
    GOLDEN_DUPLICATE_HEAVY = (
        7, "3ca011cf0a62e1d8", "1168273f2fb1c943", "33f182838c96ef79", "5de900deb0f32839")
    # The repaired restart loses to another at k=4, so its own output is
    # pinned through the ten restarts kmeans(DUPLICATE_HEAVY, 4, seed=23) runs.
    GOLDEN_K4_RESTARTS = "f5fc6dd129183ca0"

    @staticmethod
    def fingerprint(model, rows):
        parts = (model.centroids.tobytes(), model.assignments.tobytes(),
                 repr(model.objective_trace).encode(), repr(rows).encode())
        return (model.k, *(hashlib.sha256(p).hexdigest()[:16] for p in parts))

    @pytest.mark.parametrize("S", sorted(GOLDEN))
    def test_select_k_pinned(self, S):
        model, rows = select_k(golden_patterns(S), (2, 9), seed=S)
        assert self.fingerprint(model, rows) == self.GOLDEN[S]

    def test_empty_cluster_repair_pinned(self, monkeypatch):
        # The repair is the only caller of np.flatnonzero in a select_k run
        # that finds an empty cluster.
        repairs = []
        flatnonzero = np.flatnonzero

        def counting(a):
            found = flatnonzero(a)
            repairs.extend(found[:1])
            return found

        monkeypatch.setattr(np, "flatnonzero", counting)
        model, rows = select_k(DUPLICATE_HEAVY, (2, 7), seed=19)
        assert repairs
        assert self.fingerprint(model, rows) == self.GOLDEN_DUPLICATE_HEAVY

        repairs.clear()
        rng = np.random.default_rng(23)
        h = hashlib.sha256()
        for _ in range(clustering.KMEANS_RESTARTS):
            centers, labels, trace = clustering._lloyd(DUPLICATE_HEAVY, 4, rng)
            for part in (centers.tobytes(), labels.astype(np.int64).tobytes(),
                         repr(trace).encode()):
                h.update(part)
        monkeypatch.undo()
        assert repairs
        assert h.hexdigest()[:16] == self.GOLDEN_K4_RESTARTS


@st.composite
def service_major_inputs(draw):
    """(X, centers, labels): up to 64 integer- or cent-valued patterns of 1 to
    300 services with duplicate and all-zero rows, 1 to 15 centers near
    them, and labels that leave no cluster of the first min(k, n) empty."""
    S = draw(st.one_of(st.integers(1, 20), st.integers(1, 300)))
    n = draw(st.integers(1, 64))
    k = draw(st.integers(1, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(0, 300, size=(n, S)).astype(float)
    else:
        X = rng.integers(0, 100_000, size=(n, S)) / 100
    copies = rng.integers(0, n, size=draw(st.integers(0, n)))
    X[copies] = X[rng.integers(0, n, size=copies.size)]
    X[rng.integers(0, n, size=draw(st.integers(0, 2)))] = 0.0
    centers = X[rng.integers(0, n, size=k)] + rng.integers(-900, 900, size=(k, S)) / 300
    m = min(k, n)
    labels = rng.permutation(np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)]))
    return X, centers, labels


class TestServiceMajorKernels:
    """The Lloyd sweep's service-major kernels against the plain broadcast
    and masked-mean formulas they replace, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(service_major_inputs())
    def test_sq_dist_matches_broadcast_sum(self, case):
        X, centers, _ = case
        expected = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        got = clustering._sq_dist(np.ascontiguousarray(X.T), centers)
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(service_major_inputs())
    def test_centroids_match_masked_mean(self, case):
        X, _, labels = case
        sizes = np.bincount(labels)
        expected = np.vstack([X[labels == c].mean(axis=0) for c in range(sizes.size)])
        got = clustering._centroids(X, np.ascontiguousarray(X.T), labels, sizes)
        assert got.tobytes() == expected.tobytes()


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
