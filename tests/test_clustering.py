"""K-means, hierarchical clustering, validity indices, cluster-count selection."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

from packwise import (
    ClusterModel,
    DegenerateModelError,
    ahc,
    davies_bouldin,
    dunn,
    kmeans,
    select_k,
)
from packwise import clustering, parallel
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
        assert davies_bouldin(a, X) == pytest.approx(davies_bouldin(b, X[perm]), rel=1e-9)
        assert dunn(a, X) == pytest.approx(dunn(b, X[perm]), rel=1e-9)
        # Assignments agree up to the permutation and label renaming.
        assert len(set(zip(a.assignments[perm].tolist(), b.assignments.tolist()))) == 10


def golden_patterns(S):
    rng = np.random.default_rng(500 + S)
    centers = rng.integers(20, 221, size=(6, S)).astype(float)
    X = centers[rng.integers(0, 6, size=120)] + rng.normal(0, 6, size=(120, S))
    return np.round(X, 2)


def build_scale_patterns():
    """2000 planted patterns of 5 services, the size of a benchmark build."""
    return planted_patterns(2000, n=2000)[0]


# Seven distinct rows, sixteen patterns in canonical (lexicographic) order:
# at k=4 the fit of select_k(seed=1364) empties a cluster and takes the
# farthest-point repair.
DUPLICATE_HEAVY = np.repeat(
    np.array([[1.0, 11.0], [3.0, 10.0], [4.0, 1.0], [5.0, 1.0], [6.0, 3.0],
              [10.0, 8.0], [11.0, 11.0]]),
    [2, 2, 3, 4, 2, 2, 1], axis=0)


class TestKMeansGolden:
    """select_k outputs pinned bytewise, so a rewrite of the Lloyd sweep must
    keep every float: sha256 prefixes of the best model's centroid and
    assignment bytes and of repr(objective_trace), and, apart, of
    repr(rows), the sweep's scores."""

    GOLDEN = {
        1: (3, "2cf6759dacdd0791", "e45754258ab8006f", "260ca8f365c5ad4e"),
        2: (3, "42f27e663960d53e", "ac09e52227496267", "c5c9f9470f17c1c2"),
        5: (6, "9a56b7b2f120dd3f", "f354963dc82ebce3", "ab611ea041113645"),
        8: (5, "00b3bde8203ef10f", "16069d1839c146fc", "bfc69b591596d367"),
        12: (6, "874aaf4a73d54b7b", "c01cc219addbf31b", "7221905cd24175af"),
        20: (6, "374248eab4441876", "d4d6b7ff00c448a8", "192ab5f15fde0d1a"),
    }
    GOLDEN_ROWS = {
        1: "231c7320278035fc",
        2: "00ef3dba4b30b6d7",
        5: "1ff7c5ef447bcf93",
        8: "33a856b96af3325f",
        12: "df2f5395e8562c57",
        20: "b2724871fb3b9427",
    }
    GOLDEN_DUPLICATE_HEAVY = (
        (7, "3ca011cf0a62e1d8", "1168273f2fb1c943", "33f182838c96ef79"), "ac63119d7a31ac71")
    # Ten _lloyd restarts from default_rng(23) on DUPLICATE_HEAVY at k=4
    # take the repair too, in one that loses to another; all ten outputs
    # are pinned.
    GOLDEN_K4_RESTARTS = "f5fc6dd129183ca0"

    @staticmethod
    def fingerprint(model):
        parts = (model.centroids.tobytes(), model.assignments.tobytes(),
                 repr(model.objective_trace).encode())
        return (model.k, *(hashlib.sha256(p).hexdigest()[:16] for p in parts))

    @staticmethod
    def rows_hash(rows):
        return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]

    @pytest.mark.parametrize("S", sorted(GOLDEN))
    def test_select_k_pinned(self, S):
        model, rows = select_k(golden_patterns(S), (2, 9), seed=S)
        assert self.fingerprint(model) == self.GOLDEN[S]
        assert self.rows_hash(rows) == self.GOLDEN_ROWS[S]

    def test_select_k_pinned_at_build_scale(self):
        # 2000 patterns, where most sweeps skip most points (see TestPruning).
        model, rows = select_k(build_scale_patterns(), (2, 15), seed=3)
        assert self.fingerprint(model) == (
            10, "36b2236b3b9e2ab5", "f2867417175a6482", "4cf930436b2feee4")
        assert self.rows_hash(rows) == "ecdb86dcf0f647f0"

    @pytest.mark.usefixtures("serial")
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
        model, rows = select_k(DUPLICATE_HEAVY, (2, 7), seed=1364)
        assert repairs
        assert (self.fingerprint(model), self.rows_hash(rows)) == self.GOLDEN_DUPLICATE_HEAVY

        repairs.clear()
        rng = np.random.default_rng(23)
        h = hashlib.sha256()
        for _ in range(10):
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
    @given(service_major_inputs(), st.sampled_from(["all", "one row", "one column"]))
    def test_dunn_kernel_matches_cdist(self, case, shape):
        # scipy is the oracle: every distance dunn computes is cdist's float.
        X, centers, _ = case
        A = X[:1] if shape == "one row" else X
        for B in (X[-1:] if shape == "one column" else X, centers):
            AT, BT = np.ascontiguousarray(A.T), np.ascontiguousarray(B.T)
            got = np.sqrt(clustering._squared_distances(AT[:, :, None], BT[:, None, :]))
            assert got.tobytes() == cdist(A, B).tobytes()
        XT = np.ascontiguousarray(X.T)
        paired = np.sqrt(clustering._squared_distances(XT, XT[:, ::-1]))
        assert paired.tobytes() == cdist(X, X[::-1]).diagonal().tobytes()

    @settings(max_examples=300, deadline=None)
    @given(service_major_inputs())
    def test_centroids_match_masked_mean(self, case):
        X, _, labels = case
        sizes = np.bincount(labels)
        expected = np.vstack([X[labels == c].mean(axis=0) for c in range(sizes.size)])
        got = clustering._centroids(X, np.ascontiguousarray(X.T), labels, sizes)
        assert got.tobytes() == expected.tobytes()


def full_sweep_lloyd(Xs, k, rng):
    """The unpruned Lloyd restart _lloyd replaces: k-means++ seeds, then a
    full _sq_dist matrix every sweep."""
    XT = np.ascontiguousarray(Xs.T)
    n = Xs.shape[0]
    centers = np.empty((k, Xs.shape[1]))
    centers[0] = Xs[rng.integers(n)]
    d2 = clustering._sq_dist(XT, centers[:1])[:, 0]
    for j in range(1, k):
        probs = d2 / d2.sum()
        centers[j] = Xs[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, clustering._sq_dist(XT, centers[j:j + 1])[:, 0])
    labels = np.full(n, -1)
    trace = []
    for _ in range(clustering.KMEANS_MAX_ITER):
        d2 = clustering._sq_dist(XT, centers)
        new_labels = d2.argmin(axis=1)
        while True:
            sizes = np.bincount(new_labels, minlength=k)
            empty = np.flatnonzero(sizes == 0)
            if empty.size == 0:
                break
            c = int(empty[0])
            dist_to_own = d2[np.arange(len(new_labels)), new_labels]
            dist_to_own = np.where(sizes[new_labels] > 1, dist_to_own, -np.inf)
            far = int(dist_to_own.argmax())
            centers[c] = Xs[far]
            new_labels[far] = c
            d2[:, c] = clustering._sq_dist(XT, centers[c:c + 1])[:, 0]
        converged = np.array_equal(new_labels, labels)
        labels = new_labels
        centers = clustering._centroids(Xs, XT, labels, sizes)
        d2_final = ((Xs - centers[labels]) ** 2).sum(axis=1)
        trace.append(float(d2_final.sum()))
        if converged:
            break
    return centers, labels, trace


def all_pairs_dunn(model, X):
    """Dunn's index with the separation taken over every pair of clusters."""
    blocks = [X[model.assignments == c] for c in range(model.k)]
    max_diameter = max(pdist(b).max(initial=0.0) for b in blocks)
    min_separation = min(cdist(blocks[i], blocks[j]).min()
                         for i in range(model.k) for j in range(i + 1, model.k))
    if max_diameter == 0.0:
        return math.inf
    return float(min_separation / max_diameter)


# (rows, k, seed): within three restarts of _lloyd(rows, k, rng(seed)) a
# sweep leaves a cluster empty and takes the farthest-point repair.
REPAIR_CASES = (
    ([[0, 0], [11, 11], [10, 7], [2, 2], [11, 7], [3, 6], [7, 3], [2, 11], [9, 2],
      [10, 3], [9, 8]], 5, 309),
    ([[1], [0], [1], [6], [11], [9], [8], [1], [1], [9]], 3, 8268),
    ([[11, 4], [0, 10], [3, 4], [7, 11], [9, 4], [9, 5], [9, 1], [8, 4], [2, 11],
      [9, 8], [8, 5], [6, 1], [2, 4], [10, 2], [11, 9]], 9, 21690),
    ([[5, 3], [9, 11], [6, 6], [10, 6], [4, 5], [3, 5], [6, 11]], 3, 24925),
    ([[5, 4], [3, 7], [10, 8], [10, 8], [2, 5], [4, 8], [7, 2], [5, 3], [11, 11],
      [1, 5], [5, 1], [10, 6]], 5, 50053),
)


@st.composite
def repair_inputs(draw):
    """(X, k, seed): a REPAIR_CASES entry scaled by a power of two, shifted
    by an integer and padded with constant services up to 300 in a random
    order. None of these changes a ratio of two distances, so the draw
    still takes the repair."""
    rows, k, seed = draw(st.sampled_from(REPAIR_CASES))
    base = np.array(rows, dtype=float) * 2.0 ** draw(st.integers(-3, 6))
    S = draw(st.integers(base.shape[1], 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.empty((len(base), S))
    X[:] = rng.integers(0, 1000, size=S)
    X[:, :base.shape[1]] = base + draw(st.integers(0, 1000))
    return np.ascontiguousarray(X[:, rng.permutation(S)]), k, seed


@st.composite
def pruning_inputs(draw):
    """(X, k, seed): up to 120 patterns of 1 to 300 services, integer- or
    cent-valued, drawn around 1 to 15 modes that are well separated, that
    overlap, or that are a few rows repeated many times; modes may be
    constant (no noise) or single patterns, and some rows are all zero.
    k is at most 15 and at most the number of distinct rows. A quarter of
    the draws are repair_inputs instead."""
    kind = draw(st.sampled_from(["separated", "overlapping", "duplicates", "repair"]))
    if kind == "repair":
        return draw(repair_inputs())
    S = draw(st.one_of(st.integers(1, 20), st.integers(1, 300)))
    n = draw(st.integers(2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = draw(st.integers(1, 15))
    spread = {"separated": 1000, "overlapping": 40, "duplicates": 300}[kind]
    centers = rng.integers(0, spread, size=(modes, S)).astype(float)
    sigma = rng.choice([0.0, 1.0, 5.0, 20.0], size=modes) * (kind != "duplicates")
    members = rng.integers(0, modes, size=n)
    X = centers[members] + rng.normal(0.0, 1.0, size=(n, S)) * sigma[members, None]
    X = np.abs(np.round(X) if draw(st.booleans()) else np.round(X, 2))
    X[rng.integers(0, n, size=draw(st.integers(0, 2)))] = 0.0
    distinct = len(np.unique(X, axis=0))
    k = draw(st.integers(1, min(15, distinct)))
    return X, k, draw(st.integers(0, 2**16))


@st.composite
def grid_models(draw):
    """(X, model): 2 to 12 patterns on a small integer grid of 1 to 3
    services in 2 to 4 clusters whose centroids are any grid points, not
    their members' means. Points in line with a centroid make dunn's
    triangle-inequality bounds exact, so a bound any tighter than the
    inequality allows skips a pair that holds an extreme."""
    S = draw(st.integers(1, 3))
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 12))
    labels = draw(st.permutations(list(range(k)) + draw(
        st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))))
    grid = st.lists(st.integers(0, 8), min_size=S, max_size=S)
    X = np.array(draw(st.lists(grid, min_size=n, max_size=n)), dtype=float)
    centroids = np.array(draw(st.lists(grid, min_size=k, max_size=k)), dtype=float)
    return X, ClusterModel(k=k, centroids=centroids, assignments=np.array(labels))


class TestPruning:
    """The triangle-inequality pruning of Lloyd sweeps and of Dunn's
    separation against the unpruned computations, bytewise."""

    @settings(max_examples=300, deadline=None)
    @given(pruning_inputs())
    def test_lloyd_matches_full_sweeps(self, case):
        X, k, seed = case
        pruned, full = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            centers, labels, trace = clustering._lloyd(X, k, pruned)
            want_centers, want_labels, want_trace = full_sweep_lloyd(X, k, full)
            assert centers.tobytes() == want_centers.tobytes()
            assert labels.tobytes() == want_labels.tobytes()
            assert repr(trace) == repr(want_trace)

    @pytest.mark.parametrize("rows,k,seed", REPAIR_CASES)
    def test_repair_cases_take_the_repair(self, rows, k, seed, monkeypatch):
        # As in TestKMeansGolden, only the repair finds what it looks for
        # with np.flatnonzero.
        repairs = []
        flatnonzero = np.flatnonzero

        def counting(a):
            found = flatnonzero(a)
            repairs.extend(found[:1])
            return found

        monkeypatch.setattr(np, "flatnonzero", counting)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            clustering._lloyd(np.array(rows, dtype=float), k, rng)
        assert repairs

    @settings(max_examples=300, deadline=None)
    @given(pruning_inputs(), st.booleans())
    def test_dunn_matches_all_pairs(self, case, fitted):
        X, k, seed = case
        k = max(k, 2)
        assume(len(np.unique(X, axis=0)) >= 2)
        if fitted:
            model = kmeans(X, k, seed=seed)
        else:
            rng = np.random.default_rng(seed)
            k = min(k, len(X))
            labels = rng.permutation(np.concatenate(
                [np.arange(k), rng.integers(0, k, size=len(X) - k)]))
            model = ClusterModel(k=k, centroids=np.vstack([X[labels == c].mean(axis=0)
                                                           for c in range(k)]),
                                 assignments=labels)
        assert repr(dunn(model, X)) == repr(all_pairs_dunn(model, X))
        # These inputs fit DUNN_ALL_PAIRS; the pruned passes must agree too.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering, "DUNN_ALL_PAIRS", 0)
            assert repr(dunn(model, X)) == repr(all_pairs_dunn(model, X))

    @settings(max_examples=500, deadline=None)
    @given(grid_models(), st.sampled_from([1, 4, clustering.DUNN_BLOCK]))
    # Cluster 0's one member lies on cluster 1's centroid, so the pair's
    # separation, sqrt(17), equals its lower bound, 8% below the distance
    # that starts the search, sqrt(20): a visit that stopped short of the
    # separation found so far would miss it.
    @example((np.array([[5.0, 5.0], [5.0, 2.0], [1.0, 3.0]]),
              ClusterModel(k=2, centroids=np.array([[2.0, 7.0], [1.0, 3.0]]),
                           assignments=np.array([1, 1, 0]))), clustering.DUNN_BLOCK)
    def test_pruned_dunn_matches_all_pairs_for_any_centroids(self, case, block):
        # Tiles of one or four distances make the pruning act pair by pair.
        X, model = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering, "DUNN_ALL_PAIRS", 0)
            mp.setattr(clustering, "DUNN_BLOCK", block)
            assert repr(dunn(model, X)) == repr(all_pairs_dunn(model, X))

    @pytest.mark.usefixtures("serial")
    def test_sweeps_skip_most_distances(self, monkeypatch):
        # Unpruned, each restart computes its n x k k-means++ columns and then
        # one n x k matrix per sweep; pruned, it must compute at most half.
        X = build_scale_patterns()
        computed, unpruned = [0], [0]
        sq_dist, lloyd = clustering._sq_dist, clustering._lloyd

        def counting_sq_dist(XT, centers):
            computed[0] += XT.shape[1] * centers.shape[0]
            return sq_dist(XT, centers)

        def counting_lloyd(Xs, k, rng):
            out = lloyd(Xs, k, rng)
            unpruned[0] += len(Xs) * k * (1 + len(out[2]))
            return out

        monkeypatch.setattr(clustering, "_sq_dist", counting_sq_dist)
        monkeypatch.setattr(clustering, "_lloyd", counting_lloyd)
        select_k(X, (2, 15), seed=3)
        assert 0 < computed[0] <= unpruned[0] / 2


    def test_dunn_diameter_bound_covers_rounding(self, monkeypatch):
        # Cluster 1 is a pair whose computed distance exceeds twice its
        # computed radius by two ulps or more. Cluster 0, 8 away in service
        # 0, is a pair one ulp closer, exactly, along service 1: it has the
        # larger radius and a diameter between those two, so it is measured
        # first; an unwidened bound would then skip cluster 1.
        # Four patterns fit DUNN_ALL_PAIRS, which would measure every pair.
        monkeypatch.setattr(clustering, "DUNN_ALL_PAIRS", 0)

        def radius(b):
            # As dunn computes it: cdist's float for each member.
            return cdist(b, b.mean(axis=0)[None]).max()

        rng = np.random.default_rng(5)
        while True:
            pair = rng.uniform(0.0, 1.0, size=(2, 57))
            pair[:, 0] = 0.0
            diameter = pdist(pair)[0]
            if diameter - 2.0 * radius(pair) >= 2.0 * np.spacing(diameter):
                break
        wide = np.zeros((2, 57))
        wide[:, 0] = 8.0
        wide[1, 1] = np.nextafter(diameter, 0.0)
        X = np.vstack([wide, pair])
        labels = np.array([0, 0, 1, 1])
        model = ClusterModel(k=2, centroids=np.vstack([X[labels == c].mean(axis=0)
                                                       for c in range(2)]),
                             assignments=labels)
        assert radius(wide) > radius(pair)
        assert 2.0 * radius(pair) < pdist(wide).max() < diameter
        assert repr(dunn(model, X)) == repr(all_pairs_dunn(model, X))

    def test_dunn_measures_fewer_diameters(self, monkeypatch):
        # A kernel call between members of one cluster measures its
        # diameter. The rows of X are distinct, so each names its cluster.
        X = build_scale_patterns()
        model = kmeans(X, 10, seed=10)
        label_of = {row.tobytes(): c for row, c in zip(X, model.assignments)}
        measured, pairs = set(), [0]
        kernel = clustering._squared_distances

        def counted(A, B):
            out = kernel(A, B)
            labels = {label_of.get(p.tobytes())
                      for side in (A, B) for p in side.reshape(len(side), -1).T}
            if len(labels) == 1 and None not in labels:
                measured.update(labels)
                pairs[0] += out.size
            return out

        monkeypatch.setattr(clustering, "_squared_distances", counted)
        assert repr(dunn(model, X)) == repr(all_pairs_dunn(model, X))
        sizes = np.bincount(model.assignments)
        assert 0 < len(measured) < model.k
        assert 0 < pairs[0] < (sizes * (sizes - 1) // 2).sum() / 4

    @pytest.mark.usefixtures("serial")
    def test_dunn_computes_under_half_the_distances_at_build_scale(self, monkeypatch):
        # Pruning only whole clusters and cluster pairs, the Dunn indices of
        # this sweep computed 11,391,166 distances.
        computed = [0]
        kernel = clustering._squared_distances

        def counting(A, B):
            out = kernel(A, B)
            computed[0] += out.size
            return out

        monkeypatch.setattr(clustering, "_squared_distances", counting)
        select_k(build_scale_patterns(), (2, 15))
        assert 0 < computed[0] <= 11_391_166 / 2


@st.composite
def draw_weights(draw):
    """Nonnegative weights over up to 5000 items: with zeros, with a single
    nonzero weight, or all positive, at magnitudes from 1e-300 to 1e300."""
    n = draw(st.one_of(st.integers(1, 20), st.integers(1, 5000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["zeros", "single", "positive"]))
    w = rng.random(n) * 10.0 ** draw(st.integers(-300, 300))
    if kind == "zeros":
        w[rng.random(n) < draw(st.floats(0.0, 1.0))] = 0.0
    elif kind == "single":
        w[:] = 0.0
        w[rng.integers(n)] = draw(st.floats(1e-300, 1e300))
    if not w.any():
        w[-1] = 1.0
    return w, draw(st.integers(0, 2**32 - 1))


class TestWeightedDraw:
    @settings(max_examples=300, deadline=None)
    @given(draw_weights())
    def test_same_index_and_state_as_choice(self, case):
        w, seed = case
        probs = w / w.sum()
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert clustering._weighted_draw(probs, fast) == slow.choice(len(w), p=probs)
            assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("w", [[1.0, np.nan, 2.0], [0.0, 0.0], [1e308, 1e308]])
    def test_rejects_what_choice_rejects(self, w):
        with np.errstate(over="ignore", invalid="ignore"):
            probs = np.array(w) / np.array(w).sum()
        with pytest.raises(ValueError) as want:
            np.random.default_rng(0).choice(len(w), p=probs)
        with pytest.raises(ValueError) as got:
            clustering._weighted_draw(probs, np.random.default_rng(0))
        assert str(got.value) == str(want.value)


class TestAgglomerative:
    def test_merge_count(self):
        X, _, _ = planted_patterns(6, n=40)
        model, merges = ahc(X, 3)
        assert len(merges) == 39
        assert model.centroids.shape == (3, 5)

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
        X, _, _ = planted_patterns(9, n=50)
        _, merges = ahc(X, 5)
        d = [m[2] for m in merges]
        assert np.all(np.diff(d) >= -1e-12)

    def test_k_above_distinct_rejected(self):
        X = np.tile([3.0, 1.0], (5, 1))
        with pytest.raises(DegenerateModelError):
            ahc(X, 3)


class TestDaviesBouldin:
    def test_zero_scatter_singletons(self):
        X = np.array([[0.0, 0.0], [10.0, 0.0]])
        model = ClusterModel(k=2, centroids=X.copy(), assignments=np.array([0, 1]))
        assert davies_bouldin(model, X) == 0.0

    def test_needs_k_at_least_two(self):
        X = np.array([[0.0], [1.0]])
        model = ClusterModel(k=1, centroids=np.array([[0.5]]),
                             assignments=np.array([0, 0]))
        with pytest.raises(ValueError):
            davies_bouldin(model, X)

    def test_coincident_centroids_degenerate(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        model = ClusterModel(k=2, centroids=np.array([[0.5], [0.5]]),
                             assignments=np.array([0, 0, 1, 1]))
        with pytest.raises(DegenerateModelError):
            davies_bouldin(model, X)

    def test_lower_at_true_k(self):
        X, _, _ = planted_patterns(11)
        scores = {k: davies_bouldin(kmeans(X, k, seed=11), X) for k in (7, 10, 13)}
        assert scores[10] < scores[7]
        assert scores[10] < scores[13]


class TestDunn:
    def test_tight_singletons_infinite(self):
        X = np.array([[0.0, 0.0], [5.0, 5.0]])
        model = ClusterModel(k=2, centroids=X.copy(), assignments=np.array([0, 1]))
        assert dunn(model, X) == float("inf")

    def test_needs_k_at_least_two(self):
        X = np.array([[0.0], [1.0]])
        model = ClusterModel(k=1, centroids=np.array([[0.5]]),
                             assignments=np.array([0, 0]))
        with pytest.raises(ValueError):
            dunn(model, X)

    def test_diameter_dominated_by_spread_cluster(self):
        # One cluster holds two far points; its diameter sets the denominator.
        X = np.array([[0.0], [8.0], [100.0], [101.0]])
        model = ClusterModel(k=2, centroids=np.array([[4.0], [100.5]]),
                             assignments=np.array([0, 0, 1, 1]))
        value = dunn(model, X)
        assert value == pytest.approx((100.0 - 8.0) / 8.0)

    def test_higher_at_true_k(self):
        X, _, _ = planted_patterns(12)
        scores = {k: dunn(kmeans(X, k, seed=12), X) for k in (7, 10, 13)}
        assert scores[10] > scores[7]
        assert scores[10] > scores[13]

    @settings(max_examples=200, deadline=None)
    @given(labelled_patterns())
    def test_matches_scalar_oracle(self, case):
        X, labels, k = case
        model = ClusterModel(k=k, centroids=np.vstack([X[labels == c].mean(axis=0)
                                                       for c in range(k)]),
                             assignments=labels)
        diameter, separation = 0.0, math.inf
        for i in range(len(X)):
            for j in range(i + 1, len(X)):
                d = math.dist(X[i], X[j])
                if labels[i] == labels[j]:
                    diameter = max(diameter, d)
                else:
                    separation = min(separation, d)
        value = dunn(model, X)
        assert repr(value) == repr(all_pairs_dunn(model, X))
        if diameter == 0.0:
            assert value == math.inf
        else:
            oracle = separation / diameter
            assert abs(value - oracle) <= 1e-12 * max(1.0, abs(oracle))

    def test_memory_bounded_by_cluster_blocks(self):
        # The n x n x S difference tensor of 2000 x 5 patterns alone is 160 MB;
        # one 4000 x 4000 separation block of 8000 patterns is 128 MB. Tiles of
        # DUNN_BLOCK distances keep both well under one fixed bound.
        for n in (2000, 8000):
            rng = np.random.default_rng(0)
            X = rng.normal(100.0, 30.0, size=(n, 5))
            labels = rng.integers(0, 2, size=n)
            model = ClusterModel(k=2, centroids=np.vstack([X[labels == c].mean(axis=0)
                                                           for c in range(2)]),
                                 assignments=labels)
            tracemalloc.start()
            try:
                dunn(model, X)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, n

    def test_tiles_match_all_pairs_on_clusters_beyond_one_block(self, monkeypatch):
        # Integer rows repeat within each cluster; the label shift keeps the
        # clusters apart. Every cluster exceeds one tile per diameter and per
        # separation; blocks smaller than a cluster also slice columns. The
        # smaller two fit DUNN_ALL_PAIRS, which would measure every pair.
        monkeypatch.setattr(clustering, "DUNN_ALL_PAIRS", 0)
        for n, block in ((900, clustering.DUNN_BLOCK), (60, 7), (40, 1)):
            monkeypatch.setattr(clustering, "DUNN_BLOCK", block)
            rng = np.random.default_rng(n)
            labels = rng.integers(0, 3, size=n)
            X = (rng.integers(0, 6, size=(n, 3)) + 4 * labels[:, None]).astype(float)
            assert len(np.unique(X, axis=0)) < n
            model = ClusterModel(k=3, centroids=np.vstack([X[labels == c].mean(axis=0)
                                                           for c in range(3)]),
                                 assignments=labels)
            assert min(np.bincount(labels)) ** 2 > block
            assert repr(dunn(model, X)) == repr(all_pairs_dunn(model, X)), (n, block)


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

    def test_sweep_stops_at_distinct_pattern_count(self):
        X, _, _ = planted_patterns(17, n=5)
        X = np.tile(X, (20, 1))
        model, rows = select_k(X, (2, 15), seed=0)
        assert [r[0] for r in rows] == [2, 3, 4, 5]
        assert model.k <= 5
        with pytest.raises(DegenerateModelError):
            select_k(X, (6, 15), seed=0)


def model_bytes(model):
    """Everything a fitted model holds, as bytes to compare bitwise."""
    return (model.k, model.centroids.tobytes(), model.assignments.tobytes(),
            repr(model.objective_trace))


def screened_model(X, k, seed):
    """The model four _lloyd restarts from default_rng(seed) fit on X's
    canonical order, as kmeans(X, k, seed) runs them: the lowest final
    objective wins, the earliest on a tie."""
    order, Xs, _ = clustering._canonical_order(X)
    rng = np.random.default_rng(seed)
    fits = [clustering._lloyd(Xs, k, rng) for _ in range(4)]
    centers, labels, trace = min(fits, key=lambda fit: fit[2][-1])
    assignments = np.empty(len(X), dtype=np.int64)
    assignments[order] = labels
    return ClusterModel(k=k, centroids=centers, assignments=assignments,
                        objective_trace=tuple(trace))


@st.composite
def sweep_inputs(draw):
    """(X, k_range, seed): pruning_inputs' patterns, at least three of
    them and two distinct, with a range of up to five ks within [2, n - 1]
    that starts at or below the number of distinct patterns."""
    X, _, seed = draw(pruning_inputs())
    distinct = len(np.unique(X, axis=0))
    assume(len(X) >= 3 and distinct >= 2)
    lo = draw(st.integers(2, min(len(X) - 1, distinct)))
    return X, (lo, draw(st.integers(lo, min(len(X) - 1, lo + 4)))), seed


class TestScreenThenRefit:
    """select_k fits each k once, on four restarts, and returns the chosen
    k's model as it scored it, on one process and on two alike."""

    @staticmethod
    def check(X, k_range, seed):
        runs = []
        for cpus in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(parallel, "_usable_cpus", lambda: cpus)
                runs.append(select_k(X, k_range, seed=seed))
        (model, rows), (split_model, split_rows) = runs
        assert (model_bytes(split_model), repr(split_rows)) == (model_bytes(model), repr(rows))
        assert model_bytes(model) == model_bytes(kmeans(X, model.k, seed=seed + model.k))
        scored = (model.k, davies_bouldin(model, X), dunn(model, X))
        assert repr(scored) == repr(next(row for row in rows if row[0] == model.k))
        for k, db, dn in rows:
            screened = screened_model(X, k, seed + k)
            assert repr((db, dn)) == repr((davies_bouldin(screened, X), dunn(screened, X)))
        assert model.k == min(rows, key=lambda row: (row[1], -row[2], row[0]))[0]

    @settings(max_examples=60, deadline=None)
    @given(sweep_inputs())
    def test_small_sweeps(self, case):
        X, k_range, seed = case
        try:
            select_k(X, k_range, seed=seed)
        except DegenerateModelError:
            assume(False)
        self.check(X, k_range, seed)

    @pytest.mark.parametrize("S", sorted(TestKMeansGolden.GOLDEN))
    def test_golden_sweeps(self, S):
        self.check(golden_patterns(S), (2, 9), S)

    def test_golden_sweeps_at_build_scale(self):
        self.check(build_scale_patterns(), (2, 15), 3)

    def test_duplicate_heavy_sweep(self):
        self.check(DUPLICATE_HEAVY, (2, 7), 1364)


class TestCsvWriters:
    def test_index_table_format(self, tmp_path):
        path = tmp_path / "index.csv"
        save_index_table([(2, 1.25, 0.5), (3, 0.75, 1.5)], path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "k,davies_bouldin,dunn"
        assert lines[1] == "2,1.25,0.5"

    def test_dendrogram_format(self, tmp_path):
        X = np.array([[0.0], [1.0], [10.0]])
        _, merges = ahc(X, 2)
        path = tmp_path / "dendro.csv"
        save_dendrogram(merges, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,cluster_a,cluster_b,distance"
        assert len(lines) == 3
