"""Cluster demand patterns and pick a cluster count.

K-means is implemented here directly (Lloyd iterations over numpy arrays)
because the rest of the system depends on behavior a library call does not
expose: a per-iteration objective trace, deterministic farthest-point
repair of empty clusters, and a seeded initialization that is invariant to
input ordering. Agglomerative clustering delegates the tree construction
to scipy and exposes the merge list for dendrogram plotting; scipy's
linkage holds all n(n-1)/2 pairwise distances, so only the CLI's build
runs it, not build_offline.

Clustering runs on raw (unnormalized) pattern values: magnitudes carry the
machine-count signal, so scaling the data away would destroy exactly what
the downstream packing step needs.

Each Lloyd sweep works service-major, on the transposed (S, n) patterns:
point-to-centroid distances are summed over the S service planes in the
order numpy's own last-axis sum uses, and centroids are per-service
bincount sums in member order, so the fitted models are bit for bit those
of the plain broadcast-and-mask formulas (see _lloyd).

The Dunn index reads its distances in tiles of at most DUNN_BLOCK, so its
memory stays fixed however many patterns a cluster holds.

Both skip work the triangle inequality proves cannot matter (Hamerly,
"Making k-means even faster", SDM 2010, after Elkan, ICML 2003). A Lloyd
sweep computes distances only for points whose bounds leave their label
in doubt, and Dunn compares only the cluster pairs whose centroid
distance, less both radii, does not exceed the separation found so far,
and measures only the clusters whose doubled radius reaches the largest
diameter found so far.
Every bound is widened by BOUND_MARGIN beyond the rounding of the
distances it stands for, so a skipped point's label and Dunn's minimum
are those of the full computation bit for bit (see _lloyd and dunn).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.cluster.hierarchy import fcluster
from scipy.cluster.hierarchy import linkage as scipy_linkage
from scipy.spatial.distance import cdist

from .parallel import split_map
from .validation import as_float_matrix

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300
# Relative widening of the triangle-inequality bounds of _lloyd and dunn;
# the absolute one is this times (sqrt(S) * largest |value| + 1) for S
# services.
BOUND_MARGIN = 1e-9
# Most distances one cdist call of dunn returns: a 512-KB tile, which its
# max or min reads back from cache.
DUNN_BLOCK = 1 << 16


class DegenerateModelError(ValueError):
    """Clustering cannot produce a usable model (coincident centroids,
    fewer distinct patterns than clusters, ...)."""


@dataclass(frozen=True)
class Dendrogram:
    """Agglomeration record: (cluster_a, cluster_b, distance) per merge.

    Indices follow the usual convention: 0..n-1 are the input patterns,
    n+i is the cluster created by merge i. n inputs yield n-1 merges.
    """

    merges: tuple


@dataclass(frozen=True)
class ClusterModel:
    """A fitted clustering: centroids are the representative patterns.

    Labels are arbitrary; anything consuming a model must not depend on
    their order. A model carries no validity scores: select_k computes
    them with davies_bouldin and dunn.
    """

    k: int
    centroids: np.ndarray
    assignments: np.ndarray
    objective_trace: tuple = field(default=(), compare=False)

    def __post_init__(self):
        counts = np.bincount(self.assignments, minlength=self.k)
        if self.assignments.max(initial=0) >= self.k or np.any(counts == 0):
            raise ValueError("every cluster must be nonempty and labels < k")


def _canonical_order(X: np.ndarray):
    """(order, sorted rows, distinct-row count) of X.

    Lexicographic row order; running on sorted rows makes the seeded
    pipeline invariant to how the caller happened to order the input.
    Equal rows sit next to each other once sorted, so the distinct rows
    are the first row plus every row that differs from its predecessor.
    """
    order = np.lexsort(X.T[::-1])
    Xs = X[order]
    distinct = int((Xs[1:] != Xs[:-1]).any(axis=1).sum()) + 1 if len(Xs) else 0
    return order, Xs, distinct


def _plane_sum(t: np.ndarray) -> np.ndarray:
    """Sum of t over axis 0, overwriting t, in the order of numpy's
    pairwise_sum (what a contiguous last-axis .sum() does per element):
    sequential below 8 terms, eight interleaved accumulators up to 128,
    and halves at a multiple of 8 above that."""
    S = t.shape[0]
    if S < 8:
        for s in range(1, S):
            t[0] += t[s]
        return t[0]
    if S <= 128:
        r = t[:8]
        end = S - S % 8
        for i in range(8, end, 8):
            r += t[i:i + 8]
        r[0::2] += r[1::2]
        r[0::4] += r[2::4]
        r[0] += r[4]
        for s in range(end, S):
            r[0] += t[s]
        return r[0]
    half = S // 2 - S // 2 % 8
    out = _plane_sum(t[:half])
    out += _plane_sum(t[half:])
    return out


def _sq_dist(XT: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared distances from the (S, n) service-major patterns XT to
    the (k, S) centers, bit-equal to
    ((XT.T[:, None, :] - centers[None]) ** 2).sum(axis=2)."""
    t = XT[:, :, None] - centers.T[:, None, :]
    np.square(t, out=t)
    return _plane_sum(t)


def _centroids(Xs: np.ndarray, XT: np.ndarray, labels: np.ndarray,
               sizes: np.ndarray) -> np.ndarray:
    """(k, S) member means, bit-equal to Xs[labels == c].mean(axis=0) for
    each cluster c of sizes[c] > 0 members."""
    k = sizes.shape[0]
    if XT.shape[0] == 1:
        # An (m, 1) mean sums its members pairwise, which bincount does not.
        return np.vstack([Xs[labels == c].mean(axis=0) for c in range(k)])
    centers = np.empty((k, XT.shape[0]))
    for s, row in enumerate(XT):
        centers[:, s] = np.bincount(labels, weights=row, minlength=k)
    centers /= sizes[:, None]
    return centers


def _weighted_draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """rng.choice(len(probs), p=probs) for nonnegative probs: the same index
    from the same single rng.random() draw, by choice's own cumsum and
    searchsorted. choice's argument checks are skipped when the cumulative
    sum is within 1e-8 of 1, where all of them pass; otherwise (NaN, or a
    sum of squared distances that overflowed) choice itself runs, so it
    raises or draws as before."""
    cdf = probs.cumsum()
    if not abs(cdf[-1] - 1.0) <= 1e-8:
        return int(rng.choice(len(probs), p=probs))
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeans_pp_init(X: np.ndarray, XT: np.ndarray, k: int,
                    rng: np.random.Generator):
    """(centers, d2): k seeds drawn by k-means++ and the (n, k) squared
    distances to them, column j the _sq_dist column of center j."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    d2 = np.empty((k, n))
    centers[0] = X[rng.integers(n)]
    d2[0] = _sq_dist(XT, centers[:1])[:, 0]
    nearest = d2[0]
    for j in range(1, k):
        centers[j] = X[_weighted_draw(nearest / nearest.sum(), rng)]
        d2[j] = _sq_dist(XT, centers[j:j + 1])[:, 0]
        nearest = np.minimum(nearest, d2[j])
    return centers, d2.T


def _lower_bound(d2: np.ndarray, labels: np.ndarray, pad: float) -> np.ndarray:
    """Per row of the squared distances d2, a widened lower bound on the
    distance to every center but its own (inf for k = 1); overwrites d2."""
    d2[np.arange(len(labels)), labels] = np.inf
    return np.sqrt(d2.min(axis=1)) * (1.0 - BOUND_MARGIN) - pad


def _lloyd(Xs: np.ndarray, k: int, rng: np.random.Generator):
    """One restart: (centers, labels, within-cluster sum of squares per sweep).

    Summation order is part of the contract. Distances come from
    _sq_dist, whose sum over services follows numpy's pairwise order for
    each point and center, as a broadcast .sum(axis=2) does. Centroids come
    from _centroids: one bincount per service sums the members in row
    order, the sequential sum Xs[labels == c].mean(axis=0) computes for
    two or more services, and divides by the member count; a
    single-service mean sums its members pairwise instead, so that case
    keeps the masked mean. Keep both orders when rewriting this function;
    the fixed-seed select_k outputs pinned in tests/test_clustering.py
    depend on them bit for bit.

    A sweep computes distances only for the points whose label can change
    (Hamerly 2010). Each point has an upper bound on the distance to its
    own center and a lower bound on its distance to every other center.
    The upper bound is the root of the objective line's squared distance
    to the point's own updated center, so no shift has to be added to it.
    The lower bound comes from the point's last computed distance row and
    drops, after each centroid update, by the largest move of another
    center. A point gets a _sq_dist row only when its bounds overlap; the
    first sweep takes its whole matrix from the k-means++ columns, which
    are the same floats.

    Every bound and every move is widened where it is computed, by
    BOUND_MARGIN relative plus BOUND_MARGIN * (sqrt(S) * largest |pattern
    value| + 1) absolute. That exceeds the rounding of an S-term sum of
    squares (about S ulps) and of one bound operation (an ulp of the
    largest distance, 2 * sqrt(S) * largest value) for S below a million.
    A skipped point is thus nearer its own center than any other by more
    than any computed distance can be off, so the full matrix's argmin,
    ties going to the first center, would give it the label it keeps, and
    a tie is never skipped. A sweep that leaves a cluster empty computes
    the full matrix, repairs it as before and restarts the bounds from it.
    """
    XT = np.ascontiguousarray(Xs.T)
    n, S = Xs.shape
    centers, d2 = _kmeans_pp_init(Xs, XT, k, rng)
    widen = 1.0 + BOUND_MARGIN
    pad = BOUND_MARGIN * (np.sqrt(S) * float(np.abs(Xs).max()) + 1.0)
    labels = np.full(n, -1)
    trace = []
    for _ in range(KMEANS_MAX_ITER):
        if d2 is None:
            new_labels = labels.copy()
            near = np.nonzero(upper >= lower)[0]
            if near.size:
                d2_near = _sq_dist(XT.take(near, axis=1), centers)
                new_labels[near] = d2_near.argmin(axis=1)
                lower[near] = _lower_bound(d2_near, new_labels[near], pad)
            sizes = np.bincount(new_labels, minlength=k)
            if sizes.min() == 0:
                d2 = _sq_dist(XT, centers)
        if d2 is not None:
            new_labels = d2.argmin(axis=1)

            # Repair empty clusters by reseeding each from the point farthest
            # from its own centroid; sole members stay put so a repair cannot
            # empty another cluster.
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
                d2[:, c] = _sq_dist(XT, centers[c:c + 1])[:, 0]
            lower = _lower_bound(d2, new_labels, pad)
            d2 = None

        converged = np.array_equal(new_labels, labels)
        labels = new_labels
        moved_from = centers
        centers = _centroids(Xs, XT, labels, sizes)
        t = XT - centers.T.take(labels, axis=1)
        np.square(t, out=t)
        d2_final = _plane_sum(t)
        trace.append(float(d2_final.sum()))
        if converged:
            break
        upper = np.sqrt(d2_final) * widen + pad
        shift = np.sqrt(((centers - moved_from) ** 2).sum(axis=1)) * widen + pad
        # The largest move of another center: the runner-up move for the
        # members of the fastest center (inf - shift stays inf for k = 1).
        top = np.sort(shift)[-2:]
        lower -= np.where(shift == top[-1], top[0], top[-1])[labels]
    return centers, labels, trace


def _check_k(k: int, distinct: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > distinct:
        raise DegenerateModelError(f"k={k} exceeds the {distinct} distinct pattern(s)")


def davies_bouldin(model: ClusterModel, patterns) -> float:
    """Scatter/separation ratio, averaged over clusters; lower is better.

    Per-cluster scatter is the mean member-to-centroid Euclidean distance;
    separation is the centroid distance. Coincident centroids make the
    ratio undefined and raise DegenerateModelError.
    """
    X = as_float_matrix(patterns, "patterns")
    if model.k < 2:
        raise ValueError("index needs k >= 2")
    centroids = model.centroids
    scatter = np.array(
        [
            np.linalg.norm(X[model.assignments == c] - centroids[c], axis=1).mean()
            for c in range(model.k)
        ]
    )
    sep = np.linalg.norm(centroids[:, None, :] - centroids[None, :, :], axis=2)
    off_diag = sep[~np.eye(model.k, dtype=bool)]
    if np.min(off_diag) < 1e-12:
        raise DegenerateModelError(f"k={model.k}: coincident centroids")
    ratio = (scatter[:, None] + scatter[None, :]) / np.where(sep > 0, sep, np.inf)
    np.fill_diagonal(ratio, -np.inf)
    return float(ratio.max(axis=1).mean())


def _cdist_tiles(A: np.ndarray, B: np.ndarray, triangle: bool = False):
    """cdist(A, B) as tiles of at most DUNN_BLOCK distances: row slices of A
    against column slices of B. With triangle (A is B), a row slice starting
    at row i meets only the columns from i on, which still holds every pair
    of distinct rows once. Each distance is the float that cdist or pdist
    computes for that pair in either order, as (a - b)**2 == (b - a)**2
    exactly."""
    cols = min(len(B), DUNN_BLOCK)
    rows = max(1, DUNN_BLOCK // cols)
    for i in range(0, len(A), rows):
        for j in range(i if triangle else 0, len(B), cols):
            yield cdist(A[i:i + rows], B[j:j + cols])


def dunn(model: ClusterModel, patterns) -> float:
    """Separation/diameter ratio; higher is better.

    Separation is the single-linkage (minimum cross-pair) distance between
    clusters; diameter is the maximum intra-cluster pairwise distance.
    All-singleton models have zero diameters and return +inf.

    Both passes skip work the triangle inequality proves cannot matter.
    Each cluster's radius is its largest member-to-centroid distance; twice
    it bounds the cluster's diameter. Clusters are visited in descending
    order of that bound, and the visit stops once it falls below the
    largest diameter found. Cluster pairs are visited in ascending order
    of a lower bound on their separation, the distance between their
    centroids less both radii, and the visit stops once the next bound
    exceeds the smallest separation found. Radii are widened and centroid
    distances narrowed by BOUND_MARGIN relative and BOUND_MARGIN *
    (sqrt(S) * largest |value| + 1) absolute, more than the rounding of
    any computed distance, so a skipped cluster's diameter is at most the
    largest diameter found and a skipped pair's separation at least the
    smallest separation found. The visited values are the ones the
    all-pairs computation takes, so both extremes, and the index, are
    returned bit for bit.

    Each diameter and each separation is read through _cdist_tiles, so
    memory holds at most DUNN_BLOCK distances at a time, whatever the
    cluster sizes.
    """
    X = as_float_matrix(patterns, "patterns")
    if model.k < 2:
        raise ValueError("index needs k >= 2")
    blocks = [X[model.assignments == c] for c in range(model.k)]
    centroids = model.centroids
    scale = max(np.abs(X).max(), np.abs(centroids).max())
    pad = BOUND_MARGIN * (np.sqrt(X.shape[1]) * scale + 1.0)
    radius = np.array([np.sqrt(((b - c) ** 2).sum(axis=1)).max()
                       for b, c in zip(blocks, centroids)]) * (1.0 + BOUND_MARGIN) + pad
    max_diameter = 0.0
    for c in np.argsort(-radius, kind="stable"):
        if 2.0 * radius[c] < max_diameter:
            break
        tiles = _cdist_tiles(blocks[c], blocks[c], triangle=True)
        max_diameter = max(max_diameter, *(t.max() for t in tiles))
    first, second = np.triu_indices(model.k, 1)
    bound = (cdist(centroids, centroids)[first, second] * (1.0 - BOUND_MARGIN) - pad
             - radius[first] - radius[second])
    min_separation = math.inf
    for p in np.argsort(bound, kind="stable"):
        if bound[p] > min_separation:
            break
        tiles = _cdist_tiles(blocks[first[p]], blocks[second[p]])
        min_separation = min(min_separation, *(t.min() for t in tiles))
    if max_diameter == 0.0:
        return float("inf")
    return float(min_separation / max_diameter)


def kmeans(patterns, k: int, seed: int = 0, *, canonical=None) -> ClusterModel:
    """Seeded Lloyd's k-means; the model is unscored (see select_k).

    Each of KMEANS_RESTARTS restarts runs to convergence (no reassignments)
    or KMEANS_MAX_ITER sweeps from a fresh k-means++ initialization; the
    restart with the lowest within-cluster sum of squares wins, and its
    per-sweep objective is the model's objective_trace. Empty clusters are
    repaired by reseeding from the point currently farthest from its
    centroid. Deterministic given (data multiset, k, seed).

    canonical is internal: select_k passes _canonical_order(patterns),
    which it computes once for every k of its sweep. Any other value
    clusters the wrong rows; one of the wrong length is refused.
    """
    X = as_float_matrix(patterns, "patterns")
    order, Xs, distinct = canonical or _canonical_order(X)
    if len(order) != len(X):
        raise ValueError(f"canonical order has {len(order)} rows, patterns have {len(X)}")
    _check_k(k, distinct)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(KMEANS_RESTARTS):
        centers, labels, trace = _lloyd(Xs, k, rng)
        if best is None or trace[-1] < best[2][-1]:
            best = (centers, labels, trace)
    centers, labels, trace = best
    assignments = np.empty(X.shape[0], dtype=np.int64)
    assignments[order] = labels
    return ClusterModel(k=k, centroids=centers, assignments=assignments,
                        objective_trace=tuple(trace))


def ahc(patterns, k: int) -> tuple[ClusterModel, Dendrogram]:
    """Bottom-up hierarchical clustering cut at k; returns (model, dendrogram).

    The agglomeration itself comes from scipy, always with Ward linkage,
    which merges the pair that least raises the within-cluster sum of
    squares k-means minimizes; centroids are member means of the cut
    clusters. The full merge list is kept as a Dendrogram for plotting.
    """
    X = as_float_matrix(patterns, "patterns")
    order, Xs, distinct = _canonical_order(X)
    _check_k(k, distinct)
    Z = scipy_linkage(Xs, method="ward")
    labels = fcluster(Z, t=k, criterion="maxclust") - 1
    if np.unique(labels).shape[0] != k:
        raise DegenerateModelError(f"cutting the tree produced fewer than {k} clusters")
    # Relabel by first appearance in canonical order so labels are stable.
    remap = {}
    for lab in labels:
        if lab not in remap:
            remap[lab] = len(remap)
    labels = np.array([remap[lab] for lab in labels])

    assignments = np.empty(X.shape[0], dtype=np.int64)
    assignments[order] = labels
    model = ClusterModel(
        k=k,
        centroids=np.vstack([Xs[labels == c].mean(axis=0) for c in range(k)]),
        assignments=assignments,
    )
    dendrogram = Dendrogram(merges=tuple((int(a), int(b), float(d)) for a, b, d, _ in Z))
    return model, dendrogram


def save_index_table(rows, path) -> None:
    """Write the per-k validity scores as `k,davies_bouldin,dunn` CSV."""
    lines = ["k,davies_bouldin,dunn"]
    for k, db, dn in rows:
        lines.append(f"{k},{db:.6g},{dn:.6g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_dendrogram(dendrogram: Dendrogram, path) -> None:
    """Write the merge list as CSV for external plotting."""
    lines = ["step,cluster_a,cluster_b,distance"]
    for i, (a, b, dist) in enumerate(dendrogram.merges):
        lines.append(f"{i},{a},{b},{dist:.6g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def select_k(patterns, k_range, seed: int = 0):
    """Sweep cluster counts; the only code that scores a clustering.

    k_range is an inclusive (lo, hi) pair; the sweep stops at the number
    of distinct patterns, and fewer distinct patterns than lo raise
    DegenerateModelError. Each k runs k-means with seed seed+k and scores
    it with davies_bouldin and dunn; coincident centroids at any k raise
    DegenerateModelError. Best k minimizes the Davies-Bouldin index; ties
    go to the larger Dunn index, then the smaller k. Returns
    (best_model, rows): the fitted k-means model of the best k, and
    (k, davies_bouldin, dunn) rows for reporting.

    The ks are independent jobs, spread over the usable CPUs by
    split_map; each returns its model's arrays, and only the best k's
    become a ClusterModel, here. The error a failing k raises is the
    lowest failing k's, as in a serial sweep.
    """
    X = as_float_matrix(patterns, "patterns")
    lo, hi = int(k_range[0]), int(k_range[1])
    if lo > hi:
        raise ValueError(f"empty k range [{lo}, {hi}]")
    n = X.shape[0]
    if lo < 2 or hi > n - 1:
        raise ValueError(f"k range [{lo}, {hi}] must lie within [2, {n - 1}]")

    canonical = _canonical_order(X)
    distinct = canonical[2]
    _check_k(lo, distinct)
    hi = min(hi, distinct)

    def fit(k):
        model = kmeans(X, k, seed=seed + k, canonical=canonical)
        return ((k, davies_bouldin(model, X), dunn(model, X)),
                (model.centroids, model.assignments, model.objective_trace))

    fits = split_map(fit, range(lo, hi + 1))
    (k, _, _), (centroids, assignments, trace) = min(
        fits, key=lambda f: (f[0][1], -f[0][2], f[0][0]))
    model = ClusterModel(k=k, centroids=centroids, assignments=assignments,
                         objective_trace=trace)
    return model, [row for row, _ in fits]
