"""Cluster demand patterns and pick a cluster count.

K-means is implemented here directly (Lloyd iterations over numpy arrays)
because the rest of the system depends on behavior a library call does not
expose: a per-iteration objective trace, deterministic farthest-point
repair of empty clusters, and a seeded initialization that is invariant to
input ordering. Agglomerative clustering delegates the tree construction
to scipy and exposes the merge list for dendrogram plotting; scipy's
linkage holds all n(n-1)/2 pairwise distances, so only the CLI's build
runs it, not build_offline, and only ahc imports scipy: the rest of the
module, and of the library, needs numpy alone.

select_k fits every k of its sweep once, with kmeans's KMEANS_RESTARTS
seeded restarts, scores each model, and returns the chosen k's model as
it scored it.

Clustering runs on raw (unnormalized) pattern values: magnitudes carry the
machine-count signal, so scaling the data away would destroy exactly what
the downstream packing step needs.

Each Lloyd sweep works service-major, on the transposed (S, n) patterns:
point-to-centroid distances are summed over the S service planes in the
order numpy's own last-axis sum uses, and centroids are per-service
bincount sums in member order, so the fitted models are bit for bit those
of the plain broadcast-and-mask formulas (see _lloyd).

The Dunn index computes its distances with its own service-major kernel,
_squared_distances, which sums the services in the order scipy's cdist
does, so each distance is cdist's float. It computes them in tiles of at
most DUNN_BLOCK, so its memory stays fixed however many patterns a cluster
holds.

Both skip work the triangle inequality proves cannot matter (Hamerly,
"Making k-means even faster", SDM 2010, after Elkan, ICML 2003). A Lloyd
sweep computes distances only for points whose bounds leave their label
in doubt. Dunn measures only the member pairs whose distances to the
centroids leave it in doubt whether they could hold the largest diameter
or the smallest separation.
Every bound is widened by BOUND_MARGIN beyond the rounding of the
distances it stands for, so a skipped point's label and Dunn's extremes
are those of the full computation bit for bit (see _lloyd and dunn).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .parallel import split_map
from .validation import as_float_matrix

KMEANS_RESTARTS = 4
KMEANS_MAX_ITER = 300
# Relative widening of the triangle-inequality bounds of _lloyd and dunn;
# the absolute one is this times (sqrt(S) * largest |value| + 1) for S
# services.
BOUND_MARGIN = 1e-9
# Most distances one call of dunn's kernel computes: a 128-KB tile, which
# its additions, max and min read back from cache.
DUNN_BLOCK = 1 << 14
# The most patterns for which dunn measures every pair, in one tile of
# DUNN_BLOCK distances: up to it, the pruning's per-cluster work costs more
# than the distances it saves.
DUNN_ALL_PAIRS = math.isqrt(DUNN_BLOCK)


class DegenerateModelError(ValueError):
    """Clustering cannot produce a usable model (coincident centroids,
    fewer distinct patterns than clusters, ...)."""


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


def _squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the service-major points A and
    B, each of S rows that broadcast against each other: for (S, m) AT and
    (S, n) BT, np.sqrt(_squared_distances(AT[:, :, None], BT[:, None, :]))
    is bit-equal to cdist(AT.T, BT.T), and _squared_distances(AT, BT) gives
    its diagonal for m = n. The squared differences are added service by
    service from service 0, the order scipy's cdist sums them in; _sq_dist
    follows numpy's pairwise order instead, which differs from 8 services
    on. A root is monotone, so an extreme of the roots is the root of the
    extreme, and dunn roots only its extremes."""
    acc = np.subtract(A[0], B[0])
    np.square(acc, out=acc)
    if len(A) > 1:
        t = np.empty_like(acc)
        for a, b in zip(A[1:], B[1:]):
            np.subtract(a, b, out=t)
            np.square(t, out=t)
            acc += t
    return acc


def _tile_shape(n: int) -> tuple[int, int]:
    """(rows, cols) of the tiles that cover a block of n columns with at
    most DUNN_BLOCK distances each: up to DUNN_BLOCK // 16 columns, and as
    many rows as then fit."""
    cols = max(1, min(n, DUNN_BLOCK // 16))
    return max(1, DUNN_BLOCK // cols), cols


def _tiles(AT: np.ndarray, BT: np.ndarray):
    """The squared distances between the columns of AT and those of BT, as
    tiles of _tile_shape."""
    rows, cols = _tile_shape(BT.shape[1])
    for i in range(0, AT.shape[1], rows):
        for j in range(0, BT.shape[1], cols):
            yield _squared_distances(AT[:, i:i + rows, None], BT[:, None, j:j + cols])


def _max_diameter(XT, starts, ends, reach, radius) -> float:
    """The largest distance between two members of one cluster, the members
    of cluster c being the columns starts[c]:ends[c] of XT; reach holds
    each member's widened distance to its centroid, radius each cluster's
    largest reach."""
    top = 0.0
    for c in np.argsort(-radius, kind="stable"):
        if 2.0 * radius[c] < np.sqrt(top):
            break
        s, e = starts[c], ends[c]
        members = s + np.argsort(-reach[s:e], kind="stable")
        KT, r = XT[:, members], reach[members]
        top = max(top, *(t.max() for t in _tiles(KT[:, :1], KT)))
        rows, cols = _tile_shape(len(r))
        for i in range(0, len(r), rows):
            # Only the members j with r_i + r_j >= L can pair with row i
            # to exceed L, and r is sorted, so they are the first ones.
            end = np.searchsorted(-r, r[i] - np.sqrt(top), side="right")
            if end <= i:
                break
            for j in range(i, end, cols):
                top = max(top, _squared_distances(KT[:, i:i + rows, None],
                                                  KT[:, None, j:min(j + cols, end)]).max())
    return np.sqrt(top)


def _min_separation(XT, starts, ends, lower, upper) -> float:
    """The smallest distance between members of two different clusters,
    laid out as for _max_diameter; lower and upper hold each member's
    narrowed and widened distances to the k centroids."""
    k = len(starts)
    # nearest[a, b]: the member of a nearest b's centroid. The distances
    # between nearest[a, b] and nearest[b, a] are ones between clusters,
    # found at the cost of one per cluster pair.
    nearest = np.vstack([s + lower[s:e].argmin(axis=0) for s, e in zip(starts, ends)])
    first, second = np.triu_indices(k, 1)
    low = _squared_distances(XT[:, nearest[first, second]], XT[:, nearest[second, first]]).min()
    box_lo = np.minimum.reduceat(lower, starts)
    box_hi = np.maximum.reduceat(upper, starts)
    bound = np.maximum(box_lo[first] - box_hi[second],
                       box_lo[second] - box_hi[first]).max(axis=1)

    def near(members, lo, hi):
        # The members that may lie within the separation found so far of
        # a point whose centroid distances all lie in [lo, hi].
        u = np.sqrt(low)
        return members[((lower[members] <= hi + u) & (upper[members] >= lo - u)).all(axis=1)]

    for p in np.argsort(bound, kind="stable"):
        if bound[p] > np.sqrt(low):
            break
        a, b = first[p], second[p]
        in_a = near(np.arange(starts[a], ends[a]), box_lo[b], box_hi[b])
        if in_a.size:
            in_b = near(np.arange(starts[b], ends[b]),
                        lower[in_a].min(axis=0), upper[in_a].max(axis=0))
            if in_b.size:
                low = min(low, *(t.min() for t in _tiles(XT[:, in_a], XT[:, in_b])))
    return np.sqrt(low)


def dunn(model: ClusterModel, patterns) -> float:
    """Separation/diameter ratio; higher is better.

    Separation is the single-linkage (minimum cross-pair) distance between
    clusters; diameter is the maximum intra-cluster pairwise distance.
    All-singleton models have zero diameters and return +inf.

    Every distance comes from _squared_distances, whose roots are the
    floats scipy's cdist computes. Up to DUNN_ALL_PAIRS patterns, dunn
    measures every pair. Above, it computes every member's distances to
    the k centroids once, and then measures only the member pairs the
    triangle inequality leaves in doubt.
    - Diameter: clusters are visited in descending order of radius (the
      largest member-to-centroid distance), and the visit stops once twice
      the radius falls below the largest diameter L found. A visited
      cluster first measures its member farthest from its centroid against
      the others. Then, in descending order of their distances r to the
      centroid, it measures only the tiles of member pairs whose largest
      r_i + r_j reaches L, as d(i, j) <= r_i + r_j.
    - Separation: d(i, j) >= |d(i, c) - d(j, c)| for every centroid c, so
      a member of cluster a can lie within the separation found so far,
      U, of a member of b only if each of its centroid distances lies
      within U of the range of b's; b's members are then kept against the
      range of a's kept members. Cluster pairs are visited in ascending
      order of the largest gap between their two ranges, a lower bound on
      their separation, and the visit stops once it exceeds U. U starts at
      the smallest distance between each pair's members nearest the
      other's centroid.
    Every centroid distance is widened for an upper bound and narrowed for
    a lower one by BOUND_MARGIN relative and BOUND_MARGIN * (sqrt(S) *
    largest |value| + 1) absolute, more than the rounding of any computed
    distance, so a skipped pair is never longer than the largest diameter
    found nor shorter than the smallest separation found. Both extremes,
    and the index, are thus those of the all-pairs computation bit for
    bit.

    Memory holds the n x k centroid distances, their widened and narrowed
    copies, and one tile of at most DUNN_BLOCK distances, whatever the
    cluster sizes.
    """
    X = as_float_matrix(patterns, "patterns")
    k = model.k
    if k < 2:
        raise ValueError("index needs k >= 2")
    n = X.shape[0]
    if n <= DUNN_ALL_PAIRS:
        XT = np.ascontiguousarray(X.T)
        sq = _squared_distances(XT[:, :, None], XT[:, None, :])
        same = model.assignments[:, None] == model.assignments[None, :]
        max_diameter, min_separation = np.sqrt(sq[same].max()), np.sqrt(sq[~same].min())
    else:
        # The members of cluster c are the columns starts[c]:ends[c] of XT.
        order = np.argsort(model.assignments, kind="stable")
        labels = model.assignments[order]
        ends = np.cumsum(np.bincount(labels, minlength=k))
        starts = ends - np.bincount(labels, minlength=k)
        XT = np.ascontiguousarray(X[order].T)
        # _tiles yields the row blocks in order, each as `width` tiles.
        tiles = list(_tiles(XT, np.ascontiguousarray(model.centroids.T)))
        width = len(range(0, k, _tile_shape(k)[1]))
        to_centroid = np.sqrt(np.block([tiles[i:i + width]
                                        for i in range(0, len(tiles), width)]))
        scale = max(np.abs(X).max(), np.abs(model.centroids).max())
        pad = BOUND_MARGIN * (np.sqrt(X.shape[1]) * scale + 1.0)
        upper = to_centroid * (1.0 + BOUND_MARGIN) + pad
        lower = to_centroid * (1.0 - BOUND_MARGIN) - pad
        reach = upper[np.arange(n), labels]
        max_diameter = _max_diameter(XT, starts, ends, reach,
                                     np.maximum.reduceat(reach, starts))
        min_separation = _min_separation(XT, starts, ends, lower, upper)
    if max_diameter == 0.0:
        return float("inf")
    return float(min_separation / max_diameter)


def kmeans(patterns, k: int, seed: int = 0, *, canonical=None) -> ClusterModel:
    """Seeded Lloyd's k-means; the model is unscored (see select_k).

    Each of KMEANS_RESTARTS restarts runs to convergence (no reassignments)
    or KMEANS_MAX_ITER sweeps from a fresh k-means++ initialization; the
    restart with the lowest within-cluster sum of squares wins (the
    earliest, on a tie), and its per-sweep objective is the model's
    objective_trace. Empty clusters are repaired by reseeding from the
    point currently farthest from its centroid. Deterministic given (data
    multiset, k, seed).

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


def ahc(patterns, k: int) -> tuple[ClusterModel, tuple]:
    """Bottom-up hierarchical clustering cut at k; returns (model, merges).

    The agglomeration itself comes from scipy, always with Ward linkage,
    which merges the pair that least raises the within-cluster sum of
    squares k-means minimizes; centroids are member means of the cut
    clusters. merges, the full tree for plotting, holds one
    (cluster_a, cluster_b, distance) triple per merge: 0..n-1 are the n
    patterns in lexicographic row order, and n+i is the cluster merge i
    creates, so n patterns yield n-1 merges.
    """
    # Imported here, so that only ahc's callers load scipy.
    from scipy.cluster.hierarchy import fcluster, linkage

    X = as_float_matrix(patterns, "patterns")
    order, Xs, distinct = _canonical_order(X)
    _check_k(k, distinct)
    Z = linkage(Xs, method="ward")
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
    return model, tuple((int(a), int(b), float(d)) for a, b, d, _ in Z)


def save_index_table(rows, path) -> None:
    """Write the per-k validity scores as `k,davies_bouldin,dunn` CSV."""
    lines = ["k,davies_bouldin,dunn"]
    for k, db, dn in rows:
        lines.append(f"{k},{db:.6g},{dn:.6g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_dendrogram(merges, path) -> None:
    """Write ahc's merge list as CSV for external plotting."""
    lines = ["step,cluster_a,cluster_b,distance"]
    for i, (a, b, dist) in enumerate(merges):
        lines.append(f"{i},{a},{b},{dist:.6g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def select_k(patterns, k_range, seed: int = 0):
    """Sweep cluster counts; the only code that scores a clustering.

    k_range is an inclusive (lo, hi) pair; the sweep stops at the number
    of distinct patterns, and fewer distinct patterns than lo raise
    DegenerateModelError.

    Each k is fitted as kmeans(patterns, k, seed=seed + k) fits it and
    scored with davies_bouldin and dunn; coincident centroids at any k
    raise DegenerateModelError. Best k minimizes the Davies-Bouldin index;
    ties go to the larger Dunn index, then the smaller k. Returns
    (best_model, rows): the best k's model, the one its row scores, and
    the (k, davies_bouldin, dunn) rows, from which the choice can be
    re-derived.

    The ks are independent jobs, spread over the usable CPUs by
    split_map; each returns its model and its row. The error a failing k
    raises is the lowest failing k's, as in a serial sweep.
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
        return model, (k, davies_bouldin(model, X), dunn(model, X))

    fits = split_map(fit, range(lo, hi + 1))
    best_model, _ = min(fits, key=lambda fit: (fit[1][1], -fit[1][2], fit[1][0]))
    return best_model, [row for _, row in fits]
