"""Evaluation metrics: neighborhood concordance, clustering quality, purity.

All neighbor computations are exact, with a fixed tie rule: equal computed
squared distances are broken toward the smaller point index.  The rule sees
distances as computed: the norm expansion of ``squared_distance_matrix`` can
round x.y differently by column position (OpenBLAS does), so a point's
distances to two coincident points with non-dyadic coordinates can differ
by a few ulps, and either twin may rank first.  Integer and dyadic
coordinates give exact distances.
Distances are built 256 rows at a time; each row's k-th smallest value is
found by selection, and only the entries at or below it are sorted.  Each
metric checks its points once; the row blocks go to the distance kernel
unchecked, with the bits ``squared_distance_matrix`` gives them.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .linalg import as_labels, as_matrix, check_int
from .simulate import _stream
from .transport import _squared_distances

DEFAULT_NEIGHBORS = 50
_ROW_BLOCK = 256  # rows of squared distances held at once
_KMEANS_RESTARTS = 10
_KMEANS_MAX_ITER = 200  # Lloyd steps per restart


def _block_distances(block: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Squared distances of the checked rows ``block`` to every point of P."""
    return _squared_distances(block, P, np.einsum("ij,ij->i", block, block))


def _neighbor_balls(P: np.ndarray, k: int):
    """Yield (rows, D2, inside) for consecutive blocks of at most 256 rows.

    D2 holds the squared distances of the block's rows to every point, with
    each row's own entry set to inf; ``inside`` marks each row's k-NN ball,
    its entries at or below the row's k-th smallest value.
    """
    N = P.shape[0]
    for start in range(0, N, _ROW_BLOCK):
        rows = np.arange(start, min(start + _ROW_BLOCK, N))
        D2 = _block_distances(P[rows], P)
        D2[np.arange(rows.size), rows] = np.inf
        kth = np.partition(D2, k - 1, axis=1)[:, k - 1]
        yield rows, D2, D2 <= kth[:, None]


def knn(points, k: int) -> np.ndarray:
    """Exact k nearest neighbors under Euclidean distance, as an (N, k) index array.

    Row i lists i's neighbors, nearest first.  Equal computed squared
    distances go to the smaller index (a stable sort); coincident points
    with non-dyadic coordinates need not compute equal (see the module
    docstring).  A point is never its own neighbor.  Takes O(N^2 d) time
    and O(256 N) memory: only each row's k-NN ball is sorted.
    """
    P = as_matrix(points, "points")
    k = check_int(k, "k", 1, P.shape[0] - 1)
    indices = np.empty((P.shape[0], k), dtype=np.intp)
    for rows, D2, inside in _neighbor_balls(P, k):
        flat = np.flatnonzero(inside)  # row by row, ascending index
        r, c = np.divmod(flat, P.shape[0])
        ranked = c[np.lexsort((D2.ravel()[flat], r))]  # each row nearest first, stable
        first = np.searchsorted(r, np.arange(rows.size))
        indices[rows] = ranked[first[:, None] + np.arange(k)]
    return indices


def jaccard_concordance(embedded, latent, k: int = DEFAULT_NEIGHBORS) -> float:
    """Mean Jaccard overlap between embedded-space and latent-space neighborhoods.

    Both inputs must list the same points in the same order (typically both
    clouds pooled).  For each point the k-neighbor sets are compared by
    |intersection| / |union|, and the mean over points is returned.
    """
    E = as_matrix(embedded, "embedded")
    L = as_matrix(latent, "latent")
    if E.shape[0] != L.shape[0]:
        raise InputError(
            f"embedded and latent must list the same points, got {E.shape[0]} vs {L.shape[0]}"
        )
    got = knn(E, k)
    want = knn(L, k)
    # each row lists distinct indices, so a shared index shows up as a repeat
    both = np.sort(np.hstack([got, want]), axis=1)
    inter = (both[:, 1:] == both[:, :-1]).sum(axis=1)
    return float((inter / (2 * k - inter)).mean())


def _pair_count(v: np.ndarray) -> int:
    return int((v.astype(np.int64) * (v.astype(np.int64) - 1) // 2).sum())


def rand_index(labels_a, labels_b) -> float:
    """Fraction of point pairs on which two labelings agree (joined or split)."""
    a = as_labels(labels_a, np.size(labels_a), "labels_a")
    b = as_labels(labels_b, a.size, "labels_b")
    N = a.size
    if N < 2:
        raise InputError("labelings must have equal length >= 2")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    contingency = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(contingency, (ai, bi), 1)
    same_both = _pair_count(contingency.ravel())
    same_a = _pair_count(contingency.sum(axis=1))
    same_b = _pair_count(contingency.sum(axis=0))
    total = N * (N - 1) // 2
    return float((total + 2 * same_both - same_a - same_b) / total)


def _clusters(points, labels):
    """Checked (P, labels, classes, each point's class index); two classes at least."""
    P = as_matrix(points, "points")
    labels = as_labels(labels, P.shape[0])
    classes, own = np.unique(labels, return_inverse=True)
    if classes.size < 2:
        raise InputError("need at least two distinct labels")
    return P, labels, classes, own


def davies_bouldin(points, labels) -> float:
    """Davies-Bouldin index: mean over clusters of the worst scatter-to-separation ratio.

    Scatter is the RMS distance to the centroid; separation is the centroid
    distance.  Coincident centroids make the ratio +inf, so the index is
    +inf whenever two clusters share a centroid.  Lower is better.
    """
    P, labels, classes, _ = _clusters(points, labels)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported once, below
        centroids = np.vstack([P[labels == c].mean(axis=0) for c in classes])
        scatter = np.array([np.sqrt(((P[labels == c] - centroids[i]) ** 2).sum(axis=1).mean())
                            for i, c in enumerate(classes)])
    if not np.isfinite(scatter).all():  # a non-finite centroid makes its scatter non-finite
        raise InputError("squared distances overflow float64; rescale the points")
    M = np.sqrt(_block_distances(centroids, centroids))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(M > 0, (scatter[:, None] + scatter[None, :]) / M, np.inf)
    np.fill_diagonal(ratios, -np.inf)
    return float(ratios.max(axis=1).mean())


def silhouette_mean(points, labels) -> float:
    """Mean silhouette width under Euclidean distance.

    For each point, a = mean distance to its own cluster's other members and
    b = smallest mean distance to another cluster; the width is
    (b - a) / max(a, b).  Points in singleton clusters score 0, as do points
    where both means vanish.  Distances are built 256 rows at a time.
    """
    P, labels, classes, own = _clusters(points, labels)
    masks = [labels == c for c in classes]
    sizes = np.array([mask.sum() for mask in masks])
    sums = np.empty((P.shape[0], classes.size))  # distance sums, every point to every cluster
    for start in range(0, P.shape[0], _ROW_BLOCK):
        D = np.sqrt(_block_distances(P[start : start + _ROW_BLOCK], P))
        for c, mask in enumerate(masks):
            sums[start : start + _ROW_BLOCK, c] = D[:, mask].sum(axis=1)
    own_cluster = np.arange(P.shape[0]), own
    a = sums[own_cluster] / np.maximum(sizes[own] - 1, 1)  # singletons are masked below
    means = sums / sizes
    means[own_cluster] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.divide(b - a, denom, out=np.zeros_like(a), where=(sizes[own] > 1) & (denom > 0))
    return float(scores.mean())


def neighbor_purity(points, labels, k: int = DEFAULT_NEIGHBORS) -> float:
    """Mean fraction of same-label points inside each point's k-NN ball.

    The ball radius is the distance to the k-th nearest neighbor; every
    other point at distance <= radius counts (there may be more than k under
    ties), and the fraction sharing the center's label is averaged.
    """
    P = as_matrix(points, "points")
    labels = as_labels(labels, P.shape[0])
    k = check_int(k, "k", 1, P.shape[0] - 1)
    fractions = np.empty(P.shape[0])
    for rows, _, inside in _neighbor_balls(P, k):
        same = labels[None, :] == labels[rows, None]
        fractions[rows] = (inside & same).sum(axis=1) / inside.sum(axis=1)
    return float(fractions.mean())


def _lloyd(P: np.ndarray, sq_p: np.ndarray, centers: np.ndarray):
    k = centers.shape[0]
    labels = np.argmin(_squared_distances(P, centers, sq_p), axis=1)
    for _ in range(_KMEANS_MAX_ITER):
        for c in range(k):
            mask = labels == c
            if mask.any():
                centers[c] = P[mask].mean(axis=0)
            else:
                # Re-seed an empty cluster at the point farthest from its center.
                _check_distinct(P, k)
                d2 = np.min(_squared_distances(P, centers, sq_p), axis=1)
                centers[c] = P[int(np.argmax(d2))]
        new_labels = np.argmin(_squared_distances(P, centers, sq_p), axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    wcss = float(((P - centers[labels]) ** 2).sum())
    return labels, wcss


def _check_distinct(P: np.ndarray, k: int):
    """InputError when P has fewer than k distinct rows; only the fallback paths pay for it."""
    distinct = np.unique(P, axis=0).shape[0]
    if distinct < k:
        raise InputError(f"k={k} clusters need {k} distinct points, got {distinct}")


def _seed_centers(P: np.ndarray, sq_p: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Distance-weighted greedy seeding: next center drawn with prob ~ min squared distance."""
    N = P.shape[0]
    chosen = [int(rng.integers(N))]
    for _ in range(k - 1):
        d2 = np.min(_squared_distances(P, P[chosen], sq_p), axis=1)
        total = d2.sum()
        if total > 0:
            chosen.append(int(rng.choice(N, p=d2 / total)))
        else:
            # All mass sits on chosen points (at most k - 1 < N): take the first unused
            _check_distinct(P, k)
            chosen.append(next(i for i in range(N) if i not in chosen))
    return P[chosen].copy()


def kmeans(points, k: int, seed: int = 0) -> np.ndarray:
    """Lloyd's algorithm with distance-weighted seeding, best of 10 restarts.

    Restart r uses its own counter-based stream derived from (seed, r), so
    results are reproducible, and runs at most 200 Lloyd steps.  Empty
    clusters are re-seeded at the point farthest from its assigned center;
    fewer than k distinct points raise InputError.  Returns the labeling
    with the lowest within-cluster sum of squares.
    """
    P = as_matrix(points, "points")
    k = check_int(k, "k", 1, P.shape[0])
    sq_p = np.einsum("ij,ij->i", P, P)  # P is checked once, not per distance call

    best_labels, best_wcss = None, np.inf
    for restart in range(_KMEANS_RESTARTS):
        rng = _stream(seed, 3, restart)  # role 3: clustering restarts
        centers = _seed_centers(P, sq_p, k, rng)
        labels, wcss = _lloyd(P, sq_p, centers)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return best_labels


__all__ = [
    "knn",
    "jaccard_concordance",
    "rand_index",
    "davies_bouldin",
    "silhouette_mean",
    "neighbor_purity",
    "kmeans",
    "DEFAULT_NEIGHBORS",
]
