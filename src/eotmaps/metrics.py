"""Evaluation metrics: neighborhood concordance, clustering quality, purity.

All neighbor computations are exact, with a fixed tie rule: equal computed
squared distances are broken toward the smaller point index.  The rule sees
distances as computed: the norm expansion of ``squared_distance_matrix`` can
round x.y differently by column position (OpenBLAS does), so a point's
distances to two coincident points with non-dyadic coordinates can differ
by a few ulps, and either twin may rank first.  Integer and dyadic
coordinates give exact distances.
Neighbor balls come from two sources.  Points with at most three
coordinates are bucketed in a uniform grid (cell lists; Bentley, Stanat &
Williams 1977, Inf. Process. Lett. 6(6)) whose side h is the largest k-th
neighbor distance over a strided sample of about 64 rows, and each cell's
rows are compared only with the points of its 3^d neighboring cells.  A
row's result is kept only when its k-th squared distance, plus a rounding
margin for the norm expansion, is below the squared distance to the nearest
face of that box with cells beyond it, so no point outside the box could
enter its ball.  Every other row, and every row of higher-dimensional
points or of a cloud whose h is 0, is compared with all points, 256 rows at
a time.  Either way each row's k-th smallest value is found by selection,
only the entries at or below it are sorted, and the same tie rule applies.
Each metric checks its points once; the row blocks go to the distance
kernel unchecked, with the bits ``squared_distance_matrix`` gives them.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import InputError
from .linalg import as_labels, as_matrix, check_int
from .simulate import _stream
from .transport import _squared_distances

DEFAULT_NEIGHBORS = 50
_ROW_BLOCK = 256  # rows of squared distances held at once
# the cell grid serves points with at most this many coordinates: at d = 4
# (81 cells a box) it was slower than the blocks on a 4000 x 4 normal cloud
_GRID_DIMS = 3
# rows whose k-th neighbor distances set the cell side: on the 4000 x 3
# benchmark embeddings 16 rows left up to 4x more rows to the blocks, and 256
# cost more in their own distances than they saved
_GRID_SAMPLE = 64
_GRID_AXIS_CELLS = 2**20  # (2^20 + 3)^3 < 2^63: cell keys fit in an int64
_GRID_ROUNDING = 2.0**-48  # 32 unit roundoffs: the certification's rounding margin
_KMEANS_RESTARTS = 10
_KMEANS_MAX_ITER = 200  # Lloyd steps per restart


def _block_distances(block: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Squared distances of the checked rows ``block`` to every point of P."""
    return _squared_distances(block, P, np.einsum("ij,ij->i", block, block))


def _balls(P: np.ndarray, rows: np.ndarray, cols: np.ndarray, k: int):
    """(D2, kth): squared distances of ``rows`` to the ascending points ``cols``, each
    row's own entry inf, and each row's k-th smallest value."""
    D2 = _block_distances(P[rows], P if cols.size == P.shape[0] else P[cols])  # all: no copy
    D2[np.arange(rows.size), np.searchsorted(cols, rows)] = np.inf
    return D2, np.partition(D2, k - 1, axis=1)[:, k - 1]


def _grid_balls(P: np.ndarray, k: int):
    """Yield the (rows, cols, D2, inside) of the rows the cell grid certifies; return the rest.

    The cell side h is the largest k-th-neighbor distance over a strided
    sample of about _GRID_SAMPLE rows, found by the blocks' code.  Each
    occupied cell's rows are compared with the points of its 3^d
    neighboring cells only, in ascending index order; the last axis varies
    fastest in the cell keys, so those points are 3^(d-1) runs of the
    key-sorted order.  A row is kept when no point outside its 3^d box can
    reach its ball (``_box_limits``).  The rest go back to the caller, and
    so does every row when h is 0 or an axis would need 2^20 cells.
    """
    N, d = P.shape
    sample = np.arange(0, N, max(1, N // _GRID_SAMPLE))
    h = float(np.sqrt(_balls(P, sample, np.arange(N), k)[1].max()))
    lo = P.min(axis=0)
    span = P.max(axis=0) - lo
    # h = 0 (duplicates) fails this test before any division; below 2^20
    # cells an axis, (P - lo) / h cannot overflow and the keys fit in an int64
    if not (span < h * _GRID_AXIS_CELLS).all():
        return np.arange(N)
    cell = np.floor((P - lo) / h).astype(np.intp)
    ends = cell.max(axis=0)
    strides = np.cumprod(np.append(1, ends[:0:-1] + 3))[::-1]  # an empty cell each side
    key = (cell + 1) @ strides
    order = np.argsort(key, kind="stable")  # cell by cell, ascending index within one
    sorted_key = key[order]
    cells, first, counts = np.unique(sorted_key, return_index=True, return_counts=True)
    shifts = np.indices((3,) * (d - 1)).reshape(d - 1, 3 ** (d - 1)).T - 1
    runs = cells[:, None] + shifts @ strides[:-1]  # each run: 3 cells along the last axis
    starts = np.searchsorted(sorted_key, runs - 1)
    stops = np.searchsorted(sorted_key, runs + 1, side="right")
    reach = (stops - starts).sum(axis=1)  # points in each cell's box, its own rows included
    limit = _box_limits(P, h, lo, cell, ends)
    left = [order[first[c] : first[c] + counts[c]] for c in np.flatnonzero(reach <= k)]
    for c in np.flatnonzero(reach > k):
        cell_rows = order[first[c] : first[c] + counts[c]]
        cols = np.sort(np.concatenate([order[a:b] for a, b in zip(starts[c], stops[c])]))
        chunk = max(1, _ROW_BLOCK * N // cols.size)  # at most 256 N distances held
        for at in range(0, cell_rows.size, chunk):
            rows = cell_rows[at : at + chunk]
            D2, kth = _balls(P, rows, cols, k)
            kept = kth < limit[rows]
            if not kept.all():
                left.append(rows[~kept])
                rows, D2, kth = rows[kept], D2[kept], kth[kept]
            if rows.size:
                yield rows, cols, D2, D2 <= kth[:, None]
    return np.concatenate(left) if left else np.arange(0)


def _box_limits(P: np.ndarray, h: float, lo: np.ndarray, cell: np.ndarray,
                ends: np.ndarray) -> np.ndarray:
    """Each point's bound on its computed k-th squared distance, for the grid to keep its row.

    rho is the distance from the point to the nearest face of its 3^d box
    that has cells beyond it (inf when no face has), less
    _GRID_ROUNDING * (max|p| + h) for the rounding of floor((p - lo) / h)
    and of rho itself.  The norm expansion computes a squared distance D
    with error at most gamma_{d+2} (|x| + |y|)^2 <= gamma_{d+2} (8|x|^2 + 2D)
    (Higham, Accuracy and Stability, 2nd ed., section 3.5), so every point y
    outside the box computes above rho^2 (1 - 2 gamma) - 8 gamma |x|^2.  The
    bound is rho^2 (1 - eps) - 2 eps |x|^2 with eps = _GRID_ROUNDING = 32u:
    eps >= 4 gamma_5 with room for the rounding of the bound itself, so a
    computed k-th value below it leaves out no point beyond the box.
    """
    offset = P - lo
    below = np.where(cell >= 2, offset - (cell - 1) * h, np.inf)
    above = np.where(cell <= ends - 2, (cell + 2) * h - offset, np.inf)
    slack = _GRID_ROUNDING * (float(np.abs(P).max()) + h)
    rho = np.maximum(np.minimum(below, above).min(axis=1) - slack, 0.0)
    sq = np.einsum("ij,ij->i", P, P)
    # rho^2 overflows only past a span of 2^512, where some |p|^2 > 2^1022 and
    # that point's own block raises the distance kernel's InputError
    with np.errstate(over="ignore"):
        return rho * rho * (1.0 - _GRID_ROUNDING) - 2.0 * _GRID_ROUNDING * sq


def _neighbor_balls(P: np.ndarray, k: int):
    """Yield (rows, cols, D2, inside): the rows' k-NN balls among ascending columns ``cols``.

    D2 holds the squared distances of the rows to the points ``cols``, with
    each row's own entry set to inf; ``inside`` marks each row's k-NN ball,
    its entries at or below the row's k-th smallest value.  Rows of points
    with d <= _GRID_DIMS come from the cell grid where it certifies them;
    every other row comes in blocks of at most 256 rows against every point.
    """
    N = P.shape[0]
    rest = (yield from _grid_balls(P, k)) if P.shape[1] <= _GRID_DIMS else np.arange(N)
    every = np.arange(N)
    for start in range(0, rest.size, _ROW_BLOCK):
        rows = rest[start : start + _ROW_BLOCK]
        D2, kth = _balls(P, rows, every, k)
        yield rows, every, D2, D2 <= kth[:, None]


def knn(points, k: int) -> np.ndarray:
    """Exact k nearest neighbors under Euclidean distance, as an (N, k) index array.

    Row i lists i's neighbors, nearest first.  Equal computed squared
    distances go to the smaller index (a stable sort); coincident points
    with non-dyadic coordinates need not compute equal (see the module
    docstring).  A point is never its own neighbor.  Only each row's k-NN
    ball is sorted, and at most 256 N distances are held at once.

    For d <= 3 the rows come from a cell grid (module docstring): each cell's
    rows against the points of its 3^d neighboring cells, about O(N k 3^d)
    distances on evenly spread points.  Rows the grid cannot certify (too
    few points in their box, or a k-th distance reaching past its nearest
    face) and all rows when d > 3 or the sampled cell side is 0 are compared
    with every point, 256 at a time: O(N^2 d) time at worst.
    """
    P = as_matrix(points, "points")
    k = check_int(k, "k", 1, P.shape[0] - 1)
    indices = np.empty((P.shape[0], k), dtype=np.intp)
    for rows, cols, D2, inside in _neighbor_balls(P, k):
        flat = np.flatnonzero(inside)  # row by row, ascending index
        r, c = np.divmod(flat, cols.size)
        ranked = cols[c[np.lexsort((D2.ravel()[flat], r))]]  # each row nearest first, stable
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

    Separations come from direct differences, and one within the centroids'
    own summation error, (gamma_na + gamma_nb) max|P| sqrt(d) (Higham,
    *Accuracy and Stability*, ch. 4), counts as coincident: such centroids
    differ by rounding alone, and the ratio would be rounding noise.
    """
    P, labels, classes, own = _clusters(points, labels)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported once, below
        centroids = np.vstack([P[labels == c].mean(axis=0) for c in classes])
        scatter = np.array([np.sqrt(((P[labels == c] - centroids[i]) ** 2).sum(axis=1).mean())
                            for i, c in enumerate(classes)])
        M = np.array([np.sqrt(((centroids - c) ** 2).sum(axis=1)) for c in centroids])
    if not (np.isfinite(scatter).all() and np.isfinite(M).all()):  # a non-finite centroid shows in both
        raise InputError("squared distances overflow float64; rescale the points")
    nu = np.bincount(own) * (np.finfo(float).eps / 2)
    gamma = nu / (1 - nu)
    rounding = (gamma[:, None] + gamma[None, :]) * np.abs(P).max() * np.sqrt(P.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(M > rounding, (scatter[:, None] + scatter[None, :]) / M, np.inf)
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
    for rows, cols, _, inside in _neighbor_balls(P, k):
        same = labels[None, cols] == labels[rows, None]
        fractions[rows] = (inside & same).sum(axis=1) / inside.sum(axis=1)
    return float(fractions.mean())


def _lloyd(P: np.ndarray, sq_p: np.ndarray, centers: np.ndarray):
    k, d = centers.shape
    PT = np.ascontiguousarray(P.T)
    labels = np.argmin(_squared_distances(P, centers, sq_p), axis=1)
    for _ in range(_KMEANS_MAX_ITER):
        counts = np.bincount(labels, minlength=k)
        if d >= 2 and counts.all():
            # numpy pairwise-sums only along the fast axis (numpy.sum, Notes), so at d >= 2
            # P[mask].mean(0) adds rows in index order, as bincount does; d = 1 keeps the loop.
            for j in range(d):
                centers[:, j] = np.bincount(labels, weights=PT[j], minlength=k)
            centers /= counts[:, None]
        else:
            for c in range(k):
                mask = labels == c
                if mask.any():
                    centers[c] = P[mask].mean(axis=0)
                else:
                    # Re-seed an empty cluster at the point farthest from its nearest centre.
                    _check_distinct(P, k)
                    d2 = reduce(np.minimum, _squared_distances(P, centers, sq_p).T)
                    if not d2.max() > 0:  # distinct points whose distances all round to 0
                        raise InputError(f"k={k} clusters: the points' squared distances "
                                         "round to 0 in float64; centre or rescale the points")
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
        d2 = reduce(np.minimum, _squared_distances(P, P[chosen], sq_p).T)  # np.min's bits
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
    results are reproducible; each runs at most 200 Lloyd steps, and the
    lowest within-cluster sum of squares wins.  A step sums the centres by one
    ``bincount`` per coordinate (the per-cluster mean's bits) unless d = 1 or a
    cluster is empty; an empty cluster is re-seeded at the point farthest from
    its nearest center.  Fewer than k distinct points, or k distinct points
    whose squared distances all round to 0, raise InputError.
    """
    P = as_matrix(points, "points")
    k = check_int(k, "k", 1, P.shape[0])
    seed = check_int(seed, "seed", 0)
    sq_p = np.einsum("ij,ij->i", P, P)  # P is checked once, not per distance call

    best_labels, best_wcss = None, np.inf
    for restart in range(_KMEANS_RESTARTS):
        centers = _seed_centers(P, sq_p, k, _stream(seed, 3, restart))  # role 3: restarts
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
