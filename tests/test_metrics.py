import numpy as np
import pytest

import eotmaps.metrics as metrics_module
import eotmaps.transport as transport_module
from eotmaps import (
    DimensionError,
    InputError,
    davies_bouldin,
    eot_eigenmaps,
    jaccard_concordance,
    kmeans,
    knn,
    neighbor_purity,
    preset,
    rand_index,
    sample_gmm,
    silhouette_mean,
    squared_distance_matrix,
)

FOUR_CORNERS = np.array([[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 2.0]])
FOUR_LABELS = np.array([0, 0, 1, 1])


def test_knn_tie_breaks_toward_smaller_index():
    pts = np.array([[0.0], [1.0], [2.0]])
    # point 1 is equidistant from 0 and 2; the tie goes to index 0
    np.testing.assert_array_equal(knn(pts, 1), [[1], [0], [1]])


def test_knn_orders_by_distance():
    pts = np.array([[0.0], [10.0], [1.0], [4.0]])
    nbrs = knn(pts, 3)
    assert nbrs.shape == (4, 3) and nbrs.dtype == np.intp
    np.testing.assert_array_equal(nbrs[0], [2, 3, 1])
    np.testing.assert_array_equal(nbrs[1], [3, 2, 0])
    # a point is never its own neighbor
    assert all(i not in nbrs[i] for i in range(4))


def test_knn_validation():
    pts = np.zeros((4, 2))
    pts[1] = 1.0
    with pytest.raises(DimensionError):
        knn(pts, 0)
    with pytest.raises(DimensionError):
        knn(pts, 4)
    with pytest.raises(InputError):
        knn(pts, 1.5)


def _argsort_knn(P, k):
    # the full-matrix rule: a stable argsort of every distance row
    D2 = squared_distance_matrix(P, P)
    np.fill_diagonal(D2, np.inf)
    return np.argsort(D2, axis=1, kind="stable")[:, :k]


_ORACLE_RNG = np.random.default_rng(12)
# integer and dyadic coordinates make every distance exact, so their ties
# are true ties; the sizes straddle the 256-row block.  Clouds of d <= 3
# reach the cell grid: "duplicates" has cell side 0 and goes to the blocks
# before any division, "line" has one axis, "flat-strip" one axis of about
# one cell, and "five-far" a mostly empty grid at k = 1 and one sampled far
# point that makes the whole cloud one box at k = 7; the rows of the tails
# of "grid-normal" fail certification
ORACLE_CLOUDS = {
    "random": _ORACLE_RNG.normal(size=(600, 3)),
    "below-block": _ORACLE_RNG.normal(size=(40, 5)),
    "one-past-block": _ORACLE_RNG.normal(size=(257, 2)),
    "two-blocks": _ORACLE_RNG.normal(size=(512, 4)),
    "grid": np.indices((17, 17)).reshape(2, -1).T.astype(float),
    "cube": 0.5 * np.indices((7, 7, 7)).reshape(3, -1).T,
    "duplicates": np.repeat(_ORACLE_RNG.integers(0, 4, size=(100, 2)).astype(float), 3, axis=0),
    "grid-normal": _ORACLE_RNG.normal(size=(1500, 3)),
    "line": _ORACLE_RNG.normal(size=(1000, 1)),
    "flat-strip": _ORACLE_RNG.normal(size=(1200, 2)) * [1.0, 1e-3],
    "five-far": np.vstack([_ORACLE_RNG.normal(size=(600, 3)), 1e3 + _ORACLE_RNG.normal(size=(5, 3))]),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CLOUDS))
def test_knn_equals_full_stable_argsort(name):
    P = ORACLE_CLOUDS[name]
    for k in (1, 7, P.shape[0] - 1):
        nbrs = knn(P, k)
        assert nbrs.shape == (P.shape[0], k)
        assert np.array_equal(nbrs, _argsort_knn(P, k))


@pytest.mark.parametrize("name", sorted(ORACLE_CLOUDS))
def test_neighbor_purity_equals_full_matrix_formula(name):
    P = ORACLE_CLOUDS[name]
    N = P.shape[0]
    labels = np.arange(N) * 7 % 3
    D2 = squared_distance_matrix(P, P)
    np.fill_diagonal(D2, np.inf)
    for k in (1, 7, N - 1):
        radius2 = D2[np.arange(N), _argsort_knn(P, k)[:, -1]]
        inside = D2 <= radius2[:, None]
        same = labels[None, :] == labels[:, None]
        expected = float(((inside & same).sum(axis=1) / inside.sum(axis=1)).mean())
        assert neighbor_purity(P, labels, k=k) == expected


@pytest.mark.parametrize("name", sorted(ORACLE_CLOUDS))
def test_jaccard_equals_membership_matrix_formula(name):
    E = ORACLE_CLOUDS[name]
    N = E.shape[0]
    L = E[::-1] + np.random.default_rng(13).normal(size=E.shape)
    for k in (1, 7, N - 1):
        member = np.zeros((N, N), dtype=bool)
        rows = np.repeat(np.arange(N), k)
        member[rows, _argsort_knn(E, k).ravel()] = True
        inter = member[rows, _argsort_knn(L, k).ravel()].reshape(N, k).sum(axis=1)
        expected = float((inter / (2 * k - inter)).mean())
        assert jaccard_concordance(E, L, k=k) == expected


def _counted_distances(monkeypatch):
    """Record the (rows, columns) of every squared-distance block the metrics build."""
    shapes = []

    def counted(X, Y, sq_x, kernel=metrics_module._squared_distances):
        shapes.append((X.shape[0], Y.shape[0]))
        return kernel(X, Y, sq_x)

    monkeypatch.setattr(metrics_module, "_squared_distances", counted)
    return shapes


def test_knn_grid_serves_a_normal_cloud(monkeypatch):
    # the grid compares each row with its 3^3 neighboring cells only; the
    # 256-row blocks would build all N^2 distances.  At k = 1 the largest
    # sampled neighbor distance sets a cell side that keeps the count well
    # below N^2 / 3 (0.15 N^2 here); on normal clouds it reached 0.41 N^2 at
    # k = 7 and 0.85 N^2 at k = 50, where one sampled tail row widens the cells
    P = np.random.default_rng(2000).normal(size=(2000, 3))
    shapes = _counted_distances(monkeypatch)
    nbrs = knn(P, 1)
    assert sum(rows * cols for rows, cols in shapes) < P.shape[0] ** 2 / 3
    monkeypatch.undo()
    assert np.array_equal(nbrs, _argsort_knn(P, 1))


def test_knn_far_cluster_rows_go_to_the_blocks(monkeypatch):
    # k/2 points far off the cloud have fewer than k points in their cells'
    # boxes, so the grid cannot certify them and they are compared with every
    # point; they sit off the sample's stride of 31 rows, so the cell side
    # comes from the main cloud
    k, N = 50, 2025
    rng = np.random.default_rng(2025)
    P = rng.normal(size=(N, 3))
    far = 31 * np.arange(k // 2) + 1
    P[far] = [40.0, 0.0, 0.0] + 0.1 * rng.normal(size=(k // 2, 3))
    shapes = _counted_distances(monkeypatch)
    nbrs = knn(P, k)
    assert sum(rows for rows, cols in shapes[1:] if cols == N) >= k // 2  # after the sample
    monkeypatch.undo()
    assert np.array_equal(nbrs, _argsort_knn(P, k))


def test_knn_is_invariant_under_power_of_two_scaling():
    # 2^j scales every computed distance, the cell side and the certification
    # bounds exactly, so the neighbor lists may not move
    P = ORACLE_CLOUDS["grid-normal"]
    want = knn(P, 7)
    for j in range(-20, 31):
        assert np.array_equal(knn(P * 2.0**j, 7), want), j


def test_knn_permuting_the_points_permutes_the_neighbors():
    # normal draws leave no ties, so the lists follow the points; the grid's
    # cells, the sample and the 256-row blocks all see the points in a new order
    P = ORACLE_CLOUDS["grid-normal"]
    perm = np.random.default_rng(7).permutation(P.shape[0])
    where = np.argsort(perm)  # where[i]: the new index of point i
    for k in (7, 50):
        assert np.array_equal(knn(P[perm], k), where[knn(P, k)[perm]])


def test_knn_rejects_overflowing_distances():
    # squared distances overflow float64 here; unchecked, row 0 listed itself
    with pytest.raises(InputError, match="rescale"):
        knn(np.array([[1e200], [0.0], [1.0], [-1e200]]), 2)


@pytest.mark.parametrize("name", ["knn", "neighbor_purity", "silhouette_mean"])
def test_metrics_check_their_points_once(monkeypatch, name):
    # 600 points make many distance blocks (grid cells, 256-row blocks);
    # checking both arguments of squared_distance_matrix for each would add
    # two checks a block
    checked = []
    for module in (metrics_module, transport_module):
        def counted(a, *args, check=module.as_matrix):
            checked.append(a.shape)
            return check(a, *args)

        monkeypatch.setattr(module, "as_matrix", counted)
    rng = np.random.default_rng(600)
    P = rng.normal(size=(600, 3))
    labels = rng.integers(0, 3, size=600)
    args = {"knn": (P, 5), "neighbor_purity": (P, labels, 5), "silhouette_mean": (P, labels)}
    getattr(metrics_module, name)(*args[name])
    assert checked == [(600, 3)]


def test_jaccard_identical_inputs_is_one():
    rng = np.random.default_rng(1)
    P = rng.normal(size=(30, 4))
    assert jaccard_concordance(P, P.copy(), k=5) == 1.0


def test_jaccard_hand_oracle():
    # k=1 neighborhoods: embedded 0->1, 1->0, 2->1, 3->2;
    # latent 0->1, 1->0, 2->3, 3->1.  Matches on points 0,1 only -> mean 1/2.
    embedded = np.array([[0.0], [1.0], [2.0], [10.0]])
    latent = np.array([[0.0], [1.0], [10.0], [2.0]])
    assert jaccard_concordance(embedded, latent, k=1) == pytest.approx(0.5)


def test_jaccard_disjoint_neighborhoods_is_zero():
    # two separated pairs in embedded space vs re-paired in latent space
    embedded = np.array([[0.0], [1.0], [100.0], [101.0]])
    latent = np.array([[0.0], [100.0], [1.0], [101.0]])
    # embedded: 0<->1, 2<->3; latent: 0<->2, 1<->3 -> empty intersections
    assert jaccard_concordance(embedded, latent, k=1) == 0.0


def test_jaccard_validation():
    with pytest.raises(InputError):
        jaccard_concordance(np.zeros((4, 2)), np.eye(3))


def test_rand_index_hand_oracle():
    assert rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(1.0 / 3.0)


def test_rand_index_permutation_invariant():
    a = np.array([0, 0, 1, 1, 2, 2])
    remapped = np.array([5, 5, 3, 3, 0, 0])
    assert rand_index(a, remapped) == 1.0
    assert rand_index(a, a) == 1.0


def test_rand_index_symmetry_and_range():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 4, size=40)
    b = rng.integers(0, 3, size=40)
    r = rand_index(a, b)
    assert rand_index(b, a) == r
    assert 0.0 <= r <= 1.0


def test_rand_index_validation():
    with pytest.raises(InputError):
        rand_index([0, 1], [0, 1, 2])
    with pytest.raises(InputError):
        rand_index([0], [1])
    with pytest.raises(InputError):
        rand_index([0.5, 1.0], [0, 1])


def test_rand_index_rejects_2d_labelings():
    # every metric takes labels of shape (N,) only; a column is not flattened
    column = np.array([[0], [1], [1]])
    with pytest.raises(InputError, match=r"labels_a must be a vector of length 3, got shape \(3, 1\)"):
        rand_index(column, [0, 1, 1])
    with pytest.raises(InputError, match=r"labels_b must be a vector of length 3, got shape \(3, 1\)"):
        rand_index([0, 1, 1], column)


@pytest.mark.parametrize("big", [1e30, -1e30, 2.0**63, np.inf])
def test_float_labels_beyond_int64_raise(big):
    # astype would turn both values into -2^63 and merge two classes
    with pytest.raises(InputError, match="int64 range"):
        rand_index([big, 2 * big, 0.0, 1.0], [0, 1, 2, 3])
    with pytest.raises(InputError, match="int64 range"):
        davies_bouldin(FOUR_CORNERS, [big, big, 0.0, 0.0])


def test_davies_bouldin_requires_two_classes():
    with pytest.raises(InputError, match="need at least two distinct labels"):
        davies_bouldin(FOUR_CORNERS, [3, 3, 3, 3])


def test_float_labels_at_the_int64_ends_convert():
    ends = [-(2.0**63), -(2.0**63), 2.0**63 - 1024, 2.0**63 - 1024]
    assert rand_index(ends, [0, 0, 1, 1]) == 1.0


def test_davies_bouldin_hand_oracle():
    # both clusters have RMS scatter 1, centroid separation 10 -> 0.2
    assert davies_bouldin(FOUR_CORNERS, FOUR_LABELS) == pytest.approx(0.2)


def test_davies_bouldin_coincident_centroids_is_inf():
    pts = np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 1.0], [0.0, 1.0]])
    assert davies_bouldin(pts, [0, 0, 1, 1]) == np.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("points", [[[1.7e308], [1.7e308], [0.0], [1.0]], [[1e308], [-1e308], [0.0], [1.0]],
                                    [[1e200], [1e200], [-1e200], [-1e200]]],
                         ids=["centroid", "scatter", "separation"])
def test_davies_bouldin_rejects_overflowing_points(points):
    # the first cluster's centroid mean, its scatter's squares, or the two
    # centroids' squared separation overflow: one InputError, the one
    # silhouette_mean raises, and no warning first
    message = "squared distances overflow float64; rescale the points"
    for metric in (davies_bouldin, silhouette_mean):
        with pytest.raises(InputError, match=f"^{message}$"):
            metric(points, [0, 0, 1, 1])


def test_davies_bouldin_prefers_separation():
    rng = np.random.default_rng(3)
    tight = np.vstack([rng.normal(size=(20, 2)) * 0.1, rng.normal(size=(20, 2)) * 0.1 + 8.0])
    loose = np.vstack([rng.normal(size=(20, 2)) * 2.0, rng.normal(size=(20, 2)) * 2.0 + 8.0])
    labels = np.array([0] * 20 + [1] * 20)
    assert davies_bouldin(tight, labels) < davies_bouldin(loose, labels)


def test_davies_bouldin_equals_pairwise_loop():
    # reference: the ratio of every ordered pair of distinct clusters, one at
    # a time, each separation the norm of the centroids' difference; the
    # vectorized index must give the same bits
    rng = np.random.default_rng(11)
    for k in (2, 3, 5):
        pts = rng.normal(size=(40, 3))
        labels = np.arange(40) % k
        centroids = np.array([pts[labels == c].mean(axis=0) for c in range(k)])
        scatter = np.array([np.sqrt(((pts[labels == c] - centroids[c]) ** 2).sum(axis=1).mean())
                            for c in range(k)])
        worst = [max((scatter[i] + scatter[j]) / np.sqrt(((centroids[i] - centroids[j]) ** 2).sum())
                     for j in range(k) if j != i)
                 for i in range(k)]
        assert davies_bouldin(pts, labels) == np.mean(worst)


@pytest.mark.parametrize(
    "seed,m,n,p",
    [(0, 300, 400, 100), (1, 300, 400, 100), (2, 300, 400, 100), (5, 150, 200, 20)],
    ids=["0", "1", "2", "cli-150x200"],
)
def test_davies_bouldin_centroids_equal_up_to_rounding_is_inf(seed, m, n, p):
    # at t = 0 each cloud's coordinates have mean 0 up to the plan's marginal
    # error, so the dataset-indicator clusters' centroids differ by rounding
    # alone on the 300 x 400 pairs (3.8e-14 to 9.5e-14 apart, against a bound
    # of about 2.9e-13), and by Sinkhorn's error on the 150 x 200 pair of the
    # CLI tests: 2.9e-11 apart, above its rounding bound of 1.4e-13 but 8.3e-12
    # of the scatters' sum, where the index read 1.2e11
    pair = preset("setting2", m, n, p, seed, 3.0)
    emb = eot_eigenmaps(pair.X.values, pair.Y.values, q=3, t=0)
    assert davies_bouldin(np.r_[emb.Xt, emb.Yt], np.repeat([0, 1], [m, n])) == np.inf


@pytest.mark.parametrize("shift,expected", [(2.0**-24, 2.0**25), (2.0**-25, np.inf)], ids=["above", "at"])
def test_davies_bouldin_separation_within_sqrt_eps_of_the_scatters_is_inf(shift, expected):
    # clusters {-1, 1} and {-1 + shift, 1 + shift}, all exact: scatters 1 and
    # 1, separation shift; at or below 2^-26 of the scatters' sum (2^-25) the
    # centroids count as coincident, above it the ratio is 2 / shift
    pts = np.array([[-1.0], [1.0], [-1.0 + shift], [1.0 + shift]])
    assert davies_bouldin(pts, [0, 0, 1, 1]) == expected


def test_silhouette_hand_oracle():
    # each point: a = 2, b = (10 + sqrt(104)) / 2; width = (b - a) / b
    b = (10.0 + np.sqrt(104.0)) / 2.0
    expected = (b - 2.0) / b
    assert silhouette_mean(FOUR_CORNERS, FOUR_LABELS) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.80196097281443, abs=1e-12)


def test_silhouette_singleton_scores_zero():
    pts = np.array([[0.0], [1.0], [50.0]])
    # point 2 is a singleton cluster -> contributes 0
    val = silhouette_mean(pts, [0, 0, 1])
    a01 = 1.0
    b01 = np.array([50.0, 49.0])
    expected = ((b01 - a01) / b01).sum() / 3.0
    assert val == pytest.approx(expected, abs=1e-12)


def silhouette_loop(P, labels):
    """Reference: the full N x N distance matrix and one Python step per point."""
    classes = np.unique(labels)
    D = np.sqrt(squared_distance_matrix(P, P))
    masks = [labels == c for c in classes]
    sizes = np.array([mask.sum() for mask in masks])
    sums = np.stack([D[:, mask].sum(axis=1) for mask in masks], axis=1)
    scores = np.zeros(P.shape[0])
    for i in range(P.shape[0]):
        ci = int(np.nonzero(classes == labels[i])[0][0])
        if sizes[ci] == 1:
            continue
        a = sums[i, ci] / (sizes[ci] - 1)
        b = min(sums[i, cj] / sizes[cj] for cj in range(classes.size) if cj != ci)
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(scores.mean())


@pytest.mark.parametrize("N", [40, 257, 600])
def test_silhouette_matches_the_per_point_loop(N):
    # 257 and 600 cross the 256-row blocks; label 5 is a singleton cluster
    rng = np.random.default_rng(N)
    labels = rng.integers(0, 5, size=N)
    labels[N // 2] = 5
    P = rng.normal(size=(N, 6)) + 2.0 * labels[:, None]
    assert silhouette_mean(P, labels) == silhouette_loop(P, labels)
    # all points coincident: both means vanish and every width is 0
    zeros, halves = np.zeros((4, 1)), np.array([0, 0, 1, 1])
    assert silhouette_mean(zeros, halves) == silhouette_loop(zeros, halves) == 0.0


def test_silhouette_requires_two_classes():
    with pytest.raises(InputError):
        silhouette_mean(np.zeros((3, 1)), [1, 1, 1])


def test_neighbor_purity_separated_clusters():
    assert neighbor_purity(FOUR_CORNERS, FOUR_LABELS, k=1) == 1.0


def test_neighbor_purity_hand_oracle_with_ties():
    # 1-D chain 0,1,2,3 labeled 00|11 at k=1: interior points have two
    # points inside their radius-1 ball (tie), one of each label
    pts = np.array([[0.0], [1.0], [2.0], [3.0]])
    assert neighbor_purity(pts, [0, 0, 1, 1], k=1) == pytest.approx(0.75)


def test_neighbor_purity_label_permutation_invariant():
    rng = np.random.default_rng(4)
    P = rng.normal(size=(40, 3))
    labels = rng.integers(0, 3, size=40)
    v1 = neighbor_purity(P, labels, k=5)
    v2 = neighbor_purity(P, (labels + 7) * 3, k=5)
    assert v1 == v2


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(5)
    centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
    truth = np.repeat([0, 1, 2], 30)
    P = centers[truth] + rng.normal(size=(90, 2))
    labels = kmeans(P, 3, seed=0)
    assert rand_index(labels, truth) == 1.0


def test_kmeans_deterministic_for_fixed_seed():
    rng = np.random.default_rng(6)
    P = rng.normal(size=(60, 3))
    a = kmeans(P, 4, seed=7)
    b = kmeans(P, 4, seed=7)
    np.testing.assert_array_equal(a, b)


def test_kmeans_k_equals_n_is_exact():
    rng = np.random.default_rng(7)
    P = rng.normal(size=(6, 2)) * 10
    labels = kmeans(P, 6, seed=0)
    assert len(set(labels.tolist())) == 6


def test_kmeans_with_fewer_distinct_points_than_k_raises():
    # three coincident points and one apart hold two locations, so k = 3
    # cannot give three clusters; both fallbacks that duplicates reach, the
    # seeding's zero-weight draw and Lloyd's re-seed of an empty cluster,
    # count the distinct points and raise instead of returning two labels
    import eotmaps.metrics as metrics

    P = np.array([[0.0], [0.0], [0.0], [1.0]])
    sq_p = (P**2).ravel()
    message = "k=3 clusters need 3 distinct points, got 2"
    with pytest.raises(InputError, match=message):
        kmeans(P, 3)
    with pytest.raises(InputError, match=message):
        metrics._seed_centers(P, sq_p, 3, np.random.default_rng(0))
    with pytest.raises(InputError, match=message):
        metrics._lloyd(P, sq_p, np.array([[0.0], [0.0], [1.0]]))  # the twin centre's cluster is empty
    labels = kmeans([[0.0], [0.0], [1.0], [2.0]], 3)  # duplicates, but k distinct points
    assert labels[0] == labels[1] and len(set(labels.tolist())) == 3


def test_lloyd_reseeds_an_empty_cluster_at_the_farthest_point():
    # centre 100 holds no point; after the first update every point lies
    # 0.5 from a centre, so the re-seed takes the first, 0, and Lloyd ends
    # at {0}, {1}, {10, 11}; without it the cluster stays empty and the
    # result is {0, 1}, {10, 11} with twice the within-cluster sum
    import eotmaps.metrics as metrics

    P = np.array([[0.0], [1.0], [10.0], [11.0]])
    labels, wcss = metrics._lloyd(P, (P**2).ravel(), np.array([[0.5], [10.5], [100.0]]))
    np.testing.assert_array_equal(labels, [2, 0, 1, 1])
    assert wcss == 0.5


def test_kmeans_rejects_distinct_points_whose_distances_round_to_zero():
    # k distinct points far from the origin: the norm expansion rounds every
    # point-to-centre distance to 0, so no re-seed can fill the empty cluster;
    # kmeans raises instead of returning fewer than k clusters
    far = np.nextafter(1e8, 2e8)
    message = "k=2 clusters: the points' squared distances round to 0 in float64"
    with pytest.raises(InputError, match=message):
        kmeans([[1e8], [far]], 2)
    with pytest.raises(InputError, match="centre or rescale the points"):
        kmeans([[1e8, 0.0], [far, 0.0], [1e8 + 64, 0.0]], 3)


def _oracle_seed_centers(P, sq_p, k, rng):
    """_seed_centers as it was before the running minimum: np.min over each row."""
    N = P.shape[0]
    chosen = [int(rng.integers(N))]
    for _ in range(k - 1):
        d2 = np.min(transport_module._squared_distances(P, P[chosen], sq_p), axis=1)
        total = d2.sum()
        if total > 0:
            chosen.append(int(rng.choice(N, p=d2 / total)))
        else:
            chosen.append(next(i for i in range(N) if i not in chosen))
    return P[chosen].copy()


def _oracle_lloyd(P, sq_p, centers):
    """_lloyd as it was before bincount: one masked mean per cluster and step."""
    k = centers.shape[0]
    labels = np.argmin(transport_module._squared_distances(P, centers, sq_p), axis=1)
    for _ in range(metrics_module._KMEANS_MAX_ITER):
        for c in range(k):
            mask = labels == c
            if mask.any():
                centers[c] = P[mask].mean(axis=0)
            else:
                d2 = np.min(transport_module._squared_distances(P, centers, sq_p), axis=1)
                centers[c] = P[int(np.argmax(d2))]
        new_labels = np.argmin(transport_module._squared_distances(P, centers, sq_p), axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, float(((P - centers[labels]) ** 2).sum())


def _oracle_cases():
    rng = np.random.default_rng(35)
    for i in range(40):
        d, k = 1 + i % 5, 1 + i % 8
        N = int(rng.integers(k + 10, 300))
        P = rng.normal(size=(N, d)) * 10.0 ** rng.uniform(-3, 3)
        if i % 4 == 1:
            P = np.round(P / np.abs(P).max() * 20)  # integer coordinates
        elif i % 4 == 2:
            P = P[rng.integers(0, N // 3, N)]  # duplicates
        if np.unique(P, axis=0).shape[0] >= k:
            yield P, k, None
    P = rng.normal(size=(500, 3))
    far = np.vstack([P[:3], [[1e3, 1e3, 1e3]]])  # its cluster is empty: a re-seed
    yield P, 4, far
    blobs = 10.0 * rng.normal(size=(5, 2))
    yield blobs[rng.integers(0, 5, 100_000)] + rng.normal(size=(100_000, 2)), 5, None


def test_kmeans_steps_keep_the_bits_of_the_per_cluster_mean():
    # the bincount centre update and the running-minimum seeding must give
    # the labels, centres and within-cluster sums of the masked-mean steps
    for P, k, start in _oracle_cases():
        sq_p = np.einsum("ij,ij->i", P, P)
        got = metrics_module._seed_centers(P, sq_p, k, np.random.default_rng(k))
        want = _oracle_seed_centers(P, sq_p, k, np.random.default_rng(k))
        np.testing.assert_array_equal(got, want)
        if start is not None:
            got, want = start.copy(), start.copy()
        got_labels, got_wcss = metrics_module._lloyd(P, sq_p, got)
        want_labels, want_wcss = _oracle_lloyd(P, sq_p, want)
        np.testing.assert_array_equal(got_labels, want_labels)
        np.testing.assert_array_equal(got, want)
        assert got_wcss == want_wcss


def test_bincount_sums_are_the_masked_mean_for_two_or_more_columns():
    # canary: _lloyd relies on numpy adding rows one at a time when it reduces
    # a C-ordered (cnt, d >= 2) array over axis 0; a numpy that sums that axis
    # pairwise would fail here instead of moving kmeans' labels
    rng = np.random.default_rng(8)
    for d in (2, 3, 5, 8):
        P = rng.normal(size=(5000, d)) * 1e3
        labels = rng.integers(0, 4, size=5000)
        counts = np.bincount(labels, minlength=4)
        PT = np.ascontiguousarray(P.T)
        sums = np.column_stack([np.bincount(labels, weights=PT[j], minlength=4) for j in range(d)])
        masked = np.vstack([P[labels == c].mean(axis=0) for c in range(4)])
        np.testing.assert_array_equal(sums / counts[:, None], masked)


def test_kmeans_validation():
    P = np.zeros((5, 2))
    P[1] = 1.0
    with pytest.raises(DimensionError):
        kmeans(P, 0)
    with pytest.raises(DimensionError):
        kmeans(P, 6)
    with pytest.raises(InputError):
        kmeans(P, 2.0)
    with pytest.raises(DimensionError, match="^k must be"):
        kmeans(P, 0, seed=-1)  # k is checked before seed
    with pytest.raises(DimensionError, match=r"^seed must be >= 0, got -1$"):
        kmeans(P, 2, seed=-1)
    with pytest.raises(InputError, match=r"^seed must be an integer, got 1.0$"):
        kmeans(P, 2, seed=1.0)


def test_kmeans_quality_on_gaussian_mixture():
    # quality gate: on raw six-class mixtures the clustering must be nearly
    # perfect; the pipeline comparisons downstream assume this much.
    scores = []
    for seed in range(20):
        lat = sample_gmm(600, seed=seed)
        labels = kmeans(lat.points, 6, seed=seed)
        scores.append(rand_index(labels, lat.labels))
    assert float(np.median(scores)) > 0.99
