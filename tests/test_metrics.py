import numpy as np
import pytest

import eotmaps.metrics as metrics_module
import eotmaps.transport as transport_module
from eotmaps import (
    DimensionError,
    InputError,
    davies_bouldin,
    jaccard_concordance,
    kmeans,
    knn,
    neighbor_purity,
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
# are true ties; the sizes straddle the 256-row block
ORACLE_CLOUDS = {
    "random": _ORACLE_RNG.normal(size=(600, 3)),
    "below-block": _ORACLE_RNG.normal(size=(40, 5)),
    "one-past-block": _ORACLE_RNG.normal(size=(257, 2)),
    "two-blocks": _ORACLE_RNG.normal(size=(512, 4)),
    "grid": np.indices((17, 17)).reshape(2, -1).T.astype(float),
    "cube": 0.5 * np.indices((7, 7, 7)).reshape(3, -1).T,
    "duplicates": np.repeat(_ORACLE_RNG.integers(0, 4, size=(100, 2)).astype(float), 3, axis=0),
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


def test_knn_rejects_overflowing_distances():
    # squared distances overflow float64 here; unchecked, row 0 listed itself
    with pytest.raises(InputError, match="rescale"):
        knn(np.array([[1e200], [0.0], [1.0], [-1e200]]), 2)


@pytest.mark.parametrize("name", ["knn", "neighbor_purity", "silhouette_mean"])
def test_metrics_check_their_points_once(monkeypatch, name):
    # 600 points make three 256-row distance blocks; checking both arguments
    # of squared_distance_matrix for each block would make 7 checks
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
@pytest.mark.parametrize("points", [[[1.7e308], [1.7e308], [0.0], [1.0]], [[1e308], [-1e308], [0.0], [1.0]]],
                         ids=["centroid", "scatter"])
def test_davies_bouldin_rejects_overflowing_points(points):
    # the first cluster's centroid mean, or its scatter's squares, overflow:
    # one InputError, the one silhouette_mean raises, and no warning first
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
    # a time; the vectorized index must give the same bits
    rng = np.random.default_rng(11)
    for k in (2, 3, 5):
        pts = rng.normal(size=(40, 3))
        labels = np.arange(40) % k
        centroids = np.array([pts[labels == c].mean(axis=0) for c in range(k)])
        scatter = np.array([np.sqrt(((pts[labels == c] - centroids[c]) ** 2).sum(axis=1).mean())
                            for c in range(k)])
        sep = np.sqrt(squared_distance_matrix(centroids, centroids))
        worst = [max((scatter[i] + scatter[j]) / sep[i, j] for j in range(k) if j != i)
                 for i in range(k)]
        assert davies_bouldin(pts, labels) == np.mean(worst)


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


def test_kmeans_validation():
    P = np.zeros((5, 2))
    P[1] = 1.0
    with pytest.raises(DimensionError):
        kmeans(P, 0)
    with pytest.raises(DimensionError):
        kmeans(P, 6)
    with pytest.raises(InputError):
        kmeans(P, 2.0)


def test_kmeans_quality_on_gaussian_mixture():
    # quality gate: on raw six-class mixtures the clustering must be nearly
    # perfect; the pipeline comparisons downstream assume this much.
    scores = []
    for seed in range(20):
        lat = sample_gmm(600, seed=seed)
        labels = kmeans(lat.points, 6, seed=seed)
        scores.append(rand_index(labels, lat.labels))
    assert float(np.median(scores)) > 0.99
