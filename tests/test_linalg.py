import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eotmaps.linalg as linalg
from eotmaps import (
    DataMatrix,
    DimensionError,
    InputError,
    median_bandwidth,
    preset,
    squared_distance_matrix,
    transport_plan,
    truncated_svd,
)

RNG = np.random.default_rng(20260817)


def test_svd_hand_oracle_2x2():
    # A = [[3,0],[4,5]]: A A^T = [[9,12],[12,41]] has eigenvalues 45 and 5
    # (trace 50, det 225), so s = (sqrt(45), sqrt(5)); eigenvectors worked
    # out by hand below.
    A = np.array([[3.0, 0.0], [4.0, 5.0]])
    s, U, V = truncated_svd(A, 2)
    np.testing.assert_allclose(s, [6.708203932499369, 2.23606797749979], rtol=0, atol=1e-14)
    inv_sqrt10 = 1.0 / np.sqrt(10.0)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    expected_U = np.array([[inv_sqrt10, 3 * inv_sqrt10], [3 * inv_sqrt10, -inv_sqrt10]]).T.T
    np.testing.assert_allclose(U[:, 0], [inv_sqrt10, 3 * inv_sqrt10], atol=1e-14)
    np.testing.assert_allclose(U[:, 1], [3 * inv_sqrt10, -inv_sqrt10], atol=1e-14)
    np.testing.assert_allclose(V[:, 0], [inv_sqrt2, inv_sqrt2], atol=1e-14)
    np.testing.assert_allclose(V[:, 1], [inv_sqrt2, -inv_sqrt2], atol=1e-14)
    assert expected_U.shape == (2, 2)


def test_svd_sign_convention_negative_diagonal():
    # diag(2, -3): the s=3 pair must come out as u=+e2, v=-e2 so that
    # u^T A v = 3 >= 0 with u's largest entry positive.
    A = np.diag([2.0, -3.0])
    s, U, V = truncated_svd(A, 2)
    np.testing.assert_allclose(s, [3.0, 2.0], atol=0)
    np.testing.assert_allclose(U[:, 0], [0.0, 1.0], atol=0)
    np.testing.assert_allclose(V[:, 0], [0.0, -1.0], atol=0)
    np.testing.assert_allclose(U[:, 1], [1.0, 0.0], atol=0)
    np.testing.assert_allclose(V[:, 1], [1.0, 0.0], atol=0)


def test_sign_rule_takes_first_of_near_tied_entries():
    # an exact tie in |u| that LAPACK rounded a few ulps apart: the first
    # entry decides, so u flips (and v with it) although |u_3| is larger.
    s = np.array([1.0])
    U = np.array([[-0.4999999999999999], [-0.4999999999999999], [0.5], [0.5]])
    V = np.array([[0.6], [-0.8]])
    linalg._fix_singular_signs(s, U, V)
    assert U[0, 0] > 0
    np.testing.assert_array_equal(U[:, 0], [0.4999999999999999, 0.4999999999999999, -0.5, -0.5])
    np.testing.assert_array_equal(V[:, 0], [-0.6, 0.8])


@pytest.mark.parametrize("m,n", [(5, 7), (7, 5), (6, 6), (1, 4), (9, 3)])
def test_svd_invariants_random(m, n):
    A = RNG.normal(size=(m, n))
    k = min(m, n)
    s, U, V = truncated_svd(A, k)

    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
    np.testing.assert_allclose(U.T @ U, np.eye(k), atol=1e-10)
    np.testing.assert_allclose(V.T @ V, np.eye(k), atol=1e-10)
    # rotation residual, relative to the spectral norm
    assert np.abs(A @ V - U * s).max() <= 1e-8 * s[0]
    assert np.abs(A.T @ U - V * s).max() <= 1e-8 * s[0]
    # full-rank reconstruction
    np.testing.assert_allclose(U * s @ V.T, A, atol=1e-8 * np.abs(A).max())
    # independent route: squared singular values are Gram eigenvalues
    lam = np.linalg.eigvalsh(A @ A.T if m <= n else A.T @ A)[::-1][:k]
    np.testing.assert_allclose(s**2, np.maximum(lam, 0.0), atol=1e-10 * max(1.0, lam[0]))


def test_svd_truncation_matches_leading_block():
    A = RNG.normal(size=(8, 11))
    s_full, U_full, V_full = truncated_svd(A, 8)
    s, U, V = truncated_svd(A, 3)
    np.testing.assert_array_equal(s, s_full[:3])
    np.testing.assert_array_equal(U, U_full[:, :3])
    np.testing.assert_array_equal(V, V_full[:, :3])


def test_svd_transpose_exchanges_factors(svd_paths):
    # both orientations factor the same wide array, so the factors swap exactly
    A = RNG.normal(size=(6, 9))
    s, U, V = truncated_svd(A, 6)
    for a, b in zip((s, V, U), truncated_svd(A.T, 6)):
        np.testing.assert_array_equal(a, b)
    assert svd_paths == ["dense", "dense"]


def test_svd_deterministic():
    A = RNG.normal(size=(10, 4))
    first = truncated_svd(A, 4)
    second = truncated_svd(A.copy(), 4)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


def test_svd_accepts_data_matrix():
    A = RNG.normal(size=(4, 6))
    s1, _, _ = truncated_svd(DataMatrix(A), 2)
    s2, _, _ = truncated_svd(A, 2)
    np.testing.assert_array_equal(s1, s2)


def test_svd_input_validation():
    A = RNG.normal(size=(4, 5))
    with pytest.raises(DimensionError):
        truncated_svd(A, 0)
    with pytest.raises(DimensionError):
        truncated_svd(A, 5)
    with pytest.raises(InputError):
        truncated_svd(A, 2.5)
    with pytest.raises(InputError):
        truncated_svd(np.array([[np.nan, 1.0]]), 1)
    with pytest.raises(InputError):
        truncated_svd(np.ones(3), 1)


def test_data_matrix_validation():
    dm = DataMatrix(np.arange(6.0).reshape(2, 3))
    assert dm.values.shape == (2, 3)
    assert not dm.values.flags.writeable
    with pytest.raises(InputError):
        DataMatrix(np.ones(3))
    with pytest.raises(InputError):
        DataMatrix(np.empty((0, 3)))
    with pytest.raises(InputError):
        DataMatrix(np.array([[1.0, np.inf]]))


@pytest.fixture(scope="module")
def plans():
    """Converged setting1 plans large enough for the subspace path at k = 5, and
    a 400 x 100 clustering plan at median/100 whose flat leading values (like
    wide-sharp's) make subspace iteration hand off to the Gram path."""
    square = preset("setting1", 300, 300, 300, 0, 8.0)
    wide = preset("setting1", 300, 400, 300, 1, 8.0)
    flat = preset("clustering", 400, 100, 50, 0, 1.0)
    epsilon = median_bandwidth(squared_distance_matrix(flat.X.values, flat.Y.values)) / 100.0
    return {
        "square": transport_plan(square.X.values, square.Y.values).W,
        "wide": transport_plan(wide.X.values, wide.Y.values).W,
        "flat": transport_plan(flat.X.values, flat.Y.values, epsilon=epsilon).W,
    }


@pytest.mark.parametrize("name,transpose", [("square", False), ("wide", False), ("wide", True)])
def test_svd_subspace_path_matches_dense(plans, svd_paths, name, transpose):
    # setting1's spectrum decays fast enough at k = 5 that no plan hands off
    W = plans[name].T if transpose else plans[name]
    s, U, V = truncated_svd(W, 5)
    assert svd_paths == ["subspace"]
    s_full, U_full, V_full = truncated_svd(W, min(W.shape))
    np.testing.assert_allclose(s, s_full[:5], rtol=0, atol=1e-10)
    np.testing.assert_allclose(U, U_full[:, :5], rtol=0, atol=1e-10)
    np.testing.assert_allclose(V, V_full[:, :5], rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "transpose,k,path",
    [(False, 300, "dense"), (True, 300, "dense"), (False, 5, "subspace"), (True, 12, "gram")],
    ids=["dense-wide", "dense-tall", "subspace", "gram"],
)
def test_svd_signs_give_positive_products(plans, svd_paths, transpose, k, path):
    # The sign rule never evaluates u^T A v, so the factorization itself
    # must hand over positive products, down to values near 1e-8 * s_1 that
    # the residual checks cannot tell apart from a flipped pair.
    W = plans["wide"].T if transpose else plans["wide"]
    s, U, V = truncated_svd(W, k)
    assert svd_paths == [path]
    products = np.einsum("ij,ij->j", U, W @ V)
    assert np.all(products[s > linalg.SINGULAR_FLOOR] > 0)


def test_svd_subspace_path_deterministic(plans, svd_paths):
    first = truncated_svd(plans["square"], 5)
    second = truncated_svd(plans["square"].copy(), 5)
    assert svd_paths == ["subspace", "subspace"]
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


def _rotated(values, seed=5):
    """A square matrix with the given singular values and random singular vectors."""
    rng = np.random.default_rng(seed)
    Uo = np.linalg.qr(rng.normal(size=(values.size, values.size)))[0]
    Vo = np.linalg.qr(rng.normal(size=(values.size, values.size)))[0]
    return (Uo * values) @ Vo.T


# Leading values within 1e-3 of each other: the block converges at a rate of
# about (s_10 / s_5)^2 per step, so subspace iteration hands off.
CLUSTERED = _rotated(1.0 + 1e-3 * np.linspace(1.0, 0.0, 300))


def test_svd_clustered_values_hand_off_to_gram(svd_paths):
    s, U, V = truncated_svd(CLUSTERED, 5)
    assert svd_paths == ["gram"]
    s_full, U_full, V_full = truncated_svd(CLUSTERED, 300)
    np.testing.assert_allclose(s, s_full[:5], rtol=0, atol=1e-10)
    np.testing.assert_allclose(U, U_full[:, :5], rtol=0, atol=1e-10)
    np.testing.assert_allclose(V, V_full[:, :5], rtol=0, atol=1e-10)


def test_svd_subspace_hand_off_is_early():
    # the hand-off rule needs three residuals, so it reads four A Q products
    triplets, steps = linalg._subspace_svd(CLUSTERED, 5)
    assert triplets is None and steps <= 5


@pytest.mark.parametrize("transpose", [False, True], ids=["tall", "wide"])
def test_svd_gram_path_matches_dense(plans, svd_paths, transpose):
    W = plans["flat"].T if transpose else plans["flat"]
    s, U, V = truncated_svd(W, 5)
    for a, b in zip((s, U, V), truncated_svd(W.copy(), 5)):
        np.testing.assert_array_equal(a, b)
    assert svd_paths == ["gram", "gram"]
    s_full, U_full, V_full = truncated_svd(W, 100)
    np.testing.assert_allclose(s, s_full[:5], rtol=0, atol=1e-10)
    np.testing.assert_allclose(U, U_full[:, :5], rtol=0, atol=1e-10)
    np.testing.assert_allclose(V, V_full[:, :5], rtol=0, atol=1e-10)


@pytest.mark.parametrize("name,path", [("wide", "subspace"), ("flat", "gram")])
def test_svd_transpose_mirrors_the_iterative_paths(plans, svd_paths, name, path):
    W = plans[name]
    s, U, V = truncated_svd(W, 5)
    for a, b in zip((s, V, U), truncated_svd(W.T, 5)):
        np.testing.assert_array_equal(a, b)
    assert svd_paths == [path, path]


@pytest.mark.parametrize(
    "name,k,path", [("wide", 5, "subspace"), ("flat", 5, "gram"), ("wide", 90, "dense")]
)
def test_svd_s_next_is_the_following_value(plans, svd_paths, name, k, path):
    W = plans[name]
    result = truncated_svd(W, k)
    assert svd_paths == [path]
    assert truncated_svd(W.T, k).s_next == result.s_next
    assert pickle.loads(pickle.dumps(result)).s_next == result.s_next
    s_true = np.linalg.svd(W, compute_uv=False)
    if path == "dense":  # the SVD the triplets are sliced from
        assert result.s_next == np.linalg.svd(W, full_matrices=False)[1][k]
        assert truncated_svd(W, min(W.shape)).s_next is None
    elif path == "gram":  # W W^T rounds at about eps * s_1^2
        eps = np.finfo(float).eps
        assert abs(result.s_next - s_true[k]) <= 4 * eps * s_true[0] ** 2 / s_true[k]
    else:  # a Ritz value of the block, below s_{k+1} by interlacing
        assert result.s_next <= s_true[k] + 1e-15 * s_true[0]


def test_svd_gram_certificate_failure_goes_dense(svd_paths):
    # s_17..s_20 sit in a cluster at 1e-9 < sqrt(eps): subspace iteration
    # hands off, and the Gram product has rounded those values away.
    values = np.concatenate([np.logspace(0, -9, 16), 1e-9 * (1.0 + 1e-3 * np.linspace(1.0, 0.0, 284))])
    A = _rotated(values)
    s, U, V = truncated_svd(A, 20)
    assert svd_paths == ["dense"]
    s_full, U_full, V_full = truncated_svd(A, 300)
    np.testing.assert_array_equal(s, s_full[:20])
    np.testing.assert_array_equal(U, U_full[:, :20])
    np.testing.assert_array_equal(V, V_full[:, :20])


def test_svd_overflowing_norms_go_dense(svd_paths):
    # entries near 1e200 overflow the residual norms and W W^T; the dense
    # SVD scales them and still serves the call
    A = 1e200 * np.random.default_rng(3).normal(size=(60, 80))
    with np.errstate(over="ignore", invalid="ignore"):
        s, U, V = truncated_svd(A, 3)
    assert svd_paths == ["dense"]
    s_full, U_full, V_full = truncated_svd(A, 60)
    np.testing.assert_array_equal(s, s_full[:3])
    np.testing.assert_array_equal(U, U_full[:, :3])


def test_svd_gram_memory_error_names_the_size(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np.linalg, "eigh", exhausted)
    with pytest.raises(InputError, match=r"300 x 300 matrix does not fit in memory.*MiB"):
        truncated_svd(CLUSTERED, 5)


@pytest.mark.parametrize(
    "name,columns,transpose",
    [("wide", 400, False), ("wide", 400, True), ("square", 300, False),
     ("wide", 359, False), ("wide", 360, False), ("flat", 100, False)],
    ids=["wide", "tall", "square", "below-crossover", "at-crossover", "tall-aspect-4"],
)
def test_singular_values_match_the_plain_svd(plans, monkeypatch, name, columns, transpose):
    # plans (s_1 = 1) and blocks of them, as the CLI passes; on Gaussian
    # 400 x 300 matrices, whose values are all large, the two SVDs differed
    # by up to 17 eps * s_1
    A = plans[name][:, :columns]
    A = A.T if transpose else A
    wide = linalg._wide(A)
    plain = np.linalg.svd(A, compute_uv=False)
    qr_calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: qr_calls.append(1) or qr(*args, **kwargs))
    s = linalg.singular_values(A)
    assert s.shape == (min(A.shape),)
    np.testing.assert_allclose(s, plain, rtol=0, atol=4 * np.finfo(float).eps * plain[0])
    assert (np.diff(s) <= 0).all()
    # QR first from N >= 6/5 r; below that, the bits of the plain SVD
    assert bool(qr_calls) == (wide.shape[1] >= 1.2 * wide.shape[0])
    if not qr_calls:
        np.testing.assert_array_equal(s, np.linalg.svd(wide, compute_uv=False))
    if A.shape[0] != A.shape[1]:
        np.testing.assert_array_equal(s, linalg.singular_values(A.T))


def test_singular_values_qr_memory_error_names_the_size(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np.linalg, "qr", exhausted)
    with pytest.raises(InputError, match=r"40 x 100 matrix does not fit in memory.*MiB"):
        linalg.singular_values(np.ones((40, 100)))


_CHILD = """
import sys
import numpy as np
import eotmaps.linalg as linalg

W = np.load(sys.argv[1])
wide = linalg._wide(W)  # the orientation truncated_svd factors
if linalg._subspace_svd(wide, 5)[0] is not None:
    path = "subspace"
else:
    path = "dense" if linalg._gram_svd(wide, 5) is None else "gram"
np.savez(sys.argv[2], *linalg.truncated_svd(W, 5), path=path)
"""


def test_svd_gram_path_agrees_across_thread_counts(plans, tmp_path):
    # CI runs the suite at 1 and 2 BLAS threads in separate steps, so only a
    # child process per thread count can compare the two on one input.
    np.save(tmp_path / "plan.npy", plans["flat"])
    src = str(Path(linalg.__file__).resolve().parents[1])
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npz"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path / "plan.npy"), str(out)],
                       env=env, check=True, timeout=300)
        results.append(np.load(out))
    one, two = results
    assert str(one["path"]) == str(two["path"]) == "gram"
    for key in ("arr_0", "arr_1", "arr_2"):
        np.testing.assert_allclose(one[key], two[key], rtol=0, atol=1e-12)


def test_svd_subspace_certificate_failure_goes_dense(plans, svd_paths, monkeypatch):
    # a certificate no proposal can meet: every call is served by the dense SVD
    monkeypatch.setattr(linalg, "_CERTIFICATE_TOL", 0.0)
    s, U, V = truncated_svd(plans["square"], 5)
    assert svd_paths == ["dense"]
    s_full, U_full, V_full = truncated_svd(plans["square"], 300)
    np.testing.assert_array_equal(s, s_full[:5])
    np.testing.assert_array_equal(U, U_full[:, :5])
    np.testing.assert_array_equal(V, V_full[:, :5])
