import numpy as np
import pytest

import eotmaps.linalg as linalg
from eotmaps import (
    DataMatrix,
    DimensionError,
    InputError,
    NumericalError,
    preset,
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


def test_svd_transpose_exchanges_factors():
    A = RNG.normal(size=(6, 9))
    s, U, V = truncated_svd(A, 6)
    s_t, U_t, V_t = truncated_svd(A.T, 6)
    np.testing.assert_allclose(s, s_t, atol=1e-12)
    # factors swap roles up to a joint sign per pair
    for k in range(6):
        sign = np.sign(U_t[:, k] @ V[:, k])
        np.testing.assert_allclose(U_t[:, k] * sign, V[:, k], atol=1e-10)
        np.testing.assert_allclose(V_t[:, k] * sign, U[:, k], atol=1e-10)


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
    assert dm.rows == 2 and dm.cols == 3
    assert not dm.values.flags.writeable
    with pytest.raises(InputError):
        DataMatrix(np.ones(3))
    with pytest.raises(InputError):
        DataMatrix(np.empty((0, 3)))
    with pytest.raises(InputError):
        DataMatrix(np.array([[1.0, np.inf]]))


@pytest.fixture(scope="module")
def plans():
    """Converged setting1 plans large enough for the subspace path at k = 5."""
    square = preset("setting1", 300, 300, 300, 0, 8.0)
    wide = preset("setting1", 300, 400, 300, 1, 8.0)
    return {
        "square": transport_plan(square.X.values, square.Y.values).W,
        "wide": transport_plan(wide.X.values, wide.Y.values).W,
    }


@pytest.mark.parametrize("name,transpose", [("square", False), ("wide", False), ("wide", True)])
def test_svd_subspace_path_matches_dense(plans, subspace_outcomes, name, transpose):
    W = plans[name].T if transpose else plans[name]
    s, U, V = truncated_svd(W, 5)
    assert subspace_outcomes == [True]
    s_full, U_full, V_full = truncated_svd(W, min(W.shape))
    np.testing.assert_allclose(s, s_full[:5], rtol=0, atol=1e-10)
    np.testing.assert_allclose(U, U_full[:, :5], rtol=0, atol=1e-10)
    np.testing.assert_allclose(V, V_full[:, :5], rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "transpose,k,subspace",
    [(False, 300, []), (True, 300, []), (False, 5, [True])],
    ids=["dense-wide", "dense-tall", "subspace"],
)
def test_svd_signs_give_positive_products(plans, subspace_outcomes, transpose, k, subspace):
    # The sign rule never evaluates u^T A v, so the factorization itself
    # must hand over positive products, down to values near 1e-8 * s_1 that
    # the residual checks cannot tell apart from a flipped pair.
    W = plans["wide"].T if transpose else plans["wide"]
    s, U, V = truncated_svd(W, k)
    assert subspace_outcomes == subspace
    products = np.einsum("ij,ij->j", U, W @ V)
    assert np.all(products[s > linalg.SINGULAR_FLOOR] > 0)


def test_svd_subspace_path_deterministic(plans, subspace_outcomes):
    first = truncated_svd(plans["square"], 5)
    second = truncated_svd(plans["square"].copy(), 5)
    assert subspace_outcomes == [True, True]
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


def test_svd_clustered_values_fall_back_to_dense(subspace_outcomes):
    # Leading values within 1e-3 of each other: the block converges at a
    # rate of about (s_10 / s_5)^2 per step, far beyond the step budget.
    rng = np.random.default_rng(5)
    Uo = np.linalg.qr(rng.normal(size=(300, 300)))[0]
    Vo = np.linalg.qr(rng.normal(size=(300, 300)))[0]
    A = (Uo * (1.0 + 1e-3 * np.linspace(1.0, 0.0, 300))) @ Vo.T
    s, U, V = truncated_svd(A, 5)
    assert subspace_outcomes == [False]
    s_full, U_full, V_full = truncated_svd(A, 300)
    np.testing.assert_array_equal(s, s_full[:5])
    np.testing.assert_array_equal(U, U_full[:, :5])
    np.testing.assert_array_equal(V, V_full[:, :5])


def test_svd_subspace_certificate_failure_raises(plans, monkeypatch):
    monkeypatch.setattr(linalg, "_CERTIFICATE_TOL", 0.0)
    with pytest.raises(NumericalError, match="residual"):
        truncated_svd(plans["square"], 5)
