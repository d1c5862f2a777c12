"""Property-based checks of the core numerical invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eotmaps import (
    build_operators,
    quadratic_form,
    rand_index,
    select_dimension,
    sinkhorn,
    squared_distance_matrix,
    transport_plan,
    truncated_svd,
)

finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


@st.composite
def log_kernels(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(m, 8))
    return draw(hnp.arrays(np.float64, (m, n), elements=st.floats(-5.0, 5.0)))


@settings(max_examples=40, deadline=None)
@given(log_kernels())
def test_sinkhorn_always_satisfies_marginals(logK):
    m, n = logK.shape
    plan = sinkhorn(logK, tol=1e-11)
    assert np.all(plan.W > 0)
    np.testing.assert_allclose(plan.W.sum(axis=1), np.sqrt(n / m), rtol=1e-10)
    np.testing.assert_allclose(plan.W.sum(axis=0), np.sqrt(m / n), rtol=1e-10)
    # diagonal-scaling structure survives for any kernel
    ratio = np.log(plan.W) - logK
    np.testing.assert_allclose(
        ratio, ratio[:, :1] + (ratio[:1] - ratio[0, 0]), atol=1e-8
    )


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 5)), elements=finite),
    hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 5)), elements=finite),
)
def test_squared_distances_match_brute_force(X, Y):
    if X.shape[1] != Y.shape[1]:
        Y = np.resize(Y, (Y.shape[0], X.shape[1]))
    D2 = squared_distance_matrix(X, Y)
    assert D2.min() >= 0.0
    brute = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2)
    scale = max(1.0, brute.max())
    np.testing.assert_allclose(D2, brute, atol=1e-9 * scale)


@st.composite
def descending_spectra(draw):
    length = draw(st.integers(2, 16))
    vals = draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=length, max_size=length)
    )
    return np.sort(np.asarray(vals))[::-1].copy()


@settings(max_examples=60, deadline=None)
@given(descending_spectra())
def test_select_dimension_definition(s):
    q = select_dimension(s)
    assert 1 <= q <= max(1, min(10, s.size - 2))
    if s.size == 2:
        return
    head = np.where(s > 1e-12 * s[0], s, 0.0)[:12]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = head[1:-1] / head[2:]
    ratios[np.isnan(ratios)] = 1.0
    assert (ratios[q - 1] >= ratios).all()
    assert (ratios[q - 1] > ratios[: q - 1]).all()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=2, max_size=50),
    st.permutations(list(range(5))),
)
def test_rand_index_respects_relabeling(labels, perm):
    a = np.asarray(labels)
    b = np.asarray([perm[v] for v in labels])
    assert rand_index(a, b) == 1.0
    assert 0.0 <= rand_index(a, a[::-1].copy()) <= 1.0


@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(2, 7), st.integers(2, 7)),
        elements=st.floats(-10.0, 10.0, allow_nan=False),
    )
)
def test_svd_reconstructs_any_matrix(A):
    k = min(A.shape)
    s, U, V = truncated_svd(A, k)
    scale = max(1.0, np.abs(A).max())
    np.testing.assert_allclose((U * s) @ V.T, A, atol=1e-8 * scale)
    np.testing.assert_allclose(U.T @ U, np.eye(k), atol=1e-9)
    np.testing.assert_allclose(V.T @ V, np.eye(k), atol=1e-9)
    assert np.all(s >= 0) and np.all(np.diff(s) <= 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_quadratic_form_is_positive_semidefinite(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(2, 6), rng.integers(2, 8)
    plan = transport_plan(rng.normal(size=(m, 3)), rng.normal(size=(n, 3)), tol=1e-12)
    ops = build_operators(plan)  # caller's order: ops.m = |X|, ops.n = |Y|
    f = rng.normal(size=ops.m + ops.n) * 10
    value = quadratic_form(ops, f)
    assert value >= -1e-10
    # shifting f along the kernel direction leaves the form unchanged
    shift = np.concatenate(
        [np.full(ops.m, 1 / np.sqrt(ops.m)), np.full(ops.n, 1 / np.sqrt(ops.n))]
    )
    shifted = quadratic_form(ops, f + 3.7 * shift)
    assert shifted == pytest.approx(value, rel=1e-6, abs=1e-9)
