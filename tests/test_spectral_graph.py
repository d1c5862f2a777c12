import tracemalloc

import numpy as np
import pytest

import eotmaps.spectral_graph as spectral_graph
from eotmaps import (
    DimensionError,
    InputError,
    InvariantError,
    TransportPlan,
    build_operators,
    predicted_spectrum,
    quadratic_form,
    sinkhorn,
    spectral_model,
    transport_plan,
)

RNG = np.random.default_rng(52)


@pytest.fixture(scope="module")
def plan():
    X = RNG.normal(size=(8, 3))
    Y = RNG.normal(size=(13, 3))
    return transport_plan(X, Y, tol=1e-12)


@pytest.fixture(scope="module")
def ops(plan):
    return build_operators(plan)


def dense_operators(W):
    """The adjacency W_hat, the rescaling D and L_tilde = D (I - W_hat) D^{-1}."""
    m, n = W.shape
    What = np.block([[np.zeros((m, m)), W], [W.T, np.zeros((n, n))]])
    D = np.concatenate([np.full(m, np.sqrt(m)), np.full(n, np.sqrt(n))])
    Ltilde = (D[:, None] * (np.eye(m + n) - What)) / D[None, :]
    return What, D, Ltilde


def test_operator_layout(plan, ops):
    m, n = plan.shape
    N = m + n
    assert ops.m == m and ops.n == n
    What, _, Ltilde = dense_operators(plan.W)
    np.testing.assert_array_equal(ops.L, np.eye(N) - What)
    np.testing.assert_array_equal(ops.P, np.eye(N) - Ltilde)
    # the operators the bundle drops come back from L and P, bit for bit
    np.testing.assert_array_equal(np.eye(N) - ops.L, What)
    np.testing.assert_array_equal(np.eye(N) - ops.P, Ltilde)
    np.testing.assert_array_equal(-ops.L[:m, m:], plan.W)


def test_build_operators_large_plan_layout_and_peak():
    # 800 x 1200: L and P hold 2 N^2 doubles, and the build may allocate
    # little beyond them (the old construction peaked at about 4 N^2).
    X = RNG.normal(size=(800, 3))
    Y = RNG.normal(size=(1200, 3))
    plan = transport_plan(X, Y, tol=1e-12)
    N = 2000
    tracemalloc.start()
    try:
        ops = build_operators(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * N * N * 8
    What, _, Ltilde = dense_operators(plan.W)
    np.testing.assert_array_equal(ops.L, np.eye(N) - What)
    del What
    np.testing.assert_array_equal(ops.P, np.eye(N) - Ltilde)


def test_p_is_row_stochastic_and_nonnegative(ops):
    np.testing.assert_allclose(ops.P.sum(axis=1), 1.0, atol=1e-10)
    assert ops.P.min() >= 0.0


def marginal_violation(W):
    """The relative marginal violation build_operators gates at 1e-10."""
    m, n = W.shape
    return max(np.abs(W.sum(axis=1) / np.sqrt(n / m) - 1.0).max(),
               np.abs(W.sum(axis=0) / np.sqrt(m / n) - 1.0).max())


@pytest.mark.parametrize("m,n,scale", [(40, 60, 1.0), (60, 40, 1.0), (300, 200, 1.0),
                                       (40, 60, 1.0 + 0.9e-10), (60, 40, 1.0 - 0.9e-10)])
def test_p_row_sums_stay_within_the_marginal_gate(m, n, scale):
    # build_operators checks only the plan's marginals: P's row sums are
    # sqrt(m/n) times W's row sums and sqrt(n/m) times its column sums, so
    # they miss 1 by the gated violation plus the rounding of the sums.  A
    # scaled W puts the violation just under the 1e-10 gate.
    rng = np.random.default_rng(m * n)
    plan = transport_plan(rng.normal(size=(m, 3)), rng.normal(size=(n, 3)), tol=1e-12)
    W = plan.W * scale
    violation = marginal_violation(W)
    assert violation <= 1e-10 and (scale == 1.0 or violation > 0.8e-10)
    ops = build_operators(TransportPlan(W=W, epsilon=plan.epsilon))
    assert np.abs(ops.P.sum(axis=1) - 1.0).max() <= violation + 4 * np.finfo(float).eps


def test_quadratic_form_is_the_matrix_form(ops):
    rng = np.random.default_rng(53)
    for _ in range(5):
        f = rng.normal(size=ops.m + ops.n) * 3.0
        assert quadratic_form(ops, f) == float(f @ (ops.L @ f))


def test_similarity_preserves_spectrum(plan, ops):
    N = sum(plan.shape)
    What, D, Ltilde = dense_operators(plan.W)
    np.testing.assert_array_equal(ops.L, np.eye(N) - What)
    np.testing.assert_array_equal(ops.P, np.eye(N) - Ltilde)
    np.testing.assert_array_equal(Ltilde, (D[:, None] * ops.L) / D[None, :])
    sym = np.sort(np.linalg.eigvalsh(ops.L))
    gen = np.sort(np.linalg.eigvals(Ltilde).real)
    np.testing.assert_allclose(gen, sym, atol=1e-9)


def test_predicted_spectrum_matches_dense_eigensolve(plan, ops):
    m, n = plan.shape
    model = spectral_model(plan, k=m)
    values, vectors = predicted_spectrum(model)

    assert values.shape == (m + n,)
    assert np.all(np.diff(values) >= -1e-12)
    assert values[0] == pytest.approx(0.0, abs=1e-10)
    assert values[-1] == pytest.approx(2.0, abs=1e-10)

    dense = np.linalg.eigvalsh(ops.L)
    np.testing.assert_allclose(values, dense, atol=1e-10)

    # every predicted column is an eigenvector of L for its predicted value
    residual = ops.L @ vectors - vectors * values[None, :]
    assert np.abs(residual).max() <= 1e-10
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(m + n), atol=1e-10)


def test_predicted_spectrum_square_plan():
    X = RNG.normal(size=(6, 2))
    Y = RNG.normal(size=(6, 2))
    plan = transport_plan(X, Y, tol=1e-12)
    model = spectral_model(plan, k=6)
    values, vectors = predicted_spectrum(model)
    ops = build_operators(plan)
    np.testing.assert_allclose(values, np.linalg.eigvalsh(ops.L), atol=1e-10)
    assert np.abs(ops.L @ vectors - vectors * values[None, :]).max() <= 1e-10
    # no middle band when m == n: the spectrum is just 1 -+ s mirrored
    assert values.shape == (12,)
    np.testing.assert_allclose(values[:6], 1.0 - model.s, atol=1e-12)
    np.testing.assert_allclose(values[6:], (1.0 + model.s)[::-1], atol=1e-12)


def test_predicted_spectrum_structure(plan):
    m, n = plan.shape
    model = spectral_model(plan, k=m)
    values, vectors = predicted_spectrum(model)
    np.testing.assert_allclose(values[:m], 1.0 - model.s, atol=1e-12)
    np.testing.assert_allclose(values[m : m + (n - m)], 1.0, atol=0)
    np.testing.assert_allclose(values[n:], (1.0 + model.s)[::-1], atol=1e-12)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(vectors[:m, :m], model.U * inv_sqrt2, atol=1e-12)
    np.testing.assert_allclose(vectors[m:, :m], model.V * inv_sqrt2, atol=1e-12)
    # middle band lives entirely on the larger side, orthogonal to span(V)
    middle = vectors[:, m:n]
    np.testing.assert_array_equal(middle[:m], 0.0)
    np.testing.assert_allclose(model.V.T @ middle[m:], 0.0, atol=1e-10)


def test_predicted_spectrum_validation(plan):
    m, n = plan.shape
    model = spectral_model(plan, k=m)
    with pytest.raises(DimensionError):
        predicted_spectrum(spectral_model(plan, k=m - 1))
    with pytest.raises(InputError):
        predicted_spectrum("model")


def test_quadratic_form_hand_oracle():
    # m = n = 1 forces W = [[1]]; L = [[1,-1],[-1,1]] and
    # f = (2,-1) gives f^T L f = (2 - (-1))^2 = 9
    plan = sinkhorn(np.array([[0.0]]))
    ops = build_operators(plan)
    assert quadratic_form(ops, [2.0, -1.0]) == pytest.approx(9.0, abs=1e-12)


def test_quadratic_form_kernel_and_nonnegativity(ops):
    m, n = ops.m, ops.n
    # the constant-profile vector (1/sqrt(m), 1/sqrt(n)) is L's kernel
    f0 = np.concatenate([np.full(m, 1.0 / np.sqrt(m)), np.full(n, 1.0 / np.sqrt(n))])
    assert quadratic_form(ops, f0) == pytest.approx(0.0, abs=1e-12)
    for _ in range(10):
        f = RNG.normal(size=m + n)
        assert quadratic_form(ops, f) >= -1e-12


def test_quadratic_form_agrees_with_direct_evaluation(ops):
    f = RNG.normal(size=ops.m + ops.n)
    direct = float(f @ ops.L @ f)
    assert quadratic_form(ops, f) == pytest.approx(direct, rel=1e-12)


def test_quadratic_form_validation(ops):
    with pytest.raises(InputError):
        quadratic_form(ops, np.ones(3))
    with pytest.raises(InputError):
        quadratic_form(ops, np.full(ops.m + ops.n, np.nan))
    with pytest.raises(InputError):
        quadratic_form("ops", np.ones(4))


def test_build_operators_size_gate(plan, monkeypatch):
    monkeypatch.setattr(spectral_graph, "DEFAULT_MAX_SIZE", plan.shape[0] + plan.shape[1] - 1)
    with pytest.raises(DimensionError, match=r"^dense operators need m\+n <= \d+, got \d+$"):
        build_operators(plan)
    monkeypatch.setattr(spectral_graph, "DEFAULT_MAX_SIZE", plan.shape[0] + plan.shape[1])
    build_operators(plan)


def test_build_operators_rejects_violated_marginals():
    rng = np.random.default_rng(11)
    W = rng.uniform(0.1, 0.9, size=(4, 6))
    bogus = TransportPlan(W=W, epsilon=1.0)
    with pytest.raises(InvariantError):
        build_operators(bogus)


def test_predicted_spectrum_on_a_swapped_plan():
    # plan, model and graph are all in the caller's order, X (the larger
    # cloud) first, so the eigenvalue-1 band lies on X's rows
    X = RNG.normal(size=(30, 2))
    Y = RNG.normal(size=(20, 2))
    plan = transport_plan(X, Y, tol=1e-12)
    assert plan.W.shape == (len(X), len(Y))
    model = spectral_model(plan, k=20)
    values, vectors = predicted_spectrum(model)
    ops = build_operators(plan)
    assert np.abs(values - np.linalg.eigvalsh(ops.L)).max() <= 1e-8
    assert np.abs(ops.L @ vectors - vectors * values[None, :]).max() <= 1e-8
    assert np.abs(vectors.T @ vectors - np.eye(50)).max() <= 1e-10
    assert np.linalg.norm(ops.L @ vectors - vectors @ np.diag(values)) <= 1e-8
    np.testing.assert_array_equal(values[20:30], 1.0)
    assert not vectors[len(X):, 20:30].any()
