import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eotmaps.transport as transport
from eotmaps import (
    ConvergenceError,
    DegenerateBandwidthError,
    InputError,
    NumericalError,
    TransportPlan,
    median_bandwidth,
    preset,
    sinkhorn,
    spectral_model,
    squared_distance_matrix,
    transport_plan,
)
from eotmaps.linalg import as_matrix

RNG = np.random.default_rng(8160219)


def row_target(m, n):
    return np.sqrt(n / m)


def col_target(m, n):
    return np.sqrt(m / n)


def marginal_residual(W):
    m, n = W.shape
    row = np.abs(W.sum(axis=1) / row_target(m, n) - 1.0).max()
    col = np.abs(W.sum(axis=0) / col_target(m, n) - 1.0).max()
    return max(row, col)


MIX_MEMORY = 5  # the constants of transport.sinkhorn
MIX_START = 5
ABSORB_DRIFT = 30.0
MIX_BOUND = 1e4


def oracle_sinkhorn(logK, tol=1e-10, max_iter=10000, mix=True, kernel_space=True):
    """The straightforward sweep: W rebuilt each sweep and its sums read.

    One sweep maps the row dual f to T(f) (column update g, then row update).
    The first f is one log-sum-exp row update against g = 0, and every
    sweep runs in kernel space: with K~ = exp(f0 + logK + g0) of duals
    absorbed at the first sweep, and again once f is more than ABSORB_DRIFT
    from f0, b = col_target / (K~^T exp(f - f0)) is exp(g - g0) and
    T(f) = f0 + log(row_target / (K~ b)).  A sweep whose sums are not
    positive and finite takes both updates as log-sum-exps, and the next
    absorbs afresh.  ``kernel_space=False`` takes every sweep in the log
    domain.
    From sweep MIX_START on, (f, T(f)) joins a history of the last
    MIX_MEMORY + 1 sweeps, and once it holds two, the next f is their
    type-II Anderson mix when it lies within MIX_BOUND plain steps
    |T(f) - f| of T(f); otherwise, and when the marginal residual rises,
    the history is cleared and the plain step T(f) taken.  The least-squares fit solves the normal
    equations with einsum as ``sinkhorn`` does: it is ill-conditioned near
    convergence, and a QR solve moves W by ~1e-13.  ``mix=False`` gives
    plain Sinkhorn.  Returns the plan W and the number of sweeps.
    """

    def lse_rows(M):
        mx = M.max(axis=1, keepdims=True)
        return (mx + np.log(np.exp(M - mx).sum(axis=1, keepdims=True))).ravel()

    def kernel_sweep(f, f0, g0):
        with np.errstate(all="ignore"):
            K = np.exp(f0[:, None] + logK + g0[None, :])
            b = np.exp(-log_row) / np.einsum("ij,i->j", K, np.exp(f - f0))
            a = np.exp(log_row) / np.einsum("ij,j->i", K, b)
        if not all(v.min() > 0 and np.isfinite(v.max()) for v in (a, b)):
            return None
        return g0 + np.log(b), f0 + np.log(a)

    m, n = logK.shape
    log_row = 0.5 * (np.log(n) - np.log(m))
    f = log_row - lse_rows(logK)
    g, f0 = np.zeros(n), None
    history, last_residual = [], np.inf
    for sweep in range(1, max_iter + 1):
        step = None
        if kernel_space:
            if f0 is None or np.abs(f - f0).max() > ABSORB_DRIFT:
                f0, g0 = f, g
            step = kernel_sweep(f, f0, g0)
        if step is None:
            f0 = None
            g = -log_row - lse_rows(logK.T + f[None, :])
            f_next = log_row - lse_rows(logK + g[None, :])
        else:
            g, f_next = step
        W = np.exp(f[:, None] + logK + g[None, :])
        residual = max(
            np.abs(W.sum(axis=1) / row_target(m, n) - 1.0).max(),
            np.abs(W.sum(axis=0) / col_target(m, n) - 1.0).max(),
        )
        if residual <= tol:
            break
        if residual > last_residual:
            history = []
        last_residual = residual
        if mix and sweep >= MIX_START:
            history = history[-MIX_MEMORY:] + [(f, f_next)]
        step = np.abs(f_next - f).max()
        f = f_next
        if len(history) > 1:
            F = np.array([h[0] for h in history])
            T = np.array([h[1] for h in history])
            dR = np.diff(T - F, axis=0)
            rhs = np.einsum("ik,k->i", dR, T[-1] - F[-1])
            gamma = np.linalg.lstsq(np.einsum("ik,jk->ij", dR, dR), rhs, rcond=None)[0]
            mixed = T[-1] - np.einsum("i,ik->k", gamma, np.diff(T, axis=0))
            with np.errstate(all="ignore"):
                if np.abs(mixed - f_next).max() <= MIX_BOUND * step:
                    f = mixed
                else:
                    history = []
    return np.exp(f[:, None] + logK + g[None, :]), sweep


def test_squared_distance_hand_oracle():
    X = np.array([[0.0, 0.0], [1.0, 2.0]])
    Y = np.array([[1.0, 1.0], [3.0, 4.0], [0.0, 1.0]])
    D2 = squared_distance_matrix(X, Y)
    np.testing.assert_allclose(D2, [[2.0, 25.0, 1.0], [1.0, 8.0, 2.0]], atol=1e-12)


def test_squared_distance_nonnegative_and_symmetric_zero_diag():
    X = RNG.normal(size=(40, 7))
    D2 = squared_distance_matrix(X, X)
    assert D2.min() >= 0.0
    np.testing.assert_allclose(np.diag(D2), 0.0, atol=1e-10)
    np.testing.assert_allclose(D2, D2.T, atol=1e-10)
    # brute-force route
    i, j = 3, 17
    np.testing.assert_allclose(D2[i, j], ((X[i] - X[j]) ** 2).sum(), rtol=1e-12)


def test_squared_distance_rejects_overflow():
    # 1e154 squares to 1e308: finite, but the expansion's bound is not
    for big in (1e200, 1e154):
        with pytest.raises(InputError, match="rescale"):
            squared_distance_matrix(np.array([[big], [0.0]]), np.zeros((2, 1)))
        with pytest.raises(InputError, match="rescale"):
            squared_distance_matrix(np.zeros((2, 1)), np.array([[0.0], [-big]]))
    D2 = squared_distance_matrix(np.array([[1e150]]), np.array([[-1e150]]))
    assert D2[0, 0] == pytest.approx(4e300)


def test_squared_distance_dimension_mismatch():
    with pytest.raises(InputError):
        squared_distance_matrix(np.ones((3, 2)), np.ones((4, 3)))


def test_median_bandwidth_hand_oracle():
    # pairwise squared distances {1, 9, 0, 4} -> median (1+4)/2 = 2.5
    X = np.array([[0.0], [1.0]])
    Y = np.array([[1.0], [3.0]])
    D2 = squared_distance_matrix(X, Y)
    assert median_bandwidth(D2) == 2.5


def test_median_bandwidth_degenerate():
    with pytest.raises(DegenerateBandwidthError):
        median_bandwidth(np.zeros((3, 3)))


def expansion_reference(X, Y):
    """The one-line norm expansion that ``squared_distance_matrix`` finishes in blocks."""
    sq_x = np.einsum("ij,ij->i", X, X)
    sq_y = np.einsum("ij,ij->i", Y, Y)
    return np.maximum(sq_x[:, None] + sq_y[None, :] - 2.0 * (X @ Y.T), 0.0)


def laid_out(a, layout):
    """``a`` in C order, in Fortran order, or as a view of every other column of a wider array."""
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "sliced":
        wide = np.zeros((a.shape[0], 2 * a.shape[1]))
        wide[:, ::2] = a
        return wide[:, ::2]
    return a


BLOCK_ROW = transport._BLOCK_ENTRIES + 3  # one row longer than a whole block


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(1, 9), (9, 1), (1, 1), (3, 400), (400, 3), (37, 53), (2, BLOCK_ROW), (BLOCK_ROW, 2)]),
    st.integers(1, 6),
    st.sampled_from(["C", "F", "sliced"]),
    st.integers(0, 2**32 - 1),
)
def test_squared_distances_are_the_one_line_expansion_bit_for_bit(shape, p, layout, seed):
    rng = np.random.default_rng(seed)
    X = laid_out(rng.normal(size=(shape[0], p)), layout)
    Y = laid_out(3.0 * rng.normal(size=(shape[1], p)), layout)
    assert np.array_equal(squared_distance_matrix(X, Y), expansion_reference(X, Y))


def test_squared_distances_clip_integer_cancellation_to_exact_zeros():
    # near 1e9 the squares round, and |x|^2 + |y|^2 - 2 x.y comes out
    # negative for some pairs: those entries are clipped to exactly 0
    X = np.arange(10**9, 10**9 + 64)[:, None]
    Y = X[::-1] + np.arange(64)[:, None] % 2
    Xf, Yf = X.astype(float), Y.astype(float)
    sq_x, sq_y = (np.einsum("ij,ij->i", a, a) for a in (Xf, Yf))
    clipped = sq_x[:, None] + sq_y[None, :] - 2.0 * (Xf @ Yf.T) < 0
    assert clipped.any()
    D2 = squared_distance_matrix(X, Y)
    assert np.array_equal(D2, expansion_reference(Xf, Yf))
    assert (D2[clipped] == 0.0).all() and D2.min() == 0.0


def test_squared_distances_allocate_one_block_beyond_the_result():
    X = RNG.normal(size=(1000, 5))
    Y = RNG.normal(size=(900, 5))
    squared_distance_matrix(X, Y)  # numpy loads internals lazily on a first call
    assert traced_peak(lambda: squared_distance_matrix(X, Y)) < 1.25 * 1000 * 900 * 8


def spy_on_median(monkeypatch):
    """Count the calls ``median_bandwidth`` makes to ``np.median`` (its fallback)."""
    calls = []
    median = np.median
    monkeypatch.setattr(np, "median", lambda a: calls.append(a.shape) or median(a))
    return calls


def median_cases():
    rng = np.random.default_rng(23)
    D2 = squared_distance_matrix(rng.normal(size=(301, 4)), rng.normal(size=(203, 4)))
    square = squared_distance_matrix(rng.normal(size=(400, 4)), rng.normal(size=(400, 4)))
    # every column a multiple of the stride before it is made coprime holds a large value
    period = square.size // transport._SAMPLE
    periodic = rng.uniform(1.0, 2.0, size=square.shape) + np.where(np.arange(400) % period, 0.0, 50.0)
    return {
        "odd": D2,  # 61,103 entries
        "even": D2[:, 1:],
        "ties": rng.integers(1, 6, size=(250, 240)).astype(float),
        "constant": np.full((220, 230), 2.5),
        "row": D2.reshape(1, -1),
        "column": D2.reshape(-1, 1),
        "fortran": np.asfortranarray(square),
        "every other column": square[:, ::2],
        "transposed": square.T,
        "periodic columns": periodic,
        "small odd": D2[:5, :7],  # the sample is the whole array
        "small even": D2[:6, :7],
        "single entry": D2[:1, :1],
    }


@pytest.mark.parametrize("case", list(median_cases()))
def test_median_bandwidth_has_np_median_bits(case, monkeypatch):
    D2 = median_cases()[case]
    expected = np.median(D2)
    calls = spy_on_median(monkeypatch)
    med = median_bandwidth(D2)
    assert type(med) is float and np.float64(med).tobytes() == expected.tobytes()
    assert calls == []  # selected from the bracket, not by the fallback


def test_median_bandwidth_falls_back_when_the_sample_misleads(monkeypatch):
    # every sampled entry is far above the rest, so the bracket sits above
    # the median and np.median decides
    rng = np.random.default_rng(5)
    D2 = rng.uniform(1.0, 2.0, size=(300, 410))
    D2.ravel()[:: transport._sample_stride(D2.size)] += 1e6
    expected = np.median(D2)
    calls = spy_on_median(monkeypatch)
    assert np.float64(median_bandwidth(D2)).tobytes() == expected.tobytes()
    assert calls == [D2.shape]


@pytest.mark.parametrize("shape", [(3, 3), (300, 300)], ids=["whole sample", "bracket"])
def test_median_bandwidth_keeps_its_errors(shape):
    D2 = np.zeros(shape)
    D2[: shape[0] // 3] = 1.0  # most entries are zero
    with pytest.raises(DegenerateBandwidthError):
        median_bandwidth(D2)
    for i in (0, D2.size // 2, D2.size - 1):
        bad = np.ones(shape)
        bad.flat[i] = -1e-300
        with pytest.raises(InputError, match="D2 must be nonnegative"):
            median_bandwidth(bad)
        bad.flat[i] = np.nan
        with pytest.raises(InputError, match="D2 contains non-finite"):
            median_bandwidth(bad)


def test_median_bandwidth_makes_no_copy_of_d2():
    D2 = squared_distance_matrix(RNG.normal(size=(1000, 3)), RNG.normal(size=(1000, 3)))
    median_bandwidth(D2)
    assert traced_peak(lambda: median_bandwidth(D2)) < 0.25 * D2.nbytes


def test_complex_points_are_rejected_not_cast():
    # np.asarray(dtype=float) would drop the imaginary part with only a ComplexWarning
    points = np.array([[1.0 + 2.0j, 3.0], [0.0, 1.0]])
    with pytest.raises(InputError, match="X must be a matrix of real numbers"):
        as_matrix(points, "X")
    with pytest.raises(InputError, match="Y must be a matrix of real numbers"):
        squared_distance_matrix(np.ones((2, 2)), points)
    with pytest.raises(InputError, match="X must be a matrix of real numbers"):
        transport_plan(points.astype(np.complex64), np.ones((3, 2)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_complex_rows_nested_in_a_list_are_rejected_not_cast():
    # a list of complex rows has no dtype to read: numpy's ComplexWarning on
    # the cast, not a [[1., 3.]] that lost its imaginary part, decides
    rows = [np.array([1.0 + 2.0j, 3.0]), np.array([0.0, 1.0])]
    with pytest.raises(InputError, match="X must be a matrix of real numbers"):
        as_matrix(rows[:1], "X")
    with pytest.raises(InputError, match="Y must be a matrix of real numbers"):
        squared_distance_matrix(np.ones((2, 2)), rows)
    with pytest.raises(InputError, match="X must be a matrix of real numbers"):
        transport_plan([np.complex64(1.0 + 1.0j) * np.ones(2)] * 2, np.ones((3, 2)))
    np.testing.assert_array_equal(as_matrix([np.array([1.0, 3.0])], "X"), [[1.0, 3.0]])


def test_sinkhorn_single_entry():
    # the 1x1 plan is fully determined by its marginals: W = [[1]]
    plan = sinkhorn(np.log(np.array([[0.37]])))
    np.testing.assert_allclose(plan.W, [[1.0]], atol=1e-12)


def test_sinkhorn_constant_kernel_2x2():
    plan = sinkhorn(np.zeros((2, 2)))
    np.testing.assert_allclose(plan.W, np.full((2, 2), 0.5), atol=1e-10)


def test_sinkhorn_rectangular_1x2_kernel_independent():
    # with one row, the column constraints fix W = (1/sqrt(2), 1/sqrt(2))
    # regardless of the kernel entries.
    logK = np.log(np.array([[0.2, 5.0]]))
    plan = sinkhorn(logK)
    np.testing.assert_allclose(plan.W, [[2.0**-0.5, 2.0**-0.5]], atol=1e-10)


def test_sinkhorn_symmetric_2x2_closed_form():
    # K = [[1,c],[c,1]] scales to W = K/(1+c): symmetric scalings alpha=beta
    # with alpha^2 (1+c) = 1 satisfy both marginals (targets are 1 here).
    c = np.exp(-1.0)
    logK = np.array([[0.0, -1.0], [-1.0, 0.0]])
    plan = sinkhorn(logK)
    w = 1.0 / (1.0 + c)
    z = c / (1.0 + c)
    np.testing.assert_allclose(plan.W, [[w, z], [z, w]], atol=1e-10)
    assert w == pytest.approx(0.7310585786300049, abs=1e-12)
    assert z == pytest.approx(0.2689414213699951, abs=1e-12)


@pytest.mark.parametrize("m,n", [(5, 5), (6, 11), (13, 7)])
def test_sinkhorn_marginals_random(m, n):
    logK = RNG.normal(size=(m, n))
    plan = sinkhorn(logK, tol=1e-12)
    assert marginal_residual(plan.W) <= 1e-11
    assert np.all(plan.W > 0)
    assert plan.iterations >= 1


@pytest.mark.parametrize("m,n,scale", [(5, 5, 1.0), (6, 11, 3.0), (13, 7, 1.0), (40, 60, 5.0)])
def test_sinkhorn_matches_three_exponential_oracle(m, n, scale):
    logK = RNG.normal(size=(m, n)) * scale
    plan = sinkhorn(logK)
    W, sweeps = oracle_sinkhorn(logK)
    assert plan.iterations == sweeps
    np.testing.assert_allclose(plan.W, W, rtol=1e-14, atol=0)


def test_transport_plan_matches_oracle_on_swapped_sharp_plan():
    pair = preset("clustering", 90, 40, 20, 4, 1.0)
    X, Y = pair.X.values, pair.Y.values
    eps = median_bandwidth(squared_distance_matrix(X, Y)) / 100.0
    plan = transport_plan(X, Y, epsilon=eps)
    assert plan.W.shape == (len(X), len(Y))
    # Sinkhorn runs on the wide (Y, X) orientation; the plan is its transpose
    W, sweeps = oracle_sinkhorn(-squared_distance_matrix(Y, X) / eps)
    assert sweeps > 10
    assert plan.iterations == sweeps
    np.testing.assert_allclose(plan.W.T, W, rtol=1e-14, atol=0)


@pytest.mark.parametrize("kernel", ["random", "sharp"])
def test_kernel_space_plan_matches_log_domain_oracle(kernel):
    if kernel == "random":
        logK = np.random.default_rng(8160219).normal(size=(40, 60)) * 5.0
    else:  # the wide log-kernel of the swapped sharp plan above
        pair = preset("clustering", 90, 40, 20, 4, 1.0)
        D2 = squared_distance_matrix(pair.Y.values, pair.X.values)
        logK = -D2 / (median_bandwidth(D2) / 100.0)
    plan = sinkhorn(logK)
    W, sweeps = oracle_sinkhorn(logK, kernel_space=False)
    assert sweeps > MIX_START  # some sweeps were Anderson-mixed
    assert plan.iterations == sweeps
    np.testing.assert_allclose(plan.W, W, rtol=1e-12, atol=0)


def two_block_log_kernel(m, n, rows, cols, gap):
    """0 on the blocks [:rows, :cols] and [rows:, cols:], -gap elsewhere."""
    logK = np.full((m, n), -gap)
    logK[:rows, :cols] = 0.0
    logK[rows:, cols:] = 0.0
    return logK


def far_column_log_kernels(count):
    """40 x 120 normal log-kernels with 1-3 columns lowered by 690-750."""
    rng = np.random.default_rng(20261019)
    for _ in range(count):
        logK = rng.normal(size=(40, 120))
        cols = rng.choice(120, size=rng.integers(1, 4), replace=False)
        logK[:, cols] -= rng.uniform(690.0, 750.0, size=len(cols))
        yield logK


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_underflowing_kernel_takes_the_log_domain_fallback(monkeypatch):
    # The first absorption has g0 = 0, so the lowered columns underflow in
    # the scaled kernel and their sums are zero or subnormal: the first
    # sweep is redone in the log domain, and the next absorbs its duals
    # afresh and runs in kernel space (52 of the first 60 such kernels).
    kernel_sweep = transport._kernel_sweep
    outcomes = []

    def recorded(*args):
        step = kernel_sweep(*args)
        outcomes.append(step is not None)
        return step

    monkeypatch.setattr(transport, "_kernel_sweep", recorded)
    for logK in far_column_log_kernels(2):
        outcomes.clear()
        plan = sinkhorn(logK)
        assert outcomes[0] is False and all(outcomes[1:]) and len(outcomes) > 5
        assert marginal_residual(plan.W) <= 1e-10
        W_kernel, kernel_sweeps = oracle_sinkhorn(logK)
        W_log, log_sweeps = oracle_sinkhorn(logK, kernel_space=False)
        assert plan.iterations == kernel_sweeps == log_sweeps
        np.testing.assert_allclose(plan.W, W_kernel, rtol=1e-14, atol=0)
        np.testing.assert_allclose(plan.W, W_log, rtol=1e-12, atol=0)


@pytest.mark.parametrize("m,n,rows,cols,gap", [(5, 7, 2, 5, 40.0), (6, 6, 2, 4, 50.0), (5, 7, 2, 5, 50.0), (5, 7, 2, 5, 30.0)])
def test_far_extrapolated_duals_do_not_read_as_converged(m, n, rows, cols, gap):
    # On these kernels the residual differences are rounding noise, so an
    # unbounded Anderson mix jumps the duals to ~1e14, where the row update
    # rounds back to f itself, and Sinkhorn never converges.  Refusing mixes
    # farther than MIX_BOUND plain steps from T(f), it takes 24-39 sweeps.
    logK = two_block_log_kernel(m, n, rows, cols, gap)
    plan = sinkhorn(logK)
    assert plan.iterations <= 40
    assert marginal_residual(plan.W) <= 1e-10
    W, sweeps = oracle_sinkhorn(logK)
    assert plan.iterations == sweeps
    np.testing.assert_allclose(plan.W, W, rtol=1e-14, atol=0)
    # The duals resolve the row violation only down to eps * max|f|, so a
    # tol below that never reads as converged, though f reaches a fixed point
    with pytest.raises(ConvergenceError) as exc:
        sinkhorn(logK, tol=1e-300, max_iter=300)
    assert exc.value.residual > 1e-300


@pytest.mark.parametrize("m", range(4, 9))
@pytest.mark.parametrize("split", ["halves", "one-row"])
def test_block_kernels_converge_where_plain_sweeps_do(m, split):
    # Plain sweeps converge on every strictly positive kernel; the bounded
    # mix must too (up to 1,104 sweeps here, at gap 80 with m = 7 halves)
    rows, cols = (m // 2, (m + 2) // 2) if split == "halves" else (1, (m + 2) // 2 + 1)
    for gap in (20.0, 30.0, 40.0, 50.0, 60.0, 80.0):
        plan = sinkhorn(two_block_log_kernel(m, m + 2, rows, cols, gap))
        assert marginal_residual(plan.W) <= 1e-10


def test_tall_plan_is_checked_once(monkeypatch):
    # the plan sinkhorn checked comes back transposed, not checked again
    as_matrix = transport.as_matrix
    names = []

    def recorded(a, name="matrix"):
        names.append(name)
        return as_matrix(a, name)

    monkeypatch.setattr(transport, "as_matrix", recorded)
    plan = transport_plan(RNG.normal(size=(12, 3)), RNG.normal(size=(5, 3)))
    assert plan.W.shape == (12, 5)
    assert names.count("W") == 1 and names.count("logK") == 1


def test_mixing_converges_in_fewer_sweeps_to_the_plain_plan():
    # the wide 40 x 90 clustering log-kernel at median/1000: 1,698 plain sweeps
    pair = preset("clustering", 90, 40, 20, 0, 1.0)
    D2 = squared_distance_matrix(pair.Y.values, pair.X.values)
    logK = -D2 / (median_bandwidth(D2) / 1000.0)
    W_plain, plain_sweeps = oracle_sinkhorn(logK, mix=False)
    plan = sinkhorn(logK)
    assert plain_sweeps > 1000
    assert plan.iterations < plain_sweeps / 4
    # both stop within about tol / (1 - rate) of the exact plan, so they
    # differ by up to 1.9e-8 in the smallest entries
    assert np.abs(plan.W - W_plain).max() <= 1e-8 * W_plain.max()
    assert marginal_residual(plan.W) <= 1e-10


def test_drifting_duals_are_absorbed_again(monkeypatch):
    # Absorbed once, this plan's kernel holds an entry that underflowed to 0;
    # the duals then drift by ~100 (rows) and ~700 (columns), so that entry
    # carries 4e-8 of the plan unseen by every kernel-space sum: 390 sweeps
    # stop at a residual of 9.0e-11 read from the duals, with marginals off
    # by 6.0e-8.  Absorbing again whenever f drifts by ABSORB_DRIFT: 277
    # sweeps, marginals 9.8e-11.
    pair = preset("clustering", 90, 40, 20, 1, 1.0)
    X, Y = pair.X.values, pair.Y.values
    eps = median_bandwidth(squared_distance_matrix(X, Y)) / 1000.0
    scaled_kernel = transport._scaled_kernel
    absorbed = []

    def recorded(*args):
        absorbed.append(True)
        return scaled_kernel(*args)

    monkeypatch.setattr(transport, "_scaled_kernel", recorded)
    plan = transport_plan(X, Y, epsilon=eps)
    assert marginal_residual(plan.W) <= 1e-9
    assert len(absorbed) > 2  # more than the first absorption and the final W


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_mix_restarts_from_the_plain_step(monkeypatch):
    # a NaN mix carried into the next sweep would make every dual NaN and
    # raise NumericalError; the plain step T(f) replaces it instead
    logK = np.random.default_rng(8160219).normal(size=(40, 60)) * 5.0
    anderson_mix = transport._anderson_mix
    mixes = []

    def first_mix_nan(history):
        mixes.append(True)
        f = anderson_mix(history)
        return np.full_like(f, np.nan) if len(mixes) == 1 else f

    monkeypatch.setattr(transport, "_anderson_mix", first_mix_nan)
    plan = sinkhorn(logK)
    assert len(mixes) > 1  # mixing resumed after the restart
    assert marginal_residual(plan.W) <= 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_scalings_raise(monkeypatch):
    # a sweep whose column duals come back non-finite stops Sinkhorn by name
    kernel_sweep = transport._kernel_sweep

    def poisoned(*args):
        step = kernel_sweep(*args)
        return step and (np.full_like(step[0], np.nan), step[1])

    monkeypatch.setattr(transport, "_kernel_sweep", poisoned)
    with pytest.raises(NumericalError, match="^Sinkhorn scalings became non-finite$"):
        sinkhorn(RNG.normal(size=(6, 8)))


def setting1_log_kernel():
    pair = preset("setting1", 200, 200, 50, 0, 8)
    D2 = squared_distance_matrix(pair.X.values, pair.Y.values)
    return -D2 / median_bandwidth(D2)


def test_fast_kernel_plan_is_unmixed_bit_for_bit(monkeypatch):
    # a plan that stops within four sweeps runs in kernel space but is never mixed
    logK = setting1_log_kernel()
    plan = sinkhorn(logK)
    assert plan.iterations <= 4
    monkeypatch.setattr(transport, "_MIX_START", 10**9)  # never mix
    plain = sinkhorn(logK)
    assert plain.iterations == plan.iterations
    assert np.array_equal(plan.W, plain.W)


def test_fast_kernel_plan_takes_one_log_domain_half_sweep(monkeypatch):
    # only the first row update is a log-sum-exp; every sweep runs in kernel space
    logK = setting1_log_kernel()
    half_sweep = transport._half_sweep
    calls = []

    def recorded(*args):
        calls.append(args[2])
        return half_sweep(*args)

    monkeypatch.setattr(transport, "_half_sweep", recorded)
    plan = sinkhorn(logK)
    assert calls == [1]
    W, sweeps = oracle_sinkhorn(logK, kernel_space=False)
    assert plan.iterations == sweeps
    np.testing.assert_allclose(plan.W, W, rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_columns_keep_accurate_marginals():
    # At the first sweep g0 = 0, so columns 690-750 below the rest start in
    # or below the subnormal range of the absorbed kernel, where a nonzero
    # sum carries few digits.  Such a sum, and a zero one, must send the
    # sweep to the log domain (the reciprocal of a subnormal sum overflows)
    # rather than put its rounding into the column dual.
    for logK in far_column_log_kernels(60):
        plan = sinkhorn(logK)
        assert marginal_residual(plan.W) <= 1e-10


_CHILD = """
import sys
import numpy as np
from eotmaps import sinkhorn

plan = sinkhorn(np.load(sys.argv[1]))
np.savez(sys.argv[2], W=plan.W, sweeps=plan.iterations)
"""


def test_mixed_plan_agrees_across_thread_counts(tmp_path):
    # CI runs the suite at 1 and 2 BLAS threads in separate steps, so only a
    # child process per thread count can compare the two on one input.  The
    # tall kernel makes each mix span 2,400-long duals, long enough for a
    # threaded BLAS product to split them.
    pair = preset("clustering", 2400, 40, 20, 0, 1.0)
    D2 = squared_distance_matrix(pair.X.values, pair.Y.values)
    np.save(tmp_path / "logK.npy", -D2 / (median_bandwidth(D2) / 100.0))
    src = str(Path(transport.__file__).resolve().parents[1])
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npz"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path / "logK.npy"), str(out)],
                       env=env, check=True, timeout=300)
        results.append(np.load(out))
    one, two = results
    assert int(one["sweeps"]) == int(two["sweeps"]) > MIX_START
    assert np.array_equal(one["W"], two["W"])


def traced_peak(call):
    """Bytes allocated at the peak of ``call()`` beyond what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_sweep_memory_is_bounded():
    m, n = 300, 400
    one = m * n * 8  # bytes of one m x n float64 array
    X = RNG.normal(size=(m, 5))
    Y = RNG.normal(size=(n, 5))
    logK = -squared_distance_matrix(X, Y) / 0.5
    # a first call loads numpy internals lazily, which tracemalloc counts too
    sinkhorn(logK)
    transport_plan(X, Y)
    assert traced_peak(lambda: sinkhorn(logK)) <= 1.5 * one
    assert traced_peak(lambda: transport_plan(X, Y)) <= 2.5 * one


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0], ids=["nan", "inf", "-inf", "zero", "negative"])
def test_entry_checks_keep_their_errors(value):
    # the checks read min and max instead of an m x n mask; the errors stay
    finite = np.isfinite(value)
    for i in (0, 5, 11):
        W = np.full((3, 4), 0.5)
        W.flat[i] = value
        with pytest.raises(InputError, match="strictly positive" if finite else "W contains non-finite"):
            TransportPlan(W=W, epsilon=None)
        if not finite:
            with pytest.raises(InputError, match="logK contains non-finite entries"):
                sinkhorn(W)
        elif value < 0:
            with pytest.raises(InputError, match="D2 must be nonnegative"):
                median_bandwidth(W)


def test_plan_check_allocates_no_mask():
    # building a plan on a float64 W allocates less than one byte per entry
    m, n = 300, 400
    W = np.full((m, n), 0.5)
    TransportPlan(W=W, epsilon=None)  # numpy internals load lazily
    assert traced_peak(lambda: TransportPlan(W=W, epsilon=None)) < m * n


def test_sinkhorn_scaling_structure():
    # the plan must factor as alpha_i K_ij beta_j
    m, n = 6, 9
    logK = RNG.normal(size=(m, n))
    plan = sinkhorn(logK, tol=1e-12)
    ratio = np.log(plan.W) - logK
    # log ratio must be rank-one: f_i + g_j
    f = ratio[:, 0]
    g = ratio[0] - ratio[0, 0]
    np.testing.assert_allclose(ratio, f[:, None] + g[None, :], atol=1e-9)


def test_plan_records_the_residual_of_each_sweep():
    logK = RNG.normal(size=(40, 60)) * 5.0
    tol = 1e-10
    plan = sinkhorn(logK, tol=tol)
    assert len(plan.residuals) == plan.iterations > MIX_START
    assert all(isinstance(r, float) for r in plan.residuals)
    assert plan.residuals[-1] <= tol < min(plan.residuals[:-1])
    # the tall path hands back the same record
    X, Y = RNG.normal(size=(12, 3)), RNG.normal(size=(5, 3))
    tall, wide = transport_plan(X, Y), transport_plan(Y, X)
    assert tall.residuals == wide.residuals and len(tall.residuals) == tall.iterations
    # a plan built directly records no sweeps
    direct = TransportPlan(W=np.ones((2, 2)))
    assert direct.residuals == () and direct.iterations == 0 and direct.epsilon is None
    # a run cut after three sweeps computes the same three residuals and
    # raises with the last
    with pytest.raises(ConvergenceError) as exc:
        sinkhorn(logK, tol=tol, max_iter=3)
    assert exc.value.residual == plan.residuals[2]


def test_sinkhorn_convergence_error_carries_residual():
    logK = RNG.normal(size=(8, 8)) * 3.0
    with pytest.raises(ConvergenceError) as exc:
        sinkhorn(logK, tol=1e-15, max_iter=1)
    assert exc.value.residual > 0


def test_sinkhorn_rejects_bad_input():
    with pytest.raises(InputError):
        sinkhorn(np.array([[np.nan, 0.0]]))
    with pytest.raises(InputError):
        sinkhorn(np.ones(4))
    with pytest.raises(InputError):
        sinkhorn(np.zeros((2, 2)), tol=0.0)
    with pytest.raises(InputError):
        sinkhorn(np.zeros((2, 2)), max_iter=0)
    with pytest.raises(InputError):
        sinkhorn(np.zeros((2, 2)), tol=True)


def test_sinkhorn_extreme_kernel_stays_finite():
    # a kernel spread of ~275 in the exponent drives plan entries down to
    # ~1e-111; the log-domain sweep must still converge to a strictly
    # positive plan with accurate marginals.
    rng = np.random.default_rng(8160219)
    D2 = squared_distance_matrix(rng.normal(size=(10, 3)) * 4, rng.normal(size=(12, 3)) * 4)
    logK = -D2
    plan = sinkhorn(logK, tol=1e-10)
    assert np.isfinite(plan.W).all()
    assert plan.W.min() > 0
    assert marginal_residual(plan.W) <= 1e-9


def test_sinkhorn_underflowing_kernel_raises():
    # exp(-2000) is zero in double precision, so the converged plan cannot
    # be represented with strictly positive entries.
    logK = np.array([[0.0, -2000.0], [-2000.0, 0.0]])
    with pytest.raises(NumericalError, match="underflowed to zero"):
        sinkhorn(logK)


def test_transport_plan_end_to_end_median_default():
    X = RNG.normal(size=(9, 4))
    Y = RNG.normal(size=(14, 4))
    plan = transport_plan(X, Y)
    assert plan.W.shape == (len(X), len(Y))
    D2 = squared_distance_matrix(X, Y)
    assert plan.epsilon == median_bandwidth(D2)
    assert marginal_residual(plan.W) <= 1e-9
    # kernel structure: log W - (-D2/eps) is rank one
    ratio = np.log(plan.W) + D2 / plan.epsilon
    np.testing.assert_allclose(
        ratio, ratio[:, :1] + (ratio[:1] - ratio[0, 0]), atol=1e-8
    )


def test_transport_plan_swaps_when_first_is_larger():
    X = RNG.normal(size=(12, 3))
    Y = RNG.normal(size=(5, 3))
    plan = transport_plan(X, Y)
    assert plan.W.shape == (len(X), len(Y))
    # Sinkhorn runs on the wide orientation either way, so the plan is the
    # exact transpose of the reversed call's
    reverse = transport_plan(Y, X)
    assert np.array_equal(plan.W, reverse.W.T)
    assert plan.epsilon == reverse.epsilon == median_bandwidth(squared_distance_matrix(X, Y))


def test_transport_plan_explicit_epsilon_and_validation():
    X = RNG.normal(size=(6, 2))
    Y = RNG.normal(size=(8, 2))
    plan = transport_plan(X, Y, epsilon=2.5)
    assert plan.epsilon == 2.5
    with pytest.raises(InputError):
        transport_plan(X, Y, epsilon=-1.0)
    with pytest.raises(InputError):
        transport_plan(X, Y, epsilon="garbage")
    with pytest.raises(InputError):
        transport_plan(X, np.ones((8, 3)))
    with pytest.raises(InputError):
        transport_plan(X, Y, max_iter=True)
    with pytest.raises(InputError):
        transport_plan(X, Y, tol=True)
    with pytest.raises(InputError):
        transport_plan(X, Y, epsilon=True)
    with pytest.raises(InputError):
        transport_plan(X, Y, epsilon=None)



@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_transport_plan_names_an_epsilon_too_small_to_divide_by():
    # D2 / 1e-320 overflows: the error names epsilon, which the caller
    # passed, not the logK built from it, and leaks no overflow warning
    X = RNG.normal(size=(6, 2))
    Y = RNG.normal(size=(8, 2))
    with pytest.raises(InputError, match=r"^epsilon=1e-320 is too small"):
        transport_plan(X, Y, epsilon=1e-320)

def test_transport_plan_out_of_memory_is_input_error(monkeypatch):
    def exhausted(A, B):
        raise MemoryError

    monkeypatch.setattr(transport, "squared_distance_matrix", exhausted)
    X = RNG.normal(size=(6, 2))
    Y = RNG.normal(size=(8, 2))
    with pytest.raises(InputError, match=r"6 x 8 transport plan does not fit in memory.*MiB"):
        transport_plan(X, Y)
    with pytest.raises(InputError, match=r"8 x 6 transport plan"):
        transport_plan(Y, X, epsilon=1.0)


def test_transport_plan_identical_points_degenerate():
    X = np.zeros((4, 3))
    with pytest.raises(DegenerateBandwidthError):
        transport_plan(X, X)


def test_plan_container_rejects_corrupt_fields():
    plan = sinkhorn(RNG.normal(size=(3, 4)))
    cls = type(plan)
    bad = dict(W=plan.W, epsilon=plan.epsilon, residuals=plan.residuals)
    with pytest.raises(InputError):
        cls(**{**bad, "W": -plan.W})
    with pytest.raises(InputError):
        cls(**{**bad, "W": plan.W * np.nan})


@pytest.mark.parametrize("bad", [[["a"]], object()], ids=["string", "object"])
def test_containers_reject_non_numeric_arrays(bad):
    with pytest.raises(InputError, match="W must be a matrix of real numbers"):
        TransportPlan(W=bad, epsilon=None)


def test_plan_container_stores_a_float_array():
    # a list or an integer W is stored as the float64 array it was checked as
    for W in ([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]], np.ones((3, 2), dtype=int)):
        plan = TransportPlan(W=W, epsilon=None)
        assert isinstance(plan.W, np.ndarray) and plan.W.dtype == np.float64
        assert plan.shape == (3, 2)
        np.testing.assert_array_equal(plan.W, W)
    spectral_model(TransportPlan(W=[[0.5, 0.5], [0.5, 0.5]], epsilon=None), 1)
    # a float64 array, C- or Fortran-ordered, is kept as is
    W = np.full((4, 3), 0.5)
    for array in (W, W.T):
        assert TransportPlan(W=array, epsilon=None).W is array
