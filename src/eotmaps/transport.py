"""Entropic optimal-transport plans between two point clouds.

The plan W between clouds X (m points) and Y (n points) minimizes

    sum_ij ||x_i - y_j||^2 W_ij + epsilon * sum_ij W_ij log W_ij

over nonnegative matrices whose rows each sum to sqrt(n/m) and whose columns
each sum to sqrt(m/n) (so the total mass is sqrt(m*n)).  The minimizer
factorizes as W_ij = alpha_i * K_ij * beta_j with K = exp(-||x_i-y_j||^2 /
epsilon); ``sinkhorn`` computes the scalings by alternate marginal matching
in the log domain, which stays stable for small bandwidths.  Each half-sweep
is one max-stabilized log-sum-exp in a single reused m x n buffer, and the
stopping residual is read from the duals, so W is built once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateBandwidthError,
    InputError,
    NumericalError,
)
from .linalg import as_matrix, check_int, check_real, fits_in_memory

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10000


def squared_distance_matrix(X, Y) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (m, n).

    Computed by the usual norm expansion; tiny negative values from
    cancellation are clipped to zero.  Raises ``InputError`` when the points
    are so large that the expansion could overflow float64.
    """
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    if X.shape[1] != Y.shape[1]:
        raise InputError(
            f"X and Y must share a feature dimension; one has {X.shape[1]} columns, "
            f"the other {Y.shape[1]}"
        )
    sq_x = np.einsum("ij,ij->i", X, X)
    sq_y = np.einsum("ij,ij->i", Y, Y)
    # |x|^2 + |y|^2 + 2|x.y| <= 2 * (max |x|^2 + max |y|^2) bounds every
    # partial result of the expansion below
    if not np.isfinite(2.0 * (float(sq_x.max()) + float(sq_y.max()))):
        raise InputError("squared distances overflow float64; rescale the points")
    D2 = sq_x[:, None] + sq_y[None, :] - 2.0 * (X @ Y.T)
    return np.maximum(D2, 0.0)


def median_bandwidth(D2) -> float:
    """Median of all squared distances (even counts average the central pair)."""
    D2 = as_matrix(D2, "D2")
    if (D2 < 0).any():
        raise InputError("D2 must be nonnegative")
    med = float(np.median(D2))
    if med <= 0.0:
        raise DegenerateBandwidthError(
            "median of squared distances is zero; bandwidth would be degenerate"
        )
    return med


@dataclass(frozen=True)
class TransportPlan:
    """A converged entropic plan.

    Attributes
    ----------
    W : (|X|, |Y|) strictly positive float64 plan matrix (a float64 array is
        kept, not copied), rows for the caller's X and columns for Y; a
        transposed, Fortran-ordered view when X is the larger cloud
    epsilon : bandwidth used to build the kernel, or None when the kernel
        was supplied directly
    iterations : number of full sweeps performed
    """

    W: np.ndarray
    epsilon: float | None
    iterations: int

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        if W.ndim != 2 or W.size == 0:
            raise InputError("W must be a non-empty 2-D array")
        if not np.isfinite(W).all():
            raise InputError("W contains non-finite entries")
        if (W <= 0).any():
            raise InputError("W must be strictly positive")
        object.__setattr__(self, "W", W)

    @property
    def shape(self) -> tuple[int, int]:
        return self.W.shape


def _logsumexp(v: np.ndarray) -> float:
    """log(sum(exp(v))) for a finite vector, stabilized by its max."""
    mx = v.max()
    return mx + np.log(np.exp(v - mx).sum())


def _half_sweep(logK, dual, axis, log_target, buf) -> np.ndarray:
    """log_target - log(sum(exp(logK + dual), axis)), one exponential in ``buf``.

    ``dual`` broadcasts against logK along the other axis; the max-stabilized
    log-sum-exp overwrites ``buf`` (shape of logK) and allocates nothing m x n.
    """
    np.add(logK, dual, out=buf)
    mx = buf.max(axis=axis, keepdims=True)
    np.subtract(buf, mx, out=buf)
    np.exp(buf, out=buf)
    return log_target - (mx + np.log(buf.sum(axis=axis, keepdims=True))).ravel()


def sinkhorn(
    logK,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    epsilon: float | None = None,
) -> TransportPlan:
    """Scale a positive kernel (given in the log domain) onto the plan marginals.

    Parameters
    ----------
    logK : (m, n) finite array, elementwise log of the kernel
    tol : convergence threshold on the relative marginal violation
        max(|row_sum/row_target - 1|, |col_sum/col_target - 1|) measured
        after a full sweep (row update, then column update)
    max_iter : sweep budget; exhausting it raises ConvergenceError
    epsilon : optional bandwidth to record on the plan (provenance only)

    Returns
    -------
    TransportPlan whose W is built once, from the converged duals.

    Each half-sweep is one max-stabilized log-sum-exp of logK plus a dual,
    computed in place in a single m x n buffer (rows reduce along axis 1,
    columns along axis 0 of the same logK).  After the column update the
    column sums are exact up to rounding, and the relative row violation of
    the current duals (f, g) is |exp(f - f_next) - 1|, where f_next is the
    next row update, so the residual is read from the duals and W is built
    only once, into the same buffer, after convergence.
    """
    logK = as_matrix(logK, "logK")
    m, n = logK.shape
    tol = check_real(tol, "tol", 0, strict=True)
    max_iter = check_int(max_iter, "max_iter", 1)

    log_row_target = 0.5 * (np.log(n) - np.log(m))
    log_col_target = -log_row_target

    buf = np.empty((m, n))
    g = np.zeros(n)
    f = _half_sweep(logK, g, 1, log_row_target, buf)
    for sweep in range(1, max_iter + 1):
        g = _half_sweep(logK, f[:, None], 0, log_col_target, buf)
        f_next = _half_sweep(logK, g, 1, log_row_target, buf)
        if not (np.isfinite(f_next).all() and np.isfinite(g).all()):
            raise NumericalError("Sinkhorn scalings became non-finite")
        residual_rel = np.abs(np.expm1(f - f_next)).max()
        if residual_rel <= tol:
            break
        f = f_next
    else:
        raise ConvergenceError(
            f"Sinkhorn did not reach tol={tol:g} in {max_iter} sweeps "
            f"(residual {residual_rel:.3e})",
            residual=float(residual_rel),
        )

    # Shift the duals by +/- the same constant so sum(exp(f)) == sum(exp(g)).
    # W is unchanged in exact arithmetic but not in rounding: built from the
    # unshifted duals, about half its entries move by an ulp, and the
    # diffusion coordinates by up to ~1e-13, so the shift keeps W's bits.
    shift = 0.5 * (_logsumexp(g) - _logsumexp(f))
    f = f + shift
    g = g - shift
    W = np.add(f[:, None], logK, out=buf)
    np.add(W, g, out=W)
    np.exp(W, out=W)
    if (W <= 0).any():
        raise NumericalError(
            "plan entries underflowed to zero; the kernel's dynamic range is too "
            "large for a dense strictly-positive plan"
        )
    return TransportPlan(W=W, epsilon=epsilon, iterations=sweep)


def transport_plan(
    X,
    Y,
    epsilon="median",
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> TransportPlan:
    """Entropic plan between two clouds with a Gaussian kernel.

    ``epsilon`` is either a positive number or ``"median"`` (bandwidth set to
    the median of all squared pairwise distances).  The plan has one row per
    point of X and one column per point of Y.  Running out of memory for the
    m x n arrays raises InputError naming the size.
    """
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    if isinstance(epsilon, str):
        if epsilon != "median":
            raise InputError(f'epsilon must be a positive number or "median", got {epsilon!r}')
    else:
        eps = check_real(epsilon, "epsilon", 0, strict=True)

    # Sinkhorn runs on the wide orientation: on 2 vCPUs a sweep took 49-63 ms
    # over a tall 8000 x 500 log-kernel and 33-36 ms over its wide transpose.
    tall = X.shape[0] > Y.shape[0]
    A, B = (Y, X) if tall else (X, Y)
    with fits_in_memory((X.shape[0], Y.shape[0]), "a {} transport plan"):
        D2 = squared_distance_matrix(A, B)
        if isinstance(epsilon, str):
            eps = median_bandwidth(D2)
        logK = np.divide(D2, -eps, out=D2)  # in place; the same bits as -D2 / eps
        plan = sinkhorn(logK, tol=tol, max_iter=max_iter, epsilon=eps)
    return replace(plan, W=plan.W.T) if tall else plan


__all__ = [
    "TransportPlan",
    "squared_distance_matrix",
    "median_bandwidth",
    "sinkhorn",
    "transport_plan",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
]
