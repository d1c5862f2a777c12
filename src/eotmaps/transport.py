"""Entropic optimal-transport plans between two point clouds.

The plan W between clouds X (m points) and Y (n points) minimizes

    sum_ij ||x_i - y_j||^2 W_ij + epsilon * sum_ij W_ij log W_ij

over nonnegative matrices whose rows each sum to sqrt(n/m) and whose columns
each sum to sqrt(m/n) (so the total mass is sqrt(m*n)).  The minimizer
factorizes as W_ij = alpha_i * K_ij * beta_j with K = exp(-||x_i-y_j||^2 /
epsilon); ``sinkhorn`` computes the scalings by alternate marginal matching.
The first row update is one max-stabilized log-sum-exp, which stays stable
for small bandwidths, in a single reused m x n buffer.  Every sweep after it
runs in kernel space (stabilized scaling with dual absorption; Schmitzer
2019, SIAM J. Sci. Comput. 41(3)): the current duals (f0, g0) are absorbed
into the buffer as the scaled kernel exp(logK + f0 + g0), and each
half-sweep is one einsum matrix-vector sum against exp(dual - dual0).  The
duals are absorbed again once the row dual moves more than
``_ABSORB_DRIFT`` from f0, and a sweep whose sums come out zero or
non-finite is redone as two log-domain half-sweeps.  The stopping residual
is read from the duals, so W is built once, at the end.  From the sixth
sweep on, the row dual is Anderson-mixed (Walker & Ni 2011) over the last
sweeps, which about halves the sweeps of slowly converging plans; plans that
converge within six sweeps are never mixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
_MIX_MEMORY = 5  # residual differences in each Anderson mix
_MIX_START = 5  # first sweep kept for Anderson mixing; sweep 6 is the first to mix
_ABSORB_DRIFT = 30.0  # absorb the duals again once f moves this far from f0
_EPS = np.finfo(float).eps
# Entries per block of the passes over an m x n distance matrix: a block of
# float64 stays in a per-core L2 cache however wide the rows are.
_BLOCK_ENTRIES = 1 << 16
# The median's strided sample, and the bracket around the central sample
# rank, in standard deviations of that rank: ~4% of the entries are gathered.
_SAMPLE = 20000
_SIGMAS = 6.0


def squared_distance_matrix(X, Y) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (m, n).

    Computed by the usual norm expansion |x|^2 + |y|^2 - 2 x.y: one ``X @ Y.T``
    product, finished in place over row blocks of about 2**16 entries, so
    the only m x n array is the result; tiny negative values from
    cancellation are clipped to zero.  Every entry takes the same operations
    in the same order as the one-line expansion, so the bits are the same.
    Raises ``InputError`` when the points are so large that the expansion
    could overflow float64.
    """
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    if X.shape[1] != Y.shape[1]:
        raise InputError(
            f"X and Y must share a feature dimension; one has {X.shape[1]} columns, "
            f"the other {Y.shape[1]}"
        )
    return _squared_distances(X, Y, np.einsum("ij,ij->i", X, X))


def _squared_distances(X, Y, sq_x) -> np.ndarray:
    """``squared_distance_matrix`` of checked points, given X's squared row norms."""
    sq_y = np.einsum("ij,ij->i", Y, Y)
    # |x|^2 + |y|^2 + 2|x.y| <= 2 * (max |x|^2 + max |y|^2) bounds every
    # partial result of the expansion below
    if not np.isfinite(2.0 * (float(sq_x.max()) + float(sq_y.max()))):
        raise InputError("squared distances overflow float64; rescale the points")
    D2 = X @ Y.T  # one product on the whole inputs: x.y rounds as in one GEMM
    rows = max(1, _BLOCK_ENTRIES // D2.shape[1])
    norms = np.empty((min(rows, D2.shape[0]), D2.shape[1]))
    for start in range(0, D2.shape[0], rows):
        block = D2[start : start + rows]
        sums = np.add(sq_x[start : start + rows, None], sq_y, out=norms[: len(block)])
        block *= 2.0
        np.subtract(sums, block, out=block)
        np.maximum(block, 0.0, out=block)
    return D2


def _sample_stride(size: int) -> int:
    """Stride of the median's sample of ``size`` entries: about _SAMPLE, coprime with size.

    Coprime with the length of the contiguous axis (a factor of size), the
    sample visits every column (or row) instead of a few: a stride of 200 on
    rows 2000 long reads only 10 columns.  1, the whole array, below 2 * _SAMPLE.
    """
    stride = max(1, size // _SAMPLE)
    while math.gcd(stride, size) > 1:
        stride += 1
    return stride


def median_bandwidth(D2) -> float:
    """Median of all squared distances (even counts average the central pair).

    Exact selection after Floyd & Rivest (1975, Commun. ACM 18(3)), with no
    m x n copy: sort a strided sample of about 20,000 entries, bracket the
    central rank(s) by 6 standard deviations of their sample rank, and in
    one pass over blocks of D2 count the entries below the bracket, gather
    those inside it (about 4%) and check the signs.  Only the gathered
    entries are partitioned, and the central pair is averaged with
    ``np.mean``, so the result has ``np.median``'s bits.  When the sample is
    all of D2, it is the answer; when the central rank falls outside the
    bracket (the sample misled it), ``np.median`` decides.
    """
    D2 = as_matrix(D2, "D2")
    flat = D2.ravel(order="K")  # a view unless D2 is a strided view
    size = flat.size
    lo_rank, hi_rank = (size - 1) // 2, size // 2
    sample = np.sort(flat[:: _sample_stride(size)])
    if sample.size == size:  # the whole array, sorted
        below, inside, negative = 0, sample, sample[0] < 0
    else:
        spread = _SIGMAS * 0.5 * math.sqrt(sample.size)  # a sample rank's sd is <= sqrt(s) / 2
        lo = sample[max(int(lo_rank * sample.size / size - spread), 0)]
        hi = sample[min(int(hi_rank * sample.size / size + spread) + 1, sample.size - 1)]
        below, parts, negative = 0, [], False
        for start in range(0, size, _BLOCK_ENTRIES):
            block = flat[start : start + _BLOCK_ENTRIES]
            negative = negative or block.min() < 0
            keep = block >= lo
            below += block.size - np.count_nonzero(keep)
            keep &= block <= hi
            parts.append(block[keep])
        inside = np.concatenate(parts)
    if negative:
        raise InputError("D2 must be nonnegative")
    lo_rank -= below
    hi_rank -= below
    if lo_rank < 0 or hi_rank >= inside.size:
        med = float(np.median(D2))
    else:
        inside.partition((lo_rank, hi_rank))
        med = float(np.mean(inside[lo_rank : hi_rank + 1]))
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
    residuals : relative marginal violation after each sweep; () if built directly
    """

    W: np.ndarray
    epsilon: float | None
    iterations: int
    residuals: tuple[float, ...] = ()

    def __post_init__(self):
        W = as_matrix(self.W, "W")
        if W.min() <= 0:
            raise InputError("W must be strictly positive")
        object.__setattr__(self, "W", W)

    @property
    def shape(self) -> tuple[int, int]:
        return self.W.shape


def _logsumexp(v: np.ndarray) -> float:
    """log(sum(exp(v))) for a finite vector, stabilized by its max."""
    mx = v.max()
    e = v - mx
    return mx + np.log(np.exp(e, out=e).sum())


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


def _scaled_kernel(logK, f, g, buf) -> np.ndarray:
    """exp(f_i + logK_ij + g_j), written into ``buf``."""
    np.add(f[:, None], logK, out=buf)
    np.add(buf, g, out=buf)
    return np.exp(buf, out=buf)


def _anderson_mix(history) -> np.ndarray:
    """Type-II Anderson mix of duals f_i and their images T(f_i), oldest first.

    T(f_k) minus the image differences weighted by the least-squares fit of
    the residual T(f_k) - f_k by the residual differences.  The sums run in
    einsum, not BLAS, so the thread count cannot change the bits.
    """
    F, T = (np.array(h) for h in zip(*history))
    dR = np.diff(T - F, axis=0)
    gram = np.einsum("ik,jk->ij", dR, dR)
    gamma = np.linalg.lstsq(gram, np.einsum("ik,k->i", dR, T[-1] - F[-1]), rcond=None)[0]
    return T[-1] - np.einsum("i,ik->k", gamma, np.diff(T, axis=0))


def _kernel_half_sweep(kernel, subscripts, scale, target):
    """target / einsum(subscripts, kernel, scale), or None unless positive and finite.

    The sum runs in einsum, not BLAS, so the thread count cannot change the bits.
    """
    ratio = np.einsum(subscripts, kernel, scale)
    np.divide(target, ratio, out=ratio)
    return ratio if ratio.min() > 0 and np.isfinite(ratio.max()) else None  # NaN fails


def _kernel_sweep(kernel, f, f0, g0, log_row_target):
    """(g, f_next) of one sweep from kernel = exp(logK + f0 + g0), or None.

    The column update gives b = exp(g - g0) = col_target / (kernel^T exp(f - f0))
    directly, so the row update f_next = f0 + log(row_target / (kernel b))
    takes no second exponential.  None when a sum is zero or non-finite.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # all fail the test
        b = _kernel_half_sweep(kernel, "ij,i->j", np.exp(f - f0), np.exp(-log_row_target))
        a = None if b is None else _kernel_half_sweep(kernel, "ij,j->i", b, np.exp(log_row_target))
    if a is None:
        return None
    g = np.log(b, out=b)
    g += g0
    f_next = np.log(a, out=a)
    f_next += f0
    return g, f_next


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

    The first row update, against g = 0, is one max-stabilized log-sum-exp
    of logK, computed in place in a single m x n buffer.  Every sweep then
    runs in kernel space: the buffer holds the scaled kernel
    K~ = exp(logK + f0 + g0) of absorbed duals (f0, g0), and a sweep is two
    einsum sums, one pass over the buffer each instead of five,

        g      = log_col_target + g0 - log(K~^T exp(f - f0))
        f_next = log_row_target + f0 - log(K~ exp(g - g0)).

    (f0, g0) start as that row update's f and g = 0, and are absorbed
    again, at the cost of one m x n exponential, whenever f has moved more
    than ``_ABSORB_DRIFT`` (30) from f0.  When a kernel-space ratio comes
    out zero or non-finite (a sum underflowed or overflowed), that sweep is
    redone with log-domain half-sweeps (rows reduce along axis 1, columns
    along axis 0 of the same logK), and the next sweep absorbs afresh.
    After the column update the column sums are exact up to rounding, and
    the relative row violation of the current duals (f, g) is
    |exp(f - f_next) - 1|, where f_next is the next row update, so the
    residual is read from the duals, kept in ``residuals``, and W is built
    only once, into the same buffer, after convergence.  The duals resolve
    that violation only down to their own rounding, so the residual is at
    least eps * max|f_next|: duals extrapolated to ~1e14, where the row
    update rounds back to f itself, never read as converged.

    One sweep is the map f -> T(f) = f_next.  From sweep 5 on, each sweep's
    (f, T(f)) joins a history of at most 6, and once it holds two, the next
    f is their type-II Anderson mix instead of T(f).  When the residual
    rises, or a mix is non-finite, the history is cleared and the plain step
    T(f) is taken.  Every choice depends only on computed values, so the
    plan does not depend on timing or the BLAS thread count.
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
    f0 = None  # the row dual absorbed in buf; None while buf holds no kernel
    history = []  # (f, T(f)) of the last sweeps, oldest first
    residuals = []
    for sweep in range(1, max_iter + 1):
        if f0 is None or np.abs(f - f0).max() > _ABSORB_DRIFT:
            f0, g0 = f, g
            with np.errstate(over="ignore"):  # an overflow fails the sums
                _scaled_kernel(logK, f0, g0, buf)
        step = _kernel_sweep(buf, f, f0, g0, log_row_target)
        if step is None:
            f0 = None  # the log-domain half-sweeps overwrite the kernel
            g = _half_sweep(logK, f[:, None], 0, log_col_target, buf)
            f_next = _half_sweep(logK, g, 1, log_row_target, buf)
        else:
            g, f_next = step
        if not (np.isfinite(f_next).all() and np.isfinite(g).all()):
            raise NumericalError("Sinkhorn scalings became non-finite")
        residual_rel = max(np.abs(np.expm1(f - f_next)).max(), _EPS * np.abs(f_next).max())
        residuals.append(float(residual_rel))
        if residual_rel <= tol:
            break
        if len(residuals) > 1 and residual_rel > residuals[-2]:
            history = []  # the last step made things worse: restart plain
        if sweep >= _MIX_START:
            history = history[-_MIX_MEMORY:] + [(f, f_next)]
        f = f_next
        if len(history) > 1:
            f = _anderson_mix(history)
            if not np.isfinite(f).all():
                f, history = f_next, []
    else:
        raise ConvergenceError(
            f"Sinkhorn did not reach tol={tol:g} in {max_iter} sweeps "
            f"(residual {residual_rel:.3e})",
            residual=residuals[-1],
        )
    f0 = g0 = step = None  # release the duals and sums before W takes the buffer
    # Shift the duals by +/- the same constant so sum(exp(f)) == sum(exp(g)).
    # W is unchanged in exact arithmetic but not in rounding: built from the
    # unshifted duals, about half its entries move by an ulp, and the
    # diffusion coordinates by up to ~1e-13, so the shift keeps W's bits.
    shift = 0.5 * (_logsumexp(g) - _logsumexp(f))
    f = f + shift
    g = g - shift
    W = _scaled_kernel(logK, f, g, buf)
    if W.min() <= 0:
        raise NumericalError(
            "plan entries underflowed to zero; the kernel's dynamic range is too "
            "large for a dense strictly-positive plan"
        )
    return TransportPlan(W=W, epsilon=epsilon, iterations=sweep, residuals=tuple(residuals))


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
    if tall:  # W.T is the transpose of a checked plan: set it without checking again
        object.__setattr__(plan, "W", plan.W.T)
    return plan


__all__ = [
    "TransportPlan",
    "squared_distance_matrix",
    "median_bandwidth",
    "sinkhorn",
    "transport_plan",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
]
