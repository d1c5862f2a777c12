"""Dense linear-algebra primitives with deterministic sign conventions.

Everything downstream (plan factorization, spectra, embeddings) funnels
through ``truncated_svd``, so its conventions are pinned once:

* singular triplets come out in deterministic order (descending values)
  with deterministic signs, so repeated runs on the same input are bitwise
  identical;
* the sign of each left singular vector is fixed by making its
  largest-magnitude entry positive (first such entry on ties), and the
  right vector flips with it, so ``u^T A v = s >= 0`` holds by
  construction on every path.

``truncated_svd`` tries three paths in order: block subspace iteration
(Halko, Martinsson & Tropp 2011, "Finding structure with randomness", SIAM
Review), the eigenpairs of the small-side Gram matrix, and a thin dense SVD.
The first two certify every triplet by its two-sided residual.
"""

from __future__ import annotations

import itertools
import numbers
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError, NumericalError

# Singular values at or below this are numerically zero: u^T A v carries no
# sign there, so v gets its own largest-entry rule.
SINGULAR_FLOOR = 1e-12
# Entries within this relative distance of a column's largest magnitude are
# tied for the sign rule: exact ties come out of LAPACK a few ulps apart.
_TIE_TOL = 1e-12

# Block subspace iteration: the block holds k + _OVERSAMPLE vectors and runs
# only when min(m, n) is at least _SUBSPACE_RATIO block widths.
_OVERSAMPLE = 4
_SUBSPACE_RATIO = 4
_START_KEY = 2011  # Philox key of the start block
# The iteration stops once max ||A v - s u|| / s_1 is at most _STOP_TOL, or
# once it is at most _FLOOR_TOL and no longer falls (rounding floor reached).
# The k-th vector's error grows like this residual over its gap to s_{k+1}.
_STOP_TOL = 1e-14
_FLOOR_TOL = 1e-12
_CERTIFICATE_TOL = 1e-10  # two-sided residual / s_1 every returned triplet must meet


def check_int(value, name: str, lo: int, hi: int | None = None) -> int:
    """Return ``value`` as an int after checking it is an integer in [lo, hi].

    A non-integer (bools included) raises InputError; an integer outside the
    range raises DimensionError.  ``hi=None`` leaves the range open above.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        span = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise DimensionError(f"{name} must be {span}, got {value}")
    return int(value)


def check_real(value, name: str, lo: float | None = None, strict: bool = False) -> float:
    """Return ``value`` as a float after checking it is a finite real >= lo.

    Bools (Python or numpy), non-numbers and non-finite values raise
    InputError, as does a value below ``lo``, or equal to it when ``strict``.
    ``lo=None`` leaves the range open below.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = np.inf
    if not np.isfinite(value) or (lo is not None and (value <= lo if strict else value < lo)):
        bound = "" if lo is None else f" {'>' if strict else '>='} {lo:g}"
        raise InputError(f"{name} must be a finite number{bound}, got {value!r}")
    return value


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` (array-like or DataMatrix) to a validated float64 2-D array."""
    if isinstance(a, DataMatrix):
        return a.values
    try:
        arr = np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{name} must be a matrix of real numbers") from None
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InputError(f"{name} must have at least one row and one column, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class DataMatrix:
    """A validated dense real matrix; rows are points, columns are features."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(as_matrix(self.values, "DataMatrix"), copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


@contextmanager
def fits_in_memory(shape: tuple[int, int], subject: str = "the dense SVD of a {} matrix"):
    """Turn a MemoryError inside the block into an InputError naming the m x n size."""
    try:
        yield
    except MemoryError as exc:
        size = "{} x {}".format(*shape)
        raise InputError(f"{subject.format(size)} does not fit in memory (one {size} "
                         f"float64 array takes {shape[0] * shape[1] * 8 / 2**20:.1f} MiB)") from exc


def _fix_singular_signs(s: np.ndarray, U: np.ndarray, V: np.ndarray):
    """Apply the deterministic sign convention in place.

    For each triplet the entry of u with the largest magnitude is made
    positive, and v flips with u; entries within a relative _TIE_TOL of that
    magnitude count as tied, and the first of them decides.  Every path
    hands over pairs with u^T A v = s >= 0 (A = U S V^T on the dense path;
    A^T u = s v by construction and the two-sided certificate on the
    others), and a joint flip keeps that product, so no check against
    A is needed.  At or below SINGULAR_FLOOR the product carries no sign
    information, so v gets the largest-entry rule independently.
    """
    flips = _largest_entry_signs(U)
    U *= flips
    V *= flips
    degenerate = s <= SINGULAR_FLOOR
    if degenerate.any():
        V[:, degenerate] *= _largest_entry_signs(V[:, degenerate])


def _largest_entry_signs(M: np.ndarray) -> np.ndarray:
    """Per column, the sign of the first entry whose magnitude ties the largest."""
    mags = np.abs(M)
    idx = np.argmax(mags >= (1.0 - _TIE_TOL) * mags.max(axis=0), axis=0)
    return np.where(M[idx, np.arange(M.shape[1])] < 0, -1.0, 1.0)


def _subspace_svd(A: np.ndarray, k: int):
    """Leading k triplets of A by block subspace iteration (or None), and the step count.

    Each step maps an orthonormal n x b block Q to P = orth(A Q), then
    A^T P = Q' R, and takes the Ritz triplets from the SVD of the b x b
    factor R^T = P^T A Q'.  A^T U = V S holds by construction, and
    ||A V - U S|| is read from the next A Q' product.  From the third
    residual on, rho = sqrt(r_j / r_{j-2}) (Ritz residuals can alternate)
    predicts the steps left to _STOP_TOL; if those, at two b-column passes
    over A each, would cost more than one r-column pass, r = min(m, n), the
    loop hands off (None).  The count is the number of A Q products.
    Triplets that stop but fail the certificate raise NumericalError.
    """
    r, n = min(A.shape), A.shape[1]
    b = k + _OVERSAMPLE
    rng = np.random.Generator(np.random.Philox(key=_START_KEY))
    Q = np.linalg.qr(rng.standard_normal((n, b)))[0]
    s = None
    residuals = []
    for steps in itertools.count(1):
        AQ = A @ Q
        if s is not None:
            residual = np.linalg.norm(AQ @ Vs - U * s, axis=0).max()
            stalled = residuals and residuals[-1] <= residual <= _FLOOR_TOL * s[0]
            if residual <= _STOP_TOL * s[0] or stalled:
                break
            residuals.append(residual)
            if len(residuals) >= 3:
                rho = np.sqrt(residual / residuals[-3])  # NaN when the norms overflow
                if not rho < 1.0 or np.log(_STOP_TOL * s[0] / residual) / np.log(rho) * 2 * b > r:
                    return None, steps
        P = np.linalg.qr(AQ)[0]
        # (P^T A)^T reads a C-ordered A along its rows: 2-3x faster than
        # A.T @ P with OpenBLAS on 2 threads.
        Q, R = np.linalg.qr((P.T @ A).T)
        Us, s_all, Vst = np.linalg.svd(R.T)
        s = s_all[:k]
        U = P @ Us[:, :k]
        Vs = np.ascontiguousarray(Vst[:k].T)

    V = Q @ Vs
    residual = _residual(A, s, U, V)
    if not residual <= _CERTIFICATE_TOL * s[0]:
        raise NumericalError(
            f"subspace iteration residual {residual:.3e} exceeds "
            f"{_CERTIFICATE_TOL:g} * s_1 = {_CERTIFICATE_TOL * s[0]:.3e}"
        )
    return (s, U, V), steps


def gram_eigenpairs(W: np.ndarray):
    """(s^2, U) of a wide W from eigh(W W^T): descending, U up to sign, both off by ~eps * s_1^2.

    Raises NumericalError when W W^T overflows or eigh does not converge.
    """
    with fits_in_memory(W.shape, "the Gram eigendecomposition of a {} matrix"):
        try:
            lam, Z = np.linalg.eigh(W @ W.T)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigh of the Gram matrix failed: {exc}") from exc
    return lam[::-1], Z[:, ::-1]


def _gram_svd(A: np.ndarray, k: int):
    """Leading k triplets from eigh(W W^T), W the wide orientation of A, or None.

    The long-side vectors are W^T u / s.  W W^T rounds at about eps * s_1^2,
    so values near sqrt(eps) * s_1 fail the certificate: None (dense path).
    """
    W = A if A.shape[0] <= A.shape[1] else A.T
    try:
        lam, Z = gram_eigenpairs(W)
    except NumericalError:
        return None
    lam, Z = lam[:k], Z[:, :k]
    if not lam[-1] > 0.0:
        return None
    s = np.sqrt(lam)
    X = (Z.T @ W).T / s
    U, V = (Z, X) if W is A else (X, Z)
    return (s, U, V) if _residual(A, s, U, V) <= _CERTIFICATE_TOL * s[0] else None


def singular_values(A: np.ndarray) -> np.ndarray:
    """All singular values of A's wide orientation, descending, from one values-only SVD."""
    with fits_in_memory(A.shape):
        return np.linalg.svd(A if A.shape[0] <= A.shape[1] else A.T, compute_uv=False)


def _dense_svd(A: np.ndarray, k: int):
    """Leading k triplets sliced from one thin dense SVD of A's wide orientation."""
    W = A if A.shape[0] <= A.shape[1] else A.T
    L, s, Rt = np.linalg.svd(W, full_matrices=False)
    U, V = (L, Rt.T) if W is A else (Rt.T, L)
    return s[:k], U[:, :k], V[:, :k]


def _residual(A: np.ndarray, s: np.ndarray, U: np.ndarray, V: np.ndarray) -> float:
    """Largest ||A v - s u|| or ||A^T u - s v|| over the triplets."""
    return max(
        np.linalg.norm(A @ V - U * s, axis=0).max(),
        np.linalg.norm((U.T @ A).T - V * s, axis=0).max(),
    )


def truncated_svd(A, k: int):
    """Leading ``k`` singular triplets of a dense matrix.

    Parameters
    ----------
    A : array-like or DataMatrix, shape (m, n)
    k : int, 1 <= k <= min(m, n)

    Returns
    -------
    s : (k,) singular values, descending
    U : (m, k) left singular vectors, orthonormal columns
    V : (n, k) right singular vectors, orthonormal columns

    When 4 * (k + 4) <= r = min(m, n), block subspace iteration with k + 4
    vectors from a fixed Philox start stops once ||A v - s u|| <= 1e-14 * s_1
    for every triplet (or once it is below 1e-12 * s_1 and no longer falls).
    It hands off to the eigenpairs of the r x r Gram matrix when its
    residuals' contraction predicts more work than one r-column pass over A.
    Both paths return only triplets with ||A v - s u|| and ||A^T u - s v||
    at most 1e-10 * s_1; a failing subspace result raises NumericalError,
    and a failing Gram one goes to a thin dense SVD of A (or of A^T when A
    is tall), sliced, which also serves larger k.  Running out of memory
    raises InputError naming the size.  Signs follow the module convention
    on every path, so u^T A v = s >= 0 holds by construction and results
    are reproducible bit-for-bit on identical input.
    """
    A = as_matrix(A, "A")
    m, n = A.shape
    k = check_int(k, "k", 1, min(m, n))

    triplets = None
    with fits_in_memory(A.shape):
        if _SUBSPACE_RATIO * (k + _OVERSAMPLE) <= min(m, n):
            triplets = _subspace_svd(A, k)[0] or _gram_svd(A, k)
        triplets = triplets or _dense_svd(A, k)
    s, U, V = (np.ascontiguousarray(x) for x in triplets)
    _fix_singular_signs(s, U, V)

    if not (np.isfinite(s).all() and np.isfinite(U).all() and np.isfinite(V).all()):
        raise NumericalError("SVD produced non-finite factors")
    return s, U, V
