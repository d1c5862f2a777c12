"""Dense linear-algebra primitives with deterministic sign conventions.

Everything downstream (plan factorization, spectra, embeddings) funnels
through ``truncated_svd``, which decides each of these once:

* one orientation: it factors the wide orientation W of its input (A, or
  A^T when A is tall) and maps the factors back;
* one sign rule: each short-side vector (W's left vector) has its
  largest-magnitude entry made positive (the first, on ties), and its
  long-side partner flips with it, so ``u^T A v = s >= 0`` by construction
  and ``truncated_svd(A.T, k)`` is the exact mirror of ``truncated_svd(A, k)``;
* one certificate: block subspace iteration (Halko, Martinsson & Tropp
  2011, "Finding structure with randomness", SIAM Review) and then the
  small-side Gram eigenpairs propose triplets, a proposal is kept only when
  its two-sided residual passes, and a thin dense SVD serves the rest.

Triplets come out in descending order, bitwise reproducible on identical input.
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
# The iteration stops once max ||W v - s u|| / s_1 is at most _STOP_TOL, or
# once it is at most _FLOOR_TOL and no longer falls (rounding floor reached).
# The k-th vector's error grows like this residual over its gap to s_{k+1}.
_STOP_TOL = 1e-14
_FLOOR_TOL = 1e-12
_CERTIFICATE_TOL = 1e-10  # two-sided residual / s_1 an iterative proposal must meet
# QR first from N >= 1.2 r: at r = 1000, 1 BLAS thread, it took 1.12x the plain
# SVD's time at N = r, 1.00x at 1.1 r, 0.93x at 1.2 r and 0.70x at 5 r.
_QR_FIRST_ASPECT = 1.2
# Deflated spectrum: subspace steps that refine the block, and the bound, in
# units of eps * s_1, that its residual and the deflated values' error must meet.
_REFINE_STEPS = 2
_DEFLATION_TOL = 4.0
# s_k must be at least this multiple of s_{k+1}: the deflation then shrinks the
# Gram matrix's scale by 4 or more, and a flat block goes to QR first.
_DEFLATION_GAP = 2.0
# Power steps behind rho <= s_{k+1}^2, against which checks (b) and (c) are
# tried before the Gram product: after 3, rho read 0.66-1.0 s_{k+1}^2 on test and CLI plans.
_POWER_STEPS = 3


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
    """Coerce ``a`` (array-like or DataMatrix) to a validated float64 2-D array.

    A complex array raises InputError: its dtype is read, not its entries.
    """
    if isinstance(a, DataMatrix):
        return a.values
    dtype = getattr(a, "dtype", None)
    if isinstance(dtype, np.dtype) and dtype.kind == "c":  # the cast would drop the imaginary part
        raise InputError(f"{name} must be a matrix of real numbers")
    try:
        arr = np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{name} must be a matrix of real numbers") from None
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InputError(f"{name} must have at least one row and one column, got {arr.shape}")
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):  # NaN propagates: no m x n mask
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

    For each triplet of the wide W the entry of u with the largest magnitude
    is made positive, and v flips with u; entries within a relative _TIE_TOL
    of that magnitude count as tied, and the first of them decides.  Every
    path hands over pairs with u^T W v = s >= 0 (W = U S V^T on the dense
    path; W^T u = s v by construction and the two-sided certificate on the
    others), and a joint flip keeps that product, so no check against
    W is needed.  At or below SINGULAR_FLOOR the product carries no sign
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


def _subspace_svd(W: np.ndarray, k: int):
    """Leading k triplets and the next Ritz value of a wide W (or None), and the step count.

    Each step maps an orthonormal n x b block Q to P = orth(W Q), then
    W^T P = Q' R, and takes the Ritz triplets from the SVD of the b x b
    factor R^T = P^T W Q'.  W^T U = V S holds by construction, and
    ||W V - U S|| is read from the next W Q' product.  From the third
    residual on, rho = sqrt(r_j / r_{j-2}) (Ritz residuals can alternate)
    predicts the steps left to _STOP_TOL; if those, at two b-column passes
    over W each, would cost more than one r-column pass (W is r x n), the
    loop hands off (None).  The count is the number of W Q products.
    The (k+1)-th Ritz value is at most s_{k+1} (Cauchy interlacing).
    """
    r, n = W.shape
    b = k + _OVERSAMPLE
    rng = np.random.Generator(np.random.Philox(key=_START_KEY))
    Q = np.linalg.qr(rng.standard_normal((n, b)))[0]
    s = None
    residuals = []
    for steps in itertools.count(1):
        WQ = W @ Q
        if s is not None:
            residual = np.linalg.norm(WQ @ Vs - U * s, axis=0).max()
            stalled = residuals and residuals[-1] <= residual <= _FLOOR_TOL * s[0]
            if residual <= _STOP_TOL * s[0] or stalled:
                break
            residuals.append(residual)
            if len(residuals) >= 3:
                rho = np.sqrt(residual / residuals[-3])  # NaN when the norms overflow
                if not rho < 1.0 or np.log(_STOP_TOL * s[0] / residual) / np.log(rho) * 2 * b > r:
                    return None, steps
        P = np.linalg.qr(WQ)[0]
        # (P^T W)^T reads a C-ordered W along its rows: 2-3x faster than
        # W.T @ P with OpenBLAS on 2 threads.
        Q, R = np.linalg.qr((P.T @ W).T)
        Us, s_all, Vst = np.linalg.svd(R.T)
        s = s_all[:k]
        U = P @ Us[:, :k]
        Vs = np.ascontiguousarray(Vst[:k].T)
    return (s, U, Q @ Vs, s_all[k]), steps


def _wide(A: np.ndarray) -> np.ndarray:
    """The wide orientation of A: A itself, or A^T when A is tall."""
    return A if A.shape[0] <= A.shape[1] else A.T


def _small_side_gram(A: np.ndarray, k: int):
    """(s^2, U, W^T U[:, :k]) of A's wide orientation W from eigh(W W^T), s^2 descending.

    U is up to sign; all are off by ~eps * s_1^2.  Raises NumericalError when
    W W^T overflows or eigh does not converge.
    """
    W = _wide(A)
    with fits_in_memory(W.shape, "the Gram eigendecomposition of a {} matrix"):
        try:
            lam, Z = np.linalg.eigh(W @ W.T)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigh of the Gram matrix failed: {exc}") from exc
        Z = Z[:, ::-1]
        # (Z^T W)^T reads a C-ordered W along its rows; C order keeps row gathers fast
        return lam[::-1], Z, np.ascontiguousarray((Z[:, :k].T @ W).T)


def _gram_svd(W: np.ndarray, k: int):
    """Leading k triplets and s_{k+1} of a wide W from eigh(W W^T), long side W^T u / s, or None.

    W W^T rounds at about eps * s_1^2, so values near sqrt(eps) * s_1 fail the certificate.
    """
    try:
        lam, Z, WtZ = _small_side_gram(W, k)
    except NumericalError:
        return None
    if not lam[k - 1] > 0.0:
        return None
    s = np.sqrt(lam[:k])
    return s, Z[:, :k], WtZ / s, np.sqrt(max(lam[k], 0.0))


def singular_values(A: np.ndarray, block=None) -> np.ndarray:
    """All singular values of A's wide orientation W (r x N), descending.

    ``block`` is an optional pair (U, V) of A's leading k singular vectors,
    U with A's rows and V with its columns (a SpectralModel's, say); only the
    short side, W's left vectors, is read.  With a block and 0 < k < r, the
    deflated path runs: two subspace steps refine the block against W, its
    k values come from the SVD of P^T W, and the rest are the square roots
    of the r - k largest eigenvalues of W' W'^T, where W' = (I - P P^T) W
    (Golub & Van Loan 2013, section 8.6; Saad 2011, ch. 4).  The Gram
    matrix then rounds at eps * s_{k+1}^2, not eps * s_1^2.  Its values are
    kept only when three checks pass: (a) the refined block's two-sided
    residual is at most 4 eps * s_1; (b) the bound eps * s_{k+1}^2 / s_r on
    the deflated values' error is at most 4 eps * s_1; (c) s_k >= 2 s_{k+1}.
    (b) and (c) are first tried against rho <= s_{k+1}^2 from three power
    steps on W', (b) by a Cholesky factorization of the leading half of
    W' W'^T - tau I with P's directions lifted, so a plan shown to fail
    them skips the Gram product and eigvalsh.

    Without a block, or when a check fails, QR first: from N >= 1.2 r the
    values are those of R from a QR of W^T (Chan 1982), which LAPACK does
    itself only from N >= 11/6 r; below, one values-only SVD of W.  A
    failed check leaves exactly the bits of a call without a block.  Either
    path is within a few eps * s_1 of ``np.linalg.svd(A, compute_uv=False)``:
    at most 2 on the CLI's 1500 x 2000 plans, where a gap of 25 is
    deflated; a flat spectrum, where nothing would be, fails (c).  For a
    non-square A the result is bitwise equal to ``singular_values(A.T)``
    with the block's U and V exchanged.  Running out of memory raises
    InputError.
    """
    W = _wide(A)
    with fits_in_memory(A.shape):
        if block is not None:
            s = _deflated_values(W, np.asarray(block[0] if W is A else block[1], dtype=float))
            if s is not None:
                return s
        if W.shape[1] >= _QR_FIRST_ASPECT * W.shape[0]:
            W = np.linalg.qr(W.T, mode="r")
        return np.linalg.svd(W, compute_uv=False)


def _deflated_values(W: np.ndarray, P: np.ndarray):
    """All singular values of a wide W from its leading short-side block P, or None.

    None when P has no column, or all r of them, or when a check of
    :func:`singular_values` fails.
    """
    if P.ndim != 2 or P.shape[0] != W.shape[0]:
        raise InputError(f"the block's short-side vectors must form a {W.shape[0]} x k matrix, "
                         f"got shape {P.shape}")
    r, k = P.shape
    if not 0 < k < r:
        return None
    for _ in range(_REFINE_STEPS):
        P = np.linalg.qr(W @ np.linalg.qr((P.T @ W).T)[0])[0]
    B = P.T @ W
    Us, s, Vt = np.linalg.svd(B, full_matrices=False)
    eps = np.finfo(float).eps
    tol = _DEFLATION_TOL * eps * s[0]
    if not _residual(W, s, P @ Us, Vt.T) <= tol:  # (a)
        return None
    deflated = P @ B
    np.subtract(W, deflated, out=deflated)
    x = np.random.Generator(np.random.Philox(key=_START_KEY)).standard_normal(r)
    for _ in range(_POWER_STEPS):
        x = deflated @ (deflated.T @ x)
        x /= np.linalg.norm(x) or 1.0  # x = 0 when W' is, or underflows: rho = 0
    rho = np.linalg.norm(deflated.T @ x) ** 2 / (x @ x or 1.0)  # a Rayleigh quotient: <= s_{k+1}^2
    if s[-1] < _DEFLATION_GAP * np.sqrt(rho):  # (c) must fail
        return None
    # the leading half of W' W'^T + rho P P^T - (eps * rho / tol)^2 I, P's null
    # directions lifted: positive definite whenever s_r > eps * rho / tol, which
    # (b) implies (at rho = 0, never); the half costs a quarter of the Gram
    # product and of its memory
    head, lift = deflated[: (r + 1) // 2], P[: (r + 1) // 2]
    lifted = lift @ lift.T
    lifted *= rho
    lifted += head @ head.T
    lifted.flat[:: len(head) + 1] -= (eps * rho / tol) ** 2
    try:
        np.linalg.cholesky(lifted)
    except np.linalg.LinAlgError:
        return None
    del lifted
    G = deflated @ deflated.T
    del deflated
    tail = np.sqrt(np.maximum(np.linalg.eigvalsh(G)[: k - 1 : -1], 0.0))
    if not (eps * tail[0] ** 2 <= tol * tail[-1] and s[-1] >= _DEFLATION_GAP * tail[0]):  # (b), (c)
        return None
    return np.concatenate([s, tail])


def _dense_svd(W: np.ndarray, k: int):
    """Leading k triplets and s_{k+1} (None at k = min(m, n)) of W from one thin dense SVD."""
    L, s, Rt = np.linalg.svd(W, full_matrices=False)
    return s[:k], L[:, :k], Rt[:k].T, s[k] if k < s.size else None


def _residual(W: np.ndarray, s: np.ndarray, U: np.ndarray, V: np.ndarray) -> float:
    """Largest ||W v - s u|| or ||W^T u - s v|| over the triplets."""
    return max(
        np.linalg.norm(W @ V - U * s, axis=0).max(),
        np.linalg.norm((U.T @ W).T - V * s, axis=0).max(),
    )


class Triplets(tuple):
    """``(s, U, V)`` from :func:`truncated_svd`; ``s_next`` is the value after s[-1], or None."""

    def __new__(cls, triplets, s_next=None):  # the default lets pickle and copy rebuild it
        self = super().__new__(cls, triplets)
        self.s_next = s_next
        return self


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
    .s_next : s_{k+1} from the same factorization (on the subspace path the
        (k+1)-th Ritz value, never above it up to rounding); None at k = min(m, n)

    Every path factors the wide orientation W (A, or A^T when A is tall).
    With r = min(m, n) and 4 * (k + 4) <= r, two iterative paths propose
    triplets in turn: block subspace iteration with k + 4 vectors from a
    fixed Philox start (it stops at ||W v - s u|| <= 1e-14 * s_1, or below
    1e-12 * s_1 once that stops falling, and hands off when its residuals
    contract too slowly to beat one r-column pass over W), then the
    eigenpairs of the r x r Gram matrix W W^T.  The first proposal whose
    ||W v - s u|| and ||W^T u - s v|| are at most 1e-10 * s_1 is returned;
    otherwise a thin dense SVD of W, sliced, serves the call.  The
    certificate bounds the backward error, so a vector's error can reach
    the residual over its gap to the neighbouring values (about 1e-6 for
    nearly tied small values).  Running out of memory raises InputError.

    Signs are fixed on W's left vectors, the short side, before the factors
    are mapped back: for non-square A, ``truncated_svd(A.T, k)`` returns
    exactly ``(s, V, U)`` of ``truncated_svd(A, k)``.
    """
    A = as_matrix(A, "A")
    m, n = A.shape
    k = check_int(k, "k", 1, min(m, n))
    W = _wide(A)

    iterative = _SUBSPACE_RATIO * (k + _OVERSAMPLE) <= min(m, n)
    proposals = (lambda: _subspace_svd(W, k)[0], lambda: _gram_svd(W, k)) if iterative else ()
    with fits_in_memory(A.shape):
        for propose in proposals:
            proposal = propose()
            if proposal and _residual(W, *proposal[:3]) <= _CERTIFICATE_TOL * proposal[0][0]:
                break
        else:
            proposal = _dense_svd(W, k)
    s, U, V = (np.ascontiguousarray(x) for x in proposal[:3])
    _fix_singular_signs(s, U, V)

    if not (np.isfinite(s).all() and np.isfinite(U).all() and np.isfinite(V).all()):
        raise NumericalError("SVD produced non-finite factors")
    return Triplets((s, U, V) if W is A else (s, V, U), proposal[3])
