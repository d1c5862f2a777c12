"""Dense linear-algebra primitives with deterministic sign conventions.

Everything downstream (plan factorization, spectra, embeddings) funnels
through the one decomposition here, so its conventions are pinned once:

* singular triplets come out in deterministic order (descending values)
  with deterministic signs, so repeated runs on the same input are bitwise
  identical;
* the sign of each left singular vector is fixed by making its
  largest-magnitude entry positive (first such entry on ties), and the
  right vector is then aligned so that ``u^T A v >= 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError, NumericalError

# Singular values at or below this are treated as numerically zero when a
# sign can no longer be inferred from u^T A v.
SINGULAR_FLOOR = 1e-12


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


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` (array-like or DataMatrix) to a validated float64 2-D array."""
    if isinstance(a, DataMatrix):
        return a.values
    arr = np.asarray(a, dtype=float)
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

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


def _fix_singular_signs(A: np.ndarray, s: np.ndarray, U: np.ndarray, V: np.ndarray):
    """Apply the deterministic sign convention in place.

    For each triplet the entry of u with the largest magnitude is made
    positive (u and v flip together, preserving the pair).  When s is above
    SINGULAR_FLOOR the pair already satisfies u^T A v = s >= 0; below it the
    residual product carries no sign information, so v gets the
    largest-entry rule independently.
    """
    k = s.size
    idx = np.argmax(np.abs(U), axis=0)
    flips = np.where(U[idx, np.arange(k)] < 0, -1.0, 1.0)
    U *= flips
    V *= flips
    degenerate = s <= SINGULAR_FLOOR
    if degenerate.any():
        Vd = V[:, degenerate]
        idx = np.argmax(np.abs(Vd), axis=0)
        vflips = np.where(Vd[idx, np.arange(Vd.shape[1])] < 0, -1.0, 1.0)
        V[:, degenerate] *= vflips
    else:
        # Defensive: realign any pair whose product came out negative.
        d = np.einsum("ij,ij->j", U, A @ V)
        V *= np.where(d < 0, -1.0, 1.0)


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

    Signs follow the module convention, so results are reproducible
    bit-for-bit on identical input.
    """
    A = as_matrix(A, "A")
    m, n = A.shape
    k = check_int(k, "k", 1, min(m, n))

    if m <= n:
        U_full, s_full, Vt_full = np.linalg.svd(A, full_matrices=False)
        V_full = Vt_full.T
    else:
        # Work on the transpose so the small side drives the decomposition,
        # then swap the factors back.
        V_full, s_full, Ut_full = np.linalg.svd(A.T, full_matrices=False)
        U_full = Ut_full.T

    s = np.ascontiguousarray(s_full[:k])
    U = np.ascontiguousarray(U_full[:, :k])
    V = np.ascontiguousarray(V_full[:, :k])
    _fix_singular_signs(A, s, U, V)

    if not (np.isfinite(s).all() and np.isfinite(U).all() and np.isfinite(V).all()):
        raise NumericalError("SVD produced non-finite factors")
    return s, U, V

