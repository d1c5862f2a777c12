"""Bipartite graph operators induced by a transport plan, and their spectra.

The plan W couples the m points of X (its rows) and the n points of Y (its
columns) into one bipartite graph on m + n vertices, X's first, with
adjacency

    W_hat = [[0, W], [W^T, 0]],      L = I - W_hat,

and the degree-like rescaling D = diag(sqrt(m) I_m, sqrt(n) I_n) turns L
into the similar operator L_tilde = D L D^{-1} whose complement
P = I - L_tilde is row-stochastic.  ``build_operators`` keeps only L and P:
W_hat = I - L, L_tilde = I - P and W = -L[:m, m:], bit for bit.  The entire
spectrum of L is a known function of the plan's singular values, and the
eigenvectors are assembled from the plan's singular vectors;
``predicted_spectrum`` builds both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import SpectralModel
from .errors import DimensionError, InputError, InvariantError, NumericalError
from .transport import TransportPlan

DEFAULT_MAX_SIZE = 5000
_MARGINAL_GATE = 1e-10
_ROW_STOCHASTIC_TOL = 1e-10
_AGREEMENT_TOL = 1e-8


@dataclass(frozen=True)
class BipartiteOperators:
    """Dense operator bundle for one plan: the Laplacian-like L and the walk P."""

    L: np.ndarray  # (m+n, m+n) I - W_hat
    P: np.ndarray  # (m+n, m+n) I - D L D^{-1}, row-stochastic
    m: int
    n: int


def build_operators(plan: TransportPlan, max_size: int = DEFAULT_MAX_SIZE) -> BipartiteOperators:
    """Assemble the dense bipartite operators for a converged plan.

    Requires m + n <= max_size (L and P are dense (m+n)^2 matrices) and a
    plan whose relative marginal violation is at or below 1e-10, since the
    row-stochasticity of P inherits exactly that violation.  L and P are the
    only (m+n)^2 arrays the build allocates.
    """
    if not isinstance(plan, TransportPlan):
        raise InputError("plan must be a TransportPlan")
    m, n = plan.shape
    if m + n > max_size:
        raise DimensionError(
            f"dense operators need m+n <= {max_size}, got {m + n}; raise max_size "
            "explicitly if you really want this"
        )
    row_target = np.sqrt(n / m)
    col_target = np.sqrt(m / n)
    violation = max(
        np.abs(plan.W.sum(axis=1) / row_target - 1.0).max(),
        np.abs(plan.W.sum(axis=0) / col_target - 1.0).max(),
    )
    if violation > _MARGINAL_GATE:
        raise InvariantError(
            f"plan marginals are violated at {violation:.3e} (> {_MARGINAL_GATE:g}); "
            "re-solve with a tighter tolerance before building graph operators"
        )

    # Block by block, with the rounding of I - W_hat and I - (D L) / D:
    # P's diagonal is 1 - (D_i * 1) / D_i = 0, its other blocks D_i W_ij / D_j.
    N = m + n
    L, P = np.eye(N), np.zeros((N, N))
    for rows, cols, block, a, b in ((np.s_[:m], np.s_[m:], plan.W, m, n),
                                    (np.s_[m:], np.s_[:m], plan.W.T, n, m)):
        np.negative(block, out=L[rows, cols])
        np.multiply(block, np.sqrt(a), out=P[rows, cols])
        P[rows, cols] /= np.sqrt(b)

    row_err = np.abs(P.sum(axis=1) - 1.0).max()
    if row_err > _ROW_STOCHASTIC_TOL:
        raise InvariantError(f"P is not row-stochastic within {_ROW_STOCHASTIC_TOL:g} ({row_err:.3e})")
    return BipartiteOperators(L=L, P=P, m=m, n=n)


def predicted_spectrum(model: SpectralModel):
    """Closed-form spectrum of L from the plan's full set of singular triplets.

    Parameters
    ----------
    model : SpectralModel holding all r = min(m, n) triplets of the plan;
        m = |X| and n = |Y| are the row counts of its U and V

    Returns
    -------
    values : (m+n,) eigenvalues of L in ascending order:
        0, 1-s_2, ..., 1-s_r, then 1 with multiplicity |m-n|, then
        1+s_r, ..., 1+s_2, 2
    vectors : (m+n, m+n) matching eigenvectors as columns; the first r are
        [u_k; v_k]/sqrt(2), the middle |m-n| are [0; w] (n > m) or [w; 0]
        (m > n) for an orthonormal completion w of the taller factor's
        singular subspace, and the last r are [u_k; -v_k]/sqrt(2) in
        reverse order.

    The middle band is degenerate, so only its eigenvalues (or residuals
    against L) are comparable across implementations; the completion used
    here is the deterministic QR completion of the taller factor's span.
    """
    if not isinstance(model, SpectralModel):
        raise InputError("model must be a SpectralModel")
    s, U, V = model.s, model.U, model.V
    m, n, r = U.shape[0], V.shape[0], s.size
    if r != min(m, n):
        raise DimensionError(f"model must hold all {min(m, n)} triplets of its plan, got {r}")

    values = np.concatenate([1.0 - s, np.ones(abs(n - m)), (1.0 + s)[::-1]])

    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    top = np.vstack([U * inv_sqrt2, V * inv_sqrt2])  # columns k=1..r
    bottom = np.vstack([U[:, ::-1] * inv_sqrt2, -V[:, ::-1] * inv_sqrt2])
    if m == n:
        return values, np.concatenate([top, bottom], axis=1)
    tall = U if m > n else V
    Q, _ = np.linalg.qr(np.concatenate([tall, np.eye(len(tall))], axis=1))
    blocks = [Q[:, r:], np.zeros((r, abs(n - m)))]
    middle = np.vstack(blocks if m > n else blocks[::-1])
    return values, np.concatenate([top, middle, bottom], axis=1)


def quadratic_form(ops: BipartiteOperators, f) -> float:
    """Evaluate f^T L f two ways and return the matrix-form value.

    The second route rewrites the form as the plan-weighted sum of squared
    rescaled differences across the bipartition:

        (1/sqrt(mn)) * sum_ij (sqrt(m) f_i - sqrt(n) f_{m+j})^2 W_ij

    The two evaluations must agree to 1e-8 relative to the scale of the
    form; disagreement raises NumericalError.
    """
    if not isinstance(ops, BipartiteOperators):
        raise InputError("ops must be a BipartiteOperators")
    f = np.asarray(f, dtype=float)
    if f.shape != (ops.m + ops.n,):
        raise InputError(f"f must have length {ops.m + ops.n}, got {f.shape}")
    if not np.isfinite(f).all():
        raise InputError("f contains non-finite entries")

    matrix_value = float(f @ (ops.L @ f))

    W = -ops.L[: ops.m, ops.m :]
    g = f[: ops.m]
    h = f[ops.m :]
    diffs = np.sqrt(ops.m) * g[:, None] - np.sqrt(ops.n) * h[None, :]
    weighted_value = float((diffs**2 * W).sum() / np.sqrt(ops.m * ops.n))

    scale = max(abs(matrix_value), abs(weighted_value), float(f @ f))
    if abs(matrix_value - weighted_value) > _AGREEMENT_TOL * max(scale, 1e-300):
        raise NumericalError(
            f"quadratic-form routes disagree: {matrix_value!r} vs {weighted_value!r}"
        )
    return matrix_value


__all__ = [
    "BipartiteOperators",
    "build_operators",
    "predicted_spectrum",
    "quadratic_form",
    "DEFAULT_MAX_SIZE",
]
