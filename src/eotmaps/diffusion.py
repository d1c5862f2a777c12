"""Diffusion distances on the bipartite plan graph, in closed form.

With the full set of singular triplets of the plan between the m points of
X and the n points of Y, the t-step random walk blocks of
P = I - D(I - W_hat)D^{-1} have explicit spectral forms, and the diffusion
distances between any two vertices reduce to O(min(m, n)) sums:

    D_t(x_i, x_i')^2 = sum_{k>=2} s_k^{2t} (sqrt(m) u_k[i] - sqrt(m) u_k[i'])^2
    D_t(y_j, y_j')^2 = sum_{k>=2} s_k^{2t} (sqrt(n) v_k[j] - sqrt(n) v_k[j'])^2
    D_t(x_i, y_j)^2  = sum_{k>=2} s_k^{2t} (sqrt(m) u_k[i] - sqrt(n) v_k[j])^2

These equal the Euclidean distances between embedding rows at diffusion
time t with q = min(m, n) - 1, and truncating the sums after q + 1 terms
leaves a residual controlled by the first omitted singular value.

The distances need only these coordinates.  For t >= 2, s^t u and
s^(t-1) W^T u = s^t v come from one eigendecomposition of W W^T, W the
wide r x N orientation of the plan, whose absolute eigenvalue error of
about eps * s_1^2 then reaches the distances at rounding level only.  At
t = 1 the short side needs s = sqrt(s^2) itself, off by up to about
sqrt(eps) on the small values (Golub & Van Loan, *Matrix Computations*, on
the SVD via A^T A), so t = 1 takes the coordinates from the plan's SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embedding import _certify_trivial_pair, spectral_model
from .errors import DimensionError, InputError
from .linalg import _small_side_gram, check_int, check_real
from .transport import TransportPlan

_BLOCKS = ("XX", "XY", "YX", "YY")
_KINDS = ("XX", "YY", "XY")
_PAIR_BLOCK = 256  # pairs whose coordinate rows are gathered at once


@dataclass(frozen=True)
class DiffusionContext:
    """A converged plan, a diffusion time t >= 1, and the plan's diffusion coordinates.

    ``Xt`` (m x (r - 1)) and ``Yt`` (n x (r - 1)), r = min(m, n), hold
    sqrt(m) s_k^t u_k and sqrt(n) s_k^t v_k for k = 2..r in the caller's
    order, up to the sign of each column: from the small-side Gram
    eigenpairs for t >= 2, from the plan's SVD at t = 1 (see the module
    docstring).  Both routes certify the trivial pair first, so an
    unconverged plan raises PlanNotConvergedError.
    """

    plan: TransportPlan
    t: int
    Xt: np.ndarray = field(init=False, repr=False, compare=False)
    Yt: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.plan, TransportPlan):
            raise InputError("plan must be a TransportPlan")
        check_int(self.t, "t", 1)
        m, n = self.plan.shape
        if self.t == 1:
            model = spectral_model(self.plan, min(m, n))
            s, Xt, Yt, powers = model.s, model.U, model.V, (1, 1)
        else:
            lam, U, WtU = _small_side_gram(self.plan.W, min(m, n))
            s = np.sqrt(np.maximum(lam, 0.0))  # rounding can push small s^2 below 0
            _certify_trivial_pair(s[0], U[:, 0], WtU[:, 0] / s[0])
            # the long side holds W^T u_k = s_k v_k: one power of s less
            Xt, Yt = (U, WtU) if m <= n else (WtU, U)
            powers = (self.t, self.t - 1) if m <= n else (self.t - 1, self.t)
        for name, block, size, power in zip(("Xt", "Yt"), (Xt, Yt), (m, n), powers):
            coords = block[:, 1:]  # scaled in place: these blocks are this context's own
            coords *= np.sqrt(size) * s[1:] ** power
            object.__setattr__(self, name, coords)


def block_power(ctx: DiffusionContext, block: str) -> np.ndarray:
    """Spectral form of one block of the t-step walk, from the plan's full SVD.

    XX: U S^t U^T            XY: sqrt(m/n) U S^t V^T
    YX: sqrt(n/m) V S^t U^T  YY: V S^t V^T

    Every block has unit row sums.  Entries are guaranteed nonnegative only
    when the block matches the parity of t (XX/YY for even t, XY/YX for
    odd t), which is when the block coincides with the corresponding
    block of the dense walk matrix P^t.
    """
    if block not in _BLOCKS:
        raise InputError(f"block must be one of {_BLOCKS}, got {block!r}")
    m, n = ctx.plan.shape
    model = spectral_model(ctx.plan, min(m, n))
    sides = {"X": (model.U, m), "Y": (model.V, n)}
    (A, a), (B, b) = sides[block[0]], sides[block[1]]
    return np.sqrt(a / b) * (A * (model.s**ctx.t)[None, :]) @ B.T


def diffusion_distance(ctx: DiffusionContext, kind: str, i, j):
    """Exact t-step diffusion distance between vertices, in the caller's order.

    ``kind`` selects the pair: "XX" for rows i and j of X, "YY" for rows of
    Y, "XY" for row i of X against row j of Y (symmetric in the underlying
    walk, so there is no "YX").  Integer i and j give a float; equal-length
    1-D integer arrays give the array of distances of the pairs (i[k], j[k]),
    bitwise equal to one call per pair.  Every index is checked first.  The
    distance is the Euclidean one between rows of ``ctx.Xt`` / ``ctx.Yt``.
    """
    if kind not in _KINDS:
        raise InputError(f"kind must be one of {_KINDS}, got {kind!r}")
    A, B = (ctx.Xt if side == "X" else ctx.Yt for side in kind)
    i, j = np.asarray(i), np.asarray(j)
    for name, idx, size in (("i", i, len(A)), ("j", j, len(B))):
        if idx.ndim > 1 or not np.issubdtype(idx.dtype, np.integer):
            raise InputError(f"{name} must be an integer or a 1-D integer array, "
                             f"got {idx.dtype} of ndim {idx.ndim}")
        outside = (idx < 0) | (idx >= size)
        if outside.any():
            raise DimensionError(f"{name} must be in [0, {size - 1}], got {idx[outside][0]}")
    if i.shape != j.shape:
        raise InputError(f"i and j must have the same shape, got {i.shape} and {j.shape}")

    out = np.empty(i.size)
    for start in range(0, i.size, _PAIR_BLOCK):
        rows = slice(start, start + _PAIR_BLOCK)
        diff = A[i.reshape(-1)[rows]] - B[j.reshape(-1)[rows]]
        out[rows] = np.sqrt((diff**2).sum(axis=1))
    return float(out[0]) if i.ndim == 0 else out


def truncation_bound(s_next: float, t: int, m: int, n: int, kind: str) -> float:
    """Upper bound on the squared-distance mass lost by truncating at q.

    ``s_next`` is the first omitted singular value (s_{q+2} when the
    truncated sum kept triplets 2..q+1).  The residual of the squared
    distance is at most

        XX: 4m * s_next^{2t}    YY: 4n * s_next^{2t}
        XY: (sqrt(m) + sqrt(n))^2 * s_next^{2t}
    """
    if kind not in _KINDS:
        raise InputError(f"kind must be one of {_KINDS}, got {kind!r}")
    check_int(t, "t", 1)
    m = check_int(m, "m", 1)
    n = check_int(n, "n", 1)
    factor = check_real(s_next, "s_next", 0) ** (2 * t)
    if kind == "XX":
        return 4.0 * m * factor
    if kind == "YY":
        return 4.0 * n * factor
    return (np.sqrt(m) + np.sqrt(n)) ** 2 * factor


__all__ = [
    "DiffusionContext",
    "block_power",
    "diffusion_distance",
    "truncation_bound",
]
