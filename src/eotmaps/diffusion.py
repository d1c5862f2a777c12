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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import SpectralModel, _full_model
from .errors import DimensionError, InputError
from .linalg import check_int, check_real

_BLOCKS = ("XX", "XY", "YX", "YY")
_KINDS = ("XX", "YY", "XY")
_PAIR_BLOCK = 256  # pairs whose factor rows are gathered at once


@dataclass(frozen=True)
class DiffusionContext:
    """A full-rank spectral model plus a diffusion time.

    The model must hold all min(m, n) triplets of the plan between the m
    points of X and the n points of Y, so block powers and distances are
    exact; a truncated model raises DimensionError.  Both work in the
    caller's order, as the model does.
    """

    model: SpectralModel
    t: int

    def __post_init__(self):
        _full_model(self.model)
        check_int(self.t, "t", 1)

    @property
    def m(self) -> int:
        return self.model.U.shape[0]

    @property
    def n(self) -> int:
        return self.model.V.shape[0]


def block_power(ctx: DiffusionContext, block: str) -> np.ndarray:
    """Spectral form of one block of the t-step walk.

    XX: U S^t U^T            XY: sqrt(m/n) U S^t V^T
    YX: sqrt(n/m) V S^t U^T  YY: V S^t V^T

    Every block has unit row sums.  Entries are guaranteed nonnegative only
    when the block matches the parity of t (XX/YY for even t, XY/YX for
    odd t), which is when the block coincides with the corresponding
    block of the dense walk matrix P^t.
    """
    if block not in _BLOCKS:
        raise InputError(f"block must be one of {_BLOCKS}, got {block!r}")
    sides = {"X": (ctx.model.U, ctx.m), "Y": (ctx.model.V, ctx.n)}
    (A, a), (B, b) = sides[block[0]], sides[block[1]]
    return np.sqrt(a / b) * (A * (ctx.model.s**ctx.t)[None, :]) @ B.T


def diffusion_distance(ctx: DiffusionContext, kind: str, i, j):
    """Exact t-step diffusion distance between vertices, in the caller's order.

    ``kind`` selects the pair: "XX" for rows i and j of X, "YY" for rows of
    Y, "XY" for row i of X against row j of Y (symmetric in the underlying
    walk, so there is no "YX").  Integer i and j give a float; equal-length
    1-D integer arrays give the array of distances of the pairs (i[k], j[k]),
    bitwise equal to one call per pair.  Every index is checked first.
    """
    if kind not in _KINDS:
        raise InputError(f"kind must be one of {_KINDS}, got {kind!r}")
    sides = {"X": (ctx.model.U, ctx.m), "Y": (ctx.model.V, ctx.n)}
    (A, a_size), (B, b_size) = sides[kind[0]], sides[kind[1]]
    i, j = np.asarray(i), np.asarray(j)
    for name, idx, size in (("i", i, a_size), ("j", j, b_size)):
        if idx.ndim > 1 or not np.issubdtype(idx.dtype, np.integer):
            raise InputError(f"{name} must be an integer or a 1-D integer array, "
                             f"got {idx.dtype} of ndim {idx.ndim}")
        outside = (idx < 0) | (idx >= size)
        if outside.any():
            raise DimensionError(f"{name} must be in [0, {size - 1}], got {idx[outside][0]}")
    if i.shape != j.shape:
        raise InputError(f"i and j must have the same shape, got {i.shape} and {j.shape}")

    s2t = ctx.model.s[1:] ** (2 * ctx.t)
    out = np.empty(i.size)
    for start in range(0, i.size, _PAIR_BLOCK):
        rows = slice(start, start + _PAIR_BLOCK)
        a = np.sqrt(a_size) * A[i.reshape(-1)[rows], 1:]
        b = np.sqrt(b_size) * B[j.reshape(-1)[rows], 1:]
        out[rows] = np.sqrt((s2t * (a - b) ** 2).sum(axis=1))
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
