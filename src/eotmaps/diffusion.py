"""Diffusion distances on the bipartite plan graph, in closed form.

With the full set of singular triplets of an (m, n) plan, the t-step random
walk blocks of P = I - D(I - W_hat)D^{-1} have explicit spectral forms, and
the diffusion distances between any two vertices reduce to O(m) sums:

    D_t(x_i, x_i')^2 = sum_{k>=2} s_k^{2t} (sqrt(m) u_k[i] - sqrt(m) u_k[i'])^2
    D_t(y_j, y_j')^2 = sum_{k>=2} s_k^{2t} (sqrt(n) v_k[j] - sqrt(n) v_k[j'])^2
    D_t(x_i, y_j)^2  = sum_{k>=2} s_k^{2t} (sqrt(m) u_k[i] - sqrt(n) v_k[j])^2

These equal the Euclidean distances between embedding rows at diffusion
time t with q = m - 1, and truncating the sums after q + 1 terms leaves a
residual controlled by the first omitted singular value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import SpectralModel
from .errors import InputError
from .linalg import check_int, check_real

_BLOCKS = ("XX", "XY", "YX", "YY")
_KINDS = ("XX", "YY", "XY")


@dataclass(frozen=True)
class DiffusionContext:
    """A full-rank spectral model plus a diffusion time.

    The model must hold all m triplets of the (m, n) plan so block powers
    and distances are exact.
    """

    model: SpectralModel
    t: int

    def __post_init__(self):
        if not isinstance(self.model, SpectralModel):
            raise InputError("model must be a SpectralModel")
        m = self.model.U.shape[0]
        if self.model.s.size != m:
            raise InputError(
                f"model must hold all {m} triplets (got {self.model.s.size}); "
                "diffusion formulas need the full spectrum"
            )
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
    when the block matches the parity of t (XX/YY for even t plus t=0, XY/YX
    for odd t), which is when the block coincides with the corresponding
    block of the dense walk matrix P^t.
    """
    if block not in _BLOCKS:
        raise InputError(f"block must be one of {_BLOCKS}, got {block!r}")
    model, t = ctx.model, ctx.t
    st = model.s**t
    if block == "XX":
        return (model.U * st[None, :]) @ model.U.T
    if block == "YY":
        return (model.V * st[None, :]) @ model.V.T
    if block == "XY":
        return np.sqrt(ctx.m / ctx.n) * (model.U * st[None, :]) @ model.V.T
    return np.sqrt(ctx.n / ctx.m) * (model.V * st[None, :]) @ model.U.T


def diffusion_distance(ctx: DiffusionContext, kind: str, i: int, j: int) -> float:
    """Exact t-step diffusion distance between two vertices.

    ``kind`` selects the pair: "XX" for rows i and j of the first cloud,
    "YY" for the second cloud, "XY" for row i of the first against row j of
    the second (symmetric in the underlying walk, so there is no "YX").
    """
    if kind not in _KINDS:
        raise InputError(f"kind must be one of {_KINDS}, got {kind!r}")
    model = ctx.model
    m, n = ctx.m, ctx.n
    i_limit = m if kind in ("XX", "XY") else n
    j_limit = n if kind in ("XY", "YY") else m
    check_int(i, "i", 0, i_limit - 1)
    check_int(j, "j", 0, j_limit - 1)

    s2t = model.s[1:] ** (2 * ctx.t)
    if kind == "XX":
        a = np.sqrt(m) * model.U[i, 1:]
        b = np.sqrt(m) * model.U[j, 1:]
    elif kind == "YY":
        a = np.sqrt(n) * model.V[i, 1:]
        b = np.sqrt(n) * model.V[j, 1:]
    else:
        a = np.sqrt(m) * model.U[i, 1:]
        b = np.sqrt(n) * model.V[j, 1:]
    return float(np.sqrt((s2t * (a - b) ** 2).sum()))


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
