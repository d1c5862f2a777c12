"""Joint spectral embeddings built from a transport plan's singular triplets.

A converged plan W between m points of X and n points of Y has the all-ones
pair as its leading singular triplet: s_1 = 1 with u_1 = 1/sqrt(m) and
v_1 = 1/sqrt(n).  The coordinates that align the two clouds come from the
next q triplets:

    x~_i[k] = sqrt(m) * s_{k+1}^t * u_{k+1}[i]
    y~_j[k] = sqrt(n) * s_{k+1}^t * v_{k+1}[j]        (k = 1..q)

At t = 0 these are, among all pairs of zero-mean, unit-second-moment,
uncorrelated-coordinate configurations, the minimizers of the plan-weighted
alignment cost sum_ij ||x'_i - y'_j||^2 W_ij.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, InputError, PlanNotConvergedError
from .linalg import check_int, check_real, truncated_svd
from .transport import TransportPlan, transport_plan

DEFAULT_GAP_THRESHOLD = 0.02
_LEADING_VALUE_TOL = 1e-6
_TRIVIAL_VECTOR_TOL = 1e-6
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class SpectralModel:
    """Leading singular triplets of a plan, with the trivial pair certified.

    Only :func:`spectral_model` builds one, and it raises instead of
    returning an uncertified model: ``s`` is descending with s[0] == 1 and
    the first columns of U and V are the constant vectors, both within 1e-6.
    The signs follow :func:`eotmaps.linalg.truncated_svd`.  U has one row
    per point of the caller's X and V one per point of Y.
    """

    s: np.ndarray  # (k,)
    U: np.ndarray  # (|X|, k)
    V: np.ndarray  # (|Y|, k)


class DimensionSelection(NamedTuple):
    q: int
    degenerate: bool


@dataclass(frozen=True)
class JointEmbedding:
    """Aligned coordinates for both clouds.

    Xt has one row per point of the caller's X, Yt per point of Y; column k
    (0-based) is coordinate k+1 of the shared diffusion space.  ``s_used``
    are the q singular values behind the coordinates.
    """

    Xt: np.ndarray
    Yt: np.ndarray
    q: int
    t: int
    s_used: np.ndarray


def spectral_model(plan: TransportPlan, k: int) -> SpectralModel:
    """Compute k singular triplets of the plan and certify the leading pair.

    The factors come back in the caller's order (U for X, V for Y), also
    from a plan stored as (Y, X): then they are exchanged, bits unchanged.

    Raises PlanNotConvergedError when the leading singular value is not 1
    within 1e-6 or the leading vectors deviate entrywise by more than 1e-6
    from the constant vectors they must equal for a converged plan.
    """
    if not isinstance(plan, TransportPlan):
        raise InputError("plan must be a TransportPlan")
    m, n = plan.shape
    s, U, V = truncated_svd(plan.W, k)
    if abs(s[0] - 1.0) > _LEADING_VALUE_TOL:
        raise PlanNotConvergedError(
            f"leading singular value {s[0]:.12g} is not 1 within {_LEADING_VALUE_TOL:g}; "
            "the plan's marginals are off"
        )
    du = np.abs(U[:, 0] - 1.0 / np.sqrt(m)).max()
    dv = np.abs(V[:, 0] - 1.0 / np.sqrt(n)).max()
    if max(du, dv) > _TRIVIAL_VECTOR_TOL:
        raise PlanNotConvergedError(
            f"leading singular vectors deviate from the constant pair by {max(du, dv):.3e}"
        )
    if plan.swapped:
        U, V = V, U
    return SpectralModel(s=s, U=U, V=V)


def select_dimension(s, threshold: float = DEFAULT_GAP_THRESHOLD) -> DimensionSelection:
    """Pick the embedding dimension from consecutive singular-value ratios.

    Returns the largest index i (1-based, over the descending spectrum
    including the trivial leading value) with s_i / s_{i+1} >= 1 + threshold.
    A zero denominator under a positive numerator counts as an infinite
    ratio.  When no index qualifies the selection is reported as q=1 with
    the ``degenerate`` flag set.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.size < 2:
        raise InputError("s must be a 1-D spectrum with at least two values")
    if not np.isfinite(s).all():
        raise InputError("s contains non-finite values")
    if (s < 0).any() or (np.diff(s) > 0).any():
        raise InputError("s must be nonnegative and non-increasing")
    threshold = check_real(threshold, "threshold", 0, strict=True)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = s[:-1] / s[1:]
    qualifying = np.where(np.isnan(ratios), False, ratios >= 1.0 + threshold)
    if not qualifying.any():
        return DimensionSelection(q=1, degenerate=True)
    return DimensionSelection(q=int(np.nonzero(qualifying)[0][-1] + 1), degenerate=False)


def embed_from_model(
    model: SpectralModel, plan: TransportPlan, q: int | str, t: int
) -> JointEmbedding:
    """Assemble embedding coordinates from triplets 2..q+1 of a spectral model.

    ``q`` is an integer in [1, min(m, n)-1] (m = |X|, n = |Y|) or "auto",
    which picks it with :func:`select_dimension` over the model's spectrum
    (the model must then hold all min(m, n) triplets) and warns when it
    falls back to q=1.  Use this instead of :func:`eot_eigenmaps` when the model is also needed for other
    purposes (spectra, diffusion distances) and should only be computed once.
    """
    if not isinstance(model, SpectralModel):
        raise InputError("model must be a SpectralModel")
    if not isinstance(plan, TransportPlan):
        raise InputError("plan must be a TransportPlan")
    t = check_int(t, "t", 0)
    m, n = model.U.shape[0], model.V.shape[0]
    if sorted((m, n)) != sorted(plan.shape):
        raise InputError("model does not match the plan's shape")
    rank = min(m, n)

    if isinstance(q, str):
        if q != "auto":
            raise InputError(f'q must be a positive integer or "auto", got {q!r}')
        if model.s.size != rank:
            raise DimensionError(f'q="auto" needs all {rank} triplets, model holds {model.s.size}')
        selection = select_dimension(model.s)
        if selection.degenerate:
            warnings.warn(
                "no singular-value ratio clears the selection threshold; "
                "falling back to q=1",
                RuntimeWarning,
                stacklevel=2,
            )
        q = selection.q
    q = check_int(q, "q", 1, rank - 1)
    if model.s.size < q + 1:
        raise DimensionError(f"model holds {model.s.size} triplets, need {q + 1}")
    if model.s.size >= q + 2 and abs(model.s[q] - model.s[q + 1]) <= _TIE_TOL:
        warnings.warn(
            f"singular values {q + 1} and {q + 2} coincide within {_TIE_TOL:g}; "
            "the last embedding coordinate is only defined up to rotation",
            RuntimeWarning,
            stacklevel=2,
        )
    factors = model.s[1 : q + 1] ** t
    Xt = np.sqrt(m) * model.U[:, 1 : q + 1] * factors[None, :]
    Yt = np.sqrt(n) * model.V[:, 1 : q + 1] * factors[None, :]
    return JointEmbedding(Xt=Xt, Yt=Yt, q=q, t=t, s_used=model.s[1 : q + 1].copy())


def eot_eigenmaps(
    X,
    Y,
    q="auto",
    t: int = 0,
    epsilon="median",
    tol: float = 1e-10,
    max_iter: int = 10000,
    plan: TransportPlan | None = None,
) -> JointEmbedding:
    """Jointly embed two clouds via the spectrum of their entropic plan.

    Parameters
    ----------
    X, Y : point clouds with a shared feature dimension
    q : embedding dimension (1 <= q <= min(m,n)-1), or "auto" to pick it by
        the spectral-ratio rule (emits a warning when the spectrum is too
        flat to choose and q falls back to 1)
    t : diffusion time, a nonnegative integer; t=0 gives the
        constraint-optimal alignment coordinates
    epsilon : kernel bandwidth, a positive number or "median"
    tol, max_iter : Sinkhorn convergence controls
    plan : optionally, a precomputed plan for these clouds (epsilon/tol/
        max_iter are then ignored)

    Returns
    -------
    JointEmbedding in the caller's order (Xt aligns with X's rows).
    """
    check_int(t, "t", 0)
    if plan is None:
        plan = transport_plan(X, Y, epsilon=epsilon, tol=tol, max_iter=max_iter)
    m = plan.shape[0]
    # "auto" reads the whole spectrum; a fixed q needs one triplet past its
    # last coordinate for the tie check.
    k = m if isinstance(q, str) else min(m, check_int(q, "q", 1, m - 1) + 2)
    return embed_from_model(spectral_model(plan, k=k), plan, q=q, t=t)


def embedding_cost(emb: JointEmbedding, plan: TransportPlan) -> float:
    """Plan-weighted alignment cost sum_ij ||x~_i - y~_j||^2 W_ij."""
    if not isinstance(emb, JointEmbedding):
        raise InputError("emb must be a JointEmbedding")
    if not isinstance(plan, TransportPlan):
        raise InputError("plan must be a TransportPlan")
    A, B = (emb.Yt, emb.Xt) if plan.swapped else (emb.Xt, emb.Yt)  # as the stored W
    m, n = plan.shape
    if A.shape[0] != m or B.shape[0] != n:
        raise InputError("embedding does not match the plan's shape")
    if A.shape[1] != B.shape[1]:
        raise InputError("embedding blocks must share their dimension")
    row_sums = plan.W.sum(axis=1)
    col_sums = plan.W.sum(axis=0)
    cross = np.einsum("ik,ij,jk->", A, plan.W, B)
    return float(
        row_sums @ np.einsum("ij,ij->i", A, A)
        + col_sums @ np.einsum("ij,ij->i", B, B)
        - 2.0 * cross
    )


__all__ = [
    "SpectralModel",
    "DimensionSelection",
    "JointEmbedding",
    "spectral_model",
    "select_dimension",
    "eot_eigenmaps",
    "embed_from_model",
    "embedding_cost",
    "DEFAULT_GAP_THRESHOLD",
]
