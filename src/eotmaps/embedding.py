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

import numpy as np

from .errors import DimensionError, InputError, PlanNotConvergedError
from .linalg import SINGULAR_FLOOR, as_real, check_int, truncated_svd
from .transport import DEFAULT_MAX_ITER, DEFAULT_TOL, TransportPlan, transport_plan

_AUTO_WINDOW = 10  # q="auto" picks q in [1, _AUTO_WINDOW], from s_1..s_{_AUTO_WINDOW+2}
_LEADING_VALUE_TOL = 1e-6
_TRIVIAL_VECTOR_TOL = 1e-6
_TIE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Leading singular triplets of a plan, with the trivial pair certified.

    Only :func:`spectral_model` builds one, and it raises instead of
    returning an uncertified model: ``s`` is descending with s[0] == 1 and
    the first columns of U and V are the constant vectors, both within 1e-6.
    The signs follow :func:`eotmaps.linalg.truncated_svd`.  U has one row
    per point of the caller's X and V one per point of Y.  ``s_next`` is
    the value after s[-1] from the same factorization (never above
    s_{k+1}, up to rounding), or None when k = min(m, n).
    """

    s: np.ndarray  # (k,)
    U: np.ndarray  # (|X|, k)
    V: np.ndarray  # (|Y|, k)
    s_next: float | None = None


@dataclass(frozen=True, eq=False)
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

    U has one row per point of X and V one per point of Y, as the plan.

    Raises PlanNotConvergedError when the leading singular value is not 1
    within 1e-6 or the leading vectors deviate entrywise by more than 1e-6
    from the constant vectors they must equal for a converged plan.
    """
    if not isinstance(plan, TransportPlan):
        raise InputError("plan must be a TransportPlan")
    s, U, V = triplets = truncated_svd(plan.W, k)
    _certify_trivial_pair(s[0], U[:, 0], V[:, 0])
    return SpectralModel(s=s, U=U, V=V, s_next=triplets.s_next)


def _certify_trivial_pair(s1: float, u1: np.ndarray, v1: np.ndarray):
    """Raise PlanNotConvergedError unless s1 = 1 and u1, v1 are the constant unit vectors.

    Each within 1e-6, and up to a joint sign, which an eigensolver does not fix.
    """
    if abs(s1 - 1.0) > _LEADING_VALUE_TOL:
        raise PlanNotConvergedError(
            f"leading singular value {s1:.12g} is not 1 within {_LEADING_VALUE_TOL:g}; "
            "the plan's marginals are off"
        )
    sign = 1.0 if u1.sum() >= 0.0 else -1.0
    du = np.abs(sign * u1 - 1.0 / np.sqrt(u1.size)).max()
    dv = np.abs(sign * v1 - 1.0 / np.sqrt(v1.size)).max()
    if max(du, dv) > _TRIVIAL_VECTOR_TOL:
        raise PlanNotConvergedError(
            f"leading singular vectors deviate from the constant pair by {max(du, dv):.3e}"
        )


def triplet_count(q, rank: int) -> int:
    """Triplets :func:`embed_from_model` needs for ``q`` at rank min(m, n), capped at the rank.

    A fixed q needs q + 1 triplets plus the next value, which the model's
    ``s_next`` holds, for the tie check; "auto" reads 12 values exactly.
    A rank below 2 raises DimensionError: its plan has no coordinate
    beyond the trivial pair.
    """
    if rank < 2:
        raise DimensionError(
            f"a plan of rank min(m, n) = {rank} has no non-trivial coordinate; "
            "each cloud needs at least two points"
        )
    q = _check_q(q, rank - 1)
    return min(rank, _AUTO_WINDOW + 2) if q == "auto" else q + 1


def _check_q(q, hi: int | None = None):
    """``q`` itself if it is "auto", else as an integer in [1, hi]; other strings raise InputError."""
    if isinstance(q, str) and q != "auto":
        raise InputError(f'q must be a positive integer or "auto", got {q!r}')
    return q if isinstance(q, str) else check_int(q, "q", 1, hi)


def select_dimension(s) -> int:
    """Pick the embedding dimension at the largest gap of the leading values.

    ``s`` is a descending spectrum with the trivial s_1 first (1-based).
    Returns the q in [1, min(10, len(s) - 2)] with the largest ratio
    s_{q+1} / s_{q+2}, the gap right after the last kept coordinate; ties go
    to the smallest q and two values give q = 1.  Values at or below
    SINGULAR_FLOOR * s_1 count as 0; x/0 with x > 0 is an infinite ratio
    and 0/0 no gap (ratio 1).  Only s_1..s_12 enter the choice.  A complex,
    text or non-finite entry in ``s`` raises InputError naming ``s``, as do
    fewer than two values and negative or increasing ones.
    """
    s = as_real(s, "s", 1)
    if s.size < 2:
        raise InputError("s must be a 1-D spectrum with at least two values")
    if (s < 0).any() or (np.diff(s) > 0).any():
        raise InputError("s must be nonnegative and non-increasing")

    head = s[: _AUTO_WINDOW + 2]
    head = np.where(head > SINGULAR_FLOOR * s[0], head, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = head[1:-1] / head[2:]
    ratios[np.isnan(ratios)] = 1.0
    return int(np.argmax(ratios)) + 1 if ratios.size else 1


def embed_from_model(model: SpectralModel, q: int | str, t: int) -> JointEmbedding:
    """Assemble embedding coordinates from triplets 2..q+1 of a spectral model.

    m = |X| and n = |Y| are the row counts of the model's U and V.  ``q`` is
    an integer in [1, min(m, n)-1] or "auto", which picks it with
    :func:`select_dimension` from the model's leading min(m, n, 12) values;
    a model holding fewer raises DimensionError, as does min(m, n) = 1,
    where no coordinate exists (see :func:`triplet_count`).  A fixed q
    needs q + 1 triplets; the tie check compares s_{q+1} with the value
    after it (the model's s_{q+2}, else its ``s_next``) and is skipped when
    there is none.
    Use this instead of :func:`eot_eigenmaps` when the plan is already
    solved, or when the model is also needed for other purposes (spectra,
    several embeddings) and should only be computed once.
    """
    if not isinstance(model, SpectralModel):
        raise InputError("model must be a SpectralModel")
    t = check_int(t, "t", 0)
    m, n = model.U.shape[0], model.V.shape[0]
    need = triplet_count(q, min(m, n))  # q + 1 for a fixed q, checked against the rank
    if model.s.size < need:
        raise DimensionError(f"q={q!r} needs {need} triplets, model holds {model.s.size}")
    q = select_dimension(model.s[:need]) if isinstance(q, str) else need - 1
    s_after = model.s[q + 1] if model.s.size > q + 1 else model.s_next
    if s_after is not None and abs(model.s[q] - s_after) <= _TIE_TOL:
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
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> JointEmbedding:
    """Jointly embed two clouds via the spectrum of their entropic plan.

    Parameters
    ----------
    X, Y : point clouds with a shared feature dimension
    q : embedding dimension (1 <= q <= min(m,n)-1), or "auto" for the q in
        [1, 10] at the largest gap of the leading singular values (see
        :func:`select_dimension`)
    t : diffusion time, a nonnegative integer; t=0 gives the
        constraint-optimal alignment coordinates
    epsilon : kernel bandwidth, a positive number or "median"
    tol, max_iter : Sinkhorn convergence controls

    Returns
    -------
    JointEmbedding in the caller's order (Xt aligns with X's rows).
    """
    check_int(t, "t", 0)
    _check_q(q)  # the upper bound needs the plan's shape
    plan = transport_plan(X, Y, epsilon=epsilon, tol=tol, max_iter=max_iter)
    return embed_from_model(spectral_model(plan, k=triplet_count(q, min(plan.shape))), q=q, t=t)


def embedding_cost(emb: JointEmbedding, plan: TransportPlan) -> float:
    """Plan-weighted alignment cost sum_ij ||x~_i - y~_j||^2 W_ij."""
    if not isinstance(emb, JointEmbedding):
        raise InputError("emb must be a JointEmbedding")
    if not isinstance(plan, TransportPlan):
        raise InputError("plan must be a TransportPlan")
    A, B = emb.Xt, emb.Yt
    if (A.shape[0], B.shape[0]) != plan.shape:
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
    "JointEmbedding",
    "spectral_model",
    "select_dimension",
    "eot_eigenmaps",
    "embed_from_model",
    "embedding_cost",
]
