"""Linear baselines the transport embedding is compared against."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InputError
from .linalg import as_matrix, check_int, truncated_svd


def pca_embed(X, q: int) -> np.ndarray:
    """Scores on the top-q principal directions of the column-centered data.

    Directions are eigenvectors of the sample covariance (descending
    eigenvalues), signed by :func:`eotmaps.linalg.truncated_svd`'s rule on
    the short side of the centered data: the direction itself when there
    are more rows than features, the normalized score vector otherwise.
    """
    X = as_matrix(X, "X")
    m, p = X.shape
    bound = min(m - 1, p)
    if bound < 1:
        raise DimensionError("PCA needs at least two rows")
    q = check_int(q, "q", 1, bound)
    Xc = X - X.mean(axis=0, keepdims=True)
    _, _, V = truncated_svd(Xc, q)
    return Xc @ V


def joint_pca_embed(X, Y, q: int) -> tuple[np.ndarray, np.ndarray]:
    """PCA scores of both clouds pooled (centered by the pooled mean).

    Returns the scores split back into the X block and the Y block, in the
    callers' row order.
    """
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    if X.shape[1] != Y.shape[1]:
        raise InputError(
            f"X and Y must share a feature dimension, got {X.shape[1]} and {Y.shape[1]}"
        )
    scores = pca_embed(np.vstack([X, Y]), q)
    return scores[: X.shape[0]], scores[X.shape[0] :]


__all__ = ["pca_embed", "joint_pca_embed"]
