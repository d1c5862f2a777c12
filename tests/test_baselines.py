import numpy as np
import pytest

from eotmaps import DimensionError, InputError, joint_pca_embed, pca_embed

RNG = np.random.default_rng(60)


def test_pca_hand_oracle():
    # centered data has orthogonal columns with norms 2 and 4; the top
    # direction is the second axis, and the sign rule, which reads the short
    # side (here the direction itself), makes it +e2, so the scores are the
    # centered second column [-2, -2, 2, 2]
    X = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0], [2.0, 4.0]])
    scores = pca_embed(X, 1)
    np.testing.assert_allclose(scores, [[-2.0], [-2.0], [2.0], [2.0]], atol=1e-12)


def test_pca_scores_are_centered_and_decorrelated():
    X = RNG.normal(size=(40, 6)) @ np.diag([5.0, 3.0, 1.0, 0.5, 0.2, 0.1])
    S = pca_embed(X, 3)
    np.testing.assert_allclose(S.mean(axis=0), 0.0, atol=1e-10)
    G = S.T @ S
    np.testing.assert_allclose(G - np.diag(np.diag(G)), 0.0, atol=1e-8)
    # captured variance is decreasing across components
    v = np.diag(G)
    assert np.all(np.diff(v) <= 1e-10)


def test_pca_matches_covariance_eigendecomposition():
    X = RNG.normal(size=(25, 4))
    Xc = X - X.mean(axis=0)
    cov = Xc.T @ Xc / (25 - 1)
    w = np.sort(np.linalg.eigvalsh(cov))[::-1]
    S = pca_embed(X, 4)
    np.testing.assert_allclose((S**2).sum(axis=0) / (25 - 1), w, atol=1e-10)


def test_pca_translation_invariant():
    X = RNG.normal(size=(15, 3))
    np.testing.assert_allclose(pca_embed(X, 2), pca_embed(X + 100.0, 2), atol=1e-8)


def test_pca_validation():
    X = RNG.normal(size=(5, 3))
    with pytest.raises(DimensionError):
        pca_embed(X, 0)
    with pytest.raises(DimensionError):
        pca_embed(X, 4)  # > min(m-1, p)
    with pytest.raises(DimensionError):
        pca_embed(X[:1], 1)
    with pytest.raises(InputError):
        pca_embed(X, 1.5)


def test_joint_pca_splits_pooled_scores():
    X = RNG.normal(size=(7, 4))
    Y = RNG.normal(size=(11, 4))
    SX, SY = joint_pca_embed(X, Y, 2)
    pooled = pca_embed(np.vstack([X, Y]), 2)
    np.testing.assert_array_equal(np.vstack([SX, SY]), pooled)
    assert SX.shape == (7, 2) and SY.shape == (11, 2)


def test_joint_pca_identical_clouds():
    X = RNG.normal(size=(9, 3))
    SX, SY = joint_pca_embed(X, X, 2)
    np.testing.assert_array_equal(SX, SY)


def test_joint_pca_validation():
    with pytest.raises(InputError):
        joint_pca_embed(np.zeros((4, 3)), np.zeros((4, 2)), 1)
