"""Synthetic two-sample generators: shared latent structure, per-dataset corruption.

The three presets (:func:`preset`) draw both clouds from one low-dimensional
latent law and observe each through its own map of the model

    x = nu + a * U xbar + V z + eta,

where U = (e_1..e_r) carries the shared signal, V = (e_{r+1}..e_p) carries
i.i.d. uniform nuisance coordinates z, and eta is Gaussian noise,
heteroskedastic in bands on some clouds; each cloud has its own shift nu,
scale a, nuisance range and noise.

Randomness comes from counter-based (Philox) streams keyed by
(seed, dataset, role), so outputs are bitwise reproducible and independent
of evaluation order or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import check_int, check_real

_ROLE_LATENT = 0
_ROLE_NUISANCE = 1
_ROLE_NOISE = 2

TORUS_MAJOR = 2.0
TORUS_MINOR = 0.8
GMM_CLASSES = 6
GMM_MEAN_SCALE = 5.0


def _stream(seed, *key: int) -> np.random.Generator:
    """Philox generator for one (seed, *key) slot; ``seed`` is checked by the caller."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed,) + key)))


@dataclass(frozen=True, eq=False)
class LatentSample:
    """Drawn latent float64 points (count, r), plus int64 labels when the law has classes."""

    points: np.ndarray
    labels: np.ndarray | None = None

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def r(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """A drawn cloud's read-only float64 ``values``; kept only while the benchmark reads them."""

    values: np.ndarray


def sample_torus(count: int, seed, dataset: int = 1) -> LatentSample:
    """Uniform angles on a torus of radii (2, 0.8), embedded in R^3.

    Angles u, v are independent U[0, 2*pi); the point is
    ((2 + 0.8 cos u) cos v, (2 + 0.8 cos u) sin v, 0.8 sin u).
    """
    count, seed = check_int(count, "count", 1), check_int(seed, "seed", 0)
    rng = _stream(seed, int(dataset), _ROLE_LATENT)
    u = rng.uniform(0.0, 2.0 * np.pi, count)
    v = rng.uniform(0.0, 2.0 * np.pi, count)
    ring = TORUS_MAJOR + TORUS_MINOR * np.cos(u)
    pts = np.column_stack([ring * np.cos(v), ring * np.sin(v), TORUS_MINOR * np.sin(u)])
    return LatentSample(points=pts)


def sample_gmm(count: int, seed, dataset: int = 1) -> LatentSample:
    """Six equiprobable Gaussian classes in R^6, means 5*e_c, identity covariance."""
    count, seed = check_int(count, "count", 1), check_int(seed, "seed", 0)
    rng = _stream(seed, int(dataset), _ROLE_LATENT)
    labels = rng.integers(0, GMM_CLASSES, size=count)
    means = GMM_MEAN_SCALE * np.eye(GMM_CLASSES)
    pts = means[labels] + rng.standard_normal((count, GMM_CLASSES))
    return LatentSample(points=pts, labels=labels)


def _noise_std(count: int, p: int, sigma: float, r: int) -> np.ndarray:
    """Per-entry noise std: sigma, raised in two point/coordinate bands.

    With 1-based point index j of ``count`` points and coordinate index k:
    variance 10*sigma^2 when j <= floor(count/3) and 2 <= k <= r; variance
    5*sigma^2 when count/3 < j <= floor(2*count/3) and 1 <= k <= r; variance
    sigma^2 elsewhere.  (Coordinate 1 is deliberately excluded from the
    first band but included in the second.)  r = 0 gives sigma everywhere.
    """
    std = np.full((count, p), sigma)
    std[: count // 3, 1:r] = np.sqrt(10.0) * sigma
    std[count // 3 : (2 * count) // 3, :r] = np.sqrt(5.0) * sigma
    return std


def _draw_cloud(points, dataset, seed, nu, a, sigma, bands=0, nuisance=None) -> DataMatrix:
    """One cloud of the model: nu + a * points U^T + z V^T + eta.

    U = (e_1..e_r) and V = (e_{r+1}..e_p) for r latent and p = len(nu)
    observed dimensions, so a * points and z fill the first r and the last
    p - r columns by slicing; z is i.i.d. U[low, high] for ``nuisance``,
    absent for None; eta is Gaussian with the std map ``_noise_std(count,
    p, sigma, bands)``.  z and eta come from their roles' (seed, dataset) streams.
    """
    count, r = points.shape
    p = nu.size
    M = np.tile(nu, (count, 1))
    M[:, :r] += a * points
    if nuisance is not None:
        M[:, r:] += _stream(seed, dataset, _ROLE_NUISANCE).uniform(*nuisance, size=(count, p - r))
    noise = _stream(seed, dataset, _ROLE_NOISE).standard_normal((count, p))
    M += noise * _noise_std(count, p, sigma, bands)
    M.flags.writeable = False
    return DataMatrix(M)


@dataclass(frozen=True, eq=False)
class SimulatedPair:
    """One simulated draw: :class:`DataMatrix` clouds X (m, p) and Y (n, p), plus their latents."""

    X: DataMatrix
    Y: DataMatrix
    latent_x: LatentSample
    latent_y: LatentSample
    name: str

    @property
    def pooled_latent(self) -> np.ndarray:
        return np.vstack([self.latent_x.points, self.latent_y.points])

    @property
    def pooled_labels(self) -> np.ndarray:
        """Class labels when the latent law has them, else the dataset indicator."""
        if self.latent_x.labels is not None and self.latent_y.labels is not None:
            return np.concatenate([self.latent_x.labels, self.latent_y.labels])
        return np.concatenate(
            [np.zeros(self.latent_x.count, dtype=int), np.ones(self.latent_y.count, dtype=int)]
        )


PRESET_NAMES = ("setting1", "setting2", "clustering")


def preset(name: str, m: int, n: int, p: int, seed: int, param: float = 1.0) -> SimulatedPair:
    """Generate one of the three standard scenarios.

    setting1(param=tau): torus latents, r=3, theta=13, a1=3*theta, a2=theta;
        the first cloud is shifted by tau*3*theta along e_1; homoskedastic
        noise sigma=0.05*theta on both clouds; no nuisance coordinates.
    setting2(param=gamma): setting1 at tau=1, plus U[gamma*theta/2,
        gamma*theta] nuisance coordinates on the second cloud's complement
        basis and banded heteroskedastic noise on the second cloud.
    clustering(param=theta): six-class Gaussian-mixture latents, r=6,
        a1=a2=theta, first cloud shifted by 15*(e_1+e_2); U[theta/2, theta]
        nuisance on the second cloud, unit noise (banded on the second
        cloud); labels are attached to the latents.
    """
    if name not in PRESET_NAMES:
        raise InputError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    check_int(m, "m", 1)
    check_int(n, "n", 1)
    param = check_real(param, "param", 0, strict=True)

    r = 6 if name == "clustering" else 3
    check_int(p, "p", r + 1)
    if name == "clustering":
        theta = param
        nu1, a1, a2, sigma = np.zeros(p), theta, theta, 1.0
        nu1[:2] = 15.0
        nuisance2, bands2 = (theta / 2.0, theta), r
        sample = sample_gmm
    else:
        theta = 13.0
        sigma = 0.05 * theta
        tau = param if name == "setting1" else 1.0
        nu1, a1, a2 = np.zeros(p), 3.0 * theta, theta
        nu1[0] = tau * 3.0 * theta  # inf, not inf * 0, when tau is too large
        nuisance2, bands2 = None, 0
        if name == "setting2":  # param is gamma; InputError here, not numpy's OverflowError
            low, high = check_real(param * theta / 2.0, "low"), check_real(param * theta, "high")
            nuisance2, bands2 = (low, high), r
        sample = sample_torus
    lat_x = sample(m, seed, dataset=1)
    lat_y = sample(n, seed, dataset=2)

    with np.errstate(over="ignore", invalid="ignore"):  # each cloud is checked once, below
        X = _draw_cloud(lat_x.points, 1, seed, nu1, a1, sigma)
        Y = _draw_cloud(lat_y.points, 2, seed, np.zeros(p), a2, sigma, bands2, nuisance2)
    for M in (X.values, Y.values):  # NaN propagates through min and max
        if not (np.isfinite(M.min()) and np.isfinite(M.max())):
            raise InputError(f"param={param!r} is too large: the {name} clouds overflow")
    return SimulatedPair(X=X, Y=Y, latent_x=lat_x, latent_y=lat_y, name=name)


__all__ = [
    "SimulatedPair",
    "sample_torus",
    "sample_gmm",
    "preset",
    "PRESET_NAMES",
]
