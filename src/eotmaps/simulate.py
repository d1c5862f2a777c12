"""Synthetic two-sample generators: shared latent structure, per-dataset corruption.

Both clouds are driven by the same low-dimensional latent law and observed
through dataset-specific linear maps,

    x_i = nu1 + a1 * U xbar_i + V1 z1_i + eta1_i
    y_j = nu2 + a2 * U ybar_j + V2 z2_j + eta2_j,

where U, V1, V2 have orthonormal, mutually orthogonal columns: U carries the
shared signal, V1/V2 carry per-dataset nuisance directions, and eta is
additive Gaussian noise (optionally heteroskedastic).  Three presets wire
this up with a torus or Gaussian-mixture latent law.

Randomness comes from counter-based (Philox) streams keyed by
(seed, dataset, role), so outputs are bitwise reproducible and independent
of evaluation order or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import DataMatrix, as_labels, as_matrix, as_real, check_int, check_real

_ROLE_LATENT = 0
_ROLE_NUISANCE = 1
_ROLE_NOISE = 2

_ORTHO_TOL = 1e-10

TORUS_MAJOR = 2.0
TORUS_MINOR = 0.8
GMM_CLASSES = 6
GMM_MEAN_SCALE = 5.0


def _stream(seed, *key: int) -> np.random.Generator:
    """Philox generator for one (seed, *key) slot."""
    seed = check_int(seed, "seed", 0)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed,) + key)))


@dataclass(frozen=True)
class LatentSample:
    """Latent points (count, r) plus class labels when the law has classes.

    Points go through the matrix rule and labels through the label rule of
    :mod:`eotmaps.linalg`: complex, text or non-finite points, and labels
    that are not integers (integer-valued floats become int64) or do not
    match the points, raise InputError.
    """

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        pts = as_matrix(self.points, "latent points")
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            object.__setattr__(self, "labels", as_labels(self.labels, pts.shape[0]))

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def r(self) -> int:
        return self.points.shape[1]


def sample_torus(count: int, seed, dataset: int = 1) -> LatentSample:
    """Uniform angles on a torus of radii (2, 0.8), embedded in R^3.

    Angles u, v are independent U[0, 2*pi); the point is
    ((2 + 0.8 cos u) cos v, (2 + 0.8 cos u) sin v, 0.8 sin u).
    """
    count = check_int(count, "count", 1)
    rng = _stream(seed, int(dataset), _ROLE_LATENT)
    u = rng.uniform(0.0, 2.0 * np.pi, count)
    v = rng.uniform(0.0, 2.0 * np.pi, count)
    ring = TORUS_MAJOR + TORUS_MINOR * np.cos(u)
    pts = np.column_stack([ring * np.cos(v), ring * np.sin(v), TORUS_MINOR * np.sin(u)])
    return LatentSample(points=pts)


def sample_gmm(count: int, seed, dataset: int = 1) -> LatentSample:
    """Six equiprobable Gaussian classes in R^6, means 5*e_c, identity covariance."""
    count = check_int(count, "count", 1)
    rng = _stream(seed, int(dataset), _ROLE_LATENT)
    labels = rng.integers(0, GMM_CLASSES, size=count)
    means = GMM_MEAN_SCALE * np.eye(GMM_CLASSES)
    pts = means[labels] + rng.standard_normal((count, GMM_CLASSES))
    return LatentSample(points=pts, labels=labels)


@dataclass(frozen=True)
class UniformNuisance:
    """I.i.d. U[low, high] nuisance coordinates, one per column of the V basis."""

    low: float
    high: float

    def __post_init__(self):
        low = check_real(self.low, "low")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", check_real(self.high, "high", low))

    def sample(self, rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=(count, dim))


@dataclass(frozen=True)
class GaussianNoise:
    """Homoskedastic N(0, sigma^2) noise on every coordinate."""

    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", check_real(self.sigma, "sigma", 0))

    def std_map(self, count: int, p: int) -> np.ndarray:
        return np.full((count, p), self.sigma)

    def sample(self, rng: np.random.Generator, count: int, p: int) -> np.ndarray:
        return rng.standard_normal((count, p)) * self.std_map(count, p)


@dataclass(frozen=True)
class BandedGaussianNoise:
    """Heteroskedastic Gaussian noise in point/coordinate bands.

    With 1-based point index j of ``count`` points and coordinate index k:
    variance 10*sigma^2 when j <= floor(count/3) and 2 <= k <= r; variance
    5*sigma^2 when count/3 < j <= floor(2*count/3) and 1 <= k <= r; variance
    sigma^2 elsewhere.  (Coordinate 1 is deliberately excluded from the
    first band but included in the second.)
    """

    sigma: float
    r: int

    def __post_init__(self):
        object.__setattr__(self, "sigma", check_real(self.sigma, "sigma", 0))
        check_int(self.r, "r", 1)

    def std_map(self, count: int, p: int) -> np.ndarray:
        std = np.full((count, p), self.sigma)
        j = np.arange(1, count + 1)[:, None]
        k = np.arange(1, p + 1)[None, :]
        band1 = (j <= count // 3) & (k >= 2) & (k <= self.r)
        band2 = (3 * j > count) & (j <= (2 * count) // 3) & (k <= self.r)
        std[band1] = np.sqrt(10.0) * self.sigma
        std[band2] = np.sqrt(5.0) * self.sigma
        return std

    def sample(self, rng: np.random.Generator, count: int, p: int) -> np.ndarray:
        return rng.standard_normal((count, p)) * self.std_map(count, p)


def _check_basis(B: np.ndarray, p: int, name: str):
    if B.shape[0] != p:
        raise InputError(f"{name} must be a (p, *) matrix, got {B.shape}")
    if B.shape[1] == 0:
        return
    if np.abs(B.T @ B - np.eye(B.shape[1])).max() > _ORTHO_TOL:
        raise InputError(f"{name} columns are not orthonormal")


@dataclass(frozen=True)
class ObservationModelConfig:
    """Full description of the two observation maps.

    nuisance1/nuisance2 may each be None (no nuisance), an explicit
    per-point array of coefficients, or a UniformNuisance law; noise1/noise2
    may each be None or a noise law with a ``sample(rng, count, p)`` method.
    A complex, text or non-finite entry in nu1, nu2 or a basis raises
    InputError naming it, as do a wrong shape, bases that are not
    orthonormal or not mutually orthogonal, and a non-positive a1 or a2.
    """

    p: int
    r: int
    nu1: np.ndarray
    nu2: np.ndarray
    a1: float
    a2: float
    U_basis: np.ndarray
    V1_basis: np.ndarray
    V2_basis: np.ndarray
    nuisance1: object = None
    nuisance2: object = None
    noise1: object = None
    noise2: object = None
    seed: int = 0

    def __post_init__(self):
        check_int(self.p, "p", 1)
        check_int(self.r, "r", 1, self.p)
        for name in ("nu1", "nu2"):
            nu = as_real(getattr(self, name), name, 1)
            if nu.shape != (self.p,):
                raise InputError(f"{name} must be a finite vector of length p={self.p}")
            object.__setattr__(self, name, nu)
        for name in ("a1", "a2"):
            object.__setattr__(self, name, check_real(getattr(self, name), name, 0, strict=True))
        names = ("U_basis", "V1_basis", "V2_basis")
        U, V1, V2 = (as_real(getattr(self, name), name, 2) for name in names)
        if U.shape != (self.p, self.r):
            raise InputError(f"U_basis must be (p, r) = ({self.p}, {self.r}), got {U.shape}")
        for name, B in zip(names, (U, V1, V2)):
            _check_basis(B, self.p, name)
            object.__setattr__(self, name, B)
        for A, B, pair in ((U, V1, "U_basis/V1_basis"), (U, V2, "U_basis/V2_basis"),
                           (V1, V2, "V1_basis/V2_basis")):
            if A.shape[1] and B.shape[1] and np.abs(A.T @ B).max() > _ORTHO_TOL:
                raise InputError(f"{pair} are not mutually orthogonal")
        check_int(self.seed, "seed", 0)


def observe(latent: LatentSample, which: int, cfg: ObservationModelConfig) -> DataMatrix:
    """Apply observation map ``which`` (1 or 2) of the model to latent points.

    An explicit nuisance array with complex, text or non-finite entries
    raises InputError naming it (``nuisance1`` or ``nuisance2``); so do one
    not of shape (count, dim V) and any nuisance with an empty V basis.
    """
    if which not in (1, 2):
        raise InputError(f"which must be 1 or 2, got {which!r}")
    if not isinstance(latent, LatentSample):
        raise InputError("latent must be a LatentSample")
    if latent.r != cfg.r:
        raise InputError(f"latent dimension {latent.r} does not match the model's r={cfg.r}")

    nu = cfg.nu1 if which == 1 else cfg.nu2
    a = cfg.a1 if which == 1 else cfg.a2
    V = cfg.V1_basis if which == 1 else cfg.V2_basis
    nuisance = cfg.nuisance1 if which == 1 else cfg.nuisance2
    noise = cfg.noise1 if which == 1 else cfg.noise2
    count = latent.count

    M = nu[None, :] + a * (latent.points @ cfg.U_basis.T)
    if nuisance is not None:
        if V.shape[1] == 0:
            raise InputError(f"dataset {which} has nuisance values but an empty V basis")
        if isinstance(nuisance, UniformNuisance):
            z = nuisance.sample(_stream(cfg.seed, which, _ROLE_NUISANCE), count, V.shape[1])
        else:
            z = as_real(nuisance, f"nuisance{which}", 2)
            if z.shape != (count, V.shape[1]):
                raise InputError(
                    f"explicit nuisance for dataset {which} must have shape "
                    f"({count}, {V.shape[1]}), got {z.shape}"
                )
        M = M + z @ V.T
    if noise is not None:
        M = M + noise.sample(_stream(cfg.seed, which, _ROLE_NOISE), count, cfg.p)
    return DataMatrix(M)


@dataclass(frozen=True)
class SimulatedPair:
    """One simulated two-sample draw: observed clouds plus their latents."""

    X: DataMatrix
    Y: DataMatrix
    latent_x: LatentSample
    latent_y: LatentSample
    name: str
    param: float
    config: ObservationModelConfig

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
    eye = np.eye(p)
    if name == "clustering":
        theta = param
        nu1, a1, a2 = 15.0 * (eye[:, 0] + eye[:, 1]), theta, theta
        nuisance2 = UniformNuisance(theta / 2.0, theta)
        noise1, noise2 = GaussianNoise(1.0), BandedGaussianNoise(1.0, r)
        sample = sample_gmm
    else:
        theta = 13.0
        sigma = 0.05 * theta
        tau = param if name == "setting1" else 1.0
        nu1, a1, a2 = tau * 3.0 * theta * eye[:, 0], 3.0 * theta, theta
        nuisance2, noise1, noise2 = None, GaussianNoise(sigma), GaussianNoise(sigma)
        if name == "setting2":  # param is gamma
            nuisance2 = UniformNuisance(param * theta / 2.0, param * theta)
            noise2 = BandedGaussianNoise(sigma, r)
        sample = sample_torus
    cfg = ObservationModelConfig(
        p=p, r=r, nu1=nu1, nu2=np.zeros(p), a1=a1, a2=a2,
        U_basis=eye[:, :r], V1_basis=eye[:, :0], V2_basis=eye[:, r:],
        nuisance2=nuisance2, noise1=noise1, noise2=noise2, seed=seed,
    )
    lat_x = sample(m, seed, dataset=1)
    lat_y = sample(n, seed, dataset=2)

    X = observe(lat_x, 1, cfg)
    Y = observe(lat_y, 2, cfg)
    return SimulatedPair(X=X, Y=Y, latent_x=lat_x, latent_y=lat_y,
                         name=name, param=param, config=cfg)


__all__ = [
    "LatentSample",
    "UniformNuisance",
    "GaussianNoise",
    "BandedGaussianNoise",
    "ObservationModelConfig",
    "SimulatedPair",
    "sample_torus",
    "sample_gmm",
    "observe",
    "preset",
    "PRESET_NAMES",
]
