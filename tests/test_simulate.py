import numpy as np
import pytest

from eotmaps import (
    BandedGaussianNoise,
    GaussianNoise,
    InputError,
    ObservationModelConfig,
    UniformNuisance,
    observe,
    preset,
    sample_gmm,
    sample_torus,
)


def test_banded_noise_std_map_hand_oracle():
    # count=6, p=5, r=2, sigma=1: first third gets 10x variance on
    # coordinate 2 only, middle third 5x variance on coordinates 1..2
    std = BandedGaussianNoise(1.0, 2).std_map(6, 5)
    s10, s5 = np.sqrt(10.0), np.sqrt(5.0)
    expected = np.array(
        [
            [1.0, s10, 1.0, 1.0, 1.0],
            [1.0, s10, 1.0, 1.0, 1.0],
            [s5, s5, 1.0, 1.0, 1.0],
            [s5, s5, 1.0, 1.0, 1.0],
            [1.0, 1.0, 1.0, 1.0, 1.0],
            [1.0, 1.0, 1.0, 1.0, 1.0],
        ]
    )
    np.testing.assert_array_equal(std, expected)


def test_banded_noise_band_edges_non_divisible():
    # count=7: floor(7/3)=2 rows in the first band, rows 3..4 in the second
    # (3*3 > 7 and 4 <= floor(14/3)), rows 5..7 baseline
    std = BandedGaussianNoise(2.0, 3).std_map(7, 4)
    assert std[1, 1] == pytest.approx(2.0 * np.sqrt(10.0))
    assert std[1, 0] == 2.0  # coordinate 1 excluded from the first band
    assert std[2, 0] == pytest.approx(2.0 * np.sqrt(5.0))
    assert std[3, 2] == pytest.approx(2.0 * np.sqrt(5.0))
    assert std[3, 3] == 2.0  # beyond r
    assert np.all(std[4:] == 2.0)


def test_banded_noise_scales_with_sigma():
    base = BandedGaussianNoise(1.0, 2).std_map(9, 4)
    np.testing.assert_allclose(BandedGaussianNoise(0.3, 2).std_map(9, 4), 0.3 * base)


def test_gaussian_noise_constant_std():
    np.testing.assert_array_equal(GaussianNoise(0.7).std_map(3, 4), np.full((3, 4), 0.7))
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(GaussianNoise(0.0).sample(rng, 5, 2), 0.0)


def test_noise_validation():
    with pytest.raises(InputError):
        GaussianNoise(-1.0)
    with pytest.raises(InputError):
        BandedGaussianNoise(1.0, 0)
    with pytest.raises(InputError):
        UniformNuisance(2.0, 1.0)
    with pytest.raises(InputError):
        UniformNuisance(True, 1.0)
    with pytest.raises(InputError):
        GaussianNoise(True)
    with pytest.raises(InputError):
        GaussianNoise("x")
    with pytest.raises(InputError):
        BandedGaussianNoise(np.bool_(True), 2)


def test_torus_sample_lies_on_torus():
    lat = sample_torus(200, seed=3)
    pts = lat.points
    assert pts.shape == (200, 3)
    assert lat.labels is None
    ring = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2) - 2.0
    np.testing.assert_allclose(ring**2 + pts[:, 2] ** 2, 0.8**2, atol=1e-12)


def test_torus_angles_cover_both_circles():
    # crude uniformity check: all four sign quadrants of each angle appear
    pts = sample_torus(500, seed=1).points
    assert (pts[:, 2] > 0).any() and (pts[:, 2] < 0).any()
    assert (pts[:, 0] > 0).any() and (pts[:, 0] < 0).any()
    ring = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
    assert ring.min() < 1.4 and ring.max() > 2.6


def test_gmm_sample_structure():
    lat = sample_gmm(3000, seed=5)
    assert lat.points.shape == (3000, 6)
    assert set(np.unique(lat.labels)) == set(range(6))
    centered = lat.points - 5.0 * np.eye(6)[lat.labels]
    assert np.abs(centered.mean(axis=0)).max() < 0.1
    assert abs(centered.std() - 1.0) < 0.05


def test_latent_sampling_deterministic_and_keyed():
    a = sample_torus(50, seed=9, dataset=1)
    b = sample_torus(50, seed=9, dataset=1)
    np.testing.assert_array_equal(a.points, b.points)
    other_dataset = sample_torus(50, seed=9, dataset=2)
    other_seed = sample_torus(50, seed=10, dataset=1)
    assert np.abs(a.points - other_dataset.points).max() > 1e-3
    assert np.abs(a.points - other_seed.points).max() > 1e-3

    g = sample_gmm(50, seed=9)
    np.testing.assert_array_equal(g.points, sample_gmm(50, seed=9).points)


def small_config(**overrides):
    eye = np.eye(4)
    base = dict(
        p=4,
        r=2,
        nu1=np.array([1.0, 0.0, 0.0, 0.0]),
        nu2=np.zeros(4),
        a1=2.0,
        a2=3.0,
        U_basis=eye[:, :2],
        V1_basis=eye[:, :0],
        V2_basis=eye[:, 2:],
        seed=0,
    )
    base.update(overrides)
    return ObservationModelConfig(**base)


def test_observe_exact_affine_formula():
    from eotmaps import LatentSample

    lat = LatentSample(points=np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 0.0]]))
    z = np.array([[1.0, -1.0], [2.0, 0.0], [0.0, 3.0]])
    cfg = small_config(nuisance2=z)

    X = observe(lat, 1, cfg).values
    expected_x = cfg.nu1[None, :] + 2.0 * lat.points @ cfg.U_basis.T
    np.testing.assert_array_equal(X, expected_x)

    Y = observe(lat, 2, cfg).values
    expected_y = 3.0 * lat.points @ cfg.U_basis.T + z @ cfg.V2_basis.T
    np.testing.assert_array_equal(Y, expected_y)


def test_observe_noise_is_deterministic_per_stream():
    from eotmaps import LatentSample

    lat = LatentSample(points=np.zeros((5, 2)))
    cfg = small_config(noise1=GaussianNoise(1.0), noise2=GaussianNoise(1.0))
    X1 = observe(lat, 1, cfg).values
    X2 = observe(lat, 1, cfg).values
    Y = observe(lat, 2, cfg).values
    np.testing.assert_array_equal(X1, X2)
    assert np.abs(X1 - Y).max() > 1e-3  # per-dataset streams differ

    reseeded = observe(lat, 1, small_config(noise1=GaussianNoise(1.0), seed=1)).values
    assert np.abs(X1 - reseeded).max() > 1e-3


def test_observe_uniform_nuisance_range():
    from eotmaps import LatentSample

    lat = LatentSample(points=np.zeros((400, 2)))
    cfg = small_config(nuisance2=UniformNuisance(2.0, 5.0))
    Y = observe(lat, 2, cfg).values
    z = Y[:, 2:]  # V2 spans the last two axes
    assert z.min() >= 2.0 and z.max() <= 5.0
    assert z.max() > 4.5 and z.min() < 2.5
    np.testing.assert_array_equal(Y[:, :2], 0.0)


def test_observe_validation():
    from eotmaps import LatentSample

    lat = LatentSample(points=np.zeros((3, 2)))
    cfg = small_config()
    with pytest.raises(InputError):
        observe(lat, 3, cfg)
    with pytest.raises(InputError):
        observe(LatentSample(points=np.zeros((3, 5))), 1, cfg)
    with pytest.raises(InputError):
        observe(lat, 2, small_config(nuisance2=np.ones((3, 1))))  # wrong width
    with pytest.raises(InputError):
        observe(lat, 1, small_config(nuisance1=np.ones((3, 2))))  # empty V1


def test_config_validation():
    eye = np.eye(4)
    with pytest.raises(InputError):
        small_config(U_basis=eye[:, :2] * 2.0)  # not orthonormal
    with pytest.raises(InputError):
        small_config(V2_basis=eye[:, :2])  # overlaps U
    with pytest.raises(InputError):
        small_config(nu1=np.zeros(3))
    with pytest.raises(InputError):
        small_config(a1=0.0)
    with pytest.raises(InputError):
        small_config(a2=True)
    with pytest.raises(InputError):
        small_config(a2="3")
    with pytest.raises(InputError):
        small_config(r=5)
    with pytest.raises(InputError):
        small_config(seed=-1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_bases_and_nuisance_are_named():
    # NaN > tol is False, so the orthogonality checks alone would pass these
    # and observe would fail later, on its output, with a misleading message
    eye = np.eye(4)
    nan_U = eye[:, :2].copy()
    nan_U[0, 0] = np.nan
    inf_V2 = eye[:, 2:].copy()
    inf_V2[3, 1] = np.inf
    with pytest.raises(InputError, match="U_basis contains non-finite entries"):
        small_config(U_basis=nan_U)
    with pytest.raises(InputError, match="V2_basis contains non-finite entries"):
        small_config(V2_basis=inf_V2)
    from eotmaps import LatentSample

    z = np.ones((3, 2))
    z[1, 0] = np.nan
    with pytest.raises(InputError, match="nuisance2 contains non-finite entries"):
        observe(LatentSample(points=np.zeros((3, 2))), 2, small_config(nuisance2=z))


def _caller_arrays():
    """Each converted argument: (name, a valid value, a call that passes it)."""
    from eotmaps import LatentSample, build_operators, quadratic_form, select_dimension, sinkhorn

    eye = np.eye(4)
    wide_v1 = dict(V1_basis=eye[:, 2:3], V2_basis=eye[:, 3:])  # V1 non-empty, orthogonal to V2
    ops = build_operators(sinkhorn(np.zeros((2, 3))))
    lat = LatentSample(points=np.zeros((3, 2)))
    return {
        "s": (np.array([1.0, 0.5, 0.2]), select_dimension),
        "f": (np.ones(5), lambda f: quadratic_form(ops, f)),
        "nu1": (np.ones(4), lambda v: small_config(nu1=v)),
        "nu2": (np.ones(4), lambda v: small_config(nu2=v)),
        "U_basis": (eye[:, :2], lambda B: small_config(U_basis=B)),
        "V1_basis": (eye[:, 2:3], lambda B: small_config(**{**wide_v1, "V1_basis": B})),
        "V2_basis": (eye[:, 2:], lambda B: small_config(V2_basis=B)),
        "nuisance2": (np.ones((3, 2)), lambda z: observe(lat, 2, small_config(nuisance2=z))),
    }


def _with_first_entry(good, make):
    """``good`` as nested lists, its first entry replaced by ``make(entry)``."""
    rows = good.tolist()
    inner = rows[0] if good.ndim == 2 else rows
    inner[0] = make(inner[0])
    return rows


def _complex_array(good):
    bad = good.astype(complex)
    bad.flat[0] += 1j
    return bad


def _nan_array(good):
    bad = good.copy()
    bad.flat[0] = np.nan
    return bad


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a ComplexWarning is one
@pytest.mark.parametrize("bad", ["complex-array", "complex-in-list", "text", "nan"])
@pytest.mark.parametrize("name", ["s", "f", "nu1", "nu2", "U_basis", "V1_basis", "V2_basis",
                                  "nuisance2"])
def test_caller_arrays_are_checked_not_cast(name, bad):
    # every array argument goes through linalg.as_real: complex values and
    # text are never cast to float, and the error names the argument
    good, call = _caller_arrays()[name]
    call(good)
    value = {
        "complex-array": _complex_array,
        "complex-in-list": lambda g: _with_first_entry(g, lambda x: complex(x, 1.0)),
        "text": lambda g: _with_first_entry(g, str),  # "1.0" would parse, but is text
        "nan": _nan_array,
    }[bad](good)
    message = "contains non-finite entries" if bad == "nan" else "must be a (vector|matrix) of real"
    with pytest.raises(InputError, match=f"^{name} {message}"):
        call(value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("labels,message", [
    (np.array([0, 1, 2 + 1j]), "must be integers"),
    ([0, 1, 1j], "must be integers"),
    (["0", "1", "2"], "must be integers"),
    ([0.0, 1.0, np.nan], "must be integers"),
    ([0.0, 0.5, 1.0], "must be integers"),
    ([0.0, 1.0, 1e30], "must lie in the int64 range"),
    ([0, 1], "must be a vector of length 3"),
], ids=["complex-array", "complex-in-list", "text", "nan", "fraction", "beyond-int64", "length"])
def test_latent_labels_follow_the_label_rule(labels, message):
    from eotmaps import LatentSample

    with pytest.raises(InputError, match=f"^labels {message}"):
        LatentSample(points=np.zeros((3, 2)), labels=labels)


def test_latent_labels_accept_integer_valued_floats():
    from eotmaps import LatentSample

    lat = LatentSample(points=np.zeros((3, 2)), labels=[2.0, 0.0, 5.0])
    assert lat.labels.dtype == np.int64
    np.testing.assert_array_equal(lat.labels, [2, 0, 5])

def test_preset_setting1_wiring():
    pair = preset("setting1", m=8, n=11, p=7, seed=4, param=2.0)
    cfg = pair.config
    assert pair.X.values.shape == (8, 7) and pair.Y.values.shape == (11, 7)
    assert cfg.a1 == 39.0 and cfg.a2 == 13.0
    np.testing.assert_array_equal(cfg.nu1, 2.0 * 39.0 * np.eye(7)[:, 0])
    np.testing.assert_array_equal(cfg.nu2, 0.0)
    assert isinstance(cfg.noise1, GaussianNoise) and cfg.noise1.sigma == 0.65
    assert isinstance(cfg.noise2, GaussianNoise)
    assert cfg.nuisance1 is None and cfg.nuisance2 is None
    assert pair.latent_x.r == 3
    # torus latents carry no class labels, so pooling falls back to the
    # dataset indicator
    np.testing.assert_array_equal(pair.pooled_labels, [0] * 8 + [1] * 11)
    assert pair.pooled_latent.shape == (19, 3)


def test_preset_setting2_wiring():
    pair = preset("setting2", m=6, n=9, p=8, seed=4, param=0.5)
    cfg = pair.config
    assert isinstance(cfg.nuisance2, UniformNuisance)
    assert cfg.nuisance2.low == pytest.approx(0.5 * 13.0 / 2.0)
    assert cfg.nuisance2.high == pytest.approx(0.5 * 13.0)
    assert isinstance(cfg.noise2, BandedGaussianNoise)
    assert cfg.noise2.sigma == 0.65 and cfg.noise2.r == 3
    np.testing.assert_array_equal(cfg.nu1, 39.0 * np.eye(8)[:, 0])  # tau fixed at 1


def test_preset_clustering_wiring():
    pair = preset("clustering", m=10, n=12, p=9, seed=2, param=3.0)
    cfg = pair.config
    assert cfg.a1 == 3.0 and cfg.a2 == 3.0
    np.testing.assert_array_equal(cfg.nu1, 15.0 * (np.eye(9)[:, 0] + np.eye(9)[:, 1]))
    assert isinstance(cfg.nuisance2, UniformNuisance)
    assert (cfg.nuisance2.low, cfg.nuisance2.high) == (1.5, 3.0)
    assert isinstance(cfg.noise1, GaussianNoise) and cfg.noise1.sigma == 1.0
    assert isinstance(cfg.noise2, BandedGaussianNoise) and cfg.noise2.r == 6
    assert pair.latent_x.labels is not None
    assert pair.pooled_labels.shape == (22,)
    assert set(np.unique(pair.pooled_labels)) <= set(range(6))


def test_preset_deterministic():
    a = preset("setting2", m=5, n=7, p=6, seed=11)
    b = preset("setting2", m=5, n=7, p=6, seed=11)
    np.testing.assert_array_equal(a.X.values, b.X.values)
    np.testing.assert_array_equal(a.Y.values, b.Y.values)
    c = preset("setting2", m=5, n=7, p=6, seed=12)
    assert np.abs(a.X.values - c.X.values).max() > 1e-3


def test_preset_latents_are_independent_draws():
    pair = preset("setting1", m=6, n=6, p=5, seed=0)
    assert np.abs(pair.latent_x.points - pair.latent_y.points).max() > 1e-3


def test_preset_validation():
    with pytest.raises(InputError):
        preset("unknown", m=5, n=5, p=6, seed=0)
    with pytest.raises(InputError):
        preset("setting1", m=5, n=5, p=3, seed=0)  # p must exceed r=3
    with pytest.raises(InputError):
        preset("setting1", m=0, n=5, p=6, seed=0)
    with pytest.raises(InputError):
        preset("setting1", m=5, n=5, p=6, seed=0, param=0.0)
    with pytest.raises(InputError):
        preset("setting1", True, 5, 10, 0)
    with pytest.raises(InputError):
        preset("setting1", m=5, n=5, p=6, seed=0, param=True)
    with pytest.raises(InputError):
        preset("setting1", m=5, n=5, p=6, seed=0, param=10**400)
    with pytest.raises(InputError):
        sample_torus(True, 0)
