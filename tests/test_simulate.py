import re

import numpy as np
import pytest

from eotmaps import InputError, preset, sample_gmm, sample_torus, truncated_svd
from eotmaps.linalg import as_labels
from eotmaps.simulate import _noise_std


def test_banded_noise_std_map_hand_oracle():
    # count=6, p=5, r=2, sigma=1: first third gets 10x variance on
    # coordinate 2 only, middle third 5x variance on coordinates 1..2
    std = _noise_std(6, 5, 1.0, 2)
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
    std = _noise_std(7, 4, 2.0, 3)
    assert std[1, 1] == pytest.approx(2.0 * np.sqrt(10.0))
    assert std[1, 0] == 2.0  # coordinate 1 excluded from the first band
    assert std[2, 0] == pytest.approx(2.0 * np.sqrt(5.0))
    assert std[3, 2] == pytest.approx(2.0 * np.sqrt(5.0))
    assert std[3, 3] == 2.0  # beyond r
    assert np.all(std[4:] == 2.0)


def test_banded_noise_scales_with_sigma():
    base = _noise_std(9, 4, 1.0, 2)
    np.testing.assert_allclose(_noise_std(9, 4, 0.3, 2), 0.3 * base)


def test_gaussian_noise_constant_std():
    # r = 0 leaves both bands empty: the homoskedastic map
    np.testing.assert_array_equal(_noise_std(3, 4, 0.7, 0), np.full((3, 4), 0.7))


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


def _caller_arrays():
    """Each converted argument: (name, a valid value, a call that passes it)."""
    from eotmaps import build_operators, quadratic_form, select_dimension, sinkhorn

    ops = build_operators(sinkhorn(np.zeros((2, 3))))
    return {
        "s": (np.array([1.0, 0.5, 0.2]), select_dimension),
        "f": (np.ones(5), lambda f: quadratic_form(ops, f)),
    }


def _with_first_entry(good, make):
    """``good`` as a list, its first entry replaced by ``make(entry)``."""
    entries = good.tolist()
    entries[0] = make(entries[0])
    return entries


def _complex_array(good):
    bad = good.astype(complex)
    bad[0] += 1j
    return bad


def _nan_array(good):
    bad = good.copy()
    bad[0] = np.nan
    return bad


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a ComplexWarning is one
@pytest.mark.parametrize("bad", ["complex-array", "complex-in-list", "text", "nan"])
@pytest.mark.parametrize("name", ["s", "f"])
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
    message = "contains non-finite entries" if bad == "nan" else "must be a vector of real"
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
    # a LatentSample holds the samplers' int64 labels unchecked; labels from a
    # caller (the metrics', the CLI's) go through linalg.as_labels
    with pytest.raises(InputError, match=f"^labels {message}"):
        as_labels(labels, 3)


def test_latent_labels_accept_integer_valued_floats():
    labels = as_labels([2.0, 0.0, 5.0], 3)
    assert labels.dtype == np.int64
    np.testing.assert_array_equal(labels, [2, 0, 5])

def _stream(seed, dataset, role):
    """The Philox stream keyed by (seed, dataset, role): role 1 is the nuisance, 2 the noise."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, dataset, role))))


def _model_cloud(latent, seed, dataset, p, shift, a, sigma, bands=0, nuisance=None):
    """x = nu + a * U xbar + V z + eta with U = (e_1..e_r), V = (e_{r+1}..e_p), by columns."""
    count, r = latent.points.shape
    x = np.zeros((count, p))
    x[:, :r] = a * latent.points
    x += shift
    if nuisance is not None:
        z = _stream(seed, dataset, 1).uniform(*nuisance, size=(count, p - r))
        assert nuisance[0] <= z.min() and z.max() <= nuisance[1]
        x[:, r:] += z
    noise = _stream(seed, dataset, 2).standard_normal((count, p))
    return x + noise * _noise_std(count, p, sigma, bands)


def test_preset_setting1_wiring():
    # tau = 2: theta = 13, a = 39 and 13, the first cloud shifted by
    # 2 * 39 along e_1, sigma = 0.05 * 13 on both clouds, no nuisance
    pair = preset("setting1", m=8, n=11, p=7, seed=4, param=2.0)
    e1 = np.eye(7)[0]
    expected_x = _model_cloud(pair.latent_x, 4, 1, 7, 78.0 * e1, 39.0, 0.65)
    np.testing.assert_array_equal(pair.X.values, expected_x)
    expected_y = _model_cloud(pair.latent_y, 4, 2, 7, 0.0, 13.0, 0.65)
    np.testing.assert_array_equal(pair.Y.values, expected_y)
    assert pair.latent_x.r == 3
    # torus latents carry no class labels, so pooling falls back to the
    # dataset indicator
    np.testing.assert_array_equal(pair.pooled_labels, [0] * 8 + [1] * 11)
    pooled = np.vstack([pair.latent_x.points, pair.latent_y.points])
    np.testing.assert_array_equal(pair.pooled_latent, pooled)


def test_preset_setting2_wiring():
    # gamma = 0.5: setting1 at tau = 1, plus U[3.25, 6.5] nuisance and noise
    # banded over the r = 3 latent coordinates on the second cloud
    pair = preset("setting2", m=6, n=9, p=8, seed=4, param=0.5)
    e1 = np.eye(8)[0]
    expected_x = _model_cloud(pair.latent_x, 4, 1, 8, 39.0 * e1, 39.0, 0.65)
    np.testing.assert_array_equal(pair.X.values, expected_x)
    expected_y = _model_cloud(pair.latent_y, 4, 2, 8, 0.0, 13.0, 0.65, 3, (3.25, 6.5))
    np.testing.assert_array_equal(pair.Y.values, expected_y)


def test_preset_clustering_wiring():
    # theta = 3: six-class latents, a = 3 on both clouds, the first cloud
    # shifted by 15 * (e_1 + e_2), U[1.5, 3] nuisance and unit noise banded
    # over the r = 6 latent coordinates on the second cloud
    pair = preset("clustering", m=10, n=12, p=9, seed=2, param=3.0)
    e12 = np.eye(9)[0] + np.eye(9)[1]
    expected_x = _model_cloud(pair.latent_x, 2, 1, 9, 15.0 * e12, 3.0, 1.0)
    np.testing.assert_array_equal(pair.X.values, expected_x)
    expected_y = _model_cloud(pair.latent_y, 2, 2, 9, 0.0, 3.0, 1.0, 6, (1.5, 3.0))
    np.testing.assert_array_equal(pair.Y.values, expected_y)
    labels = np.concatenate([pair.latent_x.labels, pair.latent_y.labels])
    np.testing.assert_array_equal(pair.pooled_labels, labels)
    assert set(np.unique(pair.pooled_labels)) <= set(range(6))


def test_preset_deterministic():
    a = preset("setting2", m=5, n=7, p=6, seed=11)
    b = preset("setting2", m=5, n=7, p=6, seed=11)
    np.testing.assert_array_equal(a.X.values, b.X.values)
    np.testing.assert_array_equal(a.Y.values, b.Y.values)
    c = preset("setting2", m=5, n=7, p=6, seed=12)
    assert np.abs(a.X.values - c.X.values).max() > 1e-3


def test_preset_clouds_are_read_only_records():
    # X and Y wrap the fresh draw, not a copy; library functions take .values
    pair = preset("clustering", m=5, n=6, p=8, seed=0)
    assert pair.latent_x.labels.dtype == np.int64
    for cloud in (pair.X.values, pair.Y.values):
        assert cloud.dtype == np.float64 and not cloud.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cloud[0, 0] = 0.0
    with pytest.raises(InputError, match="^A must be a matrix of real numbers$"):
        truncated_svd(pair.X, 2)


def test_preset_latents_are_independent_draws():
    pair = preset("setting1", m=6, n=6, p=5, seed=0)
    assert np.abs(pair.latent_x.points - pair.latent_y.points).max() > 1e-3


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name,param", [("setting1", 1e307), ("clustering", 1e308)])
def test_preset_overflow_names_the_param(name, param):
    # the model overflows float64: one InputError naming param, no warning first
    message = f"param={param!r} is too large: the {name} clouds overflow"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        preset(name, 5, 6, 8, 0, param)


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
    with pytest.raises(InputError, match="^low must be a finite number"):
        preset("setting2", m=5, n=5, p=6, seed=0, param=1e308)  # gamma * theta overflows
    with pytest.raises(InputError):
        sample_torus(True, 0)
