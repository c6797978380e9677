import numpy as np
import pytest

from imukit.metrics import (
    DEFENSE_DIRECTIONS, full_report, percep_dist, psnr, ssim, vifp,
)
from oracles import psnr_direct, ssim_direct


@pytest.fixture()
def pair(rng):
    a = rng.random((32, 32, 3)).astype(np.float32)
    b = np.clip(a + rng.normal(0, 0.05, a.shape), 0, 1).astype(np.float32)
    return a, b


# -- psnr -------------------------------------------------------------------

def test_psnr_identical_capped():
    x = np.full((16, 16, 3), 0.25, dtype=np.float32)
    assert psnr(x, x) == 100.0


def test_psnr_analytic_values():
    a = np.zeros((8, 8, 3))
    b = np.full_like(a, 0.5)
    assert psnr(a, b) == pytest.approx(20 * np.log10(1 / 0.5), abs=1e-9)
    a = np.full((8, 8, 3), 0.5)
    assert psnr(a, a + 0.03) == pytest.approx(30.4576, abs=2e-4)


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4, 3)), np.zeros((5, 5, 3)))


# -- ssim -------------------------------------------------------------------

def test_ssim_self_is_one(rng):
    x = rng.random((24, 24, 3))
    assert ssim(x, x) == pytest.approx(1.0, abs=1e-6)


def test_ssim_symmetric(pair):
    a, b = pair
    assert abs(ssim(a, b) - ssim(b, a)) <= 1e-6


def test_ssim_decreases_with_noise(rng):
    x = rng.random((32, 32, 3))
    vals = []
    for s in (0.01, 0.05, 0.1):
        noisy = x + rng.normal(0, s, x.shape)
        vals.append(ssim(x, noisy))
    assert vals[0] > vals[1] > vals[2]


def test_ssim_rejects_small_images():
    with pytest.raises(ValueError):
        ssim(np.zeros((8, 8, 3)), np.zeros((8, 8, 3)))


# -- oracle agreement -------------------------------------------------------

def test_psnr_ssim_match_direct_formula_oracles(rng):
    for _ in range(20):
        a = rng.random((16, 16, 3))
        b = np.clip(a + rng.normal(0, rng.random() * 0.2, a.shape), 0, 1)
        assert psnr(a, b) == pytest.approx(psnr_direct(a, b), abs=1e-6)
        assert ssim(a, b) == pytest.approx(ssim_direct(a, b), abs=1e-6)


# -- vifp -------------------------------------------------------------------

def test_vifp_self_is_one(rng):
    x = rng.random((32, 32, 3))
    assert vifp(x, x) == pytest.approx(1.0, abs=1e-3)


def test_vifp_decreases_with_blur(rng):
    from scipy.ndimage import gaussian_filter
    x = rng.random((32, 32, 3))
    light = gaussian_filter(x, (0.6, 0.6, 0))
    heavy = gaussian_filter(x, (2.5, 2.5, 0))
    assert vifp(x, heavy) < vifp(x, light)


def test_vifp_noise_loses_information(rng):
    x = rng.random((32, 32, 3))
    noisy = np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1)
    assert vifp(x, noisy) < 1.0


def test_vifp_constant_reference_flagged():
    x = np.full((32, 32, 3), 0.5)
    val, degenerate = vifp(x, x, return_flag=True)
    assert val == 1.0 and degenerate


# -- percep_dist ------------------------------------------------------------

def test_percep_dist_zero_and_symmetric(tiny_model, rng):
    a = rng.random((16, 16, 3)).astype(np.float32)
    b = rng.random((16, 16, 3)).astype(np.float32)
    assert percep_dist(a, a, tiny_model) == 0.0
    assert abs(percep_dist(a, b, tiny_model) - percep_dist(b, a, tiny_model)) <= 1e-6


def test_percep_dist_feature_dict_gives_same_value(tiny_model, rng, forward_calls):
    a = rng.random((16, 16, 3)).astype(np.float32)
    b = rng.random((16, 16, 3)).astype(np.float32)
    want = percep_dist(a, b, tiny_model)
    features = {}
    assert percep_dist(a, b, tiny_model, features) == want
    assert len(features) == 2
    before = len(forward_calls)
    # both images are in the dict now: same float, no model forward
    assert percep_dist(a, b, tiny_model, features) == want
    assert percep_dist(b, a, tiny_model, features) == percep_dist(b, a, tiny_model)
    assert full_report(a, b, tiny_model, features)["percep_dist"] == want
    assert len(forward_calls) - before == 2  # the percep_dist(b, a) without the dict


def test_percep_dist_requires_model(rng):
    a = rng.random((16, 16, 3))
    with pytest.raises(ValueError):
        percep_dist(a, a, None)


def test_percep_dist_monotone_under_interpolation(ref_model, ref_test_items):
    a = ref_test_items[0].image
    b = ref_test_items[1].image
    vals = []
    for f in (0.25, 0.5, 1.0):
        mix = ((1 - f) * a + f * b).astype(np.float32)
        vals.append(percep_dist(a, mix, ref_model))
    print(f"percep_dist at factors 0.25/0.5/1.0: {vals}")
    assert vals[0] < vals[1] < vals[2]


# -- report -----------------------------------------------------------------

def test_full_report_and_directions(tiny_model, rng):
    a = rng.random((16, 16, 3)).astype(np.float32)
    d = full_report(a, a, tiny_model)
    assert list(d) == ["psnr", "ssim", "vifp", "percep_dist"]
    assert d["psnr"] == 100.0 and d["percep_dist"] == 0.0
    assert DEFENSE_DIRECTIONS == {"psnr": "lower", "ssim": "lower",
                                  "vifp": "lower", "percep_dist": "higher"}
