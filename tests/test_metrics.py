import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

import imukit
from imukit.metrics import (
    DEFENSE_DIRECTIONS, _gaussian_smooth, full_report, percep_dist, psnr, ssim, vifp,
)
from oracles import psnr_direct, ssim_direct, vifp_scipy


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
    assert vifp(x, x) == 1.0


# vifp's four scales smooth with these sigmas; 1.5 is SSIM's
@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 12, 16, 32])
def test_gaussian_smooth_is_scipy_gaussian_filter_bit_for_bit(rng, size):
    """Exact equality, also where the radius (up to 14) exceeds the image."""
    for sd in (3.4, 1.8, 1.0, 0.6, 1.5):
        x = rng.random((size, size)) * 255.0
        got = _gaussian_smooth(x, sd)
        assert got.flags.c_contiguous
        assert np.array_equal(got, gaussian_filter(x, sd))
        stack = rng.random((5, size, size)) * 255.0
        got = _gaussian_smooth(stack, sd)
        assert got.flags.c_contiguous
        assert np.array_equal(got, np.stack([gaussian_filter(m, sd) for m in stack]))


@pytest.mark.parametrize("size", [12, 16, 32])
def test_vifp_equals_the_scipy_implementation(rng, size):
    for _ in range(10):
        a = rng.random((size, size, 3))
        b = np.clip(a + rng.normal(0, rng.random() * 0.2, a.shape), 0, 1)
        assert vifp(a, b) == vifp_scipy(a, b)
        assert vifp(b, a) == vifp_scipy(b, a)
    const = np.full((size, size, 3), 0.5)
    assert vifp(const, a) == vifp_scipy(const, a) == 1.0


def test_imukit_imports_without_scipy():
    """scipy is a test dependency only: a fresh CLI process never loads it."""
    src = str(Path(imukit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, imukit.harness.cli, imukit.metrics; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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
