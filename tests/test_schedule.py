import numpy as np
import pytest

from imukit.autodiff import Tape, Tensor, sum_
from imukit.diffusion.schedule import build_schedule, forward_diffuse


def test_two_step_schedule_matches_hand_product():
    s = build_schedule(2, 1e-4, 0.02)
    assert np.allclose(s.beta, [1e-4, 0.02])
    assert np.allclose(s.alpha_bar, [0.9999, 0.9999 * 0.98])
    assert s.alpha_bar[1] == pytest.approx(0.979902)


def test_alpha_bar_first_equals_alpha():
    s = build_schedule(7)
    assert s.alpha_bar[0] == s.alpha[0]


def test_default_schedule_against_product_loop():
    s = build_schedule(50, 1e-4, 0.02)
    # independent cumulative product, plain loop
    prod = 1.0
    for t in range(50):
        beta_t = 1e-4 + (0.02 - 1e-4) * t / 49
        prod *= 1.0 - beta_t
        assert s.alpha_bar[t] == pytest.approx(prod, rel=1e-6)


def test_schedule_invariants():
    s = build_schedule(50)
    assert ((s.beta > 0) & (s.beta < 1)).all()
    assert (np.diff(s.beta) > 0).all()
    assert (np.diff(s.alpha_bar) < 0).all()
    assert ((s.alpha_bar > 0) & (s.alpha_bar <= 1)).all()
    assert np.allclose(s.sigma, np.sqrt(s.beta))


@pytest.mark.parametrize("kwargs", [
    {"T": 1}, {"T": 10, "beta_min": 0.0}, {"T": 10, "beta_min": 0.02, "beta_max": 0.01},
    {"T": 10, "beta_min": 0.5, "beta_max": 1.0},
])
def test_schedule_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        build_schedule(**kwargs)


def test_forward_diffuse_zero_noise(rng):
    s = build_schedule(10)
    x0 = rng.random((4, 4, 3)).astype(np.float32)
    out = forward_diffuse(s, x0, 3, np.zeros_like(x0))
    assert np.allclose(out, x0 * np.float32(np.sqrt(s.alpha_bar[3])))


def test_forward_diffuse_scalar_arithmetic():
    s = build_schedule(2, 1e-4, 0.02)
    x0 = np.full((2, 2, 3), 0.5, dtype=np.float32)
    eps = np.ones_like(x0)
    out = forward_diffuse(s, x0, 1, eps)
    expect = 0.5 * np.sqrt(0.979902) + np.sqrt(1 - 0.979902)
    assert np.allclose(out, expect, rtol=1e-6)


def test_forward_diffuse_inversion(rng):
    s = build_schedule(50)
    x0 = rng.random((8, 8, 3)).astype(np.float32)
    eps = rng.standard_normal((8, 8, 3)).astype(np.float32)
    for t in (0, 24, 49):
        xt = forward_diffuse(s, x0, t, eps)
        abar = s.alpha_bar[t]
        rec = (xt - np.float32(np.sqrt(1 - abar)) * eps) / np.float32(np.sqrt(abar))
        assert np.abs(rec - x0).max() <= 1e-5


def test_forward_diffuse_errors(rng):
    s = build_schedule(10)
    x0 = rng.random((4, 4, 3)).astype(np.float32)
    with pytest.raises(ValueError):
        forward_diffuse(s, x0, 10, np.zeros_like(x0))
    with pytest.raises(ValueError):
        forward_diffuse(s, x0, 2, np.zeros((2, 2, 3), dtype=np.float32))


def test_forward_diffuse_differentiable_path(rng):
    s = build_schedule(10)
    x0 = rng.random((3, 3, 3)).astype(np.float32)
    eps = rng.standard_normal((3, 3, 3)).astype(np.float32)
    xt_np = forward_diffuse(s, x0, 5, eps)
    x = Tensor(x0, requires_grad=True)
    with Tape() as tape:
        xt = forward_diffuse(s, x, 5, Tensor(eps))
        from imukit.autodiff import sum_
        y = sum_(xt)
    assert np.array_equal(xt.data, xt_np)
    g = tape.backward(y)[x]
    assert np.allclose(g, np.sqrt(s.alpha_bar[5]), rtol=1e-6)


def test_forward_diffuse_per_row_timesteps():
    """One timestep per row gives each row the bits it gets at its timestep
    alone, and each row's gradient is its own sqrt(abar_t)."""
    s = build_schedule(50)
    gen = np.random.default_rng(6)
    x0 = gen.random((3, 4, 4, 3)).astype(np.float32)
    eps = gen.standard_normal(x0.shape).astype(np.float32)
    ts = [1, 25, 49]
    x = Tensor(x0, requires_grad=True)
    with Tape() as tape:
        out = forward_diffuse(s, x, ts, eps)
        y = sum_(out)
    for i, t in enumerate(ts):
        assert np.array_equal(out.data[i], forward_diffuse(s, Tensor(x0[i]), t, eps[i]).data)
    g = tape.backward(y)[x]
    for i, t in enumerate(ts):
        assert np.all(g[i] == np.float32(np.sqrt(s.alpha_bar[t])))
    with pytest.raises(ValueError):
        forward_diffuse(s, Tensor(x0), [1, 50, 2], eps)
    with pytest.raises(ValueError):
        forward_diffuse(s, x0, ts, eps)
