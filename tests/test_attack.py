import numpy as np
import pytest

from imukit.attack import (
    AttackConfig, daa_loss, default_timesteps, immunize, nba_loss,
    random_noise_delta, resolve_timesteps, snap_to_8bit, total_loss,
)
from imukit.attention_mask import AggregatedAttention, BinaryMask, make_mask, aggregate
from imukit.autodiff import Tape, Tensor
from imukit.diffusion import DenoiserModel, ModelConfig, build_schedule, predict_noise
from imukit.diffusion.schedule import forward_diffuse
from oracle_forward import oracle_total_loss
from oracles import fd_agreement, numeric_grad


def micro_model(seed=21, zero_attention=False):
    """8x8 model used by the gradient-correctness checks."""
    sched = build_schedule(20)
    cfg = ModelConfig(image_size=8, widths=(6, 8, 10), d_k=4, d_text=6, d_time=8)
    model = DenoiserModel.init(cfg, seed=seed, schedule=sched)
    if zero_attention:
        for name in ("attn1_q", "attn1_k", "attn2_q", "attn2_k"):
            model.params[name].data[:] = 0.0
    model.set_trainable(False)
    return model


def grid_image(rng, size=8):
    return (rng.integers(0, 256, size=(size, size, 3)).astype(np.float32)
            / np.float32(255.0))


IDS = (3, 17, 20, 8, 21, 0, 0, 0)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(alpha_step=0.05, gamma=0.03)
    with pytest.raises(ValueError):
        AttackConfig(alpha_step=0.0)
    with pytest.raises(ValueError):
        AttackConfig(iterations=-1)
    with pytest.raises(ValueError):
        AttackConfig(timesteps=(3, 3))
    with pytest.raises(ValueError):
        AttackConfig(daa_mode="bogus")
    cfg = AttackConfig()
    assert cfg.gamma == 0.03 and cfg.alpha_step == 0.003
    assert cfg.iterations == 100 and cfg.bins == 128
    assert cfg.lambda_daa == 1.0 and cfg.lambda_nba == 1.0


def test_default_timesteps_cover_range():
    ts = default_timesteps(50)
    assert len(ts) == 10 and len(set(ts)) == 10
    assert min(ts) == 1 and max(ts) == 49
    sched = build_schedule(50)
    assert resolve_timesteps(AttackConfig(), sched) == ts
    with pytest.raises(ValueError):
        resolve_timesteps(AttackConfig(timesteps=(0, 5)), sched)
    with pytest.raises(ValueError):
        resolve_timesteps(AttackConfig(timesteps=(5, 50)), sched)


# ---------------------------------------------------------------------------
# loss terms
# ---------------------------------------------------------------------------

def agg_of(att):
    att = np.asarray(att, dtype=np.float32)
    lo, hi = att.min(), att.max()
    norm = (att - lo) / (hi - lo) if hi > lo else np.zeros_like(att)
    return AggregatedAttention(map=Tensor(norm), pre_norm=Tensor(att),
                               token_indices=(0,), degenerate=hi <= lo)


def mask_of(m):
    m = np.asarray(m, dtype=np.uint8)
    return BinaryMask(mask=m, threshold_used=0.5)


def test_daa_loss_hand_example():
    att = [[0.5, 0.2], [0.0, 1.0]]
    loss = daa_loss(agg_of(att), mask_of([[1, 0], [0, 1]]), 1.0)
    assert loss.item() == pytest.approx((0.25 + 1.0) - (0.04 + 0.0), abs=1e-6)


def test_daa_loss_mask_extremes():
    att = [[0.5, 0.2], [0.0, 1.0]]
    fro = 0.25 + 0.04 + 0.0 + 1.0
    assert daa_loss(agg_of(att), mask_of(np.ones((2, 2))), 1.0).item() == \
        pytest.approx(fro, abs=1e-6)
    assert daa_loss(agg_of(att), mask_of(np.zeros((2, 2))), 1.0).item() == \
        pytest.approx(-fro, abs=1e-6)


def test_daa_loss_shape_mismatch():
    from imukit.autodiff import ShapeMismatchError
    with pytest.raises(ShapeMismatchError):
        daa_loss(agg_of(np.zeros((2, 2)) + [[1, 0], [0, 1]]),
                 mask_of(np.ones((3, 3))), 1.0)


def test_nba_loss_examples():
    same = Tensor([1.0, 2.0])
    assert nba_loss(same, Tensor([1.0, 2.0])).item() == 0.0
    assert nba_loss(Tensor([1.0, 0.0]), Tensor([0.0, 0.0])).item() == -1.0


def test_nba_loss_gradient_direction():
    """d/d(imu) of -(clean - imu)^2 is -2*(imu - clean): descending it pushes
    the perturbed prediction AWAY from the clean one."""
    imu = Tensor([0.0, 0.0], requires_grad=True)
    with Tape() as tape:
        loss = nba_loss(Tensor([1.0, 0.0]), imu)
    g = tape.backward(loss)[imu]
    assert np.allclose(g, [2.0, 0.0])  # = -2*(imu - clean)
    # one descent step moves imu[0] to -alpha*2: farther from clean=1
    assert (imu.data[0] - 0.1 * g[0]) < imu.data[0]


# ---------------------------------------------------------------------------
# total_loss
# ---------------------------------------------------------------------------

def test_total_loss_zero_delta_nba_exactly_zero(rng):
    model = micro_model()
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng)
    eps = rng.standard_normal(x0.shape).astype(np.float32)
    with Tape():
        delta = Tensor(np.zeros_like(x0), requires_grad=True)
        loss, comps = total_loss(x0, delta, model, prompt, 5, eps)
    assert comps["nba"] == 0.0 and comps["nba_raw"] == 0.0


def test_total_loss_branches_bit_identical_at_zero_delta(rng):
    model = micro_model()
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng)
    eps = rng.standard_normal(x0.shape).astype(np.float32)
    xt = forward_diffuse(model.schedule, x0, 5, eps)
    e1, _ = predict_noise(model, xt, 5, prompt)
    with Tape():
        delta = Tensor(np.zeros_like(x0), requires_grad=True)
        from imukit.autodiff import add
        x_imu = add(Tensor(x0), delta)
        xt_imu = forward_diffuse(model.schedule, x_imu, 5, Tensor(eps))
        e2, _ = predict_noise(model, xt_imu, 5, prompt)
    assert np.array_equal(e1.data, e2.data)


def test_total_loss_daa_only_when_lambda_nba_zero(rng):
    model = micro_model()
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng)
    eps = rng.standard_normal(x0.shape).astype(np.float32)
    with Tape():
        delta = Tensor(np.zeros_like(x0), requires_grad=True)
        loss, comps = total_loss(x0, delta, model, prompt, 5, eps, lambda_nba=0.0)
    assert comps["nba"] == 0.0
    assert loss.item() == pytest.approx(comps["daa"], rel=1e-6)
    assert comps["total"] == pytest.approx(comps["daa"], rel=1e-6)


def test_total_loss_tape_node_count_on_default_model(rng):
    """One attack step on the default model records 34 nodes, 16 of them in
    the perturbed branch's forward; the clean branch records none, and no
    reshape records one."""
    model = DenoiserModel.init(ModelConfig(), seed=0, schedule=build_schedule(50))
    model.set_trainable(False)
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng, size=32)
    eps = rng.standard_normal(x0.shape).astype(np.float32)
    with Tape() as tape:
        delta = Tensor(np.full(x0.shape, 0.01, dtype=np.float32), requires_grad=True)
        loss, comps = total_loss(x0, delta, model, prompt, 25, eps)
    assert not comps["degenerate"]
    assert len(tape.nodes) == 34
    assert tape.backward(loss)[delta].shape == x0.shape


def test_total_loss_gradient_matches_float64_fd(rng):
    """Attack-objective gradient w.r.t. delta vs float64 finite differences
    on an 8x8x3 instance with a fixed mask (the objective holds the mask
    constant within a step)."""
    model = micro_model(seed=33)
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng)
    delta0 = (rng.uniform(-0.02, 0.02, x0.shape)).astype(np.float32)
    eps = rng.standard_normal(x0.shape).astype(np.float32)
    t = 7

    # mask from the base point, then frozen
    with Tape():
        d = Tensor(delta0, requires_grad=True)
        _, comps = total_loss(x0, d, model, prompt, t, eps)
    mask = comps["mask"]
    assert not mask.degenerate

    with Tape() as tape:
        d = Tensor(delta0, requires_grad=True)
        loss, _ = total_loss(x0, d, model, prompt, t, eps, mask_override=mask)
    got = tape.backward(loss)[d]

    def f(dv):
        return oracle_total_loss(model, x0, dv, eps, IDS,
                                 prompt.content_mask, t, mask.mask)

    want = numeric_grad(f, delta0.astype(np.float64), h=1e-3)
    frac = fd_agreement(got, want)
    print(f"total_loss FD agreement: {frac:.4f}")
    assert frac >= 0.99


def test_total_loss_gradient_with_stop_gradient_equals_constant_mask(rng):
    """Gradient with the dynamically computed (stop-gradient) mask equals the
    gradient with the mask replaced by a numeric constant array."""
    model = micro_model(seed=34)
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng)
    delta0 = rng.uniform(-0.02, 0.02, x0.shape).astype(np.float32)
    eps = rng.standard_normal(x0.shape).astype(np.float32)

    with Tape() as t1:
        d1 = Tensor(delta0, requires_grad=True)
        loss1, comps = total_loss(x0, d1, model, prompt, 6, eps)
    g1 = t1.backward(loss1)[d1]

    with Tape() as t2:
        d2 = Tensor(delta0, requires_grad=True)
        loss2, _ = total_loss(x0, d2, model, prompt, 6, eps,
                              mask_override=comps["mask"])
    g2 = t2.backward(loss2)[d2]
    assert np.abs(g1 - g2).max() <= 1e-6


# ---------------------------------------------------------------------------
# immunize
# ---------------------------------------------------------------------------

def test_immunize_zero_iterations_is_identity(rng):
    model = micro_model()
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng)
    x_imu, state = immunize(x0, prompt, model, AttackConfig(iterations=0, seed=1))
    assert np.array_equal(x_imu, x0)
    assert state.final_linf == 0.0


def test_immunize_budget_and_range(rng):
    model = micro_model()
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng)
    cfg = AttackConfig(iterations=6, seed=2)
    x_imu, state = immunize(x0, prompt, model, cfg)
    assert state.final_linf <= cfg.gamma + 1e-9
    assert np.abs(x_imu - x0).max() <= cfg.gamma + 1e-9
    assert x_imu.min() >= 0.0 and x_imu.max() <= 1.0
    assert len(state.trace) == 6


def test_immunize_deterministic(rng):
    model = micro_model()
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng)
    cfg = AttackConfig(iterations=3, seed=5)
    a, sa = immunize(x0, prompt, model, cfg)
    b, sb = immunize(x0, prompt, model, cfg)
    assert np.array_equal(a, b)
    assert np.array_equal(sa.delta, sb.delta)
    assert sa.trace == sb.trace


def test_sign_update_steps_are_alpha_or_pinned(rng):
    """Each coordinate moves by exactly +/-alpha unless pinned by the budget
    or image-range clip, or its gradient is exactly zero."""
    model = micro_model()
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng)
    base = dict(seed=9, snap_8bit=False, gamma=0.03, alpha_step=0.012)
    d1 = immunize(x0, prompt, model, AttackConfig(iterations=1, **base))[1].delta
    d2 = immunize(x0, prompt, model, AttackConfig(iterations=2, **base))[1].delta
    step = (d2 - d1).astype(np.float64)
    alpha = 0.012
    moved = np.isclose(np.abs(step), np.float32(alpha), atol=1e-7)
    pinned_budget = np.isclose(np.abs(d2), 0.03, atol=1e-7)
    lo = np.isclose(d2, -x0, atol=1e-7)
    hi = np.isclose(d2, 1.0 - x0, atol=1e-7)
    zero_step = step == 0.0
    ok = moved | pinned_budget | lo | hi | zero_step
    assert ok.all()
    assert moved.mean() > 0.25  # a solid share of coordinates takes the raw step


def test_projection_idempotent(rng):
    from imukit.attack import _project
    x0 = grid_image(rng, size=16)
    delta = rng.uniform(-0.1, 0.1, x0.shape).astype(np.float32)
    once = _project(delta, x0, np.float32(0.03))
    twice = _project(once, x0, np.float32(0.03))
    assert np.array_equal(once, twice)


def test_snap_to_8bit_truncates_toward_zero():
    d = np.array([0.0299, -0.0299, 0.001, -0.001, 0.0], dtype=np.float32)
    snapped = snap_to_8bit(d)
    assert np.array_equal(snapped, np.float32([7, -7, 0, -0, 0]) / np.float32(255.0))
    assert (np.abs(snapped) <= np.abs(d) + 1e-9).all()


def test_degenerate_attention_falls_back_to_noise_term(rng):
    model = micro_model(zero_attention=True)
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng)
    cfg = AttackConfig(iterations=4, seed=3)
    x_imu, state = immunize(x0, prompt, model, cfg)
    assert state.degenerate_count == 4 * len(resolve_timesteps(cfg, model.schedule))
    assert state.warnings and "degenerate" in state.warnings[0]
    assert all(e["daa"] == 0.0 for e in state.trace)
    assert not np.array_equal(x_imu, x0)  # the noise term still attacks


def test_masks_recomputed_per_timestep(rng):
    model = micro_model()
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng)
    cfg = AttackConfig(iterations=3, seed=4, record_masks=True)
    _, state = immunize(x0, prompt, model, cfg)
    ts = resolve_timesteps(cfg, model.schedule)
    assert len(state.mask_records) == 3 * len(ts)
    for rec in state.mask_records:
        assert set(np.unique(rec["mask"])).issubset({0, 1})
    per_iter = {}
    for rec in state.mask_records:
        per_iter.setdefault(rec["iteration"], []).append(rec["timestep"])
    assert all(sorted(v) == sorted(ts) for v in per_iter.values())


def test_random_noise_baseline(rng):
    x0 = grid_image(rng, size=16)
    cfg = AttackConfig(seed=8)
    a, state = random_noise_delta(x0, cfg)
    b, _ = random_noise_delta(x0, cfg)
    assert np.array_equal(a, b)
    assert np.abs(a - x0).max() <= cfg.gamma + 1e-9
    assert a.min() >= 0.0 and a.max() <= 1.0
    inner = (x0 > cfg.gamma) & (x0 < 1.0 - cfg.gamma)
    snapped = np.abs(state.delta[inner]) * 255.0
    assert np.allclose(snapped, np.rint(snapped), atol=1e-4)
    assert np.abs(state.delta[inner]).min() > 0.0
