import importlib.util
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import imukit.attack as attack
import imukit.autodiff as autodiff
from imukit.attack import (
    AttackConfig, daa_loss, default_timesteps, immunize, immunize_batch, nba_loss,
    random_noise_delta, resolve_timesteps, snap_to_8bit, total_loss,
)
from imukit.attention_mask import AggregatedAttention, BinaryMask
from imukit.autodiff import Tape, Tensor, sum_
from imukit.diffusion import training
from imukit.diffusion.model import DenoiserModel, ModelConfig
from imukit.diffusion.schedule import build_schedule, forward_diffuse
from imukit.diffusion.training import _mc_loss
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
    """The aggregated attention of one (H, W) map, as a batch of one."""
    att = np.asarray(att, dtype=np.float32)
    lo, hi = att.min(), att.max()
    norm = (att - lo) / (hi - lo) if hi > lo else np.zeros_like(att)
    return AggregatedAttention(map=Tensor(norm[None]), pre_norm=Tensor(att[None]),
                               degenerate=np.array([hi <= lo]))


def mask_of(m):
    m = np.asarray(m, dtype=np.uint8)
    return BinaryMask(mask=m, threshold_used=0.5)


def test_daa_loss_hand_example():
    att = [[0.5, 0.2], [0.0, 1.0]]
    loss = daa_loss(agg_of(att), [mask_of([[1, 0], [0, 1]])], 1.0)
    assert loss.item() == pytest.approx((0.25 + 1.0) - (0.04 + 0.0), abs=1e-6)


def test_daa_loss_mask_extremes():
    att = [[0.5, 0.2], [0.0, 1.0]]
    fro = 0.25 + 0.04 + 0.0 + 1.0
    assert daa_loss(agg_of(att), [mask_of(np.ones((2, 2)))], 1.0).item() == \
        pytest.approx(fro, abs=1e-6)
    assert daa_loss(agg_of(att), [mask_of(np.zeros((2, 2)))], 1.0).item() == \
        pytest.approx(-fro, abs=1e-6)


def test_daa_loss_shape_mismatch():
    from imukit.autodiff import ShapeMismatchError
    with pytest.raises(ShapeMismatchError):
        daa_loss(agg_of(np.zeros((2, 2)) + [[1, 0], [0, 1]]),
                 [mask_of(np.ones((3, 3)))], 1.0)


def test_nba_loss_examples():
    same = Tensor([[1.0, 2.0]])
    assert nba_loss(same, Tensor([[1.0, 2.0]])).item() == 0.0
    assert nba_loss(Tensor([[1.0, 0.0]]), Tensor([[0.0, 0.0]])).item() == -1.0


def test_nba_loss_gradient_direction():
    """d/d(imu) of -(eps - imu)^2 is -2*(imu - eps): descending it pushes
    the predicted noise AWAY from the injected one."""
    imu = Tensor([[0.0, 0.0]], requires_grad=True)
    with Tape() as tape:
        loss = sum_(nba_loss(Tensor([[1.0, 0.0]]), imu))
    g = tape.backward(loss)[imu]
    assert np.allclose(g, [2.0, 0.0])  # = -2*(imu - eps)
    # one descent step moves imu[0] to -alpha*2: farther from eps=1
    assert (imu.data[0, 0] - 0.1 * g[0, 0]) < imu.data[0, 0]


# ---------------------------------------------------------------------------
# total_loss
# ---------------------------------------------------------------------------

def assert_nba_is_prediction_error_at_zero_delta(model, prompt, x0, eps, t):
    """At delta = 0 the noise term is the model's own negated mean squared
    error of eps (float64 oracle, relative 1e-6), and its gradient is nonzero."""
    cfg = AttackConfig(daa_mode="off")
    with Tape() as tape:
        delta = Tensor(np.zeros((1,) + x0.shape), requires_grad=True)
        loss, (comps,) = total_loss(x0[None], delta, model, [prompt], t, eps[None], cfg)
    want = oracle_total_loss(model, x0, np.zeros_like(x0), eps, IDS,
                             prompt.content_mask, t, None, daa_mode="off")
    assert want < 0.0
    assert comps["nba"] == pytest.approx(want, rel=1e-6)
    assert np.abs(tape.backward(loss)[delta]).max() > 0.0


def test_total_loss_zero_delta_nba_is_the_prediction_error(rng):
    model = micro_model()
    x0 = grid_image(rng)
    eps = rng.standard_normal(x0.shape).astype(np.float32)
    assert_nba_is_prediction_error_at_zero_delta(model, model.encode_prompt(IDS),
                                                 x0, eps, 5)


@pytest.mark.parametrize("daa_mode,lambda_nba", [
    ("dual", 1.0), ("off", 1.0), ("dual", 0.0), ("suppress-fixed", 0.0),
], ids=["danp", "wo-daa", "wo-nba", "sa-style"])
def test_total_loss_makes_one_model_pass_per_timestep(
        rng, forward_calls, daa_mode, lambda_nba):
    model = micro_model()
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng)
    eps = rng.standard_normal(x0.shape).astype(np.float32)
    cfg = AttackConfig(daa_mode=daa_mode, lambda_nba=lambda_nba)
    with Tape():
        delta = Tensor(np.full((1,) + x0.shape, 0.01, dtype=np.float32),
                       requires_grad=True)
        total_loss(x0[None], delta, model, [prompt], 5, eps[None], cfg)
    assert forward_calls == [1]


def test_total_loss_branches_bit_identical_at_zero_delta(rng):
    model = micro_model()
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng)
    eps = rng.standard_normal(x0.shape).astype(np.float32)
    pm = Tensor(prompt.matrix.data[None])
    xt = forward_diffuse(model.schedule, x0[None], 5, eps[None])
    e1, _ = model.forward_batch(Tensor(xt), 5, pm)
    with Tape():
        delta = Tensor(np.zeros((1,) + x0.shape), requires_grad=True)
        from imukit.autodiff import add
        x_imu = add(Tensor(x0[None]), delta)
        xt_imu = forward_diffuse(model.schedule, x_imu, 5, Tensor(eps[None]))
        e2, _ = model.forward_batch(xt_imu, 5, pm)
    assert np.array_equal(e1.data, e2.data)


def test_total_loss_daa_only_when_lambda_nba_zero(rng):
    model = micro_model()
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng)
    eps = rng.standard_normal(x0.shape).astype(np.float32)
    with Tape():
        delta = Tensor(np.zeros((1,) + x0.shape), requires_grad=True)
        loss, (comps,) = total_loss(x0[None], delta, model, [prompt], 5, eps[None],
                                    AttackConfig(lambda_nba=0.0))
    assert comps["nba"] == 0.0
    assert loss.item() == pytest.approx(comps["daa"], rel=1e-6)
    assert comps["total"] == pytest.approx(comps["daa"], rel=1e-6)


def test_total_loss_tape_node_count_on_default_model(rng):
    """One attack step on the default model records 33 nodes, 14 of them in
    the model's forward and one the sum over the images' losses; no reshape
    records one."""
    model = DenoiserModel.init(ModelConfig(), seed=0, schedule=build_schedule(50))
    model.set_trainable(False)
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng, size=32)
    eps = rng.standard_normal(x0.shape).astype(np.float32)
    with Tape() as tape:
        delta = Tensor(np.full((1,) + x0.shape, 0.01, dtype=np.float32),
                       requires_grad=True)
        loss, (comps,) = total_loss(x0[None], delta, model, [prompt], 25, eps[None])
    assert not comps["degenerate"]
    assert len(tape.nodes) == 33
    assert tape.backward(loss)[delta].shape == (1,) + x0.shape


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
        d = Tensor(delta0[None], requires_grad=True)
        _, (comps,) = total_loss(x0[None], d, model, [prompt], t, eps[None])
    mask = comps["mask"]
    assert not mask.degenerate

    with Tape() as tape:
        d = Tensor(delta0[None], requires_grad=True)
        loss, _ = total_loss(x0[None], d, model, [prompt], t, eps[None],
                             mask_override=[mask])
    got = tape.backward(loss)[d][0]

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
        d1 = Tensor(delta0[None], requires_grad=True)
        loss1, (comps,) = total_loss(x0[None], d1, model, [prompt], 6, eps[None])
    g1 = t1.backward(loss1)[d1]

    with Tape() as t2:
        d2 = Tensor(delta0[None], requires_grad=True)
        loss2, _ = total_loss(x0[None], d2, model, [prompt], 6, eps[None],
                              mask_override=[comps["mask"]])
    g2 = t2.backward(loss2)[d2]
    assert np.abs(g1 - g2).max() <= 1e-6


# ---------------------------------------------------------------------------
# immunize
# ---------------------------------------------------------------------------

def test_immunize_zero_iterations_is_identity(rng):
    model = micro_model()
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng)
    x_imu, _ = immunize(x0, prompt, model, AttackConfig(iterations=0, seed=1))
    assert np.array_equal(x_imu, x0)


def test_immunize_budget_and_range(rng):
    model = micro_model()
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng)
    cfg = AttackConfig(iterations=6, seed=2)
    x_imu, state = immunize(x0, prompt, model, cfg)
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
    assert sa.trace == sb.trace


def test_sign_update_steps_are_alpha_or_pinned(rng):
    """Each coordinate moves by exactly +/-alpha unless pinned by the budget
    or image-range clip, or its gradient is exactly zero."""
    model = micro_model()
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng)
    base = dict(seed=9, snap_8bit=False, gamma=0.03, alpha_step=0.012)
    d1 = immunize(x0, prompt, model, AttackConfig(iterations=1, **base))[0] - x0
    d2 = immunize(x0, prompt, model, AttackConfig(iterations=2, **base))[0] - x0
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
    assert "attack relied on the noise term" in state.warnings[0]
    assert all(e["daa"] == 0.0 for e in state.trace)
    assert not np.array_equal(x_imu, x0)  # the noise term still attacks


def test_degenerate_attention_without_noise_term_leaves_image_unchanged(rng):
    """With the noise term off, degenerate masks at every timestep leave no
    term at all: the image comes back as it was, and the warning says so."""
    model = micro_model(zero_attention=True)
    x0 = grid_image(rng)
    cfg = AttackConfig(iterations=4, seed=3, lambda_nba=0.0)
    x_imu, state = immunize(x0, model.encode_prompt(IDS), model, cfg)
    assert state.degenerate_count == 4 * len(resolve_timesteps(cfg, model.schedule))
    assert len(state.warnings) == 1
    assert "left the image unchanged" in state.warnings[0]
    assert np.array_equal(x_imu, x0)


def test_masks_recomputed_per_timestep(rng, mask_calls):
    model = micro_model()
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(rng)
    cfg = AttackConfig(iterations=3, seed=4)
    immunize(x0, prompt, model, cfg)
    ts = resolve_timesteps(cfg, model.schedule)
    assert [m.timestep for m in mask_calls] == list(ts) * 3
    for m in mask_calls:
        assert set(np.unique(m.mask)).issubset({0, 1})


def test_random_noise_baseline(rng):
    x0 = grid_image(rng, size=16)
    cfg = AttackConfig(seed=8)
    a = random_noise_delta(x0, cfg)
    b = random_noise_delta(x0, cfg)
    assert np.array_equal(a, b)
    assert np.abs(a - x0).max() <= cfg.gamma + 1e-9
    assert a.min() >= 0.0 and a.max() <= 1.0
    inner = (x0 > cfg.gamma) & (x0 < 1.0 - cfg.gamma)
    delta = a - x0
    snapped = np.abs(delta[inner]) * 255.0
    assert np.allclose(snapped, np.rint(snapped), atol=1e-4)
    assert np.abs(delta[inner]).min() > 0.0


# ---------------------------------------------------------------------------
# lockstep immunization
# ---------------------------------------------------------------------------

METHOD_CONFIGS = {
    "danp": {},
    "wo-daa": {"daa_mode": "off"},
    "wo-nba": {"lambda_nba": 0.0},
    "sa-style": {"daa_mode": "suppress-fixed", "lambda_nba": 0.0},
}


def lockstep_inputs(model, n, method="danp", iterations=3):
    """n distinct images, each with its own caption and its own seed."""
    gen = np.random.default_rng(77)
    xs = [grid_image(gen) for _ in range(n)]
    prompts = [model.encode_prompt(tuple(int(v) for v in gen.integers(1, 22, size=5))
                                   + (0, 0, 0)) for _ in range(n)]
    cfgs = [AttackConfig(iterations=iterations, seed=40 + i, **METHOD_CONFIGS[method])
            for i in range(n)]
    return xs, prompts, cfgs


def assert_same_result(got, want):
    (x_got, s_got), (x_want, s_want) = got, want
    assert x_got.tobytes() == x_want.tobytes()
    assert s_got.trace == s_want.trace
    assert s_got.degenerate_count == s_want.degenerate_count
    assert s_got.warnings == s_want.warnings


@pytest.mark.parametrize("method", list(METHOD_CONFIGS))
def test_lockstep_matches_one_image_immunize(method):
    model = micro_model()
    xs, prompts, cfgs = lockstep_inputs(model, 3, method)
    batch = immunize_batch(xs, prompts, model, cfgs)
    assert len(batch) == 3
    for got, x0, prompt, cfg in zip(batch, xs, prompts, cfgs):
        assert_same_result(got, immunize(x0, prompt, model, cfg))
    assert not np.array_equal(batch[0][0], xs[0])


def test_lockstep_result_does_not_depend_on_chunk_composition():
    model = micro_model()
    xs, prompts, cfgs = lockstep_inputs(model, 4)
    first = immunize_batch(xs[:2], prompts[:2], model, cfgs[:2])
    order = [3, 2, 0]
    second = immunize_batch([xs[i] for i in order], [prompts[i] for i in order], model,
                            [cfgs[i] for i in order])
    assert_same_result(second[2], first[0])


def degenerate_masks_at(monkeypatch, position, images):
    """Patch attack.make_mask: of each run of `images` consecutive calls (one
    per image of a lockstep step, in image order), the call at `position`
    returns an all-zero degenerate mask."""
    original = attack.make_mask
    calls = itertools.count()

    def patched(agg, bins, timestep=-1):
        mask = original(agg, bins, timestep=timestep)
        if next(calls) % images != position:
            return mask
        return BinaryMask(mask=np.zeros_like(mask.mask), threshold_used=1.0,
                          timestep=timestep, degenerate=True)

    monkeypatch.setattr(attack, "make_mask", patched)


@pytest.mark.parametrize("method", ["danp", "wo-nba"])
def test_lockstep_with_one_degenerate_image(monkeypatch, method):
    """The degenerate image's zeroed mask and complement give its attention
    term and gradient exactly 0, as skipping the term does in a one-image
    run; the other images are untouched by it."""
    model = micro_model()
    xs, prompts, cfgs = lockstep_inputs(model, 3, method)
    with monkeypatch.context() as patch:
        degenerate_masks_at(patch, 1, 3)
        batch = immunize_batch(xs, prompts, model, cfgs)
    with monkeypatch.context() as patch:
        degenerate_masks_at(patch, 0, 1)
        alone = immunize(xs[1], prompts[1], model, cfgs[1])
    steps = cfgs[1].iterations * len(resolve_timesteps(cfgs[1], model.schedule))
    assert alone[1].degenerate_count == steps
    assert all(e["daa"] == 0.0 for e in alone[1].trace)
    assert np.array_equal(alone[0], xs[1]) == (method == "wo-nba")
    assert_same_result(batch[1], alone)
    for i in (0, 2):
        assert batch[i][1].degenerate_count == 0
        assert_same_result(batch[i], immunize(xs[i], prompts[i], model, cfgs[i]))


def test_lockstep_configs_may_differ_only_in_seed():
    model = micro_model()
    xs, prompts, cfgs = lockstep_inputs(model, 2)
    with pytest.raises(ValueError, match="seed"):
        immunize_batch(xs, prompts, model,
                       [cfgs[0], AttackConfig(iterations=3, bins=64)])


def test_lockstep_step_runs_one_pass_and_one_backward(forward_calls, monkeypatch):
    """One model pass and one backward per timestep group: 3 rows per pass
    at one timestep per pass, and with 9 rows per pass the micro model's
    10 timesteps run as groups of 3, 3, 3 and 1 (9, 9, 9 and 3 rows)."""
    model = micro_model()
    xs, prompts, cfgs = lockstep_inputs(model, 3, iterations=2)
    backwards = []
    original = Tape.backward

    def counting(self, root):
        backwards.append(root.shape)
        return original(self, root)

    monkeypatch.setattr(Tape, "backward", counting)
    assert len(resolve_timesteps(cfgs[0], model.schedule)) == 10
    for rows, per_pass in ((None, [3] * 10), (9, [9, 9, 9, 3])):
        forward_calls.clear()
        backwards.clear()
        immunize_batch(xs, prompts, model, cfgs, rows=rows)
        assert forward_calls == per_pass * 2
        assert backwards == [()] * len(per_pass) * 2


# ---------------------------------------------------------------------------
# timestep groups: several timesteps per model pass
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", list(METHOD_CONFIGS))
def test_grouped_passes_match_one_timestep_per_pass(method):
    model = micro_model()
    xs, prompts, cfgs = lockstep_inputs(model, 3, method)
    one = immunize_batch(xs, prompts, model, cfgs)
    # groups of 2, of 3 (3/3/3/1) and of all 10 timesteps
    for rows in (6, 9, 30):
        for got, want in zip(immunize_batch(xs, prompts, model, cfgs, rows=rows), one):
            assert_same_result(got, want)


def test_grouped_passes_match_on_the_default_model():
    """danp on the default model, 2 images in groups of 3/3/3/1 timesteps."""
    model = DenoiserModel.init(ModelConfig(), seed=0, schedule=build_schedule(50))
    model.set_trainable(False)
    gen = np.random.default_rng(78)
    xs = [grid_image(gen, size=32) for _ in range(2)]
    prompts = [model.encode_prompt(IDS), model.encode_prompt((5, 9, 2, 0, 0, 0, 0, 0))]
    cfgs = [AttackConfig(iterations=2, seed=60 + i) for i in range(2)]
    assert len(resolve_timesteps(cfgs[0], model.schedule)) == 10
    one = immunize_batch(xs, prompts, model, cfgs)
    for got, want in zip(immunize_batch(xs, prompts, model, cfgs, rows=6), one):
        assert_same_result(got, want)
    assert not np.array_equal(one[0][0], xs[0])


@pytest.mark.parametrize("method", ["danp", "wo-nba"])
def test_grouped_passes_with_one_degenerate_image(monkeypatch, method):
    """Image 1's mask is degenerate at every timestep; in groups of three
    timesteps its rows share each pass with live rows, and every image's
    result is still that of one timestep per pass."""
    model = micro_model()
    xs, prompts, cfgs = lockstep_inputs(model, 3, method)
    results = []
    for rows in (None, 9):
        with monkeypatch.context() as patch:
            degenerate_masks_at(patch, 1, 3)
            results.append(immunize_batch(xs, prompts, model, cfgs, rows=rows))
    one, grouped = results
    assert one[1][1].degenerate_count == cfgs[1].iterations * 10
    for got, want in zip(grouped, one):
        assert_same_result(got, want)


def test_grouped_pass_adds_no_gradient_for_a_timestep_without_loss(monkeypatch):
    """wo-nba with every mask degenerate at one timestep: alone, that
    timestep gives no loss and no gradient, and inside a group of all 10
    timesteps it adds none either."""
    model = micro_model()
    xs, prompts, cfgs = lockstep_inputs(model, 2, "wo-nba")
    dead = resolve_timesteps(cfgs[0], model.schedule)[3]
    original = attack.make_mask

    def patched(agg, bins, timestep=-1):
        mask = original(agg, bins, timestep=timestep)
        if timestep != dead:
            return mask
        return BinaryMask(mask=np.zeros_like(mask.mask), threshold_used=1.0,
                          timestep=timestep, degenerate=True)

    monkeypatch.setattr(attack, "make_mask", patched)
    one = immunize_batch(xs, prompts, model, cfgs)
    for got, want in zip(immunize_batch(xs, prompts, model, cfgs, rows=20), one):
        assert_same_result(got, want)
    assert all(state.degenerate_count == cfgs[0].iterations for _, state in one)


def test_frozen_taped_pass_holds_little_per_row_after_forward(rng):
    """The tape of a frozen default-model total_loss pass keeps only what
    backward reads: at most 400 KiB per row once the forward returns."""
    model = DenoiserModel.init(ModelConfig(), seed=0, schedule=build_schedule(50))
    model.set_trainable(False)
    prompt = model.encode_prompt(IDS)
    bsz = 4
    x0 = np.stack([grid_image(rng, size=32) for _ in range(bsz)])
    eps = rng.standard_normal(x0.shape).astype(np.float32)

    def taped_pass():
        tape = Tape()
        with tape:
            delta = Tensor(np.full(x0.shape, 0.01, dtype=np.float32), requires_grad=True)
            loss, _ = total_loss(x0, delta, model, [prompt] * bsz, 25, eps)
        return tape, delta, loss

    tape, _, loss = taped_pass()   # fills the model's caches
    tape.backward(loss)
    del tape, loss
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tape, delta, loss = taped_pass()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 400 * 1024 * bsz
    assert tape.backward(loss)[delta].shape == x0.shape


def test_trainable_step_backward_peaks_little_above_its_tape():
    """A trainable default-model step's vjps drop each kept input once its
    weight gradient is taken, before the input gradient is allocated, so the
    backward peaks at most 64 KiB per row above what the tape holds after
    the forward. The decoder levels neither build nor keep the concatenation
    of the upsampled level and its skip, so the tape holds at most 660 KiB
    per row and the step peaks at most 710 KiB per row (building it measured
    731 and 763 KiB)."""
    # its own generator: the session's rng stream feeds later tests
    rng = np.random.default_rng(97)
    model = DenoiserModel.init(ModelConfig(), seed=0, schedule=build_schedule(50))
    bsz = 16
    xs = np.stack([grid_image(rng, size=32) for _ in range(bsz)])
    ids = np.tile(np.asarray(IDS), (bsz, 1))
    eps = rng.standard_normal(xs.shape).astype(np.float32)

    def taped_step():
        with Tape() as tape:
            loss = _mc_loss(model, xs, ids, 25, eps)
        return tape, loss

    tape, loss = taped_step()
    tape.backward(loss)
    del tape, loss
    tracemalloc.start()
    try:
        tape, loss = taped_step()
        held, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        grads = tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held <= 64 * 1024 * bsz
    assert held <= 660 * 1024 * bsz
    assert max(forward_peak, peak) <= 710 * 1024 * bsz
    assert len(grads) == len(model.params)


def test_no_vjp_writes_into_its_incoming_gradient(monkeypatch):
    """Every vjp leaves the gradient it is handed as it is (mean_ hands
    square a read-only broadcast view): a trainable step and a lockstep
    attack run backward with every incoming gradient made read-only."""
    finish = autodiff._finish

    def read_only_incoming(op, out_arr, parents, vjp, check=True):
        def guarded(g, needs):
            g = g.view()
            g.flags.writeable = False
            return vjp(g, needs)

        return finish(op, out_arr, parents, vjp and guarded, check)

    monkeypatch.setattr(autodiff, "_finish", read_only_incoming)
    gen = np.random.default_rng(98)
    model = micro_model()
    model.set_trainable(True)
    xs = np.stack([grid_image(gen) for _ in range(2)])
    eps = gen.standard_normal(xs.shape).astype(np.float32)
    with Tape() as tape:
        loss = _mc_loss(model, xs, np.tile(np.asarray(IDS), (2, 1)), 5, eps)
    assert len(tape.backward(loss)) == len(model.params)
    model.set_trainable(False)
    for method in METHOD_CONFIGS:
        xs, prompts, cfgs = lockstep_inputs(model, 2, method, iterations=1)
        immunize_batch(xs, prompts, model, cfgs, rows=4)


def test_step_memory_tool_lists_every_backward_node(monkeypatch, capsys):
    """tools/step_memory.py profiles a training step, in parts of TRAIN_ROWS
    rows as train runs it, and an attack pass, with one row per backward
    node of each part, in the order the sweep runs them."""
    spec = importlib.util.spec_from_file_location(
        "step_memory", Path(__file__).resolve().parents[1] / "tools" / "step_memory.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(training, "TRAIN_ROWS", 1)
    for run, rows, n_parts, nodes, first in ((tool.train_step, 2, 2, 23, "scale"),
                                             (tool.frozen_pass, 2, 1, 33, "sum")):
        parts = run(rows, 0)
        assert len(parts) == n_parts
        for held, fwd_peak, probed in parts:
            assert 0 < held <= fwd_peak
            assert len(probed) == nodes and probed[0][0] == first
            assert all(after <= peak for _, after, peak in probed)
        tool._report("step", parts)
        assert capsys.readouterr().out.count("held after forward") == n_parts
