import numpy as np
import pytest

from conftest import shape_masks
from imukit.diffusion import DenoiserModel, ModelConfig, build_schedule, edit, reverse_step
from imukit.diffusion.sampling import EDIT_ROWS, edit_batch
from imukit.harness.pipeline import run_paths


@pytest.fixture()
def zero_model():
    """Model whose noise prediction is identically zero (zeroed output head)."""
    sched = build_schedule(20)
    cfg = ModelConfig(image_size=16, widths=(8, 12, 16), d_k=8, d_text=8, d_time=16)
    model = DenoiserModel.init(cfg, seed=2, schedule=sched)
    model.params["head_w"].data[:] = 0.0
    model.params["head_b"].data[:] = 0.0
    model.set_trainable(False)
    return model


def test_reverse_step_formula_reduction(zero_model, rng):
    """With eps_hat == 0 and sigma forced to 0: x_{t-1} = x_t / sqrt(alpha_t)."""
    prompt = zero_model.encode_prompt([1, 17, 0, 0, 0, 0, 0, 0])
    x = rng.random((16, 16, 3)).astype(np.float32)
    t = 9
    out = reverse_step(zero_model, x, t, prompt, rng, sigma_override=0.0)
    expected = x * np.float32(1.0 / np.sqrt(zero_model.schedule.alpha[t]))
    assert np.allclose(out, expected, rtol=1e-6)


def test_reverse_step_deterministic_with_seed(tiny_model, rng):
    prompt = tiny_model.encode_prompt([1, 17, 20, 4, 21, 0, 0, 0])
    x = rng.random((16, 16, 3)).astype(np.float32)
    a = reverse_step(tiny_model, x, 5, prompt, np.random.default_rng(77))
    b = reverse_step(tiny_model, x, 5, prompt, np.random.default_rng(77))
    c = reverse_step(tiny_model, x, 5, prompt, np.random.default_rng(78))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_reverse_step_timestep_bounds(tiny_model, rng):
    prompt = tiny_model.encode_prompt([1, 17, 20, 4, 21, 0, 0, 0])
    x = rng.random((16, 16, 3)).astype(np.float32)
    with pytest.raises(ValueError):
        reverse_step(tiny_model, x, 0, prompt, rng)
    with pytest.raises(ValueError):
        reverse_step(tiny_model, x, 20, prompt, rng)


def test_edit_zero_depth_is_clamp(tiny_model):
    prompt = tiny_model.encode_prompt([1, 17, 20, 4, 21, 0, 0, 0])
    x = np.linspace(-0.4, 1.4, 16 * 16 * 3, dtype=np.float32).reshape(16, 16, 3)
    out = edit(tiny_model, x, prompt, 0, np.random.default_rng(0))
    assert np.array_equal(out, np.clip(x, 0.0, 1.0))


def test_edit_deterministic_and_in_range(tiny_model, rng):
    prompt = tiny_model.encode_prompt([1, 17, 20, 4, 21, 0, 0, 0])
    x = rng.random((16, 16, 3)).astype(np.float32)
    a = edit(tiny_model, x, prompt, 12, np.random.default_rng(5))
    b = edit(tiny_model, x, prompt, 12, np.random.default_rng(5))
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_edit_depth_bounds(tiny_model, rng):
    prompt = tiny_model.encode_prompt([1, 17, 20, 4, 21, 0, 0, 0])
    x = rng.random((16, 16, 3)).astype(np.float32)
    with pytest.raises(ValueError):
        edit(tiny_model, x, prompt, 20, rng)


def test_trained_trajectory_envelope(ref_model, ref_test_items):
    """From pure noise, the full reverse trajectory stays in [-0.5, 1.5]
    for at least 95% of pixels (pinned on the trained reference model)."""
    fractions = []
    for s in range(3):
        gen = np.random.default_rng(np.random.SeedSequence([100, s]))
        x = gen.standard_normal((32, 32, 3)).astype(np.float32)
        prompt = ref_model.encode_prompt(ref_test_items[s].tokens)
        for t in range(ref_model.schedule.T - 1, 0, -1):
            x = reverse_step(ref_model, x, t, prompt, gen)
        fractions.append(((x >= -0.5) & (x <= 1.5)).mean())
    assert min(fractions) >= 0.95


def test_edit_shifts_color_toward_caption(ref_cfg, ref_model, ref_test_items):
    """Editing a red shape under a 'blue ...' caption drives the red-minus-blue
    channel difference strongly down on the shape (direction pinned on the
    reference model; magnitude logged, not asserted)."""
    shapes = shape_masks(run_paths(ref_cfg), "test")
    red_items = [(it, m) for it, m in zip(ref_test_items, shapes, strict=True)
                 if it.caption.split()[0] == "red"]
    if not red_items:
        pytest.skip("no red test items at this seed")
    from imukit.diffusion.text import encode_caption
    drops = []
    for item, m in red_items:
        words = item.caption.split()
        words[0] = "blue"
        prompt = ref_model.encode_prompt(encode_caption(words))
        out = edit(ref_model, item.image, prompt, 30, np.random.default_rng(5))
        before = float((item.image[m, 0] - item.image[m, 2]).mean())
        after = float((out[m, 0] - out[m, 2]).mean())
        drops.append(before - after)
        print(f"red->blue edit: r-b {before:.3f} -> {after:.3f}")
    assert max(drops) > 0.3


@pytest.mark.parametrize("t_edit", [0, 3])
def test_edit_batch_equals_edit_per_row(t_edit):
    """Every output of the lockstep batch is bit for bit the one-row edit
    under a fresh copy of its pair's rng, across forward chunks and for a
    pair whose inputs repeat; t_edit = 0 draws nothing."""
    model = DenoiserModel.init(ModelConfig(), seed=4, schedule=build_schedule(50))
    model.set_trainable(False)
    gen = np.random.default_rng(21)
    images = [gen.uniform(-0.1, 1.1, (32, 32, 3)).astype(np.float32) for _ in range(4)]
    prompts = [model.encode_prompt(gen.integers(1, 22, size=8)) for _ in range(3)]
    inputs = [[images[0], images[1], images[2]],
              [images[3], images[3]],           # duplicate inputs share the draws
              [images[0], images[2], images[1], images[3]]]
    assert sum(map(len, inputs)) > EDIT_ROWS

    def rng(p):
        return np.random.default_rng(np.random.SeedSequence([9, p]))

    rngs = [rng(p) for p in range(3)]
    outs = edit_batch(model, list(zip(prompts, rngs, inputs)), t_edit)
    assert [len(o) for o in outs] == [len(i) for i in inputs]
    for p, (prompt, xs) in enumerate(zip(prompts, inputs)):
        for x, got in zip(xs, outs[p]):
            assert np.array_equal(got, edit(model, x, prompt, t_edit, rng(p)))
    assert np.array_equal(outs[1][0], outs[1][1])
    if t_edit == 0:
        assert all(r.random() == rng(p).random() for p, r in enumerate(rngs))
