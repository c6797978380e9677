import platform
import resource

import numpy as np
import pytest

from imukit.autodiff import Tape, Tensor
from imukit.diffusion import (
    DenoiserModel, ModelConfig, TrainConfig, TrainingDiverged, build_schedule,
    make_dataset, train,
)
from imukit.diffusion.training import Adam, _mc_loss, _stacked, evaluate_loss
from oracles import fd_agreement, numeric_grad


def small_setup(seed=5, n=2):
    sched = build_schedule(20)
    cfg = ModelConfig(image_size=16, widths=(8, 12, 16), d_k=8, d_text=8, d_time=16)
    model = DenoiserModel.init(cfg, seed=seed, schedule=sched)
    ds = make_dataset(seed, 0, n, size=16)
    return model, ds


def test_overfit_single_item(rng):
    """One item, enough steps: the fixed-eval loss falls below 10% of initial.

    Evaluated at a fixed high-noise timestep with frozen noise draws; at low
    t the noise imprint in x_t is information-limited and its loss floor is
    architecture-independent, so it is not the overfit signal.
    """
    model, ds = small_setup(n=1)
    xs, ids = _stacked(ds)
    t_eval = (4 * model.schedule.T) // 5
    eps_fixed = [rng.standard_normal(xs.shape).astype(np.float32) for _ in range(3)]

    def fixed_eval():
        return float(np.mean([_mc_loss(model, xs, ids, t_eval, e).item()
                              for e in eps_fixed]))

    before = fixed_eval()
    train(model, ds, TrainConfig(steps=700, batch_size=8, lr=2e-3,
                                 eval_every=10000, seed=1))
    after = fixed_eval()
    assert after < 0.1 * before, f"overfit ratio {after / before:.3f}"


def test_zero_learning_rate_is_identity():
    model, ds = small_setup()
    before = {k: p.data.copy() for k, p in model.params.items()}
    res = train(model, ds, TrainConfig(steps=5, batch_size=4, lr=0.0, seed=2))
    assert res.final_loss > 0
    for k, p in model.params.items():
        assert np.array_equal(p.data, before[k]), k


def test_training_deterministic_across_runs():
    ma, ds = small_setup(seed=9)
    mb, _ = small_setup(seed=9)
    cfg = TrainConfig(steps=25, batch_size=4, seed=4)
    ra = train(ma, ds, cfg)
    rb = train(mb, ds, cfg)
    assert ra.final_loss == rb.final_loss
    for k in ma.params:
        assert np.array_equal(ma.params[k].data, mb.params[k].data)


@pytest.mark.parametrize("steps", [0, 7])
def test_final_heldout_scores_the_trained_model_once(steps, forward_calls):
    model, ds = small_setup(seed=6)
    heldout = make_dataset(6, 1, 2, size=16)
    cfg = TrainConfig(steps=steps, batch_size=4, eval_every=5, eval_rounds=2, seed=3)
    res = train(model, ds, cfg, heldout=heldout)
    evals = len(res.curve) + (steps == 0)
    assert len(forward_calls) == steps + evals * cfg.eval_rounds
    assert res.final_heldout == evaluate_loss(model, heldout, cfg)
    if steps:
        assert res.curve[-1][0] == steps and res.final_heldout == res.curve[-1][2]


def test_divergence_aborts_with_step():
    model, ds = small_setup()
    with pytest.raises(TrainingDiverged) as err:
        train(model, ds, TrainConfig(steps=200, batch_size=4, lr=1e6, seed=1))
    assert err.value.step >= 1


def test_empty_dataset_rejected():
    model, ds = small_setup()
    ds.items = []
    with pytest.raises(ValueError):
        train(model, ds, TrainConfig(steps=1))


def test_training_loss_gradient_matches_fd_on_slice(rng):
    """Training-objective gradient vs float64 finite differences on a slice."""
    from imukit.diffusion.schedule import forward_diffuse
    from oracle_forward import oracle_forward

    model, ds = small_setup(seed=13, n=2)
    xs, ids = _stacked(ds)
    t = 7
    eps = rng.standard_normal(xs.shape).astype(np.float32)

    with Tape() as tape:
        loss = _mc_loss(model, xs, ids, t, eps)
    head_w = model.params["head_w"]
    got = tape.backward(loss)[head_w][:10, 0]

    base = head_w.data.copy()
    sched = model.schedule
    xts = [forward_diffuse(sched, xs[i], t, eps[i]).astype(np.float64)
           for i in range(len(ds))]

    def f(slice_vals):
        arr = base.copy()
        arr[:10, 0] = slice_vals
        head_w.data = arr.astype(np.float32)
        try:
            vals = []
            for i in range(len(ds)):
                pred, _ = oracle_forward(model, xts[i], t, ids[i])
                vals.append(((eps[i].astype(np.float64) - pred) ** 2).mean())
            return float(np.mean(vals))
        finally:
            head_w.data = base

    want = numeric_grad(f, base[:10, 0].astype(np.float64), h=1e-3)
    assert fd_agreement(got, want, rel=1e-3, floor=1e-5) >= 0.99


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the malloc policy acts on glibc only")
def test_train_steps_reuse_freed_heap_pages(monkeypatch):
    """Default model at B=64: once warm, a train step reuses the pages the
    previous step freed. Under glibc's default malloc policy every step
    faults in thousands of fresh pages."""
    model = DenoiserModel.init(ModelConfig(), seed=0, schedule=build_schedule(50))
    faults = []
    step = Adam.step

    def counting(self, grads):
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return step(self, grads)

    monkeypatch.setattr(Adam, "step", counting)
    train(model, make_dataset(0, 0, 8),
          TrainConfig(steps=6, batch_size=64, eval_every=10**6))
    # from one update to the next: an update plus a forward and backward;
    # the first two are warm-up
    per_step = np.diff(faults)[2:]
    assert len(per_step) == 3
    assert (per_step < 1000).all(), per_step
