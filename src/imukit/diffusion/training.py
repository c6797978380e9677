"""Noise-prediction training loop with adaptive-moment gradient descent."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from imukit import autodiff as ad
from imukit.autodiff import Tape, Tensor
from imukit.diffusion.schedule import forward_diffuse


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the step at which it happened."""

    def __init__(self, step, detail):
        self.step = step
        super().__init__(f"training diverged at step {step}: {detail}")


@dataclass
class TrainConfig:
    steps: int = 1200
    batch_size: int = 64
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    eval_every: int = 100
    eval_rounds: int = 4
    heldout_threshold: float = 0.35
    seed: int = 0


@dataclass
class TrainResult:
    curve: list = field(default_factory=list)  # (step, train_loss, heldout or None)
    initial_loss: float = 0.0
    final_loss: float = 0.0
    final_heldout: float = float("nan")
    heldout_threshold: float = float("nan")
    passed_heldout: bool = False


class Adam:
    def __init__(self, params, cfg):
        self.cfg = cfg
        self.params = params
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, grads):
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        for k, p in self.params.items():
            g = grads.get(p)
            if g is None:
                continue
            m = self.m[k]
            v = self.v[k]
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * (g * g)
            mhat = m / bc1
            vhat = v / bc2
            p.data -= (c.lr * mhat / (np.sqrt(vhat) + c.adam_eps)).astype(np.float32)


def _stacked(dataset):
    xs = np.stack([item.image for item in dataset.items]).astype(np.float32)
    ids = np.stack([np.asarray(item.tokens, dtype=np.int64) for item in dataset.items])
    return xs, ids


def _mc_loss(model, xs, ids, t, eps):
    """Monte-Carlo noise-prediction loss (MSE) for one shared timestep."""
    xb = forward_diffuse(model.schedule, xs, t, eps)
    pm = model._embed_ids(ids)
    pred, _ = model.forward_batch(Tensor(xb), t, pm)
    diff = ad.sub(pred, Tensor(eps))
    return ad.mean_(ad.square(diff))


def evaluate_loss(model, dataset, cfg):
    """Deterministic held-out loss: fixed timesteps, seeded noise draws."""
    if len(dataset) == 0:
        return float("nan")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3]))
    xs, ids = _stacked(dataset)
    total = 0.0
    T = model.schedule.T
    for k in range(cfg.eval_rounds):
        t = int(round((k + 0.5) / cfg.eval_rounds * (T - 1)))
        eps = rng.standard_normal(xs.shape).astype(np.float32)
        total += _mc_loss(model, xs, ids, t, eps).item()
    return total / cfg.eval_rounds


def train(model, dataset, cfg, heldout=None):
    """Fit the noise predictor; deterministic given (model init, cfg.seed).

    Raises TrainingDiverged when the loss goes non-finite. The held-out loss
    threshold is recorded on the result, not enforced here.
    """
    if len(dataset) == 0:
        raise ValueError("train: dataset is empty")
    model.set_trainable(True)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
    opt = Adam(model.params, cfg)
    result = TrainResult(heldout_threshold=cfg.heldout_threshold)
    T = model.schedule.T
    xs_all, ids_all = _stacked(dataset)

    for step in range(1, cfg.steps + 1):
        idx = rng.integers(0, len(dataset), size=cfg.batch_size)
        t = int(rng.integers(0, T))
        xs, ids = xs_all[idx], ids_all[idx]
        eps = rng.standard_normal(xs.shape).astype(np.float32)
        try:
            # divergence shows up as overflow before the finite check trips
            with np.errstate(over="ignore", invalid="ignore"):
                with Tape() as tape:
                    loss = _mc_loss(model, xs, ids, t, eps)
                loss_val = loss.item()
                if not np.isfinite(loss_val):
                    raise TrainingDiverged(step, f"loss={loss_val}")
                grads = tape.backward(loss)
                opt.step(grads)

                if step == 1:
                    result.initial_loss = loss_val
                if step == 1 or step % cfg.eval_every == 0 or step == cfg.steps:
                    held = (evaluate_loss(model, heldout, cfg)
                            if heldout is not None else None)
                    result.curve.append((step, loss_val, held))
        except ad.NonFiniteError as e:
            raise TrainingDiverged(step, str(e)) from e
        result.final_loss = loss_val

    if heldout is not None:
        # the curve scores the model after the last step whenever steps > 0
        last = result.curve[-1] if result.curve else None
        result.final_heldout = (last[2] if last and last[0] == cfg.steps
                                else evaluate_loss(model, heldout, cfg))
        result.passed_heldout = result.final_heldout < cfg.heldout_threshold
    return result
