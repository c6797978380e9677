"""Noise-prediction training loop with adaptive-moment gradient descent."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from imukit import autodiff as ad
from imukit.autodiff import Tape, Tensor
from imukit.diffusion.schedule import forward_diffuse

# Rows per taped part of a training step. train runs each minibatch as
# consecutive parts of at most this many rows, one tape, forward and backward
# each, and sums their gradients before the one update; what a step holds
# for backward grows with the part, not the minibatch. perfbench train (B=64,
# default model; medians of 3 fresh processes; 2-vCPU Xeon, one BLAS thread;
# 64 rows is one tape per step):
#
#   rows           8     16     32     64
#   peak MiB    48.6   54.1   65.9   87.9
#   s/call      2.77   2.58   2.61   3.04
#
# The time per call moves within the spread between runs; 16 keeps most of
# the saving that 8 gives, with gemms of twice the rows.
TRAIN_ROWS = 16


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

    def __post_init__(self):
        # steps = 0 stays valid here: train() then only scores the held-out
        # set; a run's config asks for at least one step (ExperimentConfig)
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        for name in ("batch_size", "eval_every", "eval_rounds"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # Adam's bias correction divides by 1 - beta**t and its update by
        # sqrt(vhat) + adam_eps; lr = 0 stays valid (no update). Each check
        # is written so that NaN fails it.
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.adam_eps > 0.0:
            raise ValueError(f"adam_eps must be > 0, got {self.adam_eps}")
        if not self.lr >= 0.0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")


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


def _stacked(items):
    xs = np.stack([item.image for item in items]).astype(np.float32)
    ids = np.stack([np.asarray(item.tokens, dtype=np.int64) for item in items])
    return xs, ids


def _mc_loss(model, xs, ids, t, eps):
    """Monte-Carlo noise-prediction loss (MSE) for one shared timestep."""
    pm = model._embed_ids(ids)
    # Tensor copies the noised batch, so not binding it frees the numpy batch
    # before the forward runs
    pred, _ = model.forward_batch(
        Tensor(forward_diffuse(model.schedule, xs, t, eps)), t, pm)
    diff = ad.sub(pred, Tensor(eps))
    return ad.mean_(ad.square(diff))


def evaluate_loss(model, items, cfg):
    """Deterministic held-out loss: fixed timesteps, seeded noise draws."""
    if len(items) == 0:
        return float("nan")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3]))
    xs, ids = _stacked(items)
    total = 0.0
    T = model.schedule.T
    for k in range(cfg.eval_rounds):
        t = int(round((k + 0.5) / cfg.eval_rounds * (T - 1)))
        eps = rng.standard_normal(xs.shape).astype(np.float32)
        total += _mc_loss(model, xs, ids, t, eps).item()
    return total / cfg.eval_rounds


def _step_grads(model, xs, ids, t, eps, step):
    """Loss and parameter gradients of the minibatch mean of _mc_loss.

    The rows run in consecutive parts of at most TRAIN_ROWS, each on its own
    tape. A part's loss is scaled by its share of the rows, so the parts'
    losses and gradients sum to those of the mean over every row, an uneven
    last part included. Raises TrainingDiverged at the first non-finite part.
    """
    n = len(xs)
    loss_val = 0.0
    grads = {}
    for lo in range(0, n, TRAIN_ROWS):
        hi = min(lo + TRAIN_ROWS, n)
        with Tape() as tape:
            loss = ad.scale(_mc_loss(model, xs[lo:hi], ids[lo:hi], t, eps[lo:hi]),
                            (hi - lo) / n)
        part_val = loss.item()
        if not np.isfinite(part_val):
            raise TrainingDiverged(step, f"loss={part_val}")
        loss_val += part_val
        for p, g in tape.backward(loss).items():
            if p in grads:
                grads[p] += g
            else:
                grads[p] = g
    return loss_val, grads


def train(model, items, cfg, heldout=None):
    """Fit the noise predictor; deterministic given (model init, cfg.seed).

    Raises TrainingDiverged when the loss goes non-finite. The held-out loss
    threshold is recorded on the result, not enforced here.
    """
    if len(items) == 0:
        raise ValueError("train: dataset is empty")
    model.set_trainable(True)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
    opt = Adam(model.params, cfg)
    result = TrainResult(heldout_threshold=cfg.heldout_threshold)
    T = model.schedule.T
    xs_all, ids_all = _stacked(items)

    for step in range(1, cfg.steps + 1):
        idx = rng.integers(0, len(items), size=cfg.batch_size)
        t = int(rng.integers(0, T))
        xs, ids = xs_all[idx], ids_all[idx]
        eps = rng.standard_normal(xs.shape).astype(np.float32)
        try:
            # divergence shows up as overflow before the finite check trips
            with np.errstate(over="ignore", invalid="ignore"):
                loss_val, grads = _step_grads(model, xs, ids, t, eps, step)
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
