"""Immunization attack: dual attention manipulation plus noise-prediction drift.

Per iteration and per attacked timestep, the perturbed image is noised with a
freshly drawn eps and passed through the model once. Its attention is
aggregated and binarized into a constant mask, and the loss suppresses
attention inside the mask while amplifying it outside, minus the squared
distance between the injected eps and the predicted noise. Gradients w.r.t.
the perturbation are averaged over the timestep set and applied as a sign
step, then projected to the L-inf budget and to valid image range. Images
attacked with one config (up to the seed) step in lockstep: one model pass
and one backward per timestep serve them all, without changing a bit of
any image's result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from imukit import autodiff as ad
from imukit.autodiff import Tape, Tensor
from imukit.attention_mask import aggregate, fixed_threshold_mask, make_mask
from imukit.diffusion.schedule import forward_diffuse

DAA_MODES = ("dual", "suppress-fixed", "off")


@dataclass(frozen=True)
class AttackConfig:
    gamma: float = 0.03
    alpha_step: float = 0.003
    iterations: int = 100
    timesteps: tuple = ()           # empty -> 10 evenly spaced in [1, T-1]
    lambda_daa: float = 1.0
    lambda_nba: float = 1.0
    bins: int = 128
    seed: int = 0
    daa_mode: str = "dual"
    sa_threshold: float = 0.02
    snap_8bit: bool = True

    def __post_init__(self):
        if not (0.0 < self.alpha_step <= self.gamma):
            raise ValueError(
                f"need 0 < alpha_step <= gamma, got ({self.alpha_step}, {self.gamma})")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.daa_mode not in DAA_MODES:
            raise ValueError(f"daa_mode must be one of {DAA_MODES}, got {self.daa_mode}")
        if self.bins < 2:
            raise ValueError(f"bins must be >= 2, got {self.bins}")
        ts = tuple(int(t) for t in self.timesteps)
        if len(set(ts)) != len(ts):
            raise ValueError("timesteps must be distinct")
        object.__setattr__(self, "timesteps", ts)


@dataclass
class PerturbationState:
    trace: list = field(default_factory=list)       # per-iter dicts
    degenerate_count: int = 0
    warnings: list = field(default_factory=list)


def default_timesteps(T, count=10):
    """Evenly spaced distinct timesteps in [1, T-1]."""
    ts = np.unique(np.round(np.linspace(1, T - 1, count)).astype(int))
    return tuple(int(t) for t in ts)


def resolve_timesteps(cfg, schedule):
    ts = cfg.timesteps if cfg.timesteps else default_timesteps(schedule.T)
    for t in ts:
        if not (1 <= t <= schedule.T - 1):
            raise ValueError(f"attack timestep {t} outside [1, {schedule.T - 1}]")
    return ts


def _mask_weights(agg, mask):
    """Constant (inside, outside) weights shaped like agg.pre_norm: M and 1 - M.

    One (H, W) map takes one BinaryMask, a (B, H, W) batch a list of B. An
    image whose map or mask is degenerate gets zero weights inside and out,
    so its attention term and that term's gradient are exactly 0.
    """
    att = agg.pre_norm
    masks = mask if att.ndim == 3 else [mask]
    m = np.stack([mk.mask for mk in masks])
    if m.shape[1:] != att.shape[-2:]:
        raise ad.ShapeMismatchError("daa_loss", att.shape, m.shape)
    live = ~(np.atleast_1d(agg.degenerate) | [mk.degenerate for mk in masks])
    live = live.astype(np.uint8)[:, None, None]
    return (Tensor((m * live).astype(np.float32).reshape(att.shape)),
            Tensor(((1 - m) * live).astype(np.float32).reshape(att.shape)))


def daa_loss(agg, mask, lambda_daa):
    """||Att * M||_F^2 - lambda * ||Att * (1 - M)||_F^2 with M held constant.

    Att is the raw block-averaged attention; normalization enters only the
    mask construction. Suppresses attention under the mask while amplifying
    it everywhere else. A (B, H, W) batch with a list of B masks gives the
    (B,) losses of its images; a degenerate image's loss is 0.
    """
    att = agg.pre_norm
    inside, outside = _mask_weights(agg, mask)
    per_image = att.ndim == 3
    return ad.sub(ad.frobenius_sq(ad.mul(att, inside), per_image),
                  ad.scale(ad.frobenius_sq(ad.mul(att, outside), per_image), lambda_daa))


def nba_loss(eps, eps_imu, per_image=False):
    """Negated squared L2 distance between the injected and the predicted
    noise; with per_image, one distance per index of the first axis."""
    return ad.scale(ad.l2_sq_distance(eps, eps_imu, per_image), -1.0)


def total_loss(x0, delta, model, prompt, t, eps, cfg=AttackConfig(),
               mask_override=None):
    """Combined attack objective at one timestep, from one model pass.

    x0, delta and eps are one (H, W, C) image, or a (B, H, W, C) batch with
    a sequence of B prompts (and of B masks in mask_override). Each image is
    noised with its eps; its noise term is the negated mean squared error of
    the model's prediction of that eps (AdvDM's denoising loss). Each mask
    is recomputed from the same pass and frozen (stop-gradient) for this
    step; mask_override substitutes precomputed constant masks.

    Returns (loss Tensor or None, components). The loss is the sum of the
    images' objectives, so each image's terms get the gradient they get
    alone; it is None when every term is disabled or degenerate. The
    components are one dict per image: a dict for one image, a list of B
    dicts for a batch.
    """
    x0 = np.asarray(x0, dtype=np.float32)
    one = x0.ndim == 3
    if one:
        x0, eps = x0[None], np.asarray(eps)[None]
        delta = ad.reshape(delta, (1,) + delta.shape)
        prompt = [prompt]
        mask_override = None if mask_override is None else [mask_override]
    eps_t = Tensor(np.asarray(eps, dtype=np.float32))
    size = x0[0].size

    x_t_imu = forward_diffuse(model.schedule, ad.add(Tensor(x0), delta), t, eps_t)
    pm = Tensor(np.stack([p.matrix.data for p in prompt]))
    eps_imu, record = model.forward_batch(x_t_imu, t, pm,
                                          capture_attention=cfg.daa_mode != "off")

    terms = []
    comps = [{"daa": 0.0, "nba": 0.0, "total": 0.0, "degenerate": False}
             for _ in range(len(x0))]

    if cfg.daa_mode != "off":
        agg = aggregate(record, prompt)
        masks = mask_override
        if masks is None:
            masks = [make_mask(a, cfg.bins, timestep=t) if cfg.daa_mode == "dual"
                     else fixed_threshold_mask(a, cfg.sa_threshold, timestep=t)
                     for a in agg.images()]
        for c, flag, mask in zip(comps, agg.degenerate, masks, strict=True):
            c["degenerate"] = bool(flag or mask.degenerate)
            c["mask"] = mask
        if not all(c["degenerate"] for c in comps):
            if cfg.daa_mode == "dual":
                term = daa_loss(agg, masks, cfg.lambda_daa)
            else:
                # suppression-only baseline on the un-normalized map
                inside, _ = _mask_weights(agg, masks)
                term = ad.frobenius_sq(ad.mul(agg.pre_norm, inside), per_image=True)
            terms.append(term)
            for c, value in zip(comps, term.data):
                c["daa"] = float(value)

    if cfg.lambda_nba != 0.0:
        raw = nba_loss(eps_t, eps_imu, per_image=True)
        terms.append(ad.scale(raw, cfg.lambda_nba / size))
        for c, value in zip(comps, raw.data):
            c["nba"] = float(value) / size

    for c in comps:
        c["total"] = c["daa"] + cfg.lambda_nba * c["nba"]
    loss = None
    if terms:
        loss = terms[0]
        for extra in terms[1:]:
            loss = ad.add(loss, extra)
        loss = ad.sum_(loss)
    return loss, comps[0] if one else comps


def _project(delta, x0, gamma):
    """Clip to the L-inf ball, then shrink where x0 + delta leaves [0, 1]."""
    delta = np.clip(delta, -gamma, gamma)
    return np.clip(delta, -x0, 1.0 - x0).astype(np.float32)


def snap_to_8bit(delta):
    """Truncate toward zero onto the 1/255 grid; never grows any entry."""
    return (np.trunc(delta.astype(np.float64) * 255.0) / 255.0).astype(np.float32)


def immunize_batch(x0s, prompts, model, cfgs):
    """immunize() of several images in lockstep, one cfg and prompt per image.

    The configs may differ only in their seeds. At each (iteration,
    timestep) one taped forward_batch over every image and one backward give
    each image its gradient. Each image draws its eps from its own seed's
    stream and keeps its own trace, degenerate count and sign step.
    Frozen-weight gemms run per image and every other op acts elementwise
    or within one image, so each result is bit for bit immunize() of that
    image alone, whichever images share its batch. Returns one
    (x_imu, PerturbationState) per image.
    """
    cfg = cfgs[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in cfgs):
        raise ValueError("immunize_batch: configs may differ only in their seeds")
    x0 = np.stack([np.asarray(x, dtype=np.float32) for x in x0s])
    ts = resolve_timesteps(cfg, model.schedule)
    rngs = [np.random.default_rng(np.random.SeedSequence([c.seed, 4])) for c in cfgs]
    gamma = np.float32(cfg.gamma)
    alpha = np.float32(cfg.alpha_step)
    delta = np.zeros_like(x0)
    states = [PerturbationState() for _ in cfgs]

    all_degenerate_iters = [0] * len(cfgs)
    for n in range(1, cfg.iterations + 1):
        g_total = np.zeros_like(x0)
        per_t = []
        for t in ts:
            eps = np.stack([rng.standard_normal(x0.shape[1:]).astype(np.float32)
                            for rng in rngs])
            with Tape() as tape:
                delta_t = Tensor(delta, requires_grad=True)
                loss, comps = total_loss(x0, delta_t, model, prompts, t, eps, cfg)
            if loss is not None:
                g_total += tape.backward(loss)[delta_t]
            per_t.append(comps)
        g_total /= np.float32(len(ts))
        delta = (delta - alpha * np.sign(g_total)).astype(np.float32)
        delta = _project(delta, x0, gamma)
        for i, state in enumerate(states):
            comps = [c[i] for c in per_t]
            degenerate = sum(c["degenerate"] for c in comps)
            state.degenerate_count += degenerate
            all_degenerate_iters[i] += degenerate == len(ts)
            state.trace.append({
                "iteration": n,
                "daa": float(np.mean([c["daa"] for c in comps])),
                "nba": float(np.mean([c["nba"] for c in comps])),
                "total": float(np.mean([c["total"] for c in comps])),
            })

    # with the noise term off, an iteration degenerate at every timestep
    # has no gradient and leaves the perturbation where it was
    effect = ("attack relied on the noise term" if cfg.lambda_nba != 0.0
              else "the noise term is off, so those iterations left the image unchanged")
    for state, count in zip(states, all_degenerate_iters):
        if cfg.iterations and count > cfg.iterations // 2:
            state.warnings.append(
                f"degenerate mask at every timestep for {count}/"
                f"{cfg.iterations} iterations; {effect}")

    if cfg.snap_8bit:
        delta = snap_to_8bit(delta)
    x_imu = np.clip(x0 + delta, 0.0, 1.0).astype(np.float32)
    return list(zip(x_imu, states))


def immunize(x0, prompt, model, cfg):
    """Full multi-timestep sign-gradient immunization loop.

    Returns (x_imu, PerturbationState). Deterministic for fixed
    (x0, prompt, model, cfg). The final perturbation is truncated onto the
    1/255 grid by default so the PPM artifact is a lossless view. The
    one-image case of immunize_batch.
    """
    return immunize_batch([x0], [prompt], model, [cfg])[0]


def random_noise_delta(x0, cfg):
    """Equal-budget baseline: x0 plus per-pixel +/- gamma sign noise, projected
    and snapped; returns the perturbed image."""
    x0 = np.asarray(x0, dtype=np.float32)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 4]))
    signs = rng.integers(0, 2, size=x0.shape).astype(np.float32) * 2.0 - 1.0
    delta = _project(np.float32(cfg.gamma) * signs, x0, np.float32(cfg.gamma))
    if cfg.snap_8bit:
        delta = snap_to_8bit(delta)
    return np.clip(x0 + delta, 0.0, 1.0).astype(np.float32)
