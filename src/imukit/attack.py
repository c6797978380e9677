"""Immunization attack: dual attention manipulation plus noise-prediction drift.

Per iteration and per attacked timestep, the clean and perturbed images are
noised with the SAME freshly drawn eps, the perturbed branch's attention is
aggregated and binarized into a constant mask, and the loss suppresses
attention inside the mask while amplifying it outside, minus the squared
distance between the two noise predictions. Gradients w.r.t. the perturbation
are averaged over the timestep set and applied as a sign step, then projected
to the L-inf budget and to valid image range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from imukit import autodiff as ad
from imukit.autodiff import Tape, Tensor
from imukit.attention_mask import aggregate, fixed_threshold_mask, make_mask
from imukit.diffusion.model import predict_noise
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


def daa_loss(agg, mask, lambda_daa):
    """||Att * M||_F^2 - lambda * ||Att * (1 - M)||_F^2 with M held constant.

    Att is the raw block-averaged attention; normalization enters only the
    mask construction. Suppresses attention under the mask while amplifying
    it everywhere else.
    """
    att = agg.pre_norm
    m = Tensor(mask.mask.astype(np.float32))
    if tuple(m.shape) != tuple(att.shape):
        raise ad.ShapeMismatchError("daa_loss", att.shape, m.shape)
    inv = Tensor((1 - mask.mask).astype(np.float32))
    inside = ad.frobenius_sq(ad.mul(att, m))
    outside = ad.frobenius_sq(ad.mul(att, inv))
    return ad.sub(inside, ad.scale(outside, lambda_daa))


def nba_loss(eps_clean, eps_imu):
    """Negated squared L2 distance between the two noise predictions."""
    return ad.scale(ad.l2_sq_distance(eps_clean, eps_imu), -1.0)


def total_loss(x0, delta, model, prompt, t, shared_eps, cfg=AttackConfig(),
               mask_override=None):
    """Combined attack objective at one timestep with one shared noise draw.

    Both diffusion branches use the same eps, so at delta = 0 they are
    bit-identical and the noise term is exactly zero; the clean branch runs
    only for the noise term. The mask is recomputed from the perturbed
    branch and frozen (stop-gradient) for this step; mask_override
    substitutes a precomputed constant mask.

    Returns (loss Tensor or None, components dict). Loss is None when every
    term is disabled or degenerate for this step.
    """
    x0 = np.asarray(x0, dtype=np.float32)
    eps_t = Tensor(np.asarray(shared_eps, dtype=np.float32))
    sched = model.schedule

    x_t_imu = forward_diffuse(sched, ad.add(Tensor(x0), delta), t, eps_t)
    eps_imu, record = predict_noise(model, x_t_imu, t, prompt,
                                    capture_attention=cfg.daa_mode != "off")

    terms = []
    comps = {"daa": 0.0, "nba": 0.0, "nba_raw": 0.0, "total": 0.0,
             "degenerate": False}

    if cfg.daa_mode != "off":
        agg = aggregate(record, prompt)
        if mask_override is not None:
            mask = mask_override
        elif cfg.daa_mode == "dual":
            mask = make_mask(agg, cfg.bins, timestep=t)
        else:
            mask = fixed_threshold_mask(agg, cfg.sa_threshold, timestep=t)
        comps["degenerate"] = bool(agg.degenerate or mask.degenerate)
        comps["mask"] = mask
        if not comps["degenerate"]:
            if cfg.daa_mode == "dual":
                term = daa_loss(agg, mask, cfg.lambda_daa)
            else:
                # suppression-only baseline on the un-normalized map
                m = Tensor(mask.mask.astype(np.float32))
                term = ad.frobenius_sq(ad.mul(agg.pre_norm, m))
            terms.append(term)
            comps["daa"] = term.item()

    if cfg.lambda_nba != 0.0:
        # clean branch: plain arrays, so a frozen model puts nothing on the tape
        x_t_clean = forward_diffuse(sched, x0, t, shared_eps)
        eps_clean, _ = predict_noise(model, x_t_clean, t, prompt)
        raw = nba_loss(eps_clean, eps_imu)
        comps["nba_raw"] = raw.item()
        # the division makes this the mean squared difference of the two
        # predictions; it does not put the terms on one scale: on the default
        # reference model this term's gradient has 1-5% of the attention
        # term's L1 norm
        scale = cfg.lambda_nba / eps_imu.size
        terms.append(ad.scale(raw, scale))
        comps["nba"] = comps["nba_raw"] / eps_imu.size

    comps["total"] = comps["daa"] + cfg.lambda_nba * comps["nba"]
    if not terms:
        return None, comps
    loss = terms[0]
    for extra in terms[1:]:
        loss = ad.add(loss, extra)
    return loss, comps


def _project(delta, x0, gamma):
    """Clip to the L-inf ball, then shrink where x0 + delta leaves [0, 1]."""
    delta = np.clip(delta, -gamma, gamma)
    return np.clip(delta, -x0, 1.0 - x0).astype(np.float32)


def snap_to_8bit(delta):
    """Truncate toward zero onto the 1/255 grid; never grows any entry."""
    return (np.trunc(delta.astype(np.float64) * 255.0) / 255.0).astype(np.float32)


def immunize(x0, prompt, model, cfg):
    """Full multi-timestep sign-gradient immunization loop.

    Returns (x_imu, PerturbationState). Deterministic for fixed
    (x0, prompt, model, cfg). The final perturbation is truncated onto the
    1/255 grid by default so the PPM artifact is a lossless view.
    """
    x0 = np.asarray(x0, dtype=np.float32)
    ts = resolve_timesteps(cfg, model.schedule)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 4]))
    gamma = np.float32(cfg.gamma)
    alpha = np.float32(cfg.alpha_step)
    delta = np.zeros_like(x0)
    if cfg.iterations > 0:
        # the noise term's gradient vanishes identically at delta = 0 (both
        # branches are bit-equal), so start one sign-step inside the ball
        signs = rng.integers(0, 2, size=x0.shape).astype(np.float32) * 2.0 - 1.0
        delta = _project(alpha * signs, x0, gamma)
    state = PerturbationState()

    all_degenerate_iters = 0
    for n in range(1, cfg.iterations + 1):
        g_total = np.zeros_like(x0)
        daa_vals, nba_vals, tot_vals = [], [], []
        degenerate_here = 0
        for t in ts:
            eps = rng.standard_normal(x0.shape).astype(np.float32)
            with Tape() as tape:
                delta_t = Tensor(delta, requires_grad=True)
                loss, comps = total_loss(x0, delta_t, model, prompt, t, eps, cfg)
            if comps["degenerate"]:
                degenerate_here += 1
                state.degenerate_count += 1
            if loss is not None and loss.requires_grad:
                g = tape.backward(loss).get(delta_t)
                if g is not None:
                    g_total += g
            daa_vals.append(comps["daa"])
            nba_vals.append(comps["nba"])
            tot_vals.append(comps["total"])
        if degenerate_here == len(ts):
            all_degenerate_iters += 1
        g_total /= np.float32(len(ts))
        delta = (delta - alpha * np.sign(g_total)).astype(np.float32)
        delta = _project(delta, x0, gamma)
        state.trace.append({
            "iteration": n,
            "daa": float(np.mean(daa_vals)),
            "nba": float(np.mean(nba_vals)),
            "total": float(np.mean(tot_vals)),
        })

    if cfg.iterations and all_degenerate_iters > cfg.iterations // 2:
        state.warnings.append(
            f"degenerate mask at every timestep for {all_degenerate_iters}/"
            f"{cfg.iterations} iterations; attack relied on the noise term")

    if cfg.snap_8bit:
        delta = snap_to_8bit(delta)
    x_imu = np.clip(x0 + delta, 0.0, 1.0).astype(np.float32)
    return x_imu, state


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
