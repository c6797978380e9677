"""Linear-beta noise schedule and the closed-form forward noising step."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from imukit.autodiff import Tensor, add, scale


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-timestep scalars for T levels, index 0 = least noisy.

    beta is strictly increasing in (0, 1); alpha = 1 - beta; alpha_bar is the
    running product of alpha (strictly decreasing, in (0, 1]); sigma is the
    reverse-step noise std, fixed here to sqrt(beta).
    """

    T: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    sigma: np.ndarray
    beta_min: float
    beta_max: float


def build_schedule(T, beta_min=1e-4, beta_max=0.02):
    if T < 2:
        raise ValueError(f"build_schedule: T must be >= 2, got {T}")
    if not (0.0 < beta_min < beta_max < 1.0):
        raise ValueError(
            f"build_schedule: need 0 < beta_min < beta_max < 1, got "
            f"({beta_min}, {beta_max})")
    beta = np.linspace(beta_min, beta_max, T, dtype=np.float64)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    sigma = np.sqrt(beta)
    return NoiseSchedule(T=int(T), beta=beta, alpha=alpha, alpha_bar=alpha_bar,
                         sigma=sigma, beta_min=float(beta_min),
                         beta_max=float(beta_max))


def forward_diffuse(schedule, x0, t, eps):
    """Noise x0 to level t: sqrt(abar_t) * x0 + sqrt(1 - abar_t) * eps.

    Differentiable in x0 when x0 is a requires_grad Tensor; eps may be a
    Tensor or a plain array of the same shape. For a Tensor x0, t may also
    be a sequence of timesteps, one per index of x0's first axis; each row
    gets the bits it gets at its timestep alone.
    """
    ts = np.asarray(t)
    if ((ts < 0) | (ts >= schedule.T)).any():
        raise ValueError(f"forward_diffuse: timestep {t} outside [0, {schedule.T})")
    abar = schedule.alpha_bar[ts]
    c0 = np.sqrt(abar)
    ce = np.sqrt(1.0 - abar)
    if isinstance(x0, Tensor):
        eps_t = eps if isinstance(eps, Tensor) else Tensor(eps)
        if x0.shape != eps_t.shape:
            raise ValueError(
                f"forward_diffuse: eps shape {eps_t.shape} != x0 shape {x0.shape}")
        return add(scale(x0, c0), scale(eps_t, ce))
    if ts.ndim:
        raise ValueError("forward_diffuse: per-row timesteps need a Tensor x0")
    x0 = np.asarray(x0, dtype=np.float32)
    eps = np.asarray(eps, dtype=np.float32)
    if x0.shape != eps.shape:
        raise ValueError(
            f"forward_diffuse: eps shape {eps.shape} != x0 shape {x0.shape}")
    return x0 * np.float32(c0) + eps * np.float32(ce)
