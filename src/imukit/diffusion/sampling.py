"""Ancestral reverse sampling and noise-then-denoise editing."""

from __future__ import annotations

import numpy as np

from imukit.autodiff import Tensor
from imukit.diffusion.schedule import forward_diffuse

# Rows per forward_batch call in edit_batch. An untaped forward's peak grows
# by about 232 KiB per row: evaluate's stage peaks at about 41.6 MiB with
# one-row edits, 43.0 MiB at 6 rows (within 5%) and 43.8 MiB at 8 (not).
EDIT_ROWS = 6


def _reverse_update(sched, t, x_t, eps_hat, sigma, z):
    """x_(t-1) = (x_t - (1-a_t)/sqrt(1-abar_t) * eps_hat) / sqrt(a_t) + sigma * z.

    Elementwise, so any number of stacked rows updates at once; z is not
    read when sigma is 0.
    """
    a = sched.alpha[t]
    abar = sched.alpha_bar[t]
    coef = np.float32((1.0 - a) / np.sqrt(1.0 - abar))
    mean = (x_t - coef * eps_hat) * np.float32(1.0 / np.sqrt(a))
    if sigma == 0.0:
        return mean
    return mean + np.float32(sigma) * z


def edit_batch(model, pairs, t_edit):
    """edit() of every input of every (prompt, rng, inputs) pair at once.

    All inputs run one reverse chain in lockstep, at most EDIT_ROWS rows per
    forward_batch call. The inputs of one pair share its rng's draws, taken
    in edit()'s order: eps once, then one z per step. Each pair needs its
    own rng. The frozen-weight forward is batch-invariant, so every output
    is bit for bit edit(model, x, prompt, t_edit, rng) with the pair's rng
    in its starting state. Returns one list of outputs per pair.
    """
    sched = model.schedule
    if not (0 <= t_edit < sched.T):
        raise ValueError(f"edit: t_edit {t_edit} outside [0, {sched.T})")
    counts = [len(inputs) for _, _, inputs in pairs]
    if not sum(counts):
        return [[] for _ in pairs]
    xs = np.stack([np.asarray(x, dtype=np.float32)
                   for _, _, inputs in pairs for x in inputs])
    if t_edit == 0:
        out = np.clip(xs, 0.0, 1.0)
    else:
        row_pair = np.repeat(np.arange(len(pairs)), counts)
        shape = xs.shape[1:]

        def draw():
            """One standard normal draw per pair, stacked in pair order."""
            return np.stack([rng.standard_normal(shape).astype(np.float32)
                             for _, rng, _ in pairs])

        x_t = forward_diffuse(sched, xs, t_edit, draw()[row_pair])
        del xs
        chunks = [slice(i, i + EDIT_ROWS) for i in range(0, len(x_t), EDIT_ROWS)]
        pms = [Tensor(np.stack([pairs[p][0].matrix.data for p in row_pair[c]]))
               for c in chunks]
        for t in range(t_edit, 0, -1):
            sigma = sched.sigma[t]
            z = None if sigma == 0.0 else draw()
            for c, pm in zip(chunks, pms):
                eps_hat = model.forward_batch(Tensor(x_t[c]), t, pm)[0].data
                x_t[c] = _reverse_update(sched, t, x_t[c], eps_hat, sigma,
                                         None if z is None else z[row_pair[c]])
        out = np.clip(x_t, 0.0, 1.0)
    ends = np.cumsum(counts)
    return [list(out[end - n:end]) for n, end in zip(counts, ends)]


def edit(model, x, edit_prompt, t_edit, rng):
    """Noise the image to level t_edit, then denoise under the edit caption.

    t_edit = 0 applies no diffusion at all and returns the clamped input.
    Output is clamped to [0, 1]. Deterministic for a fixed rng seed. The
    one-row case of edit_batch.
    """
    return edit_batch(model, [(edit_prompt, rng, [x])], t_edit)[0][0]
