"""Float64 reference forward pass of the denoiser and the attack objective.

A from-scratch transcription of the network and loss formulas using plain
numpy in double precision. Used as the function under central finite
differences when checking the production engine's analytic gradients; shares
no code with the package.
"""

import numpy as np


def _p64(model):
    return {k: v.data.astype(np.float64) for k, v in model.params.items()}


def _time_vec64(model, t):
    half = model.config.d_time // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = t * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)])


def _temb64(p, model, t, prefix):
    e = _time_vec64(model, t)[None, :]
    return (e @ p[prefix + "_t"] + p[prefix + "_tb"][None, :]).reshape(-1)


def _silu(x):
    return x / (1.0 + np.exp(-x))


def _pool(x):
    h, w, c = x.shape
    return x.reshape(h // 2, 2, w // 2, 2, c).mean(axis=(1, 3))


def _up(x):
    return np.repeat(np.repeat(x, 2, axis=0), 2, axis=1)


def _dense(p, x, w, b):
    h, wd, c = x.shape
    y = x.reshape(h * wd, c) @ p[w] + p[b][None, :]
    return y.reshape(h, wd, -1)


def _attention(p, model, x, pm, prefix):
    h, w, c = x.shape
    flat = x.reshape(h * w, c)
    q = flat @ p[prefix + "_q"]
    k = pm @ p[prefix + "_k"]
    v = pm @ p[prefix + "_v"]
    scores = q @ k.T / np.sqrt(model.config.d_k)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    out = (attn @ v).reshape(h, w, c)
    return x + out, attn.reshape(h, w, -1)


def _positions64(size):
    coords = (np.arange(size, dtype=np.float64) + 0.5) / size * 2.0 - 1.0
    y = np.repeat(coords[:, None], size, axis=1)
    x = np.repeat(coords[None, :], size, axis=0)
    feats = [x, y, np.sin(np.pi * x), np.cos(np.pi * x),
             np.sin(np.pi * y), np.cos(np.pi * y)]
    # match the production float32 rounding of this constant input
    return np.stack(feats, axis=-1).astype(np.float32).astype(np.float64)


def oracle_forward(model, x, t, token_ids):
    """eps prediction plus per-block post-softmax attention maps, in float64."""
    p = _p64(model)
    pm = p["embed"][np.asarray(token_ids, dtype=np.int64)]
    x = np.concatenate([x, _positions64(x.shape[0])], axis=-1)
    h0 = _silu(_dense(p, x, "enc0_w", "enc0_b") + _temb64(p, model, t, "enc0"))
    h0 = _silu(_dense(p, h0, "enc0b_w", "enc0b_b"))
    h1 = _silu(_dense(p, _pool(h0), "enc1_w", "enc1_b") + _temb64(p, model, t, "enc1"))
    h1, a1 = _attention(p, model, h1, pm, "attn1")
    h2 = _silu(_dense(p, _pool(h1), "enc2_w", "enc2_b") + _temb64(p, model, t, "enc2"))
    h2, a2 = _attention(p, model, h2, pm, "attn2")
    d1 = _silu(_dense(p, np.concatenate([_up(h2), h1], axis=-1), "dec1_w", "dec1_b")
               + _temb64(p, model, t, "dec1"))
    d0 = _silu(_dense(p, np.concatenate([_up(d1), h0], axis=-1), "dec0_w", "dec0_b")
               + _temb64(p, model, t, "dec0"))
    eps_hat = _dense(p, d0, "head_w", "head_b")
    return eps_hat, [a1, a2]


def oracle_aggregate(maps, content_mask):
    """Content-token mean per block, upsample to the largest block, block mean,
    then min-max normalization. Returns (normalized, pre_normalization)."""
    idx = np.flatnonzero(content_mask)
    target = max(m.shape[0] for m in maps)
    acc = None
    for m in maps:
        sel = m[:, :, idx].mean(axis=2)
        while sel.shape[0] < target:
            sel = np.repeat(np.repeat(sel, 2, axis=0), 2, axis=1)
        acc = sel if acc is None else acc + sel
    pre = acc / len(maps)
    lo, hi = pre.min(), pre.max()
    if hi <= lo:
        return np.zeros_like(pre), pre
    return (pre - lo) / (hi - lo), pre


def oracle_total_loss(model, x0, delta, eps, token_ids, content_mask, t, mask,
                      lambda_daa=1.0, lambda_nba=1.0, daa_mode="dual"):
    """Attack objective at one timestep with a FIXED binary mask, in float64."""
    sched = model.schedule
    abar = sched.alpha_bar[t]
    c0, ce = np.sqrt(abar), np.sqrt(1.0 - abar)
    x0 = np.asarray(x0, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)

    xt_imu = c0 * (x0 + delta) + ce * eps
    eps_imu, maps = oracle_forward(model, xt_imu, t, token_ids)

    total = 0.0
    if daa_mode != "off":
        _, pre = oracle_aggregate(maps, content_mask)
        m = np.asarray(mask, dtype=np.float64)
        if daa_mode == "dual":
            total += ((pre * m) ** 2).sum() - lambda_daa * ((pre * (1.0 - m)) ** 2).sum()
        else:
            total += ((pre * m) ** 2).sum()
    if lambda_nba != 0.0:
        raw = -((eps - eps_imu) ** 2).sum()
        total += lambda_nba * raw / eps_imu.size
    return float(total)
