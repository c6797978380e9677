"""Independent oracles used by the tests.

The finite-difference oracle evaluates float64 reference implementations of
each operation (written here from the definitions, sharing no code with the
package) so that the h=1e-3 central difference is not polluted by float32
forward rounding. Production analytic gradients are compared against these.
"""

import math

import numpy as np

# ---------------------------------------------------------------------------
# float64 reference ops (definition transcriptions, no package imports)
# ---------------------------------------------------------------------------


def ref_silu(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return x * s


def ref_softmax(x, axis=-1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def ref_upsample2x(x):
    return np.repeat(np.repeat(x, 2, axis=-3), 2, axis=-2)


def ref_avgpool2x(x):
    lead = x.shape[:-3]
    h, w, c = x.shape[-3:]
    return x.reshape(lead + (h // 2, 2, w // 2, 2, c)).mean(axis=(-4, -2))


REFERENCE_OPS = {
    "silu": ref_silu,
    "square": lambda x: x * x,
    "softmax": ref_softmax,
    "upsample2x": ref_upsample2x,
    "avgpool2x": ref_avgpool2x,
}


def numeric_grad(f, x, h=1e-3):
    """Central finite differences of a scalar-valued f around x (float64)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros(x.size, dtype=np.float64)
    flat = x.reshape(-1)
    for i in range(flat.size):
        xp = flat.copy()
        xm = flat.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2.0 * h)
    return g.reshape(x.shape)


def fd_agreement(analytic, numeric, rel=1e-3, floor=1e-5):
    """Fraction of coordinates within relative error `rel` (absolute floor)."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    ok = np.abs(a - n) <= np.maximum(rel * np.abs(n), floor)
    return float(ok.mean())


# ---------------------------------------------------------------------------
# Kapur threshold, from the class-entropy definition
# ---------------------------------------------------------------------------


def kapur_bruteforce(p):
    """Exhaustive threshold scan; renormalizes each class and sums entropies.

    Zero-mass candidates are skipped; ties resolve to the smallest tau.
    """
    p = np.asarray(p, dtype=np.float64)
    best_tau, best = -1, -np.inf
    for tau in range(p.size - 1):
        if p[tau] <= 0.0:
            continue  # identical split to tau-1; smallest-tau rule keeps tau-1
        lo, hi = p[:tau + 1], p[tau + 1:]
        p0, p1 = lo.sum(), hi.sum()
        if p0 <= 0.0 or p1 <= 0.0:
            continue
        q0 = lo[lo > 0] / p0
        q1 = hi[hi > 0] / p1
        score = -(q0 * np.log(q0)).sum() - (q1 * np.log(q1)).sum()
        if score > best:
            best, best_tau = score, tau
    if best_tau < 0:
        raise ValueError("degenerate histogram")
    return best_tau, best


def kapur_slice_scan(p):
    """Per-tau scan scoring H = log P - S/P from slice sums of p and p*log p.

    The score formula kapur_threshold reports; its returned score must equal
    this scan's bit for bit, since it is written to the heatmap sidecars.
    """
    p = np.asarray(p, dtype=np.float64)
    plogp = p * np.log(np.where(p > 0.0, p, 1.0))
    best_tau, best = -1, -np.inf
    for tau in range(p.size - 1):
        if p[tau] <= 0.0:
            continue
        p0, p1 = p[:tau + 1].sum(), p[tau + 1:].sum()
        if p0 <= 0.0 or p1 <= 0.0:
            continue
        h0 = np.log(p0) - plogp[:tau + 1].sum() / p0
        h1 = np.log(p1) - plogp[tau + 1:].sum() / p1
        score = h0 + h1
        if score > best:
            best, best_tau = score, tau
    if best_tau < 0:
        raise ValueError("degenerate histogram")
    return best_tau, float(best)


def kapur_bruteforce_stacked(histograms):
    """Same scan vectorized across a stack of histograms (rows)."""
    h = np.asarray(histograms, dtype=np.float64)
    n, L = h.shape
    best = np.full(n, -np.inf)
    best_tau = np.full(n, -1, dtype=np.int64)
    for tau in range(L - 1):
        lo, hi = h[:, :tau + 1], h[:, tau + 1:]
        p0, p1 = lo.sum(axis=1), hi.sum(axis=1)
        valid = (h[:, tau] > 0.0) & (p0 > 0.0) & (p1 > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            q0 = lo / p0[:, None]
            q1 = hi / p1[:, None]
            e0 = -np.where(q0 > 0, q0 * np.log(np.where(q0 > 0, q0, 1.0)), 0.0).sum(axis=1)
            e1 = -np.where(q1 > 0, q1 * np.log(np.where(q1 > 0, q1, 1.0)), 0.0).sum(axis=1)
        score = np.where(valid, e0 + e1, -np.inf)
        better = score > best
        best = np.where(better, score, best)
        best_tau = np.where(better, tau, best_tau)
    return best_tau, best


# ---------------------------------------------------------------------------
# direct-formula image metrics
# ---------------------------------------------------------------------------


def psnr_direct(a, b):
    """PSNR from the definition, no shared helpers with the package."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return 100.0
    return min(10.0 * math.log10(1.0 / mse), 100.0)


def ssim_direct(a, b):
    """Windowed SSIM written from the formula with explicit loops."""
    def gray(img):
        img = np.asarray(img, dtype=np.float64)
        return img.mean(axis=2) if img.ndim == 3 else img

    x, y = gray(a), gray(b)
    win, sigma = 11, 1.5
    half = win // 2
    coords = np.arange(win) - half
    k1d = np.exp(-(coords ** 2) / (2.0 * sigma * sigma))
    kernel = np.outer(k1d, k1d)
    kernel = kernel / kernel.sum()
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    h, w = x.shape
    vals = []
    for i in range(h - win + 1):
        for j in range(w - win + 1):
            px = x[i:i + win, j:j + win]
            py = y[i:i + win, j:j + win]
            mx = (kernel * px).sum()
            my = (kernel * py).sum()
            vx = (kernel * px * px).sum() - mx * mx
            vy = (kernel * py * py).sum() - my * my
            vxy = (kernel * px * py).sum() - mx * my
            vals.append(((2 * mx * my + c1) * (2 * vxy + c2))
                        / ((mx * mx + my * my + c1) * (vx + vy + c2)))
    return float(np.mean(vals))
