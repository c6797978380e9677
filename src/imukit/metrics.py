"""Full-reference image quality metrics.

All metrics take float arrays in [0, 1]. Between two EDIT outputs, lower
PSNR/SSIM/VIFp means a stronger defense while a higher perceptual distance
means a stronger defense; between a source image and its immunized version
the readings quantify imperceptibility instead. PSNR, SSIM and the
perceptual distance are symmetric; VIFp is reference-first by construction.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import gaussian_filter

from imukit.diffusion.model import bottleneck_features
from imukit.diffusion.text import MAX_TOKENS, PAD_ID

PSNR_CAP_DB = 100.0

# direction of a STRONGER DEFENSE when comparing the two edit outputs
DEFENSE_DIRECTIONS = {
    "psnr": "lower",
    "ssim": "lower",
    "vifp": "lower",
    "percep_dist": "higher",
}


def _check_pair(op, a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")
    return a, b


def _gray(img):
    """Unweighted channel mean (documented; not luma weights)."""
    img = np.asarray(img, dtype=np.float64)
    return img.mean(axis=2) if img.ndim == 3 else img


def psnr(a, b):
    """10*log10(1/MSE) on [0,1] data, capped at 100 dB."""
    a, b = _check_pair("psnr", a, b)
    mse = np.mean((a - b) ** 2)
    if mse == 0.0:
        return PSNR_CAP_DB
    return float(min(10.0 * np.log10(1.0 / mse), PSNR_CAP_DB))


def ssim(a, b):
    """Mean local structural similarity.

    Grayscale by channel mean, 11x11 Gaussian window with sigma 1.5,
    K1=0.01, K2=0.03, data range 1.0, valid-mode windows.
    """
    a, b = _check_pair("ssim", a, b)
    x, y = _gray(a), _gray(b)
    win, sigma = 11, 1.5
    if min(x.shape) < win:
        raise ValueError(f"ssim: image {x.shape} smaller than {win}x{win} window")
    g = np.exp(-0.5 * ((np.arange(win) - win // 2) / sigma) ** 2)
    kernel = np.outer(g, g)
    kernel /= kernel.sum()

    def filt(img):
        view = np.lib.stride_tricks.sliding_window_view(img, (win, win))
        return np.einsum("ijkl,kl->ij", view, kernel)

    c1 = (0.01 * 1.0) ** 2
    c2 = (0.03 * 1.0) ** 2
    mu_x = filt(x)
    mu_y = filt(y)
    sxx = filt(x * x) - mu_x * mu_x
    syy = filt(y * y) - mu_y * mu_y
    sxy = filt(x * y) - mu_x * mu_y
    num = (2 * mu_x * mu_y + c1) * (2 * sxy + c2)
    den = (mu_x ** 2 + mu_y ** 2 + c1) * (sxx + syy + c2)
    return float(np.mean(num / den))


def vifp(ref, dist):
    """Pixel-domain visual information fidelity over 4 dyadic scales.

    Grayscale inputs are rescaled to 0-255 and smoothed per scale with the
    classic kernel sizes; scalar noise variance is 2. A constant reference
    carries no information, so that degenerate case is defined as 1.0.
    """
    ref, dist = _check_pair("vifp", ref, dist)
    r = _gray(ref) * 255.0
    d = _gray(dist) * 255.0
    sigma_nsq = 2.0
    eps = 1e-10
    num = 0.0
    den = 0.0
    for scl in range(1, 5):
        n = 2 ** (4 - scl + 1) + 1
        sd = n / 5.0
        if scl > 1:
            r = gaussian_filter(r, sd)[::2, ::2]
            d = gaussian_filter(d, sd)[::2, ::2]
        mu1 = gaussian_filter(r, sd)
        mu2 = gaussian_filter(d, sd)
        mu1_sq, mu2_sq, mu1_mu2 = mu1 * mu1, mu2 * mu2, mu1 * mu2
        s1_sq = gaussian_filter(r * r, sd) - mu1_sq
        s2_sq = gaussian_filter(d * d, sd) - mu2_sq
        s12 = gaussian_filter(r * d, sd) - mu1_mu2
        s1_sq[s1_sq < 0] = 0
        s2_sq[s2_sq < 0] = 0
        g = s12 / (s1_sq + eps)
        sv_sq = s2_sq - g * s12
        g[s1_sq < eps] = 0
        sv_sq[s1_sq < eps] = s2_sq[s1_sq < eps]
        s1_sq[s1_sq < eps] = 0
        g[s2_sq < eps] = 0
        sv_sq[s2_sq < eps] = 0
        sv_sq[g < 0] = s2_sq[g < 0]
        g[g < 0] = 0
        sv_sq[sv_sq <= eps] = eps
        num += np.sum(np.log10(1.0 + g * g * s1_sq / (sv_sq + sigma_nsq)))
        den += np.sum(np.log10(1.0 + s1_sq / sigma_nsq))
    if den <= 0.0 or not np.isfinite(num / den):
        return 1.0
    return float(num / den)


def percep_features(img, model):
    """percep_dist's feature pass: unit-normalized bottleneck activations.

    Runs the noise predictor at timestep 1 under an empty caption and
    unit-normalizes each spatial position's channel vector (float64).
    """
    neutral = model.encode_prompt([PAD_ID] * MAX_TOKENS)
    f = bottleneck_features(model, np.asarray(img, dtype=np.float32), 1, neutral)
    f = f.astype(np.float64)
    norm = np.sqrt((f * f).sum(axis=-1, keepdims=True))
    return f / (norm + 1e-12)


def percep_dist(a, b, model, features=None):
    """Feature-space distance from the model's deepest activations.

    Averages the squared differences of the two images' percep_features.
    Zero for identical inputs, symmetric, and growing with perceptual change.
    features, if given, is a dict from image bytes to feature arrays that
    the caller keeps across calls: an image already in it skips the model
    forward, and a new one is added. Equal bytes give equal features.
    """
    if model is None:
        raise ValueError("percep_dist: requires a trained model")
    a, b = _check_pair("percep_dist", a, b)
    features = {} if features is None else features

    def feats(img):
        key = (img.shape, img.tobytes())
        if key not in features:
            features[key] = percep_features(img, model)
        return features[key]

    fa, fb = feats(a), feats(b)
    return float(np.mean(np.sum((fa - fb) ** 2, axis=-1)))


def full_report(a, b, model, features=None):
    """{metric name: value}; features is percep_dist's optional feature dict."""
    return {"psnr": psnr(a, b), "ssim": ssim(a, b), "vifp": vifp(a, b),
            "percep_dist": percep_dist(a, b, model, features)}
