"""From captured cross-attention to a dynamic binary mask.

Pipeline: average the content-token maps per block, nearest-upsample every
block to the largest block resolution, average across blocks (all
differentiable), min-max normalize to [0, 1], then histogram the normalized
map and threshold it where the summed foreground/background Shannon
entropies peak. The mask itself is always treated as a constant downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from imukit import autodiff as ad
from imukit.autodiff import Tensor
from imukit.ppm import write_heatmap_ppm


class DegenerateHistogramError(ValueError):
    """All probability mass sits in a single bin; no threshold separates two classes."""


@dataclass(frozen=True)
class KapurHistogram:
    """Probability masses over equal-width bins spanning [0, 1]."""

    bins: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.bins, dtype=np.float64)
        if p.ndim != 1 or p.size < 2:
            raise ValueError(f"histogram must be a 1-D array of >=2 bins, got {p.shape}")
        if (p < 0).any():
            raise ValueError("histogram has negative mass")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"histogram mass {p.sum()} != 1 within 1e-9")
        object.__setattr__(self, "bins", p)


@dataclass
class AggregatedAttention:
    """Block- and token-averaged attention at the common resolution.

    map is min-max normalized to [0, 1] (all zeros when degenerate);
    pre_norm keeps the un-normalized block average for fixed-threshold
    baselines and debugging. One image's maps are (H, W) with a bool flag;
    a batch's are (B, H, W) with a (B,) bool array of flags.
    """

    map: Tensor
    pre_norm: Tensor
    degenerate: bool = False

    def images(self):
        """One constant AggregatedAttention per image of a (B, H, W) batch.

        The mask builders read numpy data only, so each image's maps are
        views that no tape records.
        """
        return [AggregatedAttention(map=Tensor._wrap(self.map.data[i], False),
                                    pre_norm=Tensor._wrap(self.pre_norm.data[i], False),
                                    degenerate=bool(flag))
                for i, flag in enumerate(self.degenerate)]


@dataclass
class BinaryMask:
    mask: np.ndarray           # uint8 (H, W) in {0, 1}
    threshold_used: float
    timestep: int = -1
    entropy_score: float = float("nan")
    degenerate: bool = False

    @property
    def ones(self):
        return int(self.mask.sum())


def aggregate(record, prompt):
    """Aggregate captured maps into one normalized attention map per image.

    Per block: mean over the prompt's content tokens, nearest-upsample to the
    largest block resolution; then mean over blocks and min-max normalize.
    A record of (B, H_i, W_i, S) maps takes a sequence of B prompts, one per
    image, and gives (B, H, W) maps; a one-image record of (H_i, W_i, S) maps
    takes one prompt and gives (H, W) maps. Each image's content-token mean
    is its own product in a stacked matmul with a (B, S, 1) selector, and
    every later step acts per pixel or per image, so an image's maps have
    the bits they have alone. The block average (pre_norm) is
    differentiable; the normalized map is a constant, since only the mask
    reads it. A constant block average yields an all-zero map with the
    degenerate flag set instead of dividing by zero.
    """
    if not record.per_block:
        raise ValueError("aggregate: attention record is empty")
    blocks, prompts = record.per_block, prompt
    one = blocks[0].ndim == 3
    if one:
        blocks = [ad.reshape(maps, (1,) + maps.shape) for maps in blocks]
        prompts = [prompt]
    bsz, s = blocks[0].shape[0], blocks[0].shape[-1]
    if len(prompts) != bsz:
        raise ValueError(f"aggregate: {len(prompts)} prompts for {bsz} images")
    sel = np.zeros((bsz, s, 1), dtype=np.float32)
    for i, p in enumerate(prompts):
        token_idx = np.flatnonzero(p.content_mask)
        if token_idx.size == 0:
            raise ValueError("aggregate: prompt has no content tokens")
        sel[i, token_idx, 0] = 1.0 / token_idx.size
    sel_t = Tensor(sel)

    target = max(maps.shape[1] for maps in blocks)
    acc = None
    for maps in blocks:
        _, h, w, _ = maps.shape
        flat = ad.reshape(maps, (bsz, h * w, s))
        m = ad.reshape(ad.matmul(flat, sel_t), (bsz, h, w, 1))
        while m.shape[1] < target:
            m = ad.upsample2x(m)
        if m.shape[1] != target:
            raise ValueError(
                f"aggregate: block resolution {h} does not upsample to {target}")
        acc = m if acc is None else ad.add(acc, m)
    pre = ad.reshape(ad.scale(acc, 1.0 / len(blocks)), (bsz, target, target))

    lo = pre.data.min(axis=(1, 2), keepdims=True)
    hi = pre.data.max(axis=(1, 2), keepdims=True)
    flat_map = hi <= lo
    norm = (pre.data - lo) / np.where(flat_map, np.float32(1.0), hi - lo)
    norm[np.broadcast_to(flat_map, norm.shape)] = 0.0
    degenerate = flat_map.reshape(bsz)
    if one:
        return AggregatedAttention(map=Tensor(norm[0]),
                                   pre_norm=ad.reshape(pre, (target, target)),
                                   degenerate=bool(degenerate[0]))
    return AggregatedAttention(map=Tensor(norm), pre_norm=pre, degenerate=degenerate)


# Far above the gap between cumulative and slice sums (~L * 1e-16 per term)
# and far below any real score difference that could change the threshold.
_KAPUR_RESCORE_TOL = 1e-9


def kapur_threshold(hist):
    """Entropy-maximizing split of a histogram into two classes.

    Scans every candidate tau splitting bins into [0, tau] and [tau+1, L-1];
    candidates where either class has zero mass are skipped and zero-mass
    bins contribute zero entropy. A tau with p[tau] == 0 splits identically
    to tau-1, so only taus ending on a non-empty bin are scanned; a plateau
    of empty bins therefore resolves to its smallest tau. The winner is the
    first maximum of the float64 slice-sum score below. Distinct splits that
    tie in exact arithmetic (a mirror-symmetric histogram, say) are decided
    by how their scores round, not by position: nine bins of 1/9 at 0-3 and
    5-9 of L=12 tie at tau=3 and tau=5, and tau=5 is returned.

    The scan is Kapur, Sahoo & Wong's cumulative form, in one O(L) pass:
    with P and S the prefix (suffix) sums of p and p*log(p), a class scores
    H = log(P) - S/P. Prefix sums come from cumsum and suffix sums from a
    reversed cumsum, so an empty tail stays exactly zero and the validity
    mask (p[tau] > 0, P0 > 0, P1 > 0) matches the per-tau slices. Cumulative
    sums round differently from slice sums, so the few candidates within
    _KAPUR_RESCORE_TOL of the maximum are scored again from slice sums and
    the first maximum among them wins. That keeps tau and the returned score
    (written to the heatmap JSON sidecars) bit-for-bit equal to a per-tau
    slice-sum scan. Returns (tau_star, best_entropy_sum).
    """
    p = hist.bins
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
        cp0 = np.cumsum(p)[:-1]
        cp1 = np.cumsum(p[::-1])[::-1][1:]
        cs0 = np.cumsum(plogp)[:-1]
        cs1 = np.cumsum(plogp[::-1])[::-1][1:]
        valid = (p[:-1] > 0.0) & (cp0 > 0.0) & (cp1 > 0.0)
        scores = np.where(valid,
                          np.log(cp0) - cs0 / cp0 + np.log(cp1) - cs1 / cp1,
                          -np.inf)
    if not valid.any():
        raise DegenerateHistogramError(
            "all histogram mass in one bin; no valid threshold")
    best_tau = -1
    best = -np.inf
    for tau in np.flatnonzero(scores >= scores.max() - _KAPUR_RESCORE_TOL):
        p0 = p[:tau + 1].sum()
        p1 = p[tau + 1:].sum()
        h0 = np.log(p0) - plogp[:tau + 1].sum() / p0
        h1 = np.log(p1) - plogp[tau + 1:].sum() / p1
        score = h0 + h1
        if score > best:
            best = score
            best_tau = int(tau)
    return best_tau, float(best)


def histogram_of(values, bins):
    """L equal-width bins over [0, 1]; the value 1.0 lands in the top bin."""
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    idx = np.minimum((v * bins).astype(np.int64), bins - 1)
    counts = np.bincount(idx, minlength=bins).astype(np.float64)
    return KapurHistogram(bins=counts / counts.sum())


def make_mask(agg, bins, timestep=-1):
    """Binarize a normalized attention map with the entropy-peak threshold.

    The threshold maps to the upper edge of the winning bin and the
    comparison is strict, so the map's maximum is always in the mask and its
    minimum never is. Degenerate input produces an all-zero flagged mask.
    """
    values = agg.map.data
    if agg.degenerate:
        return BinaryMask(mask=np.zeros(values.shape, dtype=np.uint8),
                          threshold_used=1.0, timestep=timestep, degenerate=True)
    hist = histogram_of(values, bins)
    try:
        tau, score = kapur_threshold(hist)
    except DegenerateHistogramError:
        return BinaryMask(mask=np.zeros(values.shape, dtype=np.uint8),
                          threshold_used=1.0, timestep=timestep, degenerate=True)
    thr = (tau + 1) / bins
    return BinaryMask(mask=(values > thr).astype(np.uint8),
                      threshold_used=float(thr), timestep=timestep,
                      entropy_score=score, degenerate=False)


def fixed_threshold_mask(agg, threshold, timestep=-1):
    """Fixed cutoff on the un-normalized block-averaged map (baseline mode)."""
    values = agg.pre_norm.data
    return BinaryMask(mask=(values > threshold).astype(np.uint8),
                      threshold_used=float(threshold), timestep=timestep,
                      degenerate=False)


def dump_debug(agg, mask, prefix):
    """Heat PPMs for the aggregated map and mask plus a JSON sidecar."""
    values = agg.map.data
    write_heatmap_ppm(f"{prefix}_attention.ppm", values)
    write_heatmap_ppm(f"{prefix}_mask.ppm", mask.mask.astype(np.float64))
    sidecar = {
        "threshold": mask.threshold_used,
        "entropy_score": None if np.isnan(mask.entropy_score) else mask.entropy_score,
        "degenerate": bool(mask.degenerate or agg.degenerate),
        "timestep": mask.timestep,
        "ones": mask.ones,
    }
    with open(f"{prefix}.json", "w", encoding="utf-8") as f:
        json.dump(sidecar, f, sort_keys=True, indent=2)
        f.write("\n")
