"""Procedural scene renderer: one colored shape on a contrasting background.

Every item is fully determined by (seed, split, index), images land exactly
on the k/255 grid so the PPM round-trip is lossless, and the renderer hands
out the ground-truth shape mask for free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from imukit.diffusion.text import COLOR_WORDS, SHAPE_WORDS, caption_words, encode_caption

PALETTE = {
    "red": (220, 40, 40),
    "green": (40, 200, 60),
    "blue": (40, 80, 220),
    "yellow": (230, 220, 50),
    "purple": (150, 60, 200),
    "orange": (240, 140, 40),
    "cyan": (60, 210, 210),
    "magenta": (220, 60, 200),
    "white": (240, 240, 240),
    "black": (25, 25, 25),
    "gray": (128, 128, 128),
    "brown": (140, 90, 50),
    "pink": (245, 160, 190),
    "olive": (130, 140, 50),
    "teal": (40, 130, 130),
    "navy": (25, 35, 110),
}

_MIN_CONTRAST = 180  # L1 distance in 8-bit units between fg and bg colors

SPLIT_TRAIN = 0
SPLIT_TEST = 1

# what each unseen caption variant changes, in order; n_variants takes a prefix
UNSEEN_PLANS = ("fg", "shape", "bg", "fg+bg", "fg+shape")


@dataclass
class ToyItem:
    image: np.ndarray          # float32 (H, W, 3) in [0, 1], on the /255 grid
    tokens: tuple              # padded token ids
    caption: str
    mask: np.ndarray           # bool (H, W), True on the shape
    meta: dict


def _contrast(a, b):
    return sum(abs(int(x) - int(y)) for x, y in zip(a, b))


def _pick_colors(rng):
    while True:
        fg = COLOR_WORDS[int(rng.integers(0, len(COLOR_WORDS)))]
        bg = COLOR_WORDS[int(rng.integers(0, len(COLOR_WORDS)))]
        if fg != bg and _contrast(PALETTE[fg], PALETTE[bg]) >= _MIN_CONTRAST:
            return fg, bg


def _shape_mask(shape, size, cx, cy, r):
    yy, xx = np.mgrid[0:size, 0:size]
    if shape == "circle":
        return (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
    if shape == "square":
        s = max(1, int(round(r * 0.9)))
        return (np.abs(xx - cx) <= s) & (np.abs(yy - cy) <= s)
    # triangle with apex up: vertices (cx, cy-r), (cx-r, cy+r), (cx+r, cy+r)
    rel = (yy - (cy - r)) / (2.0 * r)  # 0 at apex, 1 at base
    inside_y = (rel >= 0.0) & (rel <= 1.0)
    return inside_y & (np.abs(xx - cx) <= rel * r)


def render_item(seed, split, index, size=32):
    """Render one deterministic scene and its caption."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, split, index]))
    fg, bg = _pick_colors(rng)
    shape = SHAPE_WORDS[int(rng.integers(0, len(SHAPE_WORDS)))]
    scale = size / 32.0
    r = int(rng.integers(round(6 * scale), round(11 * scale) + 1))
    r = max(2, r)
    lo, hi = r + 2, size - r - 3
    if hi < lo:
        lo = hi = size // 2
    cx = int(rng.integers(lo, hi + 1))
    cy = int(rng.integers(lo, hi + 1))
    mask = _shape_mask(shape, size, cx, cy, r)

    img = np.empty((size, size, 3), dtype=np.uint8)
    img[:] = np.asarray(PALETTE[bg], dtype=np.uint8)
    img[mask] = np.asarray(PALETTE[fg], dtype=np.uint8)

    words = caption_words(fg, shape, bg)
    return ToyItem(
        image=img.astype(np.float32) / np.float32(255.0),
        tokens=encode_caption(words),
        caption=" ".join(words),
        mask=mask,
        meta={"fg": fg, "bg": bg, "shape": shape, "cx": cx, "cy": cy, "r": r},
    )


def make_dataset(seed, split, n, size=32):
    return [render_item(seed, split, i, size=size) for i in range(n)]


def unseen_captions(seed, index, item_meta, n_variants=len(UNSEEN_PLANS)):
    """Deterministic edit captions that differ semantically from the original.

    Variants change the shape color, the shape kind, the background color, or
    combinations, always producing a valid 5-word caption distinct from the
    original and from each other.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 6, index]))
    fg, bg, shape = item_meta["fg"], item_meta["bg"], item_meta["shape"]

    def other_color(exclude):
        choices = [c for c in COLOR_WORDS if c not in exclude]
        return choices[int(rng.integers(0, len(choices)))]

    def other_shape():
        choices = [s for s in SHAPE_WORDS if s != shape]
        return choices[int(rng.integers(0, len(choices)))]

    variants = []
    seen = {(fg, shape, bg)}

    for plan in UNSEEN_PLANS[:n_variants]:
        for _ in range(32):
            nfg, nshape, nbg = fg, shape, bg
            if "fg" in plan:
                nfg = other_color({fg, bg})
            if "bg" in plan:
                nbg = other_color({bg, nfg})
            if "shape" in plan:
                nshape = other_shape()
            key = (nfg, nshape, nbg)
            if key not in seen:
                seen.add(key)
                variants.append(caption_words(nfg, nshape, nbg))
                break
        else:
            raise RuntimeError("could not build a distinct caption variant")
    return [" ".join(v) for v in variants]
