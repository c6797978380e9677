import numpy as np
import pytest

from imukit.diffusion.dataset import (
    PALETTE, SPLIT_TEST, SPLIT_TRAIN, make_dataset, render_item, unseen_captions,
)
from imukit.diffusion.text import (
    COLOR_WORDS, MAX_TOKENS, PAD_ID, SHAPE_WORDS, VOCAB_SIZE, WORD_TO_ID, encode_caption,
)


def test_encode_caption_pads_and_bounds():
    ids = encode_caption("red circle on blue background")
    assert len(ids) == MAX_TOKENS
    assert all(0 <= i < VOCAB_SIZE for i in ids)
    assert ids[5:] == (PAD_ID,) * 3
    words = {i: w for w, i in WORD_TO_ID.items()}
    assert " ".join(words[i] for i in ids if i != PAD_ID) == "red circle on blue background"


def test_encode_caption_rejects_unknown_and_long():
    with pytest.raises(ValueError):
        encode_caption("sparkly circle on blue background")
    with pytest.raises(ValueError):
        encode_caption(["on"] * (MAX_TOKENS + 1))


def test_render_deterministic():
    a = render_item(3, SPLIT_TRAIN, 5)
    b = render_item(3, SPLIT_TRAIN, 5)
    assert np.array_equal(a.image, b.image)
    assert a.tokens == b.tokens
    assert np.array_equal(a.mask, b.mask)
    c = render_item(4, SPLIT_TRAIN, 5)
    assert not np.array_equal(a.image, c.image)


def test_render_images_on_8bit_grid():
    item = render_item(0, SPLIT_TEST, 0)
    assert item.image.dtype == np.float32
    assert item.image.min() >= 0.0 and item.image.max() <= 1.0
    assert np.array_equal(item.image, np.rint(item.image * 255) / np.float32(255.0))


def test_caption_matches_rendered_colors():
    for i in range(10):
        item = render_item(1, SPLIT_TRAIN, i)
        fg, shape, on, bg, background = item.caption.split()
        assert shape in SHAPE_WORDS and fg in COLOR_WORDS and bg in COLOR_WORDS
        assert on == "on" and background == "background"
        fg_rgb = np.asarray(PALETTE[fg], dtype=np.float32) / 255.0
        bg_rgb = np.asarray(PALETTE[bg], dtype=np.float32) / 255.0
        assert np.allclose(item.image[item.mask][0], fg_rgb, atol=1e-6)
        assert np.allclose(item.image[~item.mask][0], bg_rgb, atol=1e-6)


def test_mask_coverage_bounds():
    # renderer property: shape masks cover between 5% and 60% of pixels
    for seed in range(5):
        for i in range(12):
            item = render_item(seed, SPLIT_TRAIN, i)
            cover = item.mask.mean()
            assert 0.05 <= cover <= 0.60, f"coverage {cover} out of bounds"


def test_make_dataset_splits_differ():
    tr = make_dataset(0, SPLIT_TRAIN, 4)
    te = make_dataset(0, SPLIT_TEST, 4)
    assert len(tr) == 4 and len(te) == 4
    assert not np.array_equal(tr[0].image, te[0].image)


def test_unseen_captions_distinct_and_valid():
    item = render_item(0, SPLIT_TEST, 2)
    variants = unseen_captions(0, 2, item.meta, n_variants=5)
    assert len(variants) == 5
    assert len(set(variants)) == 5
    assert item.caption not in variants
    for v in variants:
        encode_caption(v)  # parses within the vocabulary
    again = unseen_captions(0, 2, item.meta, n_variants=5)
    assert variants == again
