"""Tiny caption vocabulary and tokenization for the procedural scenes."""

from __future__ import annotations

VOCAB_SIZE = 64
MAX_TOKENS = 8
PAD_ID = 0

COLOR_WORDS = [
    "red", "green", "blue", "yellow", "purple", "orange", "cyan", "magenta",
    "white", "black", "gray", "brown", "pink", "olive", "teal", "navy",
]
SHAPE_WORDS = ["circle", "square", "triangle"]
STRUCT_WORDS = ["on", "background"]

_WORDS = ["<pad>"] + COLOR_WORDS + SHAPE_WORDS + STRUCT_WORDS
assert len(_WORDS) <= VOCAB_SIZE

WORD_TO_ID = {w: i for i, w in enumerate(_WORDS)}


def encode_caption(words):
    """Map caption words to a MAX_TOKENS-long id sequence, padded with PAD_ID."""
    if isinstance(words, str):
        words = words.split()
    if len(words) > MAX_TOKENS:
        raise ValueError(f"caption has {len(words)} words, max is {MAX_TOKENS}")
    ids = []
    for w in words:
        if w not in WORD_TO_ID:
            raise ValueError(f"unknown caption word: {w!r}")
        ids.append(WORD_TO_ID[w])
    ids.extend([PAD_ID] * (MAX_TOKENS - len(ids)))
    return tuple(ids)


def caption_words(fg_color, shape, bg_color):
    return [fg_color, shape, "on", bg_color, "background"]
