"""Text-conditioned noise predictor with two cross-attention blocks.

Encoder runs at full, half, and quarter resolution (avgpool between levels)
with per-pixel dense channel mixing; cross-attention against the caption
embedding sits at the half and quarter levels; each decoder level is one
dense layer over the upsampled level below and the encoder's skip. It is
all built from autodiff primitives so the attack loop gets exact gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from imukit import autodiff as ad
from imukit.autodiff import Tensor
from imukit.diffusion.text import MAX_TOKENS, PAD_ID, VOCAB_SIZE


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 32
    in_channels: int = 3
    widths: tuple = (16, 24, 32)
    d_k: int = 16
    d_text: int = 16
    d_time: int = 32
    vocab: int = VOCAB_SIZE
    max_tokens: int = MAX_TOKENS

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(self.widths))
        if self.image_size < 4 or self.image_size % 4 != 0:
            raise ValueError(f"image_size must be a positive multiple of 4, got {self.image_size}")
        if len(self.widths) != 3 or min(self.widths) < 1:
            raise ValueError(f"widths must be three channel counts >= 1, got {list(self.widths)}")
        if self.d_k < 1 or self.d_text < 1:
            raise ValueError(f"d_k and d_text must be >= 1, got {self.d_k} and {self.d_text}")
        if self.d_time < 2 or self.d_time % 2:
            raise ValueError(f"d_time must be even and >= 2, got {self.d_time}")


@dataclass
class PromptEmbedding:
    """A caption's rows from the learned embedding table."""

    matrix: Tensor           # (max_tokens, d_text)
    content_mask: np.ndarray  # bool (max_tokens,), False on padding


@dataclass
class AttentionRecord:
    """Post-softmax cross-attention maps captured during one forward pass.

    per_block[i] is a (B, H_i, W_i, S) tensor over the pass's B images: for
    each query pixel, the softmax weight assigned to every caption token (padding
    included, so each pixel's token-sum is exactly 1).
    """

    per_block: list = field(default_factory=list)


N_POS_CHANNELS = 6


def positional_channels(size):
    """Fixed per-pixel position features: coords plus one sin/cos pair each.

    Shared per-pixel dense layers cannot otherwise express location-dependent
    behavior, which both denoising and attention localization need.
    """
    coords = (np.arange(size, dtype=np.float32) + 0.5) / size * 2.0 - 1.0
    y = np.repeat(coords[:, None], size, axis=1)
    x = np.repeat(coords[None, :], size, axis=0)
    feats = [x, y, np.sin(np.pi * x), np.cos(np.pi * x),
             np.sin(np.pi * y), np.cos(np.pi * y)]
    return np.stack(feats, axis=-1).astype(np.float32)


def _param_specs(cfg):
    c0, c1, c2 = cfg.widths
    ci = cfg.in_channels + N_POS_CHANNELS
    dk, dt, dtm = cfg.d_k, cfg.d_text, cfg.d_time
    return [
        ("embed", (cfg.vocab, dt), 1.0),
        ("enc0_w", (ci, c0), None), ("enc0_b", (c0,), 0.0),
        ("enc0_t", (dtm, c0), None), ("enc0_tb", (c0,), 0.0),
        ("enc0b_w", (c0, c0), None), ("enc0b_b", (c0,), 0.0),
        ("enc1_w", (c0, c1), None), ("enc1_b", (c1,), 0.0),
        ("enc1_t", (dtm, c1), None), ("enc1_tb", (c1,), 0.0),
        ("attn1_q", (c1, dk), None), ("attn1_k", (dt, dk), None),
        ("attn1_v", (dt, c1), None),
        ("enc2_w", (c1, c2), None), ("enc2_b", (c2,), 0.0),
        ("enc2_t", (dtm, c2), None), ("enc2_tb", (c2,), 0.0),
        ("attn2_q", (c2, dk), None), ("attn2_k", (dt, dk), None),
        ("attn2_v", (dt, c2), None),
        ("dec1_w", (c2 + c1, c1), None), ("dec1_b", (c1,), 0.0),
        ("dec1_t", (dtm, c1), None), ("dec1_tb", (c1,), 0.0),
        ("dec0_w", (c1 + c0, c0), None), ("dec0_b", (c0,), 0.0),
        ("dec0_t", (dtm, c0), None), ("dec0_tb", (c0,), 0.0),
        ("head_w", (c0, cfg.in_channels), None), ("head_b", (cfg.in_channels,), 0.0),
    ]


class DenoiserModel:
    """Noise predictor parameters plus the attached noise schedule."""

    def __init__(self, config, params, schedule=None, trainable=False):
        self.config = config
        self.params = params
        self.schedule = schedule
        self.set_trainable(trainable)
        self._pos_cache = {}

    @classmethod
    def init(cls, config, seed, schedule=None):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
        params = {}
        for name, shape, init in _param_specs(config):
            if init == 0.0:
                arr = np.zeros(shape, dtype=np.float32)
            else:
                std = 1.0 if init == 1.0 else 1.0 / np.sqrt(shape[0])
                arr = (rng.standard_normal(shape) * std).astype(np.float32)
            params[name] = Tensor(arr, requires_grad=True)
        return cls(config, params, schedule=schedule, trainable=True)

    def set_trainable(self, trainable):
        for p in self.params.values():
            p.requires_grad = bool(trainable)
        self.trainable = bool(trainable)
        self._temb_proj_cache = {}

    def param_names(self):
        return [name for name, _, _ in _param_specs(self.config)]

    def n_params(self):
        return sum(p.size for p in self.params.values())

    # -- text ---------------------------------------------------------------

    def _embed_ids(self, ids_2d):
        """(B, S) int ids -> (B, S, d_text) via one-hot matmul into the table."""
        b, s = ids_2d.shape
        onehot = np.zeros((b * s, self.config.vocab), dtype=np.float32)
        onehot[np.arange(b * s), ids_2d.reshape(-1)] = 1.0
        flat = ad.matmul(Tensor(onehot), self.params["embed"])
        return ad.reshape(flat, (b, s, self.config.d_text))

    def encode_prompt(self, token_ids):
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size != self.config.max_tokens:
            raise ValueError(
                f"encode_prompt: expected {self.config.max_tokens} ids, got {ids.shape}")
        if (ids < 0).any() or (ids >= self.config.vocab).any():
            raise ValueError("encode_prompt: token id outside vocabulary")
        mat = ad.reshape(self._embed_ids(ids[None, :]),
                         (self.config.max_tokens, self.config.d_text))
        return PromptEmbedding(matrix=mat, content_mask=ids != PAD_ID)

    # -- time ---------------------------------------------------------------

    def _time_vec(self, t):
        half = self.config.d_time // 2
        freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
        ang = t * freqs
        return np.concatenate([np.sin(ang), np.cos(ang)]).astype(np.float32)

    def _temb(self, t, prefix):
        if np.ndim(t):
            # per-row timesteps: each row's cached frozen projection, shaped
            # to broadcast over the row's pixels
            if self.trainable:
                raise ValueError("per-row timesteps need frozen weights")
            key = (tuple(int(s) for s in t), prefix)
            rows = self._temb_proj_cache.get(key)
            if rows is None:
                rows = Tensor._wrap(np.stack([self._temb(s, prefix).data
                                              for s in key[0]])[:, None, None, :], False)
                self._temb_proj_cache[key] = rows
            return rows
        if not self.trainable:
            cached = self._temb_proj_cache.get((t, prefix))
            if cached is not None:
                return cached
        w = self.params[prefix + "_t"]
        proj = ad.dense(Tensor(self._time_vec(t)[None, :]), w,
                        self.params[prefix + "_tb"])
        out = ad.reshape(proj, w.shape[1:])
        if not self.trainable:
            self._temb_proj_cache[(t, prefix)] = out
        return out

    # -- blocks ---------------------------------------------------------------

    def _cross_attention(self, x4, pm, prefix, record):
        attn = ad.attention_probs(x4, pm, self.params[prefix + "_q"],
                                  self.params[prefix + "_k"],
                                  1.0 / np.sqrt(self.config.d_k))   # (B, HW, S)
        if record is not None:
            record.per_block.append(ad.reshape(attn, x4.shape[:3] + attn.shape[-1:]))
        return ad.attend(x4, attn, pm, self.params[prefix + "_v"])

    def _level(self, x4, t, prefix, skip=None):
        # given a skip, a decoder level on upsample2x(x4) and the skip
        args = (self.params[prefix + "_w"], self.params[prefix + "_b"],
                self._temb(t, prefix))
        if skip is None:
            return ad.dense_silu(x4, *args)
        return ad.upsample_dense_silu(x4, skip, *args)

    # -- forward --------------------------------------------------------------

    def encode(self, xb, t, pm, record=None):
        """Encoder levels and both cross-attention blocks: (h0, h1, h2).

        xb is a (B, H, W, C) batch and pm the (B, S, d_text) prompt
        embedding batch. t is one timestep shared by every row or, with
        frozen weights, a sequence of B timesteps, one per row; a row's
        result has the same bits either way. With a record the post-softmax
        maps of both cross-attention blocks are appended.
        """
        size = self.config.image_size
        if xb.ndim != 4 or xb.shape[1:] != (size, size, self.config.in_channels):
            raise ValueError(
                f"encode: expected (B, {size}, {size}, "
                f"{self.config.in_channels}), got {tuple(xb.shape)}")
        ts = np.asarray(t)
        if self.schedule is not None and ((ts < 0) | (ts >= self.schedule.T)).any():
            raise ValueError(f"encode: timestep {t} outside [0, {self.schedule.T})")

        pos = self._pos_cache.get(xb.shape[0])
        if pos is None:
            # a read-only broadcast view: concat copies it, nothing writes it
            single = positional_channels(size)
            pos = Tensor._wrap(np.broadcast_to(
                single, (xb.shape[0],) + single.shape), False)
            self._pos_cache[xb.shape[0]] = pos

        h0 = self._level(ad.concat([xb, pos], axis=-1), t, "enc0")
        h0 = ad.dense_silu(h0, self.params["enc0b_w"], self.params["enc0b_b"])
        h1 = self._level(ad.avgpool2x(h0), t, "enc1")
        h1 = self._cross_attention(h1, pm, "attn1", record)
        h2 = self._level(ad.avgpool2x(h1), t, "enc2")
        h2 = self._cross_attention(h2, pm, "attn2", record)
        return h0, h1, h2

    def forward_batch(self, xb, t, pm, capture_attention=False):
        """Predict noise for a (B, H, W, C) batch.

        t and pm are as in encode: one timestep or, with frozen weights, one
        per row, and the (B, S, d_text) prompt embedding batch. With
        capture_attention the post-softmax maps of both cross-attention
        blocks are recorded, as (B, H_i, W_i, S) tensors.
        """
        record = AttentionRecord() if capture_attention else None
        h0, h1, h2 = self.encode(xb, t, pm, record)
        # drop each level's inputs once it has run, so the peak of an untaped
        # forward holds no dead buffer (a tape keeps what it needs)
        d1 = self._level(h2, t, "dec1", skip=h1)
        del h1, h2
        d0 = self._level(d1, t, "dec0", skip=h0)
        del d1, h0
        return ad.dense(d0, self.params["head_w"], self.params["head_b"]), record
