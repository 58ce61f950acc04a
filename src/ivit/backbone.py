"""Transformer encoder backbone.

Patch embedding, a learnable CLS token, learnable positional embeddings for
CLS + patches only, and a stack of pre-norm blocks (LN -> attention ->
residual, LN -> MLP -> residual) with a final layer norm. Every layer is
built from the model's ``ModelConfig``; dim 768 / depth 12 / heads 12 is
the ViT-B point.

The backbone holds the CLS token and the positional table but does not
apply them: `InstructionModel.assemble` concatenates [CLS | patches] and
adds the table to those rows only. Prompt tokens appended after the patches
never receive positional embeddings, which is what makes the encoder
permutation-equivariant over the prompt segment. The encoder itself sees a
plain [B, T, dim] token tensor and never needs the segment layout.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .errors import ShapeError
from .tensor import Tensor

INIT_STD = 0.02


class Linear:
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, dtype):
        self.weight = Tensor(rng.normal(0.0, INIT_STD, size=(d_in, d_out)), requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        yield "weight", self.weight
        yield "bias", self.bias


class LayerNorm:
    def __init__(self, dim: int, dtype):
        self.gain = Tensor(np.ones(dim), requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(dim), requires_grad=True, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        yield "gain", self.gain
        yield "bias", self.bias


class MultiHeadAttention:
    """Full bidirectional self-attention over every token (no masking)."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype):
        dim = cfg.dim
        self.heads = cfg.heads
        self.head_dim = dim // cfg.heads
        self.dropout = cfg.attn_dropout
        self.wq = Linear(dim, dim, rng, dtype)
        self.wk = Linear(dim, dim, rng, dtype)
        self.wv = Linear(dim, dim, rng, dtype)
        self.wo = Linear(dim, dim, rng, dtype)
        # filled with the [B, H, T, T] attention rows of the last forward
        # when capture is on; tests use it, eval workers leave it off
        self.capture_attn = False
        self.last_attn: np.ndarray | None = None

    def _split_heads(self, x: Tensor, b: int, t: int) -> Tensor:
        x = T.reshape(x, (b, t, self.heads, self.head_dim))
        return T.transpose(x, (0, 2, 1, 3))  # [B, H, T, hd]

    def __call__(self, x: Tensor, dropout_rng: np.random.Generator | None = None) -> Tensor:
        b, t, d = x.shape
        q = self._split_heads(self.wq(x), b, t)
        k = self._split_heads(self.wk(x), b, t)
        v = self._split_heads(self.wv(x), b, t)
        scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(self.head_dim))
        attn = T.softmax(scores)
        if self.capture_attn:
            self.last_attn = attn.data
        if self.dropout > 0.0 and dropout_rng is not None:
            keep = (dropout_rng.random(attn.shape) >= self.dropout) / (1.0 - self.dropout)
            attn = T.mul_const(attn, keep)
        out = T.matmul(attn, v)  # [B, H, T, hd]
        out = T.reshape(T.transpose(out, (0, 2, 1, 3)), (b, t, d))
        return self.wo(out)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for prefix, layer in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("wo", self.wo)):
            for name, p in layer.named_parameters():
                yield f"{prefix}.{name}", p


class Block:
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype):
        hidden = int(cfg.dim * cfg.mlp_ratio)
        self.ln1 = LayerNorm(cfg.dim, dtype)
        self.attn = MultiHeadAttention(cfg, rng, dtype)
        self.ln2 = LayerNorm(cfg.dim, dtype)
        self.fc1 = Linear(cfg.dim, hidden, rng, dtype)
        self.fc2 = Linear(hidden, cfg.dim, rng, dtype)

    def __call__(self, x: Tensor, dropout_rng: np.random.Generator | None = None) -> Tensor:
        x = T.add(x, self.attn(self.ln1(x), dropout_rng=dropout_rng))
        x = T.add(x, self.fc2(T.gelu(self.fc1(self.ln2(x)))))
        return x

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for prefix, part in (("ln1", self.ln1), ("attn", self.attn), ("ln2", self.ln2),
                             ("fc1", self.fc1), ("fc2", self.fc2)):
            for name, p in part.named_parameters():
                yield f"{prefix}.{name}", p


class Backbone:
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        self.patch_proj = Linear(cfg.patch_dim, cfg.dim, rng, dtype)
        self.cls_token = Tensor(rng.normal(0.0, INIT_STD, size=(1, cfg.dim)), requires_grad=True, dtype=dtype)
        self.pos_embed = Tensor(
            rng.normal(0.0, INIT_STD, size=(1 + cfg.n_patches, cfg.dim)), requires_grad=True, dtype=dtype
        )
        self.blocks = [Block(cfg, rng, dtype) for _ in range(cfg.depth)]
        self.final_ln = LayerNorm(cfg.dim, dtype)

    def patch_embed(self, images: np.ndarray) -> Tensor:
        """[B, C, H, W] pixel array -> [B, N, dim]: non-overlapping patches, flattened and projected.

        The pixels are constant, so they are patchified in numpy and become a
        ``Tensor``, of the model's dtype, only as the input of ``patch_proj``.
        """
        cfg = self.cfg
        images = np.asarray(images)
        if images.ndim != 4 or images.shape[1:] != (cfg.channels, cfg.image_size, cfg.image_size):
            raise ShapeError(
                f"images shape {images.shape} does not match configured "
                f"[B, {cfg.channels}, {cfg.image_size}, {cfg.image_size}]"
            )
        b = images.shape[0]
        side = cfg.image_size // cfg.patch_size
        x = images.reshape(b, cfg.channels, side, cfg.patch_size, side, cfg.patch_size)
        x = x.transpose(0, 2, 4, 1, 3, 5)  # [B, hp, wp, C, ps, ps]
        return self.patch_proj(Tensor(x.reshape(b, cfg.n_patches, cfg.patch_dim), dtype=self.pos_embed.dtype))

    def encoder_forward(self, tokens: Tensor,
                        dropout_rng: np.random.Generator | None = None) -> Tensor:
        """[B, T, dim] -> [B, T, dim]: blocks, then the final norm.

        Attention dropout draws from ``dropout_rng`` if one is given.
        """
        if tokens.ndim != 3 or tokens.shape[2] != self.cfg.dim:
            raise ShapeError(f"tokens shape {tokens.shape} is not [B, T, {self.cfg.dim}]")
        x = tokens
        for block in self.blocks:
            x = block(x, dropout_rng=dropout_rng)
        return self.final_ln(x)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        yield "cls_token", self.cls_token
        yield "pos_embed", self.pos_embed
        for name, p in self.patch_proj.named_parameters():
            yield f"patch_embed.{name}", p
        for i, block in enumerate(self.blocks):
            for name, p in block.named_parameters():
                yield f"blocks.{i}.{name}", p
        for name, p in self.final_ln.named_parameters():
            yield f"final_ln.{name}", p
