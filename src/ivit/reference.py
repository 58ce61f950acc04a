"""The model's forward and joint loss in plain float64 numpy, for many parameter sets at once.

An oracle for `model.InstructionModel` that shares no code with it: written
from the architecture (README, "How the model fits together"), it imports
nothing of ivit but the config. Parameters are read by their
``InstructionModel.named_parameters()`` names, and every parameter array
carries a leading axis of S parameter sets. An axis of length 1 broadcasts,
so a parameter shared by every set is passed once, and whatever depends only
on shared parameters is computed once. One call evaluates all S models on
the same images, prompt rows and targets; the gradient check passes the
``+-`` step perturbations of one parameter tensor as its sets.

Each step repeats the float64 arithmetic of the op it stands for, in the same
order and with matrix products of the same shapes. A linear layer is one GEMM
over each set's stacked rows, as ``tensor.linear`` is one over the batch's
(numpy's per-matrix stacked product rounds differently on some shapes).
Layer norm multiplies by ``1 / sqrt(var + eps)``, softmax divides by its sum,
gelu is the exact erf form, and the score row is an ``einsum`` over
l2-normalised rows. Over 3,000 configs drawn as tests/test_reference.py draws
them, a float64 model and the reference agreed bit for bit on every logit,
score and loss, so finite differences taken through either are the same
numbers. The constants below are the reference's own, so a changed constant
in the ops shows up as a mismatch. There is no dropout.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

import numpy as np

from .config import ModelConfig

LN_EPS = 1e-5
NORM_EPS = 1e-12
INV_SQRT2 = 1.0 / math.sqrt(2.0)


class Output(NamedTuple):
    logits: np.ndarray      # [S, B, C]
    score: np.ndarray       # [S, B, P]; P may be 0
    loss_pred: np.ndarray   # [S]
    loss_score: np.ndarray  # [S]; 0 when P = 0
    loss: np.ndarray        # [S], the weighted sum


def _sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, kept: ``ndarray.sum`` without its Python wrapper (``/ d`` is ``ndarray.mean``)."""
    return np.add.reduce(x, axis=-1, keepdims=True)


def _max(x: np.ndarray) -> np.ndarray:
    """Max over the last axis, kept, as ``ndarray.max`` computes it."""
    return np.maximum.reduce(x, axis=-1, keepdims=True)


def _per_set(p: np.ndarray, ndim: int) -> np.ndarray:
    """View a parameter [S, *shape] so that it broadcasts against an ``ndim``-d activation [S, ..., *shape]."""
    return p.reshape(p.shape[:1] + (1,) * (ndim - p.ndim) + p.shape[1:])


def _linear(x: np.ndarray, params: Mapping[str, np.ndarray], name: str) -> np.ndarray:
    """``x @ weight + bias`` per set: x [S, ..., D_in] -> [S, ..., D_out], one GEMM over each set's rows."""
    w = params[f"{name}.weight"]
    y = x.reshape(x.shape[0], -1, x.shape[-1]) @ w
    return y.reshape(y.shape[:1] + x.shape[1:-1] + w.shape[-1:]) + _per_set(params[f"{name}.bias"], x.ndim)


def _layer_norm(x: np.ndarray, params: Mapping[str, np.ndarray], name: str) -> np.ndarray:
    d = x.shape[-1]
    xc = x - _sum(x) / d
    inv = 1.0 / np.sqrt(_sum(xc * xc) / d + LN_EPS)
    return xc * inv * _per_set(params[f"{name}.gain"], x.ndim) + _per_set(params[f"{name}.bias"], x.ndim)


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - _max(x))
    return e / _sum(e)


def _l2_normalize(x: np.ndarray) -> np.ndarray:
    return x / (np.sqrt(_sum(x * x)) + NORM_EPS)


def _attention(x: np.ndarray, params: Mapping[str, np.ndarray], name: str, heads: int) -> np.ndarray:
    """Multi-head self-attention over every token: x [S, B, T, D] -> [S, B, T, D]."""
    head_dim = x.shape[-1] // heads

    def split(y: np.ndarray) -> np.ndarray:  # [S, B, T, D] -> [S, B, H, T, hd]
        return y.reshape(y.shape[:3] + (heads, head_dim)).transpose(0, 1, 3, 2, 4)

    q, k, v = (split(_linear(x, params, f"{name}.{w}")) for w in ("wq", "wk", "wv"))
    attn = _softmax((q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(head_dim)))
    out = attn @ v
    out = out.transpose(0, 1, 3, 2, 4).reshape(out.shape[:2] + (out.shape[3], x.shape[-1]))
    return _linear(out, params, f"{name}.wo")


def _gelu(x: np.ndarray) -> np.ndarray:
    from scipy.special import erf  # here, so that importing ivit does not load scipy
    return 0.5 * x * (1.0 + erf(x * INV_SQRT2))


def _targets(target, width: int) -> np.ndarray:
    """Hard labels [B] as one-hot rows, or soft rows [B, width] as given, in float64."""
    arr = np.asarray(target)
    if arr.ndim == 1:
        rows = np.zeros((arr.size, width))
        rows[np.arange(arr.size), arr] = 1.0
        return rows
    if arr.shape[1] != width:
        raise ValueError(f"soft target width {arr.shape[1]} != {width} columns")
    return arr.astype(np.float64)


def _cross_entropy(logits: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Mean over the batch of ``-sum(target * log_softmax(logits))``: logits [S, B, K] -> [S]."""
    z = logits - _max(logits)
    lsm = z - np.log(_sum(np.exp(z)))
    return -np.add.reduce((target * lsm).reshape(lsm.shape[0], -1), axis=1) / lsm.shape[1]


def forward(cfg: ModelConfig, params: Mapping[str, np.ndarray], images: np.ndarray,
            prompts: np.ndarray, target) -> Output:
    """Logits, score row and losses of each parameter set.

    ``images`` is [B, C, H, W], ``prompts`` [P, D_p] rows shared by every image
    (P = 0: an empty score row and no score loss), and ``target`` hard labels
    [B] or soft rows [B, n_classes]. A soft target is also the score target,
    so it needs one prompt row per class.
    """
    params = {name: np.asarray(p, dtype=np.float64) for name, p in params.items()}
    images = np.asarray(images, dtype=np.float64)
    b = images.shape[0]
    side = cfg.image_size // cfg.patch_size
    x = images.reshape(b, cfg.channels, side, cfg.patch_size, side, cfg.patch_size)
    x = x.transpose(0, 2, 4, 1, 3, 5).reshape(1, b, cfg.n_patches, cfg.patch_dim)
    patches = _linear(x, params, "backbone.patch_embed")
    cls, pos = params["backbone.cls_token"], params["backbone.pos_embed"]
    prompts = np.asarray(prompts, dtype=np.float64)
    n_prompts = len(prompts)
    rows = _linear(prompts[None], params, "prompt_embed")
    # [CLS | patches] + positions, then the prompt rows, written into one
    # [S, B, T, D] block; each assignment broadcasts the set and batch axes
    n = 1 + cfg.n_patches
    x = np.empty((max(a.shape[0] for a in (cls, patches, pos, rows)), b, n + n_prompts, cfg.dim))
    x[:, :, :1] = cls[:, None]
    x[:, :, 1:n] = patches
    x[:, :, :n] += pos[:, None]
    x[:, :, n:] = rows[:, None]

    for i in range(cfg.depth):
        name = f"backbone.blocks.{i}"
        x = x + _attention(_layer_norm(x, params, f"{name}.ln1"), params, f"{name}.attn", cfg.heads)
        x = x + _linear(_gelu(_linear(_layer_norm(x, params, f"{name}.ln2"), params, f"{name}.fc1")),
                        params, f"{name}.fc2")
    x = _layer_norm(x, params, "backbone.final_ln")

    cls_out = x[:, :, 0]
    logits = _linear(cls_out, params, "head")
    loss_pred = _cross_entropy(logits, _targets(target, cfg.n_classes))
    prompt_out = x[:, :, x.shape[2] - n_prompts:]
    score = np.einsum("sbd,sbpd->sbp", _l2_normalize(cls_out), _l2_normalize(prompt_out))
    loss = loss_pred * float(cfg.loss_pred_weight)
    if n_prompts:  # cross-entropy over zero columns is undefined
        loss_score = _cross_entropy(score, _targets(target, n_prompts))
        loss = loss + loss_score * float(cfg.loss_score_weight)
    else:
        loss_score = np.zeros_like(loss_pred)
    return Output(logits, score, loss_pred, loss_score, loss)
