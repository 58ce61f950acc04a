"""The prompt-conditioned classifier.

Input tokens are assembled as [CLS | patches(+positions) | prompts]; the
prompt segment is the ``[P, D_p]`` array of prompt rows passed to that
forward call (P >= 0, a required argument), pushed through a trainable affine
projection and broadcast identically to every batch element, with no
positional embedding. After the encoder, the CLS output feeds the
classification head, and cosine similarities between the normalized CLS
output and each of the last P outputs, normalized, form the [B, P] score row
used by the similarity loss. Every P takes the same path; P = 0 adds no
token and gives an empty score row. The model holds only parameters: the
prompt rows and the attention-dropout rng are arguments of each forward call.

Pixels and prompt rows arrive as plain arrays, since neither is ever
differentiated; they become ``Tensor``s only where a parameter first
touches them (`Backbone.patch_embed` and `assemble`).

Losses:
    loss_pred  = cross-entropy(head logits, soft target)
    loss_score = cross-entropy over the score row, target class positive
    total      = loss_pred + loss_score       (1:1 by default)

Under mixup both losses use the same lambda-blended soft target, which for
the score loss equals the lambda-weighted sum of the two endpoint losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import tensor as T
from .backbone import Backbone, Linear, named_parts
from .config import ModelConfig
from .errors import ConsistencyError, ShapeError
from .tensor import Tensor


@dataclass
class ForwardOutput:
    logits: Tensor  # [B, C]
    score: Tensor   # [B, P] cosine similarities (P may be 0)


def one_hot(labels, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= n_classes:
        raise ValueError(f"labels out of range for {n_classes} classes")
    out = np.zeros((labels.size, n_classes), dtype=np.float32)
    out[np.arange(labels.size), labels] = 1.0
    return out


class InstructionModel:
    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        self.backbone = Backbone(config, rng, dtype)
        self.prompt_embed = Linear(config.prompt_dim, config.dim, rng, dtype)
        self.head = Linear(config.dim, config.n_classes, rng, dtype)

    # -- forward ------------------------------------------------------------

    def assemble(self, images: np.ndarray, prompts: np.ndarray) -> Tensor:
        """Build the [B, T, dim] [CLS | patches | prompts] input block.

        ``images`` is [B, C, H, W] and ``prompts`` a [P, D_p] array shared by
        every image, P >= 0. The backbone's positional table is added to the
        CLS and patch rows only; `Backbone.patch_embed` has already checked
        the image shape, so the table and the patch count agree.
        """
        prompts = np.asarray(prompts)
        if prompts.ndim != 2:
            raise ShapeError(f"prompt rows must be [P, D_p], got shape {prompts.shape}")
        if prompts.shape[1] != self.config.prompt_dim:
            raise ConsistencyError(
                f"bank feature width {prompts.shape[1]} != configured prompt_dim {self.config.prompt_dim}"
            )
        patches = self.backbone.patch_embed(images)
        b = patches.shape[0]
        cls = T.broadcast_batch(self.backbone.cls_token, b)
        seq = T.add_bias(T.concat([cls, patches], axis=1), self.backbone.pos_embed)
        rows = self.prompt_embed(Tensor(prompts, dtype=self.dtype))
        return T.concat([seq, T.broadcast_batch(rows, b)], axis=1)

    def forward(self, images: np.ndarray, prompts: np.ndarray,
                dropout_rng: np.random.Generator | None = None) -> ForwardOutput:
        """One batch with the [P, D_p] ``prompts`` as the prompt rows; P = 0 gives an empty score row.

        ``dropout_rng`` turns attention dropout on for this call only.
        """
        tokens = self.backbone.encoder_forward(self.assemble(images, prompts), dropout_rng=dropout_rng)
        b, t, d = tokens.shape
        p = len(prompts)
        cls_out = T.reshape(T.narrow(tokens, 1, 0, 1), (b, d))
        logits = self.head(cls_out)
        prompt_out = T.narrow(tokens, 1, t - p, p)
        score = T.batched_dot(T.l2_normalize(cls_out), T.l2_normalize(prompt_out))
        return ForwardOutput(logits=logits, score=score)

    # -- losses -------------------------------------------------------------

    def _soft_target(self, target, n_cols: int) -> np.ndarray:
        arr = np.asarray(target)
        if arr.ndim == 1:
            return one_hot(arr, n_cols)
        if arr.ndim == 2:
            return arr
        raise ShapeError(f"target must be a label vector or a soft-label matrix, got shape {arr.shape}")

    def loss_pred(self, logits: Tensor, target) -> Tensor:
        return T.cross_entropy(logits, self._soft_target(target, self.config.n_classes))

    def loss_score(self, score: Tensor, target) -> Tensor:
        """Softmax cross-entropy over a score row, target column positive (temperature 1).

        A hard target is a score column index: the class index under the
        full class-aligned bank, the kept class's column under selection.
        """
        p = score.shape[1]
        arr = np.asarray(target)
        hard = arr if arr.ndim == 1 else None
        if hard is not None and hard.size and int(hard.max()) >= p:
            raise ConsistencyError(
                f"target class {int(hard.max())} has no score column (only {p} prompts present)"
            )
        return T.cross_entropy(score, self._soft_target(target, p))

    def combine_losses(self, pred: Tensor, score: Tensor | None) -> Tensor:
        """``loss_pred_weight * pred + loss_score_weight * score``; no score term when ``score`` is None."""
        cfg = self.config
        loss = T.scale(pred, cfg.loss_pred_weight)
        return loss if score is None else T.add(loss, T.scale(score, cfg.loss_score_weight))

    def total_loss(self, out: ForwardOutput, target) -> tuple[Tensor, float, float]:
        """Weighted sum of both losses, plus the unweighted ``loss_pred`` and ``loss_score`` values.

        The score term is skipped when P = 0, since cross-entropy over zero
        columns is undefined; its value is then 0.0.
        """
        pred = self.loss_pred(out.logits, target)
        score = self.loss_score(out.score, target) if out.score.shape[1] else None
        return self.combine_losses(pred, score), pred.item(), score.item() if score is not None else 0.0

    # -- parameters ---------------------------------------------------------

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        return named_parts(("backbone", self.backbone), ("prompt_embed", self.prompt_embed),
                           ("head", self.head))

    def parameter_dict(self) -> dict[str, Tensor]:
        return dict(self.named_parameters())
