"""The prompt-conditioned classifier.

Input tokens are assembled as [CLS | patches(+positions) | prompts]; the
prompt segment is the active bank's feature rows pushed through a trainable
affine projection and broadcast identically to every batch element, with no
positional embedding. After the encoder, the CLS output feeds the
classification head, and cosine similarities between the normalized CLS
output and each normalized prompt output form the score row used by the
similarity loss.

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
from .backbone import Backbone, Linear, TokenSequence
from .config import ModelConfig
from .errors import ConsistencyError, ShapeError
from .prompts import PromptBank
from .tensor import Tensor


@dataclass
class ForwardOutput:
    logits: Tensor       # [B, C]
    score: Tensor        # [B, P] cosine similarities (P may be 0)
    cls_feature: Tensor  # [B, dim]


def one_hot(labels, n_classes: int, dtype=np.float32) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= n_classes:
        raise ValueError(f"labels out of range for {n_classes} classes")
    out = np.zeros((labels.size, n_classes), dtype=dtype)
    out[np.arange(labels.size), labels] = 1.0
    return out


class InstructionModel:
    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        self.backbone = Backbone(config.backbone(), rng, dtype)
        self.prompt_embed = Linear(config.prompt_dim, config.dim, rng, dtype)
        self.head = Linear(config.dim, config.n_classes, rng, dtype)
        self.active_bank: PromptBank | None = None
        self._bank_features: Tensor | None = None

    def set_training(self, training: bool, dropout_rng: np.random.Generator | None = None) -> None:
        """Toggle training-time stochastic behavior (attention dropout)."""
        self.backbone.training = training
        self.backbone.dropout_rng = dropout_rng if training else None

    # -- bank handling ------------------------------------------------------

    def set_bank(self, bank: PromptBank | None) -> None:
        features = None if bank is None else self._features_for(bank)
        self.active_bank = bank
        self._bank_features = features

    def _features_for(self, bank: PromptBank | None) -> Tensor | None:
        if bank is None or bank is self.active_bank:
            return self._bank_features
        if bank.dim != self.config.prompt_dim:
            raise ConsistencyError(
                f"bank feature width {bank.dim} != configured prompt_dim {self.config.prompt_dim}"
            )
        return Tensor(bank.features.data, requires_grad=False, dtype=self.dtype)

    # -- forward ------------------------------------------------------------

    def assemble(self, images: Tensor, bank: PromptBank | None = None) -> TokenSequence:
        """Build the [CLS | patches | prompts] input block."""
        feats = self._features_for(bank)
        b = images.shape[0]
        patches = self.backbone.patch_embed(images)
        seq = self.backbone.add_positional(T.broadcast_batch(self.backbone.cls_token, b), patches)
        n_prompts = 0
        if feats is not None and feats.shape[0] > 0:
            prompt_tokens = T.broadcast_batch(self.prompt_embed(feats), b)
            seq = T.concat([seq, prompt_tokens], axis=1)
            n_prompts = feats.shape[0]
        return TokenSequence(seq, self.backbone.cfg.n_patches, n_prompts)

    def forward(self, images: Tensor, bank: PromptBank | None = None) -> ForwardOutput:
        seq = self.backbone.encoder_forward(self.assemble(images, bank))
        b, t, d = seq.tokens.shape
        cls_out = T.reshape(T.narrow(seq.tokens, 1, 0, 1), (b, d))
        logits = self.head(cls_out)
        if seq.n_prompts > 0:
            prompt_out = T.narrow(seq.tokens, 1, t - seq.n_prompts, seq.n_prompts)
            score = T.batched_dot(T.l2_normalize(cls_out, axis=1), T.l2_normalize(prompt_out, axis=2))
        else:
            score = Tensor(np.zeros((b, 0), dtype=seq.tokens.dtype))
        return ForwardOutput(logits=logits, score=score, cls_feature=cls_out)

    # -- losses -------------------------------------------------------------

    def _soft_target(self, target, n_cols: int) -> Tensor:
        if isinstance(target, Tensor):
            return target
        arr = np.asarray(target)
        if arr.ndim == 1:
            return Tensor(one_hot(arr, n_cols, dtype=self.dtype))
        if arr.ndim == 2:
            return Tensor(arr.astype(self.dtype))
        raise ShapeError(f"target must be a label vector or a soft-label matrix, got shape {arr.shape}")

    def loss_pred(self, logits: Tensor, target) -> Tensor:
        return T.cross_entropy(logits, self._soft_target(target, self.config.n_classes))

    def loss_score(self, score: Tensor, target) -> Tensor:
        """Softmax cross-entropy over a score row, target column positive (temperature 1).

        Training always supplies the full class-aligned bank, so the target
        class index doubles as the score column index.
        """
        p = score.shape[1]
        arr = np.asarray(target.data if isinstance(target, Tensor) else target)
        hard = arr if arr.ndim == 1 else None
        if hard is not None and hard.size and int(hard.max()) >= p:
            raise ConsistencyError(
                f"target class {int(hard.max())} has no score column (only {p} prompts present)"
            )
        if arr.ndim == 2 and arr.shape[1] != p:
            raise ConsistencyError(f"soft target width {arr.shape[1]} != score columns {p}")
        return T.cross_entropy(score, self._soft_target(target, p))

    def combine_losses(self, pred: Tensor, score: Tensor | None) -> Tensor:
        """Apply the configured loss weights (1:1 stays a plain sum)."""
        cfg = self.config
        if score is None:
            return T.scale(pred, cfg.loss_pred_weight) if cfg.loss_pred_weight != 1.0 else pred
        if cfg.loss_pred_weight == 1.0 and cfg.loss_score_weight == 1.0:
            return T.add(pred, score)
        return T.add(T.scale(pred, cfg.loss_pred_weight), T.scale(score, cfg.loss_score_weight))

    def total_loss(self, out: ForwardOutput, target) -> tuple[Tensor, float, float]:
        """Weighted sum of both losses, plus the unweighted ``loss_pred`` and ``loss_score`` values.

        The score term is skipped when no prompts are present; its value is then 0.0.
        """
        pred = self.loss_pred(out.logits, target)
        score = self.loss_score(out.score, target) if out.score.shape[1] else None
        return self.combine_losses(pred, score), pred.item(), score.item() if score is not None else 0.0

    # -- prediction ---------------------------------------------------------

    def predict(self, out: ForwardOutput, mode: str = "head") -> np.ndarray:
        """Class indices per sample; ties break toward the lowest class index."""
        if mode == "head":
            return np.argmax(out.logits.data, axis=1)
        if mode == "score":
            if out.score.shape[1] != self.config.n_classes:
                raise ConsistencyError(
                    "score-mode prediction needs a class-aligned bank "
                    f"({out.score.shape[1]} columns vs {self.config.n_classes} classes)"
                )
            return np.argmax(out.score.data, axis=1)
        raise ValueError(f"unknown predict mode {mode!r}")

    # -- parameters ---------------------------------------------------------

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for name, p in self.backbone.named_parameters():
            yield f"backbone.{name}", p
        for name, p in self.prompt_embed.named_parameters():
            yield f"prompt_embed.{name}", p
        for name, p in self.head.named_parameters():
            yield f"head.{name}", p

    def parameter_dict(self) -> dict[str, Tensor]:
        return dict(self.named_parameters())

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.zero_grad()
