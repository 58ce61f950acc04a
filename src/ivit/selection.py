"""Zero-shot prompt filtering for evaluation.

For one input image, cosine similarity between its frozen encoder feature
and every class prompt ranks the N candidates; the top K stay as-is and the
remaining N-K rows collapse into a single averaged remainder token, for
K+1 prompt tokens total. When K >= N all rows pass through untouched.

Ranking is a stable descending sort: ties keep ascending class index. The
remainder token represents no single class, so score-mode prediction under
selection excludes it from the argmax; with the true class possibly
filtered out, score-mode accuracy under selection is measured over the kept
classes only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .prompts import PromptBank, toy_image_encode
from .tensor import Tensor


@dataclass
class SelectionResult:
    """Frozen selection data; none of it is ever differentiated."""

    kept_indices: list[int]                # descending score, ties by ascending class index
    kept_features: np.ndarray              # [K, D_p]
    remainder_feature: np.ndarray | None   # [D_p], None when K >= N
    scores: np.ndarray                     # [N] zero-shot similarities, float32

    @property
    def n_tokens(self) -> int:
        return len(self.kept_indices) + (0 if self.remainder_feature is None else 1)


def zero_shot_scores(image, bank: PromptBank) -> np.ndarray:
    """Cosine similarity of the image's frozen feature against every bank row."""
    if bank.n_classes == 0:
        raise ConsistencyError("prompt bank is empty")
    f = toy_image_encode(image, bank.dim).data.astype(np.float64)
    f /= np.linalg.norm(f) + 1e-12
    rows = bank.features.data.astype(np.float64)
    rows = rows / (np.linalg.norm(rows, axis=1, keepdims=True) + 1e-12)
    return (rows @ f).astype(np.float32)


def rank_descending(scores: np.ndarray) -> np.ndarray:
    """Indices sorted by descending score; equal scores keep ascending index."""
    return np.argsort(-scores, kind="stable")


def select(image, bank: PromptBank, k: int) -> SelectionResult:
    """Keep the top-k prompts, average the rest into one remainder row."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = zero_shot_scores(image, bank)
    order = rank_descending(scores)
    feats = bank.features.data
    if k >= bank.n_classes:
        kept = order
        remainder = None
    else:
        kept = order[:k]
        excluded = order[k:]
        remainder = feats[excluded].astype(np.float64).mean(axis=0).astype(np.float32)
    return SelectionResult(
        kept_indices=[int(i) for i in kept],
        kept_features=feats[kept],
        remainder_feature=remainder,
        scores=scores,
    )


def selected_bank(bank: PromptBank, sel: SelectionResult) -> PromptBank:
    """A per-image mini-bank: kept rows first, then the remainder token if any."""
    rows = [sel.kept_features]
    names = [bank.class_names[i] for i in sel.kept_indices]
    if sel.remainder_feature is not None:
        rows.append(sel.remainder_feature[None, :])
        names.append("(remainder)")
    return PromptBank(
        names, Tensor(np.concatenate(rows, axis=0)), bank.modality, bank.source, seed=bank.seed
    )


def predict_from_selection(score_row: np.ndarray, sel: SelectionResult) -> int:
    """Score-mode class choice under selection.

    The remainder column is ignored; among tied maxima the smallest class
    index wins.
    """
    k = len(sel.kept_indices)
    cols = score_row[:k]
    best = cols.max()
    candidates = [sel.kept_indices[i] for i in np.flatnonzero(cols == best)]
    return min(candidates)
