"""Zero-shot prompt filtering for evaluation.

For one input image, cosine similarity between its frozen encoder feature
and every class prompt ranks the N candidates; the top K stay as-is and the
remaining N-K rows collapse into a single averaged remainder token, for
K+1 prompt tokens total. When K >= N all rows pass through untouched.

Ranking is a stable descending sort: ties keep ascending class index.
Selection changes only which prompt rows an image's forward is fed and
which class each score column stands for: `selected_bank` returns the
rows, kept rows then the remainder row, and the kept classes name the
columns. Both routes score through `predict_scores`. The remainder token
represents no single class, so its column never wins; with the true class
possibly filtered out, score-mode accuracy under selection is measured over
the kept classes only. Everything here is frozen data and stays in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prompts import PromptBank, toy_image_encode


@dataclass
class SelectionResult:
    """Frozen selection data; none of it is ever differentiated."""

    kept_indices: list[int]                # descending score, ties by ascending class index
    kept_features: np.ndarray              # [K, D_p]
    remainder_feature: np.ndarray | None   # [D_p], None when K >= N
    scores: np.ndarray                     # [N] zero-shot similarities, float32


def zero_shot_scores(image, bank: PromptBank) -> np.ndarray:
    """Cosine similarity of the image's frozen feature against every bank row."""
    f = toy_image_encode(image, bank.dim).astype(np.float64)
    f /= np.linalg.norm(f) + 1e-12
    rows = bank.features.astype(np.float64)
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
    feats = bank.features
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


def selected_bank(sel: SelectionResult) -> np.ndarray:
    """One image's prompt rows: the kept rows first, then the remainder row if any."""
    if sel.remainder_feature is None:
        return sel.kept_features
    return np.concatenate([sel.kept_features, sel.remainder_feature[None, :]], axis=0)


def predict_scores(score: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Score-mode class choice per row of ``score`` [B, P]; column j stands for ``classes[j]``.

    Columns past ``len(classes)`` (the remainder) never win; among tied
    maxima the smallest class wins. With ``classes = arange(P)`` this is
    ``argmax`` over the row.
    """
    order = np.argsort(classes)
    return classes[order][np.argmax(score[:, order], axis=1)]
