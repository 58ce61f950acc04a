"""Prompt-selection contracts against a brute-force sorting oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivit.prompts import PromptBank, toy_image_encode
from ivit.selection import (
    SelectionResult,
    predict_scores,
    rank_descending,
    select,
    selected_bank,
    zero_shot_scores,
)


def oracle_top_k(scores, k):
    """Independent oracle: full stable sort on (-score, index) pairs."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order[:k]


def bank_from_rows(rows, names=None):
    rows = np.asarray(rows, dtype=np.float32)
    names = names or [f"c{i}" for i in range(rows.shape[0])]
    return PromptBank(names, rows, "image", seed=1)


def random_image(seed=0, shape=(3, 8, 8)):
    return np.random.default_rng(seed).normal(size=shape)


class TestZeroShotScores:
    def test_own_encoding_scores_one_and_wins(self):
        img = random_image(1)
        own = toy_image_encode(img, 24)
        rng = np.random.default_rng(2)
        rows = np.vstack([rng.normal(size=(4, 24)).astype(np.float32), own])
        scores = zero_shot_scores(img, bank_from_rows(rows))
        assert scores[-1] == pytest.approx(1.0, abs=1e-6)
        assert scores.argmax() == 4

    def test_bounded(self):
        scores = zero_shot_scores(random_image(3), bank_from_rows(np.random.default_rng(4).normal(size=(6, 24))))
        assert (np.abs(scores) <= 1.0 + 1e-6).all()

    def test_matches_naive_loop(self):
        img = random_image(5)
        bank = bank_from_rows(np.random.default_rng(6).normal(size=(7, 24)))
        scores = zero_shot_scores(img, bank)
        f = toy_image_encode(img, 24).astype(np.float64)
        f = f / np.linalg.norm(f)
        for i in range(7):
            row = bank.features[i].astype(np.float64)
            row = row / np.linalg.norm(row)
            assert scores[i] == pytest.approx(float(row @ f), abs=1e-6)


class TestSelect:
    def test_token_count_is_k_plus_one(self):
        bank = bank_from_rows(np.random.default_rng(7).normal(size=(5, 24)))
        sel = select(random_image(8), bank, k=2)
        assert len(sel.kept_indices) == 2
        assert sel.remainder_feature is not None
        assert selected_bank(sel).shape[0] == 3
        # frozen data: plain arrays, not autograd tensors
        for arr in (sel.kept_features, sel.remainder_feature, sel.scores):
            assert type(arr) is np.ndarray and arr.dtype == np.float32

    def test_k_equals_n_keeps_everything(self):
        bank = bank_from_rows(np.random.default_rng(9).normal(size=(3, 24)))
        sel = select(random_image(10), bank, k=3)
        assert sorted(sel.kept_indices) == [0, 1, 2]
        assert sel.remainder_feature is None
        assert selected_bank(sel).shape[0] == 3

    def test_k_below_one_rejected(self):
        bank = bank_from_rows(np.zeros((3, 24)))
        with pytest.raises(ValueError):
            select(random_image(11), bank, k=0)

    def test_remainder_is_mean_of_excluded(self):
        rng = np.random.default_rng(12)
        bank = bank_from_rows(rng.normal(size=(6, 24)))
        sel = select(random_image(13), bank, k=2)
        excluded = [i for i in range(6) if i not in sel.kept_indices]
        expected = bank.features[excluded].astype(np.float64).mean(axis=0)
        np.testing.assert_allclose(sel.remainder_feature, expected, atol=1e-5)
        # equivalent formulation: remainder * (N - K) == sum of excluded rows
        np.testing.assert_allclose(
            sel.remainder_feature * len(excluded),
            bank.features[excluded].sum(axis=0),
            atol=1e-5,
        )

    def test_deterministic(self):
        bank = bank_from_rows(np.random.default_rng(14).normal(size=(5, 24)))
        a = select(random_image(15), bank, k=2)
        b = select(random_image(15), bank, k=2)
        assert a.kept_indices == b.kept_indices
        assert np.array_equal(a.kept_features, b.kept_features)


def test_ranking_matches_oracle_over_200_random_vectors():
    """rank_descending vs a full stable sort, including deliberate tie vectors."""
    rng = np.random.default_rng(16)
    for trial in range(200):
        n = int(rng.integers(2, 12))
        scores = rng.normal(size=n)
        if trial % 3 == 0:
            # force ties by snapping to a tiny grid of values
            scores = np.round(scores * 2) / 2
        if trial % 7 == 0:
            scores = np.zeros(n)  # all tied
        k = int(rng.integers(1, n + 1))
        got = list(rank_descending(scores)[:k])
        assert got == oracle_top_k(list(scores), k), f"trial {trial}: {scores}"


def test_kept_indices_sorted_by_descending_score_then_index():
    rows = np.eye(5, 24, dtype=np.float32)
    bank = bank_from_rows(rows)
    sel = select(random_image(17), bank, k=4)
    s = sel.scores
    for a, b in zip(sel.kept_indices, sel.kept_indices[1:]):
        assert (s[a] > s[b]) or (s[a] == s[b] and a < b)


class TestSelectedBank:
    def test_mini_bank_layout(self):
        bank = bank_from_rows(np.random.default_rng(18).normal(size=(6, 24)))
        sel = select(random_image(19), bank, k=2)
        mini = selected_bank(sel)
        assert type(mini) is np.ndarray and mini.shape == (3, 24)
        np.testing.assert_array_equal(mini[:2], sel.kept_features)
        np.testing.assert_array_equal(mini[2], sel.remainder_feature)

    def test_remainder_excluded_from_prediction(self):
        # remainder column has the largest model score but cannot win
        row = np.array([[0.1, 0.3, 0.9]], dtype=np.float32)
        assert predict_scores(row, np.array([4, 1])).tolist() == [1]

    def test_prediction_tie_takes_lowest_class(self):
        row = np.array([[0.5, 0.5, 0.5, 0.0]], dtype=np.float32)
        assert predict_scores(row, np.array([5, 2, 7])).tolist() == [2]


def predict_from_selection(score_row, sel):
    """The selected route's score rule before `predict_scores`, kept as its reference."""
    k = len(sel.kept_indices)
    cols = score_row[:k]
    best = cols.max()
    candidates = [sel.kept_indices[i] for i in np.flatnonzero(cols == best)]
    return min(candidates)


@st.composite
def score_rows(draw):
    """``(score [B, P], classes [K])``: K distinct classes out of N, P = K or K + 1 (a remainder).

    Half the draws snap every score to a grid of three values, so rows hold
    tied maxima, the remainder often among them.
    """
    n = draw(st.integers(1, 12))
    classes = np.array(draw(st.permutations(range(n)))[: draw(st.integers(1, n))])
    p = len(classes) + draw(st.integers(0, 1))
    b = draw(st.integers(1, 5))
    score = np.array(draw(st.lists(st.floats(-1.0, 1.0, width=32), min_size=b * p, max_size=b * p)),
                     dtype=np.float32).reshape(b, p)
    if draw(st.booleans()):
        score = np.round(score)
    return score, classes


@settings(max_examples=300, deadline=None)
@given(score_rows())
def test_predict_scores_matches_the_per_row_rule(case):
    """The remainder never wins, and tied maxima go to the smallest class under any column order."""
    score, classes = case
    sel = SelectionResult(kept_indices=classes.tolist(), kept_features=np.zeros((len(classes), 1)),
                          remainder_feature=None, scores=np.zeros(0))
    assert predict_scores(score, classes).tolist() == [predict_from_selection(row, sel) for row in score]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_predict_scores_is_argmax_on_class_aligned_columns(n, b, seed):
    score = np.random.default_rng(seed).normal(size=(b, n)).astype(np.float32)
    score[:, ::2] = np.round(score[:, ::2])  # ties between aligned columns
    assert np.array_equal(predict_scores(score, np.arange(n)), np.argmax(score, axis=1))
