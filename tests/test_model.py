"""Model-level behavior: token assembly, score computation, the loss family,
prediction rules, and the end-to-end gradient check on a tiny model."""

import math
import re

import numpy as np
import pytest

from ivit import tensor as T
from ivit.config import ModelConfig
from ivit.errors import ConfigError, ConsistencyError, ShapeError
from ivit.gradcheck import run_model_check
from ivit.model import ForwardOutput, InstructionModel, one_hot
from ivit.selection import predict_scores
from ivit.tensor import Tensor
from ivit.trainer import _hits


def tiny_config(n_classes=2, prompt_dim=8, **kw):
    base = dict(image_size=8, patch_size=4, channels=3, dim=16, depth=1, heads=2,
                mlp_ratio=2.0, prompt_dim=prompt_dim, n_classes=n_classes)
    base.update(kw)
    return ModelConfig(**base)


def random_prompts(n_rows, dim, seed=0):
    return np.random.default_rng(seed).normal(size=(n_rows, dim))


def make_model(n_classes=2, n_prompts=None, dtype=np.float64, seed=0, **kw):
    cfg = tiny_config(n_classes=n_classes, **kw)
    model = InstructionModel(cfg, seed=seed, dtype=dtype)
    prompts = random_prompts(n_prompts if n_prompts is not None else n_classes, cfg.prompt_dim, seed=seed + 1)
    return model, prompts


def images_for(model, batch=2, seed=3):
    cfg = model.config
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, cfg.channels, cfg.image_size, cfg.image_size)).astype(model.dtype)


class TestConfigValidation:
    """Run-config keys are checked through the CLI (tests/test_cli.py); these two are derived."""

    @pytest.mark.parametrize("key,value", [("n_classes", 0), ("prompt_dim", 0), ("prompt_dim", -3)])
    def test_derived_counts_must_be_positive(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be >= 1"):
            tiny_config(**{key: value})

    def test_edge_values_stay_valid(self):
        cfg = tiny_config(depth=0, select_k=0, mlp_ratio=1 / 16, attn_dropout=0.0,
                          loss_pred_weight=0.0, loss_score_weight=0.0)
        assert InstructionModel(cfg).backbone.cfg.depth == 0


class TestAssemble:
    def test_token_count(self):
        model, prompts = make_model(n_prompts=8, image_size=32, patch_size=8)
        tokens = model.assemble(images_for(model), prompts)
        assert tokens.shape == (2, 1 + 16 + 8, 16)

    def test_empty_bank_degenerates_to_plain_vit(self):
        model, _ = make_model()
        tokens = model.assemble(images_for(model))
        assert tokens.shape == (2, 1 + 4, 16)
        assert model.forward(images_for(model)).score.shape == (2, 0)

    def test_prompt_segment_identical_across_batch(self):
        model, prompts = make_model(n_prompts=3)
        segment = model.assemble(images_for(model, batch=4), prompts).data[:, -3:]
        for b in range(1, 4):
            np.testing.assert_array_equal(segment[b], segment[0])

    def test_bank_width_mismatch(self):
        model, _ = make_model()
        with pytest.raises(ConsistencyError, match="bank feature width 5 != configured prompt_dim 8"):
            model.assemble(images_for(model), random_prompts(2, 5))

    @pytest.mark.parametrize("shape", [(8,), (1, 2, 8)])
    def test_prompt_rows_must_be_2d(self, shape):
        model, _ = make_model()
        with pytest.raises(ShapeError, match=rf"\[P, D_p\], got shape {re.escape(str(shape))}"):
            model.assemble(images_for(model), np.zeros(shape))

    def test_zero_prompt_rows_give_empty_score_row(self):
        model, _ = make_model()
        images = images_for(model)
        tokens = model.assemble(images, np.zeros((0, 8)))
        assert tokens.shape == (2, 1 + 4, 16)
        assert model.forward(images, np.zeros((0, 8))).score.shape == (2, 0)
        with pytest.raises(ConsistencyError, match="bank feature width 5"):
            model.assemble(images, np.zeros((0, 5)))


class TestForward:
    def test_shapes(self):
        model, prompts = make_model(n_classes=4, n_prompts=6)
        out = model.forward(images_for(model, batch=3), prompts)
        assert out.logits.shape == (3, 4)
        assert out.score.shape == (3, 6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_outputs_keep_model_dtype(self, dtype):
        model, prompts = make_model(n_classes=3, n_prompts=4, dtype=dtype, depth=2)
        for pixel_dtype in (np.float32, np.float64):
            out = model.forward(images_for(model, batch=2).astype(pixel_dtype), prompts)
            assert out.logits.dtype == dtype
            assert out.score.dtype == dtype
            grads = T.backward(model.loss_pred(out.logits, np.array([0, 2])))
            assert {g.dtype for g in grads.values()} == {np.dtype(dtype)}

    def test_score_bounded_by_one(self):
        model, prompts = make_model(n_prompts=5)
        out = model.forward(images_for(model, batch=8, seed=11), prompts)
        assert (np.abs(out.score.data) <= 1.0 + 1e-6).all()

    def test_bank_permutation_permutes_score_columns(self):
        model, prompts = make_model(n_prompts=6)
        images = images_for(model, batch=3)
        base = model.forward(images, prompts)
        for trial in range(5):
            perm = np.random.default_rng(trial).permutation(6)
            out = model.forward(images, prompts=prompts[perm])
            np.testing.assert_allclose(out.score.data, base.score.data[:, perm], atol=1e-6)
            np.testing.assert_allclose(out.logits.data, base.logits.data, atol=1e-6)


class TestLosses:
    def test_uniform_logits_four_classes(self):
        model, _ = make_model(n_classes=4)
        logits = Tensor(np.zeros((2, 4)))
        assert model.loss_pred(logits, np.array([1, 3])).item() == pytest.approx(math.log(4.0), abs=1e-6)

    def test_confident_logits_near_zero(self):
        model, _ = make_model(n_classes=2)
        logits = Tensor(np.array([[30.0, -30.0], [-30.0, 30.0]]))
        assert model.loss_pred(logits, np.array([0, 1])).item() < 1e-4

    def test_mixup_target_linearity(self):
        """CE is linear in the target row, so mixed labels equal mixed losses."""
        model, _ = make_model(n_classes=3)
        rng = np.random.default_rng(5)
        logits = Tensor(rng.normal(size=(4, 3)))
        ya, yb = np.array([0, 1, 2, 0]), np.array([2, 2, 1, 1])
        lam = 0.3
        mixed = lam * one_hot(ya, 3) + (1 - lam) * one_hot(yb, 3)
        direct = model.loss_pred(logits, mixed).item()
        split = lam * model.loss_pred(logits, ya).item() + (1 - lam) * model.loss_pred(logits, yb).item()
        assert direct == pytest.approx(split, abs=1e-6)

    def test_score_loss_two_columns(self):
        model, _ = make_model()
        score = Tensor(np.array([[1.0, 0.0]]))
        expected = -math.log(math.e / (math.e + 1.0))  # = log(1 + e^-1)
        assert model.loss_score(score, np.array([0])).item() == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(0.3132616875, abs=1e-9)

    def test_score_loss_all_equal_five(self):
        model, _ = make_model(n_classes=5)
        score = Tensor(np.full((3, 5), 0.2))
        assert model.loss_score(score, np.array([0, 2, 4])).item() == pytest.approx(math.log(5.0), abs=1e-6)

    def test_score_loss_shift_invariance(self):
        model, _ = make_model(n_classes=4)
        rng = np.random.default_rng(6)
        score = rng.normal(size=(3, 4))
        target = np.array([1, 0, 3])
        a = model.loss_score(Tensor(score), target).item()
        b = model.loss_score(Tensor(score + 7.5), target).item()
        assert a == pytest.approx(b, abs=1e-6)

    def test_score_loss_missing_target_column(self):
        model, _ = make_model(n_classes=4)
        score = Tensor(np.zeros((1, 2)))  # only 2 prompt columns present
        with pytest.raises(ConsistencyError, match="score column"):
            model.loss_score(score, np.array([3]))

    @pytest.mark.parametrize("loss,target,error,message", [
        ("loss_pred", [0, 4], ValueError, "labels out of range for 4 classes"),
        ("loss_pred", [-1, 0], ValueError, "labels out of range for 4 classes"),
        ("loss_pred", np.zeros((2, 4, 1)), ShapeError,
         "target must be a label vector or a soft-label matrix, got shape (2, 4, 1)"),
        ("loss_score", np.full((2, 3), 1 / 3), ShapeError, "cross_entropy: logits (2, 4) vs target (2, 3)"),
    ], ids=["label-past-the-head", "negative-label", "3-d-target", "soft-score-target-too-narrow"])
    def test_bad_target_rejected(self, loss, target, error, message):
        model, _ = make_model(n_classes=4)
        with pytest.raises(error) as info:
            getattr(model, loss)(Tensor(np.zeros((2, 4))), np.asarray(target))
        assert type(info.value) is error and str(info.value) == message

    def test_total_is_plain_sum(self):
        model, prompts = make_model(n_classes=2, n_prompts=2)
        out = model.forward(images_for(model), prompts)
        target = np.array([0, 1])
        loss, pred, score = model.total_loss(out, target)
        total = loss.item()
        assert (pred, score) == (model.loss_pred(out.logits, target).item(),
                                 model.loss_score(out.score, target).item())
        assert total == pytest.approx(pred + score, abs=1e-9)
        assert total >= max(model.loss_pred(out.logits, target).item(),
                            model.loss_score(out.score, target).item()) >= 0.0

    def test_total_gradient_is_sum_of_part_gradients(self):
        model, prompts = make_model(n_classes=2, n_prompts=2)
        images = images_for(model)
        target = np.array([0, 1])
        name, probe = next(iter(model.parameter_dict().items()))

        def grad_of(loss_fn):
            return T.backward(loss_fn())[probe]

        g_total = grad_of(lambda: model.total_loss(model.forward(images, prompts), target)[0])
        g_pred = grad_of(lambda: model.loss_pred(model.forward(images, prompts).logits, target))
        g_score = grad_of(lambda: model.loss_score(model.forward(images, prompts).score, target))
        denom = np.abs(g_total).max() + 1e-12
        assert np.abs(g_total - (g_pred + g_score)).max() / denom < 1e-6

    def test_no_prompts_drops_score_term(self):
        model, _ = make_model(n_classes=2)
        out = model.forward(images_for(model))
        assert out.score.shape == (2, 0)
        loss, pred, score = model.total_loss(out, np.array([0, 1]))
        assert score == 0.0
        assert loss.item() == pytest.approx(model.loss_pred(out.logits, np.array([0, 1])).item(), abs=1e-9)

    def test_loss_weights_apply(self):
        model, prompts = make_model(n_classes=2, n_prompts=2, loss_pred_weight=2.0, loss_score_weight=0.5)
        out = model.forward(images_for(model), prompts)
        target = np.array([0, 1])
        expected = 2.0 * model.loss_pred(out.logits, target).item() \
            + 0.5 * model.loss_score(out.score, target).item()
        loss, pred, score = model.total_loss(out, target)
        assert loss.item() == pytest.approx(expected, abs=1e-9)
        # the logged terms are unweighted
        assert (pred, score) == (model.loss_pred(out.logits, target).item(),
                                 model.loss_score(out.score, target).item())


class TestPredict:
    """Top-1 hits of both routes, as `evaluate` counts them."""

    def test_head_argmax(self):
        out = ForwardOutput(Tensor([[0.1, 0.9]]), Tensor(np.zeros((1, 2))))
        assert _hits(out, np.array([1]), np.arange(2))[0] == 1
        assert _hits(out, np.array([0]), np.arange(2))[0] == 0

    def test_tie_breaks_to_lowest_class(self):
        out = ForwardOutput(Tensor([[0.4, 0.4]]), Tensor([[0.2, 0.2]]))
        assert _hits(out, np.array([0]), np.arange(2)) == (1, 1)
        assert _hits(out, np.array([1]), np.arange(2)) == (0, 0)

    def test_score_mode_scale_invariant(self):
        """Rescaling the CLS feature cannot change the cosine argmax."""
        rng = np.random.default_rng(13)
        cls = rng.normal(size=(4, 16))
        prompts = rng.normal(size=(4, 3, 16))

        def cosine_argmax(c):
            score = T.batched_dot(T.l2_normalize(Tensor(c)), T.l2_normalize(Tensor(prompts)))
            return predict_scores(score.data, np.arange(3))

        base = cosine_argmax(cls)
        for factor in (0.01, 3.0, 250.0):
            assert np.array_equal(cosine_argmax(factor * cls), base)


def test_full_model_gradcheck():
    """Every parameter of the tiny model vs. finite differences, double precision."""
    assert run_model_check(seed=0) < 1e-3
