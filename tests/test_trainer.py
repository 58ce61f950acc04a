"""Training loop contracts: schedule, Adam, mixup, freeze regimes, metrics."""

import _ctypes
import dataclasses
import hashlib
import math
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivit import _blas
from ivit import dataset as ds
from ivit import tensor as tensor_mod
from ivit import trainer as trainer_mod
from ivit.config import REGIMES, ModelConfig, TrainConfig
from ivit.errors import ConfigError, ConsistencyError, NonFiniteError, ShapeError
from ivit.model import InstructionModel
from ivit.prompts import build_text_bank
from ivit.selection import select, selected_bank
from ivit.tensor import Tensor
from ivit.trainer import (
    AdamState,
    EpochMetrics,
    METRICS_HEADER,
    TRAINABLE,
    adam_step,
    apply_freeze,
    evaluate,
    lr_at,
    mixup,
    train,
    write_metrics_csv,
)


def tiny_setup(tmp_path, n_classes=2, n_train=16, n_val=8, image_size=8, noise_std=0.0,
               dim=16, depth=1, heads=2, seed=1):
    out = tmp_path / "data"
    ds.generate_synthetic(out, n_classes=n_classes, n_train=n_train, n_val=n_val,
                          image_size=image_size, channels=3, seed=seed, noise_std=noise_std)
    data = ds.load(out)
    bank = build_text_bank(data.class_names, dim)
    cfg = ModelConfig(image_size=image_size, patch_size=4, channels=3, dim=dim, depth=depth,
                      heads=heads, mlp_ratio=2.0, prompt_dim=dim, n_classes=n_classes)
    model = InstructionModel(cfg, seed=seed)
    return model, data, bank


DEFAULTS = TrainConfig()


class TestSchedule:
    def test_endpoints_exact(self):
        total = 200  # 10 steps/epoch * 20 epochs
        warmup_steps = 50
        assert lr_at(warmup_steps, total, DEFAULTS) == 1e-4
        assert lr_at(total, total, DEFAULTS) == 1e-5
        assert lr_at(0, total, DEFAULTS) == 0.0

    def test_halfway_through_warmup(self):
        assert lr_at(25, 200, DEFAULTS) == pytest.approx(5e-5, rel=1e-12)

    def test_continuous_at_junction(self):
        total, warmup = 200, 50
        before = lr_at(warmup, total, DEFAULTS)
        after = lr_at(warmup + 1, total, DEFAULTS)
        # one step past the junction moves by at most one cosine increment
        assert abs(after - before) / before < 1e-2
        assert before == DEFAULTS.peak_lr

    def test_monotone_nonincreasing_after_warmup(self):
        total = 400
        warmup = round(total * DEFAULTS.warmup_epochs / DEFAULTS.epochs)
        values = [lr_at(s, total, DEFAULTS) for s in range(warmup, total + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lr_at(-1, 100, DEFAULTS)
        with pytest.raises(ValueError):
            lr_at(101, 100, DEFAULTS)


@st.composite
def schedules(draw):
    """Any valid TrainConfig schedule and run length (epochs times steps per epoch)."""
    epochs = draw(st.integers(1, 1000))
    peak = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    cfg = TrainConfig(epochs=epochs, warmup_epochs=draw(st.integers(0, epochs)), peak_lr=peak,
                      floor_lr=draw(st.floats(min_value=0.0, max_value=peak)))
    return cfg, epochs * draw(st.integers(1, 10**9))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(schedules(), st.data())
def test_schedule_holds_for_any_valid_config(schedule, data):
    cfg, total = schedule
    peak, floor, slack = cfg.peak_lr, cfg.floor_lr, 4 * math.ulp(cfg.peak_lr)
    warmup = round(total * cfg.warmup_epochs / cfg.epochs)
    drawn = data.draw(st.integers(0, total))
    for step in {0, warmup - 1, warmup, warmup + 1, total - 1, total, drawn}:
        if 0 <= step <= total:
            assert 0.0 <= lr_at(step, total, cfg) <= peak, step
    # continuous at the junction: each neighbour is one warmup or cosine increment away
    assert lr_at(warmup, total, cfg) == peak
    if warmup > 0:
        assert peak - lr_at(warmup - 1, total, cfg) <= peak / warmup + slack
    if warmup < total:
        cosine_step = (peak - floor) * 0.5 * (1.0 - math.cos(math.pi / (total - warmup)))
        assert peak - lr_at(warmup + 1, total, cfg) <= cosine_step + slack
        # the decay phase ends exactly at floor_lr; a run that is all warmup ends at peak_lr
        assert lr_at(total, total, cfg) == floor
    step = data.draw(st.integers(warmup, total))
    if step < total:
        assert lr_at(step, total, cfg) >= lr_at(step + 1, total, cfg)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.ones((3, 2)), requires_grad=True)
        before = p.data.copy()
        adam_step({"p": p}, {"p": np.zeros((3, 2), dtype=np.float32)}, AdamState(), 1e-2, DEFAULTS)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_is_lr_times_sign(self):
        # closed form at t=1: m-hat = g, v-hat = g^2, update = -lr * g / (|g| + eps)
        rng = np.random.default_rng(0)
        g = rng.normal(size=(4, 4)).astype(np.float32)
        g[np.abs(g) < 0.1] = 0.5  # keep |g| well above eps
        p = Tensor(np.zeros((4, 4)), requires_grad=True)
        lr = 1e-3
        adam_step({"p": p}, {"p": g}, AdamState(), lr, DEFAULTS)
        np.testing.assert_allclose(p.data, -lr * np.sign(g), atol=1e-6)

    def test_three_steps_deterministic(self):
        def run():
            rng = np.random.default_rng(7)
            p = Tensor(rng.normal(size=(5,)).astype(np.float32), requires_grad=True)
            state = AdamState()
            for _ in range(3):
                grad = rng.normal(size=(5,)).astype(np.float32)
                adam_step({"p": p}, {"p": grad}, state, 1e-2, DEFAULTS)
            return p.data.copy()

        assert np.array_equal(run(), run())

    def test_gradient_of_another_shape_rejected(self):
        p = Tensor(np.ones((3, 2)), requires_grad=True)
        with pytest.raises(ShapeError) as info:
            adam_step({"w": p}, {"w": np.ones((2, 3))}, AdamState(), 1e-2, DEFAULTS)
        assert str(info.value) == "gradient shape (2, 3) != parameter shape (3, 2) for w"
        np.testing.assert_array_equal(p.data, np.ones((3, 2)))

    def test_moments_are_allocated_once(self, monkeypatch):
        made = []
        zeros_like = np.zeros_like

        def counting(*args, **kwargs):
            made.append(1)
            return zeros_like(*args, **kwargs)

        p = Tensor(np.ones(3), requires_grad=True)
        state = AdamState()
        monkeypatch.setattr(np, "zeros_like", counting)
        for _ in range(2):
            adam_step({"p": p}, {"p": np.ones(3, dtype=np.float32)}, state, 1e-2, DEFAULTS)
        assert len(made) == 2  # one m and one v, at the first step only


class _HalfRng:
    """Reverses the batch and draws lambda = 0.5."""

    def permutation(self, n):
        return np.arange(n)[::-1]

    def beta(self, a, b):
        return 0.5


class TestMixup:
    def make_batch(self):
        images = np.arange(4.0).reshape(4, 1, 1, 1) * np.ones((4, 1, 2, 2))
        return ds.LabeledBatch(images=images, hard_labels=np.array([0, 1, 1, 1]), raw_images=images)

    def test_half_lambda_mixes_pixels(self):
        images, _ = mixup(self.make_batch(), 0.2, _HalfRng(), n_classes=2)
        np.testing.assert_allclose(images, 1.5)  # each image averaged with its mirror: (i + 3 - i) / 2

    def test_soft_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            _, soft = mixup(self.make_batch(), 0.4, rng, n_classes=2)
            np.testing.assert_allclose(soft.sum(axis=1), 1.0, atol=1e-6)

    def test_retains_both_label_sets_and_lambda(self):
        batch = self.make_batch()
        _, soft = mixup(batch, 0.2, _HalfRng(), n_classes=2)
        # the partner labels and lambda live in the soft labels
        np.testing.assert_array_equal(soft, 0.5 * np.eye(2)[batch.hard_labels]
                                      + 0.5 * np.eye(2)[batch.hard_labels[::-1]])

    def test_draws_the_permutation_then_lambda(self):
        batch = self.make_batch()
        rng = np.random.default_rng(7)
        perm = rng.permutation(4)
        lam = rng.beta(0.4, 0.4)
        images, _ = mixup(batch, 0.4, np.random.default_rng(7), n_classes=2)
        np.testing.assert_array_equal(images, (lam * batch.images + (1.0 - lam) * batch.images[perm])
                                      .astype(np.float32))


def checksums(model, prefix):
    return {
        name: hashlib.sha256(p.data.tobytes()).hexdigest()
        for name, p in model.named_parameters()
        if name.startswith(prefix)
    }


class TestRegimes:
    def test_trainable_sets(self, tmp_path):
        model, _, _ = tiny_setup(tmp_path)
        names = [name for name, _ in model.named_parameters()]
        trainable, _, _ = apply_freeze(model, "prompt_tuning")
        assert sorted(trainable) == sorted(n for n in names if n.split(".")[0] in ("head", "prompt_embed"))
        trainable, _, _ = apply_freeze(model, "full")
        assert list(trainable) == names
        assert set(TRAINABLE) == set(REGIMES)

    def test_prompt_tuning_freezes_backbone_bitwise(self, tmp_path):
        model, data, bank = tiny_setup(tmp_path)
        before = checksums(model, "backbone")
        cfg = TrainConfig(epochs=1, batch_size=8, warmup_epochs=0, regime="prompt_tuning",
                          mixup_alpha=0.0, peak_lr=1e-3, floor_lr=1e-4, seed=0)
        train(model, data, bank, cfg)
        assert checksums(model, "backbone") == before
        # but the trainable pieces moved
        head_before = checksums(InstructionModel(model.config, seed=1), "head")
        assert checksums(model, "head") != head_before

    def test_full_regime_updates_backbone(self, tmp_path):
        model, data, bank = tiny_setup(tmp_path)
        before = checksums(model, "backbone")
        cfg = TrainConfig(epochs=1, batch_size=8, warmup_epochs=0, regime="full",
                          mixup_alpha=0.0, peak_lr=1e-3, floor_lr=1e-4, seed=0)
        train(model, data, bank, cfg)
        assert checksums(model, "backbone") != before

    def test_trainable_count_much_smaller_under_prompt_tuning(self, tmp_path):
        model, _, _ = tiny_setup(tmp_path)
        _, n_train, n_total = apply_freeze(model, "prompt_tuning")
        assert n_train < n_total / 4


class TestTrainLoop:
    def test_metrics_history_length(self, tmp_path):
        model, data, bank = tiny_setup(tmp_path)
        cfg = TrainConfig(epochs=3, batch_size=8, warmup_epochs=1, mixup_alpha=0.0, seed=0)
        history = train(model, data, bank, cfg)
        assert [m.epoch for m in history] == [1, 2, 3]

    def test_fixed_seed_reproduces_history(self, tmp_path):
        def run():
            model, data, bank = tiny_setup(tmp_path)
            cfg = TrainConfig(epochs=2, batch_size=8, warmup_epochs=1, mixup_alpha=0.2, seed=5)
            return [m.csv_row() for m in train(model, data, bank, cfg)]

        assert run() == run()

    def test_class_list_mismatch_rejected(self, tmp_path):
        model, data, bank = tiny_setup(tmp_path)
        bank.class_names = list(reversed(bank.class_names))
        with pytest.raises(ConsistencyError):
            train(model, data, bank, TrainConfig(epochs=1, batch_size=8, warmup_epochs=0))

    def test_memorizes_tiny_noiseless_set(self, tmp_path):
        """Two distinct noiseless classes must be driven to 100% train accuracy."""
        model, data, bank = tiny_setup(tmp_path, noise_std=0.0)
        cfg = TrainConfig(epochs=30, batch_size=8, warmup_epochs=2, peak_lr=3e-3, floor_lr=3e-4,
                          mixup_alpha=0.0, seed=0)
        history = train(model, data, bank, cfg, stop_at_head_top1=1.0)
        assert history[-1].head_top1 == 1.0

    def test_csv_format(self, tmp_path):
        rows = [EpochMetrics(1, 0.5, 0.25, 0.75, 0.875, 0.5, 1e-4)]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == METRICS_HEADER == "epoch,loss_pred,loss_score,loss_total,head_top1,score_top1,lr"
        assert lines[1] == "1,0.5,0.25,0.75,0.875,0.5,0.0001"


def test_non_finite_parameter_stops_before_the_checkpoint(tmp_path, monkeypatch):
    model, data, bank = tiny_setup(tmp_path)
    real_step = trainer_mod.adam_step

    def poisoning_step(params, grads, state, lr, cfg):
        real_step(params, grads, state, lr, cfg)
        if state.t == 2:  # the epoch's last step: its loss was read while still finite
            params["head.bias"].data[0] = np.inf

    monkeypatch.setattr(trainer_mod, "adam_step", poisoning_step)
    out = tmp_path / "run"
    with pytest.raises(NonFiniteError, match="epoch 1: parameter head.bias"):
        train(model, data, bank, TrainConfig(epochs=1, batch_size=8, warmup_epochs=0, mixup_alpha=0.0),
              out_dir=str(out))
    assert os.listdir(out) == []


def test_a_non_finite_loss_stops_the_step_before_its_backward(tmp_path, monkeypatch):
    model, data, bank = tiny_setup(tmp_path)
    backwards = []
    monkeypatch.setattr(InstructionModel, "total_loss",
                        lambda self, out, target: (Tensor(np.float32(np.nan)), np.nan, np.nan))
    monkeypatch.setattr(tensor_mod, "backward", backwards.append)
    out = tmp_path / "run"
    with pytest.raises(NonFiniteError, match=r"^epoch 1, step 1: training loss is nan$"):
        train(model, data, bank, TrainConfig(epochs=1, batch_size=8, warmup_epochs=0, mixup_alpha=0.0),
              out_dir=str(out))
    assert backwards == [] and os.listdir(out) == []


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("depth,select_k", [(1, 0), (0, 1)], ids=["plain", "depth0-select1"])
def test_every_trainable_parameter_gets_a_gradient_at_every_step(tmp_path, monkeypatch, regime, depth, select_k):
    """`narrow` and `concat` pass zeros to the rows they drop, so a loss reaches every parameter.

    With ``select_k=1`` no image of this data keeps its true class, so no
    step's loss has a score term; the prompt projection is still reached.
    """
    _, data, bank = tiny_setup(tmp_path, n_classes=4, n_train=16, n_val=8, seed=2)
    model = InstructionModel(ModelConfig(image_size=8, patch_size=4, channels=3, dim=16, depth=depth, heads=2,
                                         mlp_ratio=2.0, prompt_dim=16, n_classes=4, select_k=select_k,
                                         select_in_training=select_k > 0), seed=1)
    real_backward = tensor_mod.backward
    reached = []

    def recording_backward(loss):
        grads = real_backward(loss)
        reached.append({name for name, p in model.named_parameters() if p in grads})
        return grads

    monkeypatch.setattr(tensor_mod, "backward", recording_backward)
    history = train(model, data, bank, TrainConfig(epochs=1, batch_size=8, warmup_epochs=0, mixup_alpha=0.0,
                                                   regime=regime))
    trainable = {name for name in model.parameter_dict() if name.startswith(TRAINABLE[regime])}
    assert reached == [trainable, trainable]
    assert (history[0].loss_score == 0.0) == (select_k > 0)


def test_a_negative_seed_is_rejected_before_any_flag_changes(tmp_path):
    model, data, bank = tiny_setup(tmp_path)
    before = mixed_flags(model)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        train(model, data, bank, TrainConfig(epochs=1, batch_size=8, warmup_epochs=0, seed=-1),
              out_dir=str(tmp_path / "run"))
    assert requires_grad_flags(model) == before and not (tmp_path / "run").exists()


@pytest.mark.parametrize("select", [False, True])
def test_no_step_graph_outlives_its_step(tmp_path, monkeypatch, select):
    """Every step's graph is freed before the epoch's evaluation starts.

    The loss's backward closure stands for the graph: a name for the loss, or
    for any tensor of the step's forward, keeps it alive.
    """
    model, data, bank = tiny_setup(tmp_path, n_classes=4, n_train=16, n_val=8)
    model = InstructionModel(dataclasses.replace(model.config, select_k=2, select_in_training=select), seed=1)
    losses = []
    real_backward, real_evaluate = tensor_mod.backward, trainer_mod.evaluate

    def keeping_backward(loss):
        losses.append(weakref.ref(loss._backward))
        return real_backward(loss)

    def checking_evaluate(*args, **kwargs):
        assert losses and all(ref() is None for ref in losses)
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(tensor_mod, "backward", keeping_backward)
    monkeypatch.setattr(trainer_mod, "evaluate", checking_evaluate)
    history = train(model, data, bank, TrainConfig(epochs=2, batch_size=8, warmup_epochs=0, mixup_alpha=0.0),
                    out_dir=str(tmp_path / "run"))
    assert len(history) == 2 and len(losses) == 4


@pytest.mark.parametrize("regime", REGIMES)
def test_the_per_epoch_eval_runs_on_frozen_parameters_and_records_no_graph(tmp_path, monkeypatch,
                                                                           recorded_nodes, regime):
    model, data, bank = tiny_setup(tmp_path, n_classes=3, n_train=12, n_val=6)
    real_evaluate = trainer_mod.evaluate
    per_call = []

    def checking_evaluate(*args, **kwargs):
        assert [name for name, p in model.named_parameters() if p.requires_grad] == []
        before = len(recorded_nodes)
        result = real_evaluate(*args, **kwargs)
        per_call.append(len(recorded_nodes) - before)
        return result

    monkeypatch.setattr(trainer_mod, "evaluate", checking_evaluate)
    train(model, data, bank, TrainConfig(epochs=2, batch_size=4, warmup_epochs=0, mixup_alpha=0.0,
                                         regime=regime))
    assert per_call == [0, 0]
    assert recorded_nodes  # the training steps still record theirs


def requires_grad_flags(model):
    return {name: p.requires_grad for name, p in model.named_parameters()}


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("exit", ["return", "early_stop", "eval_raises"])
def test_train_leaves_every_flag_as_apply_freeze_set_it(tmp_path, monkeypatch, regime, exit):
    model, data, bank = tiny_setup(tmp_path)
    expected = {name: name.startswith(TRAINABLE[regime]) for name, _ in model.named_parameters()}
    real_evaluate = trainer_mod.evaluate
    evals = []

    def evaluate_or_raise(*args, **kwargs):
        evals.append(1)
        if exit == "eval_raises":
            raise NonFiniteError("evaluation on the train split: overflow encountered in matmul")
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(trainer_mod, "evaluate", evaluate_or_raise)
    cfg = TrainConfig(epochs=2, batch_size=8, warmup_epochs=0, mixup_alpha=0.0, regime=regime)
    if exit == "eval_raises":
        with pytest.raises(NonFiniteError, match="evaluation on the train split"):
            train(model, data, bank, cfg)
    else:
        history = train(model, data, bank, cfg, stop_at_head_top1=0.0 if exit == "early_stop" else None)
        assert len(history) == len(evals)
    assert len(evals) == (2 if exit == "return" else 1)
    assert requires_grad_flags(model) == expected


def mixed_flags(model):
    """Turn every other parameter's ``requires_grad`` off, so any freeze changes some flag; returns the flags."""
    for i, (_, p) in enumerate(model.named_parameters()):
        p.requires_grad = i % 2 == 0
    return requires_grad_flags(model)


def disagreeing_setup(tmp_path, rule):
    """`tiny_setup` with one agreement rule broken; returns the model, data, bank and the expected message."""
    model, data, bank = tiny_setup(tmp_path)  # 2 classes, 3x8 images, prompt_dim 16
    if rule == "class_list":
        bank = build_text_bank(list(reversed(data.class_names)), 16)
        message = f"dataset classes {data.class_names} do not match bank classes {bank.class_names}"
    elif rule == "head":
        model = InstructionModel(dataclasses.replace(model.config, n_classes=5), seed=1)
        message = "model head has 5 classes, the bank 2"
    elif rule == "geometry":
        model = InstructionModel(dataclasses.replace(model.config, image_size=12), seed=1)
        message = "model image geometry 3x12 does not match dataset 3x8"
    else:
        bank = build_text_bank(data.class_names, 24)
        message = "bank feature width 24 != configured prompt_dim 16"
    return model, data, bank, message


@pytest.mark.parametrize("rule", ["class_list", "head", "geometry", "width"])
def test_disagreeing_inputs_are_rejected_before_any_work(tmp_path, monkeypatch, rule):
    model, data, bank, message = disagreeing_setup(tmp_path, rule)
    forwards = []
    real_forward = InstructionModel.forward

    def counting_forward(self, *args, **kwargs):
        forwards.append(1)
        return real_forward(self, *args, **kwargs)

    monkeypatch.setattr(InstructionModel, "forward", counting_forward)
    before = mixed_flags(model)
    out = tmp_path / "run"
    for select_k in (None, 1):
        with pytest.raises(ConsistencyError) as rejected:
            evaluate(model, data, bank, select_k=select_k)
        assert str(rejected.value) == message
    for regime in REGIMES:
        with pytest.raises(ConsistencyError) as rejected:
            train(model, data, bank, TrainConfig(epochs=1, batch_size=8, warmup_epochs=0, regime=regime),
                  out_dir=str(out))
        assert str(rejected.value) == message
    assert forwards == [] and requires_grad_flags(model) == before and not out.exists()


def per_image_average_loss(model, batch, bank, k, dropout_rng):
    """The selected batch loss written per image: one term per image, then a hand-rolled average."""
    pred_terms, score_terms = [], []
    for i in range(len(batch)):
        sel = select(batch.raw_images[i], bank, k)
        out = model.forward(batch.images[i : i + 1], selected_bank(sel), dropout_rng)
        label = int(batch.hard_labels[i])
        pred_terms.append(model.loss_pred(out.logits, np.array([label])))
        if label in sel.kept_indices:
            score_terms.append(model.loss_score(out.score, np.array([sel.kept_indices.index(label)])))

    def average(terms):
        acc = tensor_mod.scale(terms[0], 1.0 / len(terms))
        for t in terms[1:]:
            acc = tensor_mod.add(acc, tensor_mod.scale(t, 1.0 / len(terms)))
        return acc

    pred = average(pred_terms)
    score = average(score_terms) if score_terms else None
    return model.combine_losses(pred, score), pred.item(), score.item() if score is not None else 0.0


class TestSelectionInTraining:
    def test_ablation_flag_trains(self, tmp_path):
        model, data, bank = tiny_setup(tmp_path, n_classes=4, n_train=16, n_val=8)
        cfg_model = ModelConfig(image_size=8, patch_size=4, channels=3, dim=16, depth=1,
                                heads=2, mlp_ratio=2.0, prompt_dim=16, n_classes=4,
                                select_k=2, select_in_training=True)
        model = InstructionModel(cfg_model, seed=1)
        before = checksums(model, "backbone")
        cfg = TrainConfig(epochs=1, batch_size=8, warmup_epochs=0, mixup_alpha=0.0,
                          peak_lr=1e-3, floor_lr=1e-4, seed=0)
        history = train(model, data, bank, cfg)
        assert len(history) == 1
        assert checksums(model, "backbone") != before

    def test_mixup_clash_rejected(self, tmp_path):
        from ivit.errors import ConfigError

        _, data, bank = tiny_setup(tmp_path, n_classes=4, n_train=16, n_val=8)
        cfg_model = ModelConfig(image_size=8, patch_size=4, channels=3, dim=16, depth=1,
                                heads=2, mlp_ratio=2.0, prompt_dim=16, n_classes=4,
                                select_k=2, select_in_training=True)
        model = InstructionModel(cfg_model, seed=1)
        before = mixed_flags(model)
        with pytest.raises(ConfigError, match="mixup"):
            train(model, data, bank, TrainConfig(epochs=1, batch_size=8, warmup_epochs=0,
                                                 mixup_alpha=0.2), out_dir=str(tmp_path / "run"))
        assert requires_grad_flags(model) == before and not (tmp_path / "run").exists()

    # on this data k=1 keeps no image's class, so the score term is skipped, and k=4 keeps all
    @pytest.mark.parametrize("k,kept_labels", [(1, {False}), (2, {True, False}), (3, {True, False}),
                                               (4, {True})])
    @pytest.mark.parametrize("weights", [(1.0, 1.0), (0.5, 2.0)])
    def test_batch_loss_matches_the_per_image_average(self, tmp_path, k, kept_labels, weights):
        """One loss over the batch's rows gives each row the gradient a per-image average did.

        Parameter gradients agree bit for bit; the loss floats within the
        rounding of a float32 sum over the batch.
        """
        _, data, bank = tiny_setup(tmp_path, n_classes=4, n_train=16, n_val=8, seed=2)
        cfg = ModelConfig(image_size=8, patch_size=4, channels=3, dim=16, depth=1, heads=2,
                          mlp_ratio=2.0, prompt_dim=16, n_classes=4, attn_dropout=0.1,
                          loss_pred_weight=weights[0], loss_score_weight=weights[1])
        model = InstructionModel(cfg, seed=1)
        params = model.parameter_dict()
        kept = set()  # whether each image's class survived the filter
        for batch in data.train_batches(8, rng=np.random.default_rng(5)):
            runs = []
            for batch_loss in (per_image_average_loss, trainer_mod._selected_batch_loss):
                loss, pred, score = batch_loss(model, batch, bank, k, np.random.default_rng(9))
                grads = tensor_mod.backward(loss)
                runs.append(((loss.item(), pred, score), {n: grads[p] for n, p in params.items()}))
            (old_values, old_grads), (new_values, new_grads) = runs
            for name in params:
                assert np.array_equal(new_grads[name], old_grads[name]), name
            np.testing.assert_allclose(new_values, old_values, rtol=len(batch) * np.finfo(np.float32).eps)
            kept |= {int(lab) in select(raw, bank, k).kept_indices
                     for raw, lab in zip(batch.raw_images, batch.hard_labels)}
        assert kept == kept_labels

    def test_requires_select_k(self, tmp_path):
        from ivit.errors import ConfigError

        _, data, bank = tiny_setup(tmp_path, n_classes=4, n_train=16, n_val=8)
        cfg_model = ModelConfig(image_size=8, patch_size=4, channels=3, dim=16, depth=1,
                                heads=2, mlp_ratio=2.0, prompt_dim=16, n_classes=4,
                                select_k=0, select_in_training=True)
        model = InstructionModel(cfg_model, seed=1)
        before = mixed_flags(model)
        with pytest.raises(ConfigError, match="select_k"):
            train(model, data, bank, TrainConfig(epochs=1, batch_size=8, warmup_epochs=0,
                                                 mixup_alpha=0.0), out_dir=str(tmp_path / "run"))
        assert requires_grad_flags(model) == before and not (tmp_path / "run").exists()


class TestAttentionDropout:
    """Dropout reaches the model only through a forward's ``dropout_rng`` argument."""

    def make(self, dropout):
        cfg = ModelConfig(image_size=8, patch_size=4, channels=3, dim=16, depth=1, heads=2,
                          mlp_ratio=2.0, prompt_dim=8, n_classes=2, attn_dropout=dropout)
        model = InstructionModel(cfg, seed=0)
        prompts = build_text_bank(["a", "b"], 8).features
        images = np.random.default_rng(1).normal(size=(2, 3, 8, 8)).astype(np.float32)
        return model, prompts, images

    def test_training_mode_perturbs_forward(self):
        model, prompts, images = self.make(dropout=0.5)
        base = model.forward(images, prompts).logits.data
        dropped = model.forward(images, prompts, dropout_rng=np.random.default_rng(2)).logits.data
        assert not np.array_equal(base, dropped)

    def test_eval_mode_unaffected(self):
        model, prompts, images = self.make(dropout=0.5)
        a = model.forward(images, prompts).logits.data
        model.forward(images, prompts, dropout_rng=np.random.default_rng(2))  # leaves nothing behind
        b = model.forward(images, prompts).logits.data
        assert np.array_equal(a, b)

    def test_default_zero_ignores_rng(self):
        model, prompts, images = self.make(dropout=0.0)
        base = model.forward(images, prompts).logits.data
        rng = np.random.default_rng(2)
        assert np.array_equal(model.forward(images, prompts, dropout_rng=rng).logits.data, base)
        assert rng.random() == np.random.default_rng(2).random()  # no draw was taken


def test_train_and_evaluate_leave_the_model_holding_parameters_only(tmp_path):
    model, data, bank = tiny_setup(tmp_path, n_classes=3, n_train=12, n_val=6)
    attrs = {id(obj): dict(vars(obj)) for obj in (model, model.backbone)}
    train(model, data, bank, TrainConfig(epochs=1, batch_size=4, warmup_epochs=0, mixup_alpha=0.2))
    evaluate(model, data, bank, split="val", batch_size=4)
    evaluate(model, data, bank, select_k=1, split="val", batch_size=4)
    for obj in (model, model.backbone):
        after = vars(obj)
        assert after.keys() == attrs[id(obj)].keys()
        assert all(after[k] is v for k, v in attrs[id(obj)].items())
    # no bank from those calls leaks into a later forward
    out = model.forward(data.val_images[:2].astype(np.float32), np.zeros((0, bank.dim)))
    assert out.score.shape == (2, 0)


class TestEvaluate:
    def test_untrained_accuracy_near_chance(self, tmp_path):
        out = tmp_path / "big"
        ds.generate_synthetic(out, n_classes=8, n_train=8, n_val=1024, image_size=8,
                              channels=3, seed=3)
        data = ds.load(out)
        bank = build_text_bank(data.class_names, 16)
        cfg = ModelConfig(image_size=8, patch_size=4, channels=3, dim=16, depth=1, heads=2,
                          mlp_ratio=2.0, prompt_dim=16, n_classes=8)
        model = InstructionModel(cfg, seed=9)
        metrics = evaluate(model, data, bank, split="val")
        assert metrics.n_samples == 1024
        assert abs(metrics.head_top1 - 1 / 8) <= 0.05

    def test_select_k_at_least_n_equals_plain_eval(self, tmp_path):
        model, data, bank = tiny_setup(tmp_path)
        plain = evaluate(model, data, bank, split="val")
        degenerate = evaluate(model, data, bank, select_k=2, split="val")
        huge = evaluate(model, data, bank, select_k=99, split="val")
        assert degenerate == plain == huge

    def test_selection_path_runs(self, tmp_path):
        model, data, bank = tiny_setup(tmp_path, n_classes=4, n_train=16, n_val=8, dim=16)
        metrics = evaluate(model, data, bank, select_k=2, split="val")
        assert 0.0 <= metrics.head_top1 <= 1.0
        assert 0.0 <= metrics.score_top1 <= 1.0

    def test_thread_cap_respected(self, tmp_path, monkeypatch):
        model, data, bank = tiny_setup(tmp_path, n_classes=4)
        results = {}
        for threads in ("1", "4"):
            monkeypatch.setenv("IVIT_THREADS", threads)
            plain = evaluate(model, data, bank, split="val", batch_size=2)
            selected = evaluate(model, data, bank, select_k=2, split="val", batch_size=2)
            results[threads] = (plain, selected)
        assert results["1"] == results["4"]

    @pytest.mark.parametrize("threads, batch_size", [("8", 2), ("2", 7), ("3", 7), ("3", 64)])
    def test_the_pool_holds_no_more_than_batch_size_images_whatever_the_cap(self, tmp_path, monkeypatch,
                                                                            threads, batch_size):
        model, data, bank = tiny_setup(tmp_path, n_classes=4, n_val=64)
        lock = threading.Lock()
        held, peak = [0, 0], [0, 0]  # [images, forwards]
        inner = model.forward

        def spy(images, *args, **kwargs):
            with lock:
                held[0] += len(images)
                held[1] += 1
                peak[:] = max(peak[0], held[0]), max(peak[1], held[1])
            try:
                time.sleep(0.05)  # long enough for every free worker to start its own forward
                return inner(images, *args, **kwargs)
            finally:
                with lock:
                    held[0] -= len(images)
                    held[1] -= 1

        monkeypatch.setattr(model, "forward", spy)
        monkeypatch.setenv("IVIT_THREADS", threads)
        evaluate(model, data, bank, split="val", batch_size=batch_size)
        assert peak[0] <= batch_size
        assert peak[1] == min(int(threads), batch_size)  # and no worker idles

    @pytest.mark.parametrize("threads, batch_size, forwards", [
        ("1", 7, [7] * 5 + [5]),
        ("2", 7, [3] * 13 + [1]),
        ("3", 7, [2] * 20),
        ("4", 12, [3] * 13 + [1]),
        ("4", 64, [16, 16, 8]),
        ("2", 80, [40]),
    ])
    def test_the_pool_splits_batches_into_floor_batch_size_over_workers(self, tmp_path, monkeypatch,
                                                                       threads, batch_size, forwards):
        model, data, bank = tiny_setup(tmp_path, n_classes=4, n_val=40)
        seen = []  # (images, ran on a pool thread); list.append is atomic
        inner = trainer_mod._hits

        def spy(out, labels, classes):
            seen.append((len(labels), threading.get_ident() != threading.main_thread().ident))
            return inner(out, labels, classes)

        monkeypatch.setattr(trainer_mod, "_hits", spy)
        monkeypatch.setenv("IVIT_THREADS", threads)
        evaluate(model, data, bank, split="val", batch_size=batch_size)
        assert sorted(seen) == sorted((n, True) for n in forwards)

    def test_the_per_epoch_eval_runs_at_evaluates_default_batch_size(self, tmp_path, monkeypatch):
        model, data, bank = tiny_setup(tmp_path, n_classes=4, n_train=16)
        seen = []
        inner = trainer_mod._hits

        def spy(out, labels, classes):
            seen.append(len(labels))
            return inner(out, labels, classes)

        monkeypatch.setattr(trainer_mod, "_hits", spy)
        monkeypatch.setenv("IVIT_THREADS", "1")
        train(model, data, bank, TrainConfig(epochs=2, batch_size=4, warmup_epochs=0, mixup_alpha=0.0))
        assert seen == [16, 16]  # one forward of the whole split per epoch, not four of the step's 4

    @pytest.mark.parametrize("batch_size", [12, 7])
    def test_metrics_are_the_same_for_every_thread_cap(self, tmp_path, monkeypatch, batch_size):
        model, data, bank = tiny_setup(tmp_path, n_classes=4, n_val=40, noise_std=0.5)
        results = []
        for threads in "1234":
            monkeypatch.setenv("IVIT_THREADS", threads)
            results.append(evaluate(model, data, bank, split="val", batch_size=batch_size))
        assert results == [results[0]] * 4

    def test_head_class_count_must_match_the_bank(self, tmp_path):
        _, data, bank = tiny_setup(tmp_path)
        cfg = ModelConfig(image_size=8, patch_size=4, channels=3, dim=16, depth=1, heads=2,
                          mlp_ratio=2.0, prompt_dim=16, n_classes=5)
        model = InstructionModel(cfg, seed=1)
        for select_k in (None, 1):
            with pytest.raises(ConsistencyError, match="model head has 5 classes, the bank 2"):
                evaluate(model, data, bank, select_k=select_k)

    @pytest.mark.parametrize("mixup_alpha", [0.0, 0.4])
    def test_train_checks_the_head_class_count_before_its_first_step(self, tmp_path, monkeypatch, mixup_alpha):
        _, data, bank = tiny_setup(tmp_path)
        cfg = ModelConfig(image_size=8, patch_size=4, channels=3, dim=16, depth=1, heads=2,
                          mlp_ratio=2.0, prompt_dim=16, n_classes=5)
        steps = []
        step = trainer_mod._train_step

        def spy(*args):
            steps.append(args)
            return step(*args)

        monkeypatch.setattr(trainer_mod, "_train_step", spy)
        out = tmp_path / "run"
        with pytest.raises(ConsistencyError, match="model head has 5 classes, the bank 2"):
            train(InstructionModel(cfg, seed=1), data, bank,
                  TrainConfig(epochs=1, batch_size=8, warmup_epochs=0, mixup_alpha=mixup_alpha),
                  out_dir=str(out))
        assert steps == []
        assert not out.exists()

    def test_selected_eval_runs_in_calling_thread(self, tmp_path, monkeypatch):
        model, data, bank = tiny_setup(tmp_path, n_classes=4)
        threads = []
        inner = trainer_mod._hits

        def spy(*args):
            threads.append(threading.get_ident())
            return inner(*args)

        monkeypatch.setattr(trainer_mod, "_hits", spy)
        monkeypatch.setenv("IVIT_THREADS", "4")
        evaluate(model, data, bank, select_k=2, split="val", batch_size=2)
        # one count per image, each from its own forward
        assert threads == [threading.get_ident()] * data.meta.n_val

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflow_raises_non_finite_error(self, tmp_path, monkeypatch, threads):
        # plain evaluation runs on the pool, whose threads start with numpy's defaults
        model, data, bank = tiny_setup(tmp_path, n_classes=4)
        model.backbone.blocks[0].fc1.weight.data[...] = 1e30
        monkeypatch.setenv("IVIT_THREADS", threads)
        for select_k in (None, 2):
            with pytest.raises(NonFiniteError, match="evaluation on the val split: overflow"):
                evaluate(model, data, bank, select_k=select_k, split="val", batch_size=2)

    @pytest.mark.parametrize("batch_size", [0, -1, 2.5, True, "2", None])
    def test_bad_batch_size_names_it(self, tmp_path, batch_size):
        model, data, bank = tiny_setup(tmp_path)
        for select_k in (None, 1):
            with pytest.raises(ValueError, match="batch_size"):
                evaluate(model, data, bank, select_k=select_k, split="val", batch_size=batch_size)
        with pytest.raises(ValueError, match="batch_size"):
            data.train_batches(batch_size)

    def test_unknown_split_rejected(self, tmp_path):
        model, data, bank = tiny_setup(tmp_path)
        with pytest.raises(ValueError, match=r"^unknown split 'test'$"):
            evaluate(model, data, bank, split="test")

    def test_numpy_integer_batch_size_batches_as_an_int(self, tmp_path):
        model, data, bank = tiny_setup(tmp_path)
        assert evaluate(model, data, bank, batch_size=np.int64(3)) == evaluate(model, data, bank, batch_size=3)

    @pytest.mark.parametrize("raw", ["0", "-2", "abc", "1.5"])
    def test_bad_thread_cap_names_the_variable(self, tmp_path, monkeypatch, raw):
        model, data, bank = tiny_setup(tmp_path)
        monkeypatch.setenv("IVIT_THREADS", raw)
        for select_k in (None, 1):
            with pytest.raises(ConfigError, match="IVIT_THREADS"):
                evaluate(model, data, bank, select_k=select_k, split="val")
        before = checksums(model, "")
        with pytest.raises(ConfigError, match="IVIT_THREADS"):
            train(model, data, bank, TrainConfig(epochs=1, batch_size=8, warmup_epochs=0))
        assert checksums(model, "") == before  # rejected before the first step


def test_default_worker_count_is_the_affinity_mask_not_the_host_cores(monkeypatch):
    monkeypatch.delenv("IVIT_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert trainer_mod._eval_workers() == 2


def test_default_worker_count_falls_back_to_cpu_count_without_affinity(monkeypatch):
    monkeypatch.delenv("IVIT_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert trainer_mod._eval_workers() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert trainer_mod._eval_workers() == 1


@pytest.fixture()
def blas_at_two_threads():
    """numpy's OpenBLAS at two threads for the test, so a drop to one shows."""
    blas = _blas.bundled_openblas()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS is not found on this platform")
    before = blas.get_num_threads()
    blas.set_num_threads(2)
    try:
        yield blas
    finally:
        blas.set_num_threads(before)


class TestEvalBlasThreads:
    def test_only_pool_workers_run_single_threaded_blas(self, tmp_path, monkeypatch,
                                                        blas_at_two_threads):
        model, data, bank = tiny_setup(tmp_path, n_classes=4)
        seen = []  # (thread, BLAS threads, name); list.append is atomic
        for name in ("_hits", "_selected_forwards"):
            def spy(*args, inner=getattr(trainer_mod, name), path=name):
                seen.append((threading.get_ident(), blas_at_two_threads.get_num_threads(), path))
                return inner(*args)

            monkeypatch.setattr(trainer_mod, name, spy)

        def run(threads, select_k=None):
            seen.clear()
            monkeypatch.setenv("IVIT_THREADS", threads)
            evaluate(model, data, bank, select_k=select_k, split="val", batch_size=2)
            return {(t == threading.get_ident(), n, path) for t, n, path in seen}

        assert run("4") == {(False, 1, "_hits")}
        assert run("1") == {(False, 1, "_hits")}
        assert run("4", select_k=2) == {(True, 2, "_selected_forwards"), (True, 2, "_hits")}

    def test_calling_thread_count_survives_evaluate_and_train(self, tmp_path, monkeypatch,
                                                              blas_at_two_threads):
        model, data, bank = tiny_setup(tmp_path, n_classes=4, n_train=32)
        monkeypatch.setenv("IVIT_THREADS", "4")
        evaluate(model, data, bank, split="val", batch_size=2)
        assert blas_at_two_threads.get_num_threads() == 2
        # the per-epoch eval runs on the pool as well
        train(model, data, bank, TrainConfig(epochs=1, batch_size=2, warmup_epochs=0,
                                             mixup_alpha=0.0))
        assert blas_at_two_threads.get_num_threads() == 2

    def test_every_training_step_runs_single_threaded_blas(self, tmp_path, monkeypatch,
                                                           blas_at_two_threads):
        model, data, bank = tiny_setup(tmp_path, n_classes=4)
        seen = []
        inner = trainer_mod._train_step

        def spy(*args):
            seen.append(blas_at_two_threads.get_num_threads())
            return inner(*args)

        monkeypatch.setattr(trainer_mod, "_train_step", spy)
        monkeypatch.setenv("IVIT_THREADS", "1")
        train(model, data, bank, TrainConfig(epochs=2, batch_size=4, warmup_epochs=0, mixup_alpha=0.0))
        assert seen == [1] * 8
        assert blas_at_two_threads.get_num_threads() == 2

    def test_overlapping_blocks_restore_the_count_once(self, blas_at_two_threads):
        with _blas.single_threaded():
            with _blas.single_threaded():
                assert blas_at_two_threads.get_num_threads() == 1
            assert blas_at_two_threads.get_num_threads() == 1
        assert blas_at_two_threads.get_num_threads() == 2

    def test_concurrent_blocks_hold_one_thread_and_restore_the_count(self, blas_at_two_threads):
        inside = []  # the count each block saw; list.append is atomic

        def enter_many():
            for _ in range(200):
                with _blas.single_threaded():
                    inside.append(blas_at_two_threads.get_num_threads())

        threads = [threading.Thread(target=enter_many) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(inside) == 8 * 200 and set(inside) == {1}
        assert blas_at_two_threads.get_num_threads() == 2

    def test_results_equal_without_the_binding(self, tmp_path, monkeypatch):
        model, data, bank = tiny_setup(tmp_path, n_classes=4)

        def run():
            out = {}
            for threads in ("1", "4"):
                monkeypatch.setenv("IVIT_THREADS", threads)
                out[threads] = (evaluate(model, data, bank, split="val", batch_size=2),
                                evaluate(model, data, bank, select_k=2, split="val", batch_size=2))
            return out

        bound = run()
        monkeypatch.setattr(_blas, "bundled_openblas", lambda: None)
        assert run() == bound
        assert bound["1"] == bound["4"]

    def test_missing_library_or_symbols_bind_nothing(self, tmp_path, monkeypatch):
        assert _blas.find_openblas(str(tmp_path)) is None
        (tmp_path / "libopenblas_broken.so").write_bytes(b"not a shared object")
        # a loadable library without the OpenBLAS symbols
        os.symlink(_ctypes.__file__, tmp_path / "libopenblas_other.so")
        assert _blas.find_openblas(str(tmp_path)) is None
        monkeypatch.setattr(_blas, "bundled_openblas", lambda: None)
        with _blas.single_threaded():
            pass
