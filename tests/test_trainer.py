"""Training loop contracts: schedule, Adam, mixup, freeze regimes, metrics."""

import _ctypes
import hashlib
import os
import sys
import threading

import numpy as np
import pytest

from ivit import _blas
from ivit import dataset as ds
from ivit import trainer as trainer_mod
from ivit.config import ModelConfig, TrainConfig
from ivit.errors import ConfigError, ConsistencyError, NonFiniteError
from ivit.model import InstructionModel
from ivit.prompts import build_text_bank
from ivit.tensor import Tensor
from ivit.trainer import (
    AdamState,
    EpochMetrics,
    FreezePolicy,
    METRICS_HEADER,
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


class _HalfRng:
    def beta(self, a, b):
        return 0.5


class TestMixup:
    def make_batches(self):
        a = ds.LabeledBatch(images=Tensor(np.zeros((4, 1, 2, 2))), hard_labels=np.array([0, 1, 0, 1]),
                            raw_images=np.zeros((4, 1, 2, 2)))
        b = ds.LabeledBatch(images=Tensor(np.ones((4, 1, 2, 2))), hard_labels=np.array([1, 1, 0, 0]),
                            raw_images=np.ones((4, 1, 2, 2)))
        return a, b

    def test_alpha_zero_returns_first_batch(self):
        a, b = self.make_batches()
        out = mixup(a, b, 0.0, np.random.default_rng(0), n_classes=2)
        np.testing.assert_array_equal(out.images.data, a.images.data)
        np.testing.assert_array_equal(out.soft_labels, np.eye(2)[a.hard_labels])

    def test_half_lambda_mixes_pixels(self):
        a, b = self.make_batches()
        out = mixup(a, b, 0.2, _HalfRng(), n_classes=2)
        np.testing.assert_allclose(out.images.data, 0.5)

    def test_soft_rows_sum_to_one(self):
        a, b = self.make_batches()
        rng = np.random.default_rng(3)
        for _ in range(10):
            out = mixup(a, b, 0.4, rng, n_classes=2)
            np.testing.assert_allclose(out.soft_labels.sum(axis=1), 1.0, atol=1e-6)

    def test_retains_both_label_sets_and_lambda(self):
        a, b = self.make_batches()
        out = mixup(a, b, 0.2, _HalfRng(), n_classes=2)
        np.testing.assert_array_equal(out.hard_labels, a.hard_labels)
        # the partner labels and lambda live in the soft labels
        np.testing.assert_array_equal(out.soft_labels,
                                      0.5 * np.eye(2)[a.hard_labels] + 0.5 * np.eye(2)[b.hard_labels])


def checksums(model, prefix):
    return {
        name: hashlib.sha256(p.data.tobytes()).hexdigest()
        for name, p in model.named_parameters()
        if name.startswith(prefix)
    }


class TestRegimes:
    def test_policy_sets(self):
        assert FreezePolicy.for_regime("prompt_tuning").trainable_prefixes == {"head", "prompt_embed"}
        full = FreezePolicy.for_regime("full")
        assert full.is_trainable("backbone.blocks.0.attn.wq.weight")

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
        _, n_train, n_total = apply_freeze(model, FreezePolicy.for_regime("prompt_tuning"))
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
        with pytest.raises(ConfigError, match="mixup"):
            train(model, data, bank, TrainConfig(epochs=1, batch_size=8, warmup_epochs=0,
                                                 mixup_alpha=0.2))

    def test_requires_select_k(self, tmp_path):
        from ivit.errors import ConfigError

        _, data, bank = tiny_setup(tmp_path, n_classes=4, n_train=16, n_val=8)
        cfg_model = ModelConfig(image_size=8, patch_size=4, channels=3, dim=16, depth=1,
                                heads=2, mlp_ratio=2.0, prompt_dim=16, n_classes=4,
                                select_k=0, select_in_training=True)
        model = InstructionModel(cfg_model, seed=1)
        with pytest.raises(ConfigError, match="select_k"):
            train(model, data, bank, TrainConfig(epochs=1, batch_size=8, warmup_epochs=0,
                                                 mixup_alpha=0.0))


class TestAttentionDropout:
    def make(self, dropout):
        cfg = ModelConfig(image_size=8, patch_size=4, channels=3, dim=16, depth=1, heads=2,
                          mlp_ratio=2.0, prompt_dim=8, n_classes=2, attn_dropout=dropout)
        model = InstructionModel(cfg, seed=0)
        bank = build_text_bank(["a", "b"], 8)
        model.set_bank(bank)
        images = Tensor(np.random.default_rng(1).normal(size=(2, 3, 8, 8)).astype(np.float32))
        return model, images

    def test_training_mode_perturbs_forward(self):
        model, images = self.make(dropout=0.5)
        base = model.forward(images).logits.data.copy()
        model.set_training(True, dropout_rng=np.random.default_rng(2))
        dropped = model.forward(images).logits.data
        assert not np.array_equal(base, dropped)

    def test_eval_mode_unaffected(self):
        model, images = self.make(dropout=0.5)
        a = model.forward(images).logits.data
        b = model.forward(images).logits.data
        assert np.array_equal(a, b)

    def test_default_zero_ignores_rng(self):
        model, images = self.make(dropout=0.0)
        base = model.forward(images).logits.data.copy()
        model.set_training(True, dropout_rng=np.random.default_rng(2))
        assert np.array_equal(model.forward(images).logits.data, base)


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
        # batch_size 2 gives four val batches, so the plain path uses the pool
        model, data, bank = tiny_setup(tmp_path, n_classes=4)
        results = {}
        for threads in ("1", "4"):
            monkeypatch.setenv("IVIT_THREADS", threads)
            plain = evaluate(model, data, bank, split="val", batch_size=2)
            selected = evaluate(model, data, bank, select_k=2, split="val", batch_size=2)
            results[threads] = (plain, selected)
        assert results["1"] == results["4"]

    def test_selected_eval_runs_in_calling_thread(self, tmp_path, monkeypatch):
        model, data, bank = tiny_setup(tmp_path, n_classes=4)
        threads = set()
        inner = trainer_mod._eval_batch_selected

        def spy(*args):
            threads.add(threading.get_ident())
            return inner(*args)

        monkeypatch.setattr(trainer_mod, "_eval_batch_selected", spy)
        monkeypatch.setenv("IVIT_THREADS", "4")
        evaluate(model, data, bank, select_k=2, split="val", batch_size=2)
        assert threads == {threading.get_ident()}

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
        seen = []  # (thread, BLAS threads, path); list.append is atomic
        for name in ("_eval_batch_plain", "_eval_batch_selected"):
            def spy(*args, inner=getattr(trainer_mod, name), path=name):
                seen.append((threading.get_ident(), blas_at_two_threads.get_num_threads(), path))
                return inner(*args)

            monkeypatch.setattr(trainer_mod, name, spy)

        def run(threads, select_k=None):
            seen.clear()
            monkeypatch.setenv("IVIT_THREADS", threads)
            evaluate(model, data, bank, select_k=select_k, split="val", batch_size=2)
            return {(t == threading.get_ident(), n, path) for t, n, path in seen}

        assert run("4") == {(False, 1, "_eval_batch_plain")}
        assert run("1") == {(True, 2, "_eval_batch_plain")}
        assert run("4", select_k=2) == {(True, 2, "_eval_batch_selected")}

    def test_calling_thread_count_survives_evaluate_and_train(self, tmp_path, monkeypatch,
                                                              blas_at_two_threads):
        model, data, bank = tiny_setup(tmp_path, n_classes=4)
        monkeypatch.setenv("IVIT_THREADS", "4")
        evaluate(model, data, bank, split="val", batch_size=2)
        assert blas_at_two_threads.get_num_threads() == 2
        # batch_size 2 sends the per-epoch eval through the pool as well
        train(model, data, bank, TrainConfig(epochs=1, batch_size=2, warmup_epochs=0,
                                             mixup_alpha=0.0))
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
