"""CLI behavior: exit codes, output contracts, end-to-end command chains.

Everything drives `ivit.cli.main` in-process so exit codes are asserted
directly.
"""

import math
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from ivit import cli as cli_mod
from ivit import dataset as ds
from ivit import tensor as T
from ivit.checkpoint import save_checkpoint
from ivit.cli import main
from ivit.config import ModelConfig, parse_run_config, run_config_defaults
from ivit.model import InstructionModel
from ivit.prompts import load_bank


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def data_dir(tmp_path):
    out = tmp_path / "data"
    code = main(["gen-data", "--out", str(out), "--classes", "4", "--train", "32",
                 "--val", "16", "--size", "8", "--seed", "7"])
    assert code == 0
    return out


@pytest.fixture()
def bank_path(tmp_path, data_dir):
    out = tmp_path / "bank.ivpb"
    code = main(["build-bank", "--data", str(data_dir), "--modality", "text",
                 "--dim", "16", "--out", str(out)])
    assert code == 0
    return out


def untrained_checkpoint(path, **params):
    """A fresh model's checkpoint that fits ``data_dir`` and ``bank_path``, ``params`` overwritten."""
    model = InstructionModel(ModelConfig(image_size=8, patch_size=4, dim=16, depth=1, heads=2,
                                         mlp_ratio=2.0, prompt_dim=16, n_classes=4))
    own = model.parameter_dict()
    for name, value in params.items():
        own[name].data[...] = value
    save_checkpoint(path, model)
    return path


def rewrite_first_shape(path, ndim, dims):
    """Give a checkpoint's first parameter entry the shape header ``ndim, dims`` and no data."""
    blob = path.read_bytes()
    (echo_len,) = struct.unpack_from("<I", blob, 8)
    off = 12 + echo_len + 12  # past the echo, the u64 step and the u32 count
    (name_len,) = struct.unpack_from("<H", blob, off)
    head = off + 2 + name_len
    old_dims = struct.unpack_from(f"<{blob[head]}I", blob, head + 1)
    end = head + 1 + 4 * len(old_dims) + 4 * math.prod(old_dims)
    path.write_bytes(blob[:head] + struct.pack(f"<B{ndim}I", ndim, *dims) + blob[end:])


def fast_config(tmp_path, **overrides):
    values = {"epochs": 2, "batch_size": 8, "warmup_epochs": 1, "mixup_alpha": 0.0,
              "image_size": 8, "patch_size": 4, "dim": 16, "depth": 1, "heads": 2,
              "mlp_ratio": 2.0, "peak_lr": 1e-3, "floor_lr": 1e-4}
    values.update(overrides)
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    return path


class TestGenData:
    def test_repeat_is_identical(self, tmp_path, capsys):
        args = ["--classes", "4", "--train", "16", "--val", "8", "--size", "8", "--seed", "1"]
        code, out, _ = run(capsys, "gen-data", "--out", str(tmp_path / "a"), *args)
        assert code == 0 and "4 classes" in out
        run(capsys, "gen-data", "--out", str(tmp_path / "b"), *args)
        for f in sorted(os.listdir(tmp_path / "a")):
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()

    def test_zero_classes_is_argument_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "x"), "--classes", "0",
                           "--train", "16", "--val", "8")
        assert code == 2
        assert "positive" in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--noise-std", "nan", "noise_std must be finite and >= 0, got nan"),
        ("--noise-std", "-1", "noise_std must be finite and >= 0, got -1.0"),
        ("--noise-std", "inf", "noise_std must be finite and >= 0, got inf"),
        ("--channels", "0", "channels must be positive, got 0"),
        ("--seed", "-1", "--seed must be >= 0, got -1"),
    ])
    def test_bad_value_is_argument_error_and_writes_nothing(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "x"
        code, _, err = run(capsys, "gen-data", "--out", str(out), "--classes", "2",
                           "--train", "4", "--val", "2", "--size", "8", flag, value)
        assert (code, err) == (2, f"error: {message}\n")
        assert not out.exists()


class TestBuildBank:
    def test_text_bank_source(self, tmp_path, data_dir, capsys):
        out = tmp_path / "t.ivpb"
        code, msg, _ = run(capsys, "build-bank", "--data", str(data_dir), "--modality", "text",
                           "--dim", "16", "--out", str(out))
        assert code == 0 and "text bank" in msg
        bank = load_bank(out)
        assert bank.modality == "text"

    def test_mixed_rows_are_means(self, tmp_path, data_dir):
        paths = {}
        for modality in ("text", "image", "mixed"):
            p = tmp_path / f"{modality}.ivpb"
            assert main(["build-bank", "--data", str(data_dir), "--modality", modality,
                         "--dim", "16", "--seed", "3", "--out", str(p)]) == 0
            paths[modality] = p
        text = load_bank(paths["text"]).features
        image = load_bank(paths["image"]).features
        mixed = load_bank(paths["mixed"]).features
        np.testing.assert_allclose(mixed, (text + image) / 2.0, atol=1e-6)

    def test_unknown_modality(self, tmp_path, data_dir, capsys):
        with pytest.raises(SystemExit) as exit_info:  # argparse rejects it as an invalid choice
            main(["build-bank", "--data", str(data_dir), "--modality", "audio",
                  "--dim", "16", "--out", str(tmp_path / "x.ivpb")])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2 and "audio" in err and "error:" in err

    @pytest.mark.parametrize("modality", ["text", "image", "mixed"])
    def test_zero_width_is_argument_error(self, tmp_path, data_dir, capsys, modality):
        out = tmp_path / "x.ivpb"
        code, _, err = run(capsys, "build-bank", "--data", str(data_dir), "--modality", modality,
                           "--dim", "0", "--out", str(out))
        assert code == 2
        assert err == "error: prompt feature width must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("dim", [2**64, 2**63 - 1, 10**399], ids=["2**64", "2**63-1", "400-digits"])
    @pytest.mark.parametrize("modality", ["text", "image"])
    def test_width_numpy_cannot_index_is_argument_error_naming_it(self, tmp_path, data_dir, capsys,
                                                                 modality, dim):
        out = tmp_path / "x.ivpb"
        code, _, err = run(capsys, "build-bank", "--data", str(data_dir), "--modality", modality,
                           "--dim", str(dim), "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: prompt feature width {dim} is too large: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("modality", ["image", "mixed"])
    def test_seed_outside_u64_is_argument_error(self, tmp_path, data_dir, capsys, modality):
        out = tmp_path / "x.ivpb"
        code, _, err = run(capsys, "build-bank", "--data", str(data_dir), "--modality", modality,
                           "--dim", "16", "--seed", str(2**64), "--out", str(out))
        assert (code, err) == (2, f"error: bank seed must lie in [0, 2**64), got {2**64}\n")
        assert not out.exists()

    @pytest.mark.parametrize("modality,seed", [("text", -5), ("text", 2**64), ("image", -1), ("mixed", -1)])
    def test_seed_outside_u64_is_argument_error_for_every_modality(self, tmp_path, data_dir, capsys,
                                                                  modality, seed):
        out = tmp_path / "x.ivpb"
        code, _, err = run(capsys, "build-bank", "--data", str(data_dir), "--modality", modality,
                           "--dim", "16", "--seed", str(seed), "--out", str(out))
        assert (code, err) == (2, f"error: bank seed must lie in [0, 2**64), got {seed}\n")
        assert not out.exists()

    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "build-bank", "--data", str(tmp_path / "nope"),
                         "--modality", "text", "--dim", "16", "--out", str(tmp_path / "x.ivpb"))
        assert code == 3


class TestMetaFaults:
    """Every malformed ``meta.txt`` is a file-format error (exit 3) with one ``error:`` line."""

    @staticmethod
    def build_bank(capsys, tmp_path, data_dir):
        return run(capsys, "build-bank", "--data", str(data_dir), "--modality", "text",
                   "--dim", "16", "--out", str(tmp_path / "x.ivpb"))

    @pytest.mark.parametrize("key,value,message", [
        ("n_train", "four", "meta.txt holds a non-numeric value: invalid literal for int()"),
        ("n_classes", "4.0", "meta.txt holds a non-numeric value: invalid literal for int()"),
        ("n_val", "0", "meta.txt: counts and dims must be positive, got [4, 32, 0, 8, 3]"),
        ("mean", "nan", "meta.txt: mean must be finite, got nan"),
        ("mean", "-inf", "meta.txt: mean must be finite, got -inf"),
        ("std", "0.0", "meta.txt: std must be finite and > 0, got 0.0"),
        ("std", "-1", "meta.txt: std must be finite and > 0, got -1.0"),
        ("std", "inf", "meta.txt: std must be finite and > 0, got inf"),
        ("std", "nan", "meta.txt: std must be finite and > 0, got nan"),
    ])
    def test_bad_value_exits_3(self, tmp_path, data_dir, capsys, key, value, message):
        meta = data_dir / "meta.txt"
        text, n = re.subn(rf"^{key}=.*$", f"{key}={value}", meta.read_text(), flags=re.M)
        assert n == 1
        meta.write_text(text)
        code, out, err = self.build_bank(capsys, tmp_path, data_dir)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("line,message", [
        ("garbage line", "meta.txt line 9 is not key=value for one of n_classes, n_train, n_val, image_size, "
                         "channels, seed, mean, std: 'garbage line'"),
        ("noise=3", "meta.txt line 9 is not key=value for one of n_classes, n_train, n_val, image_size, "
                    "channels, seed, mean, std: 'noise=3'"),
        ("n_classes=2", "meta.txt line 9 repeats key 'n_classes'"),
    ], ids=["garbage", "unknown-key", "repeated-key"])
    def test_line_before_classes_that_is_no_new_key_exits_3(self, tmp_path, data_dir, capsys, line, message):
        meta = data_dir / "meta.txt"
        text = meta.read_text()
        assert text.splitlines().index("[classes]") == 8
        meta.write_text(text.replace("\n[classes]\n", f"\n{line}\n[classes]\n"))
        code, out, err = self.build_bank(capsys, tmp_path, data_dir)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_not_utf8_exits_3(self, tmp_path, data_dir, capsys):
        meta = data_dir / "meta.txt"
        meta.write_bytes(meta.read_bytes().replace(b"heron", b"her\xffn"))
        code, out, err = self.build_bank(capsys, tmp_path, data_dir)
        assert (code, out) == (3, "")
        assert err.startswith("error: meta.txt is not UTF-8") and err.count("\n") == 1

    def test_class_names_short_of_n_classes_exits_3(self, tmp_path, data_dir, capsys):
        meta = data_dir / "meta.txt"
        text = meta.read_text()
        assert text.endswith("\nfern\n")
        meta.write_text(text[: -len("fern\n")])
        code, out, err = self.build_bank(capsys, tmp_path, data_dir)
        assert (code, out) == (3, "")
        assert err == "error: meta.txt: 3 class names for 4 classes\n"


def test_bank_name_table_not_utf8_exits_3(tmp_path, data_dir, bank_path, capsys):
    blob = bytearray(bank_path.read_bytes())
    assert blob.endswith(b"fern")
    blob[-1] = 0xFF
    bank_path.write_bytes(bytes(blob))
    code, out, err = run(capsys, "eval", "--data", str(data_dir), "--bank", str(bank_path),
                         "--checkpoint", str(untrained_checkpoint(tmp_path / "m.ckpt")))
    assert (code, out) == (3, "")
    assert err.startswith("error: name 3 of the name table is not UTF-8")


@pytest.mark.parametrize("command", ["train", "eval"])
def test_bank_of_zero_feature_width_exits_3(tmp_path, data_dir, bank_path, capsys, command):
    blob = bank_path.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 9)
    # D_p = 0 and no feature rows, the name table kept
    bank_path.write_bytes(blob[:13] + struct.pack("<I", 0) + blob[17:25] + blob[25 + n * 16 * 4:])
    args = (["--config", str(fast_config(tmp_path)), "--out", str(tmp_path / "run")] if command == "train"
            else ["--checkpoint", str(untrained_checkpoint(tmp_path / "m.ckpt"))])
    code, out, err = run(capsys, command, "--data", str(data_dir), "--bank", str(bank_path), *args)
    assert (code, out) == (3, "")
    assert err == f"error: bank {bank_path}: prompt feature width must be positive\n"


def test_bank_non_finite_feature_exits_3(tmp_path, data_dir, bank_path, capsys):
    blob = bytearray(bank_path.read_bytes())
    blob[25:29] = struct.pack("<f", np.nan)  # the first feature, right after the 25-byte header
    bank_path.write_bytes(bytes(blob))
    code, out, err = run(capsys, "eval", "--data", str(data_dir), "--bank", str(bank_path),
                         "--checkpoint", str(untrained_checkpoint(tmp_path / "m.ckpt")))
    assert (code, out, err) == (3, "", f"error: bank {bank_path}: prompt features must be finite\n")


@pytest.mark.parametrize("split", ["train", "val"])
@pytest.mark.parametrize("command", ["train", "build-bank"])
def test_non_finite_pixel_exits_3_naming_the_file(tmp_path, data_dir, bank_path, capsys, command, split):
    path = data_dir / f"{split}_images.bin"
    blob = bytearray(path.read_bytes())
    blob[-4:] = struct.pack("<f", np.nan)  # the last pixel of the split's last image
    path.write_bytes(bytes(blob))
    if command == "train":
        args = ["--bank", str(bank_path), "--config", str(fast_config(tmp_path)), "--out", str(tmp_path / "run")]
    else:
        args = ["--modality", "image", "--dim", "16", "--out", str(tmp_path / "image.ivpb")]
    code, out, err = run(capsys, command, "--data", str(data_dir), *args)
    assert (code, out, err) == (3, "", f"error: {split}_images.bin holds a pixel that is not finite\n")
    assert not (tmp_path / "run").exists() and not (tmp_path / "image.ivpb").exists()


def assert_eval_reproduces_the_last_metrics_row(tmp_path, data_dir, bank_path, capsys, **overrides):
    """Train, then ``ivit eval --split train`` on ``final.ckpt`` must print the last CSV row's accuracies."""
    run_dir = tmp_path / "run"
    cfg = fast_config(tmp_path, **overrides)
    code, out, _ = run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                       "--config", str(cfg), "--out", str(run_dir))
    assert code == 0
    assert re.search(r"\d+ trainable of \d+ parameters", out)
    csv_lines = (run_dir / "metrics.csv").read_text().splitlines()
    assert csv_lines[0] == "epoch,loss_pred,loss_score,loss_total,head_top1,score_top1,lr"
    assert len(csv_lines) == 1 + 2  # header + one row per epoch
    final_head, final_score = csv_lines[-1].split(",")[4:6]

    code, out, _ = run(capsys, "eval", "--data", str(data_dir), "--bank", str(bank_path),
                       "--checkpoint", str(run_dir / "final.ckpt"), "--split", "train")
    assert code == 0
    m = re.fullmatch(r"head_top1=(\S+) score_top1=(\S+)\n", out)
    assert m, out
    assert m.group(1) == final_head and m.group(2) == final_score


class TestTrainEval:
    def test_train_then_eval_reproduces_final_metrics(self, tmp_path, data_dir, bank_path, capsys):
        assert_eval_reproduces_the_last_metrics_row(tmp_path, data_dir, bank_path, capsys)

    def test_prompt_tuning_train_then_eval_reproduces_final_metrics(self, tmp_path, data_dir, bank_path,
                                                                    capsys):
        assert_eval_reproduces_the_last_metrics_row(tmp_path, data_dir, bank_path, capsys,
                                                    regime="prompt_tuning")

    @pytest.mark.parametrize("select_k", [[], ["--select-k", "2"]], ids=["plain", "select_k"])
    def test_eval_hands_evaluate_a_model_with_no_parameter_requiring_grad(self, tmp_path, data_dir,
                                                                          bank_path, capsys, monkeypatch,
                                                                          recorded_nodes, select_k):
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt")
        seen = []
        real_evaluate = cli_mod.evaluate

        def spy(model, *args, **kwargs):
            seen.append([name for name, p in model.named_parameters() if p.requires_grad])
            return real_evaluate(model, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "evaluate", spy)
        code, out, _ = run(capsys, "eval", "--data", str(data_dir), "--bank", str(bank_path),
                           "--checkpoint", str(ckpt), *select_k)
        assert code == 0 and out.startswith("head_top1=")
        assert seen == [[]] and recorded_nodes == []

    def test_prompt_tuning_prints_small_trainable_count(self, tmp_path, data_dir, bank_path, capsys):
        cfg = fast_config(tmp_path, regime="prompt_tuning", epochs=1)
        code, out, _ = run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                           "--config", str(cfg), "--out", str(tmp_path / "pt"))
        assert code == 0
        m = re.search(r"(\d+) trainable of (\d+) parameters", out)
        assert int(m.group(1)) < int(m.group(2)) / 4

    def test_checkpoint_per_epoch(self, tmp_path, data_dir, bank_path, capsys):
        run_dir = tmp_path / "run"
        cfg = fast_config(tmp_path, epochs=3)
        assert run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                   "--config", str(cfg), "--out", str(run_dir))[0] == 0
        names = sorted(os.listdir(run_dir))
        assert [n for n in names if n.startswith("epoch_")] == \
            ["epoch_001.ckpt", "epoch_002.ckpt", "epoch_003.ckpt"]

    def test_mismatched_bank_exits_4(self, tmp_path, data_dir, bank_path, capsys):
        other = tmp_path / "other"
        assert main(["gen-data", "--out", str(other), "--classes", "3", "--train", "12",
                     "--val", "6", "--size", "8", "--seed", "2"]) == 0
        code, _, err = run(capsys, "train", "--data", str(other), "--bank", str(bank_path),
                           "--config", str(fast_config(tmp_path)), "--out", str(tmp_path / "x"))
        assert code == 4 and "classes" in err

    def test_config_image_size_other_than_the_datasets_exits_4(self, tmp_path, data_dir, bank_path, capsys):
        run_dir = tmp_path / "run"
        code, out, err = run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                             "--config", str(fast_config(tmp_path, image_size=16)), "--out", str(run_dir))
        assert code == 4 and out == ""
        assert re.fullmatch(r"error: [^\n]*geometry 3x16 does not match dataset 3x8\n", err)
        assert not run_dir.exists()

    def test_bad_config_wins_over_mismatched_bank(self, tmp_path, data_dir, bank_path, capsys):
        other = tmp_path / "other"
        assert main(["gen-data", "--out", str(other), "--classes", "3", "--train", "12",
                     "--val", "6", "--size", "8", "--seed", "2"]) == 0
        code, _, err = run(capsys, "train", "--data", str(other), "--bank", str(bank_path),
                           "--config", str(fast_config(tmp_path, epochs=0)), "--out", str(tmp_path / "x"))
        assert code == 2 and "epochs" in err

    def test_diverging_run_exits_5_and_writes_nothing_more(self, tmp_path, data_dir, bank_path, capsys):
        run_dir = tmp_path / "run"
        code, _, err = run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                           "--config", str(fast_config(tmp_path, peak_lr=1e30)), "--out", str(run_dir))
        assert code == 5 and "Traceback" not in err
        # the step's overflow, or else its loss, stops the run before its non-finite update is applied
        message = r"(?:training loss is \S+|(?:overflow|invalid value|divide by zero) encountered in \w+)"
        failing = int(re.fullmatch(rf"error: epoch (\d+), step \d+: {message}\n", err).group(1))
        # no checkpoint of the failing epoch, no final.ckpt and no metrics.csv
        assert sorted(os.listdir(run_dir)) == [f"epoch_{e:03d}.ckpt" for e in range(1, failing)]

    @pytest.mark.parametrize("text,message", [
        ("# a comment, then a blank line\n\nepochs\n", "{cfg}:3: expected key=value, got 'epochs'"),
        ("epochs=two\n", "bad value for epochs: 'two'"),
        ("select_in_training=maybe\n", "bad value for select_in_training: 'maybe'"),
        ("image_size=8\nselect_in_training = Yes\n", "select_in_training needs select_k >= 1"),
    ], ids=["no-equals-sign", "bad-int", "bad-bool", "bool-true"])
    def test_config_file_line_error_exits_2_with_its_message(self, tmp_path, data_dir, bank_path, capsys, text,
                                                             message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, _, err = run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                           "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert (code, err) == (2, f"error: {message.format(cfg=cfg)}\n")
        assert not (tmp_path / "x").exists()

    def test_unknown_config_key_exits_2(self, tmp_path, data_dir, bank_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learnign_rate=0.1\n")
        code, _, err = run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                           "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert code == 2 and "learnign_rate" in err

    @pytest.mark.parametrize("overrides", [
        {"epochs": 0, "warmup_epochs": 0},
        {"batch_size": -1},
        {"batch_size": 0},
        {"warmup_epochs": -1},
        {"peak_lr": "nan"},
        {"peak_lr": 0.0},
        {"peak_lr": "inf"},
        {"floor_lr": -1e-5},
        {"floor_lr": "nan"},
        {"adam_beta1": 1.5},
        {"adam_beta1": 0.0},
        {"adam_beta2": 1.0},
        {"adam_beta2": "nan"},
        {"adam_eps": 0.0},
        {"mixup_alpha": "nan"},
        {"mixup_alpha": -0.1},
        {"grad_clip": "inf"},
        {"grad_clip": -1.0},
        {"floor_lr": 0.01},
        {"warmup_epochs": 3},
        {"regime": "frozen"},
    ], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
    def test_bad_train_config_exits_2(self, tmp_path, data_dir, bank_path, capsys, overrides):
        code, _, err = run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                           "--config", str(fast_config(tmp_path, **overrides)),
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and next(iter(overrides)) in err

    def test_a_batch_size_past_float_range_trains_one_step_over_the_split_per_epoch(
            self, tmp_path, data_dir, bank_path, capsys):
        """A 400-digit batch_size once made ``n_train / batch_size`` round to 0.0 steps per epoch, so
        the first step failed the schedule's range check; it now trains as batch_size=n_train does."""
        csv = {}
        for batch_size in ("32", "1" + "0" * 400):
            run_dir = tmp_path / f"run{len(batch_size)}"
            code, _, err = run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                               "--config", str(fast_config(tmp_path, batch_size=batch_size)),
                               "--out", str(run_dir))
            assert (code, err) == (0, "")
            csv[batch_size] = (run_dir / "metrics.csv").read_text()
        assert len(csv["32"].splitlines()) == 1 + 2  # header + one row per epoch
        assert csv["1" + "0" * 400] == csv["32"]

    @pytest.mark.parametrize("overrides", [
        {"image_size": 0},
        {"patch_size": 0},
        {"patch_size": -4},
        {"channels": 0},
        {"dim": 0},
        {"depth": -1},
        {"heads": 0},
        {"select_k": -1},
        {"mlp_ratio": 0.0},
        {"mlp_ratio": 0.05},
        {"mlp_ratio": "nan"},
        {"mlp_ratio": "inf"},
        {"loss_pred_weight": "nan"},
        {"loss_pred_weight": -1.0},
        {"loss_score_weight": "inf"},
        {"loss_score_weight": -0.5},
        {"attn_dropout": 1.0},
        {"attn_dropout": -0.1},
        {"attn_dropout": "nan"},
        {"dim": 15},
        {"patch_size": 3},
        {"mlp_ratio": 1e308},
        pytest.param({"dim": "1" + "0" * 400}, id="dim=10**400"),
    ], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
    def test_bad_model_config_exits_2(self, tmp_path, data_dir, bank_path, capsys, overrides):
        code, _, err = run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                           "--config", str(fast_config(tmp_path, **overrides)),
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and next(iter(overrides)) in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("old,new", [
        (b"\ndim=16\n", b"\ndim=xx\n"),
        (b"\ndim=16\n", b"\ndim=1\xff\n"),
        (b"\nheads=2\n", b"\nheads=0\n"),
        (b"\ndim=16\n", b"\n"),
        (b"\ndim=16\n", b"\ndim=15\n"),
        (b"\npatch_size=4\n", b"\npatch_size=3\n"),
    ], ids=["dim=xx", "0xff-byte", "heads=0", "dim-missing", "dim=15", "patch_size=3"])
    def test_corrupt_config_echo_exits_3(self, tmp_path, data_dir, bank_path, capsys, old, new):
        run_dir = tmp_path / "run"
        assert run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                   "--config", str(fast_config(tmp_path, epochs=1)), "--out", str(run_dir))[0] == 0
        ckpt = run_dir / "final.ckpt"
        blob = ckpt.read_bytes()
        (echo_len,) = struct.unpack_from("<I", blob, 8)  # after the magic and the version
        echo = blob[12 : 12 + echo_len]
        assert echo.count(old) == 1
        echo = echo.replace(old, new)
        ckpt.write_bytes(blob[:8] + struct.pack("<I", len(echo)) + echo + blob[12 + echo_len :])
        code, _, err = run(capsys, "eval", "--data", str(data_dir), "--bank", str(bank_path),
                           "--checkpoint", str(ckpt))
        assert code == 3
        assert "Traceback" not in err
        assert err.startswith("error: checkpoint ") and str(ckpt) in err and "config echo" in err

    def test_bad_thread_cap_exits_2(self, tmp_path, data_dir, bank_path, capsys, monkeypatch):
        run_dir = tmp_path / "run"
        assert run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                   "--config", str(fast_config(tmp_path, epochs=1)), "--out", str(run_dir))[0] == 0
        monkeypatch.setenv("IVIT_THREADS", "abc")
        code, _, err = run(capsys, "eval", "--data", str(data_dir), "--bank", str(bank_path),
                           "--checkpoint", str(run_dir / "final.ckpt"))
        assert code == 2 and "IVIT_THREADS" in err and "invalid literal" not in err

    def test_eval_select_k_degenerate_matches_plain(self, tmp_path, data_dir, bank_path, capsys):
        run_dir = tmp_path / "run"
        assert run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                   "--config", str(fast_config(tmp_path, epochs=1)), "--out", str(run_dir))[0] == 0
        ckpt = str(run_dir / "final.ckpt")
        base = run(capsys, "eval", "--data", str(data_dir), "--bank", str(bank_path),
                   "--checkpoint", ckpt)
        degenerate = run(capsys, "eval", "--data", str(data_dir), "--bank", str(bank_path),
                         "--checkpoint", ckpt, "--select-k", "4")
        assert base[0] == degenerate[0] == 0
        assert base[1] == degenerate[1]

    def test_eval_selection_path(self, tmp_path, data_dir, bank_path, capsys):
        run_dir = tmp_path / "run"
        assert run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                   "--config", str(fast_config(tmp_path, epochs=1)), "--out", str(run_dir))[0] == 0
        code, out, _ = run(capsys, "eval", "--data", str(data_dir), "--bank", str(bank_path),
                           "--checkpoint", str(run_dir / "final.ckpt"), "--select-k", "2")
        assert code == 0 and out.startswith("head_top1=")

    def test_eval_select_k_below_1_exits_2(self, tmp_path, data_dir, bank_path, capsys):
        run_dir = tmp_path / "run"
        assert run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                   "--config", str(fast_config(tmp_path, epochs=1)), "--out", str(run_dir))[0] == 0
        for k in ("0", "-1"):
            code, _, err = run(capsys, "eval", "--data", str(data_dir), "--bank", str(bank_path),
                               "--checkpoint", str(run_dir / "final.ckpt"), "--select-k", k)
            assert code == 2 and "select_k" in err and "Traceback" not in err

    def test_eval_bank_of_another_width_exits_4(self, tmp_path, data_dir, bank_path, capsys):
        run_dir = tmp_path / "run"
        assert run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                   "--config", str(fast_config(tmp_path, epochs=1)), "--out", str(run_dir))[0] == 0
        wide = tmp_path / "wide.ivpb"
        assert main(["build-bank", "--data", str(data_dir), "--modality", "text",
                     "--dim", "24", "--out", str(wide)]) == 0
        code, _, err = run(capsys, "eval", "--data", str(data_dir), "--bank", str(wide),
                           "--checkpoint", str(run_dir / "final.ckpt"))
        assert code == 4 and "bank feature width 24 != configured prompt_dim 16" in err

    def test_eval_wrong_geometry_exits_4(self, tmp_path, data_dir, bank_path, capsys):
        run_dir = tmp_path / "run"
        assert run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                   "--config", str(fast_config(tmp_path, epochs=1)), "--out", str(run_dir))[0] == 0
        big = tmp_path / "big"
        assert main(["gen-data", "--out", str(big), "--classes", "4", "--train", "8",
                     "--val", "4", "--size", "16", "--seed", "1"]) == 0
        code, _, err = run(capsys, "eval", "--data", str(big), "--bank", str(bank_path),
                           "--checkpoint", str(run_dir / "final.ckpt"))
        assert code == 4

    @pytest.mark.parametrize("select", [[], ["--select-k", "2"]], ids=["plain", "select-k"])
    def test_eval_overflowing_checkpoint_exits_5(self, tmp_path, data_dir, bank_path, capsys, select):
        ckpt = untrained_checkpoint(tmp_path / "huge.ckpt", **{"backbone.blocks.0.fc1.weight": 1e30})
        code, out, err = run(capsys, "eval", "--data", str(data_dir), "--bank", str(bank_path),
                             "--checkpoint", str(ckpt), *select)
        assert code == 5 and out == ""
        message = r"(?:overflow|invalid value|divide by zero) encountered in \w+"
        assert re.fullmatch(rf"error: evaluation on the val split: {message}\n", err)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_eval_non_finite_checkpoint_exits_3(self, tmp_path, data_dir, bank_path, capsys, value):
        ckpt = untrained_checkpoint(tmp_path / "bad.ckpt", **{"head.bias": value})
        code, _, err = run(capsys, "eval", "--data", str(data_dir), "--bank", str(bank_path),
                           "--checkpoint", str(ckpt))
        assert code == 3
        assert err == f"error: checkpoint {ckpt}: parameter 'head.bias' holds non-finite values\n"

    def test_eval_checkpoint_with_trailing_bytes_exits_3(self, tmp_path, data_dir, bank_path, capsys):
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt")
        assert run(capsys, "eval", "--data", str(data_dir), "--bank", str(bank_path),
                   "--checkpoint", str(ckpt))[0] == 0
        ckpt.write_bytes(ckpt.read_bytes() + b"garbage")
        code, _, err = run(capsys, "eval", "--data", str(data_dir), "--bank", str(bank_path),
                           "--checkpoint", str(ckpt))
        assert code == 3 and "7 trailing bytes" in err and "Traceback" not in err

    @pytest.mark.parametrize("ndim,dims,message", [
        (200, (0,) * 200, "has 200 axes"),               # beyond numpy's axis limit
        (4, (65536,) * 4, "needed 73786976294838206464 bytes"),  # 2**64 elements, no int64 wrap
    ], ids=["ndim-200", "size-2**64"])
    def test_eval_checkpoint_with_bad_shape_header_exits_3(self, tmp_path, data_dir, bank_path, capsys,
                                                            ndim, dims, message):
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt")
        rewrite_first_shape(ckpt, ndim, dims)
        code, out, err = run(capsys, "eval", "--data", str(data_dir), "--bank", str(bank_path),
                             "--checkpoint", str(ckpt))
        assert (code, out) == (3, "")
        assert message in err and err.count("\n") == 1


def test_eval_without_bank_is_argument_error(tmp_path):
    # argparse enforces required flags with exit code 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--data", str(tmp_path), "--checkpoint", "x.ckpt"])
    assert exc.value.code == 2


def test_readme_run_config_table_lists_every_key_with_its_default(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Run config\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue  # the header, its rule and the prose
        cells = line.strip("|").split("|")
        for key_cell, value_cell in (cells[0:2], cells[3:5]):  # two key | default pairs per row
            keys = re.findall(r"`(\w+)`", key_cell)  # "`adam_beta1` / `adam_beta2`" names two
            values = [v.strip() for v in value_cell.split("(")[0].split("/")]  # "0.0 (off)" reads 0.0
            if keys:
                table.update(zip(keys, values, strict=True))
    defaults = run_config_defaults()
    assert sorted(table) == sorted(defaults)
    path = tmp_path / "readme.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in table.items()), encoding="utf-8")
    assert parse_run_config(path) == defaults


class TestGradcheckCommand:
    def test_negative_seed_is_argument_error(self, capsys):
        assert run(capsys, "gradcheck", "--seed", "-1") == (2, "", "error: --seed must be >= 0, got -1\n")

    def test_fresh_build_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--seed", "0")
        assert code == 0
        assert "gradcheck passed" in out
        assert "full_model" in out
        assert re.search(r"^forward_vs_reference +max_abs_diff=0\.000e\+00  ok$", out, re.M)

    def test_corrupted_gradient_names_the_op(self, capsys, monkeypatch):
        true_softmax = T.softmax

        def softmax_with_doubled_gradient(x):
            out = true_softmax(x)
            if out._backward is not None:
                backward = out._backward
                out._backward = lambda g: tuple(2.0 * gx for gx in backward(g))
            return out

        monkeypatch.setattr(T, "softmax", softmax_with_doubled_gradient)
        code, out, err = run(capsys, "gradcheck", "--seed", "0")
        assert code == 1
        assert "softmax" in err

    def test_wrong_forward_names_the_reference_comparison(self, capsys, monkeypatch):
        """A tanh gelu with its own derivative: every gradient check passes, the forward does not."""

        def tanh_gelu(x):
            xd = x.data
            c = math.sqrt(2.0 / math.pi)
            th = np.tanh(c * (xd + 0.044715 * xd ** 3))

            def bw(g):
                return (g * (0.5 * (1.0 + th) + 0.5 * xd * (1.0 - th * th) * c * (1.0 + 3 * 0.044715 * xd ** 2)),)

            return T._result(0.5 * xd * (1.0 + th), (x,), bw)

        monkeypatch.setattr(T, "gelu", tanh_gelu)
        code, out, err = run(capsys, "gradcheck", "--seed", "0")
        assert code == 1
        assert err == "gradcheck failed for: forward_vs_reference\n"
        assert re.search(r"^forward_vs_reference +max_abs_diff=\S+  FAIL$", out, re.M)

    def test_deterministic_output(self, capsys):
        a = run(capsys, "gradcheck", "--seed", "3")
        b = run(capsys, "gradcheck", "--seed", "3")
        assert a == b
