"""CLI behavior: exit codes, output contracts, end-to-end command chains.

Everything drives `ivit.cli.main` in-process so exit codes are asserted
directly.
"""

import os
import re
import struct

import numpy as np
import pytest

from ivit import dataset as ds
from ivit.cli import main
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
        text = load_bank(paths["text"]).features.data
        image = load_bank(paths["image"]).features.data
        mixed = load_bank(paths["mixed"]).features.data
        np.testing.assert_allclose(mixed, (text + image) / 2.0, atol=1e-6)

    def test_unknown_modality(self, tmp_path, data_dir, capsys):
        code, _, err = run(capsys, "build-bank", "--data", str(data_dir), "--modality", "audio",
                           "--dim", "16", "--out", str(tmp_path / "x.ivpb"))
        assert code == 2 and "audio" in err

    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "build-bank", "--data", str(tmp_path / "nope"),
                         "--modality", "text", "--dim", "16", "--out", str(tmp_path / "x.ivpb"))
        assert code == 3


class TestTrainEval:
    def test_train_then_eval_reproduces_final_metrics(self, tmp_path, data_dir, bank_path, capsys):
        run_dir = tmp_path / "run"
        cfg = fast_config(tmp_path)
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

    def test_bad_config_wins_over_mismatched_bank(self, tmp_path, data_dir, bank_path, capsys):
        other = tmp_path / "other"
        assert main(["gen-data", "--out", str(other), "--classes", "3", "--train", "12",
                     "--val", "6", "--size", "8", "--seed", "2"]) == 0
        code, _, err = run(capsys, "train", "--data", str(other), "--bank", str(bank_path),
                           "--config", str(fast_config(tmp_path, epochs=0)), "--out", str(tmp_path / "x"))
        assert code == 2 and "epochs" in err

    def test_diverging_run_exits_5_and_writes_nothing_more(self, tmp_path, data_dir, bank_path, capsys):
        run_dir = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the input under test
            code, _, err = run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                               "--config", str(fast_config(tmp_path, peak_lr=1e30)), "--out", str(run_dir))
        assert code == 5 and "Traceback" not in err
        # the step's loss stops the run before its non-finite update is applied
        failing = int(re.fullmatch(r"error: epoch (\d+), step \d+: training loss is \S+\n", err).group(1))
        # no checkpoint of the failing epoch, no final.ckpt and no metrics.csv
        assert sorted(os.listdir(run_dir)) == [f"epoch_{e:03d}.ckpt" for e in range(1, failing)]

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
    ], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
    def test_bad_train_config_exits_2(self, tmp_path, data_dir, bank_path, capsys, overrides):
        code, _, err = run(capsys, "train", "--data", str(data_dir), "--bank", str(bank_path),
                           "--config", str(fast_config(tmp_path, **overrides)),
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and next(iter(overrides)) in err

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
    ], ids=["dim=xx", "0xff-byte", "heads=0", "dim-missing"])
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


def test_eval_without_bank_is_argument_error(tmp_path):
    # argparse enforces required flags with exit code 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--data", str(tmp_path), "--checkpoint", "x.ckpt", "--mode", "score"])
    assert exc.value.code == 2


class TestGradcheckCommand:
    def test_fresh_build_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--seed", "0")
        assert code == 0
        assert "gradcheck passed" in out
        assert "full_model" in out

    def test_corrupted_gradient_names_the_op(self, capsys):
        code, out, err = run(capsys, "gradcheck", "--seed", "0", "--corrupt", "softmax")
        assert code == 1
        assert "softmax" in err

    def test_deterministic_output(self, capsys):
        a = run(capsys, "gradcheck", "--seed", "3")
        b = run(capsys, "gradcheck", "--seed", "3")
        assert a == b
