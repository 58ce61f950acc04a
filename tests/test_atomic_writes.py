"""Every artifact writer replaces its file atomically: a failure between the
write and the rename leaves the previous file byte-identical and no
temporary file behind."""

import os

import pytest

from ivit import dataset as ds
from ivit.checkpoint import save_checkpoint
from ivit.config import ModelConfig
from ivit.model import InstructionModel
from ivit.prompts import build_text_bank, load_bank, save_bank
from ivit.trainer import EpochMetrics, write_metrics_csv

DATASET_FILES = ["meta.txt", "train_images.bin", "train_labels.bin", "val_images.bin", "val_labels.bin"]


def fail_replace_of(monkeypatch, target_name):
    """Make ``os.replace`` fail when it would rename onto ``target_name``."""
    real = os.replace

    def replace(src, dst):
        if os.path.basename(os.fspath(dst)) == target_name:
            raise OSError(f"simulated failure renaming onto {target_name}")
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)


def assert_interrupted_write_keeps(path, write_new, monkeypatch):
    before = path.read_bytes()
    listing = sorted(os.listdir(path.parent))
    fail_replace_of(monkeypatch, path.name)
    with pytest.raises(OSError, match="simulated failure"):
        write_new()
    assert path.read_bytes() == before
    assert sorted(os.listdir(path.parent)) == listing


def tiny_model(seed):
    cfg = ModelConfig(image_size=8, patch_size=4, channels=3, dim=16, depth=1, heads=2,
                      mlp_ratio=2.0, prompt_dim=8, n_classes=2)
    return InstructionModel(cfg, seed=seed)


def test_save_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tiny_model(0), step=3)
    assert_interrupted_write_keeps(path, lambda: save_checkpoint(path, tiny_model(1), step=4), monkeypatch)


def test_save_bank(tmp_path, monkeypatch):
    path = tmp_path / "bank.ivpb"
    save_bank(build_text_bank(["a", "b"], 8), path)
    new = build_text_bank(["c", "d", "e"], 8)
    assert_interrupted_write_keeps(path, lambda: save_bank(new, path), monkeypatch)


def test_write_metrics_csv(tmp_path, monkeypatch):
    path = tmp_path / "metrics.csv"
    row = EpochMetrics(epoch=1, loss_pred=1.0, loss_score=0.5, loss_total=1.5,
                       head_top1=0.25, score_top1=0.5, lr=1e-3)
    write_metrics_csv(path, [row])
    assert_interrupted_write_keeps(path, lambda: write_metrics_csv(path, [row, row]), monkeypatch)


@pytest.mark.parametrize("name", DATASET_FILES)
def test_dataset_save_replaces_each_file_atomically(tmp_path, monkeypatch, name):
    out, other = tmp_path / "data", tmp_path / "other"
    ds.generate_synthetic(out, n_classes=2, n_train=4, n_val=2, image_size=8, seed=0)
    ds.generate_synthetic(other, n_classes=3, n_train=4, n_val=3, image_size=8, seed=1)
    assert (other / name).read_bytes() != (out / name).read_bytes()
    newer = ds.load(other)
    assert_interrupted_write_keeps(out / name, lambda: newer.save(out), monkeypatch)


def test_successful_write_leaves_only_the_target(tmp_path):
    path = tmp_path / "bank.ivpb"
    save_bank(build_text_bank(["a", "b"], 8), path)
    save_bank(build_text_bank(["c", "d", "e"], 8), path)
    assert os.listdir(tmp_path) == ["bank.ivpb"]
    assert load_bank(path).class_names == ["c", "d", "e"]
