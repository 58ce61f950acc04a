"""Damaged artifact files fail as format errors, never as anything else.

Each file is cut short at a random length or has one to three random bytes
flipped; loading the result must either succeed or raise a `FormatError`
subclass (exit 3 at the CLI); every strict prefix of a bank or a checkpoint,
tried exhaustively, is a `TruncatedFileError`. The artifacts are built as
small as the formats allow, so most of their bytes are headers, lengths and
names rather than float payload.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ivit import dataset as ds
from ivit.checkpoint import load_checkpoint, save_checkpoint
from ivit.config import ModelConfig
from ivit.errors import FormatError, TruncatedFileError
from ivit.model import InstructionModel
from ivit.prompts import build_text_bank, load_bank, save_bank

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def damage(blob: bytes):
    """Strategy: ``blob`` truncated, or with 1-3 bytes XORed by a non-zero value."""
    cut = st.integers(0, len(blob) - 1).map(lambda n: blob[:n])
    flips = st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)), min_size=1, max_size=3)

    def flip(pairs):
        out = bytearray(blob)
        for at, mask in pairs:
            out[at] ^= mask
        return bytes(out)

    return st.one_of(cut, flips.map(flip))


def loads_or_format_error(load, path, blob):
    with open(path, "wb") as f:
        f.write(blob)
    try:
        load(path)
    except FormatError:
        pass


@pytest.fixture(scope="module")
def artifacts():
    with tempfile.TemporaryDirectory() as root:
        data_dir = os.path.join(root, "data")
        ds.generate_synthetic(data_dir, n_classes=2, n_train=2, n_val=2, image_size=2, channels=1, seed=3)
        bank = os.path.join(root, "bank.ivpb")
        save_bank(build_text_bank(ds.load(data_dir).class_names, dim=2), bank)
        ckpt = os.path.join(root, "m.ckpt")
        save_checkpoint(ckpt, InstructionModel(ModelConfig(
            image_size=2, patch_size=1, channels=1, dim=2, depth=1, heads=1,
            mlp_ratio=1.0, prompt_dim=2, n_classes=2)))
        paths = {"checkpoint": ckpt, "bank": bank,
                 **{f: os.path.join(data_dir, f) for f in os.listdir(data_dir)}}
        files = {}
        for name, path in paths.items():
            with open(path, "rb") as f:
                files[name] = f.read()
        yield files


@pytest.mark.parametrize("kind,load", [("checkpoint", load_checkpoint), ("bank", load_bank)])
def test_damaged_checkpoint_or_bank(artifacts, kind, load):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, kind)

        @FUZZ
        @given(damage(artifacts[kind]))
        def check(blob):
            loads_or_format_error(load, path, blob)

        check()


@pytest.mark.parametrize("kind,load", [("checkpoint", load_checkpoint), ("bank", load_bank)])
def test_every_strict_prefix_is_truncated(artifacts, kind, load, tmp_path):
    blob = artifacts[kind]
    path = tmp_path / kind
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(TruncatedFileError):
            load(path)


@pytest.mark.parametrize("name", ["meta.txt", "train_images.bin", "train_labels.bin",
                                  "val_images.bin", "val_labels.bin"])
def test_damaged_dataset_file(artifacts, name):
    with tempfile.TemporaryDirectory() as root:
        for other, blob in artifacts.items():
            if other.endswith((".txt", ".bin")):
                with open(os.path.join(root, other), "wb") as f:
                    f.write(blob)

        @FUZZ
        @given(damage(artifacts[name]))
        def check(blob):
            loads_or_format_error(lambda _: ds.load(root), os.path.join(root, name), blob)

        check()


def test_intact_files_load(artifacts):
    with tempfile.TemporaryDirectory() as root:
        for kind, load in (("checkpoint", load_checkpoint), ("bank", load_bank)):
            path = os.path.join(root, kind)
            with open(path, "wb") as f:
                f.write(artifacts[kind])
            load(path)
        for name, blob in artifacts.items():
            if name.endswith((".txt", ".bin")):
                with open(os.path.join(root, name), "wb") as f:
                    f.write(blob)
        data = ds.load(root)
        assert data.n_classes == 2 and np.isfinite(data.train_images).all()
