"""What a float32 process loads and copies: no scipy, and no copy of data that is only read.

scipy backs only the float64 erf (the gradient check and the reference
forward), so a fresh interpreter that imports ivit, trains and evaluates a
float32 model never imports ``scipy.special``. Saving a dataset writes each
split as it lies in memory, an evaluation makes the split's batches as it
uses them, and its ``batch_size`` bounds what it holds however many pool
workers split each batch; all three are pinned through `tracemalloc`, which
counts numpy's buffers, rather than through a timing.
"""

import hashlib
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ivit
from ivit import dataset as ds
from ivit.config import ModelConfig
from ivit.model import InstructionModel
from ivit.prompts import build_text_bank
from ivit.trainer import evaluate

SRC = Path(ivit.__file__).resolve().parent.parent

FLOAT32_RUN = textwrap.dedent("""
    import sys, tempfile
    import ivit, ivit.cli
    from ivit import dataset as ds
    from ivit.config import ModelConfig, TrainConfig
    from ivit.model import InstructionModel
    from ivit.prompts import build_text_bank
    from ivit.trainer import evaluate, train

    with tempfile.TemporaryDirectory() as d:
        ds.generate_synthetic(d, n_classes=2, n_train=4, n_val=4, image_size=4, channels=1, seed=0)
        data = ds.load(d)
    bank = build_text_bank(data.class_names, 8)
    model = InstructionModel(ModelConfig(image_size=4, patch_size=2, channels=1, dim=8, depth=1, heads=2,
                                         mlp_ratio=2.0, prompt_dim=8, n_classes=2))
    train(model, data, bank, TrainConfig(epochs=1, batch_size=2, warmup_epochs=0))
    evaluate(model, data, bank)
    evaluate(model, data, bank, select_k=1)
    print("float32:", "scipy.special" in sys.modules)

    from ivit.gradcheck import run_suite
    errors, ok = run_suite(0)
    print("gradcheck:", "scipy.special" in sys.modules, ok)
""")


def test_float32_work_never_loads_scipy_special_and_gradcheck_does():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", FLOAT32_RUN], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["float32: False", "gradcheck: True True"]


# sha256 of each binary file of generate_synthetic(n_classes=4, n_train=64, n_val=48, image_size=16, seed=5),
# as the copying save wrote them
SAVED_BIN_SHA256 = {
    "train_images.bin": "eac5a9df863dba62bbbb6a1307e9fd22875e7dfbf4ffc56b51b26b54443ca6a6",
    "train_labels.bin": "8477318cc56a9de4a5e02d381a5730431880e9f95d7a1c7aa16709f7e010dfd4",
    "val_images.bin": "57f2e8a01d8505e1deddcf07cdd334da496ad45b7a5940a9a157c084a9acd81f",
    "val_labels.bin": "86bb101877c587a93cec80abec456f412a41180d5f0ea6fceed12209ce637fb7",
}


def test_save_writes_the_splits_without_copying_them(tmp_path):
    ds.generate_synthetic(tmp_path / "a", n_classes=4, n_train=64, n_val=48, image_size=16, seed=5)
    data = ds.load(tmp_path / "a")
    tracemalloc.start()
    try:
        data.save(tmp_path / "b")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < data.val_images.nbytes  # the smaller split, 147,456 bytes
    for name, digest in SAVED_BIN_SHA256.items():
        assert hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("convert", [
    lambda a: a.astype(a.dtype.newbyteorder(">")),
    lambda a: a.astype(np.float64) if a.dtype.kind == "f" else a.astype(np.int64),
    lambda a: np.asfortranarray(a),
    lambda a: a.repeat(2, axis=0)[::2],
], ids=["big-endian", "wider dtype", "fortran order", "strided view"])
def test_save_still_converts_what_is_not_in_the_file_layout(tmp_path, convert):
    ds.generate_synthetic(tmp_path / "a", n_classes=2, n_train=4, n_val=3, image_size=4, seed=1)
    data = ds.load(tmp_path / "a")
    arrays = [convert(a) for a in (data.train_images, data.train_labels, data.val_images, data.val_labels)]
    ds.SyntheticDataset(data.meta, *arrays).save(tmp_path / "b")
    for name in ("meta.txt", "train_images.bin", "train_labels.bin", "val_images.bin", "val_labels.bin"):
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes(), name


def test_selected_evaluate_holds_one_batch_of_the_split_at_a_time(tmp_path):
    ds.generate_synthetic(tmp_path / "d", n_classes=4, n_train=4, n_val=256, image_size=16, seed=2)
    data = ds.load(tmp_path / "d")
    bank = build_text_bank(data.class_names, 8)
    model = InstructionModel(ModelConfig(image_size=16, patch_size=8, dim=8, depth=1, heads=2, mlp_ratio=2.0,
                                         prompt_dim=8, n_classes=4))
    evaluate(model, data, bank, select_k=2, batch_size=32)  # fills the image encoder's projection cache
    tracemalloc.start()
    try:
        metrics = evaluate(model, data, bank, select_k=2, batch_size=32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert metrics.n_samples == 256
    assert peak < data.val_images.nbytes  # the normalized split's size, 786,432 bytes


def _peak_of(run) -> int:
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_pooled_evaluate_makes_each_shard_once_a_worker_is_free(tmp_path, monkeypatch):
    ds.generate_synthetic(tmp_path / "d", n_classes=4, n_train=4, n_val=256, image_size=16, seed=2)
    data = ds.load(tmp_path / "d")
    bank = build_text_bank(data.class_names, 8)
    model = InstructionModel(ModelConfig(image_size=16, patch_size=8, dim=8, depth=1, heads=2, mlp_ratio=2.0,
                                         prompt_dim=8, n_classes=4))
    monkeypatch.setenv("IVIT_THREADS", "2")
    assert evaluate(model, data, bank, batch_size=32).n_samples == 256
    # two shards of 16 in flight hold 2 x 16 x 3,072 bytes of raw pixels and as much normalized
    assert _peak_of(lambda: evaluate(model, data, bank, batch_size=32)) < data.val_images.nbytes


def test_pooled_evaluate_holds_what_one_thread_holds(tmp_path, monkeypatch):
    # 16 prompt tokens of 33, so the recorded graph, not the pixels, fills the peak, as on eval_plain
    ds.generate_synthetic(tmp_path / "d", n_classes=16, n_train=16, n_val=128, image_size=16, seed=4)
    data = ds.load(tmp_path / "d")
    bank = build_text_bank(data.class_names, 16)
    model = InstructionModel(ModelConfig(image_size=16, patch_size=4, dim=32, depth=1, heads=2, mlp_ratio=2.0,
                                         prompt_dim=16, n_classes=16))
    peaks = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("IVIT_THREADS", threads)
        peaks[threads] = _peak_of(lambda: evaluate(model, data, bank, batch_size=32))
    assert peaks["2"] <= 1.15 * peaks["1"], peaks
