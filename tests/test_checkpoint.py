"""Checkpoint round-trips and the config-echo consistency rule."""

import struct

import numpy as np
import pytest

from ivit.checkpoint import (
    apply_parameters,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from ivit.config import ModelConfig, dump_model_config, parse_model_config
from ivit.errors import (
    BadMagicError,
    ConfigError,
    ConsistencyError,
    FormatError,
    TruncatedFileError,
    VersionMismatchError,
)
from ivit.model import InstructionModel


def tiny_model(seed=0, **kw):
    base = dict(image_size=8, patch_size=4, channels=3, dim=16, depth=1, heads=2,
                mlp_ratio=2.0, prompt_dim=8, n_classes=3)
    base.update(kw)
    return InstructionModel(ModelConfig(**base), seed=seed)


def test_round_trip_bit_exact(tmp_path):
    model = tiny_model(seed=4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, step=17)
    config, params, step = load_checkpoint(path)
    assert step == 17
    assert config == model.config
    own = model.parameter_dict()
    assert set(params) == set(own)
    for name, arr in params.items():
        assert np.array_equal(arr, own[name].data), name


def test_apply_parameters_restores_parameters(tmp_path):
    src = tiny_model(seed=4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, src, step=3)
    dst = tiny_model(seed=99)  # different init
    assert not np.array_equal(dst.head.weight.data, src.head.weight.data)
    _, params, step = load_checkpoint(path)
    apply_parameters(dst, params)
    assert step == 3
    for name, p in dst.named_parameters():
        assert np.array_equal(p.data, dict(src.named_parameters())[name].data), name


def test_parameters_of_another_width_rejected(tmp_path):
    src = tiny_model(dim=16)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, src)
    other = tiny_model(dim=32, heads=2)
    _, params, _ = load_checkpoint(path)
    with pytest.raises(ConsistencyError, match="checkpoint shape"):
        apply_parameters(other, params)


def test_config_echo_bool_must_be_a_python_literal():
    echo = dump_model_config(ModelConfig(select_in_training=True))
    assert parse_model_config(echo).select_in_training is True
    assert parse_model_config(echo.replace("=True", "=False")).select_in_training is False
    for bad in ("true", "1", "yes", "false", ""):
        with pytest.raises(ConfigError, match="select_in_training"):
            parse_model_config(echo.replace("=True", f"={bad}"))


def test_model_from_checkpoint_rebuilds(tmp_path):
    src = tiny_model(seed=6, n_classes=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, src, step=1)
    rebuilt, step = model_from_checkpoint(path)
    assert rebuilt.config == src.config
    assert np.array_equal(rebuilt.head.weight.data, src.head.weight.data)


def test_bad_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tiny_model())
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        load_checkpoint(path)


def test_bad_version(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tiny_model())
    blob = bytearray(path.read_bytes())
    blob[4] = 42
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatchError):
        load_checkpoint(path)


def test_truncated(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tiny_model())
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(TruncatedFileError):
        load_checkpoint(path)


def test_shape_mismatch_rejected(tmp_path):
    model = tiny_model()
    params = {name: p.data.copy() for name, p in model.named_parameters()}
    params["head.bias"] = np.zeros(7, dtype=np.float32)
    with pytest.raises(ConsistencyError, match="head.bias"):
        apply_parameters(model, params)


def test_missing_parameter_rejected(tmp_path):
    model = tiny_model()
    params = {name: p.data.copy() for name, p in model.named_parameters()}
    del params["head.bias"]
    with pytest.raises(ConsistencyError, match="missing"):
        apply_parameters(model, params)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tiny_model())
    path.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(FormatError, match="7 trailing bytes"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_rejected(tmp_path, value):
    model = tiny_model()
    model.backbone.blocks[0].fc1.weight.data[0, 0] = value
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    with pytest.raises(FormatError, match="blocks.0.fc1.weight.*non-finite"):
        load_checkpoint(path)


def test_duplicate_parameter_name_rejected(tmp_path):
    model = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    blob = path.read_bytes()
    (echo_len,) = struct.unpack_from("<I", blob, 8)
    count_at = 12 + echo_len + 8  # after the echo and the step counter
    (count,) = struct.unpack_from("<I", blob, count_at)
    # the last entry is head.bias, 3 float32 values; store it a second time
    last = blob[-(2 + 9 + 1 + 4 + 3 * 4):]
    assert last[2:11] == b"head.bias"
    blob = blob[:count_at] + struct.pack("<I", count + 1) + blob[count_at + 4:] + last
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="'head.bias' is stored twice"):
        load_checkpoint(path)


def test_name_that_is_not_utf8_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tiny_model())
    blob = path.read_bytes()
    assert blob.count(b"head.bias") == 1
    path.write_bytes(blob.replace(b"head.bias", b"head.bia\xff"))
    with pytest.raises(FormatError, match="not UTF-8"):
        load_checkpoint(path)
