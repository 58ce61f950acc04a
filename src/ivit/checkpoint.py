"""Checkpoint file format.

Layout (little-endian):

    magic   4 bytes "IVCK"
    version u32     currently 1
    config  u32 length + UTF-8 key=value echo of the ModelConfig
    step    u64     training step counter
    count   u32     number of parameter entries
    entry   u16 name length + UTF-8 name, u8 ndim, ndim * u32 dims,
            float32 LE data

Nothing may follow the last entry, each name appears once and every value
is finite; a file that breaks any of these is a format error. Parameters
round-trip bit-exactly. Optimizer state is not stored; runs are
desk-scale and exact resume is a non-goal.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ._atomic import write_atomic
from ._binfile import Reader, pack_name
from .config import ModelConfig, dump_model_config, parse_model_config
from .errors import (
    BadMagicError,
    ConsistencyError,
    FormatError,
    VersionMismatchError,
)
from .model import InstructionModel

CKPT_MAGIC = b"IVCK"
CKPT_VERSION = 1


def save_checkpoint(path, model: InstructionModel, step: int = 0) -> None:
    blob = bytearray()
    blob += struct.pack("<4sI", CKPT_MAGIC, CKPT_VERSION)
    echo = dump_model_config(model.config).encode("utf-8")
    blob += struct.pack("<I", len(echo)) + echo
    params = model.parameter_dict()
    blob += struct.pack("<QI", step, len(params))
    for name, p in params.items():
        data = np.ascontiguousarray(p.data.astype("<f4"))
        blob += pack_name(name)
        blob += struct.pack("<B", data.ndim)
        blob += struct.pack(f"<{data.ndim}I", *data.shape)
        blob += data.tobytes()
    write_atomic(path, blob)


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray], int]:
    """Returns (config echo, named parameter arrays, step counter)."""
    with open(path, "rb") as f:
        r = Reader(f.read(), f"checkpoint {path}")
    magic, version = r.unpack("<4sI", "header")
    if magic != CKPT_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {CKPT_MAGIC!r}")
    if version != CKPT_VERSION:
        raise VersionMismatchError(f"checkpoint version {version} unsupported (expected {CKPT_VERSION})")
    (echo_len,) = r.unpack("<I", "config echo")
    echo = r.take(echo_len, "config echo")
    try:
        config = parse_model_config(echo.decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError, an unparsable number or a ConfigError
        raise FormatError(f"checkpoint {path}: corrupt config echo: {e}") from e
    step, count = r.unpack("<QI", "step counter")
    params: dict[str, np.ndarray] = {}
    for i in range(count):
        name = r.name(f"parameter name {i}")
        if name in params:
            raise FormatError(f"checkpoint {path}: parameter {name!r} is stored twice")
        what = f"parameter {name!r}"
        (ndim,) = r.unpack("<B", what)
        shape = r.unpack(f"<{ndim}I", what)
        data = np.frombuffer(r.take(math.prod(shape) * 4, what), dtype="<f4")
        try:
            arr = data.reshape(shape).copy()
        except ValueError as e:  # more axes than numpy supports
            raise FormatError(f"checkpoint {path}: parameter {name!r} has {ndim} axes: {e}") from e
        if not np.isfinite(arr).all():
            raise FormatError(f"checkpoint {path}: parameter {name!r} holds non-finite values")
        params[name] = arr
    r.end(f"{count} parameters")
    return config, params, step


def apply_parameters(model: InstructionModel, params: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into the model; names and shapes must match exactly."""
    own = model.parameter_dict()
    missing = sorted(set(own) - set(params))
    extra = sorted(set(params) - set(own))
    if missing or extra:
        raise ConsistencyError(f"parameter table mismatch: missing {missing[:3]}, unexpected {extra[:3]}")
    for name, p in own.items():
        arr = params[name]
        if arr.shape != p.data.shape:
            raise ConsistencyError(
                f"parameter {name}: checkpoint shape {arr.shape} != model shape {p.data.shape}"
            )
        p.data[...] = arr.astype(p.data.dtype)


def model_from_checkpoint(path) -> tuple[InstructionModel, int]:
    """Rebuild a model entirely from a checkpoint's config echo and parameters."""
    config, params, step = load_checkpoint(path)
    model = InstructionModel(config)
    apply_parameters(model, params)
    return model, step
