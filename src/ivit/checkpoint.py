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
from .config import ModelConfig, dump_model_config, parse_model_config
from .errors import (
    BadMagicError,
    ConsistencyError,
    FormatError,
    TruncatedFileError,
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
        raw = name.encode("utf-8")
        data = np.ascontiguousarray(p.data.astype("<f4"))
        blob += struct.pack("<H", len(raw)) + raw
        blob += struct.pack("<B", data.ndim)
        blob += struct.pack(f"<{data.ndim}I", *data.shape)
        blob += data.tobytes()
    write_atomic(path, blob)


class _Reader:
    def __init__(self, blob: bytes, label: str):
        self.blob = blob
        self.off = 0
        self.label = label

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise TruncatedFileError(
                f"{self.label}: needed {n} bytes at offset {self.off}, file has {len(self.blob)}"
            )
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray], int]:
    """Returns (config echo, named parameter arrays, step counter)."""
    with open(path, "rb") as f:
        r = _Reader(f.read(), "checkpoint")
    magic, version = r.unpack("<4sI")
    if magic != CKPT_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {CKPT_MAGIC!r}")
    if version != CKPT_VERSION:
        raise VersionMismatchError(f"checkpoint version {version} unsupported (expected {CKPT_VERSION})")
    (echo_len,) = r.unpack("<I")
    echo = r.take(echo_len)
    try:
        config = parse_model_config(echo.decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError, an unparsable number or a ConfigError
        raise FormatError(f"checkpoint {path}: corrupt config echo: {e}") from e
    step, count = r.unpack("<QI")
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"checkpoint {path}: parameter name is not UTF-8: {e}") from e
        if name in params:
            raise FormatError(f"checkpoint {path}: parameter {name!r} is stored twice")
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        data = np.frombuffer(r.take(math.prod(shape) * 4), dtype="<f4")
        try:
            arr = data.reshape(shape).copy()
        except ValueError as e:  # more axes than numpy supports
            raise FormatError(f"checkpoint {path}: parameter {name!r} has {ndim} axes: {e}") from e
        if not np.isfinite(arr).all():
            raise FormatError(f"checkpoint {path}: parameter {name!r} holds non-finite values")
        params[name] = arr
    if r.off != len(r.blob):
        raise FormatError(f"checkpoint {path}: {len(r.blob) - r.off} trailing bytes after {count} parameters")
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


def load_into(model: InstructionModel, path) -> int:
    """Load a checkpoint into an existing model; its config echo must match."""
    config, params, step = load_checkpoint(path)
    if config != model.config:
        raise ConsistencyError(
            f"checkpoint config does not match model config:\n{dump_model_config(config)}"
            f"---\n{dump_model_config(model.config)}"
        )
    apply_parameters(model, params)
    return step


def model_from_checkpoint(path) -> tuple[InstructionModel, int]:
    """Rebuild a model entirely from a checkpoint's config echo and parameters."""
    config, params, step = load_checkpoint(path)
    model = InstructionModel(config)
    apply_parameters(model, params)
    return model, step
