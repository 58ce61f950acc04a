"""Frozen per-class prompt features.

Three modalities: text (30 sentence templates per class, encoded and
averaged), image (one seeded training image per class), and mixed (the
elementwise mean of the two). The encoders here are deterministic toy
stand-ins for a real frozen text/image encoder pair; externally computed
features can be carried through the same bank file format instead.

Bank file layout (little-endian throughout):

    magic   4 bytes  "IVPB"
    version u32      currently 1
    modality u8      0=text 1=image 2=mixed
    N       u32      class count
    D_p     u32      feature width
    seed    u64      image-selection seed (0 when unused)
    features N * D_p float32, row-major
    names   N entries of (u16 length + UTF-8 bytes)
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import (
    BadMagicError,
    ConsistencyError,
    FormatError,
    ShapeError,
    TruncatedFileError,
    VersionMismatchError,
)
from .tensor import Tensor

BANK_MAGIC = b"IVPB"
BANK_VERSION = 1

MODALITIES = ("text", "image", "mixed")
SOURCES = ("toy_text", "toy_image", "file")

_MODALITY_CODE = {"text": 0, "image": 1, "mixed": 2}
_MODALITY_NAME = {v: k for k, v in _MODALITY_CODE.items()}

# frozen seed of the toy image encoder's random projection
_IMAGE_PROJECTION_SEED = 0x49565054
_GRID = 4

# 30 photo-style caption templates, one {} slot each
DEFAULT_TEMPLATES = (
    "a photo of a {}.",
    "a photo of the {}.",
    "a bad photo of a {}.",
    "a good photo of a {}.",
    "a blurry photo of a {}.",
    "a close-up photo of a {}.",
    "a cropped photo of a {}.",
    "a dark photo of a {}.",
    "a bright photo of a {}.",
    "a black and white photo of a {}.",
    "a low resolution photo of a {}.",
    "a high resolution photo of a {}.",
    "a pixelated photo of a {}.",
    "a jpeg corrupted photo of a {}.",
    "a photo of a small {}.",
    "a photo of a large {}.",
    "a photo of a dirty {}.",
    "a photo of a clean {}.",
    "a photo of a cool {}.",
    "a photo of a nice {}.",
    "a photo of a weird {}.",
    "a photo of my {}.",
    "a photo of one {}.",
    "a photo of many {}.",
    "a rendition of a {}.",
    "a sketch of a {}.",
    "a painting of a {}.",
    "a drawing of a {}.",
    "an image of a {}.",
    "a picture of a {}.",
)


@dataclass(frozen=True)
class TemplateSet:
    templates: tuple[str, ...] = DEFAULT_TEMPLATES

    def __post_init__(self):
        object.__setattr__(self, "templates", tuple(self.templates))
        if len(self.templates) != 30:
            raise ValueError(f"a template set holds exactly 30 templates, got {len(self.templates)}")
        for t in self.templates:
            if t.count("{}") != 1:
                raise ValueError(f"template {t!r} must contain exactly one {{}} slot")


@dataclass
class PromptBank:
    """Per-class prompt feature table. Frozen data, never a parameter."""

    class_names: list[str]
    features: Tensor  # [N, D_p]
    modality: str
    source: str
    seed: int = 0

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        if self.features.ndim != 2 or self.features.shape[0] != len(self.class_names):
            raise ShapeError(
                f"features shape {self.features.shape} does not match {len(self.class_names)} class names"
            )
        if self.features.shape[1] < 1:
            raise ShapeError("prompt feature width must be positive")
        if not np.isfinite(self.features.data).all():
            raise ValueError("prompt features must be finite")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def render_templates(class_name: str, templates: TemplateSet = TemplateSet()) -> list[str]:
    """Instantiate every template with the class name."""
    if not class_name:
        raise ValueError("class name must be non-empty")
    return [t.format(class_name) for t in templates.templates]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / (np.linalg.norm(v) + T.NORM_EPS)


def toy_text_encode(text: str, dim: int) -> Tensor:
    """Deterministic text feature: signed character-trigram hashing, unit norm.

    Trigram buckets come from a keyed stable hash, so the same string always
    maps to the same vector across processes. Strings shorter than three
    characters encode to zero.
    """
    vec = np.zeros(dim, dtype=np.float64)
    low = text.lower()
    for i in range(len(low) - 2):
        digest = hashlib.blake2b(low[i : i + 3].encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "little")
        sign = 1.0 if h & 1 == 0 else -1.0
        vec[(h >> 1) % dim] += sign
    return Tensor(_unit(vec).astype(np.float32))


def _grid_pool(img: np.ndarray) -> np.ndarray:
    """Mean over a 4x4 spatial grid per channel -> [C * 16] features."""
    c = img.shape[0]
    rows = np.array_split(img, _GRID, axis=1)
    feats = np.empty((c, _GRID, _GRID), dtype=np.float64)
    for i, r in enumerate(rows):
        for j, cell in enumerate(np.array_split(r, _GRID, axis=2)):
            feats[:, i, j] = cell.reshape(c, -1).mean(axis=1)
    return feats.reshape(-1)


_projection_cache: dict[tuple[int, int], np.ndarray] = {}


def _projection(n_in: int, dim: int) -> np.ndarray:
    key = (n_in, dim)
    if key not in _projection_cache:
        rng = np.random.default_rng(_IMAGE_PROJECTION_SEED)
        _projection_cache[key] = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, dim))
    return _projection_cache[key]


def toy_image_encode(image, dim: int) -> Tensor:
    """Deterministic image feature: 4x4 grid pooling through a frozen Gaussian projection, unit norm."""
    img = image.data if isinstance(image, Tensor) else np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[1] < _GRID or img.shape[2] < _GRID:
        raise ShapeError(f"toy_image_encode expects [C, H, W] with H, W >= {_GRID}, got {img.shape}")
    if not np.isfinite(img).all():
        raise ValueError("image pixels must be finite")
    feats = _grid_pool(np.asarray(img, dtype=np.float64))
    return Tensor(_unit(feats @ _projection(feats.size, dim)).astype(np.float32))


def build_text_bank(class_names: list[str], dim: int, templates: TemplateSet = TemplateSet()) -> PromptBank:
    """Encode all 30 rendered sentences per class and average; rows are re-normalized."""
    if not class_names:
        raise ValueError("need at least one class")
    rows = np.empty((len(class_names), dim), dtype=np.float32)
    for i, name in enumerate(class_names):
        encoded = np.stack([toy_text_encode(s, dim).data for s in render_templates(name, templates)])
        rows[i] = _unit(encoded.mean(axis=0).astype(np.float64)).astype(np.float32)
    return PromptBank(list(class_names), Tensor(rows), "text", "toy_text", seed=0)


def build_image_bank(dataset, dim: int, seed: int) -> PromptBank:
    """Encode one seeded-random training image per class.

    ``dataset`` must expose ``class_names``, ``train_labels`` and
    ``train_images`` (raw, un-normalized pixels).
    """
    rng = np.random.default_rng(seed)
    names = list(dataset.class_names)
    rows = np.empty((len(names), dim), dtype=np.float32)
    for c in range(len(names)):
        candidates = np.flatnonzero(dataset.train_labels == c)
        if candidates.size == 0:
            raise ConsistencyError(f"class {names[c]!r} has no training images to pick a prompt from")
        pick = int(candidates[rng.integers(candidates.size)])
        rows[c] = toy_image_encode(dataset.train_images[pick], dim).data
    return PromptBank(names, Tensor(rows), "image", "toy_image", seed=seed)


def build_mixed_bank(text: PromptBank, image: PromptBank) -> PromptBank:
    """Elementwise mean of the text and image rows; not re-normalized.

    The mixed bank reports the text component's source unless either side
    was loaded from a file.
    """
    if text.class_names != image.class_names:
        raise ConsistencyError("text and image banks list different classes")
    if text.dim != image.dim:
        raise ConsistencyError(f"prompt widths differ: text {text.dim} vs image {image.dim}")
    # the sum of two floats of equal precision is exact one precision up, so
    # averaging in float64 and rounding once preserves the identity bit-for-bit
    rows = (text.features.data.astype(np.float64) + image.features.data.astype(np.float64)) / 2.0
    if text.features.dtype == np.float64 and image.features.dtype == np.float64:
        out = rows
    else:
        out = rows.astype(np.float32)
    source = "file" if "file" in (text.source, image.source) else text.source
    return PromptBank(list(text.class_names), Tensor(out), "mixed", source, seed=image.seed)


# ---------------------------------------------------------------------------
# bank file format
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIBIIQ")


def save_bank(bank: PromptBank, path) -> None:
    feats = np.ascontiguousarray(bank.features.data.astype("<f4"))
    blob = bytearray()
    blob += _HEADER.pack(
        BANK_MAGIC, BANK_VERSION, _MODALITY_CODE[bank.modality],
        bank.n_classes, bank.dim, bank.seed,
    )
    blob += feats.tobytes()
    for name in bank.class_names:
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError(f"class name too long to serialize: {name[:32]!r}...")
        blob += struct.pack("<H", len(raw)) + raw
    with open(path, "wb") as f:
        f.write(bytes(blob))


def load_bank(path) -> PromptBank:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _HEADER.size:
        raise TruncatedFileError(f"bank file is only {len(blob)} bytes, header needs {_HEADER.size}")
    magic, version, mod_code, n, dim, seed = _HEADER.unpack_from(blob, 0)
    if magic != BANK_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {BANK_MAGIC!r}")
    if version != BANK_VERSION:
        raise VersionMismatchError(f"bank version {version} unsupported (expected {BANK_VERSION})")
    if mod_code not in _MODALITY_NAME:
        raise FormatError(f"unknown modality code {mod_code}")
    off = _HEADER.size
    feat_bytes = n * dim * 4
    if len(blob) < off + feat_bytes:
        raise TruncatedFileError(
            f"truncated features: expected {feat_bytes} bytes, got {len(blob) - off}"
        )
    feats = np.frombuffer(blob, dtype="<f4", count=n * dim, offset=off).reshape(n, dim).copy()
    off += feat_bytes
    names: list[str] = []
    for _ in range(n):
        if len(blob) < off + 2:
            raise TruncatedFileError(f"truncated name table after {len(names)} of {n} names")
        (ln,) = struct.unpack_from("<H", blob, off)
        off += 2
        if len(blob) < off + ln:
            raise TruncatedFileError(f"truncated name table after {len(names)} of {n} names")
        names.append(blob[off : off + ln].decode("utf-8"))
        off += ln
    if off != len(blob):
        raise FormatError(
            f"name table row count disagrees with feature rows: {len(blob) - off} trailing bytes after {n} names"
        )
    return PromptBank(names, Tensor(feats), _MODALITY_NAME[mod_code], "file", seed=seed)
