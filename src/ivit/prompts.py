"""Frozen per-class prompt features.

Three modalities: text (the 30 sentence templates of `DEFAULT_TEMPLATES`
per class, encoded and averaged), image (one seeded training image per class), and mixed (the
elementwise mean of the two). The encoders here are deterministic toy
stand-ins for a real frozen text/image encoder pair; externally computed
features can be carried through the same bank file format instead.

Prompt features are data, never parameters: the encoders return plain
arrays, a bank holds an ``[N, D_p]`` array, and the model turns the rows it
is given into a ``Tensor`` itself.

Bank file layout (little-endian throughout):

    magic   4 bytes  "IVPB"
    version u32      currently 1
    modality u8      0=text 1=image 2=mixed
    N       u32      class count
    D_p     u32      feature width
    seed    u64      image-selection seed (0 when unused)
    features N * D_p float32, row-major
    names   N entries of (u16 length + UTF-8 bytes)

Rows are stored as float32: a float32 bank round-trips bit-exactly, float64
rows come back rounded. Every feature must be finite, N and D_p positive,
and nothing may follow the name table; a file that breaks any of these is a
format error. The bytes are read through `_binfile.Reader`, which the
checkpoint format shares. A bank's seed must fit the u64 field, so one
outside [0, 2**64) is rejected when the bank is built, before anything is
written.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from ._atomic import write_atomic
from ._binfile import Reader, pack_name
from .errors import (
    BadMagicError,
    ConsistencyError,
    FormatError,
    ShapeError,
    VersionMismatchError,
)
BANK_MAGIC = b"IVPB"
BANK_VERSION = 1

#: a modality's code in the bank file is its index here
MODALITIES = ("text", "image", "mixed")

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


def check_bank_seed(seed) -> None:
    """Raise ``ValueError`` unless ``seed`` is an integer the file's u64 field holds."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"bank seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"bank seed must lie in [0, 2**64), got {seed}")


@dataclass
class PromptBank:
    """Per-class prompt feature table of at least one row. Frozen data, never a parameter."""

    class_names: list[str]
    features: np.ndarray  # [N, D_p], float32 or float64
    modality: str
    seed: int = field(default=0, kw_only=True)

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        check_bank_seed(self.seed)
        feats = np.asarray(self.features)
        if feats.dtype not in (np.float32, np.float64):
            feats = feats.astype(np.float32)
        self.features = np.ascontiguousarray(feats)
        if self.features.ndim != 2 or self.features.shape[0] != len(self.class_names):
            raise ShapeError(
                f"features shape {self.features.shape} does not match {len(self.class_names)} class names"
            )
        if self.features.shape[1] < 1:
            raise ShapeError("prompt feature width must be positive")
        if self.features.shape[0] < 1:
            raise ShapeError("a prompt bank needs at least one row")
        if not np.isfinite(self.features).all():
            raise ValueError("prompt features must be finite")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def render_templates(class_name: str) -> list[str]:
    """Instantiate every template of `DEFAULT_TEMPLATES` with the class name."""
    if not class_name:
        raise ValueError("class name must be non-empty")
    return [t.format(class_name) for t in DEFAULT_TEMPLATES]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / (np.linalg.norm(v) + T.NORM_EPS)


def _encode_texts(texts: list[str], dim: int) -> np.ndarray:
    """`toy_text_encode` of every text -> [S, dim] float32.

    Each distinct trigram is hashed once per call (a bank's 960 sentences
    hold about 500 of them among 23,000), and the signed counts are filled by
    one ``np.add.at``. The counts are small integers, so their sum of squares
    is exact in any order and each row's norm equals ``np.linalg.norm``'s.
    """
    buckets: dict[str, tuple[int, float]] = {}
    rows, cols, signs = [], [], []
    for r, text in enumerate(texts):
        low = text.lower()
        for i in range(len(low) - 2):
            trigram = low[i : i + 3]
            hit = buckets.get(trigram)
            if hit is None:
                digest = hashlib.blake2b(trigram.encode("utf-8"), digest_size=8).digest()
                h = int.from_bytes(digest, "little")
                hit = buckets[trigram] = ((h >> 1) % dim, 1.0 if h & 1 == 0 else -1.0)
            rows.append(r)
            cols.append(hit[0])
            signs.append(hit[1])
    counts = np.zeros((len(texts), dim), dtype=np.float64)
    np.add.at(counts, (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)), signs)
    norms = np.sqrt((counts * counts).sum(axis=1, keepdims=True))
    return (counts / (norms + T.NORM_EPS)).astype(np.float32)


def toy_text_encode(text: str, dim: int) -> np.ndarray:
    """Deterministic text feature: signed character-trigram hashing, unit norm.

    Trigram buckets come from a keyed stable hash, so the same string always
    maps to the same vector across processes. Strings shorter than three
    characters encode to zero.
    """
    return _encode_texts([text], dim)[0]


def _grid_pool(img: np.ndarray) -> np.ndarray:
    """Mean over a 4x4 spatial grid per channel, `np.array_split`'s cells -> [C * 16] features."""
    sizes = [np.full(_GRID, n // _GRID) + (np.arange(_GRID) < n % _GRID) for n in img.shape[1:]]
    sums = img
    for axis, size in enumerate(sizes, start=1):
        sums = np.add.reduceat(sums, np.cumsum(size) - size, axis=axis)
    return (sums / np.outer(*sizes)).reshape(-1)


@functools.cache
def _projection(n_in: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(_IMAGE_PROJECTION_SEED)
    return rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, dim))


def toy_image_encode(image, dim: int) -> np.ndarray:
    """Deterministic image feature: 4x4 grid pooling through a frozen Gaussian projection, unit norm."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[1] < _GRID or img.shape[2] < _GRID:
        raise ShapeError(f"toy_image_encode expects [C, H, W] with H, W >= {_GRID}, got {img.shape}")
    if not np.isfinite(img).all():
        raise ValueError("image pixels must be finite")
    feats = _grid_pool(img)
    return _unit(feats @ _projection(feats.size, dim)).astype(np.float32)


def _bank_rows(n: int, dim: int) -> np.ndarray:
    """An empty ``[n, dim]`` float32 array; a width below 1 or one numpy cannot index is a ``ValueError``."""
    if dim < 1:
        raise ValueError(f"prompt feature width must be >= 1, got {dim}")
    try:
        return np.empty((n, dim), dtype=np.float32)
    except ValueError as e:
        raise ValueError(f"prompt feature width {dim} is too large: {e}") from e


def build_text_bank(class_names: list[str], dim: int) -> PromptBank:
    """Encode all 30 rendered sentences per class and average; rows are re-normalized."""
    rows = _bank_rows(len(class_names), dim)
    per_class = len(DEFAULT_TEMPLATES)
    encoded = _encode_texts([s for name in class_names for s in render_templates(name)], dim)
    for i in range(len(class_names)):
        mean = encoded[i * per_class : (i + 1) * per_class].mean(axis=0)
        rows[i] = _unit(mean.astype(np.float64)).astype(np.float32)
    return PromptBank(list(class_names), rows, "text")


def build_image_bank(dataset, dim: int, seed: int) -> PromptBank:
    """Encode one seeded-random training image per class.

    ``dataset`` must expose ``class_names``, ``train_labels`` and
    ``train_images`` (raw, un-normalized pixels).
    """
    names = list(dataset.class_names)
    rows = _bank_rows(len(names), dim)
    rng = np.random.default_rng(seed)
    for c in range(len(names)):
        candidates = np.flatnonzero(dataset.train_labels == c)
        if candidates.size == 0:
            raise ConsistencyError(f"class {names[c]!r} has no training images to pick a prompt from")
        pick = int(candidates[rng.integers(candidates.size)])
        rows[c] = toy_image_encode(dataset.train_images[pick], dim)
    return PromptBank(names, rows, "image", seed=seed)


def build_mixed_bank(text: PromptBank, image: PromptBank) -> PromptBank:
    """Elementwise mean of the text and image rows; not re-normalized."""
    if text.class_names != image.class_names:
        raise ConsistencyError("text and image banks list different classes")
    if text.dim != image.dim:
        raise ConsistencyError(f"prompt widths differ: text {text.dim} vs image {image.dim}")
    # the sum of two floats of equal precision is exact one precision up, so
    # averaging in float64 and rounding once preserves the identity bit-for-bit
    rows = (text.features.astype(np.float64) + image.features.astype(np.float64)) / 2.0
    if text.features.dtype == np.float64 and image.features.dtype == np.float64:
        out = rows
    else:
        out = rows.astype(np.float32)
    return PromptBank(list(text.class_names), out, "mixed", seed=image.seed)


# ---------------------------------------------------------------------------
# bank file format
# ---------------------------------------------------------------------------

_HEADER = "<4sIBIIQ"


def save_bank(bank: PromptBank, path) -> None:
    blob = bytearray(struct.pack(
        _HEADER, BANK_MAGIC, BANK_VERSION, MODALITIES.index(bank.modality),
        bank.n_classes, bank.dim, bank.seed,
    ))
    blob += np.ascontiguousarray(bank.features.astype("<f4")).tobytes()
    for name in bank.class_names:
        blob += pack_name(name)
    write_atomic(path, blob)


def load_bank(path) -> PromptBank:
    """Read a bank file; any fault in it, a feature width or row count of 0 included, is a `FormatError`."""
    with open(path, "rb") as f:
        r = Reader(f.read(), f"bank {path}")
    magic, version, mod_code, n, dim, seed = r.unpack(_HEADER, "header")
    if magic != BANK_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {BANK_MAGIC!r}")
    if version != BANK_VERSION:
        raise VersionMismatchError(f"bank version {version} unsupported (expected {BANK_VERSION})")
    if mod_code >= len(MODALITIES):
        raise FormatError(f"unknown modality code {mod_code}")
    feats = np.frombuffer(r.take(n * dim * 4, "features"), dtype="<f4").reshape(n, dim).copy()
    names = [r.name(f"name {i} of the name table") for i in range(n)]
    r.end(f"the name table ({n} names)")
    try:
        return PromptBank(names, feats, MODALITIES[mod_code], seed=seed)
    except ValueError as e:
        raise FormatError(f"bank {path}: {e}") from e
