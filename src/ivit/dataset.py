"""Synthetic classification data and its on-disk format.

Each class is a frozen random spatial pattern (seeded by (seed, class));
samples add i.i.d. Gaussian pixel noise on top, which keeps the classes
cleanly separable for a tiny model while still giving the optimizer real
work. Labels are assigned round-robin so every split is balanced.

Directory layout:

    meta.txt          key=value lines (n_classes, n_train, n_val, image_size,
                      channels, seed, mean, std) then class names, one per
                      line, after a "[classes]" marker
    train_images.bin  float32 LE, sample-major C*H*W
    train_labels.bin  u32 LE
    val_images.bin    float32 LE
    val_labels.bin    u32 LE

Normalization statistics (scalar mean/std over the train split) are computed
at generation time and applied to batches at load time as (x - mean) / std.
A `LabeledBatch` holds plain arrays: normalized pixels, hard labels and the
raw pixels that prompt selection encodes; the model wraps pixels for autograd
itself, and mixup's soft labels come back from `trainer.mixup` rather than
living on the batch. Train batches are shuffled by the rng passed in, or come
in stored order without one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ._atomic import write_atomic
from .errors import ConsistencyError, FormatError, TruncatedFileError

NOISE_STD = 0.25

# default class names; synthetic classes beyond the list fall back to class_<i>
_NOUNS = (
    "heron", "anvil", "comet", "fern", "gecko", "harbor", "ingot", "jasper",
    "kayak", "lantern", "marble", "nutmeg", "orchid", "pylon", "quartz", "raven",
    "saddle", "thimble", "urchin", "violet", "walnut", "xylophone", "yarrow", "zeppelin",
    "basalt", "cobalt", "dahlia", "ember", "falcon", "garnet", "hazel", "iris",
)


def default_class_names(n: int) -> list[str]:
    return [(_NOUNS[i] if i < len(_NOUNS) else f"class_{i}") for i in range(n)]


@dataclass(frozen=True)
class DatasetMeta:
    n_classes: int
    n_train: int
    n_val: int
    image_size: int
    channels: int
    seed: int
    mean: float
    std: float
    class_names: tuple[str, ...]

    def __post_init__(self):
        counts = [self.n_classes, self.n_train, self.n_val, self.image_size, self.channels]
        if min(counts) < 1:
            raise ValueError(f"counts and dims must be positive, got {counts}")
        if len(self.class_names) != self.n_classes:
            raise ConsistencyError(
                f"{len(self.class_names)} class names for {self.n_classes} classes"
            )


@dataclass
class LabeledBatch:
    images: np.ndarray                   # [B, C, H, W], normalized
    hard_labels: np.ndarray              # [B] int64
    raw_images: np.ndarray = field(repr=False, default=None)  # un-normalized pixels

    def __len__(self) -> int:
        return self.hard_labels.shape[0]


def _class_pattern(seed: int, c: int, shape: tuple[int, ...]) -> np.ndarray:
    return np.random.default_rng([seed, c]).normal(0.0, 1.0, size=shape)


def _render_split(meta_seed: int, split_tag: int, labels: np.ndarray,
                  shape: tuple[int, ...], noise_std: float) -> np.ndarray:
    patterns = {c: _class_pattern(meta_seed, c, shape) for c in np.unique(labels)}
    noise_rng = np.random.default_rng([meta_seed, 0xA11CE, split_tag])
    images = np.empty((labels.size,) + shape, dtype=np.float32)
    for i, c in enumerate(labels):
        img = patterns[int(c)]
        if noise_std > 0:
            img = img + noise_rng.normal(0.0, noise_std, size=shape)
        images[i] = img
    return images


def generate_synthetic(out_dir, n_classes: int, n_train: int, n_val: int,
                       image_size: int, channels: int = 3, seed: int = 0,
                       noise_std: float = NOISE_STD) -> DatasetMeta:
    """Write a complete dataset directory; fully deterministic per seed.

    Counts, size and channels must be positive, ``n_classes`` at most
    ``n_train`` (labels go round-robin, so a class past the train split's
    length would have no training image), and ``noise_std`` finite and
    non-negative; a bad value raises ``ValueError`` before anything is rendered.
    Pixels that overflow float32 or that are all equal cannot be normalized,
    so they raise ``ValueError`` before anything is written.
    """
    for name, value in (("n_classes", n_classes), ("n_train", n_train), ("n_val", n_val),
                        ("image_size", image_size), ("channels", channels)):
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    if n_classes > n_train:
        raise ValueError(f"n_classes {n_classes} exceeds n_train {n_train}: every class needs a training image")
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    shape = (channels, image_size, image_size)
    train_labels = (np.arange(n_train) % n_classes).astype(np.uint32)
    val_labels = (np.arange(n_val) % n_classes).astype(np.uint32)
    # a pixel past float32's range casts to inf, which makes its split's sum non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        train_images = _render_split(seed, 0, train_labels, shape, noise_std)
        val_images = _render_split(seed, 1, val_labels, shape, noise_std)
        mean = float(train_images.mean(dtype=np.float64))
        std = float(train_images.std(dtype=np.float64))
        val_sum = float(val_images.sum(dtype=np.float64))
    if not (math.isfinite(mean) and math.isfinite(val_sum)):
        raise ValueError(f"noise_std {noise_std} overflows float32 pixels")
    if std == 0.0:
        raise ValueError("the train pixels are all equal, so they cannot be normalized")
    meta = DatasetMeta(
        n_classes=n_classes, n_train=n_train, n_val=n_val,
        image_size=image_size, channels=channels, seed=seed,
        mean=mean, std=std, class_names=tuple(default_class_names(n_classes)),
    )
    SyntheticDataset(meta, train_images, train_labels, val_images, val_labels).save(out_dir)
    return meta


def _write_meta(path, meta: DatasetMeta) -> None:
    lines = [
        f"n_classes={meta.n_classes}",
        f"n_train={meta.n_train}",
        f"n_val={meta.n_val}",
        f"image_size={meta.image_size}",
        f"channels={meta.channels}",
        f"seed={meta.seed}",
        f"mean={meta.mean!r}",
        f"std={meta.std!r}",
        "[classes]",
        *meta.class_names,
    ]
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _read_meta(path) -> DatasetMeta:
    """Parse ``meta.txt``; a malformed value is a `FormatError` naming the file."""
    keys: dict[str, str] = {}
    names: list[str] = []
    in_classes = False
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError as e:
        raise FormatError(f"meta.txt is not UTF-8: {e}") from e
    for line in lines:
        if not line:
            continue
        if line == "[classes]":
            in_classes = True
            continue
        if in_classes:
            names.append(line)
        else:
            key, _, value = line.partition("=")
            keys[key] = value
    try:
        counts = [int(keys[k]) for k in ("n_classes", "n_train", "n_val", "image_size", "channels", "seed")]
        mean, std = float(keys["mean"]), float(keys["std"])
    except KeyError as e:
        raise FormatError(f"meta.txt is missing key {e.args[0]!r}") from e
    except ValueError as e:
        raise FormatError(f"meta.txt holds a non-numeric value: {e}") from e
    if not math.isfinite(mean):
        raise FormatError(f"meta.txt: mean must be finite, got {mean}")
    if not (math.isfinite(std) and std > 0.0):
        raise FormatError(f"meta.txt: std must be finite and > 0, got {std}")
    try:
        return DatasetMeta(*counts, mean=mean, std=std, class_names=tuple(names))
    except ValueError as e:
        raise FormatError(f"meta.txt: {e}") from e


def _read_exact(path, dtype, count: int) -> np.ndarray:
    expected = count * np.dtype(dtype).itemsize
    actual = os.path.getsize(path)
    if actual != expected:
        kind = "truncated" if actual < expected else "oversized"
        raise TruncatedFileError(
            f"{os.path.basename(path)} size mismatch ({kind}): expected {expected} bytes, got {actual}"
        )
    return np.fromfile(path, dtype=dtype, count=count)


def check_batch_size(batch_size) -> None:
    if isinstance(batch_size, bool) or not isinstance(batch_size, (int, np.integer)) or batch_size < 1:
        raise ValueError(f"batch_size must be a positive integer, got {batch_size!r}")


class SyntheticDataset:
    """In-memory dataset with seeded shuffled train batches and ordered val batches."""

    def __init__(self, meta: DatasetMeta, train_images, train_labels, val_images, val_labels):
        self.meta = meta
        self.train_images = train_images
        self.train_labels = train_labels
        self.val_images = val_images
        self.val_labels = val_labels

    @property
    def class_names(self) -> list[str]:
        return list(self.meta.class_names)

    @property
    def n_classes(self) -> int:
        return self.meta.n_classes

    def normalize(self, raw: np.ndarray) -> np.ndarray:
        return ((raw - self.meta.mean) / self.meta.std).astype(np.float32, copy=False)

    def _batch(self, images, labels, idx: np.ndarray) -> LabeledBatch:
        raw = images[idx]
        return LabeledBatch(images=self.normalize(raw), hard_labels=labels[idx].astype(np.int64),
                            raw_images=raw)

    def _batches(self, images, labels, batch_size: int, order: np.ndarray) -> Iterator[LabeledBatch]:
        check_batch_size(batch_size)
        return (self._batch(images, labels, order[start : start + batch_size])
                for start in range(0, labels.size, batch_size))

    def train_batches(self, batch_size: int, rng: np.random.Generator | None = None) -> Iterator[LabeledBatch]:
        """Batches shuffled by ``rng``, or in stored order without one."""
        order = np.arange(self.meta.n_train)
        if rng is not None:
            rng.shuffle(order)
        return self._batches(self.train_images, self.train_labels, batch_size, order)

    def val_batches(self, batch_size: int) -> Iterator[LabeledBatch]:
        return self._batches(self.val_images, self.val_labels, batch_size, np.arange(self.meta.n_val))

    def save(self, out_dir) -> None:
        """Write the dataset directory; a loaded dataset re-saves byte-identically.

        Each file is replaced atomically, but the directory as a whole is not:
        a failure part-way can leave new files next to old ones. An array
        already in its file's dtype and layout is written as it lies, without
        a copy.
        """
        os.makedirs(out_dir, exist_ok=True)
        _write_meta(os.path.join(out_dir, "meta.txt"), self.meta)
        for name, arr, fmt in (("train_images", self.train_images, "<f4"),
                               ("train_labels", self.train_labels, "<u4"),
                               ("val_images", self.val_images, "<f4"),
                               ("val_labels", self.val_labels, "<u4")):
            write_atomic(os.path.join(out_dir, f"{name}.bin"), np.ascontiguousarray(arr, dtype=fmt))


def load(path) -> SyntheticDataset:
    """Read a dataset directory; a malformed or damaged file, a non-finite pixel included, is a `FormatError`."""
    meta_path = os.path.join(path, "meta.txt")
    if not os.path.exists(meta_path):
        raise FileNotFoundError(f"no meta.txt under {path}")
    meta = _read_meta(meta_path)
    pixel = meta.channels * meta.image_size * meta.image_size
    shape = (meta.channels, meta.image_size, meta.image_size)
    train_images = _read_exact(os.path.join(path, "train_images.bin"), "<f4", meta.n_train * pixel)
    train_labels = _read_exact(os.path.join(path, "train_labels.bin"), "<u4", meta.n_train)
    val_images = _read_exact(os.path.join(path, "val_images.bin"), "<f4", meta.n_val * pixel)
    val_labels = _read_exact(os.path.join(path, "val_labels.bin"), "<u4", meta.n_val)
    for tag, images in (("train", train_images), ("val", val_images)):
        # max and min carry a NaN through, so both are finite iff every pixel is
        if not (math.isfinite(images.max()) and math.isfinite(images.min())):
            raise FormatError(f"{tag}_images.bin holds a pixel that is not finite")
    for tag, labels in (("train", train_labels), ("val", val_labels)):
        if labels.size and labels.max() >= meta.n_classes:
            raise FormatError(
                f"{tag}_labels.bin contains label {int(labels.max())} >= n_classes {meta.n_classes}"
            )
    return SyntheticDataset(
        meta,
        train_images.reshape((meta.n_train,) + shape),
        train_labels,
        val_images.reshape((meta.n_val,) + shape),
        val_labels,
    )
