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
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ConsistencyError, FormatError, TruncatedFileError
from .tensor import Tensor

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
        if min(self.n_classes, self.n_train, self.n_val, self.image_size, self.channels) < 1:
            raise ValueError("all dataset counts and dims must be positive")
        if len(self.class_names) != self.n_classes:
            raise ConsistencyError(
                f"{len(self.class_names)} class names for {self.n_classes} classes"
            )


@dataclass
class LabeledBatch:
    images: Tensor                       # [B, C, H, W], normalized
    hard_labels: np.ndarray              # [B] int64
    raw_images: np.ndarray = field(repr=False, default=None)  # un-normalized pixels
    soft_labels: np.ndarray | None = None  # [B, C], rows sum to 1

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
        images[i] = img.astype(np.float32)
    return images


def generate_synthetic(out_dir, n_classes: int, n_train: int, n_val: int,
                       image_size: int, channels: int = 3, seed: int = 0,
                       noise_std: float = NOISE_STD,
                       class_names: list[str] | None = None) -> DatasetMeta:
    """Write a complete dataset directory; fully deterministic per seed."""
    names = list(class_names) if class_names is not None else default_class_names(n_classes)
    shape = (channels, image_size, image_size)
    train_labels = (np.arange(n_train) % n_classes).astype(np.uint32)
    val_labels = (np.arange(n_val) % n_classes).astype(np.uint32)
    train_images = _render_split(seed, 0, train_labels, shape, noise_std)
    val_images = _render_split(seed, 1, val_labels, shape, noise_std)
    meta = DatasetMeta(
        n_classes=n_classes, n_train=n_train, n_val=n_val,
        image_size=image_size, channels=channels, seed=seed,
        mean=float(train_images.mean(dtype=np.float64)),
        std=float(train_images.std(dtype=np.float64)),
        class_names=tuple(names),
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
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _read_meta(path) -> DatasetMeta:
    keys: dict[str, str] = {}
    names: list[str] = []
    in_classes = False
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
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
        return DatasetMeta(
            n_classes=int(keys["n_classes"]),
            n_train=int(keys["n_train"]),
            n_val=int(keys["n_val"]),
            image_size=int(keys["image_size"]),
            channels=int(keys["channels"]),
            seed=int(keys["seed"]),
            mean=float(keys["mean"]),
            std=float(keys["std"]),
            class_names=tuple(names),
        )
    except KeyError as e:
        raise FormatError(f"meta.txt is missing key {e.args[0]!r}") from e


def _read_exact(path, dtype, count: int) -> np.ndarray:
    expected = count * np.dtype(dtype).itemsize
    actual = os.path.getsize(path)
    if actual != expected:
        kind = "truncated" if actual < expected else "oversized"
        raise TruncatedFileError(
            f"{os.path.basename(path)} size mismatch ({kind}): expected {expected} bytes, got {actual}"
        )
    return np.fromfile(path, dtype=dtype, count=count)


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
        return ((raw - self.meta.mean) / self.meta.std).astype(np.float32)

    def _batches(self, images, labels, batch_size: int, order: np.ndarray) -> Iterator[LabeledBatch]:
        for start in range(0, labels.size, batch_size):
            idx = order[start : start + batch_size]
            raw = images[idx]
            yield LabeledBatch(
                images=Tensor(self.normalize(raw)),
                hard_labels=labels[idx].astype(np.int64),
                raw_images=raw,
            )

    def train_batches(self, batch_size: int, rng: np.random.Generator | None = None,
                      shuffle: bool = True) -> Iterator[LabeledBatch]:
        order = np.arange(self.meta.n_train)
        if shuffle:
            if rng is None:
                raise ValueError("shuffled train batches need an rng for reproducibility")
            rng.shuffle(order)
        return self._batches(self.train_images, self.train_labels, batch_size, order)

    def val_batches(self, batch_size: int) -> Iterator[LabeledBatch]:
        return self._batches(self.val_images, self.val_labels, batch_size, np.arange(self.meta.n_val))

    def save(self, out_dir) -> None:
        """Write the dataset directory; a loaded dataset re-saves byte-identically."""
        os.makedirs(out_dir, exist_ok=True)
        _write_meta(os.path.join(out_dir, "meta.txt"), self.meta)
        self.train_images.astype("<f4").tofile(os.path.join(out_dir, "train_images.bin"))
        self.train_labels.astype("<u4").tofile(os.path.join(out_dir, "train_labels.bin"))
        self.val_images.astype("<f4").tofile(os.path.join(out_dir, "val_images.bin"))
        self.val_labels.astype("<u4").tofile(os.path.join(out_dir, "val_labels.bin"))


def load(path) -> SyntheticDataset:
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
