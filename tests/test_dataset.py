"""Synthetic dataset generation, the binary format, and the loader."""

import math
import os

import numpy as np
import pytest

from ivit import dataset as ds
from ivit.errors import FormatError, TruncatedFileError


def gen(tmp_path, name="d", **kw):
    args = dict(n_classes=4, n_train=32, n_val=16, image_size=8, channels=3, seed=7)
    args.update(kw)
    out = tmp_path / name
    meta = ds.generate_synthetic(out, **args)
    return out, meta


def read_all(path):
    return {f: (path / f).read_bytes() for f in sorted(os.listdir(path))}


class TestGeneration:
    def test_same_seed_byte_identical(self, tmp_path):
        a, _ = gen(tmp_path, "a")
        b, _ = gen(tmp_path, "b")
        assert read_all(a) == read_all(b)

    def test_different_seed_differs(self, tmp_path):
        a, _ = gen(tmp_path, "a")
        b, _ = gen(tmp_path, "b", seed=8)
        assert read_all(a) != read_all(b)

    def test_labels_cover_all_classes(self, tmp_path):
        out, _ = gen(tmp_path, n_classes=8, n_train=512)
        labels = np.fromfile(out / "train_labels.bin", dtype="<u4")
        assert labels.size == 512
        assert set(labels.tolist()) == set(range(8))

    def test_zero_noise_makes_class_images_identical(self, tmp_path):
        out, _ = gen(tmp_path, noise_std=0.0)
        data = ds.load(out)
        for c in range(4):
            imgs = data.train_images[data.train_labels == c]
            assert (imgs == imgs[0]).all()

    def test_pixels_finite_and_stats_recorded(self, tmp_path):
        out, meta = gen(tmp_path)
        data = ds.load(out)
        assert np.isfinite(data.train_images).all()
        assert meta.std > 0
        normalized = data.normalize(data.train_images)
        assert abs(float(normalized.mean())) < 1e-3
        assert float(normalized.std()) == pytest.approx(1.0, abs=1e-3)


    def test_numpy_integer_counts_write_plain_meta(self, tmp_path):
        counts = dict(n_classes=2, n_train=4, n_val=2, image_size=8, channels=3, seed=3)
        a, _ = gen(tmp_path, "a", **counts)
        b, _ = gen(tmp_path, "b", **{k: np.int64(v) for k, v in counts.items()})
        assert (b / "meta.txt").read_text().startswith(
            "n_classes=2\nn_train=4\nn_val=2\nimage_size=8\nchannels=3\nseed=3\nmean=")
        assert read_all(a) == read_all(b)
        assert ds.load(b).meta == ds.load(a).meta


class TestLoader:
    def test_round_trip_byte_identical(self, tmp_path):
        out, _ = gen(tmp_path)
        data = ds.load(out)
        resaved = tmp_path / "resaved"
        data.save(resaved)
        assert read_all(out) == read_all(resaved)

    def test_truncated_images_reports_sizes(self, tmp_path):
        out, meta = gen(tmp_path)
        path = out / "train_images.bin"
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])
        expected = meta.n_train * meta.channels * meta.image_size**2 * 4
        with pytest.raises(TruncatedFileError, match=f"{expected}.*{expected - 100}"):
            ds.load(out)

    def test_label_out_of_range(self, tmp_path):
        out, _ = gen(tmp_path)
        labels = np.fromfile(out / "train_labels.bin", dtype="<u4")
        labels[3] = 99
        labels.tofile(out / "train_labels.bin")
        with pytest.raises(FormatError, match="99"):
            ds.load(out)

    @pytest.mark.parametrize("split", ["train", "val"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_is_a_format_error_naming_the_file(self, tmp_path, split, value):
        out, _ = gen(tmp_path)
        pixels = np.fromfile(out / f"{split}_images.bin", dtype="<f4")
        pixels[5] = value
        pixels.tofile(out / f"{split}_images.bin")
        with pytest.raises(FormatError, match=f"^{split}_images.bin holds a pixel that is not finite$"):
            ds.load(out)

    def test_pixels_at_the_float32_limits_load(self, tmp_path):
        out, _ = gen(tmp_path)
        pixels = np.fromfile(out / "train_images.bin", dtype="<f4")
        big = np.finfo(np.float32).max
        pixels[:] = np.where(np.arange(pixels.size) % 2, big, -big)
        pixels[-3:] = big  # a float32 sum of these would overflow
        pixels.tofile(out / "train_images.bin")
        assert np.array_equal(ds.load(out).train_images.reshape(-1), pixels)

    def test_missing_file(self, tmp_path):
        out, _ = gen(tmp_path)
        os.remove(out / "val_labels.bin")
        with pytest.raises(OSError):
            ds.load(out)

    def test_batch_count_is_ceil(self, tmp_path):
        out, _ = gen(tmp_path, n_train=50)
        data = ds.load(out)
        batches = list(data.train_batches(16, rng=np.random.default_rng(0)))
        assert len(batches) == math.ceil(50 / 16)
        assert sum(len(b) for b in batches) == 50

    def test_reshuffle_reproducible(self, tmp_path):
        out, _ = gen(tmp_path)
        data = ds.load(out)

        def epoch_labels(seed):
            rng = np.random.default_rng(seed)
            # two epochs from the same rng stream, like the trainer drives it
            return [tuple(b.hard_labels.tolist()) for _ in range(2)
                    for b in data.train_batches(8, rng=rng)]

        assert epoch_labels(3) == epoch_labels(3)

    def test_val_batches_ordered(self, tmp_path):
        out, _ = gen(tmp_path)
        data = ds.load(out)
        got = np.concatenate([b.hard_labels for b in data.val_batches(5)])
        np.testing.assert_array_equal(got, data.val_labels.astype(np.int64))

    def test_batches_carry_raw_and_normalized(self, tmp_path):
        out, meta = gen(tmp_path)
        data = ds.load(out)
        batch = next(iter(data.val_batches(4)))
        np.testing.assert_allclose(
            batch.images, (batch.raw_images - meta.mean) / meta.std, atol=1e-6
        )


def test_default_class_names_are_distinct():
    names = ds.default_class_names(40)
    assert len(names) == len(set(names)) == 40
