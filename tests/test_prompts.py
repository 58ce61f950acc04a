"""Prompt construction: templates, toy encoders, bank builders, file format."""

import numpy as np
import pytest

from ivit.errors import (
    BadMagicError,
    ConsistencyError,
    FormatError,
    TruncatedFileError,
    VersionMismatchError,
)
from ivit.prompts import (
    DEFAULT_TEMPLATES,
    PromptBank,
    TemplateSet,
    build_image_bank,
    build_mixed_bank,
    build_text_bank,
    load_bank,
    render_templates,
    save_bank,
    toy_image_encode,
    toy_text_encode,
)
from ivit.tensor import Tensor


class FakeDataset:
    """Just enough surface for build_image_bank."""

    def __init__(self, class_names, images, labels):
        self.class_names = class_names
        self.train_images = images
        self.train_labels = np.asarray(labels)


def picked_rows(data, bank):
    """The training row each class's image prompt was encoded from."""
    encoded = [toy_image_encode(img, bank.dim).data for img in data.train_images]
    return [next(i for i, e in enumerate(encoded) if np.array_equal(e, row)) for row in bank.features.data]


def two_image_dataset(seed=0):
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
    return FakeDataset(["a", "b"], images, [0, 0, 1, 1])


class TestTemplates:
    def test_default_set_has_thirty(self):
        assert len(DEFAULT_TEMPLATES) == 30
        assert all(t.count("{}") == 1 for t in DEFAULT_TEMPLATES)

    def test_render_fills_slot(self):
        out = render_templates("dog", TemplateSet(("a photo of a {}.",) + DEFAULT_TEMPLATES[1:]))
        assert out[0] == "a photo of a dog."
        assert len(out) == 30

    def test_distinct_names_render_differently(self):
        assert render_templates("dog") != render_templates("zebra")

    def test_empty_class_name_rejected(self):
        with pytest.raises(ValueError):
            render_templates("")

    def test_wrong_template_count_rejected(self):
        with pytest.raises(ValueError, match="30"):
            TemplateSet(("a {}",))

    def test_template_without_slot_rejected(self):
        bad = ("no slot here",) + DEFAULT_TEMPLATES[1:]
        with pytest.raises(ValueError, match="slot"):
            TemplateSet(bad)


class TestToyTextEncoder:
    def test_deterministic(self):
        a = toy_text_encode("a photo of a dog.", 64)
        b = toy_text_encode("a photo of a dog.", 64)
        assert np.array_equal(a.data, b.data)

    def test_unit_norm(self):
        v = toy_text_encode("a photo of a heron.", 48)
        assert np.linalg.norm(v.data) == pytest.approx(1.0, abs=1e-6)

    def test_different_words_differ(self):
        a = toy_text_encode("dog", 64).data
        b = toy_text_encode("zebra", 64).data
        assert float(a @ b) < 1.0 - 1e-6


class TestToyImageEncoder:
    def test_deterministic(self):
        img = np.random.default_rng(0).normal(size=(3, 8, 8))
        assert np.array_equal(toy_image_encode(img, 32).data, toy_image_encode(img, 32).data)

    def test_unit_norm(self):
        img = np.random.default_rng(1).normal(size=(3, 16, 16))
        assert np.linalg.norm(toy_image_encode(img, 32).data) == pytest.approx(1.0, abs=1e-6)

    def test_one_grid_cell_changes_feature(self):
        img = np.zeros((1, 8, 8))
        other = img.copy()
        other[0, 0:2, 0:2] = 3.0  # entirely inside grid cell (0, 0)
        assert not np.array_equal(toy_image_encode(img, 32).data, toy_image_encode(other, 32).data)

    def test_too_small_rejected(self):
        with pytest.raises(Exception):
            toy_image_encode(np.zeros((3, 2, 2)), 16)


class TestTextBank:
    def test_bank_shape_and_metadata(self):
        bank = build_text_bank(["cat", "dog", "fox"], 32)
        assert bank.features.shape == (3, 32)
        assert bank.modality == "text" and bank.source == "toy_text"

    def test_mean_of_identical_vectors_is_that_vector(self):
        # all templates render to the same string -> all 30 features identical
        same = TemplateSet(("same text {}",) * 30)
        bank = build_text_bank(["dog"], 64, templates=same)
        single = toy_text_encode("same text dog", 64).data
        np.testing.assert_allclose(bank.features.data[0], single, atol=1e-7)

    def test_template_order_irrelevant(self):
        shuffled = tuple(reversed(DEFAULT_TEMPLATES))
        a = build_text_bank(["fox"], 32)
        b = build_text_bank(["fox"], 32, templates=TemplateSet(shuffled))
        np.testing.assert_allclose(a.features.data, b.features.data, atol=1e-6)

    def test_empty_class_list_rejected(self):
        with pytest.raises(ValueError):
            build_text_bank([], 32)

    def test_rows_unit_norm(self):
        bank = build_text_bank(["cat", "dog"], 32)
        np.testing.assert_allclose(np.linalg.norm(bank.features.data, axis=1), 1.0, atol=1e-6)


class TestImageBank:
    def test_same_seed_same_bank(self):
        data = two_image_dataset()
        a = build_image_bank(data, 16, seed=5)
        b = build_image_bank(data, 16, seed=5)
        assert np.array_equal(a.features.data, b.features.data)

    def test_single_image_class_forced(self):
        rng = np.random.default_rng(2)
        data = FakeDataset(["only"], rng.normal(size=(1, 3, 8, 8)), [0])
        bank = build_image_bank(data, 16, seed=9)
        assert picked_rows(data, bank) == [0]

    def test_seeds_can_pick_differently(self):
        # exhaustive over seeds on a two-image class: both picks must occur
        data = two_image_dataset()
        picks = {tuple(picked_rows(data, build_image_bank(data, 16, seed=s))) for s in range(16)}
        assert len(picks) > 1

    def test_class_without_images_rejected(self):
        data = FakeDataset(["a", "b"], np.zeros((2, 3, 8, 8)), [0, 0])
        with pytest.raises(ConsistencyError, match="no training images"):
            build_image_bank(data, 16, seed=0)


class TestMixedBank:
    def make_pair(self):
        text = PromptBank(["a", "b"], Tensor([[1.0, 0.0], [0.0, 1.0]]), "text", "toy_text")
        image = PromptBank(["a", "b"], Tensor([[0.0, 1.0], [1.0, 0.0]]), "image", "toy_image", seed=3)
        return text, image

    def test_elementwise_mean(self):
        text, image = self.make_pair()
        mixed = build_mixed_bank(text, image)
        np.testing.assert_array_equal(mixed.features.data, [[0.5, 0.5], [0.5, 0.5]])
        assert mixed.modality == "mixed"

    def test_mixing_identical_banks_is_identity(self):
        text, _ = self.make_pair()
        other = PromptBank(["a", "b"], Tensor(text.features.data.copy()), "image", "toy_image")
        mixed = build_mixed_bank(text, other)
        np.testing.assert_array_equal(mixed.features.data, text.features.data)

    def test_symmetric(self):
        text, image = self.make_pair()
        ab = build_mixed_bank(text, image).features.data
        # swap the roles; feature math must not care which side is which
        image2 = PromptBank(["a", "b"], Tensor(text.features.data), "image", "toy_image")
        text2 = PromptBank(["a", "b"], Tensor(image.features.data), "text", "toy_text")
        ba = build_mixed_bank(text2, image2).features.data
        np.testing.assert_array_equal(ab, ba)

    def test_class_list_mismatch_rejected(self):
        text, image = self.make_pair()
        image.class_names = ["a", "c"]
        with pytest.raises(ConsistencyError):
            build_mixed_bank(text, image)


class TestBankFile:
    def roundtrip(self, tmp_path, bank):
        path = tmp_path / "bank.ivpb"
        save_bank(bank, path)
        return path, load_bank(path)

    def test_round_trip_bit_exact(self, tmp_path):
        bank = build_text_bank(["heron", "anvil", "comet"], 24)
        path, loaded = self.roundtrip(tmp_path, bank)
        assert np.array_equal(loaded.features.data, bank.features.data)
        assert loaded.class_names == bank.class_names
        assert loaded.modality == bank.modality
        assert loaded.seed == bank.seed
        assert loaded.source == "file"
        # saving the loaded bank reproduces the file byte for byte
        path2 = tmp_path / "bank2.ivpb"
        save_bank(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path, _ = self.roundtrip(tmp_path, build_text_bank(["x1"], 8))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            load_bank(path)

    def test_version_mismatch(self, tmp_path):
        path, _ = self.roundtrip(tmp_path, build_text_bank(["x1"], 8))
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError):
            load_bank(path)

    def test_truncated_features(self, tmp_path):
        path, _ = self.roundtrip(tmp_path, build_text_bank(["x1", "x2"], 8))
        blob = path.read_bytes()
        path.write_bytes(blob[: 25 + 3 * 8])  # header + part of the feature block
        with pytest.raises(TruncatedFileError, match="features"):
            load_bank(path)

    def test_truncated_name_table(self, tmp_path):
        path, _ = self.roundtrip(tmp_path, build_text_bank(["x1", "x2"], 8))
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(TruncatedFileError, match="name table"):
            load_bank(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path, _ = self.roundtrip(tmp_path, build_text_bank(["x1"], 8))
        path.write_bytes(path.read_bytes() + b"\x02xy")
        with pytest.raises(FormatError, match="name table"):
            load_bank(path)


def test_reencoding_never_changes_a_bank():
    names = ["heron", "anvil"]
    a = build_text_bank(names, 16).features.data
    b = build_text_bank(names, 16).features.data
    assert np.array_equal(a, b)
