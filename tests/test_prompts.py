"""Prompt construction: templates, toy encoders, bank builders, file format."""

import numpy as np
import pytest

from ivit import prompts
from ivit.errors import (
    BadMagicError,
    ConsistencyError,
    FormatError,
    ShapeError,
    TruncatedFileError,
    VersionMismatchError,
)
from ivit.prompts import (
    DEFAULT_TEMPLATES,
    PromptBank,
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
    encoded = [toy_image_encode(img, bank.dim) for img in data.train_images]
    return [next(i for i, e in enumerate(encoded) if np.array_equal(e, row)) for row in bank.features]


def two_image_dataset(seed=0):
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
    return FakeDataset(["a", "b"], images, [0, 0, 1, 1])


class TestTemplates:
    def test_default_set_has_thirty(self):
        assert len(DEFAULT_TEMPLATES) == 30
        assert all(t.count("{}") == 1 for t in DEFAULT_TEMPLATES)

    def test_render_fills_slot(self):
        out = render_templates("dog")
        assert out[0] == "a photo of a dog."
        assert len(out) == 30

    def test_distinct_names_render_differently(self):
        assert render_templates("dog") != render_templates("zebra")

    def test_empty_class_name_rejected(self):
        with pytest.raises(ValueError):
            render_templates("")



class TestToyTextEncoder:
    def test_deterministic(self):
        a = toy_text_encode("a photo of a dog.", 64)
        b = toy_text_encode("a photo of a dog.", 64)
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        v = toy_text_encode("a photo of a heron.", 48)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-6)

    def test_different_words_differ(self):
        a = toy_text_encode("dog", 64)
        b = toy_text_encode("zebra", 64)
        assert float(a @ b) < 1.0 - 1e-6


class TestToyImageEncoder:
    def test_deterministic(self):
        img = np.random.default_rng(0).normal(size=(3, 8, 8))
        assert np.array_equal(toy_image_encode(img, 32), toy_image_encode(img, 32))

    def test_unit_norm(self):
        img = np.random.default_rng(1).normal(size=(3, 16, 16))
        assert np.linalg.norm(toy_image_encode(img, 32)) == pytest.approx(1.0, abs=1e-6)

    def test_one_grid_cell_changes_feature(self):
        img = np.zeros((1, 8, 8))
        other = img.copy()
        other[0, 0:2, 0:2] = 3.0  # entirely inside grid cell (0, 0)
        assert not np.array_equal(toy_image_encode(img, 32), toy_image_encode(other, 32))

    def test_too_small_rejected(self):
        with pytest.raises(Exception):
            toy_image_encode(np.zeros((3, 2, 2)), 16)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pixel_rejected(self, bad):
        image = np.zeros((3, 8, 8))
        image[1, 2, 3] = bad
        with pytest.raises(ValueError, match="^image pixels must be finite$"):
            toy_image_encode(image, 16)


class TestTextBank:
    def test_bank_shape_and_metadata(self):
        bank = build_text_bank(["cat", "dog", "fox"], 32)
        assert bank.features.shape == (3, 32)
        assert bank.modality == "text"

    def test_mean_of_identical_vectors_is_that_vector(self, monkeypatch):
        # all templates render to the same string -> all 30 features identical
        monkeypatch.setattr(prompts, "DEFAULT_TEMPLATES", ("same text {}",) * 30)
        bank = build_text_bank(["dog"], 64)
        single = toy_text_encode("same text dog", 64)
        np.testing.assert_allclose(bank.features[0], single, atol=1e-7)

    def test_template_order_irrelevant(self, monkeypatch):
        a = build_text_bank(["fox"], 32)
        monkeypatch.setattr(prompts, "DEFAULT_TEMPLATES", tuple(reversed(DEFAULT_TEMPLATES)))
        b = build_text_bank(["fox"], 32)
        np.testing.assert_allclose(a.features, b.features, atol=1e-6)

    def test_empty_class_list_rejected(self):
        with pytest.raises(ShapeError, match="^a prompt bank needs at least one row$"):
            build_text_bank([], 32)

    def test_rows_unit_norm(self):
        bank = build_text_bank(["cat", "dog"], 32)
        np.testing.assert_allclose(np.linalg.norm(bank.features, axis=1), 1.0, atol=1e-6)


class TestImageBank:
    def test_same_seed_same_bank(self):
        data = two_image_dataset()
        a = build_image_bank(data, 16, seed=5)
        b = build_image_bank(data, 16, seed=5)
        assert np.array_equal(a.features, b.features)

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


class TestPromptBank:
    def test_seed_is_keyword_only(self):
        with pytest.raises(TypeError):
            PromptBank(["a"], [[1.0, 0.0]], "text", "toy_text")
        assert PromptBank(["a"], [[1.0, 0.0]], "image", seed=7).seed == 7

    @pytest.mark.parametrize("rows", [
        [[1.0, 2.0], [3.0, 4.0]],
        np.array([[1, 2], [3, 4]]),
        np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32),
        np.arange(4.0).reshape(2, 2).T,
    ], ids=["list", "int", "float32", "non-contiguous-float64"])
    def test_rows_are_stored_as_a_tensor_stores_them(self, rows):
        stored = PromptBank(["a", "b"], rows, "text").features
        expected = Tensor(rows).data
        assert isinstance(stored, np.ndarray) and stored.flags.c_contiguous
        assert stored.dtype == expected.dtype
        np.testing.assert_array_equal(stored, expected)

    @pytest.mark.parametrize("names,rows,message", [
        (["a", "b"], [1.0, 2.0], "features shape (2,) does not match 2 class names"),
        (["a", "b"], np.zeros((2, 2, 2)), "features shape (2, 2, 2) does not match 2 class names"),
        (["a", "b"], np.zeros((3, 2)), "features shape (3, 2) does not match 2 class names"),
        (["a", "b"], np.zeros((2, 0)), "prompt feature width must be positive"),
        ([], np.zeros((0, 2)), "a prompt bank needs at least one row"),
    ], ids=["1-D", "3-D", "row-count", "zero-width", "zero-rows"])
    def test_bad_shape_raises_shape_error(self, names, rows, message):
        with pytest.raises(ShapeError) as info:
            PromptBank(names, rows, "text")
        assert str(info.value) == message

    def test_unknown_modality_rejected(self):
        with pytest.raises(ValueError) as info:
            PromptBank(["a"], [[1.0]], "audio")
        assert str(info.value) == "unknown modality 'audio'"

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_u64_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            PromptBank(["a"], [[1.0]], "image", seed=seed)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", True, None, np.float64(4.0)])
    def test_seed_that_is_not_an_integer_rejected(self, seed):
        with pytest.raises(ValueError, match=r"^bank seed must be an integer, got "):
            PromptBank(["a"], [[1.0]], "image", seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint64(2**64 - 1)])
    def test_numpy_integer_seed_accepted(self, seed, tmp_path):
        save_bank(PromptBank(["a"], [[1.0]], "image", seed=seed), tmp_path / "b.ivpb")
        assert load_bank(tmp_path / "b.ivpb").seed == int(seed)


class TestMixedBank:
    def make_pair(self):
        text = PromptBank(["a", "b"], [[1.0, 0.0], [0.0, 1.0]], "text")
        image = PromptBank(["a", "b"], [[0.0, 1.0], [1.0, 0.0]], "image", seed=3)
        return text, image

    def test_elementwise_mean(self):
        text, image = self.make_pair()
        mixed = build_mixed_bank(text, image)
        np.testing.assert_array_equal(mixed.features, [[0.5, 0.5], [0.5, 0.5]])
        assert mixed.modality == "mixed"

    def test_mixing_identical_banks_is_identity(self):
        text, _ = self.make_pair()
        other = PromptBank(["a", "b"], text.features.copy(), "image")
        mixed = build_mixed_bank(text, other)
        np.testing.assert_array_equal(mixed.features, text.features)

    def test_symmetric(self):
        text, image = self.make_pair()
        ab = build_mixed_bank(text, image).features
        # swap the roles; feature math must not care which side is which
        image2 = PromptBank(["a", "b"], text.features, "image")
        text2 = PromptBank(["a", "b"], image.features, "text")
        ba = build_mixed_bank(text2, image2).features
        np.testing.assert_array_equal(ab, ba)

    def test_class_list_mismatch_rejected(self):
        text, image = self.make_pair()
        image.class_names = ["a", "c"]
        with pytest.raises(ConsistencyError):
            build_mixed_bank(text, image)

    def test_width_mismatch_rejected(self):
        text, _ = self.make_pair()
        image = PromptBank(["a", "b"], np.eye(2, 3), "image")
        with pytest.raises(ConsistencyError, match=r"^prompt widths differ: text 2 vs image 3$"):
            build_mixed_bank(text, image)


class TestBankFile:
    def roundtrip(self, tmp_path, bank):
        path = tmp_path / "bank.ivpb"
        save_bank(bank, path)
        return path, load_bank(path)

    def test_round_trip_bit_exact(self, tmp_path):
        bank = build_text_bank(["heron", "anvil", "comet"], 24)
        path, loaded = self.roundtrip(tmp_path, bank)
        assert np.array_equal(loaded.features, bank.features)
        assert loaded.class_names == bank.class_names
        assert loaded.modality == bank.modality
        assert loaded.seed == bank.seed
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

    @pytest.mark.parametrize("code", [0, 1, 2, 3, 255])
    def test_the_modality_code_is_its_index_in_modalities(self, tmp_path, code):
        path, _ = self.roundtrip(tmp_path, build_text_bank(["x1"], 8))
        blob = bytearray(path.read_bytes())
        blob[8] = code  # the header's modality byte, after the magic and the version
        path.write_bytes(bytes(blob))
        if code < 3:
            assert load_bank(path).modality == ("text", "image", "mixed")[code]
        else:
            with pytest.raises(FormatError, match=f"unknown modality code {code}"):
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

    def test_zero_rows_rejected(self, tmp_path):
        path, _ = self.roundtrip(tmp_path, build_text_bank(["x1"], 8))
        blob = path.read_bytes()
        # N = 0, then the header's D_p and seed, and no feature rows or names
        path.write_bytes(blob[:9] + (0).to_bytes(4, "little") + blob[13:25])
        with pytest.raises(FormatError) as info:
            load_bank(path)
        assert str(info.value) == f"bank {path}: a prompt bank needs at least one row"

    def test_name_too_long_for_its_u16_length_is_not_written(self, tmp_path):
        bank = PromptBank(["a" * 0x10000], [[1.0]], "text")
        with pytest.raises(ValueError, match=r"^name too long to serialize: 'a{32}'\.\.\.$"):
            save_bank(bank, tmp_path / "bank.ivpb")
        assert not (tmp_path / "bank.ivpb").exists()

    def test_name_that_is_not_utf8_rejected(self, tmp_path):
        path, _ = self.roundtrip(tmp_path, build_text_bank(["x1", "x2"], 8))
        blob = bytearray(path.read_bytes())
        blob[-2] = 0xC3  # a two-byte lead followed by an ASCII byte
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="name 1 of the name table is not UTF-8"):
            load_bank(path)


def test_reencoding_never_changes_a_bank():
    names = ["heron", "anvil"]
    a = build_text_bank(names, 16).features
    b = build_text_bank(names, 16).features
    assert np.array_equal(a, b)
