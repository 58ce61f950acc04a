"""Backbone contracts: patch arithmetic, positional handling, encoder properties.

The permutation-equivariance checks run the forward graph twice (once with
permuted prompt rows) in double precision so reduction-order noise cannot
mask a real positional leak.
"""

import numpy as np
import pytest

from ivit import tensor as T
from ivit.backbone import Backbone
from ivit.config import ModelConfig
from ivit.errors import ConfigError, ShapeError
from ivit.gradcheck import check_gradients
from ivit.model import InstructionModel
from ivit.tensor import Tensor


def make_backbone(dim=16, depth=1, heads=2, image_size=8, patch_size=4, dtype=np.float64, seed=0):
    cfg = ModelConfig(image_size=image_size, patch_size=patch_size, channels=3,
                      dim=dim, depth=depth, heads=heads, mlp_ratio=2.0)
    return Backbone(cfg, np.random.default_rng(seed), dtype=dtype)


class TestConfig:
    def test_indivisible_image_size_rejected(self):
        with pytest.raises(ConfigError, match="image_size 30 is not divisible by patch_size 8"):
            ModelConfig(image_size=30, patch_size=8, channels=3, dim=16, depth=1, heads=2)

    def test_dim_must_divide_by_heads(self):
        with pytest.raises(ConfigError, match="dim 30 is not divisible by heads 4"):
            ModelConfig(image_size=32, patch_size=8, channels=3, dim=30, depth=1, heads=4)

    def test_patch_counts(self):
        assert ModelConfig(32, 8, 3, 16, 1, 2).n_patches == 16
        # the standard full-scale point: 224px, patch 16, 196 tokens
        cfg = ModelConfig(224, 16, 3, 768, 12, 12)
        assert (cfg.n_patches, cfg.patch_dim) == (196, 768)


class TestPatchEmbed:
    def test_output_shape(self):
        bb = make_backbone(image_size=32, patch_size=8)
        out = bb.patch_embed(np.zeros((2, 3, 32, 32)))
        assert out.shape == (2, 16, 16)

    def test_zero_image_embeds_to_bias(self):
        bb = make_backbone()
        out = bb.patch_embed(np.zeros((1, 3, 8, 8)))
        np.testing.assert_allclose(out.data, np.broadcast_to(bb.patch_proj.bias.data, out.shape))

    def test_wrong_size_rejected(self):
        bb = make_backbone()
        with pytest.raises(ShapeError):
            bb.patch_embed(np.zeros((1, 3, 12, 12)))

    def test_patch_pixels_route_to_their_patch(self):
        # lighting up one pixel may only change the patch that contains it
        bb = make_backbone(image_size=8, patch_size=4)
        base = np.zeros((1, 3, 8, 8))
        lit = base.copy()
        lit[0, 1, 6, 1] = 1.0  # row 6, col 1 -> patch row 1, col 0 -> patch index 2
        delta = bb.patch_embed(lit).data - bb.patch_embed(base).data
        changed = np.flatnonzero(np.abs(delta).sum(axis=2)[0])
        assert list(changed) == [2]


class TestPositional:
    """The table is applied in `InstructionModel.assemble`, to the CLS and patch rows."""

    @staticmethod
    def make_model():
        cfg = ModelConfig(image_size=8, patch_size=4, channels=3, dim=16, depth=1, heads=2, mlp_ratio=2.0)
        return InstructionModel(cfg, dtype=np.float64)

    def test_zero_table_is_identity(self):
        model = self.make_model()
        model.backbone.pos_embed.data[...] = 0.0
        images = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
        out = model.assemble(images)
        np.testing.assert_array_equal(out.data[:, 0], np.repeat(model.backbone.cls_token.data, 2, axis=0))
        np.testing.assert_array_equal(out.data[:, 1:], model.backbone.patch_embed(images).data)

    def test_output_shape(self):
        out = self.make_model().assemble(np.zeros((3, 3, 8, 8)))
        assert out.shape == (3, 1 + 4, 16)


class TestEncoder:
    def test_depth_zero_is_final_layer_norm(self):
        bb = make_backbone(depth=0)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 5, 16)), dtype=np.float64)
        out = bb.encoder_forward(x)
        expected = T.layer_norm(x, bb.final_ln.gain, bb.final_ln.bias)
        np.testing.assert_array_equal(out.data, expected.data)

    @pytest.mark.parametrize("shape", [(5, 16), (2, 5, 8)])
    def test_tokens_of_another_shape_rejected(self, shape):
        with pytest.raises(ShapeError) as info:
            make_backbone().encoder_forward(Tensor(np.zeros(shape)))
        assert str(info.value) == f"tokens shape {shape} is not [B, T, 16]"

    def test_shape_preserved_through_blocks(self):
        bb = make_backbone(depth=3)
        x = Tensor(np.random.default_rng(2).normal(size=(2, 7, 16)), dtype=np.float64)
        out = bb.encoder_forward(x)
        assert out.shape == x.shape

    def test_attention_rows_are_distributions(self):
        bb = make_backbone(depth=2)
        for block in bb.blocks:
            block.attn.capture_attn = True
        x = Tensor(np.random.default_rng(3).normal(size=(2, 7, 16)), dtype=np.float64)
        bb.encoder_forward(x)
        for block in bb.blocks:
            rows = block.attn.last_attn
            assert rows is not None and rows.shape == (2, 2, 7, 7)
            np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-6)

    def test_prompt_permutation_equivariance(self):
        """Permuting prompt tokens permutes their outputs and leaves the rest alone."""
        bb = make_backbone(depth=2)
        rng = np.random.default_rng(4)
        n_patches, n_prompts = 4, 6
        x = rng.normal(size=(2, 1 + n_patches + n_prompts, 16))
        base = bb.encoder_forward(Tensor(x, dtype=np.float64))
        for trial in range(5):
            perm = np.random.default_rng(trial).permutation(n_prompts)
            xp = x.copy()
            xp[:, 1 + n_patches :] = x[:, 1 + n_patches :][:, perm]
            out = bb.encoder_forward(Tensor(xp, dtype=np.float64))
            np.testing.assert_allclose(
                out.data[:, : 1 + n_patches], base.data[:, : 1 + n_patches], atol=1e-6
            )
            np.testing.assert_allclose(
                out.data[:, 1 + n_patches :],
                base.data[:, 1 + n_patches :][:, perm],
                atol=1e-6,
            )

    def test_block_gradient_vs_finite_differences(self):
        bb = make_backbone(depth=1)
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(-1, 1, (1, 5, 16)), requires_grad=True, dtype=np.float64)
        coeffs = Tensor(rng.uniform(-1, 1, (80, 1)), dtype=np.float64)

        def loss():
            out = bb.encoder_forward(x)
            return T.reshape(T.matmul(T.reshape(out, (1, 80)), coeffs), ())

        params = [x] + [p for _, p in bb.blocks[0].named_parameters()]
        assert check_gradients(loss, params) < 1e-4


def test_parameter_names_are_unique_and_prefixed():
    bb = make_backbone(depth=2)
    names = [n for n, _ in bb.named_parameters()]
    assert len(names) == len(set(names))
    assert "cls_token" in names and "pos_embed" in names
    assert any(n.startswith("blocks.1.attn.wq") for n in names)
