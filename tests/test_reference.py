"""The plain-numpy reference forward against the model, over drawn configs.

`ivit.reference` shares no code with the model, so agreement here says the
autograd forward computes the architecture README describes. A float64
model must match it to 1e-10; a float32 model within float32 rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivit import reference
from ivit.config import ModelConfig
from ivit.errors import ShapeError
from ivit.model import InstructionModel

#: float32's unit roundoff
U32 = 2.0 ** -24
#: bound on a float32 model's error, in units of U32 times the compared
#: value's scale, max(1, |value|). A value rounds once per op, and the drawn
#: models chain under 2**6 ops to the loss (patch embedding, two blocks of about
#: 16 ops each, final norm, head or score, softmax cross-entropy). Layer norm,
#: softmax and l2 normalisation divide by a spread, which grows an input's
#: relative error by the ratio of its magnitude to that spread; 2**6 is allowed
#: for it. Over 3,000 random draws the worst error was 837 units, a score row at
#: dim 2, where layer norm over two features is close to a sign function.
FLOAT32_UNITS = 2.0 ** 12


@st.composite
def cases(draw):
    patch = draw(st.integers(1, 3))
    heads = draw(st.integers(1, 3))
    n_classes = draw(st.integers(1, 4))
    n_prompts = draw(st.integers(0, 5))
    soft = draw(st.booleans())
    if soft and n_prompts:
        n_prompts = n_classes  # a soft target is the score target too
    cfg = ModelConfig(
        image_size=patch * draw(st.integers(1, 3)), patch_size=patch,
        channels=draw(st.integers(1, 3)), dim=heads * draw(st.integers(1, 4)), heads=heads,
        depth=draw(st.integers(0, 2)), mlp_ratio=draw(st.sampled_from([1.0, 1.5, 2.0, 4.0])),
        prompt_dim=draw(st.integers(1, 6)), n_classes=n_classes,
        loss_pred_weight=draw(st.sampled_from([1.0, 0.5, 0.0])),
        loss_score_weight=draw(st.sampled_from([1.0, 2.0, 0.0])),
    )
    return cfg, n_prompts, draw(st.integers(1, 3)), soft, draw(st.integers(0, 2**32 - 1))


def build(case, dtype):
    """A model of ``dtype`` with every parameter drawn at scale 0.5, and its inputs."""
    cfg, n_prompts, b, soft, seed = case
    rng = np.random.default_rng(seed)
    model = InstructionModel(cfg, seed=seed, dtype=dtype)
    for _, p in model.named_parameters():
        p.data[...] = rng.normal(0.0, 0.5, size=p.shape)
    images = rng.uniform(-1.0, 1.0, size=(b, cfg.channels, cfg.image_size, cfg.image_size)).astype(dtype)
    prompts = rng.normal(size=(n_prompts, cfg.prompt_dim)).astype(dtype)
    if soft:
        target = rng.dirichlet(np.ones(cfg.n_classes), size=b)
    else:
        target = rng.integers(0, min(cfg.n_classes, n_prompts or cfg.n_classes), size=b)
    return model, images, prompts, target


def compare(case, dtype):
    """(model value, reference value) pairs: logits, score row, loss_pred, loss_score, total."""
    model, images, prompts, target = build(case, dtype)
    out = model.forward(images, prompts)
    total, pred, score = model.total_loss(out, target)
    params = {name: p.data[None] for name, p in model.named_parameters()}
    ref = reference.forward(model.config, params, images, prompts, target)
    assert ref.logits.shape == (1,) + out.logits.shape
    assert ref.score.shape == (1,) + out.score.shape
    return [
        (out.logits.data, ref.logits[0]),
        (out.score.data, ref.score[0]),
        (pred, ref.loss_pred[0]),
        (score, ref.loss_score[0]),
        (total.item(), ref.loss[0]),
    ]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cases())
def test_float64_model_matches_the_reference(case):
    for got, want in compare(case, np.float64):
        assert np.max(np.abs(np.asarray(got) - want), initial=0.0) <= 1e-10


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cases())
def test_float32_model_matches_the_reference_within_rounding(case):
    for got, want in compare(case, np.float32):
        err = np.abs(np.asarray(got, dtype=np.float64) - want)
        assert np.all(err <= FLOAT32_UNITS * U32 * np.maximum(1.0, np.abs(want)))


def test_model_and_reference_reject_a_soft_target_of_another_width_than_the_score_row():
    cfg = ModelConfig(image_size=2, patch_size=1, channels=1, dim=2, heads=1, depth=0, prompt_dim=2, n_classes=2)
    model, images, prompts, target = build((cfg, 3, 2, True, 0), np.float64)
    params = {name: p.data[None] for name, p in model.named_parameters()}
    with pytest.raises(ValueError, match=r"^soft target width 2 != 3 columns$"):
        reference.forward(cfg, params, images, prompts, target)
    with pytest.raises(ShapeError, match=r"^cross_entropy: logits \(2, 3\) vs target \(2, 2\)$"):
        model.total_loss(model.forward(images, prompts), target)
