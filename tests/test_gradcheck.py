"""The gradient-check oracle itself: its error measure and what it must catch."""

import math
import tracemalloc

import numpy as np
import pytest

from ivit import gradcheck as G
from ivit import reference
from ivit import tensor as T
from ivit.cli import main
from ivit.model import ForwardOutput, InstructionModel


def _unfloored_rel_error(analytic, numeric):
    """The error measure before it had an absolute floor."""
    return float(np.abs(analytic - numeric).max() / (np.abs(numeric).max() + 1e-12))


def test_rel_error_floors_tiny_gradients():
    # an exactly-zero analytic gradient against finite-difference noise
    assert G.rel_error(np.full(4, 1e-19), np.full(4, 1e-11)) == pytest.approx(1e-5)
    # above the floor the measure stays relative
    assert G.rel_error(np.array([1.01]), np.array([1.0])) == pytest.approx(0.01, rel=1e-9)


@pytest.mark.parametrize("seed", [4, 67, 101])
def test_zero_key_bias_gradient_seeds_pass(seed):
    """These seeds failed on the attention key bias, whose gradient is exactly zero."""
    errors, ok = G.run_suite(seed)
    assert ok, errors


def test_wrong_backward_still_fails(monkeypatch):
    exact = T.gelu

    def gelu_with_wrong_gradient(x):
        out = exact(x)
        backward = out._backward
        if backward is not None:
            out._backward = lambda g: tuple(pg * 1.01 for pg in backward(g))
        return out

    monkeypatch.setattr(T, "gelu", gelu_with_wrong_gradient)
    errors, ok = G.run_suite(0)
    assert not ok
    assert errors["gelu"] > G.ELEMENTWISE_TOL
    assert errors["full_model"] > G.MODEL_TOL


@pytest.mark.parametrize("seed", [0, 1, 2, 123])
def test_floor_leaves_op_errors_unchanged(seed, monkeypatch):
    """Per-op errors on seeds that passed before the floor are bit-identical."""
    floored = G.run_op_checks(seed)
    monkeypatch.setattr(G, "rel_error", _unfloored_rel_error)
    assert G.run_op_checks(seed) == floored


def test_floor_changes_only_errors_of_tiny_gradients(monkeypatch):
    """In the model check the floor lowers the error of near-zero gradients and nothing else."""
    floored = G.rel_error
    below, above = [], []

    def both(analytic, numeric):
        pair = (floored(analytic, numeric), _unfloored_rel_error(analytic, numeric))
        (below if np.abs(numeric).max() < G.ABS_FLOOR else above).append(pair)
        return pair[0]

    monkeypatch.setattr(G, "rel_error", both)
    assert G.run_model_check(1) < G.MODEL_TOL
    assert below and above
    assert all(new == old for new, old in above)
    assert all(new <= old for new, old in below)


@pytest.mark.parametrize("name", ["head.weight", "backbone.pos_embed", "backbone.blocks.0.attn.wk.bias"])
def test_batched_numerical_grad_equals_the_per_entry_one_over_the_model(name):
    """The reference pass gives the same finite differences, bit for bit, as the model's own forward.

    The key bias has an exactly-zero gradient, so its finite differences are
    pure rounding noise, and they must agree too.
    """
    model, images, prompts, labels = G.model_case(0)
    params = {n: p.data for n, p in model.named_parameters()}
    batched = G.batched_numerical_grad(
        lambda sets: reference.forward(model.config, sets, images, prompts, labels).loss, params, name)
    per_entry = G.numerical_grad(
        lambda: model.total_loss(model.forward(images, prompts), labels)[0].item(), params[name])
    assert np.array_equal(batched, per_entry)


def test_a_wrong_forward_fails_even_with_a_consistent_backward(monkeypatch):
    """Attention scores scaled by 1/sqrt(dim) instead of 1/sqrt(head_dim), backward included."""
    exact = T.scale

    def scale(x, c):
        if x.ndim == 4:  # the [B, H, T, T] attention scores; the model check's dim is 16
            c = 1.0 / np.sqrt(16)
        return exact(x, c)

    monkeypatch.setattr(T, "scale", scale)
    assert G.run_model_check(0) > G.MODEL_TOL


def test_model_check_allocates_under_a_megabyte():
    """A reference pass of `SETS_PER_PASS` sets stays small; one pass per parameter tensor would not."""
    G.run_model_check(0)
    tracemalloc.start()
    try:
        G.run_model_check(0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_model_check_makes_one_reference_call_per_pass(monkeypatch):
    """Two sets per perturbed entry, `SETS_PER_PASS` sets per call: 172 calls at 32, 343 at 16."""
    model, _, _, _ = G.model_case(0)
    widths = []
    forward = reference.forward

    def counting(cfg, params, *args):
        widths.append(max(p.shape[0] for p in params.values()))
        return forward(cfg, params, *args)

    monkeypatch.setattr(reference, "forward", counting)
    G.run_model_check(0)
    sizes = [p.size for _, p in model.named_parameters()]
    assert len(widths) == sum(math.ceil(2 * n / G.SETS_PER_PASS) for n in sizes) == 172
    assert max(widths) == G.SETS_PER_PASS


def test_batched_numerical_grad_does_not_depend_on_the_pass_width(monkeypatch):
    model, images, prompts, labels = G.model_case(0)
    params = {n: p.data for n, p in model.named_parameters()}

    def loss(sets):
        return reference.forward(model.config, sets, images, prompts, labels).loss

    wide = {name: G.batched_numerical_grad(loss, params, name) for name in params}
    monkeypatch.setattr(G, "SETS_PER_PASS", 2)
    for name in params:
        assert np.array_equal(G.batched_numerical_grad(loss, params, name), wide[name]), name


@pytest.mark.parametrize("seed", [2, 3, 7])
def test_forward_matches_the_reference_bit_for_bit(seed):
    assert G.forward_vs_reference(seed) == 0.0


# -- forward faults: each is consistent with its own backward, so only the
# -- comparison against the reference can see it


def _tanh_gelu(x):
    """The tanh approximation of gelu, with its own exact derivative."""
    xd = x.data
    c = math.sqrt(2.0 / math.pi)
    th = np.tanh(c * (xd + 0.044715 * xd ** 3))

    def bw(g):
        du = c * (1.0 + 3 * 0.044715 * xd ** 2)
        return (g * (0.5 * (1.0 + th) + 0.5 * xd * (1.0 - th * th) * du),)

    return T._result(0.5 * xd * (1.0 + th), (x,), bw)


def _scale_by_dim(exact):
    def scale(x, c):
        # the [B, H, T, T] attention scores; the model check's dim is 16
        return exact(x, 1.0 / math.sqrt(16) if x.ndim == 4 else c)
    return scale


def _cls_position_on_prompts(exact):
    def assemble(self, images, prompts=None):
        seq = exact(self, images, prompts)
        n = 1 + self.config.n_patches
        t, d = seq.shape[1:]
        cls_pos = T.reshape(T.narrow(self.backbone.pos_embed, 0, 0, 1), (d,))
        return T.concat([T.narrow(seq, 1, 0, n), T.add_bias(T.narrow(seq, 1, n, t - n), cls_pos)], axis=1)
    return assemble


def _score_before_final_norm(exact):
    def forward(self, images, prompts=None, dropout_rng=None):
        x = self.assemble(images, prompts)
        for block in self.backbone.blocks:
            x = block(x)
        tokens = self.backbone.final_ln(x)
        b, t, d = tokens.shape
        p = t - 1 - self.config.n_patches
        logits = self.head(T.reshape(T.narrow(tokens, 1, 0, 1), (b, d)))
        cls_pre = T.reshape(T.narrow(x, 1, 0, 1), (b, d))
        return ForwardOutput(logits, T.batched_dot(T.l2_normalize(cls_pre),
                                                   T.l2_normalize(T.narrow(x, 1, t - p, p))))
    return forward


FORWARD_FAULTS = {
    "attention scale 1/sqrt(dim)": (T, "scale", _scale_by_dim),
    "cls position on the prompts": (InstructionModel, "assemble", _cls_position_on_prompts),
    "layer-norm eps 1e-6": (T, "LN_EPS", lambda _: 1e-6),
    "tanh gelu": (T, "gelu", lambda _: _tanh_gelu),
    "score row before the final norm": (InstructionModel, "forward", _score_before_final_norm),
}


@pytest.mark.parametrize("fault", sorted(FORWARD_FAULTS))
def test_a_wrong_forward_fails_the_suite_and_the_command(fault, monkeypatch, capsys):
    owner, attr, make = FORWARD_FAULTS[fault]
    monkeypatch.setattr(owner, attr, make(getattr(owner, attr)))
    errors, ok = G.run_suite(0)
    assert not ok
    assert errors["forward_vs_reference"] > G.FORWARD_TOL
    capsys.readouterr()
    assert main(["gradcheck", "--seed", "0"]) == 1
    assert "forward_vs_reference" in capsys.readouterr().err


def test_tanh_gelu_is_caught_only_by_the_forward_comparison(monkeypatch):
    """Its finite differences stay under `MODEL_TOL`, which must also pass the zero-gradient seeds."""
    monkeypatch.setattr(T, "gelu", _tanh_gelu)
    errors, ok = G.run_suite(0)
    assert errors["full_model"] < G.MODEL_TOL
    assert not ok
