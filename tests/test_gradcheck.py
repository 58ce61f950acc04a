"""The gradient-check oracle itself: its error measure and what it must catch."""

import tracemalloc

import numpy as np
import pytest

from ivit import gradcheck as G
from ivit import reference
from ivit import tensor as T


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
