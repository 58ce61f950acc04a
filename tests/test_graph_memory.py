"""What a grad-recording forward keeps alive.

A graph node holds its operands' handles and its backward closure, never a
tensor's data, so an intermediate array that no closure reads is freed as
soon as the forward drops its name. These tests hold weak references to op
outputs and check which are gone.
"""

import weakref

import numpy as np
import pytest

from ivit import tensor as T
from ivit.config import ModelConfig
from ivit.model import InstructionModel
from ivit.tensor import Tensor
from ivit.trainer import apply_freeze


def tiny_model(dtype=np.float32, **kw):
    cfg = ModelConfig(image_size=8, patch_size=4, channels=3, dim=16, depth=2, heads=2,
                      mlp_ratio=2.0, prompt_dim=8, n_classes=3, **kw)
    model = InstructionModel(cfg, seed=0, dtype=dtype)
    rng = np.random.default_rng(1)
    images = rng.normal(size=(2, 3, 8, 8)).astype(dtype)
    prompts = rng.normal(size=(3, 8))
    return model, images, prompts


def _attention_core(q, kT, keep_names):
    """softmax(scale(q @ kT)) reduced to a scalar; returns (loss, weak refs, kept tensors)."""
    scores = T.matmul(q, kT)
    scaled = T.scale(scores, 0.5)
    attn = T.softmax(scaled)
    refs = [weakref.ref(scores.data), weakref.ref(scaled.data)]
    kept = [scores, scaled] if keep_names else []
    del scores, scaled
    w = Tensor(np.linspace(-1.0, 1.0, attn.size).reshape(attn.size, 1), dtype=np.float64)
    loss = T.reshape(T.matmul(T.reshape(attn, (1, attn.size)), w), ())
    return loss, refs, kept


def test_scores_and_their_scaled_copy_are_freed_once_unnamed():
    rng = np.random.default_rng(0)
    q_data, k_data = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 3))

    q = Tensor(q_data, requires_grad=True, dtype=np.float64)
    loss, refs, _ = _attention_core(q, Tensor(k_data, dtype=np.float64), keep_names=False)
    assert [r() for r in refs] == [None, None]
    grads = T.backward(loss)

    q_ref = Tensor(q_data, requires_grad=True, dtype=np.float64)
    loss_ref, _, kept = _attention_core(q_ref, Tensor(k_data, dtype=np.float64), keep_names=True)
    grads_ref = T.backward(loss_ref)
    assert len(kept) == 2
    np.testing.assert_array_equal(grads[q], grads_ref[q_ref])


def test_forward_keeps_softmax_outputs_and_frees_scores_and_residual_sums(monkeypatch):
    model, images, prompts = tiny_model()
    seen = {"scale": [], "add": [], "softmax": []}
    for name, refs in seen.items():
        op = getattr(T, name)

        def recording(*args, _op=op, _refs=refs, **kwargs):
            out = _op(*args, **kwargs)
            _refs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(T, name, recording)

    out = model.forward(images, prompts)
    depth = model.config.depth
    assert [len(seen[k]) for k in ("scale", "add", "softmax")] == [depth, 2 * depth, depth]
    assert all(r() is None for r in seen["scale"])
    assert all(r() is None for r in seen["add"])
    assert all(r() is not None for r in seen["softmax"])
    assert out.logits.requires_grad


def _nodes(root):
    """Every node reachable from ``root``."""
    found, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        found.append(node)
        stack.extend(h for h in node[1:] if type(h) is list)
    return found


def _captured(closure):
    """The values a closure's cells hold, one level into tuples and lists."""
    for cell in closure.__closure__ or ():
        value = cell.cell_contents
        yield value
        if isinstance(value, (tuple, list)):
            yield from value


@pytest.mark.parametrize("regime", ["full", "prompt_tuning"])
def test_no_node_holds_a_tensor_that_needs_no_grad(regime):
    model, images, prompts = tiny_model(attn_dropout=0.1)
    apply_freeze(model, regime)
    out = model.forward(images, prompts, dropout_rng=np.random.default_rng(2))
    labels = np.array([0, 2])
    loss = model.combine_losses(model.loss_pred(out.logits, labels), model.loss_score(out.score, labels))

    nodes = _nodes(loss._node)
    assert len(nodes) > 50
    for closure, *handles in nodes:
        for h in handles:
            assert h is None or type(h) is list or (isinstance(h, Tensor) and h.requires_grad and h._node is None)
        assert not any(isinstance(v, Tensor) for v in _captured(closure))
