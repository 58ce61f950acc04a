"""Central finite-difference gradient verification.

Every differentiable op and a full tiny model are checked against the
numerical derivative (step 1e-5, double precision). The suite is both a
pytest target and a CLI command (`ivit gradcheck`).

The numerical side never touches the backward closures. For the ops it
perturbs raw input entries one at a time and re-runs the forward closure.
For the model it perturbs each parameter entry the same way, but evaluates
the loss through `reference.forward`, a plain-numpy forward that shares no
code with the model, on `SETS_PER_PASS` perturbed parameter sets per call.
A forward fault whose backward is consistent with it moves those finite
differences only as much as it moves the derivative, which can stay under
`MODEL_TOL` (a tanh gelu reads 9.8e-6). So `forward_vs_reference` also
compares the model's outputs with the reference's at the unperturbed
parameters, and any forward that computes something else fails the suite.
What neither covers is dropout: the reference has none and the model check
runs without it, so attention dropout is checked only as its masking op,
`mul_const`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from . import reference
from . import tensor as T
from .config import ModelConfig
from .model import InstructionModel
from .tensor import Tensor

FD_STEP = 1e-5
ELEMENTWISE_TOL = 1e-4
MODEL_TOL = 1e-3
#: bound on `forward_vs_reference`. The model and the reference run the same
#: float64 arithmetic and agree bit for bit; the bound leaves room for a float64
#: evaluation that differs from the reference only in rounding (another BLAS
#: kernel or summation order). The compared values are of order 1 and come from
#: about a hundred rounded steps, each off by at most gamma_32 = 32 * 2**-53
#: ~ 3.6e-15 relative (the widest dot product is 32 terms); the layer norms can
#: amplify that by up to 1 / 0.02, the smallest std their inputs start at. That
#: is under 2e-11; the smallest of the forward faults in tests/test_gradcheck.py,
#: a tanh gelu, reads 1.6e-7.
FORWARD_TOL = 1e-10
#: smallest gradient magnitude `rel_error` divides by
ABS_FLOOR = 1e-6
#: parameter sets per reference call of the model check, two per perturbed
#: entry. Wider passes make fewer, larger calls but hold more activations, and
#: past 32 a call's cost grows with its width as fast as the calls go down.
#: `run_model_check(0)` on a 2-core Xeon, time as min / median of 12 rounds
#: interleaved over the widths:
#:
#:   sets   calls   tracemalloc peak   time
#:      2   2,738   0.118 MiB          554 / 695 ms
#:      8     685   0.224 MiB          179 / 219 ms
#:     16     343   0.379 MiB          120 / 149 ms
#:     24     243   0.533 MiB          103 / 125 ms
#:     32     172   0.688 MiB           87 / 100 ms
#:     48     125   0.978 MiB           97 / 105 ms
#:     64      94   1.260 MiB           92 / 110 ms
#:
#: 32 is as fast as any wider pass and keeps the peak well under the 1 MiB
#: that tests/test_gradcheck.py allows.
SETS_PER_PASS = 32


def numerical_grad(f: Callable[[], float], x: np.ndarray) -> np.ndarray:
    """d f / d x by central differences, perturbing ``x`` in place."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + FD_STEP
        fp = f()
        flat[i] = old - FD_STEP
        fm = f()
        flat[i] = old
        gf[i] = (fp - fm) / (2.0 * FD_STEP)
    return g


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| scaled by the numeric gradient's magnitude, floored at `ABS_FLOOR`.

    Above the floor the error is the plain relative one. Below it the error is
    absolute over the floor, so an exactly-zero gradient measured through
    finite-difference noise (~1e-11 at ``FD_STEP``) reads ~1e-5, not ~1.
    """
    scale = max(np.abs(numeric).max() + 1e-12, ABS_FLOOR)
    return float(np.abs(analytic - numeric).max() / scale)


def check_gradients(build_loss: Callable[[], Tensor], inputs: Iterable[Tensor]) -> float:
    """Worst relative error over ``inputs`` between backward() and finite differences.

    ``build_loss`` must construct the graph afresh from the input tensors'
    current ``data`` (which is perturbed in place for the numeric side).
    """
    inputs = list(inputs)
    grads = T.backward(build_loss())
    worst = 0.0
    for t in inputs:
        analytic = grads[t] if t in grads else np.zeros_like(t.data)
        numeric = numerical_grad(lambda: build_loss().item(), t.data)
        worst = max(worst, rel_error(analytic, numeric))
    return worst


def _quadratic(out: Tensor, c: np.ndarray) -> Tensor:
    """Reduce an op output to a scalar through fixed random coefficients.

    A plain sum would hide gradient errors that cancel across entries, so the
    output is first reshaped to a row and dotted with a frozen vector of the
    output's dtype, so the loss has the dtype the op returned.
    """
    flat = T.reshape(out, (1, out.size))
    w = Tensor(c.reshape(out.size, 1), dtype=out.dtype)
    return T.reshape(T.matmul(flat, w), ())


def op_cases(seed: int, dtype=np.float64) -> dict[str, tuple[Callable[[], Tensor], list[Tensor]]]:
    """One (loss builder, inputs) pair per differentiable op, every tensor in ``dtype``.

    The random draws do not depend on ``dtype``.
    """
    rng = np.random.default_rng(seed)
    cases: dict[str, tuple[Callable[[], Tensor], list[Tensor]]] = {}

    def case(name: str, op: Callable[..., Tensor], *shapes, out) -> list[Tensor]:
        """Draw one input per shape, then ``out``'s coefficients; the loss is `_quadratic` of ``op``."""
        # one call of the summed size draws what a call per array would, without the per-call cost
        flat = rng.uniform(-1.0, 1.0, size=sum(map(math.prod, shapes)) + math.prod(out))
        inputs, at = [], 0
        for shape in shapes:
            n = math.prod(shape)
            inputs.append(Tensor(flat[at : at + n].reshape(shape), requires_grad=True, dtype=dtype))
            at += n
        c = flat[at:]
        cases[name] = (lambda: _quadratic(op(*inputs), c), inputs)
        return inputs

    case("matmul", T.matmul, (3, 4), (4, 2), out=(3, 2))
    case("matmul_batched", T.matmul, (2, 3, 4), (2, 4, 3), out=(2, 3, 3))
    case("add", T.add, (2, 5), (2, 5), out=(2, 5))
    case("add_bias", T.add_bias, (2, 3, 4), (4,), out=(2, 3, 4))
    case("scale", lambda x: T.scale(x, 0.37), (3, 3), out=(3, 3))

    xmc = Tensor(rng.uniform(-1.0, 1.0, size=(3, 4)), requires_grad=True, dtype=dtype)
    mask = (rng.random((3, 4)) > 0.3) / 0.7
    cmc = rng.uniform(-1.0, 1.0, size=12)
    cases["mul_const"] = (lambda: _quadratic(T.mul_const(xmc, mask), cmc), [xmc])

    case("broadcast_batch", lambda x: T.broadcast_batch(x, 2), (3, 4), out=(2, 3, 4))
    case("transpose", lambda x: T.transpose(x, (2, 0, 1)), (2, 3, 4), out=(4, 2, 3))
    case("reshape", lambda x: T.reshape(x, (3, 4)), (2, 6), out=(3, 4))
    case("concat", lambda a, b: T.concat([a, b], axis=1), (2, 3), (2, 2), out=(2, 5))
    case("narrow", lambda x: T.narrow(x, 1, 2, 2), (3, 6), out=(3, 2))

    # 43 draws no case uses: they keep every case below on the inputs that
    # the pinned suite errors in tests/test_tensor.py were recorded with
    rng.uniform(-1.0, 1.0, size=43)

    case("batched_dot", T.batched_dot, (2, 4), (2, 3, 4), out=(2, 3))
    case("softmax", T.softmax, (3, 5), out=(3, 5))
    xl, = case("l2_normalize", T.l2_normalize, (3, 5), out=(3, 5))
    # keep slices away from the origin where the epsilon guard kicks in
    xl.data += np.where(xl.data >= 0, 0.5, -0.5)
    case("gelu", T.gelu, (4, 4), out=(4, 4))
    case("layer_norm", T.layer_norm, (2, 3, 6), (6,), (6,), out=(2, 3, 6))

    lg = Tensor(rng.uniform(-1.0, 1.0, size=(4, 3)), requires_grad=True, dtype=dtype)
    tg = rng.dirichlet(np.ones(3), size=4).astype(dtype)
    cases["cross_entropy"] = (lambda: T.cross_entropy(lg, tg), [lg])

    # appended last, so every case above keeps its draws
    case("linear", T.linear, (2, 3, 4), (4, 3), (3,), out=(2, 3, 3))
    return cases


def run_op_checks(seed: int = 0) -> dict[str, float]:
    """Relative error per op."""
    return {name: check_gradients(build, inputs) for name, (build, inputs) in op_cases(seed).items()}


def model_case(seed: int) -> tuple[InstructionModel, np.ndarray, np.ndarray, np.ndarray]:
    """The model check's tiny float64 model with its images, prompt rows and labels.

    dim 16, depth 1, 2 heads, 2 classes, 4x4 images with patch 2 and two
    prompt rows.
    """
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(
        image_size=4, patch_size=2, channels=3, dim=16, depth=1, heads=2,
        mlp_ratio=2.0, prompt_dim=8, n_classes=2,
    )
    model = InstructionModel(cfg, seed=seed, dtype=np.float64)
    prompts = rng.normal(size=(2, 8))
    images = rng.uniform(-1.0, 1.0, size=(2, 3, 4, 4))
    labels = np.array([0, 1])
    return model, images, prompts, labels


def batched_numerical_grad(loss: Callable[[dict[str, np.ndarray]], np.ndarray],
                           params: dict[str, np.ndarray], name: str) -> np.ndarray:
    """d loss / d params[name] by central differences, `SETS_PER_PASS` sets per call of ``loss``.

    ``loss`` maps parameter arrays with a leading axis of S sets to S losses,
    as `reference.forward` does; an axis of 1 broadcasts over the sets.
    ``params`` has no set axis. Every entry of ``params[name]`` is perturbed
    on its own, to ``x + FD_STEP`` in one set and ``x - FD_STEP`` in the next,
    and its derivative is the same central difference `numerical_grad` takes.
    Every other parameter is passed once, shared by all sets.
    """
    shared = {p: a[None] for p, a in params.items()}
    x = params[name].reshape(-1)
    g = np.empty_like(x)
    per_pass = SETS_PER_PASS // 2
    for lo in range(0, x.size, per_pass):
        idx = np.arange(lo, min(lo + per_pass, x.size))
        sets = np.repeat(x[None], 2 * idx.size, axis=0)
        plus = np.arange(0, 2 * idx.size, 2)
        sets[plus, idx] = x[idx] + FD_STEP
        sets[plus + 1, idx] = x[idx] - FD_STEP
        out = loss({**shared, name: sets.reshape((-1,) + params[name].shape)})
        g[idx] = (out[0::2] - out[1::2]) / (2.0 * FD_STEP)
    return g.reshape(params[name].shape)


def run_model_check(seed: int = 0) -> float:
    """Worst relative error over every parameter of a tiny full model (`model_case`).

    The loss is the joint classification + similarity loss. The analytic side
    is one forward and backward of the model; the numerical side takes central
    differences through `reference.forward` (`batched_numerical_grad`).
    """
    model, images, prompts, labels = model_case(seed)
    grads = T.backward(model.total_loss(model.forward(images, prompts), labels)[0])
    params = {name: p.data for name, p in model.named_parameters()}

    def loss(sets: dict[str, np.ndarray]) -> np.ndarray:
        return reference.forward(model.config, sets, images, prompts, labels).loss

    worst = 0.0
    for name, p in model.named_parameters():
        analytic = grads[p] if p in grads else np.zeros_like(p.data)
        worst = max(worst, rel_error(analytic, batched_numerical_grad(loss, params, name)))
    return worst


def forward_vs_reference(seed: int = 0) -> float:
    """Max abs diff between the float64 `model_case` model's outputs and `reference.forward`'s.

    Logits, score row, total loss, ``loss_pred`` and ``loss_score``, all at
    the model's own parameters. A NaN on either side reads NaN, which fails.
    """
    model, images, prompts, labels = model_case(seed)
    out = model.forward(images, prompts)
    loss, pred, score = model.total_loss(out, labels)
    ref = reference.forward(model.config, {name: p.data[None] for name, p in model.named_parameters()},
                            images, prompts, labels)
    pairs = ((out.logits.data, ref.logits[0]), (out.score.data, ref.score[0]), (loss.data, ref.loss[0]),
             (pred, ref.loss_pred[0]), (score, ref.loss_score[0]))
    return float(np.max([np.abs(a - b).max() for a, b in pairs]))


def tolerance(name: str) -> float:
    """The bound that the `run_suite` entry ``name`` must stay under."""
    return {"full_model": MODEL_TOL, "forward_vs_reference": FORWARD_TOL}.get(name, ELEMENTWISE_TOL)


def run_suite(seed: int = 0) -> tuple[dict[str, float], bool]:
    """Full suite: per-op errors, the whole-model check and the forward against the reference.

    Returns (errors, ok); ``ok`` holds when every entry is under its `tolerance`.
    """
    errors = run_op_checks(seed=seed)
    errors["full_model"] = run_model_check(seed=seed)
    errors["forward_vs_reference"] = forward_vs_reference(seed=seed)
    return errors, all(e < tolerance(name) for name, e in errors.items())
