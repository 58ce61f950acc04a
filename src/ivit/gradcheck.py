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
    loss = build_loss()
    for t in inputs:
        t.zero_grad()
    T.backward(loss)
    worst = 0.0
    for t in inputs:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
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

    def rt(shape) -> Tensor:
        return Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True, dtype=dtype)

    def co(shape) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, size=math.prod(shape))

    cases: dict[str, tuple[Callable[[], Tensor], list[Tensor]]] = {}

    a = rt((3, 4))
    b = rt((4, 2))
    c1 = co((3, 2))
    cases["matmul"] = (lambda: _quadratic(T.matmul(a, b), c1), [a, b])

    ab = rt((2, 3, 4))
    bb = rt((2, 4, 3))
    c2 = co((2, 3, 3))
    cases["matmul_batched"] = (lambda: _quadratic(T.matmul(ab, bb), c2), [ab, bb])

    x1 = rt((2, 5))
    y1 = rt((2, 5))
    c3 = co((2, 5))
    cases["add"] = (lambda: _quadratic(T.add(x1, y1), c3), [x1, y1])

    x2 = rt((2, 3, 4))
    b2 = rt((4,))
    c4 = co((2, 3, 4))
    cases["add_bias"] = (lambda: _quadratic(T.add_bias(x2, b2), c4), [x2, b2])

    x3 = rt((3, 3))
    c5 = co((3, 3))
    cases["scale"] = (lambda: _quadratic(T.scale(x3, 0.37), c5), [x3])

    xmc = rt((3, 4))
    mask = (rng.random((3, 4)) > 0.3) / 0.7
    c5b = co((3, 4))
    cases["mul_const"] = (lambda: _quadratic(T.mul_const(xmc, mask), c5b), [xmc])

    xb = rt((3, 4))
    c6 = co((2, 3, 4))
    cases["broadcast_batch"] = (lambda: _quadratic(T.broadcast_batch(xb, 2), c6), [xb])

    xt = rt((2, 3, 4))
    c7 = co((4, 2, 3))
    cases["transpose"] = (lambda: _quadratic(T.transpose(xt, (2, 0, 1)), c7), [xt])

    xr = rt((2, 6))
    c8 = co((3, 4))
    cases["reshape"] = (lambda: _quadratic(T.reshape(xr, (3, 4)), c8), [xr])

    xc1 = rt((2, 3))
    xc2 = rt((2, 2))
    c9 = co((2, 5))
    cases["concat"] = (lambda: _quadratic(T.concat([xc1, xc2], axis=1), c9), [xc1, xc2])

    xn = rt((3, 6))
    c10 = co((3, 2))
    cases["narrow"] = (lambda: _quadratic(T.narrow(xn, 1, 2, 2), c10), [xn])

    # 43 draws no case uses: they keep every case below on the inputs that
    # the pinned suite errors in tests/test_tensor.py were recorded with
    rng.uniform(-1.0, 1.0, size=43)

    bd_a = rt((2, 4))
    bd_b = rt((2, 3, 4))
    c13 = co((2, 3))
    cases["batched_dot"] = (lambda: _quadratic(T.batched_dot(bd_a, bd_b), c13), [bd_a, bd_b])

    xs = rt((3, 5))
    c14 = co((3, 5))
    cases["softmax"] = (lambda: _quadratic(T.softmax(xs, axis=1), c14), [xs])

    xl = rt((3, 5))
    # keep slices away from the origin where the epsilon guard kicks in
    xl.data += np.where(xl.data >= 0, 0.5, -0.5)
    c15 = co((3, 5))
    cases["l2_normalize"] = (lambda: _quadratic(T.l2_normalize(xl, axis=1), c15), [xl])

    xg = rt((4, 4))
    c16 = co((4, 4))
    cases["gelu"] = (lambda: _quadratic(T.gelu(xg), c16), [xg])

    xln = rt((2, 3, 6))
    gln = rt((6,))
    bln = rt((6,))
    c17 = co((2, 3, 6))
    cases["layer_norm"] = (
        lambda: _quadratic(T.layer_norm(xln, gln, bln), c17),
        [xln, gln, bln],
    )

    lg = rt((4, 3))
    tg_rows = rng.dirichlet(np.ones(3), size=4)
    tg = tg_rows.astype(dtype)
    cases["cross_entropy"] = (lambda: T.cross_entropy(lg, tg), [lg])

    # appended last, so every case above keeps its draws
    xli = rt((2, 3, 4))
    wli = rt((4, 3))
    bli = rt((3,))
    c18 = co((2, 3, 3))
    cases["linear"] = (lambda: _quadratic(T.linear(xli, wli, bli), c18), [xli, wli, bli])

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
    T.backward(model.total_loss(model.forward(images, prompts), labels)[0])
    params = {name: p.data for name, p in model.named_parameters()}

    def loss(sets: dict[str, np.ndarray]) -> np.ndarray:
        return reference.forward(model.config, sets, images, prompts, labels).loss

    worst = 0.0
    for name, p in model.named_parameters():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
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
