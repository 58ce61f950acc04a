"""Central finite-difference gradient verification.

Every differentiable op, one encoder block, and a full tiny model are
checked against the numerical derivative (step 1e-5, double precision).
The suite is both a pytest target and a CLI command (`ivit gradcheck`).

The numerical side never touches the backward closures: it perturbs raw
parameter entries one at a time and re-runs the forward closure, so it stays
an independent oracle for the analytic gradients.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from . import tensor as T
from .tensor import Tensor

FD_STEP = 1e-5
ELEMENTWISE_TOL = 1e-4
MODEL_TOL = 1e-3
#: smallest gradient magnitude `rel_error` divides by
ABS_FLOOR = 1e-6


def numerical_grad(f: Callable[[], float], x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """d f / d x by central differences, perturbing ``x`` in place."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f()
        flat[i] = old - h
        fm = f()
        flat[i] = old
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| scaled by the numeric gradient's magnitude, floored at `ABS_FLOOR`.

    Above the floor the error is the plain relative one. Below it the error is
    absolute over the floor, so an exactly-zero gradient measured through
    finite-difference noise (~1e-11 at ``FD_STEP``) reads ~1e-5, not ~1.
    """
    scale = max(np.abs(numeric).max() + 1e-12, ABS_FLOOR)
    return float(np.abs(analytic - numeric).max() / scale)


def check_gradients(build_loss: Callable[[], Tensor], inputs: Iterable[Tensor], h: float = FD_STEP) -> float:
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
        numeric = numerical_grad(lambda: build_loss().item(), t.data, h=h)
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
        return rng.uniform(-1.0, 1.0, size=int(np.prod(shape)))

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
    tg = Tensor(tg_rows, requires_grad=True, dtype=dtype)
    cases["cross_entropy"] = (lambda: T.cross_entropy(lg, tg), [lg])

    return cases


def run_op_checks(seed: int = 0, corrupt: str | None = None) -> dict[str, float]:
    """Relative error per op; ``corrupt`` fakes a broken gradient for one op.

    The corruption hook exists purely as a negative control for the exit-code
    contract of the CLI command.
    """
    errors: dict[str, float] = {}
    for name, (build, inputs) in op_cases(seed).items():
        err = check_gradients(build, inputs)
        if corrupt == name:
            err += 1.0
        errors[name] = err
    return errors


def run_model_check(seed: int = 0) -> float:
    """Finite-difference check of every parameter of a tiny full model.

    dim 16, depth 1, 2 heads, 2 classes, 4x4 images with patch 2 and two
    prompt tokens; the loss is the joint classification + similarity loss.
    """
    from .config import ModelConfig
    from .model import InstructionModel
    from .prompts import PromptBank

    rng = np.random.default_rng(seed)
    cfg = ModelConfig(
        image_size=4, patch_size=2, channels=3, dim=16, depth=1, heads=2,
        mlp_ratio=2.0, prompt_dim=8, n_classes=2,
    )
    model = InstructionModel(cfg, seed=seed, dtype=np.float64)
    feats = rng.normal(size=(2, 8))
    bank = PromptBank(
        class_names=["a", "b"],
        features=Tensor(feats, dtype=np.float64),
        modality="text",
        source="toy_text",
        seed=0,
    )
    model.set_bank(bank)
    images = Tensor(rng.uniform(-1.0, 1.0, size=(2, 3, 4, 4)), dtype=np.float64)
    labels = np.array([0, 1])

    def build() -> Tensor:
        return model.total_loss(model.forward(images), labels)[0]

    params = [p for _, p in model.named_parameters()]
    return check_gradients(build, params)


def run_suite(seed: int = 0, corrupt: str | None = None) -> tuple[dict[str, float], bool]:
    """Full suite: per-op errors plus the whole-model check. Returns (errors, ok)."""
    errors = run_op_checks(seed=seed, corrupt=corrupt)
    ok = all(e < ELEMENTWISE_TOL for e in errors.values())
    errors["full_model"] = run_model_check(seed=seed)
    if corrupt == "full_model":
        errors["full_model"] += 1.0
    ok = ok and errors["full_model"] < MODEL_TOL
    return errors, ok
