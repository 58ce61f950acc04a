"""The in-place and chunked kernels equal their plain formulas bit for bit.

Each reference below is the op written out one numpy expression at a time,
allocating a fresh array per step. The library computes the same operations in
the same order, only in place and (gelu, in both dtypes) in ``T.CHUNK``-element
pieces, so every forward value and every gradient must match exactly: in
float32 and float64, on 2-, 3- and 4-d inputs whose sizes straddle the chunk
length, and on non-contiguous (transposed) inputs.

``linear``'s reference is one 2-d GEMM over the stacked rows. numpy's stacked
``x @ w``, one matrix per leading index, rounds differently on some shapes; it
is held to ``rounding_bound`` of the op instead.
"""

import math

import numpy as np
import pytest
from scipy.special import erf as exact_erf

from ivit import tensor as T
from ivit.tensor import Tensor

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def erf_ref(x):
    if x.dtype != np.float32:
        return exact_erf(x)
    x = np.clip(x, -4.0, 4.0)
    x2 = x * x
    p = x2 * T._ERF32_P[0] + T._ERF32_P[1]
    for c in T._ERF32_P[2:]:
        p = p * x2 + c
    p = p * x
    q = x2 * T._ERF32_Q[0] + T._ERF32_Q[1]
    for c in T._ERF32_Q[2:]:
        q = q * x2 + c
    return np.clip(p / q, -1.0, 1.0)


def gelu_ref(x, g):
    c = erf_ref(x * INV_SQRT2)
    y = 0.5 * x * (1.0 + c)
    pdf = np.exp(-0.5 * x * x) * INV_SQRT2PI
    return y, (g * (0.5 * (1.0 + c) + x * pdf),)


def layer_norm_ref(x, gain, bias, g, eps=1e-5):
    d = x.shape[-1]
    lead = tuple(range(x.ndim - 1))
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = xhat * gain + bias
    gxhat = g * gain
    m1 = np.add.reduce(gxhat, axis=-1, keepdims=True) / d
    m2 = np.add.reduce(gxhat * xhat, axis=-1, keepdims=True) / d
    gx = inv * (gxhat - m1 - xhat * m2)
    return y, (gx, (g * xhat).sum(axis=lead), g.sum(axis=lead))


def softmax_ref(x, g):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y, ((g - dot) * y,)


def linear_ref(x, w, b, g):
    """One 2-d GEMM over the stacked rows, for the product and both matrix gradients."""
    lead = tuple(range(x.ndim - 1))
    rows = x.reshape(-1, x.shape[-1])
    g_rows = g.reshape(-1, g.shape[-1])
    y = (rows @ w).reshape(x.shape[:-1] + w.shape[1:]) + b
    gx = (g_rows @ w.T).reshape(x.shape)
    gw = rows.T @ g_rows
    return y, (gx, gw, g.sum(axis=lead))


def rounding_bound(a, b, bias=None):
    """Largest gap between two float evaluations of ``a @ b (+ bias)``, elementwise.

    Each element is a sum of K products, plus the bias when there is one.
    Summed in any order, with or without fused multiply-adds, the computed
    value lies within gamma_n * sum of |term| of the exact one, for n terms
    and gamma_n = n*u / (1 - n*u), u the unit roundoff of the operands' dtype
    (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed., §3.1).
    Two evaluations that differ only in kernel or summation order are each
    within that of the same exact value, so within twice it of each other.
    The bound itself is worked out in float64.
    """
    n = a.shape[-1] + (bias is not None)
    u = np.finfo(a.dtype).eps / 2
    total = np.abs(a).astype(np.float64) @ np.abs(b).astype(np.float64)
    if bias is not None:
        total += np.abs(bias)
    return 2 * n * u / (1 - n * u) * total


def _shape(n, ndim):
    """A ``ndim``-d shape of ``n`` elements, small factors leading."""
    dims = []
    for _ in range(ndim - 1):
        f = next(k for k in (8, 7, 5, 4, 3, 2, 1) if n % k == 0)
        dims.append(f)
        n //= f
    return tuple(dims) + (n,)


SIZES = [T.CHUNK - 1, T.CHUNK, T.CHUNK + 1, 5 * T.CHUNK // 2]
CASES = [(n, ndim, dtype, transposed)
         for n in SIZES for ndim in (2, 3, 4)
         for dtype in (np.float32, np.float64) for transposed in (False, True)]


def _input(rng, shape, dtype, transposed, requires_grad=True, scale=3.0):
    """A tensor of ``shape``. When ``transposed``, a non-contiguous view instead:
    the first half, along axis 0, of a transposed tensor stored with its axes
    reversed (the halving keeps even a shape like (1, n) non-contiguous)."""
    if not transposed:
        return Tensor(rng.normal(scale=scale, size=shape), requires_grad=requires_grad, dtype=dtype)
    stored = ((2 * shape[0],) + shape[1:])[::-1]
    base = Tensor(rng.normal(scale=scale, size=stored), requires_grad=requires_grad, dtype=dtype)
    x = T.narrow(T.transpose(base, tuple(reversed(range(len(shape))))), 0, 0, shape[0])
    assert x.shape == shape and not x.data.flags.c_contiguous
    return x


def _assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def _assert_op(out, grads_in, ref_y, ref_grads):
    _assert_same(out.data, ref_y)
    for got, want in zip(grads_in, ref_grads, strict=True):
        _assert_same(got, want)


@pytest.mark.parametrize("n,ndim,dtype,transposed", CASES)
def test_gelu_and_erf(n, ndim, dtype, transposed):
    rng = np.random.default_rng(n + ndim)
    x = _input(rng, _shape(n, ndim), dtype, transposed)
    g = rng.normal(size=x.shape).astype(dtype)
    out = T.gelu(x)
    _assert_op(out, out._backward(g), *gelu_ref(x.data, g))
    _assert_same(T.erf(x.data), erf_ref(x.data))


def test_gelu_edge_values():
    x = np.array([0.0, -0.0, 1e-30, -1e-30, 3.9, 4.0, 4.1, -5.0, 40.0, -40.0,
                  np.inf, -np.inf, np.nan], dtype=np.float32)
    for dtype in (np.float32, np.float64):
        xd = x.astype(dtype)
        with np.errstate(invalid="ignore", over="ignore"):
            out = T.gelu(Tensor(xd, requires_grad=True))
            g = np.ones_like(xd)
            _assert_op(out, out._backward(g), *gelu_ref(xd, g))


@pytest.mark.parametrize("n,ndim,dtype,transposed", CASES)
def test_layer_norm(n, ndim, dtype, transposed):
    rng = np.random.default_rng(n + ndim)
    x = _input(rng, _shape(n, ndim), dtype, transposed)
    d = x.shape[-1]
    gain = Tensor(rng.normal(size=d), requires_grad=True, dtype=dtype)
    bias = Tensor(rng.normal(size=d), requires_grad=True, dtype=dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    out = T.layer_norm(x, gain, bias)
    _assert_op(out, out._backward(g), *layer_norm_ref(x.data, gain.data, bias.data, g))


@pytest.mark.parametrize("n,ndim,dtype,transposed", CASES)
def test_softmax(n, ndim, dtype, transposed):
    rng = np.random.default_rng(n + ndim)
    x = _input(rng, _shape(n, ndim), dtype, transposed, scale=30.0)
    g = rng.normal(size=x.shape).astype(dtype)
    out = T.softmax(x)
    _assert_op(out, out._backward(g), *softmax_ref(x.data, g))


@pytest.mark.parametrize("x_shape", [(6, 5), (2, 6, 5), (3, 2, 6, 5), (2, 1, 5), (4, 2, 1, 5)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("transposed", [False, True])
def test_linear(x_shape, dtype, transposed):
    rng = np.random.default_rng(len(x_shape))
    x = _input(rng, x_shape, dtype, transposed)
    w = Tensor(rng.normal(size=(5, 7)), requires_grad=True, dtype=dtype)
    b = Tensor(rng.normal(size=7), requires_grad=True, dtype=dtype)
    g = rng.normal(size=x_shape[:-1] + (7,)).astype(dtype)
    out = T.linear(x, w, b)
    grads = out._backward(g)
    _assert_op(out, grads, *linear_ref(x.data, w.data, b.data, g))
    # numpy's stacked products, one matrix per leading index, which the op ran
    # before; they round differently on the one-row shapes (2, 1, 5) and (4, 2, 1, 5)
    y_old, gx_old = x.data @ w.data + b.data, g @ w.data.T
    assert (np.abs(out.data - y_old) <= rounding_bound(x.data, w.data, b.data)).all()
    assert (np.abs(grads[0] - gx_old) <= rounding_bound(g, w.data.T)).all()
