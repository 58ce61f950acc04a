"""Dense tensors with reverse-mode automatic differentiation.

Deliberately small: only the operations the model needs, row-major
float32/float64 arrays, eager shape validation, and one recorded backward
closure per op. There is no implicit broadcasting; the only sanctioned
shortcuts are scalar arithmetic (`scale`, scalar `add`) and the explicit
`add_bias` / `broadcast_batch` ops, whose broadcast is their contract.

Training runs in float32; the gradient-check suite builds the same graph in
float64 (creation functions take ``dtype``, ops preserve it: constants are
Python floats, never numpy float64 scalars, which would promote a float32
operand).
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Sequence

import numpy as np
from scipy.special import erf as _erf

from .errors import ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Eigen's float32 erf (generic_fast_erf_float): erf(x) = x * P(x^2) / Q(x^2)
# on x clamped to [-4, 4], beyond which erf rounds to +-1 in float32.
# Coefficients from the highest power down.
_ERF32_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
            -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
            -1.60960333262415e-02)
_ERF32_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
            -7.37332916720468e-03, -1.42647390514189e-02)

#: added to L2 denominators so zero slices normalize to zero instead of NaN
NORM_EPS = 1e-12

#: how far a cross-entropy target row sum may stray from 1: the threshold of
#: ``np.allclose(row_sums, 1.0, atol=1e-3)``, i.e. atol + rtol * |1| with
#: numpy's default rtol
_ROW_SUM_TOL = 1e-3 + 1e-5


class Tensor:
    """An n-d array with optional gradient tracking.

    ``grad`` stays ``None`` until ``backward()`` first reaches the tensor;
    repeated backward calls accumulate additively. Tensors are immutable
    after construction except for gradient accumulation (optimizers mutate
    parameter ``data`` in place *between* graph constructions, never inside
    one).
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(())[()])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name},"
            f" requires_grad={self.requires_grad})"
        )

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, c):
        return scale(self, c)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _result(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """Wrap an op result; only records the graph edge if some parent needs it."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    for p in parents:  # an explicit loop: `any()` over a generator costs more than the op
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
            return out
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every reachable tensor.

    The traversal uses a scratch gradient table so that calling backward()
    twice without zeroing grads adds exactly one more copy of each gradient.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {tuple(loss.shape)}")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))

    running: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = running.get(id(node))
        if g is None or node._backward is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = running.get(id(parent))
            running[id(parent)] = pg if acc is None else acc + pg

    for node in topo:
        g = running.get(id(node))
        if g is not None and node.requires_grad:
            node.grad = g.copy() if node.grad is None else node.grad + g


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum; ``b`` may be a Python scalar, tensors must match shapes."""
    if isinstance(b, Tensor):
        if a.shape != b.shape:
            raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")

        def bw(g):
            return g, g

        return _result(a.data + b.data, (a, b), bw)

    c = float(b)

    def bw1(g):
        return (g,)

    return _result(a.data + c, (a,), bw1)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a Python scalar."""
    c = float(c)

    def bw(g):
        return (g * c,)

    return _result(x.data * c, (x,), bw)


def mul_const(x: Tensor, c: np.ndarray) -> Tensor:
    """Elementwise multiply by a constant array of the same shape (dropout masks).

    The mask is cast to ``x``'s dtype, so a float64 mask cannot promote the result.
    """
    c = np.asarray(c, dtype=x.dtype)
    if c.shape != x.data.shape:
        raise ShapeError(f"mul_const: mask shape {c.shape} != tensor shape {x.shape}")

    def bw(g):
        return (g * c,)

    return _result(x.data * c, (x,), bw)


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add ``bias`` over the trailing axes of ``x``.

    ``bias.shape`` must equal ``x.shape[-bias.ndim:]``; the bias gradient
    sums over the leading axes. This is the one broadcast in the library and
    it is spelled out here rather than hidden inside ``add``.
    """
    k = x.ndim - bias.ndim
    if k < 0 or x.shape[k:] != bias.shape:
        raise ShapeError(f"add_bias: bias shape {bias.shape} does not match trailing dims of {x.shape}")
    lead = tuple(range(k))

    def bw(g):
        return g, (g.sum(axis=lead) if lead else g)

    return _result(x.data + bias.data, (x, bias), bw)


def broadcast_batch(x: Tensor, batch: int) -> Tensor:
    """Replicate ``x`` along a new leading batch axis; gradient sums the copies."""
    if batch < 1:
        raise ShapeError(f"broadcast_batch: batch must be >= 1, got {batch}")

    def bw(g):
        return (g.sum(axis=0),)

    return _result(np.broadcast_to(x.data, (batch,) + x.data.shape), (x,), bw)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(map(int, axes))
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose: axes {axes} are not a permutation for shape {x.shape}")
    inv = [0] * len(axes)
    for i, a in enumerate(axes):
        inv[a] = i
    inv = tuple(inv)

    def bw(g):
        return (g.transpose(inv),)

    return _result(x.data.transpose(axes), (x,), bw)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(map(int, shape))
    try:
        data = x.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}") from e
    src = x.data.shape

    def bw(g):
        return (g.reshape(src),)

    return _result(data, (x,), bw)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along ``axis``; the inverse of `narrow` (round-trips bit-exactly)."""
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    nd = tensors[0].ndim
    axis = axis % nd
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        if t.ndim != nd:
            raise ShapeError(f"concat: rank mismatch {tensors[0].shape} vs {t.shape}")
        other = list(t.shape)
        if base[:axis] != other[:axis] or base[axis + 1:] != other[axis + 1:]:
            raise ShapeError(f"concat: shapes {tensors[0].shape} and {t.shape} differ off axis {axis}")
    splits = list(accumulate(t.shape[axis] for t in tensors[:-1]))

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return _result(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bw)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries along ``axis`` starting at ``start``."""
    axis = axis % x.ndim
    if start < 0 or length < 0 or start + length > x.shape[axis]:
        raise ShapeError(f"narrow: range [{start}, {start + length}) out of bounds for axis {axis} of {x.shape}")
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[idx] = g
        return (gx,)

    return _result(x.data[idx], (x,), bw)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Supported forms: 2-d @ 2-d, n-d @ 2-d (stacked rows through one matrix),
    and batched n-d @ n-d with identical leading dims. Nothing else.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} @ {b.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree for {a.shape} @ {b.shape}")
    if bd.ndim != 2 and ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul: batch dims differ for {a.shape} @ {b.shape}")

    def bw(g):
        ga = gb = None  # an operand that needs no gradient gets none computed
        if a.requires_grad:
            ga = g @ (bd.T if bd.ndim == 2 else bd.swapaxes(-1, -2))
        if b.requires_grad:
            if bd.ndim == 2:
                gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = ad.swapaxes(-1, -2) @ g
        return ga, gb

    return _result(ad @ bd, (a, b), bw)


def batched_dot(a: Tensor, b: Tensor) -> Tensor:
    """dot-per-row-pair: ``out[i, j] = <a[i], b[i, j]>`` for a [B, D], b [B, P, D]."""
    if a.ndim != 2 or b.ndim != 3:
        raise ShapeError(f"batched_dot: need [B,D] and [B,P,D], got {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[1] != b.shape[2]:
        raise ShapeError(f"batched_dot: shapes {a.shape} and {b.shape} are inconsistent")

    def bw(g):
        ga = np.einsum("bp,bpd->bd", g, b.data)
        gb = np.einsum("bp,bd->bpd", g, a.data)
        return ga, gb

    return _result(np.einsum("bd,bpd->bp", a.data, b.data), (a, b), bw)


# ---------------------------------------------------------------------------
# nonlinearities and losses
# ---------------------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stabilized softmax along ``axis`` (max subtraction, so huge inputs are fine)."""
    axis = axis % x.ndim
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return _result(y, (x,), bw)


def l2_normalize(x: Tensor, axis: int = -1) -> Tensor:
    """Scale slices along ``axis`` to unit Euclidean norm.

    The denominator is ``norm + 1e-12``, so zero slices map to zero instead
    of dividing by zero.
    """
    axis = axis % x.ndim
    n = np.sqrt((x.data * x.data).sum(axis=axis, keepdims=True))
    d = n + NORM_EPS
    y = x.data / d

    def bw(g):
        s = (g * x.data).sum(axis=axis, keepdims=True)
        return (g / d - x.data * (s / (d * d * np.maximum(n, NORM_EPS))),)

    return _result(y, (x,), bw)


def erf(x: np.ndarray) -> np.ndarray:
    """The error function, in the dtype of ``x``.

    float32 takes the rational fit ``_ERF32_P`` / ``_ERF32_Q``, evaluated with
    in-place array ops:
    max abs error 4.5e-7 against the exact erf (a few float32 ulp near +-1),
    odd, exactly 0 at 0 and clipped to [-1, 1]. Every other dtype goes to
    ``scipy.special.erf``, so the float64 gradient check keeps the exact path.
    """
    if x.dtype != np.float32:
        return _erf(x)
    x = np.clip(x, -4.0, 4.0)
    x2 = x * x
    p = x2 * _ERF32_P[0]
    p += _ERF32_P[1]
    for c in _ERF32_P[2:]:
        p *= x2
        p += c
    p *= x
    q = x2 * _ERF32_Q[0]
    q += _ERF32_Q[1]
    for c in _ERF32_Q[2:]:
        q *= x2
        q += c
    p /= q
    return np.clip(p, -1.0, 1.0, out=p)


def gelu(x: Tensor) -> Tensor:
    """Exact erf-based gelu (float32 through the rational-fit `erf`)."""
    c = erf(x.data * _INV_SQRT2)
    y = 0.5 * x.data * (1.0 + c)

    def bw(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        return (g * (0.5 * (1.0 + c) + x.data * pdf),)

    return _result(y, (x,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply per-feature gain and bias."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    # np.add.reduce(...) / d is what ndarray.mean computes, without its Python-level wrapper
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    lead = tuple(range(x.ndim - 1))

    def bw(g):
        gxhat = g * gain.data
        m1 = np.add.reduce(gxhat, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(gxhat * xhat, axis=-1, keepdims=True) / d
        gx = inv * (gxhat - m1 - xhat * m2)
        gg = (g * xhat).sum(axis=lead) if lead else g * xhat
        gb = g.sum(axis=lead) if lead else g
        return gx, gg, gb

    return _result(xhat * gain.data + bias.data, (x, gain, bias), bw)


def cross_entropy(logits: Tensor, target: Tensor) -> Tensor:
    """Mean over the batch of ``-sum(target * log_softmax(logits))``.

    ``target`` rows are soft labels and must each sum to 1 (one-hot rows for
    hard labels). Returns a 0-d tensor. An empty batch has no mean and is a
    ``ShapeError``.
    """
    if logits.ndim != 2 or target.ndim != 2 or logits.shape != target.shape:
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs target {target.shape}")
    if logits.shape[0] == 0:
        raise ShapeError(f"cross_entropy: empty batch, logits {logits.shape}")
    row_sums = target.data.sum(axis=1)
    if not (np.abs(row_sums - 1.0) <= _ROW_SUM_TOL).all():  # np.allclose, without its overhead
        raise ValueError("cross_entropy: target rows must sum to 1")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lsm = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    b = logits.shape[0]
    p = np.exp(lsm)

    def bw(g):
        gs = g.reshape(()) / b
        gl = (p * target.data.sum(axis=1, keepdims=True) - target.data) * gs
        gt = -lsm * gs if target.requires_grad else None
        return gl, gt

    loss = np.asarray(-(target.data * lsm).sum() / b)
    return _result(loss, (logits, target), bw)
