"""Dense tensors with reverse-mode automatic differentiation.

Deliberately small: only the operations the model needs, row-major
float32/float64 arrays, eager shape validation, and one recorded backward
closure per op. There is no implicit broadcasting; the only sanctioned
shortcuts are scalar arithmetic (`scale`, scalar `add`) and the explicit
`add_bias` / `linear` / `broadcast_batch` ops, whose broadcast is their
contract.

`backward` returns the gradients of leaves only (tensors no op produced,
such as parameters and inputs) and stores nothing on any tensor, so two
graphs over one model can run backward in either order; an intermediate
result's gradient is freed once it has been passed back to the op's
operands.

The graph is made of nodes, not tensors. An op whose operands need no
gradient records nothing; otherwise its result gets a node, the list
``[closure, handle, ...]``: the backward closure, then one handle per operand
(the operand's own node, the operand itself if it is a leaf that requires
grad, or ``None``), so which operands get a gradient is fixed when the op
runs. A node never holds a tensor's data; a closure keeps only
the arrays its backward reads, so an intermediate array that no closure
captures (pre-softmax scores, a residual sum, a projection's output) is freed
as soon as the forward drops its last name for it.

A graph has one dtype. Training runs in float32; the gradient-check suite
builds the same graph in float64. Creation functions take ``dtype``, and the
model wraps every array it feeds a graph (pixels, prompt rows, targets) in
its own. Ops preserve the dtype and do not promote mixed operands: constants
are Python floats, never numpy float64 scalars, and the constant arrays of
`mul_const` and `cross_entropy` are cast to their operand's dtype.

`gelu`, `layer_norm` and `softmax` write in place on arrays they allocate
themselves, forward and backward, and `gelu` walks its input in
``CHUNK``-element pieces in both dtypes so that its erf pass stays in cache.
Every result is bit-identical to the op-by-op formula with one fresh array
per step, which tests/test_kernels.py keeps as the reference.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Sequence

import numpy as np

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

#: elements per piece of the chunked gelu. Its float32 erf pass cycles through
#: four arrays of this length, 2 MiB, the per-core L2 of the 2-core
#: Xeon it was tuned on. Half as long ran no faster in one thread and about 20%
#: slower in two, where the eval pool's workers hand the GIL back and forth
#: between the ~30 array passes of every piece.
CHUNK = 1 << 17

#: added to L2 denominators so zero slices normalize to zero instead of NaN
NORM_EPS = 1e-12

#: added to the variance inside layer_norm's square root
LN_EPS = 1e-5

#: how far a cross-entropy target row sum may stray from 1: the threshold of
#: ``np.allclose(row_sums, 1.0, atol=1e-3)``, i.e. atol + rtol * |1| with
#: numpy's default rtol
_ROW_SUM_TOL = 1e-3 + 1e-5


class Tensor:
    """An n-d array with optional gradient tracking.

    A tensor carries no gradient; `backward` returns them. Tensors are
    immutable after construction (optimizers mutate parameter ``data`` in
    place *between* graph constructions, never inside one).

    ``_node`` is the graph node of a result that needs a gradient (see the
    module docstring), else ``None``. The graph reaches the node, never the
    tensor, so ``data`` lives only while a name or a backward closure holds
    it. ``_backward`` reads and replaces the node's closure.
    """

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self._node: list | None = None

    @property
    def _backward(self):
        node = self._node
        return None if node is None else node[0]

    @_backward.setter
    def _backward(self, closure) -> None:
        self._node[0] = closure

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

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name},"
            f" requires_grad={self.requires_grad})"
        )


_new = Tensor.__new__  # looked up once, not on every op


def _result(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """Wrap an op result; only records a graph node if some parent needs it."""
    out = _new(Tensor)
    out.data = data
    # explicit loops: `any()` over a generator, or a list comprehension, costs more
    for p in parents:
        if p.requires_grad:
            node = [backward]
            for q in parents:
                node.append(q._node or (q if q.requires_grad else None))
            out.requires_grad = True
            out._node = node
            return out
    out.requires_grad = False
    out._node = None
    return out


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """d(loss)/d(t) for every leaf ``t`` the graph reaches that requires grad.

    Returns ``{leaf: gradient}``, keyed by the leaf object itself (`Tensor`
    hashes by identity), with no entry for a leaf the graph does not reach or
    one frozen since the forward. Each array is the caller's own copy,
    because an op may hand one array to several operands (``add``) and
    gradient clipping scales gradients in place. Nothing is stored on any
    tensor, so calling backward() twice on one graph returns equal gradients.

    Walks the graph from ``loss``'s node: a handle that is a list is a node,
    any other is a leaf. Gradients flow through a scratch table; each entry
    is dropped as soon as its node has passed it back, so an intermediate
    gradient lives only until its op's backward has run.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {tuple(loss.shape)}")
    grads: dict[Tensor, np.ndarray] = {}
    root = loss._node or (loss if loss.requires_grad else None)
    if root is None:
        return grads

    topo: list = []
    visited: set[int] = set()
    stack: list[tuple[object, bool]] = [(root, False)]
    while stack:
        handle, expanded = stack.pop()
        if expanded:
            topo.append(handle)
            continue
        if id(handle) in visited:
            continue
        visited.add(id(handle))
        stack.append((handle, True))
        if type(handle) is list:
            for p in handle[1:]:
                if p is not None and id(p) not in visited:
                    stack.append((p, False))

    running: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    for handle in reversed(topo):
        g = running.pop(id(handle))
        if type(handle) is not list:
            if handle.requires_grad:  # a leaf frozen since the forward gets nothing
                grads[handle] = g.copy()
            continue
        for parent, pg in zip(handle[1:], handle[0](g)):
            if pg is None or parent is None:
                continue
            acc = running.get(id(parent))
            running[id(parent)] = pg if acc is None else acc + pg
    return grads


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")

    def bw(g):
        return g, g

    return _result(a.data + b.data, (a, b), bw)


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
    shape, dtype = x.data.shape, x.data.dtype  # the closure needs only these of x

    def bw(g):
        gx = np.zeros(shape, dtype)
        gx[idx] = g
        return (gx,)

    return _result(x.data[idx], (x,), bw)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` [..., D] as one matrix [rows, D], a view where the layout allows."""
    return a.reshape(-1, a.shape[-1])


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a`` [..., K] @ ``b`` [K, N] as one 2-d GEMM over the stacked rows of ``a``.

    numpy runs a stacked ``a @ b`` as one GEMM per leading index. One call over
    all rows is faster, and on some shapes (one-row matrices, odd widths) it
    rounds differently.
    """
    return (_rows(a) @ b).reshape(a.shape[:-1] + b.shape[1:])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of operands with identical leading dims.

    2-d @ 2-d, or a batch of them, n-d @ n-d. Nothing else: `linear` runs
    stacked rows through one matrix.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} @ {b.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree for {a.shape} @ {b.shape}")
    if ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul: leading dims differ for {a.shape} @ {b.shape}")

    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        ga = gb = None  # an operand that needs no gradient gets none computed
        if need_a:
            ga = g @ bd.swapaxes(-1, -2)
        if need_b:
            gb = ad.swapaxes(-1, -2) @ g
        return ga, gb

    return _result(ad @ bd, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one graph node: ``x`` [..., D_in], ``w`` [D_in, D_out], ``b`` [D_out].

    The product and the input gradient are each one GEMM over the stacked
    rows of ``x`` (of the output gradient), as the weight gradient is. The
    bias, of the product's dtype, is added in place on the fresh product, so
    the product is not kept alive as a second activation.
    """
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim < 2 or wd.ndim != 2:
        raise ShapeError(f"linear: need n-d @ 2-d with n >= 2, got {x.shape} @ {w.shape}")
    if xd.shape[-1] != wd.shape[0]:
        raise ShapeError(f"linear: inner dims disagree for {x.shape} @ {w.shape}")
    if bd.shape != wd.shape[1:]:
        raise ShapeError(f"linear: bias shape {b.shape} does not match output width of {w.shape}")
    lead = tuple(range(xd.ndim - 1))
    need_x, need_w, need_b = x.requires_grad, w.requires_grad, b.requires_grad

    def bw(g):
        gx = gw = gb = None  # an operand that needs no gradient gets none computed
        if need_x:
            gx = _gemm(g, wd.T)
        if need_w:
            gw = _rows(xd).T @ _rows(g)
        if need_b:
            gb = g.sum(axis=lead)
        return gx, gw, gb

    y = _gemm(xd, wd)
    y += bd
    return _result(y, (x, w, b), bw)


def batched_dot(a: Tensor, b: Tensor) -> Tensor:
    """dot-per-row-pair: ``out[i, j] = <a[i], b[i, j]>`` for a [B, D], b [B, P, D]."""
    if a.ndim != 2 or b.ndim != 3:
        raise ShapeError(f"batched_dot: need [B,D] and [B,P,D], got {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[1] != b.shape[2]:
        raise ShapeError(f"batched_dot: shapes {a.shape} and {b.shape} are inconsistent")

    ad, bd = a.data, b.data

    def bw(g):
        ga = np.einsum("bp,bpd->bd", g, bd)
        gb = np.einsum("bp,bd->bpd", g, ad)
        return ga, gb

    return _result(np.einsum("bd,bpd->bp", ad, bd), (a, b), bw)


# ---------------------------------------------------------------------------
# nonlinearities and losses
# ---------------------------------------------------------------------------


def softmax(x: Tensor) -> Tensor:
    """Stabilized softmax along the last axis (max subtraction, so huge inputs are fine)."""
    y = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def bw(g):
        gx = g * y
        dot = gx.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=gx)
        gx *= y
        return (gx,)

    return _result(y, (x,), bw)


def l2_normalize(x: Tensor) -> Tensor:
    """Scale slices along the last axis to unit Euclidean norm.

    The denominator is ``norm + 1e-12``, so zero slices map to zero instead
    of dividing by zero.
    """
    xd = x.data
    n = np.sqrt((xd * xd).sum(axis=-1, keepdims=True))
    d = n + NORM_EPS
    y = xd / d

    def bw(g):
        s = (g * xd).sum(axis=-1, keepdims=True)
        return (g / d - xd * (s / (d * d * np.maximum(n, NORM_EPS))),)

    return _result(y, (x,), bw)


def _erf32(x: np.ndarray, p: np.ndarray, x2: np.ndarray, q: np.ndarray) -> None:
    """The float32 rational-fit erf of ``x``, written into ``p``.

    ``x`` is clipped in place; ``x2`` and ``q`` are scratch of its shape.
    """
    np.clip(x, -4.0, 4.0, out=x)
    np.multiply(x, x, out=x2)
    np.multiply(x2, _ERF32_P[0], out=p)
    p += _ERF32_P[1]
    for c in _ERF32_P[2:]:
        p *= x2
        p += c
    p *= x
    np.multiply(x2, _ERF32_Q[0], out=q)
    q += _ERF32_Q[1]
    for c in _ERF32_Q[2:]:
        q *= x2
        q += c
    p /= q
    np.clip(p, -1.0, 1.0, out=p)


def _erf_into(x: np.ndarray, out: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> None:
    """erf of ``x`` into ``out``: the float32 fit `_erf32`, else ``scipy.special.erf``.

    ``x``, ``s1`` and ``s2`` are scratch of its shape. scipy is imported here,
    on the first non-float32 call, and nowhere else in the model, so a float32
    process never loads ``scipy.special`` (about 21 MB of resident memory and
    0.3 s of import on a 2-core x86 host).
    """
    if x.dtype == np.float32:
        _erf32(x, out, s1, s2)
    else:
        from scipy.special import erf as exact_erf
        exact_erf(x, out=out)


def erf(x: np.ndarray) -> np.ndarray:
    """The error function, in the dtype of ``x``, by the kernel `gelu` runs chunk by chunk.

    float32 takes the rational fit ``_ERF32_P`` / ``_ERF32_Q``, bit for bit
    the op-by-op formula: max abs error 4.5e-7 against the exact erf (a few
    float32 ulp near +-1), odd, exactly 0 at 0 and clipped to [-1, 1]. Every
    other dtype takes ``scipy.special.erf``, so the float64 gradient check
    keeps the exact erf.
    """
    out = np.empty_like(x)
    _erf_into(x.copy(), out, np.empty_like(x), np.empty_like(x))
    return out


def _gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gelu forward in ``x``'s dtype: ``(erf(x / sqrt2), 0.5 * x * (1 + erf(x / sqrt2)))``.

    Walks ``x`` in ``CHUNK``-element pieces through two chunk-sized scratch
    buffers, so the erf pass stays in cache and only the two returned arrays
    are full-size.
    """
    xf = np.ascontiguousarray(x).reshape(-1)
    c = np.empty(x.shape, x.dtype)  # C-contiguous, so the flat views below write into it
    y = np.empty(x.shape, x.dtype)
    cf, yf = c.reshape(-1), y.reshape(-1)
    n = min(xf.size, CHUNK)
    s1, s2 = np.empty(n, x.dtype), np.empty(n, x.dtype)
    for lo in range(0, xf.size, CHUNK):
        xs, cs, ys = xf[lo:lo + CHUNK], cf[lo:lo + CHUNK], yf[lo:lo + CHUNK]
        a, b = s1[:xs.size], s2[:xs.size]
        np.multiply(xs, _INV_SQRT2, out=a)
        _erf_into(a, cs, b, ys)  # ys is scratch until the last line
        np.add(cs, 1.0, out=a)
        np.multiply(xs, 0.5, out=ys)
        ys *= a
    return c, y


def gelu(x: Tensor) -> Tensor:
    """Exact erf-based gelu (float32 through the rational-fit `erf`).

    In both dtypes the forward runs in cache-sized chunks and the backward in
    place on a buffer of the input's dtype; both are bit-identical to the
    op-by-op formulas ``0.5 * x * (1 + erf(x / sqrt2))`` and
    ``g * (0.5 * (1 + erf(x / sqrt2)) + x * pdf(x))``.
    """
    xd = x.data
    c, y = _gelu_forward(xd)

    def bw(g):
        xpdf = xd * -0.5
        xpdf *= xd
        np.exp(xpdf, out=xpdf)
        xpdf *= _INV_SQRT2PI
        xpdf *= xd
        gx = c + 1.0
        gx *= 0.5
        gx += xpdf
        gx *= g
        return (gx,)

    return _result(y, (x,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then apply per-feature gain and bias.

    ``gain`` and ``bias`` share ``x``'s dtype. Forward and backward write in
    place on their own fresh arrays, bit-identical to
    ``xhat = (x - mu) / sqrt(var + LN_EPS); xhat * gain + bias`` op by op.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    # np.add.reduce(...) / d is what ndarray.mean computes, without its Python-level wrapper
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    xhat = x.data - mu
    sq = xhat * xhat
    var = np.add.reduce(sq, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    out = np.multiply(xhat, gain.data, out=sq)
    out += bias.data
    lead = tuple(range(x.ndim - 1))
    gd = gain.data

    def bw(g):
        gx = g * gd
        t = gx * xhat
        m1 = np.add.reduce(gx, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(t, axis=-1, keepdims=True) / d
        gx -= m1
        np.multiply(xhat, m2, out=t)
        gx -= t
        gx *= inv
        np.multiply(g, xhat, out=t)
        gg = t.sum(axis=lead) if lead else t
        gb = g.sum(axis=lead) if lead else g
        return gx, gg, gb

    return _result(out, (x, gain, bias), bw)


def cross_entropy(logits: Tensor, target: np.ndarray) -> Tensor:
    """Mean over the batch of ``-sum(target * log_softmax(logits))``.

    ``target`` is a constant array, cast to the logits' dtype, whose rows are
    soft labels and must each sum to 1 (one-hot rows for hard labels). Only
    ``logits`` gets a gradient. Returns a 0-d tensor. An empty batch has no
    mean and is a ``ShapeError``.
    """
    td = np.asarray(target, dtype=logits.dtype)
    if logits.ndim != 2 or td.ndim != 2 or logits.shape != td.shape:
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs target {td.shape}")
    if logits.shape[0] == 0:
        raise ShapeError(f"cross_entropy: empty batch, logits {logits.shape}")
    row_sums = td.sum(axis=1)
    if not (np.abs(row_sums - 1.0) <= _ROW_SUM_TOL).all():  # np.allclose, without its overhead
        raise ValueError("cross_entropy: target rows must sum to 1")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lsm = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    b = logits.shape[0]
    p = np.exp(lsm)

    def bw(g):
        return ((p * td.sum(axis=1, keepdims=True) - td) * (g.reshape(()) / b),)

    loss = np.asarray(-(td * lsm).sum() / b)
    return _result(loss, (logits,), bw)
