"""Dense float64 tensor engine with reverse-mode differentiation.

A :class:`Tensor` wraps a row-major numpy float64 array.  While a
:class:`Tape` is active (``with Tape() as tape:``), every operation whose
inputs participate in the gradient graph appends one node; ``backward``
replays the tape in reverse and accumulates ``dLoss/dX`` into ``.grad``
buffers.

Gradient accumulation rules:

* leaf tensors (parameters, constants promoted to ``requires_grad``) keep
  accumulating across ``backward`` calls until ``zero_grad``;
* intermediate results get a fresh zero gradient at the start of every
  ``backward`` call, so calling ``backward`` twice on the same tape doubles
  the leaf gradients and nothing else.

Forward results are deterministic: identical inputs produce bit-identical
outputs (single-threaded numpy, no stochastic ops).
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class DimensionError(ValueError):
    """Raised when operand shapes cannot be combined."""


_STATE = threading.local()


def _active_tape():
    return getattr(_STATE, "tape", None)


class Tape:
    """Ordered record of operations; inputs of a node always precede it."""

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        self._outer = getattr(_STATE, "tape", None)
        _STATE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.tape = self._outer
        return False

    def __len__(self):
        return len(self.nodes)


class _Node:
    __slots__ = ("output", "backward_fn")

    def __init__(self, output, backward_fn):
        self.output = output
        self.backward_fn = backward_fn


class Tensor:
    """Dense n-dimensional float64 array, optionally tracked on a tape."""

    __slots__ = ("data", "grad", "requires_grad", "_leaf")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._leaf = True

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars and arrays are promoted to constant tensors
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(rng, shape, fan_in):
    """Trainable tensor, uniform in [-sqrt(1/fan_in), +sqrt(1/fan_in)]."""
    bound = float(np.sqrt(1.0 / fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _record(out, inputs, backward_fn):
    """Attach `out` to the active tape when any input carries gradient."""
    tape = _active_tape()
    if tape is None:
        return out
    if not any(t.requires_grad for t in inputs):
        return out
    out.requires_grad = True
    out._leaf = False
    out.grad = np.zeros_like(out.data)
    tape.nodes.append(_Node(out, backward_fn))
    return out


def backward(loss, tape):
    """Populate dLoss/dLeaf for every grad-requiring leaf under `tape`.

    `loss` must hold exactly one element.  Intermediate gradients are reset
    here; leaf gradients accumulate across calls (callers zero them via the
    optimizer or `zero_grad`).
    """
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    for node in tape.nodes:
        node.output.grad[...] = 0.0
    if loss._leaf:
        if loss.requires_grad:
            loss.grad += 1.0
        return
    loss.grad[...] = 1.0
    for node in reversed(tape.nodes):
        node.backward_fn(node.output.grad)


def _unbroadcast(g, shape):
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)

    def bw(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g, a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g, b.data.shape)

    return _record(out, (a, b), bw)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data)

    def bw(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g, a.data.shape)
        if b.requires_grad:
            b.grad -= _unbroadcast(g, b.data.shape)

    return _record(out, (a, b), bw)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)

    def bw(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g * b.data, a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g * a.data, b.data.shape)

    return _record(out, (a, b), bw)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data / b.data)

    def bw(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g / b.data, a.data.shape)
        if b.requires_grad:
            b.grad -= _unbroadcast(g * out.data / b.data, b.data.shape)

    return _record(out, (a, b), bw)


def neg(a):
    out = Tensor(-a.data)

    def bw(g):
        if a.requires_grad:
            a.grad -= g

    return _record(out, (a,), bw)


def matmul(a, b):
    """Matrix product over the last two axes; leading axes broadcast as in numpy."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)

    def bw(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        if b.requires_grad and b.ndim == 2:
            # a's leading axes fold into rows: one product, no batch sum
            b.grad += a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        elif b.requires_grad:
            b.grad += _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)

    return _record(out, (a, b), bw)


# ---------------------------------------------------------------------------
# shape manipulation


def transpose(a, axes=None):
    """Permute axes; the default swaps the last two (a batched matrix transpose)."""
    if axes is None:
        axes = (*range(a.ndim - 2), a.ndim - 1, a.ndim - 2)
    out = Tensor(np.transpose(a.data, axes))
    inv = np.argsort(axes)

    def bw(g):
        if a.requires_grad:
            a.grad += np.transpose(g, inv)

    return _record(out, (a,), bw)


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape))

    def bw(g):
        if a.requires_grad:
            a.grad += g.reshape(a.data.shape)

    return _record(out, (a,), bw)


def getitem(a, idx):
    out = Tensor(np.array(a.data[idx]))

    def bw(g):
        if a.requires_grad:
            a.grad[idx] += g

    return _record(out, (a,), bw)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t.grad += g[tuple(sl)]

    return _record(out, tuple(tensors), bw)


def embedding(table, ids):
    """Gather rows of `table` by integer ids; backward scatter-adds rows."""
    ids = np.asarray(ids, dtype=np.int64)
    out = Tensor(table.data[ids])

    def bw(g):
        if table.requires_grad:
            np.add.at(table.grad, ids, g)

    return _record(out, (table,), bw)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def tanh(a):
    out = Tensor(np.tanh(a.data))

    def bw(g):
        if a.requires_grad:
            a.grad += g * (1.0 - out.data * out.data)

    return _record(out, (a,), bw)


def relu(a):
    out = Tensor(np.maximum(a.data, 0.0))

    def bw(g):
        if a.requires_grad:
            # derivative at exactly 0 defined as 0
            a.grad += g * (a.data > 0.0)

    return _record(out, (a,), bw)


def stable_sigmoid(x):
    """Elementwise logistic function of a float array, overflow-free for any x."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a):
    """log(1 + exp(x)) in the overflow-safe form max(x,0) + log1p(exp(-|x|))."""
    x = a.data
    out = Tensor(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))))

    def bw(g):
        if a.requires_grad:
            a.grad += g * stable_sigmoid(x)

    return _record(out, (a,), bw)


def sqrt(a):
    out = Tensor(np.sqrt(a.data))

    def bw(g):
        if a.requires_grad:
            a.grad += g * 0.5 / out.data

    return _record(out, (a,), bw)


def softmax(a, axis, mask=None):
    """Max-stabilized softmax along `axis`.

    `mask` is a boolean array broadcastable to the input; False positions
    are excluded from the normalization and produce exactly 0.  A fully
    masked slice yields all zeros rather than NaN.
    """
    if axis >= a.ndim:
        raise DimensionError(f"softmax axis {axis} out of range for shape {a.shape}")
    z = a.data
    if mask is not None:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), z.shape)
        z = np.where(m, z, -np.inf)
    mx = np.max(z, axis=axis, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    e = np.exp(z - mx)
    s = e.sum(axis=axis, keepdims=True)
    out = Tensor(e / np.where(s == 0.0, 1.0, s))

    def bw(g):
        if a.requires_grad:
            y = out.data
            a.grad += y * (g - (g * y).sum(axis=axis, keepdims=True))

    return _record(out, (a,), bw)


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(a, axis=None, keepdims=False):
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bw(g):
        if not a.requires_grad:
            return
        if axis is None:
            a.grad += g  # scalar broadcast
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a.grad += np.broadcast_to(gg, a.data.shape)

    return _record(out, (a,), bw)


def reduce_mean(a, axis=None, keepdims=False):
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))
    n = a.data.size if axis is None else a.data.shape[axis]

    def bw(g):
        if not a.requires_grad:
            return
        if axis is None:
            a.grad += g / n
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a.grad += np.broadcast_to(gg, a.data.shape) / n

    return _record(out, (a,), bw)


# ---------------------------------------------------------------------------
# 2D convolution and pooling


def _spatial_4d(x):
    """Promote [C,H,W] to [1,C,H,W]; report whether it was 3D."""
    if x.ndim == 3:
        return x.data[None], True
    if x.ndim == 4:
        return x.data, False
    raise DimensionError(f"expected 3D [C,H,W] or 4D [N,C,H,W] input, got {x.shape}")


# Upper bound, in elements, on the column matrix one conv2d product
# gathers; larger batches are processed in slices along N.
_COLUMN_ELEMS = 1 << 20


def _columns(windows):
    """[C*kh*kw, N*ho*wo] column matrix of conv windows [N, C, ho, wo, kh, kw]."""
    n, c, ho, wo, kh, kw = windows.shape
    return windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, n * ho * wo)


def conv2d(x, kernels, bias, stride=(1, 1)):
    """Valid cross-correlation (no kernel flip, no zero padding).

    x: [C_in,H,W] or [N,C_in,H,W]; kernels: [C_out,C_in,kh,kw]; bias: [C_out].
    out[n,o,i,j] = bias[o] + sum_{c,a,b} kernels[o,c,a,b] * x[n,c,i*sh+a,j*sw+b]

    Each product is one matmul against the window columns, built for a
    slice of N at a time and rebuilt in backward rather than kept.
    """
    xd, was_3d = _spatial_4d(x)
    kd = kernels.data
    if kd.ndim != 4:
        raise DimensionError(f"conv2d kernels must be 4D [out,in,kh,kw], got {kernels.shape}")
    n, cin, h, w = xd.shape
    cout, kcin, kh, kw = kd.shape
    if kcin != cin:
        raise DimensionError(f"conv2d channel mismatch: input has {cin}, kernels expect {kcin}")
    if kh > h or kw > w:
        raise DimensionError(
            f"conv2d kernel {kh}x{kw} exceeds input {h}x{w}; pad the input or shrink the kernel"
        )
    sh, sw = stride
    windows = sliding_window_view(xd, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    ho, wo = windows.shape[2], windows.shape[3]
    step = max(1, _COLUMN_ELEMS // (cin * kh * kw * ho * wo))
    slices = [slice(s, s + step) for s in range(0, n, step)]
    k_rows = kd.reshape(cout, cin * kh * kw)
    out_data = np.empty((n, cout, ho, wo))
    for sl in slices:
        prod = np.tensordot(k_rows, _columns(windows[sl]), axes=1)
        out_data[sl] = np.moveaxis(prod.reshape(cout, -1, ho, wo), 0, 1)
    if bias is not None:
        out_data += bias.data[:, None, None]
    out = Tensor(out_data[0] if was_3d else out_data)

    def bw(g):
        g4 = g[None] if was_3d else g
        if bias is not None and bias.requires_grad:
            bias.grad += g4.sum(axis=(0, 2, 3))
        gx = np.zeros_like(xd) if x.requires_grad else None
        for sl in slices:
            g_rows = np.moveaxis(g4[sl], 1, 0).reshape(cout, -1)  # [cout, n*ho*wo]
            if kernels.requires_grad:
                cols = _columns(windows[sl])
                kernels.grad += np.tensordot(g_rows, cols, axes=([1], [1])).reshape(kd.shape)
            if gx is not None:
                # g_cols[c,a,b,n,i,j] = sum_o k[o,c,a,b] * g[n,o,i,j]
                g_cols = (k_rows.T @ g_rows).reshape(cin, kh, kw, -1, ho, wo)
                gx_sl = gx[sl]
                for a in range(kh):
                    for b in range(kw):
                        gx_sl[:, :, a : a + ho * sh : sh, b : b + wo * sw : sw] += np.moveaxis(
                            g_cols[:, a, b], 0, 1
                        )
        if gx is not None:
            x.grad += gx[0] if was_3d else gx

    inputs = (x, kernels) if bias is None else (x, kernels, bias)
    return _record(out, inputs, bw)


def maxpool2d(x, window, stride):
    """Per-window max over the last two axes; partial trailing windows dropped.

    Backward routes the incoming gradient to the first row-major maximum of
    each window, so total gradient mass is conserved exactly.
    """
    xd, was_3d = _spatial_4d(x)
    ph, pw = window
    sh, sw = stride
    h, w = xd.shape[2:]
    if ph > h or pw > w:
        raise DimensionError(f"maxpool2d window {ph}x{pw} exceeds input {h}x{w}")
    ho, wo = (h - ph) // sh + 1, (w - pw) // sw + 1

    def offset(k):
        """Slices picking, for every window, its element at row-major offset k."""
        a, b = divmod(k, pw)
        return (slice(None), slice(None), slice(a, a + ho * sh, sh), slice(b, b + wo * sw, sw))

    out_data = xd[offset(0)].copy()
    for k in range(1, ph * pw):
        np.maximum(out_data, xd[offset(k)], out=out_data)
    out = Tensor(out_data[0] if was_3d else out_data)

    def bw(g):
        if not x.requires_grad:
            return
        g4 = g[None] if was_3d else g
        # hits[k]: windows whose first row-major maximum sits at offset k
        taken = np.zeros(out_data.shape, dtype=bool)
        hits = []
        for k in range(ph * pw):
            hit = (xd[offset(k)] == out_data) > taken
            taken |= hit
            hits.append(hit)
        gx = np.zeros_like(xd)
        # descending offsets add each input position's contributions in
        # row-major window order
        for k in reversed(range(ph * pw)):
            gx[offset(k)] += g4 * hits[k]
        x.grad += gx[0] if was_3d else gx

    return _record(out, (x,), bw)
