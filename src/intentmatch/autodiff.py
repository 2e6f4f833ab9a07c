"""Dense float64 tensor engine with reverse-mode differentiation.

A :class:`Tensor` wraps a numpy float64 array: row-major, except that
``conv2d`` and ``maxpool2d``, which take [N,C,H,W] inputs only, return
[N,C,H,W] views of batch-innermost [C,H,W,N] buffers (see ``conv2d``).
While a :class:`Tape` is active (``with Tape() as tape:``), every operation
whose inputs participate in the gradient graph appends one node;
``backward`` replays the tape in reverse and accumulates ``dLoss/dX`` into
``.grad`` buffers.

Gradient accumulation rules:

* leaf tensors (parameters, constants promoted to ``requires_grad``) own a
  zero ``.grad`` from creation and keep accumulating across ``backward``
  calls until ``zero_grad`` (or an optimizer step) zeroes it;
* intermediate results get no buffer while the tape is recorded.  During
  ``backward`` an intermediate's ``.grad`` is allocated on the first
  accumulation into it and released (set back to ``None``) as soon as its
  node has been replayed; a node whose output received no gradient is
  skipped.  Every ``backward`` call therefore starts the intermediates from
  nothing, so calling it twice on the same tape doubles the leaf gradients
  and nothing else, and after it returns every intermediate's ``.grad`` is
  ``None``.

Forward results are deterministic: identical inputs produce bit-identical
outputs (single-threaded numpy, no stochastic ops).
"""

from __future__ import annotations

import numpy as np


class DimensionError(ValueError):
    """Raised when operand shapes cannot be combined."""


_tape = None  # the innermost active Tape, or None


class Tape:
    """Ordered record of operations; inputs of a node always precede it."""

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        global _tape
        self._outer, _tape = _tape, self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _tape
        _tape = self._outer
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

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(rng, shape, fan_in):
    """Trainable tensor, uniform in [-sqrt(1/fan_in), +sqrt(1/fan_in)]."""
    bound = float(np.sqrt(1.0 / fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _record(out, inputs, backward_fn):
    """Attach `out` to the active tape when any input carries gradient."""
    if _tape is None or not any(t.requires_grad for t in inputs):
        return out
    out.requires_grad = True
    out._leaf = False
    _tape.nodes.append(_Node(out, backward_fn))
    return out


def _accumulate(t, g, index=None, copy=False):
    """Add `g` into `t.grad`, or into `t.grad[index]` with repeats adding up.

    A leaf's buffer exists from its creation.  An intermediate's is
    allocated here, on the first accumulation into it: zeros before an
    indexed add, otherwise `g` itself becomes the buffer.  That needs `g` to
    be an array no other tensor holds: a fresh result, or a view of the
    gradient being replayed, which `backward` has already released.  Pass
    `copy=True` when the same `g` also goes to another input; a read-only
    `g` (a broadcast view) is always copied.
    """
    if index is not None:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        np.add.at(t.grad, index, g)
    elif t.grad is not None:
        t.grad += g
    elif copy or not g.flags.writeable:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad = g


def backward(loss, tape):
    """Populate dLoss/dLeaf for every grad-requiring leaf under `tape`.

    `loss` must hold exactly one element.  Nodes are replayed in reverse;
    each intermediate's buffer is released right after its node is
    replayed, and a node whose output received no gradient is skipped.
    Leaf gradients accumulate across calls (callers zero them via the
    optimizer or `zero_grad`).
    """
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if loss._leaf:
        if loss.requires_grad:
            loss.grad += 1.0
        return
    for node in tape.nodes:  # drop what an interrupted replay left behind
        node.output.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        out = node.output
        g = out.grad
        if g is not None:
            out.grad = None
            node.backward_fn(g)


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
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape), copy=a.requires_grad)

    return _record(out, (a, b), bw)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, -_unbroadcast(g, b.data.shape))

    return _record(out, (a, b), bw)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(out, (a, b), bw)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data / b.data)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, -_unbroadcast(g * out.data / b.data, b.data.shape))

    return _record(out, (a, b), bw)


def matmul(a, b):
    """Matrix product over the last two axes; leading axes broadcast as in numpy."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad and b.ndim == 2:
            # a's leading axes fold into rows: one product, no batch sum
            _accumulate(b, a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        elif b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

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
            _accumulate(a, np.transpose(g, inv))

    return _record(out, (a,), bw)


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape))

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(a.data.shape))

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
                _accumulate(t, g[tuple(sl)])

    return _record(out, tuple(tensors), bw)


def embedding(table, ids):
    """Gather rows of `table` by integer ids; backward scatter-adds rows."""
    ids = np.asarray(ids, dtype=np.int64)
    out = Tensor(table.data[ids])

    def bw(g):
        if table.requires_grad:
            _accumulate(table, g, ids)

    return _record(out, (table,), bw)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def tanh(a):
    out = Tensor(np.tanh(a.data))

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g * (1.0 - out.data * out.data))

    return _record(out, (a,), bw)


def relu(a):
    out = Tensor(np.maximum(a.data, 0.0))

    def bw(g):
        if a.requires_grad:
            # derivative at exactly 0 defined as 0
            _accumulate(a, g * (a.data > 0.0))

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
            _accumulate(a, g * stable_sigmoid(x))

    return _record(out, (a,), bw)


def sqrt(a):
    out = Tensor(np.sqrt(a.data))

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g * 0.5 / out.data)

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
            _accumulate(a, y * (g - (g * y).sum(axis=axis, keepdims=True)))

    return _record(out, (a,), bw)


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(a, axis=None, keepdims=False):
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bw(g):
        if a.requires_grad:
            gg = g if keepdims or axis is None else np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(gg, a.data.shape))

    return _record(out, (a,), bw)


def reduce_mean(a, axis=None, keepdims=False):
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))
    n = a.data.size if axis is None else a.data.shape[axis]

    def bw(g):
        if a.requires_grad:
            gg = g if keepdims or axis is None else np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(gg, a.data.shape) / n)

    return _record(out, (a,), bw)


# ---------------------------------------------------------------------------
# 2D convolution and pooling


def _require_4d(op, x):
    if x.ndim != 4:
        raise DimensionError(f"{op} expects a 4D [N,C,H,W] input, got {x.shape}")


def _batch_innermost(a):
    """[C,H,W,N] contiguous copy of an [N,C,H,W] array; free when it already is."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0))


def _from_batch_innermost(buf):
    """The logical [N,C,H,W] view of a [C,H,W,N] buffer."""
    return buf.transpose(3, 0, 1, 2)


# Upper bound, in elements, on the column matrix one conv2d product
# gathers; larger batches are processed in slices along N.
_COLUMN_ELEMS = 1 << 20


def conv2d(x, kernels, bias, stride=(1, 1)):
    """Valid cross-correlation (no kernel flip, no zero padding).

    x: [N,C_in,H,W]; kernels: [C_out,C_in,kh,kw]; bias: [C_out].
    out[n,o,i,j] = bias[o] + sum_{c,a,b} kernels[o,c,a,b] * x[n,c,i*sh+a,j*sw+b]

    The shapes are logical: the work runs on a batch-innermost [C,H,W,N]
    memory layout, so every slice copy and strided add covers contiguous
    runs of N.  The input is brought to that layout once (free when it
    already has it) and the output is the [N,C_out,ho,wo] view of a
    [C_out,ho,wo,N] buffer.  Each product is one matmul against window
    columns [C_in*kh*kw, ho*wo*n] built for a slice of n maps at a time and
    rebuilt in backward rather than kept.
    """
    _require_4d("conv2d", x)
    xd, kd = x.data, kernels.data
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
    ho, wo = (h - kh) // sh + 1, (w - kw) // sw + 1
    xt = _batch_innermost(xd)  # [cin, h, w, n]
    step = max(1, _COLUMN_ELEMS // (cin * kh * kw * ho * wo))
    slices = [slice(s, s + step) for s in range(0, n, step)]
    k_rows = kd.reshape(cout, cin * kh * kw)

    def window(a, b):
        """[cin, ho, wo] slices picking the inputs at kernel offset (a, b)."""
        return (slice(None), slice(a, a + ho * sh, sh), slice(b, b + wo * sw, sw))

    def columns(sl):
        """[cin*kh*kw, ho*wo*n] window columns of the maps in slice sl."""
        xs = xt[..., sl]
        cols = np.empty((cin, kh, kw, ho, wo, xs.shape[-1]))
        for a in range(kh):
            for b in range(kw):
                cols[:, a, b] = xs[window(a, b)]
        return cols.reshape(cin * kh * kw, -1)

    out_t = np.empty((cout, ho, wo, n))
    for sl in slices:
        out_t[..., sl] = (k_rows @ columns(sl)).reshape(cout, ho, wo, -1)
    if bias is not None:
        out_t += bias.data[:, None, None, None]
    out = Tensor(_from_batch_innermost(out_t))

    def bw(g):
        gt = _batch_innermost(g)  # [cout, ho, wo, n]
        if bias is not None and bias.requires_grad:
            _accumulate(bias, gt.sum(axis=(1, 2, 3)))
        gxt = np.zeros_like(xt) if x.requires_grad else None
        for sl in slices:
            g_rows = gt[..., sl].reshape(cout, -1)  # [cout, ho*wo*n]
            if kernels.requires_grad:
                _accumulate(kernels, (g_rows @ columns(sl).T).reshape(kd.shape))
            if gxt is not None:
                # g_cols[c,a,b,i,j,m] = sum_o k[o,c,a,b] * g[o,i,j,m]
                g_cols = (k_rows.T @ g_rows).reshape(cin, kh, kw, ho, wo, -1)
                gx_sl = gxt[..., sl]
                for a in range(kh):
                    for b in range(kw):
                        gx_sl[window(a, b)] += g_cols[:, a, b]
        if gxt is not None:
            _accumulate(x, _from_batch_innermost(gxt))

    inputs = (x, kernels) if bias is None else (x, kernels, bias)
    return _record(out, inputs, bw)


def maxpool2d(x, window, stride):
    """Per-window max over the last two axes; partial trailing windows dropped.

    Like `conv2d`, it works on a batch-innermost [C,H,W,N] copy of its
    input (free when the input already has that layout) and returns the
    logical [N,C,ho,wo] view of a [C,ho,wo,N] buffer, so the ReLU and the
    next conv that follow stay batch-innermost.

    Backward routes the incoming gradient to the first row-major maximum of
    each window, so total gradient mass is conserved exactly.  A window
    holding a NaN yields NaN and routes no gradient.
    """
    _require_4d("maxpool2d", x)
    ph, pw = window
    sh, sw = stride
    h, w = x.shape[2:]
    if ph > h or pw > w:
        raise DimensionError(f"maxpool2d window {ph}x{pw} exceeds input {h}x{w}")
    ho, wo = (h - ph) // sh + 1, (w - pw) // sw + 1
    xt = _batch_innermost(x.data)  # [c, h, w, n]

    def offset(k):
        """Slices picking, for every window, its element at row-major offset k."""
        a, b = divmod(k, pw)
        return (slice(None), slice(a, a + ho * sh, sh), slice(b, b + wo * sw, sw))

    out_t = xt[offset(0)].copy(order="K")
    for k in range(1, ph * pw):
        np.maximum(out_t, xt[offset(k)], out=out_t)
    out = Tensor(_from_batch_innermost(out_t))

    def bw(g):
        if not x.requires_grad:
            return
        gt = _batch_innermost(g)
        # hits[k]: windows whose first row-major maximum sits at offset k
        taken = np.zeros(out_t.shape, dtype=bool)
        hits = []
        for k in range(ph * pw):
            hit = (xt[offset(k)] == out_t) > taken
            taken |= hit
            hits.append(hit)
        gxt = np.zeros_like(xt)
        # descending offsets add each input position's contributions in
        # row-major window order
        for k in reversed(range(ph * pw)):
            gxt[offset(k)] += gt * hits[k]
        _accumulate(x, _from_batch_innermost(gxt))

    return _record(out, (x,), bw)
