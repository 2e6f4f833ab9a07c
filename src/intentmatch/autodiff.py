"""Dense float64 tensor engine with reverse-mode differentiation.

A :class:`Tensor` wraps a numpy float64 array: row-major, except that
``conv2d`` and ``maxpool2d``, which take [N,C,H,W] inputs only, return
[N,C,H,W] views of batch-innermost [C,H,W,N] buffers (see ``conv2d``).
While a :class:`Tape` is active (``with Tape() as tape:``), every operation
whose inputs participate in the gradient graph appends one node;
``backward`` replays the tape in reverse and accumulates ``dLoss/dX`` into
``.grad`` buffers.  A :class:`Params` collects a model's trainable tensors
under their names, in the order they are created.

Gradient rule: every tensor's ``.grad`` is ``None`` until the first
gradient reaches it, when the buffer is allocated, and goes back to
``None`` when it is released.  ``backward`` releases each tape output's
buffer as soon as its node has been replayed (a node whose output received
no gradient is skipped); any other tensor, a parameter say, keeps
accumulating across ``backward`` calls until ``zero_grad`` (or an optimizer
step) releases it.  Calling ``backward`` twice on the same tape therefore
doubles the parameter gradients and nothing else, and after it returns
every tape output's ``.grad`` is ``None``.

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

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars and arrays are promoted to constant tensors
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(rng, shape, fan_in):
    """Trainable tensor, uniform in [-sqrt(1/fan_in), +sqrt(1/fan_in)]."""
    bound = float(np.sqrt(1.0 / fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class Params:
    """Named trainable tensors, each registered where it is created, in declaration order."""

    def __init__(self):
        self._named = []

    def add(self, name, value):
        """Register a tensor, or a group's tensors as name.<its name>; return `value`."""
        if isinstance(value, Params):
            self._named.extend((f"{name}.{n}", t) for n, t in value.parameters())
        else:
            self._named.append((name, value))
        return value

    def parameters(self):
        """Every registered tensor as (name, tensor), in declaration order."""
        return list(self._named)


def _taping(inputs):
    """Whether an op on `inputs` is recorded: a tape is active and some input carries gradient."""
    return _tape is not None and any(t.requires_grad for t in inputs)


def _record(out, inputs, backward_fn):
    """Attach `out` to the active tape when any input carries gradient.

    A node is recorded only then, so the backward of a single-input op runs
    only for an input that requires grad and does not test for it.
    """
    if not _taping(inputs):
        return out
    out.requires_grad = True
    _tape.nodes.append(_Node(out, backward_fn))
    return out


def _accumulate(t, g, index=None, copy=False):
    """Add `g` into `t.grad`, or into `t.grad[index]`: an id array's repeats add up, slices take `+=`.

    The buffer is allocated here, on the first accumulation into it: zeros
    before an indexed add, otherwise `g` itself becomes the buffer.  That
    needs `g` to be an array no other tensor holds: a fresh result, or a
    view of the gradient being replayed, which `backward` has already
    released.  Pass `copy=True` when the same `g` also goes to another
    input; a read-only `g` (a broadcast view) is always copied.
    """
    if index is not None:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        if isinstance(index, np.ndarray):
            np.add.at(t.grad, index, g)
        else:
            t.grad[index] += g
    elif t.grad is not None:
        t.grad += g
    elif copy or not g.flags.writeable:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad = g


def backward(loss, tape):
    """Populate dLoss/dLeaf for every grad-requiring leaf under `tape`.

    `loss` must hold exactly one element.  Nodes are replayed in reverse;
    each output's buffer is released right after its node is replayed, and
    a node whose output received no gradient is skipped.  Leaf gradients
    accumulate across calls (callers release them via the optimizer or
    `zero_grad`).
    """
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    for node in tape.nodes:  # drop what an interrupted replay left behind
        node.output.grad = None
    if loss.requires_grad:
        _accumulate(loss, np.ones_like(loss.data))
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


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

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
        _accumulate(a, np.transpose(g, inv))

    return _record(out, (a,), bw)


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape))

    def bw(g):
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


def slice_rows(a, lo, hi, axis=0):
    """Rows lo:hi of `a` along `axis`, as a view; backward adds into that row range."""
    index = (slice(None),) * axis + (slice(lo, hi),)
    out = Tensor(a.data[index])

    def bw(g):
        _accumulate(a, g, index)

    return _record(out, (a,), bw)


def embedding(table, ids):
    """Gather rows of `table` by integer ids; backward scatter-adds rows."""
    ids = np.asarray(ids, dtype=np.int64)
    out = Tensor(table.data[ids])

    def bw(g):
        _accumulate(table, g, ids)

    return _record(out, (table,), bw)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def tanh(a):
    out = Tensor(np.tanh(a.data))

    def bw(g):
        _accumulate(a, g * (1.0 - out.data * out.data))

    return _record(out, (a,), bw)


def relu(a):
    out = Tensor(np.maximum(a.data, 0.0))

    def bw(g):
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


def sigmoid_cross_entropy(z, y):
    """Per-element binary cross entropy of logits `z` against a constant 0/1 array `y`.

    softplus(z) - z*y, softplus(z) = max(z,0) + log1p(exp(-|z|)): finite for
    any logit, unlike -[y log sigmoid(z) + (1-y) log(1 - sigmoid(z))].
    """
    x, y = z.data, np.asarray(y, dtype=np.float64)
    if y.shape != x.shape:
        raise DimensionError(f"sigmoid_cross_entropy: logits {x.shape} vs targets {y.shape}")
    out = Tensor(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))) - x * y)

    def bw(g):
        _accumulate(z, g * stable_sigmoid(x) - g * y)

    return _record(out, (z,), bw)


def softmax(a, axis, mask=None):
    """Max-stabilized softmax along `axis`.

    `mask` is a boolean array broadcastable to the input (None: all True);
    False positions are excluded from the normalization and produce
    exactly 0.  A fully masked slice yields all zeros rather than NaN.
    """
    if axis >= a.ndim:
        raise DimensionError(f"softmax axis {axis} out of range for shape {a.shape}")
    z = a.data
    mask = np.broadcast_to(np.asarray(True if mask is None else mask, dtype=bool), z.shape)
    mx = np.max(np.where(mask, z, -np.inf), axis=axis, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    # exp of the raw scores, not of -inf fills, on which numpy's exp runs
    # about 3x slower; a masked score may exceed mx and overflow to inf,
    # which the mask then zeroes like any other value there
    with np.errstate(over="ignore"):
        e = np.where(mask, np.exp(z - mx), 0.0)
    s = e.sum(axis=axis, keepdims=True)
    out = Tensor(e / np.where(s == 0.0, 1.0, s))

    def bw(g):
        y = out.data
        _accumulate(a, y * (g - (g * y).sum(axis=axis, keepdims=True)))

    return _record(out, (a,), bw)


# ---------------------------------------------------------------------------
# reductions and normalization


def reduce_sum(a, axis=None, keepdims=False):
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bw(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(gg, a.data.shape))

    return _record(out, (a,), bw)


def layer_norm(x, gamma, beta, eps):
    """Layer norm over the last axis: n*gamma + beta, n = (x - mean) / s, s = sqrt(var + eps).

    Saved models' logits depend bit for bit on this order of numpy operations.
    Backward is closed-form: with h = g*gamma, dx = (h - mean(h) - n*mean(h*n)) / s.
    """
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    s = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    normed = centered / s
    out = Tensor(normed * gamma.data + beta.data)

    def bw(g):
        if gamma.requires_grad:
            _accumulate(gamma, _unbroadcast(g * normed, gamma.data.shape))
        if x.requires_grad:
            h = g * gamma.data
            h_mean = h.mean(axis=-1, keepdims=True)
            hn_mean = (h * normed).mean(axis=-1, keepdims=True)
            _accumulate(x, (h - h_mean - normed * hn_mean) / s)
        if beta.requires_grad:
            _accumulate(beta, _unbroadcast(g, beta.data.shape))

    return _record(out, (x, gamma, beta), bw)


# ---------------------------------------------------------------------------
# 2D convolution and pooling


def _require_4d(op, x):
    if x.ndim != 4:
        raise DimensionError(f"{op} expects a 4D [N,C,H,W] input, got {x.shape}")


def window_grid(size, window, stride):
    """(rows, cols) of the windows over a (h, w) input.

    A partial trailing window is dropped; a window larger than the input is an error.
    """
    (h, w), (kh, kw), (sh, sw) = size, window, stride
    if kh > h or kw > w:
        raise DimensionError(
            f"window {kh}x{kw} exceeds input {h}x{w}; pad the input or shrink the window"
        )
    return (h - kh) // sh + 1, (w - kw) // sw + 1


def window_extent(grid, window, stride):
    """(h, w) of the input a (rows, cols) grid of windows reads: the inverse of `window_grid`."""
    (rows, cols), (kh, kw), (sh, sw) = grid, window, stride
    return (rows - 1) * sh + kh, (cols - 1) * sw + kw


def _tap(a, b, grid, stride):
    """[C, rows, cols] slices picking each window's element at offset (a, b)."""
    (ho, wo), (sh, sw) = grid, stride
    return (slice(None), slice(a, a + ho * sh, sh), slice(b, b + wo * sw, sw))


def _batch_innermost(a):
    """[C,H,W,N] contiguous copy of an [N,C,H,W] array; free when it already is."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0))


def _from_batch_innermost(buf):
    """The logical [N,C,H,W] view of a [C,H,W,N] buffer."""
    return buf.transpose(3, 0, 1, 2)


def conv2d(x, kernels, bias, stride=(1, 1), pool=((1, 1), (1, 1))):
    """Valid cross-correlation (no kernel flip, no zero padding), max-pooled by `pool`.

    x: [N,C_in,H,W]; kernels: [C_out,C_in,kh,kw]; bias: [C_out];
    pool: (window, stride) of a max-pool over the correlation map, partial
    trailing windows dropped; the default 1x1 window leaves the map as it is.
    conv[n,o,i,j] = bias[o] + sum_{c,a,b} kernels[o,c,a,b] * x[n,c,i*sh+a,j*sw+b]

    The result is `maxpool2d(conv2d(x, kernels, bias, stride), *pool)`, but
    the correlation map never exists: for each pool offset, in row-major
    order, one matmul computes only the positions that offset reads and a
    running maximum folds them in.  A taped call keeps each window's first
    maximum offset (ph*pw for a NaN window, which routes no gradient);
    backward masks the gradient by it, offset by offset.

    The shapes are logical: the work runs on a batch-innermost [C,H,W,N]
    memory layout, so every slice copy and strided add covers contiguous
    runs of N.  The input is brought to that layout once (free when it
    already has it) and the output is the [N,C_out,po,qo] view of a
    [C_out,po,qo,N] buffer.  Each offset's window columns [C_in*kh*kw,
    po*qo*N] are one copy out of a strided view, rebuilt in backward rather
    than kept; their size grows with N, so callers pass tiles of maps.
    """
    _require_4d("conv2d", x)
    xd, kd = x.data, kernels.data
    if kd.ndim != 4:
        raise DimensionError(f"conv2d kernels must be 4D [out,in,kh,kw], got {kernels.shape}")
    n, cin, h, w = xd.shape
    cout, kcin, kh, kw = kd.shape
    if kcin != cin:
        raise DimensionError(f"conv2d channel mismatch: input has {cin}, kernels expect {kcin}")
    (sh, sw), ((ph, pw), (th, tw)) = stride, pool
    po, qo = window_grid(window_grid((h, w), (kh, kw), stride), (ph, pw), (th, tw))
    xt = _batch_innermost(xd)  # [cin, h, w, n]
    k_rows = kd.reshape(cout, cin * kh * kw)
    offsets = [divmod(k, pw) for k in range(ph * pw)]

    def windows(buf, writeable=False):
        """[cin,kh,kw,ph,pw,po,qo,n] view of a [cin,h,w,n] buffer: kernel tap (a, b) of
        the conv position that pool offset (p, q) of pooled output (i, j) reads.

        window_grid keeps every index inside `buf`.  Different taps may share
        an element, so write one tap at a time.
        """
        c, y, z, m = buf.strides
        strides = (c, y, z, sh * y, sw * z, th * sh * y, tw * sw * z, m)
        shape = (cin, kh, kw, ph, pw, po, qo, n)
        return np.lib.stride_tricks.as_strided(buf, shape, strides, writeable=writeable)

    x_windows = windows(xt)

    def columns(p, q):
        """[cin*kh*kw, po*qo*n] window columns of the positions offset (p, q) reads."""
        return x_windows[:, :, :, p, q].reshape(cin * kh * kw, -1)

    taped = _taping((x, kernels, bias))
    if taped:
        first = np.zeros((cout, po, qo, n), dtype=np.min_scalar_type(ph * pw))
    for k, (p, q) in enumerate(offsets):
        conv_t = (k_rows @ columns(p, q)).reshape(cout, po, qo, n)
        conv_t += bias.data[:, None, None, None]
        if k == 0:
            out_t = conv_t
            continue
        if taped:  # strictly greater: a tie keeps the earlier offset
            np.copyto(first, k, where=conv_t > out_t)
        np.maximum(out_t, conv_t, out=out_t)
    if taped:
        np.copyto(first, ph * pw, where=np.isnan(out_t))
    out = Tensor(_from_batch_innermost(out_t))

    def bw(g):
        gt = _batch_innermost(g)  # [cout, po, qo, n]
        if x.requires_grad:
            gxt = np.zeros_like(xt)
            g_windows = windows(gxt, writeable=True)
        for k, (p, q) in enumerate(offsets):
            g_rows = (gt * (first == k)).reshape(cout, -1)  # [cout, po*qo*n]
            if bias.requires_grad:
                _accumulate(bias, g_rows.sum(axis=1))
            if kernels.requires_grad:
                _accumulate(kernels, (g_rows @ columns(p, q).T).reshape(kd.shape))
            if x.requires_grad:
                # g_cols[c,a,b,i,j,m] = sum_o k[o,c,a,b] * g[o,i,j,m]
                g_cols = (k_rows.T @ g_rows).reshape(cin, kh, kw, po, qo, n)
                for a in range(kh):
                    for b in range(kw):
                        g_windows[:, a, b, p, q] += g_cols[:, a, b]
        if x.requires_grad:
            _accumulate(x, _from_batch_innermost(gxt))

    return _record(out, (x, kernels, bias), bw)


def maxpool2d(x, window, stride):
    """Per-window max over the last two axes; partial trailing windows dropped.

    Like `conv2d`, it works on a batch-innermost [C,H,W,N] copy of its
    input (free when the input already has that layout) and returns the
    logical [N,C,ho,wo] view of a [C,ho,wo,N] buffer, so the ReLU and the
    next conv that follow stay batch-innermost.

    Backward routes the incoming gradient to the first row-major maximum of
    each window, so total gradient mass is conserved exactly.  A window
    holding a NaN yields NaN and routes no gradient.  The model pools inside
    `conv2d`; this op is the reference the tests compare that against.
    """
    _require_4d("maxpool2d", x)
    ph, pw = window
    grid = window_grid(x.shape[2:], window, stride)
    xt = _batch_innermost(x.data)  # [c, h, w, n]

    def offset(k):
        """Slices picking, for every window, its element at row-major offset k."""
        return _tap(*divmod(k, pw), grid, stride)

    disjoint = stride[0] >= ph and stride[1] >= pw
    out_t = xt[offset(0)].copy(order="K")
    for k in range(1, ph * pw):
        np.maximum(out_t, xt[offset(k)], out=out_t)
    out = Tensor(_from_batch_innermost(out_t))

    def bw(g):
        gt = _batch_innermost(g)
        # first: each window's row-major offset of its first maximum.  It
        # starts at ph*pw and drops by one at every offset from that maximum
        # on; a NaN window equals nothing, keeps ph*pw and routes nothing.
        seen = np.zeros(out_t.shape, dtype=bool)
        first = np.full(out_t.shape, ph * pw, dtype=np.min_scalar_type(ph * pw))
        for k in range(ph * pw):
            seen |= xt[offset(k)] == out_t
            first -= seen.view(np.uint8)
        gxt = np.zeros_like(xt)
        # descending offsets add each input position's contributions in
        # row-major window order; disjoint windows give each position at
        # most one, so the product is written in place
        for k in reversed(range(ph * pw)):
            hit = first == k
            if disjoint:
                np.multiply(gt, hit, out=gxt[offset(k)])
            else:
                gxt[offset(k)] += gt * hit
        _accumulate(x, _from_batch_innermost(gxt))

    return _record(out, (x,), bw)
