"""Dense float64 tensor engine with reverse-mode differentiation.

A :class:`Tensor` wraps a numpy float64 array: row-major, except that
``conv2d``, which takes [N,C,H,W] inputs only, returns an [N,C,H,W] view of a
batch-innermost [C,H,W,N] buffer, and ``maxpool2d`` (a unit-kernel
``conv2d``) a reshaped view of that conv's buffer.
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
accumulating across ``backward`` calls until ``t.grad = None`` (or an
optimizer step) releases it.  Calling ``backward`` twice on the same tape
therefore doubles the parameter gradients and nothing else, and after it
returns every tape output's ``.grad`` is ``None``.

A tensor's gradient state (``.grad`` and ``.requires_grad``) lives in a
small slot that an untaped tensor does not have.  A tape node holds its
output's slot, not the output tensor, and a backward closure holds its
inputs' slots and only the arrays it reads, so an array that no backward
reads is freed as soon as the forward drops it.

Forward results are deterministic: identical inputs produce bit-identical
outputs (single-threaded numpy, no stochastic ops).
"""

from __future__ import annotations

import math

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


class _Grad:
    """A tensor's gradient state: the slot that tape nodes and backward closures hold.

    A tensor requires grad exactly when it has one; `grad` is its buffer, or None.
    """

    __slots__ = ("grad",)

    def __init__(self):
        self.grad = None


class _Node:
    __slots__ = ("output", "backward_fn")

    def __init__(self, output, backward_fn):
        self.output = output  # the output's _Grad slot, not the tensor
        self.backward_fn = backward_fn


class Tensor:
    """Dense n-dimensional float64 array, optionally tracked on a tape."""

    __slots__ = ("data", "_slot")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self._slot = _Grad() if requires_grad else None

    @property
    def requires_grad(self):
        return self._slot is not None

    @requires_grad.setter
    def requires_grad(self, value):
        if not value:
            self._slot = None
        elif self._slot is None:
            self._slot = _Grad()

    @property
    def grad(self):
        return None if self._slot is None else self._slot.grad

    @grad.setter
    def grad(self, value):
        if self._slot is not None:
            self._slot.grad = value
        elif value is not None:
            raise ValueError("a tensor that does not require grad holds no gradient")

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __add__(self, other):
        return add(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


_ZERO = np.zeros(1)
_ZERO.flags.writeable = False


def parameter(rng, shape, fan_in=None, fill=0.0):
    """Trainable tensor of the tuple `shape`, uniform in [-sqrt(1/fan_in), +sqrt(1/fan_in)];
    all `fill` without `fan_in`.

    With `rng` None nothing is drawn or allocated: the array is a read-only,
    zero-stride view of one shared 0.0, for a caller that assigns every
    tensor its own array, as a checkpoint load does.  The `np.ndarray`
    constructor makes that view in a third of `np.broadcast_to`'s time.
    """
    if rng is None:
        placeholder = np.ndarray(shape, buffer=_ZERO, strides=(0,) * len(shape))
        return Tensor(placeholder, requires_grad=True)
    if fan_in is None:
        return Tensor(np.full(shape, fill), requires_grad=True)
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
    _tape.nodes.append(_Node(out._slot, backward_fn))
    return out


def _accumulate(slot, g, index=None, shape=None, copy=False):
    """Add `g` into `slot.grad`, or into `slot.grad[index]` of a `shape` buffer: an id
    array's repeats add up, slices take `+=`.

    The buffer is allocated here, on the first accumulation into it: zeros
    before an indexed add, otherwise `g` itself becomes the buffer.  That
    needs `g` to be an array no other tensor holds: a fresh result, or a
    view of the gradient being replayed, which `backward` has already
    released.  Pass `copy=True` when the same `g` also goes to another
    input; a read-only `g` (a broadcast view) is always copied.
    """
    if index is not None:
        if slot.grad is None:
            slot.grad = np.zeros(shape)
        if isinstance(index, np.ndarray):
            np.add.at(slot.grad, index, g)
        else:
            slot.grad[index] += g
    elif slot.grad is not None:
        slot.grad += g
    elif copy or not g.flags.writeable:
        slot.grad = np.array(g, dtype=np.float64)
    else:
        slot.grad = g


def backward(loss, tape):
    """Populate dLoss/dLeaf for every grad-requiring leaf under `tape`.

    `loss` must hold exactly one element.  Nodes are replayed in reverse;
    each output's buffer is released right after its node is replayed, and
    a node whose output received no gradient is skipped.  Leaf gradients
    accumulate across calls (callers release them via the optimizer or
    `t.grad = None`).
    """
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    for node in tape.nodes:  # drop what an interrupted replay left behind
        node.output.grad = None
    if loss._slot is not None:
        _accumulate(loss._slot, np.ones_like(loss.data))
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
    out = Tensor(a.data + b.data)
    ga, gb, a_shape, b_shape = a._slot, b._slot, a.shape, b.shape

    def bw(g):
        if ga is not None:
            _accumulate(ga, _unbroadcast(g, a_shape))
        if gb is not None:
            _accumulate(gb, _unbroadcast(g, b_shape), copy=ga is not None)

    return _record(out, (a, b), bw)


def matmul(a, b):
    """Matrix product over the last two axes; leading axes broadcast as in numpy."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    x, y, ga, gb = a.data, b.data, a._slot, b._slot
    out = Tensor(x @ y)

    def bw(g):
        if ga is not None:
            _accumulate(ga, _unbroadcast(g @ np.swapaxes(y, -1, -2), x.shape))
        if gb is not None and y.ndim == 2:
            # a's leading axes fold into rows: one product, no batch sum
            _accumulate(gb, x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        elif gb is not None:
            _accumulate(gb, _unbroadcast(np.swapaxes(x, -1, -2) @ g, y.shape))

    return _record(out, (a, b), bw)


# ---------------------------------------------------------------------------
# shape manipulation


def transpose(a, axes=None):
    """Permute axes; the default swaps the last two (a batched matrix transpose)."""
    if axes is None:
        axes = (*range(a.ndim - 2), a.ndim - 1, a.ndim - 2)
    out = Tensor(np.transpose(a.data, axes))
    ga, inv = a._slot, np.argsort(axes)

    def bw(g):
        _accumulate(ga, np.transpose(g, inv))

    return _record(out, (a,), bw)


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape))
    ga, a_shape = a._slot, a.shape

    def bw(g):
        _accumulate(ga, g.reshape(a_shape))

    return _record(out, (a,), bw)


def concat(tensors, axis=0):
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    slots = [t._slot for t in tensors]
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def bw(g):
        for slot, lo, hi in zip(slots, offsets[:-1], offsets[1:]):
            if slot is not None:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _accumulate(slot, g[tuple(sl)])

    return _record(out, tuple(tensors), bw)


def slice_rows(a, lo, hi, axis=0):
    """Rows lo:hi of `a` along `axis`, as a view; backward adds into that row range."""
    index = (slice(None),) * axis + (slice(lo, hi),)
    out = Tensor(a.data[index])
    ga, a_shape = a._slot, a.shape

    def bw(g):
        _accumulate(ga, g, index, a_shape)

    return _record(out, (a,), bw)


def embedding(table, ids):
    """Gather rows of `table` by integer ids; backward scatter-adds rows."""
    ids = np.asarray(ids, dtype=np.int64)
    out = Tensor(table.data[ids])
    g_table, table_shape = table._slot, table.shape

    def bw(g):
        _accumulate(g_table, g, ids, table_shape)

    return _record(out, (table,), bw)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def tanh(a):
    y = np.tanh(a.data)
    ga = a._slot

    def bw(g):
        _accumulate(ga, g * (1.0 - y * y))

    return _record(Tensor(y), (a,), bw)


def relu(a):
    """max(a, 0); backward masks by the output, as out > 0 exactly where a > 0 (NaN neither)."""
    y = np.maximum(a.data, 0.0)
    ga = a._slot

    def bw(g):
        # derivative at exactly 0 defined as 0
        _accumulate(ga, g * (y > 0.0))

    return _record(Tensor(y), (a,), bw)


def stable_sigmoid(x):
    """Elementwise logistic function of a float array, overflow-free for any x."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_cross_entropy(z, y):
    """Binary cross entropy of logits `z` against a constant 0/1 array `y`: the
    sum over every element times 1/rows, the mean of the rows' sums (at least one row).

    Per element softplus(z) - z*y, softplus(z) = max(z,0) + log1p(exp(-|z|)):
    finite for any logit, unlike -[y log sigmoid(z) + (1-y) log(1 - sigmoid(z))].
    """
    x, y = z.data, np.asarray(y, dtype=np.float64)
    if y.shape != x.shape:
        raise DimensionError(f"sigmoid_cross_entropy: logits {x.shape} vs targets {y.shape}")
    scale = 1.0 / max(1, math.prod(x.shape[:-1]))
    out = Tensor((np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))) - x * y).sum() * scale)
    gz = z._slot

    def bw(g):
        s = g * scale
        _accumulate(gz, s * stable_sigmoid(x) - s * y)

    return _record(out, (z,), bw)


def length_mask(lengths, length):
    """Boolean [..., length] mask: True at the first `lengths` positions of each row."""
    return np.arange(length) < np.asarray(lengths)[..., None]


def softmax(a, lengths):
    """Max-stabilized softmax over the first `lengths` entries of each last-axis row.

    `lengths` broadcasts against a.shape[:-1].  The entries past a row's
    length are excluded from the normalization and come out exactly 0; a
    row of length 0 is all zeros rather than NaN.
    """
    y = _masked_softmax(a.data, length_mask(lengths, a.shape[-1]))
    ga = a._slot

    def bw(g):
        _accumulate(ga, _softmax_grad(y, g))

    return _record(Tensor(y), (a,), bw)


def _masked_softmax(z, mask):
    """`softmax`'s forward on arrays, in one full-size buffer; `z` is left as it is."""
    e = np.where(np.broadcast_to(mask, z.shape), z, -np.inf)
    mx = e.max(axis=-1, keepdims=True)
    mx[~np.isfinite(mx)] = 0.0
    # exp of the raw scores, not of -inf fills, on which numpy's exp runs
    # about 3x slower; a masked score may exceed mx and overflow to inf,
    # which the mask then zeroes like any other value there
    np.subtract(z, mx, out=e)
    with np.errstate(over="ignore"):
        np.exp(e, out=e)
    np.copyto(e, 0.0, where=~mask)
    s = e.sum(axis=-1, keepdims=True)
    s[s == 0.0] = 1.0
    e /= s
    return e


def _softmax_grad(y, g):
    """dLoss/dInput of a last-axis softmax with output `y`, given dLoss/dOutput `g`."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# normalization


def layer_norm(x, gamma, beta, eps):
    """Layer norm over the last axis: n*gamma + beta, n = (x - mean) / s, s = sqrt(var + eps).

    Saved models' logits depend bit for bit on this order of numpy operations.
    Backward is closed-form: with h = g*gamma, dx = (h - mean(h) - n*mean(h*n)) / s.
    """
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    s = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    normed = centered / s
    gd = gamma.data
    out = Tensor(normed * gd + beta.data)
    gx, g_gamma, g_beta, beta_shape = x._slot, gamma._slot, beta._slot, beta.shape

    def bw(g):
        if g_gamma is not None:
            _accumulate(g_gamma, _unbroadcast(g * normed, gd.shape))
        if gx is not None:
            h = g * gd
            h_mean = h.mean(axis=-1, keepdims=True)
            hn_mean = (h * normed).mean(axis=-1, keepdims=True)
            _accumulate(gx, (h - h_mean - normed * hn_mean) / s)
        if g_beta is not None:
            _accumulate(g_beta, _unbroadcast(g, beta_shape))

    return _record(out, (x, gamma, beta), bw)


# ---------------------------------------------------------------------------
# encoder blocks


def _key_width(longest, length):
    """Keys `attention` scores of `length` when its longest row holds `longest`: that many
    rounded up to a multiple of 8, or all `length` for a `longest` of 0 or a cut not bit-exact.

    numpy sums a contiguous row pairwise: a row of over 128 values splits in
    two at a multiple of 8, and a row of at most 128 runs 8 accumulators.
    A width of whole blocks of 8 inside the first such leaf of the L-wide
    row drops only blocks of exact zeros there, and zero-only leaves.
    """
    width = -(-longest // 8) * 8 or length
    leaf = length
    while leaf > 128:
        leaf = leaf // 2 - leaf // 2 % 8
    return width if width <= leaf else length


def attention(x, w_q, w_k, w_v, w_o, lengths, heads):
    """Masked multi-head self-attention over x [B, L, d]: merged @ w_o, no residual.

    Each of the `heads` heads takes a softmax of q kᵀ/√dh over the first
    `lengths[i]` keys of row i, the keys past it getting exactly zero weight.
    Logits depend bit for bit on the forward's order of numpy operations,
    and gradients on backward repeating the composed ops' backward order.
    Holds its input, q, the scored keys and values, attn and the merged
    heads: not the scores, nor its output.

    Only the first `_key_width` keys, the longest length rounded up to 8,
    are scored, mixed and held: attn is [B, H, L, width], and backward gives
    the keys past it exactly zero gradient.  The projections stay full
    length, so each weight gradient still sums over all B·L rows.  The keys
    dropped carry exactly zero weight, and the width, a multiple of 8,
    leaves numpy's pairwise softmax sums as they are over all L keys, so
    output and gradients keep the bits of the uncut op.  A cut at the
    longest length itself (4 of 32 for a 4-token text) moves them by up to
    ~2e-15.
    """
    xd = x.data
    batch, length, d = xd.shape
    dh = d // heads
    width = _key_width(int(np.max(lengths)), length)
    wq, wk, wv, wo = (w.data for w in (w_q, w_k, w_v, w_o))
    gx, g_wq, g_wk, g_wv, g_wo = (t._slot for t in (x, w_q, w_k, w_v, w_o))

    def split(proj):  # [B, n, d] -> [B, H, n, dh] view
        return proj.reshape(batch, -1, heads, dh).transpose(0, 2, 1, 3)

    q = split(xd @ wq)
    # a copy when the cut drops keys, so the full projections are not held
    k, v = (split(np.ascontiguousarray((xd @ w)[:, :width])) for w in (wk, wv))
    scale = 1.0 / math.sqrt(dh)
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= scale
    attn = _masked_softmax(scores, length_mask(lengths, width)[:, None, None])
    merged = np.empty((batch, length, d))
    np.matmul(attn, v, out=split(merged))  # the heads written straight into [B, L, d]
    out = Tensor(merged @ wo)

    def bw(g):
        if g_wo is not None:
            _accumulate(g_wo, merged.reshape(-1, d).T @ g.reshape(-1, d))
        g_heads = split(g @ wo.T)  # dLoss/d(attn @ v)
        d_scores = _softmax_grad(attn, g_heads @ np.swapaxes(v, -1, -2))
        d_scores *= scale
        g_v = np.swapaxes(attn, -1, -2) @ g_heads  # [B, H, width, dh]
        # (qᵀ dS)ᵀ, not dSᵀ q: the composed matmul's order, to the last bit
        g_k = np.swapaxes(q, -1, -2) @ d_scores  # [B, H, dh, width]
        if width < length:  # the keys past the cut, in the layouts of the uncut path
            g_v = np.pad(g_v, ((0, 0), (0, 0), (0, length - width), (0, 0)))
            g_k = np.pad(g_k, ((0, 0), (0, 0), (0, 0), (0, length - width)))
        g_v, g_k = g_v.transpose(0, 2, 1, 3), g_k.transpose(0, 3, 1, 2)
        g_q = (d_scores @ k).transpose(0, 2, 1, 3)
        # v, k, q: the composed order
        for w, g_w, g_proj in ((wv, g_wv, g_v), (wk, g_wk, g_k), (wq, g_wq, g_q)):
            g_proj = g_proj.reshape(batch, length, d)
            if gx is not None:
                _accumulate(gx, g_proj @ w.T)
            if g_w is not None:
                _accumulate(g_w, xd.reshape(-1, d).T @ g_proj.reshape(-1, d))

    return _record(out, (x, w_q, w_k, w_v, w_o), bw)


def feed_forward(x, w1, b1, w2, b2):
    """Position-wise ReLU feed-forward over the last axis: relu(x @ w1 + b1) @ w2 + b2.

    The hidden layer is computed in place and is all the op holds: the ReLU
    derivative, 1 where the pre-activation is > 0, is 1 exactly where the
    hidden value is > 0.
    """
    xd, w1d, w2d = x.data, w1.data, w2.data
    gx, g_w1, g_b1, g_w2, g_b2 = (t._slot for t in (x, w1, b1, w2, b2))
    b1_shape, b2_shape = b1.shape, b2.shape
    h = xd @ w1d
    h += b1.data
    np.maximum(h, 0.0, out=h)
    out = Tensor(h @ w2d + b2.data)

    def bw(g):
        if g_b2 is not None:
            _accumulate(g_b2, _unbroadcast(g, b2_shape), copy=True)
        if g_w2 is not None:
            _accumulate(g_w2, h.reshape(-1, h.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        g_pre = g @ w2d.T
        g_pre *= h > 0.0
        if g_b1 is not None:
            _accumulate(g_b1, _unbroadcast(g_pre, b1_shape), copy=True)
        if gx is not None:
            _accumulate(gx, g_pre @ w1d.T)
        if g_w1 is not None:
            _accumulate(g_w1, xd.reshape(-1, xd.shape[-1]).T @ g_pre.reshape(-1, h.shape[-1]))

    return _record(out, (x, w1, b1, w2, b2), bw)


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

    The result equals a loop max-pool of a loop correlation, but the map
    never exists: for each pool offset, in row-major order, one matmul
    computes only the positions that offset reads and a running maximum
    folds them in.  The bias is added once, to that maximum: rounding x + b
    is monotone in x, so this is the maximum of the biased values, bit for
    bit.  A taped call keeps each window's first maximum offset among the
    unbiased sums (ph*pw for a window NaN after the bias, which routes no
    gradient); backward masks the gradient by it, offsets descending, so
    overlapping windows add into an input in row-major window order.  The
    node holds the input in its batch-innermost layout and those offsets,
    not the output.

    The shapes are logical: the work runs on a batch-innermost [C,H,W,N]
    memory layout, so every slice copy and strided add covers contiguous
    runs of N.  The input is brought to that layout once (free when it
    already has it) and the output is the [N,C_out,po,qo] view of a
    [C_out,po,qo,N] buffer.  Each offset's window columns [C_in*kh*kw,
    po*qo*N] are copied out of a strided view into one buffer per call,
    and rebuilt in backward's own buffer rather than kept; their size grows
    with N, so callers pass tiles of maps.  Every other working array is
    likewise allocated once per call and refilled for each offset.
    """
    _require_4d("conv2d", x)
    xd, kd = x.data, kernels.data
    if kd.ndim != 4:
        raise DimensionError(f"conv2d kernels must be 4D [out,in,kh,kw], got {kernels.shape}")
    n, cin, h, w = xd.shape
    cout, kcin, kh, kw = kd.shape
    if kcin != cin:
        raise DimensionError(f"conv2d channel mismatch: input has {cin}, kernels expect {kcin}")
    # Python ints: a numpy integer does not cast into `first`'s small dtype
    sh, sw, ph, pw, th, tw = (int(v) for v in (*stride, *pool[0], *pool[1]))
    po, qo = window_grid(window_grid((h, w), (kh, kw), (sh, sw)), (ph, pw), (th, tw))
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

    def fill_columns(cols, p, q):
        """`cols` [cin*kh*kw, po*qo*n], filled with the window columns offset (p, q) reads."""
        np.copyto(cols.reshape(cin, kh, kw, po, qo, n), x_windows[:, :, :, p, q])
        return cols

    taped = _taping((x, kernels, bias))
    cols = np.empty((cin * kh * kw, po * qo * n))
    out_t = np.empty((cout, po * qo * n))
    conv_t = np.empty_like(out_t)
    if taped:
        first = np.zeros(out_t.shape, dtype=np.min_scalar_type(ph * pw))
        gain = np.empty(out_t.shape, dtype=bool)
    for k, (p, q) in enumerate(offsets):
        np.matmul(k_rows, fill_columns(cols, p, q), out=out_t if k == 0 else conv_t)
        if k == 0:
            continue
        if taped:  # strictly greater: a tie keeps the earlier offset
            np.copyto(first, k, where=np.greater(conv_t, out_t, out=gain))
        np.maximum(out_t, conv_t, out=out_t)
    out_t += bias.data[:, None]
    if taped:
        np.copyto(first, ph * pw, where=np.isnan(out_t, out=gain))
    out = Tensor(_from_batch_innermost(out_t.reshape(cout, po, qo, n)))
    gx, g_kernels, g_bias = x._slot, kernels._slot, bias._slot

    def bw(g):
        gt = _batch_innermost(g).reshape(cout, -1)  # [cout, po*qo*n]
        hit = np.empty(gt.shape, dtype=bool)
        g_rows = np.empty_like(gt)
        cols, g_cols = np.empty((2, cin * kh * kw, po * qo * n))  # the forward's cols are not kept
        if gx is not None:
            gxt = np.zeros_like(xt)
            g_windows = windows(gxt, writeable=True)
        for k, (p, q) in reversed(list(enumerate(offsets))):
            np.multiply(gt, np.equal(first, k, out=hit), out=g_rows)
            if g_bias is not None:
                _accumulate(g_bias, g_rows.sum(axis=1))
            if g_kernels is not None:
                _accumulate(g_kernels, (g_rows @ fill_columns(cols, p, q).T).reshape(kd.shape))
            if gx is not None:
                # g_cols[c,a,b,i,j,m] = sum_o k[o,c,a,b] * g[o,i,j,m]
                taps = np.matmul(k_rows.T, g_rows, out=g_cols).reshape(cin, kh, kw, po, qo, n)
                for a in range(kh):
                    for b in range(kw):
                        g_windows[:, a, b, p, q] += taps[:, a, b]
        if gx is not None:
            _accumulate(gx, _from_batch_innermost(gxt))

    return _record(out, (x, kernels, bias), bw)


def maxpool2d(x, window, stride):
    """Per-window max over the last two axes; partial trailing windows dropped.

    The pooled `conv2d` of each map alone, with a 1x1 unit kernel and a zero
    bias: x*1.0 + 0.0 is exact except that -0.0 comes out as +0.0, a NaN
    stays in its own map, and backward is `conv2d`'s.  The result is a view
    of that conv's buffer.
    """
    _require_4d("maxpool2d", x)
    n, c, h, w = x.shape
    unit, zero = Tensor(np.ones((1, 1, 1, 1))), Tensor(np.zeros(1))
    maps = conv2d(reshape(x, (n * c, 1, h, w)), unit, zero, pool=(window, stride))
    return reshape(maps, (n, c, *maps.shape[2:]))
