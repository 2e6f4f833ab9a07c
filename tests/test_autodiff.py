"""Tensor engine tests: op semantics, gradients vs finite differences,
and brute-force oracle equivalence for conv2d/maxpool2d."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intentmatch import autodiff as ad
from conftest import (
    central_difference_grad,
    conv2d_loop,
    conv2d_loop_backward,
    max_rel_err,
    maxpool2d_loop,
    maxpool2d_loop_backward,
    scaled,
    weighted_sum,
)


def scalar_loss(t):
    """sum of squares / 2 — a convenient scalar head for gradient checks."""
    return scaled(weighted_sum(t, t), 0.5)


def total(t):
    """Scalar sum of every element of `t`; the gradient `t` receives is exactly ones."""
    return weighted_sum(t, np.ones(t.shape))


def check_grad_fd(build_loss, params, floor=1e-3, tol=1e-6, h=1e-5):
    """Analytic grads of `build_loss()` vs central differences, per param."""
    with ad.Tape() as tape:
        loss = build_loss()
    ad.backward(loss, tape)
    for p in params:
        fd = central_difference_grad(lambda: float(build_loss().data), p.data, h=h)
        err = max_rel_err(p.grad, fd, floor=floor)
        assert err < tol, f"gradient mismatch: {err}"


class TestMatmul:
    def test_identity(self):
        a = ad.Tensor(np.eye(2))
        b = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, b.data)

    def test_hand_dot_product(self):
        a = ad.Tensor([[1.0, 2.0]])
        b = ad.Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        a = ad.Tensor(np.zeros((2, 3)))
        b = ad.Tensor(np.zeros((2, 3)))
        with pytest.raises(ad.DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(a, b)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        check_grad_fd(lambda: scalar_loss(ad.matmul(a, b)), [a, b])

    @pytest.mark.parametrize(
        "a_shape, b_shape, out_shape",
        [
            ((2, 3, 4), (4, 5), (2, 3, 5)),  # batch of rows times a weight
            ((2, 1, 3, 4), (3, 4, 2), (2, 3, 3, 2)),  # B queries against N categories
            ((3, 4), (2, 4, 5), (2, 3, 5)),  # 2-D left against a stacked right
        ],
    )
    def test_broadcast_forward_and_gradient(self, a_shape, b_shape, out_shape):
        rng = np.random.default_rng(1)
        a = ad.Tensor(rng.normal(size=a_shape), requires_grad=True)
        b = ad.Tensor(rng.normal(size=b_shape), requires_grad=True)
        out = ad.matmul(a, b)
        assert out.shape == out_shape
        np.testing.assert_array_equal(out.data, a.data @ b.data)
        check_grad_fd(lambda: scalar_loss(ad.matmul(a, b)), [a, b])

    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [((3,), (3, 2)), ((2, 3), (3,)), ((2, 2, 3), (4, 2))],
    )
    def test_rejects_1d_or_mismatched_operands(self, a_shape, b_shape):
        a = ad.Tensor(np.zeros(a_shape))
        b = ad.Tensor(np.zeros(b_shape))
        with pytest.raises(ad.DimensionError, match="incompatible"):
            ad.matmul(a, b)


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(ad.Tensor([0.0, 0.0, 0.0]), 3)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_single_element_axis(self):
        out = ad.softmax(ad.Tensor([5.0]), 1)
        np.testing.assert_allclose(out.data, [1.0], atol=0)

    def test_against_high_precision_formula(self):
        x = [1.0, 2.0, 3.0]
        with mpmath.workdps(50):
            es = [mpmath.exp(v - 3.0) for v in x]
            total = sum(es)
            expected = np.array([float(e / total) for e in es])
        out = ad.softmax(ad.Tensor(x), 3)
        np.testing.assert_allclose(out.data, expected, rtol=1e-14)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.normal(size=(5, 7)) * 40.0)
        out = ad.softmax(x, 7)
        assert np.all(out.data >= 0.0)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_large_inputs_do_not_overflow(self):
        out = ad.softmax(ad.Tensor([1e4, 1e4 - 1.0]), 2)
        assert np.all(np.isfinite(out.data))

    def test_mask_produces_exact_zeros(self):
        x = ad.Tensor([[1.0, 2.0, 3.0, 4.0]])
        out = ad.softmax(x, [2])
        assert out.data[0, 2] == 0.0 and out.data[0, 3] == 0.0
        np.testing.assert_allclose(out.data[0, :2].sum(), 1.0, atol=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(2)
        x = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = rng.normal(size=(3, 5))  # weights break the sum-to-one degeneracy

        def build():
            return weighted_sum(ad.softmax(x, 5), w)

        check_grad_fd(build, [x])

    def test_masked_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        w = rng.normal(size=(2, 6))

        def build():
            return weighted_sum(ad.softmax(x, [4, 2]), w)

        check_grad_fd(build, [x])


def softmax_exp_of_fills(z, lengths):
    """The softmax formula that fills the scores past each row's length with -inf before exp."""
    m = np.broadcast_to(np.arange(z.shape[-1]) < np.asarray(lengths)[..., None], z.shape)
    z = np.where(m, z, -np.inf)
    mx = np.max(z, axis=-1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    e = np.exp(z - mx)
    s = e.sum(axis=-1, keepdims=True)
    return e / np.where(s == 0.0, 1.0, s)


# (scores, lengths) pairs; the length-cut softmax must match the -inf-fill
# formula bit for bit on each, without a warning
_MASKED_SOFTMAX_CASES = {
    "key_padding": (
        np.random.default_rng(32).normal(size=(6, 4, 8, 8)) * 5.0,
        np.random.default_rng(31).integers(1, 9, size=6)[:, None, None],
    ),
    "fully_masked_row": (np.array([[3.0, 2.0, -1.0], [800.0, 0.5, -900.0]]), [2, 0]),
    "non_finite_masked": (np.array([[1.0, 2.0, np.nan, np.inf, -np.inf, 800.0]]), [2]),
    "masked_far_above_max": (np.array([[0.0, 1.0, 1e300], [-1e4, 5e3, 1e4]]), [2, 2]),
}


class TestMaskedSoftmaxBitIdentity:
    """The softmax exponentiates raw scores and zeroes those past each row's
    length afterwards; its output is bit-identical to exponentiating -inf fills."""

    @pytest.mark.parametrize(
        "z, lengths", _MASKED_SOFTMAX_CASES.values(), ids=list(_MASKED_SOFTMAX_CASES)
    )
    def test_matches_exp_of_fills(self, z, lengths):
        got = ad.softmax(ad.Tensor(z), lengths).data
        np.testing.assert_array_equal(got, softmax_exp_of_fills(z, lengths))

    @pytest.mark.parametrize(
        "z, lengths", _MASKED_SOFTMAX_CASES.values(), ids=list(_MASKED_SOFTMAX_CASES)
    )
    def test_broadcast_lengths_are_the_per_row_lengths(self, z, lengths):
        """Forward and backward, bit for bit, against one length spelled out per row."""
        w = np.random.default_rng(33).normal(size=z.shape)
        runs = []
        for rows in (lengths, np.broadcast_to(lengths, z.shape[:-1]).copy()):
            x = ad.Tensor(z, requires_grad=True)
            with np.errstate(invalid="ignore"), ad.Tape() as tape:
                loss = weighted_sum(ad.softmax(x, rows), w)
            with np.errstate(invalid="ignore"):
                ad.backward(loss, tape)
            runs.append((loss.data.tobytes(), x.grad.tobytes()))
        assert runs[0] == runs[1]

    def test_unmasked_non_finite_scores_match_too(self):
        z = np.array([[np.inf, 1.0, 2.0], [np.nan, 1.0, 2.0]])
        with np.errstate(invalid="ignore"):
            got = ad.softmax(ad.Tensor(z), 3).data
            np.testing.assert_array_equal(got, softmax_exp_of_fills(z, 3))
        assert np.isnan(got[0, 0]) and np.all(np.isnan(got[1]))


class TestElementwise:
    def test_relu_definition(self):
        out = ad.relu(ad.Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        assert ad.stable_sigmoid(np.array([0.0]))[0] == 0.5

    def test_tanh_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        x = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        check_grad_fd(lambda: scalar_loss(ad.tanh(x)), [x])

    def test_relu_gradient_away_from_kink(self):
        x = ad.Tensor(np.array([-2.0, -0.5, 0.5, 3.0]), requires_grad=True)
        check_grad_fd(lambda: scalar_loss(ad.relu(x)), [x])

    def test_relu_derivative_at_zero_is_zero(self):
        x = ad.Tensor([0.0], requires_grad=True)
        with ad.Tape() as tape:
            out = total(ad.relu(x))
        ad.backward(out, tape)
        assert x.grad[0] == 0.0


class TestSigmoidCrossEntropy:
    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        z = ad.Tensor(rng.normal(scale=3.0, size=(4, 5)), requires_grad=True)
        y = rng.integers(0, 2, size=(4, 5)).astype(float)
        check_grad_fd(lambda: ad.sigmoid_cross_entropy(z, y), [z])

    def test_bit_identical_to_softplus_minus_zy_and_its_composed_gradient(self):
        """Output sum(softplus(z) - z*y) * (1/rows); gradient (-s*y) + s*sigmoid(z),
        s = g * (1/rows), in plain numpy."""
        rng = np.random.default_rng(6)
        zd = rng.uniform(-40.0, 40.0, size=(6, 7))
        y = rng.integers(0, 2, size=(6, 7)).astype(float)
        g = rng.normal()
        z = ad.Tensor(zd, requires_grad=True)
        with ad.Tape() as tape:
            loss = weighted_sum(ad.sigmoid_cross_entropy(z, y), [g])
        ad.backward(loss, tape)
        softplus = np.maximum(zd, 0.0) + np.log1p(np.exp(-np.abs(zd)))
        sig = np.where(zd >= 0, 1.0 / (1.0 + np.exp(-zd)), np.exp(zd) / (1.0 + np.exp(zd)))
        s = g * (1.0 / 6)
        np.testing.assert_array_equal(ad.sigmoid_cross_entropy(ad.Tensor(zd), y).data,
                                      (softplus - zd * y).sum() * (1.0 / 6))
        np.testing.assert_array_equal(z.grad, (-s * y) + s * sig)

    def test_finite_at_extreme_logits(self):
        z = ad.Tensor([1e4, -1e4, 1e4, -1e4], requires_grad=True)
        y = np.array([0.0, 0.0, 1.0, 1.0])
        with ad.Tape() as tape:
            loss = ad.sigmoid_cross_entropy(z, y)
        ad.backward(loss, tape)
        assert loss.data == 2e4
        np.testing.assert_array_equal(z.grad, [1.0, 0.0, 0.0, -1.0])

    @pytest.mark.parametrize("shape", [(), (3, 0), (0, 4)])
    def test_scalar_and_empty_logits_are_one_row(self, shape):
        z = ad.Tensor(np.full(shape, 0.5), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sigmoid_cross_entropy(z, np.zeros(shape))
        ad.backward(loss, tape)
        want = np.log1p(np.exp(-0.5)) + 0.5 if shape == () else 0.0
        assert loss.data == want
        np.testing.assert_array_equal(z.grad, ad.stable_sigmoid(np.full(shape, 0.5)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ad.DimensionError, match=r"\(2, 3\).*\(3,\)"):
            ad.sigmoid_cross_entropy(ad.Tensor(np.zeros((2, 3))), np.zeros(3))


class TestLayerNorm:
    EPS = 1e-5

    def build(self, rng, rows):
        x = ad.Tensor(rng.normal(size=(2, rows, 6)), requires_grad=True)
        x.data[0, 0] = 0.75  # a constant row: variance exactly 0
        gamma = ad.Tensor(rng.normal(size=6), requires_grad=True)
        beta = ad.Tensor(rng.normal(size=6), requires_grad=True)
        return x, gamma, beta

    @pytest.mark.parametrize("rows", [1, 3])
    def test_gradient_vs_finite_differences(self, rows):
        rng = np.random.default_rng(24)
        x, gamma, beta = self.build(rng, rows)
        w = ad.Tensor(rng.normal(size=x.shape))
        check_grad_fd(
            lambda: weighted_sum(ad.layer_norm(x, gamma, beta, self.EPS), w),
            [x, gamma, beta], h=1e-6,
        )

    def test_forward_is_the_two_pass_numpy_expression(self):
        x, gamma, beta = self.build(np.random.default_rng(25), 4)
        xd = x.data
        mu = xd.mean(axis=-1, keepdims=True)
        c = xd - mu
        want = c / np.sqrt((c * c).mean(axis=-1, keepdims=True) + self.EPS) * gamma.data + beta.data
        np.testing.assert_array_equal(ad.layer_norm(x, gamma, beta, self.EPS).data, want)
        np.testing.assert_array_equal(want[0, 0], beta.data)  # the constant row

    def test_rows_are_normalized(self):
        x = ad.Tensor(np.random.default_rng(26).normal(loc=3.0, scale=5.0, size=(5, 8)))
        out = ad.layer_norm(x, ad.Tensor(np.ones(8)), ad.Tensor(np.zeros(8)), self.EPS).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, rtol=1e-5)


def composed_attention(x, w_q, w_k, w_v, w_o, lengths, heads):
    """The attention block as separate engine ops: the reference `ad.attention` must match."""
    batch, length, d = x.shape
    dh = d // heads

    def split(t, axes):
        return ad.transpose(ad.reshape(t, (batch, length, heads, dh)), axes)

    q = split(x @ w_q, (0, 2, 1, 3))
    k_t = split(x @ w_k, (0, 2, 3, 1))
    v = split(x @ w_v, (0, 2, 1, 3))
    scores = scaled(q @ k_t, 1.0 / math.sqrt(dh))
    attn = ad.softmax(scores, np.asarray(lengths)[:, None, None])
    return ad.reshape(ad.transpose(attn @ v, (0, 2, 1, 3)), (batch, length, d)) @ w_o


def composed_feed_forward(x, w1, b1, w2, b2):
    """The feed-forward block as separate engine ops: the reference `ad.feed_forward` must match."""
    return ad.relu(x @ w1 + b1) @ w2 + b2


def attention_inputs(batch, length, d, seed=0):
    """x [batch, length, d] and four [d, d] weights, all requiring grad."""
    rng = np.random.default_rng(seed)
    tensors = [ad.Tensor(rng.normal(size=(batch, length, d)), requires_grad=True)]
    return tensors + [ad.Tensor(rng.normal(size=(d, d)) / 2, requires_grad=True) for _ in range(4)]


def ffn_inputs(batch, seed=0):
    """Small-integer x [B, 5, 4], w1 [4, 6], b1, w2 [6, 4], b2: many exactly-zero pre-activations."""
    rng = np.random.default_rng(seed)
    shapes = [(batch, 5, 4), (4, 6), (6,), (6, 4), (4,)]
    return [ad.Tensor(rng.integers(-2, 3, size=s).astype(float), requires_grad=True) for s in shapes]


def run_with_residual(block, tensors, w):
    """Output and gradients (None where none reaches) of sum(w * (x + block(x, ...))),
    the residual use the encoder makes of both blocks."""
    return weighted_grads(lambda: tensors[0] + block(*tensors), tensors, w)


def assert_same_run(got, want):
    """Equal outputs and equal gradients, bit for bit, with None in the same places."""
    np.testing.assert_array_equal(got[0], want[0])
    for g, ref in zip(got[1], want[1]):
        assert (g is None) == (ref is None)
        if ref is not None:
            np.testing.assert_array_equal(g, ref)


def attention_runs(lengths, length, heads, subset=()):
    """`run_with_residual` of `ad.attention` and of `composed_attention` on the
    same d=32 inputs of `length` keys cut at `lengths`, no gradient for the inputs in `subset`."""
    runs = []
    for op in (ad.attention, composed_attention):
        tensors = attention_inputs(len(lengths), length, 32)
        for i in subset:
            tensors[i].requires_grad = False
        w = np.random.default_rng(1).normal(size=tensors[0].shape)
        runs.append(run_with_residual(lambda *t: op(*t, lengths, heads), tensors, w))
    return runs


# row lengths over 32 keys that engage `attention`'s key cut: three rows, of
# which a batch of one takes the first, and the key width at B=1 and B=3
_CUT_CASES = {
    "all_rows_le_4": ([4, 1, 3], (8, 8)),
    "longest_row_9": ([9, 2, 5], (16, 16)),
    "row_of_exactly_8": ([8, 3, 8], (8, 8)),
    "full_row": ([32, 4, 1], (32, 32)),
    "longest_row_20": ([20, 3, 1], (24, 24)),
    "all_false_row": ([0, 4, 6], (32, 8)),
}


# positions of the op's tensor inputs that take no gradient: none, then partial sets
_GRAD_SUBSETS = {
    "all": set(),
    "weights_only": {0},
    "x_only": {1, 2, 3, 4},
    "third_weight_only": {0, 1, 2, 4},
    "last_only": {0, 1, 2, 3},
}


class TestFusedEncoderOps:
    """`ad.attention` and `ad.feed_forward` equal their composition from separate
    ops bit for bit, output and every input gradient, and pass central differences
    at C1's tolerance (1e-4)."""

    @pytest.mark.parametrize("subset", _GRAD_SUBSETS.values(), ids=list(_GRAD_SUBSETS))
    @pytest.mark.parametrize("heads", [1, 2, 32])
    @pytest.mark.parametrize("lengths", [(16,), (1,), (16, 1, 9)], ids=["B1", "B1_len1", "B3"])
    def test_attention_matches_composed(self, lengths, heads, subset):
        """Run at the encoder's d=32 and length 16: at d=4 a key gradient summed in
        another order (dSᵀ q) still gives the same bits, so it would pass there."""
        assert_same_run(*attention_runs(lengths, 16, heads, subset))

    @pytest.mark.parametrize("subset", _GRAD_SUBSETS.values(), ids=list(_GRAD_SUBSETS))
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("rows, widths", _CUT_CASES.values(), ids=list(_CUT_CASES))
    def test_key_cut_matches_composed(self, rows, widths, batch, subset):
        """At d=32 and the category length 32, a cut to the longest length,
        rounded up to 8, gives the bits of the uncut composition."""
        lengths = rows[:batch]
        assert ad._key_width(max(lengths), 32) == widths[batch == 3]
        assert_same_run(*attention_runs(lengths, 32, 4, subset))

    @pytest.mark.parametrize(
        "length, lengths, width", [(160, [20], 24), (256, [3, 60], 64), (200, [5, 17, 100], 200)]
    )
    def test_key_cut_past_numpy_pairwise_block(self, length, lengths, width):
        """Past 128 keys numpy's pairwise sum splits a row: the cut stays inside
        its first leaf (96 of 200 here) or is not taken."""
        assert ad._key_width(max(lengths), length) == width
        assert_same_run(*attention_runs(lengths, length, 4))

    @pytest.mark.parametrize(
        "longest, length, width",
        [(0, 32, 32), (8, 32, 8), (9, 32, 16), (5, 5, 5), (40, 32, 32),
         (20, 160, 24), (60, 256, 64), (100, 200, 200)],
    )
    def test_key_width_is_the_longest_length_rounded_up_to_8(self, longest, length, width):
        """Uncut for a longest length of 0, past the row (5 of 5 keys rounds to 8) or
        past the first pairwise leaf of a row over 128 keys."""
        assert ad._key_width(longest, length) == width

    def test_all_zero_lengths_give_zero_rows(self):
        tensors = attention_inputs(2, 16, 8)
        np.testing.assert_array_equal(ad.attention(*tensors, [0, 0], 2).data, 0.0)

    @pytest.mark.parametrize("subset", _GRAD_SUBSETS.values(), ids=list(_GRAD_SUBSETS))
    @pytest.mark.parametrize("batch", [1, 3])
    def test_feed_forward_matches_composed(self, batch, subset):
        runs = []
        for op in (ad.feed_forward, composed_feed_forward):
            tensors = ffn_inputs(batch)
            for i in subset:
                tensors[i].requires_grad = False
            w = np.random.default_rng(1).normal(size=tensors[0].shape)
            runs.append(run_with_residual(op, tensors, w))
        x, w1, b1 = (t.data for t in ffn_inputs(batch)[:3])
        pre = x @ w1 + b1
        assert (pre == 0.0).any() and (pre > 0).any() and (pre < 0).any()
        assert_same_run(*runs)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention_finite_differences(self, heads):
        tensors = attention_inputs(3, 5, 4, seed=heads)
        w = ad.Tensor(np.random.default_rng(2).normal(size=tensors[0].shape))
        check_grad_fd(
            lambda: weighted_sum(ad.attention(*tensors, [5, 1, 3], heads), w), tensors, tol=1e-4
        )

    def test_feed_forward_finite_differences(self):
        rng = np.random.default_rng(3)
        shapes = [(3, 5, 4), (4, 6), (6,), (6, 4), (4,)]
        tensors = [ad.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        w = ad.Tensor(rng.normal(size=(3, 5, 4)))
        check_grad_fd(lambda: weighted_sum(ad.feed_forward(*tensors), w), tensors, tol=1e-4)


class TestConv2d:
    def test_constant_field(self):
        x = ad.Tensor(np.ones((1, 1, 3, 3)))
        k = ad.Tensor(np.ones((1, 1, 2, 2)))
        b = ad.Tensor(np.zeros(1))
        out = ad.conv2d(x, k, b, stride=(1, 1))
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0))

    def test_zero_kernels_yield_bias(self):
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.normal(size=(1, 2, 4, 5)))
        k = ad.Tensor(np.zeros((3, 2, 2, 2)))
        b = ad.Tensor(np.full(3, 7.5))
        out = ad.conv2d(x, k, b, stride=(1, 1))
        np.testing.assert_array_equal(out.data, np.full(out.shape, 7.5))

    def test_kernel_larger_than_input(self):
        x = ad.Tensor(np.zeros((1, 1, 2, 2)))
        k = ad.Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ad.DimensionError, match="pad"):
            ad.conv2d(x, k, ad.Tensor(np.zeros(1)))

    def test_matches_loop_oracle_forward_and_backward(self):
        rng = np.random.default_rng(7)
        x = ad.Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)
        k = ad.Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=3), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.conv2d(x, k, b, stride=(1, 1))
            w = ad.Tensor(rng.normal(size=out.shape))
            loss = weighted_sum(out, w)
        np.testing.assert_allclose(out.data, conv2d_loop(x.data, k.data, b.data), atol=1e-10)
        ad.backward(loss, tape)
        gx, gk, gb = conv2d_loop_backward(x.data, k.data, w.data)
        np.testing.assert_allclose(x.grad, gx, atol=1e-10)
        np.testing.assert_allclose(k.grad, gk, atol=1e-10)
        np.testing.assert_allclose(b.grad, gb, atol=1e-10)

    def test_strided_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        x = ad.Tensor(rng.normal(size=(1, 2, 7, 8)), requires_grad=True)
        k = ad.Tensor(rng.normal(size=(2, 2, 3, 2)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=2), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.conv2d(x, k, b, stride=(2, 3))
            w = ad.Tensor(rng.normal(size=out.shape))
            loss = weighted_sum(out, w)
        np.testing.assert_allclose(
            out.data, conv2d_loop(x.data, k.data, b.data, stride=(2, 3)), atol=1e-10
        )
        ad.backward(loss, tape)
        gx, gk, gb = conv2d_loop_backward(x.data, k.data, w.data, stride=(2, 3))
        np.testing.assert_allclose(x.grad, gx, atol=1e-10)
        np.testing.assert_allclose(k.grad, gk, atol=1e-10)
        np.testing.assert_allclose(b.grad, gb, atol=1e-10)


class TestMaxpool2d:
    def test_single_window(self):
        x = ad.Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = ad.maxpool2d(x, (2, 2), (2, 2))
        np.testing.assert_array_equal(out.data, [[[[4.0]]]])

    def test_constant_input(self):
        x = ad.Tensor(np.full((1, 2, 4, 4), 3.25))
        out = ad.maxpool2d(x, (2, 2), (2, 2))
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2, 2), 3.25))

    def test_window_exceeds_input(self):
        with pytest.raises(ad.DimensionError):
            ad.maxpool2d(ad.Tensor(np.zeros((1, 1, 3, 3))), (4, 4), (1, 1))

    def test_matches_loop_oracle_and_conserves_gradient(self):
        rng = np.random.default_rng(9)
        x = ad.Tensor(rng.normal(size=(1, 1, 5, 5)), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.maxpool2d(x, (2, 2), (2, 2))
            w = ad.Tensor(rng.normal(size=out.shape))
            loss = weighted_sum(out, w)
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(out.data, maxpool2d_loop(x.data, (2, 2), (2, 2)))
        ad.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, maxpool2d_loop_backward(x.data, (2, 2), (2, 2), w.data))
        assert x.grad.sum() == pytest.approx(w.data.sum(), abs=0)

    def test_tie_routes_to_first_row_major_position(self):
        x = ad.Tensor(np.array([[[[5.0, 5.0], [5.0, 5.0]]]]), requires_grad=True)
        with ad.Tape() as tape:
            out = total(ad.maxpool2d(x, (2, 2), (2, 2)))
        ad.backward(out, tape)
        np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_negative_zero_pools_to_positive_zero(self):
        """The unit conv's zero bias, added after the max, turns a -0.0 maximum into +0.0."""
        x = ad.Tensor(np.array([[[[-0.0, -0.0], [-0.0, -1.0]], [[-1.0, -0.0], [0.0, -0.0]]]]),
                      requires_grad=True)
        with ad.Tape() as tape:
            out = ad.maxpool2d(x, (2, 2), (2, 2))
            loss = total(out)
        assert not np.signbit(out.data).any()
        np.testing.assert_array_equal(out.data, 0.0)
        ad.backward(loss, tape)
        # the first row-major maximum of each window: -0.0 and +0.0 tie
        np.testing.assert_array_equal(x.grad, [[[[1, 0], [0, 0]], [[0, 1], [0, 0]]]])

    def test_overlapping_windows_accumulate(self):
        rng = np.random.default_rng(10)
        x = ad.Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.maxpool2d(x, (2, 2), (1, 1))
            w = ad.Tensor(rng.normal(size=out.shape))
            loss = weighted_sum(out, w)
        ad.backward(loss, tape)
        np.testing.assert_allclose(
            x.grad, maxpool2d_loop_backward(x.data, (2, 2), (1, 1), w.data), atol=0
        )

    def test_overlapping_windows_add_in_row_major_window_order(self):
        # the centre is all four windows' maximum; their gradients sum to
        # 1.0 in row-major window order and to 0.0 in reverse
        x = ad.Tensor(np.pad([[[[9.0]]]], ((0, 0), (0, 0), (1, 1), (1, 1))), requires_grad=True)
        g = ad.Tensor([[[[1e16, 1.0], [-1e16, 1.0]]]])
        with ad.Tape() as tape:
            loss = weighted_sum(ad.maxpool2d(x, (2, 2), (1, 1)), g)
        ad.backward(loss, tape)
        assert x.grad[0, 0, 1, 1] == 1.0
        np.testing.assert_array_equal(
            x.grad, maxpool2d_loop_backward(x.data, (2, 2), (1, 1), g.data)
        )


def batch_innermost_view(a):
    """The [N,C,H,W] view of a contiguous [C,H,W,N] copy of `a`."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


# Inputs for the batch-innermost conv/pool paths: (name, input, stride,
# x requires grad).  With the (2, 3) pool window, stride (1, 1) overlaps the
# windows and stride (2, 3) tiles them disjointly.
_LAYOUT_CASES = [
    (
        "batch_innermost",
        lambda rng: batch_innermost_view(rng.normal(size=(3, 2, 6, 7))), (1, 1), True,
    ),
    ("stride_2_3", lambda rng: rng.normal(size=(2, 2, 7, 8)), (2, 3), True),
    ("one_map", lambda rng: rng.normal(size=(1, 2, 6, 7)), (1, 1), True),
    ("no_grad_input", lambda rng: rng.normal(size=(3, 2, 6, 7)), (1, 1), False),
]


class TestBatchInnermostConvPool:
    """The batch-innermost conv2d/maxpool2d against the loop oracles, at C2's
    tolerances (1e-10 for conv2d, exact for maxpool2d)."""

    @pytest.mark.parametrize(
        "make_x, stride, x_grad",
        [case[1:] for case in _LAYOUT_CASES],
        ids=[case[0] for case in _LAYOUT_CASES],
    )
    def test_conv2d_matches_loop_oracle(self, make_x, stride, x_grad):
        rng = np.random.default_rng(21)
        x = ad.Tensor(make_x(rng), requires_grad=x_grad)
        k = ad.Tensor(rng.normal(size=(3, 2, 3, 2)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=3), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.conv2d(x, k, b, stride=stride)
            w = ad.Tensor(rng.normal(size=out.shape))
            loss = weighted_sum(out, w)
        want = conv2d_loop(x.data, k.data, b.data, stride)
        np.testing.assert_allclose(out.data, want, atol=1e-10)
        ad.backward(loss, tape)
        gx, gk, gb = conv2d_loop_backward(x.data, k.data, w.data, stride)
        if x_grad:
            np.testing.assert_allclose(x.grad, gx, atol=1e-10)
        else:
            assert x.grad is None
        np.testing.assert_allclose(k.grad, gk, atol=1e-10)
        np.testing.assert_allclose(b.grad, gb, atol=1e-10)

    @pytest.mark.parametrize(
        "make_x, stride, x_grad",
        [case[1:] for case in _LAYOUT_CASES],
        ids=[case[0] for case in _LAYOUT_CASES],
    )
    def test_maxpool2d_matches_loop_oracle(self, make_x, stride, x_grad):
        rng = np.random.default_rng(22)
        x = ad.Tensor(make_x(rng), requires_grad=x_grad)
        with ad.Tape() as tape:
            # times one, so a taped input reaches the pool as an intermediate
            out = ad.maxpool2d(scaled(x, 1.0), (2, 3), stride)
            w = ad.Tensor(rng.normal(size=out.shape))
            loss = weighted_sum(out, w)
        np.testing.assert_allclose(out.data, maxpool2d_loop(x.data, (2, 3), stride), atol=0)
        assert out.requires_grad == x_grad
        if x_grad:
            ad.backward(loss, tape)
            np.testing.assert_allclose(
                x.grad, maxpool2d_loop_backward(x.data, (2, 3), stride, w.data), atol=0
            )

    def test_nan_window_propagates_and_routes_no_gradient(self):
        data = np.arange(16.0).reshape(1, 1, 4, 4)
        data[0, 0, 0, 1] = np.nan
        x = ad.Tensor(data, requires_grad=True)
        with ad.Tape() as tape:
            out = ad.maxpool2d(x, (2, 2), (2, 2))
            loss = total(out)  # NaN, but backward still seeds every window with 1
        assert np.isnan(out.data[0, 0, 0, 0])
        np.testing.assert_array_equal(out.data[0, 0, 0, 1], 7.0)
        ad.backward(loss, tape)
        np.testing.assert_array_equal(x.grad[0, 0, :2, :2], 0.0)
        assert x.grad.sum() == 3.0

    def test_nan_in_overlapping_windows_routes_no_gradient(self):
        data = np.arange(16.0).reshape(1, 1, 4, 4)
        data[0, 0, 0, 1] = np.nan
        x = ad.Tensor(data, requires_grad=True)
        with ad.Tape() as tape:
            out = ad.maxpool2d(x, (2, 2), (1, 1))
            loss = total(out)
        assert np.isnan(out.data[0, 0, 0, :2]).all()
        ad.backward(loss, tape)
        # the other seven windows route to their bottom-right element
        want = np.zeros((4, 4))
        want[1:, 1:] = 1.0
        want[1, 1:3] = 0.0
        np.testing.assert_array_equal(x.grad[0, 0], want)

    def test_3d_input_rejected(self):
        x = ad.Tensor(np.zeros((2, 6, 7)))
        with pytest.raises(ad.DimensionError, match=r"4D \[N,C,H,W\]"):
            ad.conv2d(x, ad.Tensor(np.zeros((3, 2, 3, 2))), ad.Tensor(np.zeros(3)))
        with pytest.raises(ad.DimensionError, match=r"4D \[N,C,H,W\]"):
            ad.maxpool2d(x, (2, 2), (2, 2))

    def test_conv_pool_relu_stay_batch_innermost(self):
        rng = np.random.default_rng(23)
        x = ad.Tensor(rng.normal(size=(4, 1, 8, 9)), requires_grad=True)
        k1 = ad.Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
        k2 = ad.Tensor(rng.normal(size=(3, 2, 2, 2)), requires_grad=True)
        with ad.Tape():
            c1 = ad.conv2d(x, k1, ad.Tensor(np.zeros(2)), pool=((2, 2), (2, 2)))
            r1 = ad.relu(c1)
            c2 = ad.conv2d(r1, k2, ad.Tensor(np.zeros(3)))
        for t in (c1, r1, c2):
            assert t.data.transpose(1, 2, 3, 0).flags.c_contiguous


def scaled_err(a, b):
    """max |a-b| / max(1, max|b|) over the entries, NaN where both are NaN."""
    np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
    ok = ~np.isnan(b)
    return float(np.abs(a[ok] - b[ok]).max(initial=0.0) / max(1.0, np.abs(b[ok]).max(initial=0.0)))


# (name, n, cin, h, w, kernel, conv stride, pool window, pool stride); every
# odd size leaves partial windows for the pool, the conv or both to drop
_POOLED_CASES = [
    ("disjoint", 3, 1, 9, 11, (3, 3), (1, 1), (2, 2), (2, 2)),
    ("overlapping", 2, 8, 10, 9, (3, 2), (1, 1), (3, 3), (2, 2)),
    ("gapped", 3, 2, 11, 12, (2, 2), (1, 1), (2, 2), (3, 3)),
    ("strided_conv", 2, 8, 13, 12, (3, 3), (2, 1), (2, 3), (2, 2)),
    ("unpooled", 2, 3, 7, 8, (3, 3), (1, 1), (1, 1), (1, 1)),
    ("c4_block1", 5, 1, 14, 30, (3, 3), (1, 1), (2, 2), (2, 2)),
    ("c4_block2", 5, 8, 6, 14, (3, 3), (1, 1), (2, 2), (2, 2)),
]

# inputs: random floats; dyadic values, whose products and sums are exact in
# any order; and small integers, which tie inside most pool windows
_POOLED_INPUTS = {
    "float": lambda rng, shape: rng.normal(size=shape),
    "dyadic": lambda rng, shape: rng.integers(-64, 65, size=shape) / 8.0,
    "ties": lambda rng, shape: rng.integers(-1, 2, size=shape).astype(np.float64),
}


def pooled_conv_and_grads(x, k, b, stride, pool, w_seed=0):
    """Output and (x, k, b) gradients of sum(out * w), out the pooled conv."""
    x, k, b = (ad.Tensor(a.copy(), requires_grad=True) for a in (x, k, b))
    with ad.Tape() as tape:
        out = ad.conv2d(x, k, b, stride=stride, pool=pool)
        w = ad.Tensor(np.random.default_rng(w_seed).normal(size=out.shape))
        loss = weighted_sum(out, w)
    ad.backward(loss, tape)
    return out.data, x.grad, k.grad, b.grad


def pooled_conv_oracle(x, k, b, stride, pool, w_seed=0):
    """What `pooled_conv_and_grads` gives, from the loop oracles; a NaN window routes nothing."""
    conv = conv2d_loop(x, k, b, stride)
    out = maxpool2d_loop(conv, *pool)
    w = np.random.default_rng(w_seed).normal(size=out.shape)
    g_conv = maxpool2d_loop_backward(conv, *pool, np.where(np.isnan(out), 0.0, w))
    return (out, *conv2d_loop_backward(x, k, g_conv, stride))


class TestPooledConv2d:
    """conv2d(..., pool=p) against a loop max-pool of a loop correlation.

    The forward is bit-identical whenever the arithmetic is exact.  With
    random floats it agrees to a few ulps only: the loops and the matmul
    add a window's products in different orders.  Gradients sum in another
    order too and agree to 1e-12, scaled.
    """

    @pytest.mark.parametrize("kind", sorted(_POOLED_INPUTS))
    @pytest.mark.parametrize("case", _POOLED_CASES, ids=[c[0] for c in _POOLED_CASES])
    def test_matches_maxpool_of_conv(self, case, kind):
        _, n, cin, h, w, kernel, stride, window, pool_stride = case
        rng = np.random.default_rng(31)
        make = _POOLED_INPUTS[kind]
        x, k, b = make(rng, (n, cin, h, w)), make(rng, (4, cin, *kernel)), make(rng, (4,))
        pool = (window, pool_stride)
        got = pooled_conv_and_grads(x, k, b, stride, pool)
        want = pooled_conv_oracle(x, k, b, stride, pool)
        if kind == "float":
            assert scaled_err(got[0], want[0]) <= 1e-14
        else:
            np.testing.assert_array_equal(got[0], want[0])
        for g, r in zip(got[1:], want[1:]):
            assert scaled_err(g, r) <= 1e-12

    @pytest.mark.parametrize("bias", ["drawn", "zero", "negative"])
    @pytest.mark.parametrize("kind", ["dyadic", "ties"])
    @pytest.mark.parametrize("case", _POOLED_CASES, ids=[c[0] for c in _POOLED_CASES])
    def test_bias_after_the_max_equals_bias_before(self, case, kind, bias):
        """conv2d adds the bias once, to the pooled maximum; the loop oracles add it to
        every conv value before the max.  With exact arithmetic, ties included, the
        output and all three gradients are equal bit for bit."""
        _, n, cin, h, w, kernel, stride, window, pool_stride = case
        rng = np.random.default_rng(36)
        make = _POOLED_INPUTS[kind]
        x, k = make(rng, (n, cin, h, w)), make(rng, (4, cin, *kernel))
        b = {"drawn": make(rng, (4,)), "zero": np.zeros(4),
             "negative": -np.abs(make(rng, (4,))) - 1.0}[bias]
        conv = conv2d_loop(x, k, b, stride)
        want = maxpool2d_loop(conv, window, pool_stride)
        g = make(rng, want.shape)
        want_grads = conv2d_loop_backward(
            x, k, maxpool2d_loop_backward(conv, window, pool_stride, g), stride
        )
        tensors = [ad.Tensor(a, requires_grad=True) for a in (x, k, b)]
        with ad.Tape() as tape:
            out = ad.conv2d(*tensors, stride=stride, pool=(window, pool_stride))
            loss = weighted_sum(out, g)
        ad.backward(loss, tape)
        np.testing.assert_array_equal(out.data, want)
        for t, ref in zip(tensors, want_grads):
            np.testing.assert_array_equal(t.grad, ref)

    def test_ties_route_to_the_first_row_major_maximum(self):
        x = ad.Tensor(np.full((1, 1, 3, 3), 2.0), requires_grad=True)
        k = ad.Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        b = ad.Tensor(np.zeros(1), requires_grad=True)
        with ad.Tape() as tape:
            loss = total(ad.conv2d(x, k, b, pool=((2, 2), (1, 1))))
        ad.backward(loss, tape)
        # all four conv positions read 8.0; position (0, 0) wins, its 2x2 taps get 1
        np.testing.assert_array_equal(x.grad[0, 0], [[1, 1, 0], [1, 1, 0], [0, 0, 0]])

    def test_nan_window_matches_reference_and_routes_nothing(self):
        rng = np.random.default_rng(32)
        x, k, b = rng.normal(size=(2, 2, 8, 9)), rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3)
        x[1, 0, 4, 4] = np.nan
        pool = ((2, 2), (2, 2))
        got = pooled_conv_and_grads(x, k, b, (1, 1), pool)
        want = pooled_conv_oracle(x, k, b, (1, 1), pool)
        assert np.isnan(got[0]).any() and not np.isnan(got[0][0]).any()
        for g, r in zip(got, want):
            assert scaled_err(g, r) <= 1e-12
        # the NaN windows route nothing, so the input gradient stays finite
        assert np.isfinite(got[1]).all()

    def test_untaped_forward_equals_taped(self):
        rng = np.random.default_rng(33)
        x, k, b = (ad.Tensor(rng.normal(size=s)) for s in ((3, 2, 9, 10), (4, 2, 3, 3), (4,)))
        pool = ((3, 3), (2, 2))
        untaped = ad.conv2d(x, k, b, pool=pool).data
        k.requires_grad = True
        with ad.Tape():
            taped = ad.conv2d(x, k, b, pool=pool)
        assert taped.requires_grad
        np.testing.assert_array_equal(taped.data, untaped)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(34)
        x = ad.Tensor(rng.normal(size=(2, 2, 8, 7)), requires_grad=True)
        k = ad.Tensor(rng.normal(size=(3, 2, 2, 3)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=3), requires_grad=True)
        check_grad_fd(
            lambda: scalar_loss(ad.conv2d(x, k, b, stride=(1, 2), pool=((3, 2), (2, 1)))),
            [x, k, b],
        )


def pooled_op_and_grads(op, x, window, stride):
    """Output and input gradient of sum(out * w), out a taped `maxpool2d` or unit-kernel `conv2d`."""
    x = ad.Tensor(x.copy(), requires_grad=True)
    with ad.Tape() as tape:
        if op == "maxpool2d":
            out = ad.maxpool2d(x, window, stride)
        else:
            unit, zero = ad.Tensor(np.ones((1, 1, 1, 1))), ad.Tensor(np.zeros(1))
            out = ad.conv2d(x, unit, zero, pool=(window, stride))
        w = ad.Tensor(np.random.default_rng(0).normal(size=out.shape))
        loss = weighted_sum(out, w)
    ad.backward(loss, tape)
    return out.data, x.grad


class TestNumpyIntegerSizes:
    @pytest.mark.parametrize("op", ["maxpool2d", "conv2d"])
    def test_taped_pool_with_numpy_sizes_equals_python_sizes(self, op):
        x = np.random.default_rng(35).normal(size=(2, 1, 7, 6))
        x[1, 0, 2, 3] = np.nan  # a NaN window stores the ph*pw index
        n = np.int64
        got = pooled_op_and_grads(op, x, (n(3), n(2)), (n(2), n(1)))
        want = pooled_op_and_grads(op, x, (3, 2), (2, 1))
        for g, r in zip(got, want):
            np.testing.assert_array_equal(g, r)


_SIZES = st.sampled_from([int, np.int64, np.int32])


@st.composite
def pooling_cases(draw):
    """(x, kernels, bias, conv stride, pool window, pool stride) with every size drawn.

    The input has room for at least one pooled window plus up to two rows
    and columns the conv and the pool leave over as partial windows.  Sizes
    come as Python or numpy integers; small-integer inputs tie inside
    windows.
    """
    size = draw(_SIZES)
    kh, kw, sh, sw, ph, pw, th, tw = (size(draw(st.integers(1, 3))) for _ in range(8))
    h = (ph - 1) * sh + kh + draw(st.integers(0, 2))
    w = (pw - 1) * sw + kw + draw(st.integers(0, 2))
    n, cin, cout = (draw(st.integers(1, 2)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ties = draw(st.booleans())

    def make(shape):
        if ties:
            return rng.integers(-1, 2, size=shape).astype(np.float64)
        return rng.normal(size=shape)

    x, k, b = make((n, cin, int(h), int(w))), make((cout, cin, int(kh), int(kw))), make(cout)
    return x, k, b, (sh, sw), (ph, pw), (th, tw)


def assert_views_inside_their_buffers(views):
    """Each (buffer, view) pair: the view's last element ends inside the buffer's bytes."""
    assert views
    for buf, view in views:
        assert buf.flags.c_contiguous and min(view.strides) >= 0
        first = view.__array_interface__["data"][0] - buf.__array_interface__["data"][0]
        last = first + sum((size - 1) * stride for size, stride in zip(view.shape, view.strides))
        assert first >= 0 and last + view.itemsize <= buf.nbytes


class TestPoolingProperties:
    """Random shapes, strides and pools, partial windows included, against the loop oracles."""

    @settings(max_examples=200)
    @given(pooling_cases())
    def test_pooled_conv_and_maxpool_match_loop_oracles(self, case):
        x, k, b, stride, window, pool_stride = case
        pool = (window, pool_stride)
        views = []
        as_strided = np.lib.stride_tricks.as_strided

        def recording(buf, *args, **kwargs):
            view = as_strided(buf, *args, **kwargs)
            views.append((buf, view))
            return view

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.lib.stride_tricks, "as_strided", recording)
            got = pooled_conv_and_grads(x, k, b, stride, pool)
            got_pool = pooled_op_and_grads("maxpool2d", x, window, pool_stride)
        assert_views_inside_their_buffers(views)

        want = pooled_conv_oracle(x, k, b, stride, pool)
        assert scaled_err(got[0], want[0]) <= 1e-14
        for g, r in zip(got[1:], want[1:]):
            assert scaled_err(g, r) <= 1e-12

        want_pool = maxpool2d_loop(x, window, pool_stride)
        w = np.random.default_rng(0).normal(size=want_pool.shape)
        np.testing.assert_array_equal(got_pool[0], want_pool)
        np.testing.assert_array_equal(
            got_pool[1], maxpool2d_loop_backward(x, window, pool_stride, w)
        )


def weighted_grads(build, params, w):
    """Forward of `build()` and the gradients of sum(w * out) for each of `params`.

    The gradients are released from `params` again, so a later check starts clean.
    """
    with ad.Tape() as tape:
        out = build()
        loss = weighted_sum(out, w)
    ad.backward(loss, tape)
    grads = [t.grad for t in params]
    for t in params:
        t.grad = None
    return out.data, grads


@st.composite
def softmax_cases(draw):
    """(scores, lengths) with random row lengths that broadcast and cut whole rows.

    The lengths run from 1 past the row's end, are size 1 on some leading
    axes (broadcast, as the model's are), and are 0 for some rows.
    """
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths_shape = tuple(n if rng.random() < 0.7 else 1 for n in shape[:-1])
    lengths = rng.integers(1, shape[-1] + 2, size=lengths_shape)
    lengths[rng.random(lengths_shape) < 0.3] = 0
    return rng.normal(size=shape) * 3.0, lengths


@st.composite
def matmul_cases(draw):
    """(a, b) whose leading axes broadcast: each aligned pair is (n, n), (1, n) or (n, 1)."""
    lead = draw(st.integers(0, 2))
    a_lead, b_lead = [], []
    for _ in range(lead):
        n = draw(st.integers(2, 3))
        pa, pb = draw(st.sampled_from([(n, n), (1, n), (n, 1)]))
        a_lead.append(pa)
        b_lead.append(pb)
    # either side may also lack some of the leading axes, down to a plain matrix
    a_lead = a_lead[draw(st.integers(0, lead)):]
    b_lead = b_lead[draw(st.integers(0, lead)):]
    m, k, n = (draw(st.integers(1, 3)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(*a_lead, m, k)), rng.normal(size=(*b_lead, k, n))


def broadcast_matmul_oracle(a, b, g):
    """Loop reference: a @ b and the gradients of sum(g * (a @ b)).

    Each batch index of the broadcast output reads index 0 of an operand's
    size-1 axes, and its gradient adds into that same index.
    """
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.zeros((*batch, a.shape[-2], b.shape[-1]))
    ga, gb = np.zeros_like(a), np.zeros_like(b)

    def at(x, idx):
        """x's batch index for output batch index idx: its trailing axes, 0 where x has size 1."""
        lead = idx[len(idx) - (x.ndim - 2):]
        return tuple(0 if n == 1 else j for n, j in zip(x.shape, lead))

    for idx in np.ndindex(*batch):
        ia, ib = at(a, idx), at(b, idx)
        for i in range(a.shape[-2]):
            for j in range(b.shape[-1]):
                for k in range(a.shape[-1]):
                    out[idx + (i, j)] += a[ia + (i, k)] * b[ib + (k, j)]
                    ga[ia + (i, k)] += g[idx + (i, j)] * b[ib + (k, j)]
                    gb[ib + (k, j)] += g[idx + (i, j)] * a[ia + (i, k)]
    return out, ga, gb


class TestOpProperties:
    """Random shapes, axes, row lengths and broadcasts for the other engine ops.

    Each op is checked against a direct formula and its gradient against
    central differences at `check_grad_fd`'s tolerance.
    """

    @settings(max_examples=100)
    @given(softmax_cases())
    def test_softmax_with_random_masks(self, case):
        z, lengths = case
        x = ad.Tensor(z, requires_grad=True)
        w = np.random.default_rng(0).normal(size=z.shape)
        got, (gx,) = weighted_grads(lambda: ad.softmax(x, lengths), [x], w)

        full = np.broadcast_to(np.arange(z.shape[-1]) < lengths[..., None], z.shape)
        e = np.where(full, np.exp(z - np.max(z, axis=-1, keepdims=True)), 0.0)
        total = e.sum(axis=-1, keepdims=True)
        dead = np.broadcast_to(~full.any(axis=-1, keepdims=True), z.shape)
        want = np.where(dead, 0.0, e / np.where(total > 0, total, 1.0))
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert np.all(got[~full] == 0.0) and np.all(gx[~full] == 0.0)
        assert np.all(got[dead] == 0.0) and np.all(gx[dead] == 0.0)
        check_grad_fd(
            lambda: weighted_sum(ad.softmax(x, lengths), w), [x]
        )

    @settings(max_examples=60)
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=2),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_layer_norm_with_constant_rows(self, lead, width, seed):
        """Rows of one repeated value have variance exactly 0 and normalize to beta.

        The repeated values are quarters, whose sums and so means are exact.
        """
        eps = 1e-5
        rng = np.random.default_rng(seed)
        xd = rng.normal(size=(*lead, width))
        const = rng.random(lead) < 0.5
        xd[const] = rng.integers(-8, 9, size=(int(const.sum()), 1)) / 4.0
        x = ad.Tensor(xd, requires_grad=True)
        gamma = ad.Tensor(rng.normal(size=width), requires_grad=True)
        beta = ad.Tensor(rng.normal(size=width), requires_grad=True)
        w = rng.normal(size=xd.shape)

        got = ad.layer_norm(x, gamma, beta, eps).data
        mean, var = xd.mean(axis=-1, keepdims=True), xd.var(axis=-1, keepdims=True)
        normed = (xd - mean) / np.sqrt(var + eps)
        np.testing.assert_allclose(got, normed * gamma.data + beta.data, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(got[const], np.broadcast_to(beta.data, got[const].shape))
        check_grad_fd(
            lambda: weighted_sum(ad.layer_norm(x, gamma, beta, eps), w),
            [x, gamma, beta], h=1e-6,
        )

    @settings(max_examples=100)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=4),
        st.data(),
    )
    def test_slice_rows_and_concat_on_any_axis(self, shape, data):
        axis = data.draw(st.integers(0, len(shape) - 1))
        lo = data.draw(st.integers(0, shape[axis] - 1))
        hi = data.draw(st.integers(lo + 1, shape[axis] + 2))  # may run past the end
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = ad.Tensor(rng.normal(size=shape), requires_grad=True)
        index = (slice(None),) * axis + (slice(lo, hi),)

        w = rng.normal(size=x.data[index].shape)
        got, (gx,) = weighted_grads(lambda: ad.slice_rows(x, lo, hi, axis=axis), [x], w)
        np.testing.assert_array_equal(got, x.data[index])
        want = np.zeros(shape)
        want[index] = w
        np.testing.assert_array_equal(gx, want)
        check_grad_fd(lambda: scalar_loss(ad.slice_rows(ad.tanh(x), lo, hi, axis=axis)), [x])

        parts = [
            ad.Tensor(rng.normal(size=shape[:axis] + [n] + shape[axis + 1 :]), requires_grad=True)
            for n in sizes
        ]
        w = rng.normal(size=shape[:axis] + [sum(sizes)] + shape[axis + 1 :])
        got, grads = weighted_grads(lambda: ad.concat(parts, axis=axis), parts, w)
        np.testing.assert_array_equal(got, np.concatenate([p.data for p in parts], axis=axis))
        bounds = np.cumsum([0] + sizes)
        for g, a, b in zip(grads, bounds[:-1], bounds[1:]):
            np.testing.assert_array_equal(g, w[(slice(None),) * axis + (slice(a, b),)])
        check_grad_fd(lambda: scalar_loss(ad.concat([ad.tanh(p) for p in parts], axis=axis)), parts)

    @settings(max_examples=100)
    @given(matmul_cases())
    def test_matmul_leading_axis_broadcasting(self, case):
        a = ad.Tensor(case[0], requires_grad=True)
        b = ad.Tensor(case[1], requires_grad=True)
        out_shape = (*np.broadcast_shapes(a.shape[:-2], b.shape[:-2]), a.shape[-2], b.shape[-1])
        w = np.random.default_rng(0).normal(size=out_shape)
        got, (ga, gb) = weighted_grads(lambda: ad.matmul(a, b), [a, b], w)
        want, want_ga, want_gb = broadcast_matmul_oracle(a.data, b.data, w)
        assert got.shape == out_shape and ga.shape == a.shape and gb.shape == b.shape
        for g, r in ((got, want), (ga, want_ga), (gb, want_gb)):
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12)
        check_grad_fd(lambda: scalar_loss(ad.matmul(a, b)), [a, b])


class TestWindowExtent:
    @pytest.mark.parametrize("window", [(1, 1), (2, 3), (3, 2)])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 3), (3, 1)])
    def test_inverts_window_grid(self, window, stride):
        for grid in [(1, 1), (2, 5), (4, 3)]:
            h, w = ad.window_extent(grid, window, stride)
            assert ad.window_grid((h, w), window, stride) == grid
            # no smaller input gives the grid
            if h > window[0]:
                assert ad.window_grid((h - 1, w), window, stride)[0] < grid[0]
            if w > window[1]:
                assert ad.window_grid((h, w - 1), window, stride)[1] < grid[1]


class TestBackward:
    def test_sum_gives_ones(self):
        w = ad.Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        with ad.Tape() as tape:
            loss = total(w)
        ad.backward(loss, tape)
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))

    def test_quadratic_gives_w(self):
        rng = np.random.default_rng(12)
        w = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        with ad.Tape() as tape:
            loss = scalar_loss(w)
        ad.backward(loss, tape)
        np.testing.assert_allclose(w.grad, w.data, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        with ad.Tape() as tape:
            out = w + w
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(out, tape)

    def test_repeated_backward_accumulates_on_leaves(self):
        w = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape() as tape:
            loss = weighted_sum(w, w)
        ad.backward(loss, tape)
        ad.backward(loss, tape)
        np.testing.assert_allclose(w.grad, 4.0 * w.data)

    def test_backward_twice_doubles_leaf_gradients_exactly(self):
        rng = np.random.default_rng(24)
        x = ad.Tensor(rng.normal(size=(2, 1, 6, 6)), requires_grad=True)
        k = ad.Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=2), requires_grad=True)
        with ad.Tape() as tape:
            h = ad.relu(ad.maxpool2d(ad.conv2d(x, k, b), (2, 2), (2, 2)))
            loss = weighted_sum(ad.tanh(h), h)
        ad.backward(loss, tape)
        once = [t.grad.copy() for t in (x, k, b)]
        ad.backward(loss, tape)
        for t, g in zip((x, k, b), once):
            np.testing.assert_array_equal(t.grad, 2.0 * g)

    def test_intermediate_grad_is_none_after_backward(self):
        w = ad.Tensor(np.arange(1.0, 5.0), requires_grad=True)
        with ad.Tape() as tape:
            h = w + w
            loss = total(ad.tanh(h))
        assert all(node.output.grad is None for node in tape.nodes)
        ad.backward(loss, tape)
        assert h.grad is None and loss.grad is None
        assert all(node.output.grad is None for node in tape.nodes)
        assert np.all(w.grad != 0.0)

    def test_branch_off_the_loss_leaves_leaf_gradients_zero(self):
        w = ad.Tensor(np.ones(3), requires_grad=True)
        unused = ad.Tensor(np.full(3, 2.0), requires_grad=True)
        with ad.Tape() as tape:
            side = total(ad.tanh(unused + w))  # never reaches loss
            loss = weighted_sum(w, w)
        ad.backward(loss, tape)
        assert unused.grad is None
        np.testing.assert_array_equal(w.grad, 2.0)
        assert side.grad is None

    def test_fresh_parameter_has_no_gradient_buffer(self):
        assert ad.parameter(np.random.default_rng(0), (2, 3), fan_in=3).grad is None
        assert ad.Tensor(np.ones(2), requires_grad=True).grad is None

    def test_leaf_loss_accumulates_one_per_backward(self):
        loss = ad.Tensor(np.array(3.0), requires_grad=True)
        with ad.Tape() as tape:
            pass
        for want in (1.0, 2.0):
            ad.backward(loss, tape)
            assert loss.grad == want

    def test_add_operands_get_separate_gradient_buffers(self):
        x = ad.Tensor(np.array([0.3, -0.7]), requires_grad=True)
        with ad.Tape() as tape:
            a = x + x
            b = a + x
            c = ad.tanh(a)  # a gets a second gradient after the add hands one to b
            loss = total(a + b) + total(c)
        ad.backward(loss, tape)
        want = 5.0 + 2.0 * (1.0 - np.tanh(2.0 * x.data) ** 2)
        np.testing.assert_allclose(x.grad, want, atol=1e-15)

    def test_shared_input_used_twice(self):
        x = ad.Tensor([2.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = weighted_sum(x, x)  # d/dx x^2 = 2x
        ad.backward(loss, tape)
        np.testing.assert_allclose(x.grad, [4.0])

    def test_no_tape_means_no_graph(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        out = x + x
        assert not out.requires_grad and out.grad is None
        out.grad = None  # releasing a gradient it does not hold is a no-op
        with pytest.raises(ValueError, match="does not require grad"):
            out.grad = np.ones(3)


class TestShapeOps:
    def test_concat_gradient(self):
        rng = np.random.default_rng(13)
        a = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(2, 4)), requires_grad=True)

        def build():
            return scalar_loss(ad.concat([a, b], axis=1))

        check_grad_fd(build, [a, b])

    def test_transpose_reshape_gradient(self):
        rng = np.random.default_rng(15)
        x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def build():
            return scalar_loss(ad.reshape(ad.transpose(x), (2, 6)))

        check_grad_fd(build, [x])

    def test_slice_rows_gradient(self):
        rng = np.random.default_rng(25)
        x = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        check_grad_fd(lambda: scalar_loss(ad.slice_rows(x, 1, 4)), [x])

    def test_slices_of_one_intermediate_and_a_leaf_add_up(self):
        rng = np.random.default_rng(26)
        x = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(6, 3)))

        def build():
            h = ad.tanh(x)
            # overlapping rows 2:4, a ragged slice past the end, and x itself
            parts = [ad.slice_rows(h, 0, 4), scaled(ad.slice_rows(h, 2, 9), 3.0)]
            return scalar_loss(ad.concat(parts, axis=0)) + weighted_sum(x, w)

        check_grad_fd(build, [x])
        with ad.Tape() as tape:
            loss = scalar_loss(ad.slice_rows(x, 0, 2)) + scalar_loss(ad.slice_rows(x, 1, 3))
        x.grad = None
        ad.backward(loss, tape)
        want = x.data * np.array([1.0, 2.0, 1.0, 0.0, 0.0, 0.0])[:, None]
        np.testing.assert_array_equal(x.grad, want)

    def test_embedding_gradient_hits_used_rows_only(self):
        rng = np.random.default_rng(16)
        table = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        ids = np.array([1, 3, 3, 0])
        with ad.Tape() as tape:
            loss = total(ad.embedding(table, ids))
        ad.backward(loss, tape)
        np.testing.assert_array_equal(table.grad[2], 0.0)
        np.testing.assert_array_equal(table.grad[4], 0.0)
        np.testing.assert_array_equal(table.grad[5], 0.0)
        np.testing.assert_array_equal(table.grad[3], 2.0 * np.ones(3))  # repeated id

    def test_broadcast_add_gradient(self):
        rng = np.random.default_rng(17)
        x = ad.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(5,)), requires_grad=True)
        check_grad_fd(lambda: scalar_loss(ad.add(x, b)), [x, b])


class TestDeterminism:
    def test_identical_inputs_bitwise_identical_outputs(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(4, 4))
        a = ad.softmax(ad.Tensor(x), 4).data
        b = ad.softmax(ad.Tensor(x.copy()), 4).data
        np.testing.assert_array_equal(a, b)
        xc = rng.normal(size=(1, 4, 6, 6))
        k = ad.Tensor(rng.normal(size=(2, 4, 3, 3)))
        zb = ad.Tensor(np.zeros(2))
        c1 = ad.conv2d(ad.Tensor(xc), k, zb).data
        c2 = ad.conv2d(ad.Tensor(xc.copy()), k, zb).data
        np.testing.assert_array_equal(c1, c2)

    def test_parameter_init_bounds_and_determinism(self):
        p1 = ad.parameter(np.random.default_rng(42), (50, 20), fan_in=20)
        p2 = ad.parameter(np.random.default_rng(42), (50, 20), fan_in=20)
        np.testing.assert_array_equal(p1.data, p2.data)
        bound = np.sqrt(1.0 / 20)
        assert np.all(np.abs(p1.data) <= bound)

    def test_parameter_without_rng_draws_nothing(self):
        p = ad.parameter(None, (50, 20), fan_in=20)
        assert p.shape == (50, 20) and p.data.dtype == np.float64
        assert p.requires_grad and p.grad is None


class TestParams:
    def test_add_returns_value_and_keeps_declaration_order(self):
        class Inner(ad.Params):
            def __init__(self):
                super().__init__()
                self.a = self.add("a", ad.Tensor(np.zeros(2), requires_grad=True))
                self.b = self.add("b", ad.Tensor(np.zeros(3), requires_grad=True))

        class Outer(ad.Params):
            def __init__(self):
                super().__init__()
                self.w = self.add("w", ad.Tensor(np.zeros(1), requires_grad=True))
                self.inner = self.add("inner", Inner())
                self.z = self.add("z", ad.Tensor(np.zeros(4), requires_grad=True))

        outer = Outer()
        named = outer.parameters()
        assert [n for n, _ in named] == ["w", "inner.a", "inner.b", "z"]
        assert [t for _, t in named] == [outer.w, outer.inner.a, outer.inner.b, outer.z]
        assert [n for n, _ in outer.inner.parameters()] == ["a", "b"]
        named.clear()  # callers get a copy, not the registry itself
        assert len(outer.parameters()) == 4
