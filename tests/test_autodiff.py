"""Tensor engine tests: op semantics, gradients vs finite differences,
and brute-force oracle equivalence for conv2d/maxpool2d."""

import mpmath
import numpy as np
import pytest

from intentmatch import autodiff as ad
from conftest import (
    central_difference_grad,
    conv2d_loop,
    conv2d_loop_backward,
    max_rel_err,
    maxpool2d_loop,
    maxpool2d_loop_backward,
)


def scalar_loss(t):
    """sum of squares / 2 — a convenient scalar head for gradient checks."""
    return ad.reduce_sum(ad.mul(t, t)) * 0.5


def check_grad_fd(build_loss, params, floor=1e-3, tol=1e-6, h=1e-5):
    """Analytic grads of `build_loss()` vs central differences, per param."""
    with ad.Tape() as tape:
        loss = build_loss()
    ad.backward(loss, tape)
    for p in params:
        fd = central_difference_grad(lambda: build_loss().item(), p.data, h=h)
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
        out = ad.softmax(ad.Tensor([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_single_element_axis(self):
        out = ad.softmax(ad.Tensor([5.0]), axis=0)
        np.testing.assert_allclose(out.data, [1.0], atol=0)

    def test_against_high_precision_formula(self):
        x = [1.0, 2.0, 3.0]
        with mpmath.workdps(50):
            es = [mpmath.exp(v - 3.0) for v in x]
            total = sum(es)
            expected = np.array([float(e / total) for e in es])
        out = ad.softmax(ad.Tensor(x), axis=0)
        np.testing.assert_allclose(out.data, expected, rtol=1e-14)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.normal(size=(5, 7)) * 40.0)
        out = ad.softmax(x, axis=1)
        assert np.all(out.data >= 0.0)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_large_inputs_do_not_overflow(self):
        out = ad.softmax(ad.Tensor([1e4, 1e4 - 1.0]), axis=0)
        assert np.all(np.isfinite(out.data))

    def test_mask_produces_exact_zeros(self):
        x = ad.Tensor([[1.0, 2.0, 3.0, 4.0]])
        mask = np.array([True, True, False, False])
        out = ad.softmax(x, axis=1, mask=mask)
        assert out.data[0, 2] == 0.0 and out.data[0, 3] == 0.0
        np.testing.assert_allclose(out.data[0, :2].sum(), 1.0, atol=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(2)
        x = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = rng.normal(size=(3, 5))  # weights break the sum-to-one degeneracy

        def build():
            return ad.reduce_sum(ad.mul(ad.softmax(x, axis=1), ad.Tensor(w)))

        check_grad_fd(build, [x])

    def test_masked_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        mask = np.array([True, True, True, True, False, False])
        w = rng.normal(size=(2, 6))

        def build():
            return ad.reduce_sum(ad.mul(ad.softmax(x, axis=1, mask=mask), ad.Tensor(w)))

        check_grad_fd(build, [x])


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

    def test_softplus_gradient_vs_finite_differences(self):
        """softplus backward is the stable sigmoid."""
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.normal(size=(7,)), requires_grad=True)
        check_grad_fd(lambda: scalar_loss(ad.softplus(x)), [x])

    def test_relu_gradient_away_from_kink(self):
        x = ad.Tensor(np.array([-2.0, -0.5, 0.5, 3.0]), requires_grad=True)
        check_grad_fd(lambda: scalar_loss(ad.relu(x)), [x])

    def test_relu_derivative_at_zero_is_zero(self):
        x = ad.Tensor([0.0], requires_grad=True)
        with ad.Tape() as tape:
            out = ad.reduce_sum(ad.relu(x))
        ad.backward(out, tape)
        assert x.grad[0] == 0.0

    def test_softplus_matches_log1p_exp(self):
        x = np.linspace(-8.0, 8.0, 41)
        out = ad.softplus(ad.Tensor(x))
        np.testing.assert_allclose(out.data, np.log1p(np.exp(x)), rtol=1e-12)

    def test_softplus_finite_at_extreme_logits(self):
        out = ad.softplus(ad.Tensor([1e4, -1e4]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[0], 1e4)
        assert out.data[1] == 0.0


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
            loss = ad.reduce_sum(ad.mul(out, w))
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
            loss = ad.reduce_sum(ad.mul(out, w))
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
            loss = ad.reduce_sum(ad.mul(out, w))
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(out.data, maxpool2d_loop(x.data, (2, 2), (2, 2)))
        ad.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, maxpool2d_loop_backward(x.data, (2, 2), (2, 2), w.data))
        assert x.grad.sum() == pytest.approx(w.data.sum(), abs=0)

    def test_tie_routes_to_first_row_major_position(self):
        x = ad.Tensor(np.array([[[[5.0, 5.0], [5.0, 5.0]]]]), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.reduce_sum(ad.maxpool2d(x, (2, 2), (2, 2)))
        ad.backward(out, tape)
        np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_overlapping_windows_accumulate(self):
        rng = np.random.default_rng(10)
        x = ad.Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.maxpool2d(x, (2, 2), (1, 1))
            w = ad.Tensor(rng.normal(size=out.shape))
            loss = ad.reduce_sum(ad.mul(out, w))
        ad.backward(loss, tape)
        np.testing.assert_allclose(
            x.grad, maxpool2d_loop_backward(x.data, (2, 2), (1, 1), w.data), atol=0
        )


def batch_innermost_view(a):
    """The [N,C,H,W] view of a contiguous [C,H,W,N] copy of `a`."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


# Inputs for the batch-innermost conv/pool paths: (name, input, stride,
# x requires grad, _COLUMN_ELEMS override or None).
_LAYOUT_CASES = [
    (
        "batch_innermost",
        lambda rng: batch_innermost_view(rng.normal(size=(3, 2, 6, 7))), (1, 1), True, None,
    ),
    ("stride_2_3", lambda rng: rng.normal(size=(2, 2, 7, 8)), (2, 3), True, None),
    ("one_map", lambda rng: rng.normal(size=(1, 2, 6, 7)), (1, 1), True, None),
    ("no_grad_input", lambda rng: rng.normal(size=(3, 2, 6, 7)), (1, 1), False, None),
    # columns of two maps (2 channels x 3x2 kernel x 4x6 outputs) per slice: 3 slices
    ("several_n_slices", lambda rng: rng.normal(size=(5, 2, 6, 7)), (1, 1), True, 2 * (2 * 6 * 24)),
]


class TestBatchInnermostConvPool:
    """The batch-innermost conv2d/maxpool2d against the loop oracles, at C2's
    tolerances (1e-10 for conv2d, exact for maxpool2d)."""

    @pytest.mark.parametrize(
        "make_x, stride, x_grad, column_elems",
        [case[1:] for case in _LAYOUT_CASES],
        ids=[case[0] for case in _LAYOUT_CASES],
    )
    def test_conv2d_matches_loop_oracle(self, monkeypatch, make_x, stride, x_grad, column_elems):
        if column_elems is not None:
            monkeypatch.setattr(ad, "_COLUMN_ELEMS", column_elems)
        rng = np.random.default_rng(21)
        x = ad.Tensor(make_x(rng), requires_grad=x_grad)
        k = ad.Tensor(rng.normal(size=(3, 2, 3, 2)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=3), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.conv2d(x, k, b, stride=stride)
            w = ad.Tensor(rng.normal(size=out.shape))
            loss = ad.reduce_sum(ad.mul(out, w))
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
        [case[1:4] for case in _LAYOUT_CASES if case[4] is None],
        ids=[case[0] for case in _LAYOUT_CASES if case[4] is None],
    )
    def test_maxpool2d_matches_loop_oracle(self, make_x, stride, x_grad):
        rng = np.random.default_rng(22)
        x = ad.Tensor(make_x(rng), requires_grad=x_grad)
        with ad.Tape() as tape:
            # times one, so a taped input reaches the pool as an intermediate
            out = ad.maxpool2d(ad.mul(x, ad.Tensor(np.ones(1))), (2, 3), stride)
            w = ad.Tensor(rng.normal(size=out.shape))
            loss = ad.reduce_sum(ad.mul(out, w))
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
            loss = ad.reduce_sum(out)  # NaN, but backward still seeds every window with 1
        assert np.isnan(out.data[0, 0, 0, 0])
        np.testing.assert_array_equal(out.data[0, 0, 0, 1], 7.0)
        ad.backward(loss, tape)
        np.testing.assert_array_equal(x.grad[0, 0, :2, :2], 0.0)
        assert x.grad.sum() == 3.0

    def test_3d_input_rejected(self):
        x = ad.Tensor(np.zeros((2, 6, 7)))
        with pytest.raises(ad.DimensionError, match=r"4D \[N,C,H,W\]"):
            ad.conv2d(x, ad.Tensor(np.zeros((3, 2, 3, 2))), None)
        with pytest.raises(ad.DimensionError, match=r"4D \[N,C,H,W\]"):
            ad.maxpool2d(x, (2, 2), (2, 2))

    def test_conv_pool_relu_stay_batch_innermost(self):
        rng = np.random.default_rng(23)
        x = ad.Tensor(rng.normal(size=(4, 1, 8, 9)), requires_grad=True)
        k1 = ad.Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
        k2 = ad.Tensor(rng.normal(size=(3, 2, 2, 2)), requires_grad=True)
        with ad.Tape():
            c1 = ad.conv2d(x, k1, None)
            r1 = ad.relu(ad.maxpool2d(c1, (2, 2), (2, 2)))
            c2 = ad.conv2d(r1, k2, None)
        for t in (c1, r1, c2):
            assert t.data.transpose(1, 2, 3, 0).flags.c_contiguous


class TestReduce:
    def test_mean_axis0(self):
        out = ad.reduce_mean(ad.Tensor([[1.0, 3.0], [5.0, 7.0]]), axis=0)
        np.testing.assert_array_equal(out.data, [3.0, 5.0])

    def test_sum_of_zeros(self):
        assert ad.reduce_sum(ad.Tensor(np.zeros((3, 3)))).item() == 0.0

    def test_mean_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        x = ad.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = rng.normal(size=5)

        def build():
            return ad.reduce_sum(ad.mul(ad.reduce_mean(x, axis=0), ad.Tensor(w)))

        check_grad_fd(build, [x], tol=1e-8)


class TestBackward:
    def test_sum_gives_ones(self):
        w = ad.Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.reduce_sum(w)
        ad.backward(loss, tape)
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))

    def test_quadratic_gives_w(self):
        rng = np.random.default_rng(12)
        w = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.reduce_sum(ad.mul(w, w)) * 0.5
        ad.backward(loss, tape)
        np.testing.assert_allclose(w.grad, w.data, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.mul(w, w)
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(out, tape)

    def test_repeated_backward_accumulates_on_leaves(self):
        w = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.reduce_sum(ad.mul(w, w))
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
            loss = ad.reduce_sum(ad.tanh(h) * h)
        ad.backward(loss, tape)
        once = [t.grad.copy() for t in (x, k, b)]
        ad.backward(loss, tape)
        for t, g in zip((x, k, b), once):
            np.testing.assert_array_equal(t.grad, 2.0 * g)

    def test_intermediate_grad_is_none_after_backward(self):
        w = ad.Tensor(np.arange(1.0, 5.0), requires_grad=True)
        with ad.Tape() as tape:
            h = ad.mul(w, w)
            loss = ad.reduce_sum(ad.tanh(h))
        assert all(node.output.grad is None for node in tape.nodes)
        ad.backward(loss, tape)
        assert h.grad is None and loss.grad is None
        assert all(node.output.grad is None for node in tape.nodes)
        assert np.all(w.grad != 0.0)

    def test_branch_off_the_loss_leaves_leaf_gradients_zero(self):
        w = ad.Tensor(np.ones(3), requires_grad=True)
        unused = ad.Tensor(np.full(3, 2.0), requires_grad=True)
        with ad.Tape() as tape:
            side = ad.reduce_sum(ad.tanh(ad.mul(unused, w)))  # never reaches loss
            loss = ad.reduce_sum(ad.mul(w, w))
        ad.backward(loss, tape)
        np.testing.assert_array_equal(unused.grad, 0.0)
        np.testing.assert_array_equal(w.grad, 2.0)
        assert side.grad is None

    def test_add_operands_get_separate_gradient_buffers(self):
        x = ad.Tensor(np.array([0.3, -0.7]), requires_grad=True)
        with ad.Tape() as tape:
            a = x * 2.0
            b = x * 3.0
            c = ad.tanh(a)  # a gets a second gradient after the add hands one to b
            loss = ad.reduce_sum(a + b) + ad.reduce_sum(c)
        ad.backward(loss, tape)
        want = 5.0 + 2.0 * (1.0 - np.tanh(2.0 * x.data) ** 2)
        np.testing.assert_allclose(x.grad, want, atol=1e-15)

    def test_shared_input_used_twice(self):
        x = ad.Tensor([2.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.reduce_sum(ad.mul(x, x))  # d/dx x^2 = 2x
        ad.backward(loss, tape)
        np.testing.assert_allclose(x.grad, [4.0])

    def test_no_tape_means_no_graph(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        out = ad.mul(x, x)
        assert not out.requires_grad and out.grad is None


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

    def test_embedding_gradient_hits_used_rows_only(self):
        rng = np.random.default_rng(16)
        table = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        ids = np.array([1, 3, 3, 0])
        with ad.Tape() as tape:
            loss = ad.reduce_sum(ad.embedding(table, ids))
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

    def test_div_gradient(self):
        rng = np.random.default_rng(18)
        a = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        b = ad.Tensor(rng.uniform(1.0, 2.0, size=(3, 3)), requires_grad=True)
        check_grad_fd(lambda: scalar_loss(ad.div(a, b)), [a, b])

    def test_sqrt_gradient(self):
        x = ad.Tensor(np.array([0.5, 1.5, 4.0]), requires_grad=True)
        check_grad_fd(lambda: scalar_loss(ad.sqrt(x)), [x])


class TestDeterminism:
    def test_identical_inputs_bitwise_identical_outputs(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(4, 4))
        a = ad.softmax(ad.Tensor(x), axis=1).data
        b = ad.softmax(ad.Tensor(x.copy()), axis=1).data
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
