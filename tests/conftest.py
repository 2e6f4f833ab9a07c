"""Shared oracles for the test suite.

Everything here is deliberately independent of the library's fast paths:
gradients come from central finite differences, convolution and pooling
from explicit loops.  The library is compared against these, never the
other way round.
"""

import numpy as np
import pytest
from hypothesis import settings

# Every property test draws the same examples on every run: a test's own
# @settings sets only its max_examples.
settings.register_profile("intentmatch", derandomize=True, database=None, deadline=None)
settings.load_profile("intentmatch")


def central_difference_grad(loss_fn, param_data, h=1e-5):
    """Numerical dLoss/dParam, entry by entry, via central differences.

    `loss_fn` must return a float computed from the *current* contents of
    `param_data` (mutated in place and restored).
    """
    grad = np.zeros_like(param_data)
    flat = param_data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss_fn()
        flat[i] = orig - h
        lm = loss_fn()
        flat[i] = orig
        gflat[i] = (lp - lm) / (2.0 * h)
    return grad


def max_rel_err(a, b, floor=1e-3):
    """max |a-b| / max(|a|, |b|, floor) over all entries.

    The floor keeps finite-difference noise on near-zero gradients from
    registering as a relative error of 1.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def conv2d_loop(x, kernels, bias, stride=(1, 1)):
    """Brute-force valid cross-correlation. x: [N,C,H,W]."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = kernels.shape
    sh, sw = stride
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    out = np.zeros((n, cout, ho, wo))
    for ni in range(n):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = bias[o]
                    for c in range(cin):
                        for a in range(kh):
                            for b in range(kw):
                                acc += kernels[o, c, a, b] * x[ni, c, i * sh + a, j * sw + b]
                    out[ni, o, i, j] = acc
    return out


def conv2d_loop_backward(x, kernels, g_out, stride=(1, 1)):
    """Loop gradients of conv2d w.r.t. input, kernels and bias."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = kernels.shape
    sh, sw = stride
    ho, wo = g_out.shape[2], g_out.shape[3]
    gx = np.zeros_like(x)
    gk = np.zeros_like(kernels)
    gb = np.zeros(cout)
    for ni in range(n):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    g = g_out[ni, o, i, j]
                    gb[o] += g
                    for c in range(cin):
                        for a in range(kh):
                            for b in range(kw):
                                gk[o, c, a, b] += g * x[ni, c, i * sh + a, j * sw + b]
                                gx[ni, c, i * sh + a, j * sw + b] += g * kernels[o, c, a, b]
    return gx, gk, gb


def maxpool2d_loop(x, window, stride):
    """Brute-force max pooling over [N,C,H,W], dropping partial trailing windows."""
    n, c, h, w = x.shape
    ph, pw = window
    sh, sw = stride
    ho = (h - ph) // sh + 1
    wo = (w - pw) // sw + 1
    out = np.zeros((n, c, ho, wo))
    for ni in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    out[ni, ci, i, j] = x[ni, ci, i * sh : i * sh + ph, j * sw : j * sw + pw].max()
    return out


def maxpool2d_loop_backward(x, window, stride, g_out):
    """Route each output gradient to the first row-major max of its window."""
    n, c, h, w = x.shape
    ph, pw = window
    sh, sw = stride
    ho, wo = g_out.shape[2], g_out.shape[3]
    gx = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    block = x[ni, ci, i * sh : i * sh + ph, j * sw : j * sw + pw]
                    a, b = np.unravel_index(np.argmax(block), block.shape)
                    gx[ni, ci, i * sh + a, j * sw + b] += g_out[ni, ci, i, j]
    return gx


_ACCEPTANCE_RESULTS = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and "test_acceptance" in item.nodeid:
        _ACCEPTANCE_RESULTS.append((item.name, report.passed))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, passed in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {name}")
