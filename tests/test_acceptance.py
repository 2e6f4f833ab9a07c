"""Acceptance gate: one test per shipping criterion.

Each test is self-contained, runs at the scale its criterion states, and
asserts at the stated tolerance.  The conftest summary hook prints one
PASS/FAIL line per test here at the end of the run, so this module doubles
as the release checklist.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import (
    central_difference_grad,
    conv2d_loop,
    conv2d_loop_backward,
    max_rel_err,
    maxpool2d_loop,
    maxpool2d_loop_backward,
)
from intentmatch import autodiff as ad
from intentmatch.evaluation import (
    compute_metrics,
    evaluate,
    render_ablation_table,
    run_ablation_suite,
)
from intentmatch.model import (
    FusionParams,
    Model,
    ModelConfig,
    SelfMatchParams,
    SemanticMatchParams,
    char_interaction,
    fuse_and_score,
    multilabel_loss,
    self_match,
    semantic_match,
)
from intentmatch.synthetic import SyntheticConfig, generate_synthetic
from intentmatch.textdata import (
    CategorySet,
    Vocab,
    filter_labels_by_cdf,
    make_category_record,
    tokenize,
)
from intentmatch.training import (
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)


def tiny_dataset(seed=7):
    return generate_synthetic(
        SyntheticConfig(
            num_categories=3,
            vocab_size=24,
            queries_per_category=10,
            seed=seed,
            query_len_min=3,
            query_len_max=6,
        )
    )


def tiny_config(vocab, **overrides):
    defaults = dict(
        vocab_size=len(vocab),
        num_categories=3,
        d=4,
        l_q=8,
        l_c=8,
        encoder_layers=1,
        encoder_heads=2,
        conv_filters=2,
        conv_blocks=1,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def test_c1_full_network_gradient_check():
    """Every parameter's analytic gradient within 1e-4 of central
    differences on a small full-network forward, in under a minute."""
    t0 = time.monotonic()
    v = Vocab(list("abcdefgh"))
    config = ModelConfig(
        vocab_size=len(v),
        num_categories=3,
        d=8,
        l_q=6,
        l_c=8,
        encoder_layers=1,
        encoder_heads=2,
        conv_blocks=1,
    )
    model = Model(config, np.random.default_rng(11))
    # the mixer starts at zero by design; give it mass so gradient flows
    # through every module instead of stopping at the ReLU gate
    model.fusion.w_x.data[:] = np.random.default_rng(12).normal(size=(3, 3))
    cats = CategorySet(
        [
            make_category_record(v, 0, "ab", ["cd"]),
            make_category_record(v, 1, "ef", ["gh"]),
            make_category_record(v, 2, "ad", ["be", "cf"]),
        ]
    )
    s = tokenize("adbe", v)
    y = np.array([1.0, 0.0, 1.0])

    def loss_value():
        return multilabel_loss(model.forward(s, model.encode_categories(cats)), y).data.item()

    with ad.Tape() as tape:
        loss = multilabel_loss(model.forward(s, model.encode_categories(cats)), y)
    ad.backward(loss, tape)
    for name, tensor in model.parameters():
        numeric = central_difference_grad(loss_value, tensor.data)
        err = max_rel_err(tensor.grad, numeric)
        assert err < 1e-4, f"{name}: rel err {err}"
    assert time.monotonic() - t0 < 60.0


def test_c2_seven_ops_match_brute_force_oracles():
    """conv2d, maxpool2d, self_match, char_interaction, semantic_match,
    fuse_and_score and multilabel_loss against independent oracles, 100
    random instances each."""
    rng = np.random.default_rng(100)

    # conv2d: forward and all three gradients vs explicit loops
    for _ in range(100):
        n, cin = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        cout = int(rng.integers(1, 4))
        kh, kw = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        h, w = int(rng.integers(kh, kh + 4)), int(rng.integers(kw, kw + 4))
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        x = ad.Tensor(rng.normal(size=(n, cin, h, w)), requires_grad=True)
        k = ad.Tensor(rng.normal(size=(cout, cin, kh, kw)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=cout), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.conv2d(x, k, b, stride=stride)
            g = rng.normal(size=out.shape)
            loss = ad.reduce_sum(ad.mul(out, ad.Tensor(g)))
        np.testing.assert_allclose(
            out.data, conv2d_loop(x.data, k.data, b.data, stride=stride), atol=1e-10
        )
        ad.backward(loss, tape)
        gx, gk, gb = conv2d_loop_backward(x.data, k.data, g, stride=stride)
        np.testing.assert_allclose(x.grad, gx, atol=1e-10)
        np.testing.assert_allclose(k.grad, gk, atol=1e-10)
        np.testing.assert_allclose(b.grad, gb, atol=1e-10)

    # maxpool2d: forward and routed gradient vs explicit loops
    for _ in range(100):
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        ph, pw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h, w = int(rng.integers(ph, ph + 4)), int(rng.integers(pw, pw + 4))
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        x = ad.Tensor(rng.normal(size=(n, c, h, w)), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.maxpool2d(x, (ph, pw), stride)
            g = rng.normal(size=out.shape)
            loss = ad.reduce_sum(ad.mul(out, ad.Tensor(g)))
        np.testing.assert_allclose(
            out.data, maxpool2d_loop(x.data, (ph, pw), stride), atol=0
        )
        ad.backward(loss, tape)
        np.testing.assert_allclose(
            x.grad, maxpool2d_loop_backward(x.data, (ph, pw), stride, g), atol=0
        )

    # self_match: three-line direct formula
    for _ in range(100):
        L, d = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        tl = int(rng.integers(1, L + 1))
        q_rows = rng.normal(size=(L, d))
        p = SelfMatchParams(d, rng)
        got_q, got_alpha = self_match(ad.Tensor(q_rows), p, tl)
        u = (p.v.data @ np.tanh(p.w_q.data @ q_rows.T)).ravel()[:tl]
        e = np.exp(u - u.max())
        alpha = e / e.sum()
        np.testing.assert_allclose(got_alpha.data[:tl], alpha, atol=1e-12)
        assert np.all(got_alpha.data[tl:] == 0.0)
        np.testing.assert_allclose(got_q.data, alpha @ q_rows[:tl], atol=1e-12)

    # char_interaction: triple-loop bilinear map
    for _ in range(100):
        lq, lc, d = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(2, 5))
        q_rows, c_rows = rng.normal(size=(lq, d)), rng.normal(size=(lc, d))
        w_qc = rng.normal(size=(d, d))
        p = type("P", (), {"w_qc": ad.Tensor(w_qc)})()
        got = char_interaction(ad.Tensor(q_rows), ad.Tensor(c_rows), p).data
        want = np.zeros((lq, lc))
        for i in range(lq):
            for j in range(lc):
                for a in range(d):
                    for bdim in range(d):
                        want[i, j] += q_rows[i, a] * w_qc[a, bdim] * c_rows[j, bdim]
        np.testing.assert_allclose(got, want, atol=1e-12)

    # semantic_match: mean, bilinear, row softmax, matmul
    for _ in range(100):
        nc = int(rng.integers(1, 4))
        lq, lc, d = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(2, 5))
        tl = int(rng.integers(1, lq + 1))
        q_rows = rng.normal(size=(lq, d))
        cat_rows = [rng.normal(size=(lc, d)) for _ in range(nc)]
        cat_lengths = [int(rng.integers(1, lc + 1)) for _ in range(nc)]
        p = SemanticMatchParams(d, rng)
        got = semantic_match(
            ad.Tensor(q_rows),
            ad.Tensor(np.stack(cat_rows)),
            p,
            tl,
            cat_lengths,
        ).data
        c_mat = np.stack([c[:t].mean(axis=0) for c, t in zip(cat_rows, cat_lengths)])
        scores = (c_mat @ p.w_qs.data @ q_rows.T)[:, :tl]
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(got, attn @ q_rows[:tl], atol=1e-12)

    # fuse_and_score: direct formula on all three feature views
    for _ in range(100):
        d, nc = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        p = FusionParams(d, nc, "full", rng)
        p.w_x.data[:] = rng.normal(size=(nc, nc))
        q = rng.normal(size=d)
        z1, z2 = rng.normal(size=(nc, d)), rng.normal(size=(nc, d))
        got = fuse_and_score(ad.Tensor(q), ad.Tensor(z1), ad.Tensor(z2), p).data
        pre = q @ p.w_qf.data + (np.concatenate([z1, z2], axis=1) @ p.w_z.data).ravel()
        want = np.maximum(pre, 0.0) @ p.w_x.data
        np.testing.assert_allclose(got, want, atol=1e-12)

    # multilabel_loss: naive sigmoid-then-log form at moderate magnitudes
    for _ in range(100):
        nc = int(rng.integers(1, 8))
        z = rng.uniform(-10, 10, size=nc)
        y = rng.integers(0, 2, size=nc).astype(float)
        got = multilabel_loss(ad.Tensor(z), y).data.item()
        s = 1.0 / (1.0 + np.exp(-z))
        want = -np.sum(y * np.log(s) + (1 - y) * np.log(1 - s))
        assert abs(got - want) < 1e-9


def test_c3_zeroed_fusion_head_gives_90_ln2_per_example():
    """With the whole fusion head zeroed, every logit is zero and the
    initial per-example loss is 90*ln(2), within one percent of 62.383."""
    v = Vocab(list("abcdefghij"))
    config = ModelConfig(
        vocab_size=len(v),
        num_categories=90,
        d=8,
        l_q=6,
        l_c=8,
        encoder_layers=1,
        encoder_heads=2,
        conv_blocks=1,
    )
    model = Model(config, np.random.default_rng(3))
    for _, t in model.fusion.parameters():
        t.data[:] = 0.0
    rng = np.random.default_rng(4)
    letters = list("abcdefghij")
    cats = CategorySet(
        [
            make_category_record(v, i, "".join(rng.choice(letters, size=2)), [])
            for i in range(90)
        ]
    )
    enc = model.encode_categories(cats)
    losses = []
    for _ in range(4):
        text = "".join(rng.choice(letters, size=5))
        y = rng.integers(0, 2, size=90).astype(float)
        logits = model.forward(tokenize(text, v), enc)
        losses.append(multilabel_loss(logits, y).data.item())
    batch_loss = float(np.mean(losses))
    assert abs(batch_loss - 62.383) / 62.383 < 0.01
    assert abs(batch_loss - 90 * math.log(2)) < 1e-9


def test_c4_end_to_end_learning_benchmark():
    """Train the full model on the separable synthetic dataset (8
    categories, 2000 train / 400 test, d=32) and reach micro-F1 >= 0.95
    and macro-F1 >= 0.90 within 10 epochs and 15 minutes."""
    t0 = time.monotonic()
    data = generate_synthetic(SyntheticConfig())
    assert len(data.train) == 2000
    assert len(data.test) == 400
    config = ModelConfig(vocab_size=len(data.vocab), num_categories=8, d=32)
    model = Model(config, np.random.default_rng(42))
    history, _ = train(
        model,
        data.train,
        data.categories,
        TrainConfig(epochs=10, batch_size=32, lr=1e-3, seed=42),
    )
    report = evaluate(model, data.test, data.categories)
    elapsed = time.monotonic() - t0
    assert history[-1] < 0.25 * history[0]
    assert report.micro_f1 >= 0.95, f"micro-F1 {report.micro_f1:.4f}"
    assert report.macro_f1 >= 0.90, f"macro-F1 {report.macro_f1:.4f}"
    assert elapsed < 900.0, f"{elapsed:.0f}s"


def test_c5_ablation_suite_runs_and_full_row_reproduces_standalone():
    """All four variants train and report under one call; the full-model
    row is bit-for-bit the standalone full-model run under shared seed."""
    data = tiny_dataset()
    base = tiny_config(data.vocab)
    tcfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=5)
    results = run_ablation_suite(
        data.train, data.test, data.categories, base, tcfg, model_seed=9
    )
    assert [v for v, _, _ in results] == ["full", "no_self", "no_char", "no_semantic"]
    for _, report, history in results:
        headline = (
            report.micro_precision,
            report.micro_recall,
            report.micro_f1,
            report.macro_precision,
            report.macro_recall,
            report.macro_f1,
        )
        assert all(0.0 <= m <= 1.0 for m in headline)
        assert all(np.isfinite(history))
    rows = render_ablation_table(results).strip().split("\n")
    assert len(rows) == 5  # header + one row per variant
    standalone = Model(
        dataclasses.replace(base, variant="full"), np.random.default_rng(9)
    )
    history, _ = train(standalone, data.train, data.categories, tcfg)
    report = evaluate(standalone, data.test, data.categories)
    _, full_report, full_history = results[0]
    assert history == full_history
    assert report == full_report


def test_c6_metrics_match_hand_counted_worked_example():
    """|C|=2 worked example: micro-F1 0.8 and macro-F1 5/6 exactly."""
    golds = [[1, 0], [0, 1]]
    preds = [[1, 1], [0, 1]]
    r = compute_metrics(preds, golds)
    assert r.micro_precision == pytest.approx(2 / 3, abs=1e-15)
    assert r.micro_recall == 1.0
    assert r.micro_f1 == pytest.approx(0.8, abs=1e-15)
    assert r.macro_precision == pytest.approx(0.75, abs=1e-15)
    assert r.macro_recall == 1.0
    assert r.macro_f1 == pytest.approx(5 / 6, abs=1e-15)


def test_c7_seed_determinism_and_checkpoint_probe(tmp_path):
    """Same seed, same loss history; checkpoint round trip reproduces the
    probe forward bit for bit."""
    histories = []
    last_model = None
    for _ in range(2):
        data = tiny_dataset()
        model = Model(tiny_config(data.vocab), np.random.default_rng(1))
        history, _ = train(
            model,
            data.train,
            data.categories,
            TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=5),
        )
        histories.append(history)
        last_model = (model, data)
    assert histories[0] == histories[1]

    model, data = last_model
    probe = tokenize("abc", data.vocab)
    before = model.forward(probe, model.encode_categories(data.categories)).data.copy()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, data.vocab, data.categories)
    loaded = load_checkpoint(path, data.vocab, data.categories)
    after = loaded.model.forward(probe, loaded.model.encode_categories(data.categories)).data
    assert np.array_equal(before, after)


def test_c8_cdf_filter_worked_examples():
    """Hand-checked cumulative-mass filtering: {A,B,C} kept at 0.9, and
    exactly 9 of 10 uniform categories kept at 0.9."""
    kept = filter_labels_by_cdf({"A": 50, "B": 30, "C": 15, "D": 5}, 0.9)
    assert kept == {"A", "B", "C"}
    uniform = {f"c{i:02d}": 7 for i in range(10)}
    kept = filter_labels_by_cdf(uniform, 0.9)
    assert len(kept) == 9
    assert kept == set(sorted(uniform)[:9])
