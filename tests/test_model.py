"""Network tests: every matching module against an independent oracle."""

import numpy as np
import pytest

from conftest import central_difference_grad, conv2d_loop, max_rel_err, maxpool2d_loop
from intentmatch import autodiff as ad, model as model_module
from intentmatch.errors import ConfigError
from intentmatch.model import (
    CategoryEncodings,
    CharMatchParams,
    FusionParams,
    Model,
    ModelConfig,
    SelfMatchParams,
    SemanticMatchParams,
    VARIANTS,
    char_interaction,
    char_match,
    conv_stack_dims,
    flat_dim,
    fuse_and_score,
    multilabel_loss,
    receptive_extent,
    self_match,
    semantic_match,
)
from intentmatch.textdata import (
    CategorySet,
    Vocab,
    make_category_record,
    tokenize,
)


def masked_softmax_rows(scores, valid):
    """Oracle softmax: -inf masking, stabilized, exact zeros when masked."""
    s = np.where(valid, scores, -np.inf)
    s = s - s.max(axis=-1, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=-1, keepdims=True)


def self_match_oracle(q_mat, w_q, v, true_length):
    u = v @ np.tanh(w_q @ q_mat.T)
    valid = np.zeros_like(u, dtype=bool)
    valid[0, :true_length] = True
    alpha = masked_softmax_rows(u, valid)
    return (alpha @ q_mat)[0], alpha[0]


def semantic_match_oracle(q_mat, c_list, c_lengths, w_qs, true_length):
    c_mat = np.stack([c[:tl].mean(axis=0) for c, tl in zip(c_list, c_lengths)])
    scores = c_mat @ w_qs @ q_mat.T
    valid = np.zeros_like(scores, dtype=bool)
    valid[:, :true_length] = True
    return masked_softmax_rows(scores, valid) @ q_mat


def fusion_oracle(q, z1, z2, w_qf, w_z, w_x):
    pre = (np.concatenate([z1, z2], axis=1) @ w_z)[:, 0]
    if w_qf is not None:
        pre = q @ w_qf + pre
    return np.maximum(pre, 0.0) @ w_x


class TestSelfMatch:
    def test_single_token(self):
        rng = np.random.default_rng(0)
        p = SelfMatchParams(4, rng)
        q_mat = ad.Tensor(rng.normal(size=(1, 4)))
        pooled, alpha = self_match(q_mat, p, 1)
        assert np.array_equal(pooled.data, q_mat.data[0])
        assert alpha.data.tolist() == [1.0]

    def test_identical_rows_pool_to_that_row(self):
        rng = np.random.default_rng(1)
        p = SelfMatchParams(4, rng)
        w = rng.normal(size=4)
        q_mat = ad.Tensor(np.tile(w, (5, 1)))
        pooled, _ = self_match(q_mat, p, 5)
        assert np.allclose(pooled.data, w, atol=1e-12)

    def test_alpha_is_masked_distribution(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            length = int(rng.integers(2, 7))
            tl = int(rng.integers(1, length + 1))
            p = SelfMatchParams(4, rng)
            q_mat = ad.Tensor(rng.normal(size=(length, 4)))
            _, alpha = self_match(q_mat, p, tl)
            assert np.all(alpha.data >= 0)
            assert np.all(alpha.data[tl:] == 0)
            assert abs(alpha.data.sum() - 1.0) < 1e-12

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            length = int(rng.integers(1, 6))
            tl = int(rng.integers(1, length + 1))
            p = SelfMatchParams(d, rng)
            q_mat = ad.Tensor(rng.normal(size=(length, d)))
            pooled, alpha = self_match(q_mat, p, tl)
            want_q, want_a = self_match_oracle(q_mat.data, p.w_q.data, p.v.data, tl)
            assert np.allclose(pooled.data, want_q, atol=1e-12)
            assert np.allclose(alpha.data, want_a, atol=1e-12)


class TestCharInteraction:
    def test_identity_map_one_hot_rows_gives_overlap_matrix(self):
        d = 5
        q_ids = [0, 3, 3]
        c_ids = [3, 1, 0, 3]
        q_mat = ad.Tensor(np.eye(d)[q_ids])
        c_mat = ad.Tensor(np.eye(d)[c_ids])

        class P:
            w_qc = ad.Tensor(np.eye(d))

        m = char_interaction(q_mat, c_mat, P)
        want = (np.array(q_ids)[:, None] == np.array(c_ids)[None, :]).astype(float)
        assert np.array_equal(m.data, want)

    def test_zero_query_gives_zero_map(self):
        rng = np.random.default_rng(5)

        class P:
            w_qc = ad.Tensor(rng.normal(size=(4, 4)))

        m = char_interaction(ad.Tensor(np.zeros((3, 4))), ad.Tensor(rng.normal(size=(5, 4))), P)
        assert np.all(m.data == 0)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            lq = int(rng.integers(1, 5))
            lc = int(rng.integers(1, 5))
            q_mat = rng.normal(size=(lq, d))
            c_mat = rng.normal(size=(lc, d))
            w = rng.normal(size=(d, d))

            class P:
                w_qc = ad.Tensor(w)

            m = char_interaction(ad.Tensor(q_mat), ad.Tensor(c_mat), P).data
            want = np.zeros((lq, lc))
            for t in range(lq):
                for s in range(lc):
                    for a in range(d):
                        for b in range(d):
                            want[t, s] += q_mat[t, a] * w[a, b] * c_mat[s, b]
            assert np.allclose(m, want, atol=1e-12)


def tiny_char_config(**overrides):
    defaults = dict(
        vocab_size=8,
        num_categories=3,
        d=4,
        l_q=6,
        l_c=6,
        conv_filters=2,
        conv_blocks=1,
        encoder_layers=0,
        encoder_heads=1,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def char_match_oracle(m, params, config):
    x = m[:, None, :, :]
    for kernels, bias in zip(params.conv_kernels, params.conv_biases):
        x = np.maximum(conv2d_loop(x, kernels.data, bias.data, config.conv_stride), 0.0)
        x = maxpool2d_loop(x, config.pool_window, config.pool_stride)
    return x.reshape(m.shape[0], -1) @ params.projection.data


class TestCharMatch:
    def test_zero_maps_zero_biases_give_zero_features(self):
        cfg = tiny_char_config()
        p = CharMatchParams(cfg, np.random.default_rng(7))
        m = ad.Tensor(np.zeros((3, cfg.l_q, cfg.l_c)))
        z1 = char_match(m, p, cfg)
        assert np.all(z1.data == 0)

    def test_identical_channels_identical_rows(self):
        cfg = tiny_char_config()
        p = CharMatchParams(cfg, np.random.default_rng(8))
        one = np.random.default_rng(9).normal(size=(cfg.l_q, cfg.l_c))
        m = ad.Tensor(np.stack([one, one, one]))
        z1 = char_match(m, p, cfg).data
        assert np.array_equal(z1[0], z1[1])
        assert np.array_equal(z1[1], z1[2])

    def test_row_purity(self):
        """Perturbing one category's map leaves other rows bit-identical."""
        cfg = tiny_char_config()
        p = CharMatchParams(cfg, np.random.default_rng(10))
        base = np.random.default_rng(11).normal(size=(3, cfg.l_q, cfg.l_c))
        poked = base.copy()
        poked[1] += 0.7
        z_base = char_match(ad.Tensor(base), p, cfg).data
        z_poked = char_match(ad.Tensor(poked), p, cfg).data
        assert np.array_equal(z_base[0], z_poked[0])
        assert np.array_equal(z_base[2], z_poked[2])
        assert not np.array_equal(z_base[1], z_poked[1])

    def test_matches_composed_loop_oracle(self):
        cfg = tiny_char_config()
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = CharMatchParams(cfg, rng)
            m = rng.normal(size=(cfg.num_categories, cfg.l_q, cfg.l_c))
            got = char_match(ad.Tensor(m), p, cfg).data
            want = char_match_oracle(m, p, cfg)
            assert np.allclose(got, want, atol=1e-10)

    def test_two_block_default_arithmetic(self):
        cfg = ModelConfig(vocab_size=8, num_categories=2)
        assert conv_stack_dims(cfg) == [(7, 15), (2, 6)]
        assert flat_dim(cfg) == 8 * 2 * 6

    def test_receptive_extent_at_the_defaults(self):
        """The stack reads rows 0-13 and columns 0-29 of a 16x32 map."""
        assert receptive_extent(ModelConfig(vocab_size=8, num_categories=2)) == (14, 30)

    def test_collapsed_dims_name_the_block(self):
        with pytest.raises(ConfigError, match="block 2"):
            conv_stack_dims(ModelConfig(vocab_size=8, num_categories=2, l_q=8, l_c=8))

    @pytest.mark.parametrize("call, error, message", [
        (lambda: ad.conv2d(ad.Tensor(np.zeros((1, 1, 2, 5))), ad.Tensor(np.zeros((1, 1, 3, 3))),
                           ad.Tensor(np.zeros(1))),
         ad.DimensionError, "window 3x3 exceeds input 2x5; pad"),
        (lambda: ad.maxpool2d(ad.Tensor(np.zeros((1, 1, 5, 1))), (2, 2), (2, 2)),
         ad.DimensionError, "window 2x2 exceeds input 5x1; pad"),
        (lambda: conv_stack_dims(ModelConfig(vocab_size=8, num_categories=2, l_q=2)),
         ConfigError, "block 1: window 3x3 exceeds input 2x32"),
        (lambda: conv_stack_dims(ModelConfig(vocab_size=8, num_categories=2, l_q=4, l_c=8)),
         ConfigError, "block 2: window 3x3 exceeds input 1x3"),
        (lambda: conv_stack_dims(ModelConfig(vocab_size=8, num_categories=2, l_q=8, l_c=8)),
         ConfigError, "block 2: window 2x2 exceeds input 1x1"),
        # the rule is the config's own: no Model is needed to meet it
        (lambda: ModelConfig(vocab_size=8, num_categories=2, l_q=2),
         ConfigError, "block 1: window 3x3 exceeds input 2x32"),
    ], ids=["conv2d", "maxpool2d", "block-1-conv", "block-2-conv", "block-2-pool", "config"])
    def test_window_exceeding_its_input(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


class TestSemanticMatch:
    def test_constant_category_rows_mean_to_that_row(self):
        rng = np.random.default_rng(13)
        p = SemanticMatchParams(4, rng)
        w = rng.normal(size=4)
        c = ad.Tensor(np.tile(w, (6, 1)))
        q_mat = ad.Tensor(rng.normal(size=(3, 4)))
        z2 = semantic_match(q_mat, ad.Tensor(c.data[None]), p, 3, [6])
        want = semantic_match_oracle(q_mat.data, [c.data], [6], p.w_qs.data, 3)
        assert np.allclose(z2.data, want, atol=1e-12)

    def test_single_query_token_forces_attention(self):
        rng = np.random.default_rng(14)
        p = SemanticMatchParams(4, rng)
        q_mat = ad.Tensor(rng.normal(size=(1, 4)))
        cat_enc = ad.Tensor(rng.normal(size=(3, 5, 4)))
        z2 = semantic_match(q_mat, cat_enc, p, 1, [5, 5, 5])
        for row in z2.data:
            assert np.allclose(row, q_mat.data[0], atol=1e-12)

    def test_pad_query_positions_masked(self):
        rng = np.random.default_rng(15)
        p = SemanticMatchParams(4, rng)
        q_data = rng.normal(size=(5, 4))
        poked = q_data.copy()
        poked[3:] = 99.0
        cat_enc = ad.Tensor(rng.normal(size=(1, 4, 4)))
        a = semantic_match(ad.Tensor(q_data), cat_enc, p, 3, [4]).data
        b = semantic_match(ad.Tensor(poked), cat_enc, p, 3, [4]).data
        assert np.array_equal(a, b)

    def test_rows_inside_query_envelope(self):
        """Each Z2 row is a convex mix of valid query rows."""
        rng = np.random.default_rng(16)
        for _ in range(50):
            lq = int(rng.integers(1, 6))
            tl = int(rng.integers(1, lq + 1))
            p = SemanticMatchParams(3, rng)
            q_mat = ad.Tensor(rng.normal(size=(lq, 3)))
            cat_enc = ad.Tensor(rng.normal(size=(2, 4, 3)))
            z2 = semantic_match(q_mat, cat_enc, p, tl, [4, 4]).data
            lo = q_mat.data[:tl].min(axis=0) - 1e-12
            hi = q_mat.data[:tl].max(axis=0) + 1e-12
            assert np.all(z2 >= lo) and np.all(z2 <= hi)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            lq = int(rng.integers(1, 6))
            tl = int(rng.integers(1, lq + 1))
            n = int(rng.integers(1, 4))
            p = SemanticMatchParams(d, rng)
            q_mat = rng.normal(size=(lq, d))
            lens = [int(rng.integers(1, 5)) for _ in range(n)]
            c_list = [rng.normal(size=(4, d)) for _ in range(n)]
            got = semantic_match(ad.Tensor(q_mat), ad.Tensor(np.stack(c_list)), p, tl, lens).data
            want = semantic_match_oracle(q_mat, c_list, lens, p.w_qs.data, tl)
            assert np.allclose(got, want, atol=1e-12)


class TestFuseAndScore:
    def test_all_zero_params_zero_logits(self):
        rng = np.random.default_rng(18)
        p = FusionParams(4, 3, "full", rng)
        for _, t in p.parameters():
            t.data[:] = 0.0
        q = ad.Tensor(rng.normal(size=4))
        z1 = ad.Tensor(rng.normal(size=(3, 4)))
        z2 = ad.Tensor(rng.normal(size=(3, 4)))
        assert np.all(fuse_and_score(q, z1, z2, p).data == 0)

    def test_relu_gate_kills_negative_preactivations(self):
        rng = np.random.default_rng(19)
        p = FusionParams(2, 3, "full", rng)
        p.w_z.data[:] = 0.0
        p.w_x.data[:] = np.eye(3)
        p.w_qf.data[:] = -np.abs(p.w_qf.data)  # all-negative columns
        q = ad.Tensor(np.abs(rng.normal(size=2)) + 0.1)
        z = ad.Tensor(np.zeros((3, 2)))
        assert np.all(fuse_and_score(q, z, z, p).data == 0)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, 5))
            p = FusionParams(d, n, "full", rng)
            p.w_x.data[:] = rng.normal(size=(n, n))  # mixer starts at zero
            q = rng.normal(size=d)
            z1 = rng.normal(size=(n, d))
            z2 = rng.normal(size=(n, d))
            got = fuse_and_score(ad.Tensor(q), ad.Tensor(z1), ad.Tensor(z2), p).data
            want = fusion_oracle(q, z1, z2, p.w_qf.data, p.w_z.data, p.w_x.data)
            assert np.allclose(got, want, atol=1e-12)


class TestMultilabelLoss:
    def test_zero_logits_is_labels_times_ln2(self):
        logits = ad.Tensor(np.zeros(90))
        y = np.random.default_rng(21).integers(0, 2, size=90)
        loss = multilabel_loss(logits, y)
        assert abs(loss.data.item() - 90 * np.log(2)) < 1e-12

    def test_saturated_positive(self):
        loss = multilabel_loss(ad.Tensor(np.array([20.0])), np.array([1.0]))
        assert 0 <= loss.data.item() < 1e-8

    def test_matches_naive_oracle_at_moderate_logits(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            z = rng.uniform(-10, 10, size=n)
            y = rng.integers(0, 2, size=n).astype(float)
            got = multilabel_loss(ad.Tensor(z), y).data.item()
            sig = 1.0 / (1.0 + np.exp(-z))
            want = -np.sum(y * np.log(sig) + (1 - y) * np.log(1 - sig))
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            z = rng.uniform(-30, 30, size=6)
            y = rng.integers(0, 2, size=6).astype(float)
            assert multilabel_loss(ad.Tensor(z), y).data.item() >= 0

    def test_finite_at_extreme_logits_where_naive_overflows(self):
        z = np.array([1e4, -1e4])
        y = np.array([0.0, 1.0])
        with np.errstate(over="ignore", divide="ignore"):
            sig = 1.0 / (1.0 + np.exp(-z))
            naive = -np.log(1 - sig[0])
        assert not np.isfinite(naive)  # the unstabilized form breaks here
        got = multilabel_loss(ad.Tensor(z), y).data.item()
        assert np.isfinite(got)
        assert got == pytest.approx(2e4, rel=1e-12)

    @pytest.mark.parametrize("batch", [1, 2, 7, 32])
    def test_zero_logits_give_n_ln2_for_every_batch_size(self, batch):
        y = np.random.default_rng(24).integers(0, 2, size=(batch, 90))
        loss = multilabel_loss(ad.Tensor(np.zeros((batch, 90))), y)
        assert loss.shape == ()
        assert abs(loss.data.item() - 90 * np.log(2)) < 1e-12

    @pytest.mark.parametrize("batch", [1, 3, 32])
    def test_batch_is_the_mean_of_its_single_query_losses(self, batch):
        rng = np.random.default_rng(25)
        z = rng.uniform(-30, 30, size=(batch, 8))
        y = rng.integers(0, 2, size=(batch, 8)).astype(float)
        got = multilabel_loss(ad.Tensor(z), y).data.item()
        want = np.mean([multilabel_loss(ad.Tensor(zr), yr).data.item() for zr, yr in zip(z, y)])
        assert abs(got - want) <= 1e-12 * abs(want)


def build_tiny_model(variant="full", seed=0, **overrides):
    defaults = dict(
        vocab_size=10,
        num_categories=3,
        d=4,
        l_q=6,
        l_c=8,
        encoder_layers=1,
        encoder_heads=2,
        conv_filters=2,
        conv_blocks=1,
        variant=variant,
    )
    defaults.update(overrides)
    cfg = ModelConfig(**defaults)
    return Model(cfg, np.random.default_rng(seed))


def tiny_cats(vocab):
    return CategorySet(
        [
            make_category_record(vocab, 0, "ab", ["c"]),
            make_category_record(vocab, 1, "cd", ["d"]),
            make_category_record(vocab, 2, "bc", []),
        ]
    )


class TestForward:
    def test_logit_vector_length(self):
        v = Vocab(list("abcdefgh"))
        model = build_tiny_model()
        cats = tiny_cats(v)
        logits = model.forward(tokenize("ad", v), model.encode_categories(cats))
        assert logits.shape == (3,)
        assert np.all(np.isfinite(logits.data))

    def test_deterministic(self):
        v = Vocab(list("abcdefgh"))
        model = build_tiny_model()
        cats = tiny_cats(v)
        s = tokenize("ad", v)
        a = model.forward(s, model.encode_categories(cats)).data
        b = model.forward(s, model.encode_categories(cats)).data
        assert np.array_equal(a, b)

    def test_category_permutation_permutes_outputs(self):
        """Reordering categories permutes Z rows and, with the
        category-indexed head permuted alongside and W_x = I, logits."""
        v = Vocab(list("abcdefgh"))
        model = build_tiny_model(seed=4)
        model.fusion.w_x.data[:] = np.eye(3)
        cats = tiny_cats(v)
        perm = [2, 0, 1]
        permed = CategorySet(
            [
                make_category_record(v, i, cats[p].name, cats[p].product_words)
                for i, p in enumerate(perm)
            ]
        )
        s = tokenize("ad", v)
        base = model.forward(s, model.encode_categories(cats)).data.copy()
        model.fusion.w_qf.data[:] = model.fusion.w_qf.data[:, perm]
        permuted = model.forward(s, model.encode_categories(permed)).data
        assert np.allclose(permuted, base[perm], atol=1e-12)

    def test_query_longer_than_l_q_scores_as_its_first_l_q_ids(self):
        v = Vocab(list("abcdefgh"))
        model = build_tiny_model(seed=4)
        model.fusion.w_x.data[:] = np.random.default_rng(5).normal(size=(3, 3))
        enc = model.encode_categories(tiny_cats(v))
        long = tokenize("abcdefghab", v)
        assert len(long) > model.config.l_q
        want = model.forward(long[: model.config.l_q], enc).data
        assert np.any(want != 0)
        np.testing.assert_array_equal(model.forward(long, enc).data, want)
        batch = model.forward([long, long[:3]], enc).data
        cut = model.forward([long[: model.config.l_q], long[:3]], enc).data
        np.testing.assert_array_equal(batch, cut)

    def test_empty_query_batch_rejected(self):
        v = Vocab(list("abcdefgh"))
        model = build_tiny_model()
        with pytest.raises(ConfigError, match="empty"):
            model.forward([], model.encode_categories(tiny_cats(v)))

    def test_empty_id_array_rejected(self):
        """An empty query would be scored with every position masked."""
        v = Vocab(list("abcdefgh"))
        model = build_tiny_model()
        enc = model.encode_categories(tiny_cats(v))
        empty = np.array([], dtype=np.int64)
        with pytest.raises(ConfigError, match="sequence 0 of the batch is empty"):
            model.forward(empty, enc)
        with pytest.raises(ConfigError, match="sequence 1 of the batch is empty"):
            model.forward([tokenize("ad", v), empty], enc)

    def test_category_count_mismatch_rejected(self):
        v = Vocab(list("abcdefgh"))
        model = build_tiny_model(num_categories=4)
        with pytest.raises(ConfigError, match="4"):
            model.encode_categories(tiny_cats(v))

    def test_finite_difference_model_heads(self):
        """Gradcheck the matching modules with a 0-layer encoder."""
        v = Vocab(list("abcdefgh"))
        model = build_tiny_model(encoder_layers=0, seed=2)
        rng = np.random.default_rng(3)
        model.fusion.w_x.data[:] = rng.normal(size=(3, 3))  # unblock the gate
        cats = tiny_cats(v)
        s = tokenize("adbe", v)
        y = np.array([1.0, 0.0, 1.0])

        def loss_value():
            logits = model.forward(s, model.encode_categories(cats))
            return multilabel_loss(logits, y).data.item()

        with ad.Tape() as tape:
            loss = multilabel_loss(model.forward(s, model.encode_categories(cats)), y)
        ad.backward(loss, tape)
        for name, tensor in model.parameters():
            numeric = central_difference_grad(loss_value, tensor.data)
            err = max_rel_err(tensor.grad, numeric)
            assert err < 1e-6, f"{name}: rel err {err}"


class TestReceptiveCut:
    """Model.forward feeds char matching only the tokens its stack reads."""

    def run(self, monkeypatch, q_poke=None, c_poke=None):
        """z1, the query encodings and the category encodings of one forward.

        `q_poke`/`c_poke` (a row index) add 5.0 to that row and every later
        one of the query/category encodings before matching.
        """
        v = Vocab(list("abcdefgh"))
        model = build_tiny_model(l_q=16, l_c=32, conv_blocks=2)
        assert receptive_extent(model.config) == (14, 30)
        cats = model.encode_categories(tiny_cats(v))
        if c_poke is not None:
            data = cats.tensors.data.copy()
            data[:, c_poke:] += 5.0
            cats = CategoryEncodings(ad.Tensor(data), cats.lengths)
        seen = {}
        real_encode, real_fuse = model_module.encode, model_module.fuse_and_score

        def encode(*args):
            data = real_encode(*args).data.copy()
            if q_poke is not None:
                data[:, q_poke:] += 5.0
            seen["q_enc"] = ad.Tensor(data)
            return seen["q_enc"]

        def fuse(q, z1, z2, params):
            seen["z1"] = z1.data
            return real_fuse(q, z1, z2, params)

        with monkeypatch.context() as patch:
            patch.setattr(model_module, "encode", encode)
            patch.setattr(model_module, "fuse_and_score", fuse)
            model.forward([tokenize("abcdefghabcdefgh", v), tokenize("ad", v)], cats)
        return seen["z1"], seen["q_enc"], cats, model

    def test_rows_past_the_extent_leave_z1_bit_identical(self, monkeypatch):
        base, *_ = self.run(monkeypatch)
        for poke in (dict(q_poke=14), dict(c_poke=30)):
            np.testing.assert_array_equal(self.run(monkeypatch, **poke)[0], base)
        for poke in (dict(q_poke=13), dict(c_poke=29)):
            assert not np.array_equal(self.run(monkeypatch, **poke)[0], base)

    def test_z1_matches_the_uncut_maps(self, monkeypatch):
        z1, q_enc, cats, model = self.run(monkeypatch)
        b, lq, d = q_enc.shape
        maps = char_interaction(ad.reshape(q_enc, (b, 1, lq, d)), cats.tensors, model.char_params)
        want = char_match(maps, model.char_params, model.config).data
        assert np.abs(z1 - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


class TestAblations:
    def test_each_ablation_runs_and_scores(self):
        v = Vocab(list("abcdefgh"))
        cats = tiny_cats(v)
        s = tokenize("ad", v)
        for variant in ("no_self", "no_char", "no_semantic"):
            model = build_tiny_model(variant=variant)
            logits = model.forward(s, model.encode_categories(cats))
            assert logits.shape == (3,)
            assert np.all(np.isfinite(logits.data))

    def test_ablations_have_strictly_fewer_parameters(self):
        def size(model):
            return sum(t.size for _, t in model.parameters())

        full = size(build_tiny_model("full"))
        for variant in ("no_self", "no_char", "no_semantic"):
            assert size(build_tiny_model(variant)) < full

    def test_ablated_module_params_absent(self):
        names = {
            variant: [n for n, _ in build_tiny_model(variant).parameters()]
            for variant in ("full", "no_self", "no_char", "no_semantic")
        }
        assert any(n.startswith("self_match.") for n in names["full"])
        assert not any(n.startswith("self_match.") for n in names["no_self"])
        assert not any(n.startswith("char_match.") for n in names["no_char"])
        assert not any(n.startswith("semantic_match.") for n in names["no_semantic"])

    def test_no_self_logits_ignore_query_beyond_matching(self):
        """Without self-matching there is no q path: w_qf is gone and the
        fusion width shrinks to cover Z1 and Z2 only."""
        model = build_tiny_model("no_self")
        assert model.fusion.w_qf is None
        assert model.fusion.w_z.shape == (2 * model.config.d, 1)
        narrow = build_tiny_model("no_char")
        assert narrow.fusion.w_z.shape == (model.config.d, 1)


# true lengths 1, l_q (truncated), 2, 1 and l_q
MIXED_QUERIES = ("a", "abcdefgh", "ad", "h", "bcdefg")


class TestBatchedForward:
    @pytest.mark.parametrize("batch_size", [1, len(MIXED_QUERIES)])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batched_logits_equal_per_query_forward(self, variant, batch_size):
        v = Vocab(list("abcdefgh"))
        model = build_tiny_model(variant=variant, seed=10)
        model.fusion.w_x.data[:] = np.random.default_rng(7).normal(size=(3, 3))
        enc = model.encode_categories(tiny_cats(v))
        queries = [tokenize(t, v) for t in MIXED_QUERIES[:batch_size]]
        got = model.forward(queries, enc).data
        assert got.shape == (batch_size, 3)
        assert np.any(got != 0)
        for row, query in zip(got, queries):
            want = model.forward(query, enc).data
            assert np.abs(row - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    def test_finite_difference_batched_loss(self):
        """Gradcheck every parameter through one B=3 batched forward."""
        v = Vocab(list("abcdefgh"))
        model = build_tiny_model(seed=8)
        rng = np.random.default_rng(9)
        model.fusion.w_x.data[:] = rng.normal(size=(3, 3))  # unblock the gate
        cats = tiny_cats(v)
        queries = [tokenize(t, v) for t in ("a", "adbe", "hgfedc")]
        y = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])

        def batch_loss():
            return multilabel_loss(model.forward(queries, model.encode_categories(cats)), y)

        with ad.Tape() as tape:
            loss = batch_loss()
        ad.backward(loss, tape)
        for name, tensor in model.parameters():
            numeric = central_difference_grad(lambda: batch_loss().data.item(), tensor.data)
            err = max_rel_err(tensor.grad, numeric)
            assert err < 1e-6, f"{name}: rel err {err}"
