"""Encoder tests: degenerate stack algebra, masking, gradients, sharing."""

from typing import NamedTuple

import numpy as np
import pytest

from conftest import central_difference_grad, max_rel_err, weighted_sum
from intentmatch import autodiff as ad
from intentmatch.encoder import EncoderParams, encode
from intentmatch.errors import ConfigError, VocabError
from intentmatch.model import Model, ModelConfig
from intentmatch.textdata import (
    CategorySet,
    Vocab,
    make_category_record,
    pad_batch,
    tokenize,
)


def tiny_params(seed=0, **overrides):
    defaults = dict(
        vocab_size=8, num_categories=1, d=4, encoder_layers=1, encoder_heads=2,
        encoder_ffn=8, l_q=6, l_c=6,
        conv_blocks=1, conv_window=(1, 1), pool_window=(1, 1), pool_stride=(1, 1),
    )
    defaults.update(overrides)
    return EncoderParams(ModelConfig(**defaults), np.random.default_rng(seed))


def tiny_model(vocab, num_categories):
    config = ModelConfig(
        vocab_size=len(vocab), num_categories=num_categories, d=4, l_q=5, l_c=5,
        encoder_layers=1, encoder_heads=2, encoder_ffn=8, conv_filters=2, conv_blocks=1,
    )
    return Model(config, np.random.default_rng(0))


class Seq(NamedTuple):
    """Raw `encode` input: ids, and a true length past which the ids may hold anything."""

    ids: np.ndarray
    true_length: int


def seq(ids, true_length=None):
    ids = np.asarray(ids, dtype=np.int64)
    return Seq(ids, len(ids) if true_length is None else true_length)


def encode_one(s, p):
    """The [L, d] rows of one sequence, encoded as a batch of one."""
    out = encode(s.ids[None], [s.true_length], p)
    return ad.reshape(out, out.shape[1:])


class TestKeyCut:
    def test_short_texts_softmax_only_the_keys_they_attend_to(self, monkeypatch):
        """8 category texts of 4 tokens at l_c = 32 score 8 keys in every layer;
        queries of up to 10 tokens at l_q = 16 take all 16."""
        widths = []
        softmax = ad._masked_softmax

        def spy(z, mask):
            widths.append(z.shape[-1])
            return softmax(z, mask)

        monkeypatch.setattr(ad, "_masked_softmax", spy)
        config = ModelConfig(vocab_size=12, num_categories=8, d=32)
        params = EncoderParams(config, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        texts = [rng.integers(2, 12, size=4) for _ in range(8)]
        encode(*pad_batch(texts, config.l_c), params)
        assert widths == [8] * config.encoder_layers
        widths.clear()
        queries = [rng.integers(2, 12, size=n) for n in (4, 10, 7)]
        encode(*pad_batch(queries, config.l_q), params)
        assert widths == [16] * config.encoder_layers


class TestConfig:
    def test_heads_must_divide_d(self):
        with pytest.raises(ConfigError, match="encoder_heads"):
            ModelConfig(vocab_size=8, num_categories=1, d=6, encoder_heads=4)

    def test_ffn_width_defaults_to_4d(self):
        p = tiny_params(d=16, encoder_ffn=0)
        assert p.layers[0].ffn_w1.shape == (16, 64)

    def test_vocab_needs_pad_and_unk(self):
        with pytest.raises(ConfigError, match=r"vocab_size must be in \[2, inf\), got 1"):
            ModelConfig(vocab_size=1, num_categories=1)

    def test_position_table_covers_the_longer_text(self):
        assert tiny_params(l_q=3, l_c=7).pos_emb.shape == (7, 4)


class TestDegenerateStack:
    def test_zero_layers_is_embedding_sum(self):
        """encoder_layers=0 output equals token plus position rows exactly."""
        p = tiny_params(encoder_layers=0)
        s = seq([2, 5, 3])
        out = encode_one(s, p)
        expected = p.tok_emb.data[[2, 5, 3]] + p.pos_emb.data[:3]
        assert np.array_equal(out.data, expected)

    def test_swap_moves_token_component_only(self):
        """Swapping two tokens permutes the token part; position part stays."""
        p = tiny_params(encoder_layers=0)
        a = encode_one(seq([2, 5, 3]), p).data - p.pos_emb.data[:3]
        b = encode_one(seq([5, 2, 3]), p).data - p.pos_emb.data[:3]
        assert np.array_equal(a[0], b[1])
        assert np.array_equal(a[1], b[0])
        assert np.array_equal(a[2], b[2])

    def test_deterministic(self):
        p = tiny_params()
        s = seq([2, 5, 3, 0], true_length=3)
        assert np.array_equal(encode_one(s, p).data, encode_one(s, p).data)


class TestValidation:
    def test_out_of_range_id(self):
        p = tiny_params()
        with pytest.raises(VocabError, match="99"):
            encode_one(seq([2, 99]), p)

    def test_sequence_longer_than_position_table(self):
        p = tiny_params(l_q=3, l_c=3)
        with pytest.raises(ConfigError, match="max_len"):
            encode_one(seq([2, 2, 2, 2]), p)


class TestMasking:
    def test_pad_ids_never_leak_into_valid_positions(self):
        """Non-pad outputs are bit-identical whatever sits in PAD slots."""
        p = tiny_params(encoder_layers=2)
        base = encode_one(seq([2, 5, 0, 0], true_length=2), p).data
        poisoned = encode_one(seq([2, 5, 7, 6], true_length=2), p).data
        assert np.array_equal(base[:2], poisoned[:2])
        assert not np.array_equal(base[2:], poisoned[2:])

    def test_true_length_changes_valid_outputs(self):
        p = tiny_params()
        short = encode_one(seq([2, 5, 3], true_length=2), p).data
        full = encode_one(seq([2, 5, 3], true_length=3), p).data
        assert not np.array_equal(short[:2], full[:2])


class TestSharedSpace:
    def test_query_and_category_with_same_text_encode_identically(self):
        v = Vocab(list("abcd"))
        p = tiny_params(vocab_size=len(v))
        cats = CategorySet([make_category_record(v, 0, "ab", [])])
        ids, lengths = pad_batch([tokenize("ab", v), cats[0].ids], 5)
        query_seq, cat_seq = seq(ids[0], lengths[0]), seq(ids[1], lengths[1])
        assert np.array_equal(query_seq.ids, cat_seq.ids)
        assert np.array_equal(encode_one(query_seq, p).data, encode_one(cat_seq, p).data)

    def test_encode_categories_matches_per_category_encode(self):
        v = Vocab(list("abcd"))
        model = tiny_model(v, 2)
        cats = CategorySet(
            [make_category_record(v, 0, "ab", ["c"]), make_category_record(v, 1, "d", [])]
        )
        outs = model.encode_categories(cats)
        assert outs.tensors.shape[0] == 2
        for rec, out, length in zip(cats, outs.tensors.data, outs.lengths):
            ids, lengths = pad_batch([rec.ids], 5)
            text = seq(ids[0], lengths[0])
            assert np.array_equal(out, encode_one(text, model.encoder).data)
            assert length == text.true_length

    def test_identical_category_texts_identical_encodings(self):
        v = Vocab(list("abcd"))
        model = tiny_model(v, 2)
        cats = CategorySet(
            [make_category_record(v, 0, "ab", []), make_category_record(v, 1, "ab", [])]
        )
        outs = model.encode_categories(cats).tensors.data
        assert np.array_equal(outs[0], outs[1])

    def test_encodings_change_after_parameter_update(self):
        v = Vocab(list("abcd"))
        model = tiny_model(v, 1)
        cats = CategorySet([make_category_record(v, 0, "ab", [])])
        before = model.encode_categories(cats).tensors.data[0].copy()
        model.encoder.tok_emb.data[2] += 0.5
        after = model.encode_categories(cats).tensors.data[0]
        assert not np.array_equal(before, after)


class TestGradients:
    def test_unused_vocab_rows_get_zero_gradient(self):
        p = tiny_params()
        s = seq([2, 5, 3, 0], true_length=3)
        with ad.Tape() as tape:
            out = encode_one(s, p)
            loss = weighted_sum(out, out)
        ad.backward(loss, tape)
        used = {2, 5, 3, 0}
        for tid in range(p.tok_emb.shape[0]):
            row = p.tok_emb.grad[tid]
            if tid in used:
                assert np.any(row != 0)
            else:
                assert np.all(row == 0)

    def test_finite_difference_whole_encoder(self):
        """Analytic gradients match central differences for every weight."""
        p = tiny_params(seed=3)
        s = seq([2, 5, 3, 0], true_length=3)
        rng = np.random.default_rng(9)
        probe = rng.normal(size=(4, 4))

        def loss_value():
            out = encode_one(s, p)
            return float(np.sum(out.data * probe))

        with ad.Tape() as tape:
            out = encode_one(s, p)
            loss = weighted_sum(out, probe)
        ad.backward(loss, tape)
        for name, tensor in p.parameters():
            numeric = central_difference_grad(loss_value, tensor.data)
            err = max_rel_err(tensor.grad, numeric)
            assert err < 1e-6, f"{name}: rel err {err}"


class TestBatch:
    def test_rows_match_single_sequence_encodes(self):
        p = tiny_params(encoder_layers=2)
        seqs = [
            seq([2, 5, 3, 0], true_length=3),
            seq([7, 0, 0, 0], true_length=1),
            seq([4, 4, 6, 2]),
        ]
        out = encode(np.stack([s.ids for s in seqs]), [s.true_length for s in seqs], p).data
        assert out.shape == (3, 4, 4)
        for row, s in zip(out, seqs):
            assert np.abs(row - encode_one(s, p).data).max() <= 1e-12

    def test_ids_must_be_a_batch(self):
        p = tiny_params()
        with pytest.raises(ConfigError, match="batch"):
            encode(np.array([2, 5]), [2], p)

    @pytest.mark.parametrize("lengths", [[2], [2, 2, 2], 2], ids=["one", "three", "scalar"])
    def test_one_length_per_row(self, lengths):
        """A lengths array would otherwise broadcast: one length for every row."""
        with pytest.raises(ConfigError, match=r"encode expects 2 lengths"):
            encode(np.array([[2, 5], [3, 4]]), lengths, tiny_params())
