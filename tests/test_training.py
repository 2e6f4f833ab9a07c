"""Training loop, Adam, config field, and checkpoint format tests."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import weighted_sum
import intentmatch
from intentmatch import autodiff as ad
from intentmatch.cli import main
from intentmatch.errors import (
    ConfigError,
    ConfigMismatchError,
    CorruptCheckpointError,
    NonFiniteError,
    VersionMismatchError,
    check_range,
)
from intentmatch import model as model_module, training
from intentmatch.model import VARIANTS, Model, ModelConfig, multilabel_loss
from intentmatch.synthetic import SyntheticConfig, generate_synthetic
from intentmatch.textdata import Vocab, save_categories, save_vocab
from intentmatch.training import (
    CHECKPOINT_MAGIC,
    AdamState,
    TrainConfig,
    adam_step,
    batch_gradients,
    load_checkpoint,
    save_checkpoint,
    train,
)


def scalar_param(value):
    return ad.Tensor(np.array([value]), requires_grad=True)


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        w = scalar_param(1.5)
        state = AdamState.for_params([("w", w)], lr=0.1)
        adam_step([("w", w)], state)
        assert w.data.item() == 1.5
        assert state.step == 1

    def test_first_step_is_lr_times_sign(self):
        """With constant gradient g the first update is -lr*sign(g)+O(eps)."""
        for g in (3.0, -0.5, 1e-3):
            w = scalar_param(0.0)
            state = AdamState.for_params([("w", w)], lr=0.01)
            w.grad = np.full(w.shape, g)
            adam_step([("w", w)], state)
            assert w.data.item() == pytest.approx(-0.01 * np.sign(g), rel=1e-4)

    def test_quadratic_bowl_descends(self):
        """Monotone approach, then convergence; momentum overshoots near 0,
        so strict 50-step monotonicity is impossible for standard Adam."""
        w = scalar_param(1.0)
        state = AdamState.for_params([("w", w)], lr=0.1)
        trajectory = [abs(w.data.item())]
        for _ in range(50):
            with ad.Tape() as tape:
                loss = weighted_sum(w, w)
            ad.backward(loss, tape)
            adam_step([("w", w)], state)
            trajectory.append(abs(w.data.item()))
        for a, b in zip(trajectory[:10], trajectory[1:11]):
            assert b < a
        assert max(trajectory[1:]) < trajectory[0]
        assert trajectory[-1] < 0.05

    def test_gradients_zeroed_after_step(self):
        w = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        state = AdamState.for_params([("w", w)], lr=0.1)
        w.grad = np.full(w.shape, 7.0)
        adam_step([("w", w)], state)
        assert w.grad is None

    def test_missing_gradient_steps_like_an_explicit_zero(self):
        """The moments decay bit for bit as under a zero gradient buffer."""
        results = []
        for zero in (None, np.zeros((2, 3))):
            w = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
            state = AdamState.for_params([("w", w)], lr=0.1)
            w.grad = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
            adam_step([("w", w)], state)
            w.grad = zero
            adam_step([("w", w)], state)
            results.append([a.tobytes() for a in (w.data, state.m["w"], state.v["w"])])
            assert w.grad is None
        assert results[0] == results[1]

    def test_buffer_shape_mismatch_rejected(self):
        w = ad.Tensor(np.ones(3), requires_grad=True)
        state = AdamState.for_params([("w", w)], lr=0.1)
        state.m["w"] = np.zeros(4)
        with pytest.raises(ValueError, match="shape"):
            adam_step([("w", w)], state)


def tiny_setup(seed=0, variant="full"):
    data = generate_synthetic(
        SyntheticConfig(
            num_categories=3,
            vocab_size=24,
            queries_per_category=10,
            seed=7,
            query_len_min=3,
            query_len_max=6,
        )
    )
    config = ModelConfig(
        vocab_size=len(data.vocab),
        num_categories=3,
        d=4,
        l_q=8,
        l_c=8,
        encoder_layers=1,
        encoder_heads=2,
        conv_filters=2,
        conv_blocks=1,
        variant=variant,
    )
    return Model(config, np.random.default_rng(seed)), data


class TestTrainLoop:
    def test_same_seed_identical_histories(self):
        runs = []
        for _ in range(2):
            model, data = tiny_setup(seed=1)
            cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=5)
            history, _ = train(model, data.train, data.categories, cfg)
            runs.append(history)
        assert runs[0] == runs[1]
        assert len(runs[0]) == 2
        assert all(np.isfinite(runs[0]))

    def test_zero_lr_freezes_parameters(self):
        """TrainConfig and AdamState reject lr=0, so the test zeroes a built state's lr."""
        model, data = tiny_setup()
        before = {n: t.data.copy() for n, t in model.parameters()}
        named = model.parameters()
        batch_gradients(model, data.train[:8], data.categories)
        state = AdamState.for_params(named, lr=1e-3)
        state.lr = 0.0
        adam_step(named, state)
        for n, t in model.parameters():
            assert np.array_equal(t.data, before[n]), n

    def test_loss_goes_down_on_separable_data(self):
        model, data = tiny_setup(seed=3)
        cfg = TrainConfig(epochs=12, batch_size=8, lr=5e-3, seed=5)
        history, _ = train(model, data.train, data.categories, cfg)
        assert history[-1] < 0.75 * history[0]

    def test_empty_dataset_rejected(self):
        model, data = tiny_setup()
        with pytest.raises(ConfigError, match="empty"):
            train(model, [], data.categories, TrainConfig(epochs=1))

    def test_label_width_mismatch_rejected(self):
        model, data = tiny_setup()
        bad = list(data.train)
        bad[3].labels = np.ones(5)
        with pytest.raises(ConfigError, match="labels"):
            train(model, bad, data.categories, TrainConfig(epochs=1))

    def test_epoch_callback_streams_losses(self):
        model, data = tiny_setup()
        seen = []
        cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=5)
        history, _ = train(
            model, data.train, data.categories, cfg, log_fn=lambda e, l: seen.append((e, l))
        )
        assert seen == [(0, history[0]), (1, history[1])]


class TestNonFiniteGuard:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf arithmetic
    def test_inf_parameter_raises_naming_epoch_batch_and_parameter(self):
        model, data = tiny_setup()
        name, first = model.parameters()[0]
        first.data[0, 0] = np.inf
        cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=5)
        with pytest.raises(NonFiniteError, match=rf"epoch 1, batch 1: .*{name}$"):
            train(model, data.train, data.categories, cfg)

    def test_finite_run_passes_the_guard(self):
        model, data = tiny_setup()
        history, state = train(model, data.train, data.categories, TrainConfig(epochs=1, lr=1e-3))
        assert np.isfinite(history).all() and state.step == 1


class TestTrainConfig:
    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"batch_size": 0}, "batch_size"),
            ({"epochs": -1}, "epochs"),
            ({"lr": float("nan")}, "lr"),
            ({"lr": float("inf")}, "lr"),
            ({"lr": 0.0}, "lr"),
        ],
    )
    def test_out_of_range_value_is_config_error(self, overrides, field):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**overrides)

    def test_zero_epochs_trains_nothing(self):
        model, data = tiny_setup()
        history, state = train(model, data.train, data.categories, TrainConfig(epochs=0))
        assert history == []
        assert state.step == 0


class TestBatchedGradients:
    def per_example_gradients(self, model, batch, cats):
        """Mean loss and gradients from one tape per example, summed."""
        grads = {n: np.zeros_like(t.data) for n, t in model.parameters()}
        loss_sum = 0.0
        for ex in batch:
            with ad.Tape() as tape:
                logits = model.forward(ex.query, model.encode_categories(cats))
                loss = weighted_sum(multilabel_loss(logits, ex.labels), [1.0 / len(batch)])
            ad.backward(loss, tape)
            loss_sum += float(loss.data)
            for n, t in model.parameters():
                grads[n] += t.grad
                t.grad = None
        return loss_sum, grads

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batch_equals_sum_of_per_example_gradients(self, variant):
        model, data = tiny_setup(seed=4, variant=variant)
        model.fusion.w_x.data[:] = np.random.default_rng(3).normal(size=(3, 3))
        batch = data.train[:6]
        want_loss, want = self.per_example_gradients(model, batch, data.categories)
        got_loss = batch_gradients(model, batch, data.categories)
        assert abs(got_loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
        for n, t in model.parameters():
            assert np.any(want[n] != 0), n
            assert np.abs(t.grad - want[n]).max() <= 1e-12 * max(1.0, np.abs(want[n]).max()), n

    def test_forward_allocates_no_intermediate_gradients(self, monkeypatch):
        model, data = tiny_setup()
        seen = []
        monkeypatch.setattr(
            training.ad, "backward",
            lambda loss, tape: seen.extend(node.output.grad for node in tape.nodes),
        )
        batch_gradients(model, data.train[:4], data.categories)
        assert seen and all(g is None for g in seen)

    def test_tape_length_does_not_grow_with_batch(self, monkeypatch):
        model, data = tiny_setup()
        lengths = []
        monkeypatch.setattr(training.ad, "backward", lambda loss, tape: lengths.append(len(tape)))
        for size in (1, 8):
            batch_gradients(model, data.train[:size], data.categories)
        assert lengths[0] == lengths[1]

    def test_c4_step_tape_length(self, monkeypatch):
        """One C4 step (default synthetic set, d=32, batch 32) records 75 nodes."""
        data = generate_synthetic(SyntheticConfig())
        config = ModelConfig(vocab_size=len(data.vocab), num_categories=len(data.categories), d=32)
        model = Model(config, np.random.default_rng(0))
        lengths = []
        monkeypatch.setattr(training.ad, "backward", lambda loss, tape: lengths.append(len(tape)))
        batch_gradients(model, data.train[:32], data.categories)
        assert lengths == [75]

    def test_c4_step_traced_peak(self):
        """One C4 step allocates at most 18.5 MiB at its peak, as numpy reports to tracemalloc.

        The tape holds most of it; 23.3 MiB before the encoder blocks became two ops each.
        """
        data = generate_synthetic(SyntheticConfig())
        config = ModelConfig(vocab_size=len(data.vocab), num_categories=len(data.categories), d=32)
        model = Model(config, np.random.default_rng(0))
        batch_gradients(model, data.train[:32], data.categories)  # first-call set-up
        for _, t in model.parameters():
            t.grad = None
        tracemalloc.start()
        try:
            batch_gradients(model, data.train[:32], data.categories)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18.5 * 2**20, f"{peak / 2**20:.2f} MiB"


class TestMapTiles:
    """char_match over several MAP_TILE tiles against the one-tile run."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_tiles_match_one_tile(self, monkeypatch, variant):
        model, data = tiny_setup(seed=5, variant=variant)
        model.fusion.w_x.data[:] = np.random.default_rng(6).normal(size=(3, 3))
        batch = data.train[:7]  # 21 maps: five tiles of 4 and a ragged one of 1
        queries = [ex.query for ex in batch]
        cat_enc = model.encode_categories(data.categories)
        want_logits = model.forward(queries, cat_enc).data
        want_loss = batch_gradients(model, batch, data.categories)
        want = {n: t.grad.copy() for n, t in model.parameters()}
        for _, t in model.parameters():
            t.grad = None
        monkeypatch.setattr(model_module, "MAP_TILE", 4)
        np.testing.assert_array_equal(model.forward(queries, cat_enc).data, want_logits)
        got_loss = batch_gradients(model, batch, data.categories)
        assert abs(got_loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
        for n, t in model.parameters():
            assert np.abs(t.grad - want[n]).max() <= 1e-12 * max(1.0, np.abs(want[n]).max()), n

    def test_tape_grows_by_a_fixed_count_per_tile(self, monkeypatch):
        model, data = tiny_setup()
        monkeypatch.setattr(model_module, "MAP_TILE", 3)  # one query's 3 maps per tile
        lengths = []
        monkeypatch.setattr(training.ad, "backward", lambda loss, tape: lengths.append(len(tape)))
        for tiles in (1, 2, 3, 4, 5):
            batch_gradients(model, data.train[:tiles], data.categories)
        # a tile is its slice and a pooled conv and ReLU per conv block
        per_tile = 1 + 2 * model.config.conv_blocks
        assert np.diff(lengths).tolist() == [per_tile] * 4


def rewrite_header(path, mutate):
    """Replace a checkpoint's JSON header with mutate(header), fixing its length."""
    raw = path.read_bytes()
    blob_len = int.from_bytes(raw[8:12], "little")
    blob = json.dumps(mutate(json.loads(raw[12 : 12 + blob_len]))).encode("utf-8")
    path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + blob_len :])


def without(block, key):
    return {k: v for k, v in block.items() if k != key}


MALFORMED_HEADERS = {
    "no model block": (lambda h: without(h, "model"), "'model'"),
    "no params": (lambda h: without(h, "params"), "'params'"),
    "unknown model key": (lambda h: {**h, "model": {**h["model"], "colour": 1}}, "colour"),
    "header is a list": (lambda h: list(h), "not a JSON object"),
    "optimizer without lr": (
        lambda h: {**h, "optimizer": without(h["optimizer"], "lr")}, "'lr'"
    ),
    "extra is a list": (lambda h: {**h, "extra": [1]}, '"extra"'),
    "run_config is a list": (lambda h: {**h, "extra": {"run_config": [1]}}, "run_config"),
}


# [name, shape] of every tensor, in checkpoint order, at MANIFEST_CONFIG; the
# vocab is the 26 tokens of tiny_setup's data, encoder_layers=2 pins that every
# layer1 tensor follows all of layer0, and conv_blocks=2 pins the kernel/bias
# interleave
MANIFEST_CONFIG = dict(
    vocab_size=26, num_categories=3, d=4, l_q=12, l_c=12, encoder_layers=2,
    encoder_heads=2, encoder_ffn=6, conv_filters=2, conv_blocks=2,
)
ENCODER_MANIFEST = [
    ["encoder.tok_emb", [26, 4]],
    ["encoder.pos_emb", [12, 4]],
    ["encoder.layer0.w_q", [4, 4]],
    ["encoder.layer0.w_k", [4, 4]],
    ["encoder.layer0.w_v", [4, 4]],
    ["encoder.layer0.w_o", [4, 4]],
    ["encoder.layer0.ln1_g", [4]],
    ["encoder.layer0.ln1_b", [4]],
    ["encoder.layer0.ffn_w1", [4, 6]],
    ["encoder.layer0.ffn_b1", [6]],
    ["encoder.layer0.ffn_w2", [6, 4]],
    ["encoder.layer0.ffn_b2", [4]],
    ["encoder.layer0.ln2_g", [4]],
    ["encoder.layer0.ln2_b", [4]],
    ["encoder.layer1.w_q", [4, 4]],
    ["encoder.layer1.w_k", [4, 4]],
    ["encoder.layer1.w_v", [4, 4]],
    ["encoder.layer1.w_o", [4, 4]],
    ["encoder.layer1.ln1_g", [4]],
    ["encoder.layer1.ln1_b", [4]],
    ["encoder.layer1.ffn_w1", [4, 6]],
    ["encoder.layer1.ffn_b1", [6]],
    ["encoder.layer1.ffn_w2", [6, 4]],
    ["encoder.layer1.ffn_b2", [4]],
    ["encoder.layer1.ln2_g", [4]],
    ["encoder.layer1.ln2_b", [4]],
]
MANIFESTS = {
    "full": ENCODER_MANIFEST + [
        ["self_match.w_q", [4, 4]],
        ["self_match.v", [1, 4]],
        ["char_match.w_qc", [4, 4]],
        ["char_match.conv0_kernels", [2, 1, 3, 3]],
        ["char_match.conv0_bias", [2]],
        ["char_match.conv1_kernels", [2, 2, 3, 3]],
        ["char_match.conv1_bias", [2]],
        ["char_match.projection", [2, 4]],
        ["semantic_match.w_qs", [4, 4]],
        ["fusion.w_qf", [4, 3]],
        ["fusion.w_z", [8, 1]],
        ["fusion.w_x", [3, 3]],
    ],
    "no_self": ENCODER_MANIFEST + [
        ["char_match.w_qc", [4, 4]],
        ["char_match.conv0_kernels", [2, 1, 3, 3]],
        ["char_match.conv0_bias", [2]],
        ["char_match.conv1_kernels", [2, 2, 3, 3]],
        ["char_match.conv1_bias", [2]],
        ["char_match.projection", [2, 4]],
        ["semantic_match.w_qs", [4, 4]],
        ["fusion.w_z", [8, 1]],
        ["fusion.w_x", [3, 3]],
    ],
    "no_char": ENCODER_MANIFEST + [
        ["self_match.w_q", [4, 4]],
        ["self_match.v", [1, 4]],
        ["semantic_match.w_qs", [4, 4]],
        ["fusion.w_qf", [4, 3]],
        ["fusion.w_z", [4, 1]],
        ["fusion.w_x", [3, 3]],
    ],
    "no_semantic": ENCODER_MANIFEST + [
        ["self_match.w_q", [4, 4]],
        ["self_match.v", [1, 4]],
        ["char_match.w_qc", [4, 4]],
        ["char_match.conv0_kernels", [2, 1, 3, 3]],
        ["char_match.conv0_bias", [2]],
        ["char_match.conv1_kernels", [2, 2, 3, 3]],
        ["char_match.conv1_bias", [2]],
        ["char_match.projection", [2, 4]],
        ["fusion.w_qf", [4, 3]],
        ["fusion.w_z", [4, 1]],
        ["fusion.w_x", [3, 3]],
    ],
}


class TestCheckpoint:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_manifest_and_payload_order_are_fixed(self, tmp_path, variant):
        _, data = tiny_setup()
        model = Model(ModelConfig(**MANIFEST_CONFIG, variant=variant), np.random.default_rng(0))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, data.vocab, data.categories)
        raw = path.read_bytes()
        blob_len = int.from_bytes(raw[8:12], "little")
        assert json.loads(raw[12 : 12 + blob_len])["params"] == MANIFESTS[variant]
        tensors = dict(model.parameters())
        pos = 12 + blob_len
        for name, shape in MANIFESTS[variant]:
            nbytes = int.from_bytes(raw[pos : pos + 8], "little")
            payload = np.frombuffer(raw[pos + 8 : pos + 8 + nbytes], dtype="<f8")
            assert np.array_equal(payload.reshape(shape), tensors[name].data), name
            pos += 8 + nbytes
        assert pos == len(raw)

    def probe_logits(self, model, data):
        return model.forward(data.train[0].query, model.encode_categories(data.categories)).data

    def test_round_trip_probe_forward_bit_identical(self, tmp_path):
        model, data = tiny_setup(seed=4)
        before = self.probe_logits(model, data)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, data.vocab, data.categories)
        loaded = load_checkpoint(path, data.vocab, data.categories)
        after = self.probe_logits(loaded.model, data)
        assert np.array_equal(before, after)
        assert loaded.adam_state is None

    def test_save_load_save_byte_identical(self, tmp_path):
        model, data = tiny_setup(seed=4)
        state = AdamState.for_params(model.parameters(), lr=3e-4)
        state.step = 17
        for name, t in model.parameters():
            state.m[name][:] = 0.25
            state.v[name][:] = 0.5
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model, data.vocab, data.categories, state, extra={"note": 1})
        lc = load_checkpoint(p1, data.vocab, data.categories)
        save_checkpoint(p2, lc.model, data.vocab, data.categories, lc.adam_state, lc.extra)
        assert p1.read_bytes() == p2.read_bytes()
        assert lc.adam_state.step == 17
        assert lc.adam_state.lr == 3e-4
        assert lc.extra == {"note": 1}

    def test_variant_survives_round_trip(self, tmp_path):
        model, data = tiny_setup(seed=4, variant="no_char")
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, data.vocab, data.categories)
        loaded = load_checkpoint(path, data.vocab, data.categories)
        assert loaded.model.config.variant == "no_char"
        assert loaded.model.char_params is None

    def test_truncated_file_is_corrupt_not_crash(self, tmp_path):
        model, data = tiny_setup()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, data.vocab, data.categories)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptCheckpointError, match="truncated"):
            load_checkpoint(path, data.vocab, data.categories)

    def test_bad_magic(self, tmp_path):
        model, data = tiny_setup()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, data.vocab, data.categories)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpointError, match="magic"):
            load_checkpoint(path, data.vocab, data.categories)

    def test_future_version_is_version_mismatch(self, tmp_path):
        model, data = tiny_setup()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, data.vocab, data.categories)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError, match="99"):
            load_checkpoint(path, data.vocab, data.categories)

    def test_category_count_mismatch_names_both(self, tmp_path):
        model, data = tiny_setup()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, data.vocab, data.categories)
        grown = generate_synthetic(
            SyntheticConfig(num_categories=4, vocab_size=24, queries_per_category=5, seed=7)
        )
        with pytest.raises(ConfigMismatchError, match=r"3.*4"):
            load_checkpoint(path, data.vocab, grown.categories)

    def test_inflated_vocab_size_is_rejected_before_any_weight_is_drawn(self, tmp_path):
        """A header claiming 400,000 tokens would mean a 12 MiB embedding table at d=4."""
        model, data = tiny_setup()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, data.vocab, data.categories)
        rewrite_header(path, lambda h: {**h, "model": {**h["model"], "vocab_size": 400_000}})
        tracemalloc.start()
        try:
            with pytest.raises(ConfigMismatchError, match="vocab size 400000"):
                load_checkpoint(path, data.vocab, data.categories)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_vocab_fingerprint_mismatch(self, tmp_path):
        model, data = tiny_setup()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, data.vocab, data.categories)
        # same size, different token order: only the fingerprint can tell
        other = Vocab(list(reversed(data.vocab.tokens)))
        with pytest.raises(ConfigMismatchError, match="fingerprint"):
            load_checkpoint(path, other, data.categories)

    def test_tampered_payload_length_is_corrupt(self, tmp_path):
        model, data = tiny_setup()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, data.vocab, data.categories)
        raw = bytearray(path.read_bytes())
        blob_len = int.from_bytes(raw[8:12], "little")
        first_len_at = 12 + blob_len
        raw[first_len_at : first_len_at + 8] = (3).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpointError, match="payload"):
            load_checkpoint(path, data.vocab, data.categories)

    @pytest.mark.parametrize("index, what", [(0, "encoder.tok_emb"), (-1, r"adam v\[fusion.w_x\]")])
    def test_non_finite_tensor_is_corrupt_naming_it(self, tmp_path, index, what):
        model, data = tiny_setup()
        path = tmp_path / "m.ckpt"
        state = AdamState.for_params(model.parameters(), lr=1e-3)
        save_checkpoint(path, model, data.vocab, data.categories, state)
        raw = bytearray(path.read_bytes())
        blob_len = int.from_bytes(raw[8:12], "little")
        # the first value of the first tensor, or the last value of the last one
        at = 12 + blob_len + 8 if index == 0 else len(raw) - 8
        raw[at : at + 8] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpointError, match=what):
            load_checkpoint(path, data.vocab, data.categories)

    def test_trailing_bytes_are_corrupt(self, tmp_path):
        model, data = tiny_setup()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, data.vocab, data.categories)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CorruptCheckpointError, match="trailing"):
            load_checkpoint(path, data.vocab, data.categories)

    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_malformed_header_is_corrupt_naming_path_and_field(self, tmp_path, case):
        mutate, field = MALFORMED_HEADERS[case]
        model, data = tiny_setup()
        path = tmp_path / "m.ckpt"
        state = AdamState.for_params(model.parameters(), lr=1e-3)
        save_checkpoint(path, model, data.vocab, data.categories, state)
        rewrite_header(path, mutate)
        with pytest.raises(CorruptCheckpointError) as info:
            load_checkpoint(path, data.vocab, data.categories)
        assert str(path) in str(info.value)
        assert field in str(info.value)

    def test_failed_save_keeps_the_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        model, data = tiny_setup(seed=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, data.vocab, data.categories)
        before = path.read_bytes()
        written = []
        real_write = training._write_tensor

        def failing_write(f, arr):
            if len(written) == 3:
                raise OSError("disk full")
            written.append(1)
            real_write(f, arr)

        monkeypatch.setattr(training, "_write_tensor", failing_write)
        model.fusion.w_z.data += 1.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model, data.vocab, data.categories)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_magic_constant(self):
        assert CHECKPOINT_MAGIC == b"MMAN"


class TestCheckFields:
    """Every config dataclass checks its fields against their annotations."""

    @pytest.mark.parametrize("field", ["epochs", "lr"])
    def test_bool_is_not_a_number(self, field):
        with pytest.raises(ConfigError, match=f"{field} is True, expected"):
            TrainConfig(**{field: True})

    def test_numpy_integers_pass(self):
        n = np.int64
        cfg = ModelConfig(vocab_size=n(8), num_categories=n(2), d=n(8), conv_window=(n(3), n(3)))
        assert cfg.conv_window == (3, 3)
        assert TrainConfig(epochs=n(2), lr=n(1)).epochs == 2

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ModelConfig(vocab_size=2, num_categories=1),
            TrainConfig,
            SyntheticConfig,
            lambda: AdamState(lr=0.1),
        ],
        ids=["ModelConfig", "TrainConfig", "SyntheticConfig", "AdamState"],
    )
    def test_defaults_pass(self, build):
        """Fails for an annotation the check does not know."""
        build()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"conv_stride": (1, 0)}, r"conv_stride must be in \[1, inf\), got \(1, 0\)"),
            ({"pool_window": (2, 2, 2)}, r"pool_window is \(2, 2, 2\), expected tuple\["),
            ({"conv_window": "33"}, "conv_window is '33'"),
            ({"num_categories": 0}, r"num_categories must be in \[1, inf\), got 0"),
        ],
    )
    def test_model_pairs_and_minimums(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            ModelConfig(vocab_size=8, **{"num_categories": 2, **overrides})

    def test_synthetic_needs_two_categories(self):
        with pytest.raises(ConfigError, match=r"num_categories must be in \[2, inf\), got 1"):
            SyntheticConfig(num_categories=1)


# every config class that declares the ranges of its fields
RANGED_CONFIGS = [ModelConfig, TrainConfig, SyntheticConfig, AdamState]


def interval_ends(interval):
    """[(end, closed, outward direction)] of "[1, inf)"-style text, finite ends only."""
    low, high = (float(x) for x in interval[1:-1].split(", "))
    ends = [(low, interval[0] == "[", -1), (high, interval[-1] == "]", +1)]
    return [end for end in ends if math.isfinite(end[0])]


def field_value(cls, name, x):
    """`x` as a value of the field: an int, a pair of it, or a float."""
    annotation = {f.name: f.type for f in dataclasses.fields(cls)}[name]
    return {"int": int(x), "tuple[int, int]": (int(x), int(x))}.get(annotation, x)


def step(cls, name, x, direction):
    """The next value of the field's kind past `x` in `direction`."""
    if isinstance(field_value(cls, name, x), float):
        return math.nextafter(x, direction * math.inf)
    return x + direction


def lowest_config(cls, **overrides):
    """`cls` with every ranged field at its lowest accepted value, then `overrides`."""
    values = {}
    for name, interval in cls.RANGES.items():
        low, closed, _ = interval_ends(interval)[0]
        values[name] = field_value(cls, name, low if closed else step(cls, name, low, +1))
    return cls(**{**values, **overrides})


def range_ends():
    for cls in RANGED_CONFIGS:
        for name, interval in cls.RANGES.items():
            for end, closed, direction in interval_ends(interval):
                side = "low" if direction < 0 else "high"
                yield pytest.param(cls, name, interval, end, closed, direction,
                                   id=f"{cls.__name__}.{name}={interval}-{side}")


def float_fields():
    for cls in RANGED_CONFIGS:
        for f in dataclasses.fields(cls):
            if f.type == "float":
                for value in (math.nan, math.inf, -math.inf):
                    yield pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value}")


class TestRanges:
    """Built from each config's `RANGES`, so a range added later is covered here."""

    def test_every_ranged_field_at_its_lowest_value_builds(self):
        for cls in RANGED_CONFIGS:
            lowest_config(cls)

    @pytest.mark.parametrize("cls, name, interval, end, closed, direction", range_ends())
    def test_end_accepted_if_closed_and_first_value_past_it_refused(
        self, cls, name, interval, end, closed, direction
    ):
        if closed:
            value = field_value(cls, name, end)
            assert getattr(lowest_config(cls, **{name: value}), name) == value
            past = field_value(cls, name, step(cls, name, end, direction))
        else:
            past = field_value(cls, name, end)
        message = f"{name} must be in {interval}, got {past}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            lowest_config(cls, **{name: past})

    @pytest.mark.parametrize("cls, name, value", float_fields())
    def test_non_finite_float_is_refused(self, cls, name, value):
        with pytest.raises(ConfigError, match=f"{name} is {value!r}, expected finite float"):
            lowest_config(cls, **{name: value})

    @pytest.mark.parametrize("value", [True, (1, True), (1, "2"), None, np.bool_(False)])
    def test_check_range_takes_only_real_numbers(self, value):
        with pytest.raises(ConfigError, match=re.escape(f"x must be in [0, inf), got {value!r}")):
            check_range("x", value, "[0, inf)")

    def test_unknown_variant_is_config_error(self):
        with pytest.raises(ConfigError, match="variant is 'bogus', expected one of"):
            ModelConfig(vocab_size=8, num_categories=2, variant="bogus")

    def test_unknown_variant_in_a_header_exits_3(self, trained_files, tmp_path, capsys):
        path = retyped_copy(trained_files, tmp_path, "model", "variant", lambda v: "bogus")
        root, _ = trained_files
        rc = main([
            "predict", "--checkpoint", str(path), "--query", "abc",
            "--categories-file", str(root / "categories.tsv"),
            "--vocab-file", str(root / "vocab.txt"),
        ])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert err == (f'error: {path}: bad "model" block: '
                       f"variant is 'bogus', expected one of {VARIANTS}\n")


def one_step_checkpoint(path, lr=1e-3, **model_fields):
    """Bytes of a checkpoint saved after one full-batch step of the tiny setup."""
    model, data = tiny_setup()
    model = Model(dataclasses.replace(model.config, **model_fields), np.random.default_rng(0))
    config = TrainConfig(epochs=1, batch_size=len(data.train), lr=lr)
    _, state = train(model, data.train, data.categories, config)
    save_checkpoint(path, model, data.vocab, data.categories, state)
    return path.read_bytes()


class TestNumpyScalarConfigs:
    """A config given numpy scalars trains and saves as with the Python numbers they hold."""

    @pytest.mark.parametrize(
        "field, numpy_value, python_value",
        [
            ("d", np.int64(6), 6),
            ("lr", np.float32(1e-3), float(np.float32(1e-3))),
            ("pool_window", (np.int64(2), np.int64(1)), (2, 1)),
        ],
        ids=["int64-d", "float32-lr", "int64-pool-window"],
    )
    def test_trains_one_step_and_saves(self, tmp_path, field, numpy_value, python_value):
        got = one_step_checkpoint(tmp_path / "numpy.ckpt", **{field: numpy_value})
        want = one_step_checkpoint(tmp_path / "python.ckpt", **{field: python_value})
        assert got == want

    def test_fields_hold_python_numbers(self):
        n = np.int64
        cfg = ModelConfig(vocab_size=n(8), num_categories=2, pool_stride=(n(1), n(2)))
        assert type(cfg.vocab_size) is int
        assert all(type(v) is int for v in cfg.pool_stride)
        assert type(TrainConfig(lr=np.float32(0.5)).lr) is float


# a value of each JSON kind, wrong for every "model" and "optimizer" field
WRONG_KINDS = {"true": True, "false": False, "null": None, "string": "7",
               "object": {"a": 1}, "list": [7]}
# wrong values of the right JSON kind, made from the stored value
WRONG_BY_ANNOTATION = {
    "int": {"float": float},
    "tuple[int, int]": {
        "float pair": lambda v: [float(x) for x in v],
        "three": lambda v: [*v, 1],
        "empty": lambda v: [],
    },
}
# values of the right kind out of the "optimizer" block's ranges
WRONG_BY_FIELD = {
    "lr": {"nan": math.nan, "negative": -1.0, "zero": 0.0, "inf": math.inf},
    "beta1": {"two": 2.0, "negative": -0.5, "nan": math.nan},
    "beta2": {"one": 1.0},
    "eps": {"inf": math.inf, "zero": 0.0, "negative": -1e-8},
}


def header_retypes():
    """(block, key, retype) for every field of the header's two config blocks.

    Every field gets each wrong JSON kind; an optimizer float also gets
    values of the right kind out of its range.
    """
    adam_fields = [f for f in dataclasses.fields(AdamState) if f.name in training._ADAM_HEADER]
    fields = [("model", f.name, f.type) for f in dataclasses.fields(ModelConfig)]
    fields += [("optimizer", "algo", "str")]
    fields += [("optimizer", f.name, f.type) for f in adam_fields]
    for block, key, annotation in fields:
        for kind, value in WRONG_KINDS.items():
            yield pytest.param(block, key, lambda v, value=value: value, id=f"{key}={kind}")
        for kind, retype in WRONG_BY_ANNOTATION.get(annotation, {}).items():
            yield pytest.param(block, key, retype, id=f"{key}={kind}")
        for kind, value in WRONG_BY_FIELD.get(key, {}).items():
            yield pytest.param(block, key, lambda v, value=value: value, id=f"{key}={kind}")


@pytest.fixture(scope="module")
def trained_files(tmp_path_factory):
    """A tiny trained checkpoint with its vocab and category files."""
    model, data = tiny_setup()
    _, state = train(model, data.train, data.categories, TrainConfig(epochs=1, lr=1e-3))
    root = tmp_path_factory.mktemp("trained")
    save_vocab(root / "vocab.txt", data.vocab)
    save_categories(root / "categories.tsv", data.categories)
    save_checkpoint(root / "m.ckpt", model, data.vocab, data.categories, state)
    return root, data


def retyped_copy(trained_files, tmp_path, block, key, retype):
    root, _ = trained_files
    path = tmp_path / "m.ckpt"
    path.write_bytes((root / "m.ckpt").read_bytes())
    rewrite_header(path, lambda h: {**h, block: {**h[block], key: retype(h[block][key])}})
    return path


class TestHeaderFieldTypes:
    @pytest.mark.parametrize("block, key, retype", header_retypes())
    def test_retyped_field_is_corrupt_naming_it(self, trained_files, tmp_path, block, key, retype):
        path = retyped_copy(trained_files, tmp_path, block, key, retype)
        _, data = trained_files
        with pytest.raises(CorruptCheckpointError, match=key) as info:
            load_checkpoint(path, data.vocab, data.categories)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "block, key, value",
        [("model", "encoder_heads", True), ("model", "encoder_heads", 4.0),
         ("model", "encoder_ffn", False), ("optimizer", "lr", "0.001"),
         ("optimizer", "beta1", 2.0)],
        ids=str,
    )
    def test_predict_exits_3_with_one_line(
        self, trained_files, tmp_path, capsys, block, key, value
    ):
        path = retyped_copy(trained_files, tmp_path, block, key, lambda v: value)
        root, _ = trained_files
        rc = main([
            "predict", "--checkpoint", str(path), "--query", "abc",
            "--categories-file", str(root / "categories.tsv"),
            "--vocab-file", str(root / "vocab.txt"),
        ])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and key in err

    @pytest.mark.parametrize(
        "block, key, value",
        [("optimizer", "lr", 1), ("optimizer", "eps", 1), ("model", "conv_stride", [1, 1])],
        ids=str,
    )
    def test_right_kinds_still_load(self, trained_files, tmp_path, block, key, value):
        """An int for a float field; a JSON list for a pair."""
        path = retyped_copy(trained_files, tmp_path, block, key, lambda v: value)
        _, data = trained_files
        loaded = load_checkpoint(path, data.vocab, data.categories)
        holder = loaded.adam_state if block == "optimizer" else loaded.model.config
        assert getattr(holder, key) == (tuple(value) if isinstance(value, list) else value)


# Run in a fresh interpreter: one `predict` on the given files, then its wall
# time in ms and its rise in max RSS in KiB (ru_maxrss on Linux) as JSON.
PREDICT_CHILD = """
import contextlib, io, json, resource, sys, time
from intentmatch import cli
ckpt, cats, vocab = sys.argv[1:]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
err = io.StringIO()
t0 = time.perf_counter()
with contextlib.redirect_stderr(err):
    rc = cli.main(["predict", "--checkpoint", ckpt, "--categories-file", cats,
                   "--vocab-file", vocab, "--query", "abc"])
ms = (time.perf_counter() - t0) * 1000.0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(json.dumps({"rc": rc, "err": err.getvalue(), "ms": ms, "rss_kib": rss}))
"""


def predict_in_child(root, ckpt):
    env = {**os.environ, "PYTHONPATH": str(Path(intentmatch.__file__).parents[1])}
    argv = [str(ckpt), str(root / "categories.tsv"), str(root / "vocab.txt")]
    proc = subprocess.run([sys.executable, "-c", PREDICT_CHILD, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestNoDrawLoad:
    """`load_checkpoint` builds its model without drawing weights."""

    def test_load_draws_nothing(self, trained_files, monkeypatch):
        root, data = trained_files

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random number")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded = load_checkpoint(root / "m.ckpt", data.vocab, data.categories)
        assert loaded.adam_state is not None

    def test_inflated_l_c_is_refused_before_any_weight_is_touched(self, tmp_path):
        """A d=32 header whose l_c is 100,000 describes a 100 MiB projection.

        The manifest check refuses it before any of that memory is touched.
        The child's max RSS is the measure: a tracemalloc peak would count the
        untouched pages of the model's uninitialised arrays.
        """
        data = generate_synthetic(SyntheticConfig())
        save_vocab(tmp_path / "vocab.txt", data.vocab)
        save_categories(tmp_path / "categories.tsv", data.categories)
        config = ModelConfig(vocab_size=len(data.vocab), num_categories=len(data.categories), d=32)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, Model(config, np.random.default_rng(0)), data.vocab, data.categories)
        rewrite_header(ckpt, lambda h: {**h, "model": {**h["model"], "l_c": 100_000}})
        got = predict_in_child(tmp_path, ckpt)
        assert got["rc"] == 3
        assert got["err"] == f"error: {ckpt}: parameter manifest does not match the stored config\n"
        assert got["ms"] < 50
        assert got["rss_kib"] < 10 * 1024

    def test_inflated_encoder_layers_is_refused_before_any_memory_is_written(self, tmp_path):
        """A d=32 header whose encoder_layers is 1,000 describes 12,000 tensors.

        The model the manifest check compares holds placeholders only, the
        layer-norm gains and the biases included, so refusing the header
        writes no array: the child's max RSS rises by under 2 MiB.
        """
        data = generate_synthetic(SyntheticConfig())
        save_vocab(tmp_path / "vocab.txt", data.vocab)
        save_categories(tmp_path / "categories.tsv", data.categories)
        config = ModelConfig(vocab_size=len(data.vocab), num_categories=len(data.categories), d=32)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, Model(config, np.random.default_rng(0)), data.vocab, data.categories)
        rewrite_header(ckpt, lambda h: {**h, "model": {**h["model"], "encoder_layers": 1000}})
        got = predict_in_child(tmp_path, ckpt)
        assert got["rc"] == 3
        assert got["err"] == f"error: {ckpt}: parameter manifest does not match the stored config\n"
        assert got["rss_kib"] < 2 * 1024

    def test_model_without_rng_allocates_no_array(self):
        """Every tensor is a zero-stride view of one shared placeholder.

        Only numpy's own allocations are counted: the 12,000 Tensor objects
        and their names take some 6 MiB of Python memory either way.
        """
        config = ModelConfig(vocab_size=40, num_categories=8, d=32, encoder_layers=1000)
        tracemalloc.start()
        try:
            model = Model(config, None)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        arrays = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        assert sum(stat.size for stat in arrays.statistics("filename")) < 2**20
        assert all(not any(t.data.strides) for _, t in model.parameters())

    def test_unallocatable_model_exits_3_naming_the_file(self, trained_files, tmp_path, capsys):
        """d=4,000,000,000 asks numpy at once for a 0.76 TiB embedding table, or, where
        the host overcommits, for a d x d matrix beyond numpy's maximum size."""
        path = retyped_copy(trained_files, tmp_path, "model", "d", lambda v: 4_000_000_000)
        root, _ = trained_files
        rc = main([
            "predict", "--checkpoint", str(path), "--query", "abc",
            "--categories-file", str(root / "categories.tsv"),
            "--vocab-file", str(root / "vocab.txt"),
        ])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert err.startswith(f'error: {path}: "model" block describes a model too large')
        assert err.count("\n") == 1
