"""Training loop, Adam, and checkpoint format tests."""

import json

import numpy as np
import pytest

from intentmatch import autodiff as ad
from intentmatch.errors import (
    ConfigError,
    ConfigMismatchError,
    CorruptCheckpointError,
    NonFiniteError,
    VersionMismatchError,
)
from intentmatch import training
from intentmatch.model import VARIANTS, Model, ModelConfig, multilabel_loss
from intentmatch.synthetic import SyntheticConfig, generate_synthetic
from intentmatch.textdata import Vocab
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
            w.grad[:] = g
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
                loss = ad.reduce_sum(w * w)
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
        w.grad[:] = 7.0
        adam_step([("w", w)], state)
        assert np.all(w.grad == 0.0)

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
            query_l_max=8,
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
        """TrainConfig rejects lr=0, so the zero step runs on AdamState directly."""
        model, data = tiny_setup()
        before = {n: t.data.copy() for n, t in model.parameters()}
        named = model.parameters()
        batch_gradients(model, data.train[:8], data.categories)
        adam_step(named, AdamState.for_params(named, lr=0.0))
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
                loss = multilabel_loss(logits, ex.labels) * (1.0 / len(batch))
            ad.backward(loss, tape)
            loss_sum += loss.item()
            for n, t in model.parameters():
                grads[n] += t.grad
                t.zero_grad()
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


class TestCheckpoint:
    def probe_logits(self, model, data):
        return model.forward_with_categories(data.train[0].query, data.categories).data

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
