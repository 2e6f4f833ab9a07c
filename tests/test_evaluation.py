"""Decision rule, metric conventions, report formats, ablation harness."""

import re

import numpy as np
import pytest

from intentmatch.errors import ConfigError
from intentmatch.evaluation import (
    EVAL_CHUNK,
    compute_metrics,
    decide,
    evaluate,
    render_ablation_table,
    render_records,
    render_text_report,
    run_ablation_suite,
)
from intentmatch.model import Model, ModelConfig
from intentmatch.synthetic import SyntheticConfig, generate_synthetic
from intentmatch.training import TrainConfig, train


class TestDecide:
    def test_boundary_inclusive(self):
        assert decide(np.array([0.0, -1.0, 2.0]), 0.5).tolist() == [1.0, 0.0, 1.0]

    def test_sign_rule_at_default_threshold(self):
        rng = np.random.default_rng(0)
        z = rng.normal(scale=3.0, size=50)
        z = z[np.abs(z) > 1e-9]
        want = (z > 0).astype(float)
        assert decide(z, 0.5).tolist() == want.tolist()

    def test_agrees_with_direct_sigmoid_oracle(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-20, 20, size=1000)
        thresholds = rng.uniform(0.05, 0.95, size=1000)
        for zi, t in zip(z, thresholds):
            want = 1.0 if 1.0 / (1.0 + np.exp(-zi)) >= t else 0.0
            assert decide(np.array([zi]), t).item() == want

    def test_raising_a_logit_never_removes_labels(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            z = rng.normal(size=5)
            base = decide(z, 0.5)
            bumped = z.copy()
            i = rng.integers(5)
            bumped[i] += float(np.abs(rng.normal()))
            after = decide(bumped, 0.5)
            assert np.all(after >= base)

    def test_threshold_bounds(self):
        with pytest.raises(ConfigError):
            decide(np.zeros(2), 0.0)
        with pytest.raises(ConfigError):
            decide(np.zeros(2), 1.0)

    @pytest.mark.parametrize("threshold", ["0.5", None, True, np.bool_(True), [0.5]])
    def test_threshold_that_is_no_number_is_named(self, threshold):
        message = f"threshold must be in (0, 1), got {threshold!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            decide(np.zeros(3), threshold)

    def test_numpy_float_threshold_is_a_number(self):
        assert decide(np.zeros(3), np.float64(0.5)).tolist() == [1.0, 1.0, 1.0]


class TestComputeMetrics:
    def test_perfect_predictions(self):
        golds = [[1, 0, 1], [0, 1, 0], [1, 1, 0]]
        r = compute_metrics(golds, golds)
        for v in (r.micro_precision, r.micro_recall, r.micro_f1,
                  r.macro_precision, r.macro_recall, r.macro_f1):
            assert v == 1.0

    def test_worked_two_category_example(self):
        golds = [[1, 0], [0, 1]]
        preds = [[1, 1], [0, 1]]
        r = compute_metrics(preds, golds)
        assert r.micro_precision == pytest.approx(2 / 3, abs=1e-15)
        assert r.micro_recall == 1.0
        assert r.micro_f1 == pytest.approx(0.8, abs=1e-15)
        assert r.macro_precision == pytest.approx(0.75, abs=1e-15)
        assert r.macro_recall == 1.0
        assert r.macro_f1 == pytest.approx(5 / 6, abs=1e-15)
        per = r.per_category
        assert (per[0].precision, per[0].recall, per[0].f1) == (1.0, 1.0, 1.0)
        assert per[1].precision == pytest.approx(0.5)
        assert per[1].recall == 1.0
        assert per[1].f1 == pytest.approx(2 / 3, abs=1e-15)

    def test_all_negative_predictions_score_zero(self):
        golds = [[1, 0], [1, 1]]
        preds = [[0, 0], [0, 0]]
        r = compute_metrics(preds, golds)
        assert (r.micro_precision, r.micro_recall, r.micro_f1) == (0.0, 0.0, 0.0)
        assert (r.macro_precision, r.macro_recall, r.macro_f1) == (0.0, 0.0, 0.0)

    def test_micro_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n, c = int(rng.integers(1, 20)), int(rng.integers(1, 6))
            golds = rng.integers(0, 2, size=(n, c)).astype(float)
            preds = rng.integers(0, 2, size=(n, c)).astype(float)
            r = compute_metrics(preds, golds)
            tp = fp = fn = 0
            for i in range(n):
                for j in range(c):
                    tp += preds[i, j] == 1 and golds[i, j] == 1
                    fp += preds[i, j] == 1 and golds[i, j] == 0
                    fn += preds[i, j] == 0 and golds[i, j] == 1
            want_p = tp / (tp + fp) if tp + fp else 0.0
            want_r = tp / (tp + fn) if tp + fn else 0.0
            assert r.micro_precision == want_p
            assert r.micro_recall == want_r

    def test_macro_f1_is_mean_of_per_category_f1(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n, c = int(rng.integers(1, 15)), int(rng.integers(1, 5))
            golds = rng.integers(0, 2, size=(n, c)).astype(float)
            preds = rng.integers(0, 2, size=(n, c)).astype(float)
            r = compute_metrics(preds, golds)
            assert r.macro_f1 == np.mean([m.f1 for m in r.per_category])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="2.*1"):
            compute_metrics([[1, 0], [0, 1]], [[1, 0]])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="shape"):
            compute_metrics([[1, 0, 1]], [[1, 0]])

    def test_no_examples_rejected(self):
        with pytest.raises(ConfigError, match="no examples"):
            compute_metrics([], [])

    def test_f1_is_harmonic_mean_of_micro_p_and_r(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            golds = rng.integers(0, 2, size=(10, 3)).astype(float)
            preds = rng.integers(0, 2, size=(10, 3)).astype(float)
            r = compute_metrics(preds, golds)
            p, q = r.micro_precision, r.micro_recall
            want = 2 * p * q / (p + q) if p + q else 0.0
            assert r.micro_f1 == pytest.approx(want, abs=1e-15)


class TestReportRendering:
    def make_report(self):
        golds = [[1, 0], [0, 1], [1, 1]]
        preds = [[1, 1], [0, 1], [1, 0]]
        return compute_metrics(preds, golds)

    def test_text_header_names_threshold_and_convention(self):
        text = render_text_report(self.make_report())
        assert "threshold: 0.5" in text
        assert "unweighted mean of per-category F1" in text
        assert "micro" in text and "macro" in text

    def test_records_format(self):
        records = render_records(self.make_report())
        line_re = re.compile(r"^(meta|micro|macro|category)\t[^\t]+\t[a-z0-9_]+\t[^\t]+$")
        lines = records.rstrip("\n").split("\n")
        for line in lines:
            assert line_re.match(line), line
        assert "micro\t-\tf1\t" in records
        assert "category\t0\ttp\t" in records
        # meta rows carry the conventions machine-readably
        assert "meta\t-\tthreshold\t0.5" in records

    def test_rendering_is_deterministic(self):
        r = self.make_report()
        assert render_text_report(r) == render_text_report(r)
        assert render_records(r) == render_records(r)


def tiny_world():
    data = generate_synthetic(
        SyntheticConfig(
            num_categories=3,
            vocab_size=24,
            queries_per_category=12,
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
    )
    return data, config


class TestEvaluate:
    def test_report_shape_and_determinism(self):
        data, config = tiny_world()
        model = Model(config, np.random.default_rng(0))
        a = evaluate(model, data.test, data.categories)
        b = evaluate(model, data.test, data.categories)
        assert a == b
        assert a.example_count == len(data.test)
        assert len(a.per_category) == 3

    def test_empty_data_rejected(self):
        data, config = tiny_world()
        with pytest.raises(ConfigError, match="no examples"):
            evaluate(Model(config, np.random.default_rng(0)), [], data.categories)

    @pytest.mark.parametrize("threshold", ["0.5", None, True, 1.0])
    @pytest.mark.parametrize("empty", [False, True])
    def test_bad_threshold_refused_before_any_forward(self, threshold, empty, monkeypatch):
        """Even with no data, whose loop never reaches `decide`."""
        data, config = tiny_world()
        model = Model(config, np.random.default_rng(0))
        monkeypatch.setattr(model, "encode_categories", lambda cats: pytest.fail("encoded"))
        message = f"threshold must be in (0, 1), got {threshold!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            evaluate(model, [] if empty else data.test, data.categories, threshold)


    def test_chunked_batches_match_per_query_decisions(self):
        """Two full chunks plus a partial one give the per-query report."""
        data, config = tiny_world()
        model = Model(config, np.random.default_rng(1))
        model.fusion.w_x.data[:] = np.random.default_rng(2).normal(size=(3, 3))
        queries = (list(data.test) * 3)[: 2 * EVAL_CHUNK + 5]
        enc = model.encode_categories(data.categories)
        preds = [decide(model.forward(ex.query, enc)) for ex in queries]
        want = compute_metrics(preds, [ex.labels for ex in queries])
        assert evaluate(model, queries, data.categories) == want


class TestAblationSuite:
    def test_four_rows_and_bitwise_full_reproduction(self):
        data, config = tiny_world()
        tc = TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=9)
        results = run_ablation_suite(
            data.train, data.test, data.categories, config, tc, model_seed=11
        )
        assert [v for v, _, _ in results] == ["full", "no_self", "no_char", "no_semantic"]

        standalone = Model(config, np.random.default_rng(11))
        history, _ = train(standalone, data.train, data.categories, tc)
        report = evaluate(standalone, data.test, data.categories)
        full_variant, full_report, full_history = results[0]
        assert full_history == history
        assert full_report == report

        table = render_ablation_table(results)
        lines = table.rstrip("\n").split("\n")
        assert len(lines) == 5
        assert "w/o self" in table and "w/o char" in table and "w/o semantic" in table
        for line in lines[1:]:
            assert len(line.split()) >= 7
