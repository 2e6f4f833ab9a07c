"""Thresholded multi-label decisions, micro/macro metrics, ablation runs.

Conventions, fixed here and echoed in every report header:

* a label is predicted when sigmoid(logit) >= threshold (boundary
  inclusive, so a zero logit at threshold 0.5 counts as positive);
* division by zero inside precision/recall/F1 yields 0;
* macro-F1 is the unweighted mean of per-category F1 scores, not the
  harmonic mean of macro precision and recall.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, check_range
from .model import VARIANTS, Model
from .training import TrainConfig, train

MACRO_CONVENTION = "macro-F1 = unweighted mean of per-category F1"
DEFAULT_THRESHOLD = 0.5
# queries per batched forward in `evaluate`
EVAL_CHUNK = 32


def probabilities(logits):
    """Per-category sigmoid over raw logits (Tensor or array)."""
    return ad.stable_sigmoid(np.asarray(getattr(logits, "data", logits), dtype=np.float64))


def check_threshold(threshold):
    """Raise ConfigError unless 0 < threshold < 1."""
    check_range("threshold", threshold, "(0, 1)")


def decide(logits, threshold=DEFAULT_THRESHOLD):
    """Binary label vector: sigmoid(logit) >= threshold, inclusive."""
    check_threshold(threshold)
    return (probabilities(logits) >= threshold).astype(np.float64)


@dataclass
class CategoryMetrics:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


@dataclass
class MetricsReport:
    micro_precision: float
    micro_recall: float
    micro_f1: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_category: list
    threshold: float
    example_count: int
    macro_convention: str = MACRO_CONVENTION


def _prf(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def compute_metrics(preds, golds, threshold=DEFAULT_THRESHOLD):
    """Micro (pooled counts) and macro (per-category means) P/R/F1."""
    if not len(preds):
        raise ConfigError("no examples to score")
    if len(preds) != len(golds):
        raise ConfigError(f"{len(preds)} predictions vs {len(golds)} gold vectors")
    p = np.asarray(preds, dtype=np.float64)
    g = np.asarray(golds, dtype=np.float64)
    if p.shape != g.shape:
        raise ConfigError(f"prediction shape {p.shape} vs gold shape {g.shape}")
    tp = ((p == 1) & (g == 1)).sum(axis=0)
    fp = ((p == 1) & (g == 0)).sum(axis=0)
    fn = ((p == 0) & (g == 1)).sum(axis=0)
    per_category = []
    for c in range(p.shape[1]):
        prec, rec, f1 = _prf(int(tp[c]), int(fp[c]), int(fn[c]))
        per_category.append(
            CategoryMetrics(int(tp[c]), int(fp[c]), int(fn[c]), prec, rec, f1)
        )
    micro_p, micro_r, micro_f1 = _prf(int(tp.sum()), int(fp.sum()), int(fn.sum()))
    macro_p = float(np.mean([m.precision for m in per_category]))
    macro_r = float(np.mean([m.recall for m in per_category]))
    macro_f1 = float(np.mean([m.f1 for m in per_category]))
    return MetricsReport(
        micro_p, micro_r, micro_f1, macro_p, macro_r, macro_f1,
        per_category, threshold, len(preds),
    )


def evaluate(model, data, cats, threshold=DEFAULT_THRESHOLD):
    """Forward every query (no gradients) and score against gold labels.

    Queries run in batches of EVAL_CHUNK, so memory stays bounded however
    large the dataset is.
    """
    check_threshold(threshold)
    cat_enc = model.encode_categories(cats)
    preds, golds = [], []
    for start in range(0, len(data), EVAL_CHUNK):
        chunk = data[start : start + EVAL_CHUNK]
        logits = model.forward([ex.query for ex in chunk], cat_enc)
        preds.extend(decide(logits, threshold))
        golds.extend(ex.labels for ex in chunk)
    return compute_metrics(preds, golds, threshold)


# ---------------------------------------------------------------------------
# report rendering


def render_text_report(report):
    """Aligned human-readable table with the conventions in the header."""
    lines = [
        f"threshold: {report.threshold:g} (sigmoid(logit) >= threshold predicts the label)",
        f"convention: {report.macro_convention}; empty denominators score 0",
        f"examples: {report.example_count}",
        "",
        f"{'scope':<10}{'precision':>12}{'recall':>12}{'f1':>12}",
        f"{'micro':<10}{report.micro_precision:>12.6f}{report.micro_recall:>12.6f}"
        f"{report.micro_f1:>12.6f}",
        f"{'macro':<10}{report.macro_precision:>12.6f}{report.macro_recall:>12.6f}"
        f"{report.macro_f1:>12.6f}",
        "",
        f"{'category':<10}{'tp':>6}{'fp':>6}{'fn':>6}{'precision':>12}{'recall':>12}{'f1':>12}",
    ]
    for cid, m in enumerate(report.per_category):
        lines.append(
            f"{cid:<10}{m.tp:>6}{m.fp:>6}{m.fn:>6}"
            f"{m.precision:>12.6f}{m.recall:>12.6f}{m.f1:>12.6f}"
        )
    return "\n".join(lines) + "\n"


def render_records(report):
    """Line-delimited records: scope, category or -, metric, value."""
    rows = [
        ("meta", "-", "threshold", f"{report.threshold:g}"),
        ("meta", "-", "examples", str(report.example_count)),
        ("meta", "-", "macro_convention", report.macro_convention),
    ]
    for scope in ("micro", "macro"):
        for metric in ("precision", "recall", "f1"):
            value = getattr(report, f"{scope}_{metric}")
            rows.append((scope, "-", metric, f"{value:.10g}"))
    for cid, m in enumerate(report.per_category):
        rows.append(("category", str(cid), "tp", str(m.tp)))
        rows.append(("category", str(cid), "fp", str(m.fp)))
        rows.append(("category", str(cid), "fn", str(m.fn)))
        rows.append(("category", str(cid), "precision", f"{m.precision:.10g}"))
        rows.append(("category", str(cid), "recall", f"{m.recall:.10g}"))
        rows.append(("category", str(cid), "f1", f"{m.f1:.10g}"))
    return "".join("\t".join(row) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# ablation harness


def run_ablation_suite(train_data, test_data, cats, base_config, train_config, model_seed,
                       threshold=DEFAULT_THRESHOLD):
    """Train the full model and all three ablations; evaluate each at `threshold`.

    Every variant gets a fresh seeded generator and identical data/config,
    so the full-model row is bit-for-bit the standalone full-model run.
    """
    results = []
    for variant in VARIANTS:
        config = dataclasses.replace(base_config, variant=variant)
        model = Model(config, np.random.default_rng(model_seed))
        history, _ = train(model, train_data, cats, train_config)
        report = evaluate(model, test_data, cats, threshold)
        results.append((variant, report, history))
    return results


def render_ablation_table(results):
    header = (
        f"{'model':<14}{'micro-P':>10}{'micro-R':>10}{'micro-F1':>10}"
        f"{'macro-P':>10}{'macro-R':>10}{'macro-F1':>10}"
    )
    lines = [header]
    for variant, report, _ in results:
        label = variant.replace("no_", "w/o ")
        lines.append(
            f"{label:<14}{report.micro_precision:>10.4f}{report.micro_recall:>10.4f}"
            f"{report.micro_f1:>10.4f}{report.macro_precision:>10.4f}"
            f"{report.macro_recall:>10.4f}{report.macro_f1:>10.4f}"
        )
    return "\n".join(lines) + "\n"
