"""Command-line entry point: gen | train | eval | predict.

Every command is deterministic given its flags (seeds are flags), and the
resolved configuration is echoed into each output artifact: the checkpoint
stores it in its header, report files carry it as header lines or records,
and `gen` writes a sidecar run.json (the dataset files themselves have a
fixed line format with no room for headers).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .errors import (
    CheckpointError,
    ConfigError,
    CorruptCheckpointError,
    DataFormatError,
    VocabError,
)
from .evaluation import (
    decide,
    evaluate,
    probabilities,
    render_ablation_table,
    render_records,
    render_text_report,
    run_ablation_suite,
)
from .model import Model, ModelConfig
from .synthetic import SyntheticConfig, generate_synthetic
from .textdata import (
    load_categories,
    load_dataset,
    load_vocab,
    save_categories,
    save_dataset,
    save_vocab,
    tokenize,
)
from .training import TrainConfig, load_checkpoint, save_checkpoint, train


def _pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated integers, got {text!r}")
    return (int(parts[0]), int(parts[1]))


# fixed by the vocab and category files, so no flag sets them
_DATA_FIELDS = ("vocab_size", "num_categories")


def _add_config_flags(p, *config_classes):
    """One --flag per config field, with the field's default and metadata."""
    for cls in config_classes:
        for f in dataclasses.fields(cls):
            if f.name in _DATA_FIELDS:
                continue
            flag = "--" + f.name.replace("_", "-")
            if isinstance(f.default, tuple):
                p.add_argument(flag, type=_pair, default=f.default, metavar="H,W", **f.metadata)
            else:
                p.add_argument(flag, type=type(f.default), default=f.default, **f.metadata)


def _config_from_args(cls, args, **fixed):
    """A config dataclass from the parsed flags, plus fields the flags do not set."""
    names = [f.name for f in dataclasses.fields(cls) if f.name not in fixed]
    return cls(**{name: getattr(args, name) for name in names}, **fixed)


def make_parser():
    parser = argparse.ArgumentParser(
        prog="intentmatch",
        description="Multi-label query intent classifier: synthesize data, "
        "train, evaluate, predict.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a synthetic labeled-query dataset")
    g.add_argument("--out-dir", required=True)
    g.add_argument("--categories", type=int, default=8)
    g.add_argument("--vocab-size", type=int, default=48)
    g.add_argument("--queries-per-category", type=int, default=300)
    g.add_argument("--tail-exponent", type=float, default=0.5)
    g.add_argument("--multi-label-fraction", type=float, default=0.15)
    g.add_argument("--noise", type=float, default=0.05)
    g.add_argument("--test-fraction", type=float, default=1.0 / 6.0)
    g.add_argument("--query-len-min", type=int, default=4)
    g.add_argument("--query-len-max", type=int, default=10)
    g.add_argument("--l-q", type=int, default=16)
    g.add_argument("--seed", type=int, default=42)

    t = sub.add_parser("train", help="train a model and write a checkpoint")
    t.add_argument("--train-file", required=True)
    t.add_argument("--categories-file", required=True)
    t.add_argument("--vocab-file", required=True)
    t.add_argument("--checkpoint-out", required=True)
    t.add_argument("--loss-log", required=True)
    _add_config_flags(t, ModelConfig, TrainConfig)

    e = sub.add_parser("eval", help="score a dataset against a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data-file", required=True)
    e.add_argument("--categories-file", required=True)
    e.add_argument("--vocab-file", required=True)
    e.add_argument("--report-out", required=True)
    e.add_argument("--records-out", required=True)
    e.add_argument("--threshold", type=float, default=0.5)
    e.add_argument("--ablation", action="store_true",
                   help="retrain full model and all ablations, write a comparison table")
    e.add_argument("--train-file", help="training data, required with --ablation")
    e.add_argument("--ablation-out", help="table path, required with --ablation")

    q = sub.add_parser("predict", help="rank categories for one query")
    q.add_argument("--checkpoint", required=True)
    q.add_argument("--categories-file", required=True)
    q.add_argument("--vocab-file", required=True)
    q.add_argument("--query", required=True)
    q.add_argument("--threshold", type=float, default=0.5)
    return parser


def _require_files(*paths):
    for p in paths:
        if p is not None and not Path(p).exists():
            raise FileNotFoundError(f"missing file: {p}")


def cmd_gen(args):
    cfg = SyntheticConfig(
        num_categories=args.categories,
        vocab_size=args.vocab_size,
        queries_per_category=args.queries_per_category,
        tail_exponent=args.tail_exponent,
        seed=args.seed,
        multi_label_fraction=args.multi_label_fraction,
        noise=args.noise,
        test_fraction=args.test_fraction,
        query_len_min=args.query_len_min,
        query_len_max=args.query_len_max,
        query_l_max=args.l_q,
    )
    data = generate_synthetic(cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_vocab(out / "vocab.txt", data.vocab)
    save_categories(out / "categories.tsv", data.categories)
    save_dataset(out / "train.tsv", data.train)
    save_dataset(out / "test.tsv", data.test)
    sidecar = {"command": "gen", "config": dataclasses.asdict(cfg)}
    (out / "run.json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(data.train)} train / {len(data.test)} test queries, "
          f"{len(data.categories)} categories to {out}")
    return 0


def cmd_train(args):
    tc = _config_from_args(TrainConfig, args)
    _require_files(args.train_file, args.categories_file, args.vocab_file)
    vocab = load_vocab(args.vocab_file)
    cats = load_categories(args.categories_file, vocab)
    config = _config_from_args(
        ModelConfig, args, vocab_size=len(vocab), num_categories=len(cats)
    )
    data = load_dataset(args.train_file, vocab, len(cats), l_max=config.l_q)
    model = Model(config, np.random.default_rng(tc.seed))
    lines = []

    def log_fn(epoch, loss):
        line = f"{epoch + 1}\t{loss:.10g}"
        lines.append(line)
        print(line)

    history, state = train(model, data, cats, tc, log_fn=log_fn)
    Path(args.loss_log).write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    run_config = {k: v for k, v in dataclasses.asdict(config).items() if k not in _DATA_FIELDS}
    run_config.update(dataclasses.asdict(tc))
    save_checkpoint(args.checkpoint_out, model, vocab, cats, state,
                    extra={"run_config": run_config})
    print(f"checkpoint: {args.checkpoint_out}")
    return 0


def _config_header_lines(extra, threshold):
    run = extra.get("run_config", {})
    pairs = " ".join(f"{k}={run[k]}" for k in sorted(run))
    return [
        f"run config (from checkpoint): {pairs}",
        f"eval threshold: {threshold:g}",
    ]


def cmd_eval(args):
    _require_files(args.checkpoint, args.data_file, args.categories_file, args.vocab_file)
    vocab = load_vocab(args.vocab_file)
    cats = load_categories(args.categories_file, vocab)
    loaded = load_checkpoint(args.checkpoint, vocab, cats)
    model = loaded.model
    data = load_dataset(args.data_file, vocab, len(cats), l_max=model.config.l_q)
    report = evaluate(model, data, cats, threshold=args.threshold)

    header = _config_header_lines(loaded.extra, args.threshold)
    text = "".join(h + "\n" for h in header) + "\n" + render_text_report(report)
    Path(args.report_out).write_text(text, encoding="utf-8")

    records = render_records(report)
    run_cfg = loaded.extra.get("run_config", {})
    run_rows = "".join(
        f"run\t-\t{k}\t{run_cfg[k]}\n" for k in sorted(run_cfg)
    )
    Path(args.records_out).write_text(run_rows + records, encoding="utf-8")
    print(render_text_report(report), end="")

    if args.ablation:
        if not args.train_file or not args.ablation_out:
            raise ConfigError("--ablation requires --train-file and --ablation-out")
        _require_files(args.train_file)
        train_data = load_dataset(args.train_file, vocab, len(cats), l_max=model.config.l_q)
        base = dataclasses.replace(model.config, variant="full")
        # retrain with the settings the checkpoint was built with; keys that
        # are not TrainConfig fields (older checkpoints carry some) are ignored
        try:
            tc = TrainConfig(**{
                f.name: type(f.default)(run_cfg[f.name])
                for f in dataclasses.fields(TrainConfig) if f.name in run_cfg
            })
        except (TypeError, ValueError) as exc:
            raise CorruptCheckpointError(f"{args.checkpoint}: bad run_config: {exc}") from exc
        results = run_ablation_suite(train_data, data, cats, base, tc, model_seed=tc.seed)
        table = "".join(h + "\n" for h in header) + "\n" + render_ablation_table(results)
        Path(args.ablation_out).write_text(table, encoding="utf-8")
        print(render_ablation_table(results), end="")
    return 0


def cmd_predict(args):
    _require_files(args.checkpoint, args.categories_file, args.vocab_file)
    vocab = load_vocab(args.vocab_file)
    cats = load_categories(args.categories_file, vocab)
    loaded = load_checkpoint(args.checkpoint, vocab, cats)
    model = loaded.model
    seq = tokenize(args.query, vocab, model.config.l_q)
    logits = model.forward_with_categories(seq, cats)
    probs = probabilities(logits)
    chosen = decide(logits, args.threshold)
    order = np.argsort(-probs, kind="stable")
    print(f"# query: {args.query!r}  threshold: {args.threshold:g}")
    run_cfg = loaded.extra.get("run_config", {})
    if run_cfg:
        pairs = " ".join(f"{k}={run_cfg[k]}" for k in sorted(run_cfg))
        print(f"# run config: {pairs}")
    for rank, cid in enumerate(order, start=1):
        mark = "*" if chosen[cid] else " "
        print(f"{rank}\t{cid}\t{cats[int(cid)].name}\t{probs[cid]:.6f}\t{mark}")
    return 0


_HANDLERS = {"gen": cmd_gen, "train": cmd_train, "eval": cmd_eval, "predict": cmd_predict}


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, DataFormatError, VocabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
