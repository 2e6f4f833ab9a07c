"""Command-line entry point: gen | train | eval | predict.

Every command is deterministic given its flags (seeds are flags), and the
resolved configuration is echoed into each output artifact: the checkpoint
stores it in its header, report files carry it as header lines or records,
and `gen` writes a sidecar run.json (the dataset files themselves have a
fixed line format with no room for headers).  Every file is written
atomically.  The `gen` and `train` flags are generated from the fields, and
take the defaults, of `SyntheticConfig` and of `ModelConfig`/`TrainConfig`.
Each config dataclass checks its own field values, so flags, checkpoint
headers and the run_config `eval --ablation-out` retrains from meet one rule;
that run_config must hold every `TrainConfig` field, as `train` stores it.

Exit codes (`_EXIT_CODES`): 0 success; 2 a file that cannot be read or
written, or an invalid flag, config, dataset, vocab or category file; 3 an
unreadable, malformed or mismatched checkpoint, a header field of the wrong
JSON type and a header describing a model too large to allocate included;
4 training diverged (a NaN or infinite loss or parameter), in which case
`train` writes neither the checkpoint nor the loss log.  An array a flag
makes too large to allocate (`train --l-c 100000`) exits 2.

`_COMMANDS` holds each command's parser builder and handler.  `main` builds
the parser of the command that argv names, and of all four only when argv
names none (`--help`, an unknown command, an empty argv).
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
    NonFiniteError,
    VocabError,
)
from .evaluation import (
    DEFAULT_THRESHOLD,
    check_threshold,
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
    check_output_paths,
    load_categories,
    load_dataset,
    load_vocab,
    save_categories,
    save_dataset,
    save_vocab,
    tokenize,
    write_text,
)
from .training import TrainConfig, load_checkpoint, save_checkpoint, train


def _pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated integers, got {text!r}")
    return (int(parts[0]), int(parts[1]))


# fixed by the vocab and category files, so no flag sets them
_DATA_FIELDS = ("vocab_size", "num_categories")


def _add_config_flags(p, cls, skip=()):
    """One flag per field of `cls` not in `skip`, with the field's default and metadata.

    The flag is --<field-name> unless the metadata names another under "flag".
    """
    for f in dataclasses.fields(cls):
        if f.name in skip:
            continue
        kwargs = {"type": type(f.default), **f.metadata}
        if isinstance(f.default, tuple):
            kwargs.update(type=_pair, metavar="H,W")
        flag = kwargs.pop("flag", "--" + f.name.replace("_", "-"))
        p.add_argument(flag, dest=f.name, default=f.default, **kwargs)


def _config_from(cls, values, **fixed):
    """A config dataclass from the mapping `values`; a KeyError if it lacks a field not fixed."""
    names = [f.name for f in dataclasses.fields(cls) if f.name not in fixed]
    return cls(**{name: values[name] for name in names}, **fixed)


def _gen_parser(sub):
    g = sub.add_parser("gen", help="write a synthetic labeled-query dataset")
    g.add_argument("--out-dir", required=True)
    _add_config_flags(g, SyntheticConfig)


def _train_parser(sub):
    t = sub.add_parser("train", help="train a model and write a checkpoint")
    t.add_argument("--train-file", required=True)
    t.add_argument("--categories-file", required=True)
    t.add_argument("--vocab-file", required=True)
    t.add_argument("--checkpoint-out", required=True)
    t.add_argument("--loss-log", required=True)
    _add_config_flags(t, ModelConfig, skip=_DATA_FIELDS)
    _add_config_flags(t, TrainConfig)


def _eval_parser(sub):
    e = sub.add_parser("eval", help="score a dataset against a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data-file", required=True)
    e.add_argument("--categories-file", required=True)
    e.add_argument("--vocab-file", required=True)
    e.add_argument("--report-out", required=True)
    e.add_argument("--records-out", required=True)
    e.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    e.add_argument("--ablation-out", help="retrain the full model and each ablation on "
                   "--train-file and write their comparison table here")
    e.add_argument("--train-file", help="training data, required with --ablation-out")


def _predict_parser(sub):
    q = sub.add_parser("predict", help="rank categories for one query")
    q.add_argument("--checkpoint", required=True)
    q.add_argument("--categories-file", required=True)
    q.add_argument("--vocab-file", required=True)
    q.add_argument("--query", required=True)
    q.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)


def make_parser(command=None):
    """The parser of every command, or of `command` alone when it names one.

    A one-command parser parses that command's argv as the full parser
    does, and its usage line still lists all four commands.
    """
    parser = argparse.ArgumentParser(
        prog="intentmatch",
        description="Multi-label query intent classifier: synthesize data, "
        "train, evaluate, predict.",
    )
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _COMMANDS[name][0](sub)
    return parser


def cmd_gen(args):
    cfg = _config_from(SyntheticConfig, vars(args))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = generate_synthetic(cfg)
    save_vocab(out / "vocab.txt", data.vocab)
    save_categories(out / "categories.tsv", data.categories)
    save_dataset(out / "train.tsv", data.train)
    save_dataset(out / "test.tsv", data.test)
    sidecar = {"command": "gen", "config": dataclasses.asdict(cfg)}
    write_text(out / "run.json", json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(data.train)} train / {len(data.test)} test queries, "
          f"{len(data.categories)} categories to {out}")
    return 0


def cmd_train(args):
    check_output_paths(
        [args.checkpoint_out, args.loss_log],
        [args.train_file, args.categories_file, args.vocab_file],
    )
    tc = _config_from(TrainConfig, vars(args))
    vocab = load_vocab(args.vocab_file)
    cats = load_categories(args.categories_file, vocab)
    config = _config_from(
        ModelConfig, vars(args), vocab_size=len(vocab), num_categories=len(cats)
    )
    data = load_dataset(args.train_file, vocab, len(cats))
    model = Model(config, np.random.default_rng(tc.seed))
    lines = []

    def log_fn(epoch, loss):
        line = f"{epoch + 1}\t{loss:.10g}"
        lines.append(line)
        print(line)

    history, state = train(model, data, cats, tc, log_fn=log_fn)
    write_text(args.loss_log, "".join(l + "\n" for l in lines))
    run_config = {k: v for k, v in dataclasses.asdict(config).items() if k not in _DATA_FIELDS}
    run_config.update(dataclasses.asdict(tc))
    save_checkpoint(args.checkpoint_out, model, vocab, cats, state,
                    extra={"run_config": run_config})
    print(f"checkpoint: {args.checkpoint_out}")
    return 0


def _run_config_pairs(run_config):
    return " ".join(f"{k}={run_config[k]}" for k in sorted(run_config))


def cmd_eval(args):
    check_threshold(args.threshold)
    ablation = args.ablation_out is not None
    if ablation != (args.train_file is not None):
        raise ConfigError("--ablation-out and --train-file must be given together")
    inputs = [args.checkpoint, args.data_file, args.categories_file, args.vocab_file]
    outputs = [args.report_out, args.records_out]
    if ablation:
        inputs.append(args.train_file)
        outputs.append(args.ablation_out)
    check_output_paths(outputs, inputs)
    vocab = load_vocab(args.vocab_file)
    cats = load_categories(args.categories_file, vocab)
    loaded = load_checkpoint(args.checkpoint, vocab, cats)
    model = loaded.model
    run_cfg = loaded.extra.get("run_config", {})
    if ablation:
        # retrain with the settings the checkpoint was built with, every one stored
        try:
            tc = _config_from(TrainConfig, run_cfg)
        except KeyError as exc:
            raise CorruptCheckpointError(
                f"{args.checkpoint}: run_config has no {exc} field") from exc
        except ConfigError as exc:
            raise CorruptCheckpointError(f"{args.checkpoint}: bad run_config: {exc}") from exc
        train_data = load_dataset(args.train_file, vocab, len(cats))
    data = load_dataset(args.data_file, vocab, len(cats))
    report = evaluate(model, data, cats, threshold=args.threshold)

    header = (f"run config (from checkpoint): {_run_config_pairs(run_cfg)}\n"
              f"eval threshold: {args.threshold:g}\n\n")
    text = render_text_report(report)
    write_text(args.report_out, header + text)
    run_rows = "".join(f"run\t-\t{k}\t{run_cfg[k]}\n" for k in sorted(run_cfg))
    write_text(args.records_out, run_rows + render_records(report))
    print(text, end="")

    if ablation:
        base = dataclasses.replace(model.config, variant="full")
        results = run_ablation_suite(train_data, data, cats, base, tc, tc.seed, args.threshold)
        table = render_ablation_table(results)
        write_text(args.ablation_out, header + table)
        print(table, end="")
    return 0


def cmd_predict(args):
    check_threshold(args.threshold)
    vocab = load_vocab(args.vocab_file)
    cats = load_categories(args.categories_file, vocab)
    loaded = load_checkpoint(args.checkpoint, vocab, cats)
    model = loaded.model
    logits = model.forward(tokenize(args.query, vocab), model.encode_categories(cats))
    probs = probabilities(logits)
    chosen = decide(logits, args.threshold)
    order = np.argsort(-probs, kind="stable")
    print(f"# query: {args.query!r}  threshold: {args.threshold:g}")
    run_cfg = loaded.extra.get("run_config", {})
    if run_cfg:
        print(f"# run config: {_run_config_pairs(run_cfg)}")
    for rank, cid in enumerate(order, start=1):
        mark = "*" if chosen[cid] else " "
        print(f"{rank}\t{cid}\t{cats[int(cid)].name}\t{probs[cid]:.6f}\t{mark}")
    return 0


_COMMANDS = {"gen": (_gen_parser, cmd_gen), "train": (_train_parser, cmd_train),
             "eval": (_eval_parser, cmd_eval), "predict": (_predict_parser, cmd_predict)}

# the exit code of each error a command ends in with one `error:` line.  Of
# the OSErrors only those of a path that cannot be opened or made a directory
# are listed: an I/O failure on an open file, such as a full disk, is not a
# bad input and propagates.  A MemoryError is a size flag (or file) too
# large for the host.
_EXIT_CODES = {
    FileNotFoundError: 2, FileExistsError: 2, IsADirectoryError: 2, NotADirectoryError: 2,
    PermissionError: 2, ConfigError: 2, DataFormatError: 2, VocabError: 2, MemoryError: 2,
    CheckpointError: 3, NonFiniteError: 4,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = make_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return _COMMANDS[args.command][1](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
