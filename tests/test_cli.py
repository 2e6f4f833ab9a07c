"""End-to-end command-line tests over a small generated dataset."""

import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intentmatch import cli
from intentmatch.cli import main, make_parser
from intentmatch.model import Model, ModelConfig
from intentmatch.textdata import load_categories, load_dataset, load_vocab
from intentmatch.training import load_checkpoint, save_checkpoint

TINY_GEN = [
    "--categories", "3",
    "--vocab-size", "24",
    "--queries-per-category", "12",
    "--query-len-min", "3",
    "--query-len-max", "6",
    "--noise", "0.0",
    "--multi-label-fraction", "0.0",
    "--seed", "7",
]

TINY_MODEL = [
    "--d", "8",
    "--l-q", "8",
    "--l-c", "8",
    "--encoder-layers", "1",
    "--encoder-heads", "2",
    "--conv-filters", "2",
    "--conv-blocks", "1",
]


def gen(tmp_path, extra=()):
    out = tmp_path / "data"
    rc = main(["gen", "--out-dir", str(out), *TINY_GEN, *extra])
    assert rc == 0
    return out


def train_argv(data_dir, out_dir):
    """`train` reading data_dir and writing out_dir/m.ckpt and out_dir/l.tsv."""
    return [
        "train",
        "--train-file", str(data_dir / "train.tsv"),
        "--categories-file", str(data_dir / "categories.tsv"),
        "--vocab-file", str(data_dir / "vocab.txt"),
        "--checkpoint-out", str(out_dir / "m.ckpt"),
        "--loss-log", str(out_dir / "l.tsv"),
    ]


def train(tmp_path, data_dir, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    rc = main([
        *train_argv(data_dir, tmp_path),
        *TINY_MODEL,
        "--epochs", "2",
        "--batch-size", "8",
        "--lr", "0.002",
        "--seed", "5",
        *extra,
    ])
    assert rc == 0
    return tmp_path / "m.ckpt", tmp_path / "l.tsv"


class TestGen:
    def test_deterministic_files(self, tmp_path):
        a = gen(tmp_path / "a")
        b = gen(tmp_path / "b")
        for name in ("train.tsv", "test.tsv", "categories.tsv", "vocab.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_single_category_rejected(self, tmp_path, capsys):
        rc = main(["gen", "--out-dir", str(tmp_path / "x"), "--categories", "1"])
        assert rc != 0
        assert "categories" in capsys.readouterr().err

    def test_output_loads_cleanly(self, tmp_path):
        out = gen(tmp_path)
        vocab = load_vocab(out / "vocab.txt")
        cats = load_categories(out / "categories.tsv", vocab)
        train_set = load_dataset(out / "train.tsv", vocab, len(cats))
        test_set = load_dataset(out / "test.tsv", vocab, len(cats))
        assert len(cats) == 3
        assert len(train_set) + len(test_set) == 36

    def test_sidecar_embeds_config(self, tmp_path):
        out = gen(tmp_path)
        sidecar = (out / "run.json").read_text()
        assert '"num_categories": 3' in sidecar
        assert '"seed": 7' in sidecar

    def test_failed_write_keeps_the_old_files_and_leaves_no_temp(self, tmp_path, monkeypatch):
        out = gen(tmp_path)
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            main(["gen", "--out-dir", str(out), *TINY_GEN, "--seed", "8"])
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestTrain:
    def test_loss_log_exactly_epochs_lines(self, tmp_path, capsys):
        data = gen(tmp_path)
        ckpt, log = train(tmp_path, data)
        lines = log.read_text().rstrip("\n").split("\n")
        assert len(lines) == 2
        for i, line in enumerate(lines, start=1):
            epoch, loss = line.split("\t")
            assert int(epoch) == i
            assert np.isfinite(float(loss))
        out = capsys.readouterr().out
        for line in lines:
            assert line in out

    def test_checkpoint_written_and_loadable_with_config_echo(self, tmp_path):
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data)
        vocab = load_vocab(data / "vocab.txt")
        cats = load_categories(data / "categories.tsv", vocab)
        loaded = load_checkpoint(ckpt, vocab, cats)
        rc = loaded.extra["run_config"]
        assert rc["d"] == 8
        assert rc["epochs"] == 2
        assert rc["lr"] == 0.002
        assert loaded.adam_state is not None

    def test_missing_categories_file_exits_nonzero_naming_path(self, tmp_path, capsys):
        data = gen(tmp_path)
        argv = train_argv(data, tmp_path)
        argv[argv.index("--categories-file") + 1] = str(data / "nope.tsv")
        rc = main(argv)
        assert rc != 0
        assert "nope.tsv" in capsys.readouterr().err

    def test_deterministic_checkpoints(self, tmp_path):
        data = gen(tmp_path)
        ckpt_a, log_a = train(tmp_path / "a", data)
        ckpt_b, log_b = train(tmp_path / "b", data)
        assert log_a.read_bytes() == log_b.read_bytes()
        assert ckpt_a.read_bytes() == ckpt_b.read_bytes()


TRAIN_FLAG_DEFAULTS = {
    "d": 64, "l_q": 16, "l_c": 32, "encoder_layers": 2, "encoder_heads": 4,
    "encoder_ffn": 0, "conv_filters": 8, "conv_window": (3, 3), "conv_stride": (1, 1),
    "pool_window": (2, 2), "pool_stride": (2, 2), "conv_blocks": 2, "variant": "full",
    "lr": 5e-5, "batch_size": 32, "epochs": 10, "seed": 42,
}

GEN_FLAG_DEFAULTS = {
    "num_categories": 8, "vocab_size": 48, "queries_per_category": 300,
    "tail_exponent": 0.5, "multi_label_fraction": 0.15, "noise": 0.05,
    "test_fraction": 1.0 / 6.0, "query_len_min": 4, "query_len_max": 10, "seed": 42,
}

TRAIN_REQUIRED = [
    "--train-file", "t.tsv", "--categories-file", "c.tsv", "--vocab-file", "v.txt",
    "--checkpoint-out", "m.ckpt", "--loss-log", "l.tsv",
]


class TestTrainFlags:
    def test_defaults(self):
        args = vars(make_parser().parse_args(["train", *TRAIN_REQUIRED]))
        required = {"command", "train_file", "categories_file", "vocab_file",
                    "checkpoint_out", "loss_log"}
        assert {k: v for k, v in args.items() if k not in required} == TRAIN_FLAG_DEFAULTS

    def test_pair_flag_parses_to_tuple(self):
        args = make_parser().parse_args(["train", *TRAIN_REQUIRED, "--conv-window", "3,3"])
        assert args.conv_window == (3, 3)

    @pytest.mark.parametrize(
        "flags", [["--workers", "2"], ["--variant", "bogus"], ["--conv-window", "3"]]
    )
    def test_rejected_by_argparse(self, flags):
        with pytest.raises(SystemExit) as info:
            make_parser().parse_args(["train", *TRAIN_REQUIRED, *flags])
        assert info.value.code == 2

    def test_zero_batch_size_exits_2_without_traceback(self, tmp_path, capsys):
        data = gen(tmp_path)
        capsys.readouterr()
        rc = main([*train_argv(data, tmp_path), "--batch-size", "0"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "batch_size" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.ckpt").exists()


    @pytest.mark.parametrize("lr", ["nan", "inf", "0"])
    def test_non_finite_or_zero_lr_exits_2_without_checkpoint(self, tmp_path, capsys, lr):
        data = gen(tmp_path)
        capsys.readouterr()
        rc = main([*train_argv(data, tmp_path), "--lr", lr])
        err = capsys.readouterr().err
        assert rc == 2
        assert "lr" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.ckpt").exists()


class TestGenFlags:
    def test_defaults(self):
        args = vars(make_parser().parse_args(["gen", "--out-dir", "d"]))
        required = {"command", "out_dir"}
        assert {k: v for k, v in args.items() if k not in required} == GEN_FLAG_DEFAULTS

    @pytest.mark.parametrize("flag", ["--query-l-max", "--core-tokens-per-category"])
    def test_rejected_by_argparse(self, flag):
        with pytest.raises(SystemExit) as info:
            make_parser().parse_args(["gen", "--out-dir", "d", flag, "8"])
        assert info.value.code == 2


PREDICT_REQUIRED = ["--checkpoint", "m.ckpt", "--categories-file", "c.tsv", "--vocab-file", "v.txt"]

# argv lists that argparse ends on: help, or an error it reports itself
PARSER_CASES = {
    "help": ["--help"],
    **{f"{command} help": [command, "--help"] for command in ("gen", "train", "eval", "predict")},
    "empty": [],
    "unknown command": ["serve"],
    "predict without --query": ["predict", *PREDICT_REQUIRED],
    "train --lr x": ["train", *TRAIN_REQUIRED, "--lr", "x"],
    # an unrecognized argument is reported by the top-level parser, with its usage line
    "predict --bogus": ["predict", *PREDICT_REQUIRED, "--query", "q", "--bogus"],
}


def parse_outcome(parse, argv, capsys):
    """The exit code, stdout and stderr of `parse(argv)`, which argparse ends."""
    with pytest.raises(SystemExit) as info:
        parse(argv)
    out, err = capsys.readouterr()
    return info.value.code, out, err


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_CASES.values(), ids=PARSER_CASES.keys())
    def test_main_ends_as_the_full_parser_does(self, argv, capsys):
        want = parse_outcome(make_parser().parse_args, argv, capsys)
        assert parse_outcome(main, argv, capsys) == want

    @pytest.mark.parametrize("argv, built", [
        (["predict", "--help"], ["predict"]),
        (["gen", "--help"], ["gen"]),
        (["--help"], ["gen", "train", "eval", "predict"]),
        (["serve"], ["gen", "train", "eval", "predict"]),
    ])
    def test_main_builds_only_the_named_command(self, argv, built, capsys, monkeypatch):
        calls = []

        def recorded(name, build):
            return lambda sub: calls.append(name) or build(sub)

        monkeypatch.setattr(
            cli, "_COMMANDS", {n: (recorded(n, b), run) for n, (b, run) in cli._COMMANDS.items()}
        )
        parse_outcome(main, argv, capsys)
        assert calls == built


# (command, flags, a word the error line must contain)
MALFORMED_FLAGS = [
    ("train", ["--encoder-heads", "0"], "encoder_heads"),
    ("train", ["--d", "0"], "d must"),
    ("train", ["--d", "-2"], "d must"),
    ("train", ["--conv-filters", "0"], "conv_filters"),
    ("train", ["--conv-blocks", "0"], "conv_blocks"),
    ("train", ["--conv-stride", "0,0"], "conv_stride"),
    ("train", ["--pool-stride", "0,0"], "pool_stride"),
    ("train", ["--conv-window", "0,0"], "conv_window"),
    ("train", ["--encoder-ffn", "-1"], "encoder_ffn"),
    ("train", ["--seed", "-1"], "seed"),
    ("gen", ["--query-len-min", "5", "--query-len-max", "2"], "query_len_min"),
    ("gen", ["--seed", "-1"], "seed"),
    ("gen", ["--test-fraction", "2"], "test_fraction"),
    ("gen", ["--noise", "2"], "noise"),
    ("gen", ["--multi-label-fraction", "2"], "multi_label_fraction"),
    ("gen", ["--tail-exponent", "nan"], "tail_exponent"),
    ("gen", ["--queries-per-category", "0"], "queries_per_category"),
    # the pool would reach U+D800
    ("gen", ["--vocab-size", "35365"], "vocab_size must be in [4, 35364], got 35365"),
    ("gen", ["--tail-exponent=-400"], "tail_exponent"),  # one weight overflows
    # only the weights' sum overflows
    ("gen", ["--categories", "10000", "--vocab-size", "20000", "--queries-per-category", "1",
             "--tail-exponent=-77"], "tail_exponent"),
]


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    return gen(tmp_path_factory.mktemp("tiny"))


class TestMalformedFlags:
    @pytest.mark.parametrize(
        "command, flags, word", MALFORMED_FLAGS,
        ids=[" ".join([c[0], *c[1]]) for c in MALFORMED_FLAGS],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, tiny_data, command, flags, word):
        if command == "gen":
            argv, output = ["gen", "--out-dir", str(tmp_path / "out")], tmp_path / "out"
        else:
            argv, output = train_argv(tiny_data, tmp_path), tmp_path / "m.ckpt"
        capsys.readouterr()
        rc = main([*argv, *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert word in err
        assert not output.exists()


class TestNonFiniteTraining:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf arithmetic
    def test_inf_parameter_exits_4_without_checkpoint_or_loss_log(
        self, tmp_path, capsys, monkeypatch
    ):
        data = gen(tmp_path)

        def model_with_inf(config, rng):
            model = Model(config, rng)
            model.parameters()[0][1].data[...] = np.inf
            return model

        monkeypatch.setattr(cli, "Model", model_with_inf)
        capsys.readouterr()
        rc = main([*train_argv(data, tmp_path), *TINY_MODEL])
        err = capsys.readouterr().err
        assert rc == 4
        assert "epoch 1, batch 1" in err and "encoder.tok_emb" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.ckpt").exists()
        assert not (tmp_path / "l.tsv").exists()


class TestExitCodes:
    """The rows of `cli._EXIT_CODES` that no other test ends in."""

    def run(self, capsys, argv):
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return rc, err

    def test_missing_input_file_exits_2_naming_it(self, tmp_path, capsys, tiny_data):
        argv = train_argv(tiny_data, tmp_path)
        argv[argv.index("--vocab-file") + 1] = str(tmp_path / "ghost.txt")
        rc, err = self.run(capsys, argv)
        assert rc == 2 and "ghost.txt" in err

    def test_conv_stack_that_does_not_fit_exits_2_before_the_train_file_is_read(
        self, tmp_path, capsys, tiny_data
    ):
        argv = train_argv(tiny_data, tmp_path)
        argv[argv.index("--train-file") + 1] = str(tmp_path / "ghost.tsv")
        rc, err = self.run(capsys, [*argv, "--l-q", "2"])
        assert rc == 2 and "conv/pool block 1: window 3x3 exceeds input 2x32" in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_existing_file_as_gen_out_dir_exits_2_before_generating(
        self, tmp_path, capsys, monkeypatch
    ):
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        monkeypatch.setattr(
            cli, "generate_synthetic", lambda cfg: pytest.fail("generated before the mkdir")
        )
        rc, err = self.run(capsys, ["gen", "--out-dir", str(afile), *TINY_GEN])
        assert rc == 2 and str(afile) in err
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]
        assert afile.read_text() == "keep\n"

    @pytest.mark.parametrize("command, threshold", [("predict", "1.5"), ("eval", "0")])
    def test_threshold_out_of_range_exits_2_before_any_input_is_read(
        self, tmp_path, capsys, command, threshold
    ):
        """The checkpoint does not exist, so any read would fail with another message."""
        argv = [
            command,
            "--checkpoint", str(tmp_path / "ghost.ckpt"),
            "--categories-file", str(tmp_path / "ghost.tsv"),
            "--vocab-file", str(tmp_path / "ghost.txt"),
            "--threshold", threshold,
        ]
        if command == "predict":
            argv += ["--query", "abc"]
        else:
            argv += ["--data-file", str(tmp_path / "ghost.tsv"),
                     "--report-out", str(tmp_path / "r.txt"),
                     "--records-out", str(tmp_path / "rec.tsv")]
        rc, err = self.run(capsys, argv)
        assert rc == 2 and f"threshold must be in (0, 1), got {float(threshold)}" in err
        assert list(tmp_path.iterdir()) == []

    def test_malformed_dataset_exits_2_naming_the_line(self, tmp_path, capsys, tiny_data):
        bad = tmp_path / "bad.tsv"
        bad.write_text("abc\t0\nno tab here\n", encoding="utf-8")
        argv = train_argv(tiny_data, tmp_path)
        argv[argv.index("--train-file") + 1] = str(bad)
        rc, err = self.run(capsys, argv)
        assert rc == 2 and "bad.tsv:2" in err

    def test_out_of_vocab_token_id_exits_2(self, tmp_path, capsys, tiny_data, monkeypatch):
        """No file can hold such an id, so the loaded dataset is altered."""

        def load_with_bad_id(*args, **kwargs):
            data = load_dataset(*args, **kwargs)
            data[0].query[0] = 10_000
            return data

        monkeypatch.setattr(cli, "load_dataset", load_with_bad_id)
        rc, err = self.run(capsys, [*train_argv(tiny_data, tmp_path), *TINY_MODEL])
        assert rc == 2 and "10000" in err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize(
        "message", ["Unable to allocate 2.33 TiB for an array with shape (8, 4, 100000, 100000)", ""],
        ids=["numpy", "bare"],
    )
    def test_memory_error_exits_2_naming_the_allocation(
        self, tmp_path, capsys, tiny_data, monkeypatch, message
    ):
        """`train --l-c 100000` asks numpy for that array.  Whether a real allocation
        fails at once depends on the host's overcommit setting, so the handler raises."""

        def out_of_memory(args):
            raise MemoryError(message)

        monkeypatch.setitem(cli._COMMANDS, "train", (cli._COMMANDS["train"][0], out_of_memory))
        rc, err = self.run(capsys, train_argv(tiny_data, tmp_path))
        assert rc == 2 and err == f"error: {message or 'MemoryError'}\n"
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("kind", ["vocab", "categories", "dataset"])
    def test_undecodable_input_file_exits_2_naming_it(self, tmp_path, capsys, tiny_data, kind):
        flag, name, text = {
            "vocab": ("--vocab-file", "vocab.txt", b"a\n\xff\n"),
            "categories": ("--categories-file", "cats.tsv", b"0\t\xff\xfe\tx\n"),
            "dataset": ("--train-file", "train.tsv", b"ab\t0\n\xff\t0\n"),
        }[kind]
        bad = tmp_path / "in" / name
        bad.parent.mkdir()
        bad.write_bytes(text)
        argv = train_argv(tiny_data, tmp_path)
        argv[argv.index(flag) + 1] = str(bad)
        rc, err = self.run(capsys, [*argv, *TINY_MODEL])
        assert rc == 2 and str(bad) in err and "UTF-8" in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_directory_as_checkpoint_exits_2(self, tmp_path, capsys, tiny_data):
        rc, err = self.run(capsys, [
            "predict",
            "--checkpoint", str(tmp_path),
            "--categories-file", str(tiny_data / "categories.tsv"),
            "--vocab-file", str(tiny_data / "vocab.txt"),
            "--query", "abc",
        ])
        assert rc == 2 and str(tmp_path) in err

    def test_unwritable_output_path_exits_2_before_any_work(self, tmp_path, capsys, tiny_data):
        """A missing directory or a directory as the path, checked for every
        output before the inputs are read, so nothing is written."""
        ghost = tmp_path / "nodir"
        argv = train_argv(tiny_data, tmp_path)
        argv[argv.index("--checkpoint-out") + 1] = str(ghost / "m.ckpt")
        rc, err = self.run(capsys, [*argv, *TINY_MODEL])
        assert rc == 2 and f"no such directory: {ghost} " in err
        assert not (tmp_path / "l.tsv").exists()

        argv = train_argv(tiny_data, tmp_path)
        argv[argv.index("--loss-log") + 1] = str(tmp_path)
        rc, err = self.run(capsys, [*argv, *TINY_MODEL])
        assert rc == 2 and f"output {tmp_path} is a directory" in err
        assert not (tmp_path / "m.ckpt").exists()

        ckpt, _ = train(tmp_path / "run", tiny_data)
        outputs = {name: tmp_path / name for name in ("report.txt", "records.tsv")}
        rc, err = self.run(capsys, [
            "eval",
            "--checkpoint", str(ckpt),
            "--data-file", str(tiny_data / "test.tsv"),
            "--categories-file", str(tiny_data / "categories.tsv"),
            "--vocab-file", str(tiny_data / "vocab.txt"),
            "--report-out", str(outputs["report.txt"]),
            "--records-out", str(outputs["records.tsv"]),
            "--train-file", str(tiny_data / "train.tsv"),
            "--ablation-out", str(ghost / "a.txt"),
        ])
        assert rc == 2 and f"no such directory: {ghost} " in err
        assert not any(p.exists() for p in outputs.values())
        assert not ghost.exists()


# each command's input flags, with the file name each reads in its input directory
INPUT_FLAGS = {
    "train": {"--train-file": "train.tsv", "--categories-file": "categories.tsv",
              "--vocab-file": "vocab.txt"},
    "eval": {"--checkpoint": "m.ckpt", "--data-file": "test.tsv",
             "--categories-file": "categories.tsv", "--vocab-file": "vocab.txt",
             "--train-file": "train.tsv"},
}
OUTPUT_FLAGS = {
    "train": ["--checkpoint-out", "--loss-log"],
    "eval": ["--report-out", "--records-out", "--ablation-out"],
}


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory, tiny_data):
    """A directory holding the tiny dataset's files and a 1-epoch checkpoint trained on it."""
    run = tmp_path_factory.mktemp("inputs")
    shutil.copytree(tiny_data, run, dirs_exist_ok=True)
    assert main([*train_argv(run, run), *TINY_MODEL, "--epochs", "1"]) == 0
    (run / "l.tsv").unlink()
    return run


def io_argv(command, in_dir, outputs):
    """`command` reading its inputs from in_dir and writing `outputs`, {flag: path}."""
    argv = [command]
    for flag, name in INPUT_FLAGS[command].items():
        argv += [flag, str(in_dir / name)]
    for flag, path in outputs.items():
        argv += [flag, str(path)]
    return argv + ([*TINY_MODEL, "--epochs", "1"] if command == "train" else [])


def tree(root):
    """{relative path: bytes} of every file under `root`."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


# (command, {output flag: path}, message): "@name" is the input file `name`,
# "" stays empty, any other path is a file in the output directory
CLOBBERING_OUTPUTS = [
    ("train", {"--checkpoint-out": "same", "--loss-log": "same"}, "same file as output"),
    ("train", {"--loss-log": "@train.tsv"}, "same file as input"),
    ("eval", {"--report-out": "r2.txt", "--ablation-out": "r2.txt"}, "same file as output"),
    ("eval", {"--records-out": "@m.ckpt"}, "same file as input"),
    ("train", {"--loss-log": ""}, "an output path is empty"),
    ("train", {"--checkpoint-out": ""}, "an output path is empty"),
]


class TestOutputPaths:
    @pytest.mark.parametrize(
        "command, paths, message", CLOBBERING_OUTPUTS,
        ids=[" ".join([c[0], *(f"{f}={p!r}" for f, p in c[1].items())])
             for c in CLOBBERING_OUTPUTS],
    )
    def test_output_that_replaces_a_file_or_is_empty_exits_2_before_any_input_is_read(
        self, tmp_path, capsys, tiny_inputs, command, paths, message
    ):
        in_dir, out_dir = tmp_path / "in", tmp_path / "out"
        shutil.copytree(tiny_inputs, in_dir)
        out_dir.mkdir()
        outputs = {flag: out_dir / flag.strip("-") for flag in OUTPUT_FLAGS[command]}
        for flag, path in paths.items():
            if path.startswith("@"):
                outputs[flag] = in_dir / path[1:]
            elif path:
                outputs[flag] = out_dir / path
            else:
                outputs[flag] = ""
        before = tree(tmp_path)
        capsys.readouterr()
        rc = main(io_argv(command, in_dir, outputs))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert tree(tmp_path) == before

    @settings(max_examples=60)
    @given(
        command=st.sampled_from(sorted(OUTPUT_FLAGS)),
        kinds=st.lists(
            st.sampled_from(["fresh", "input", "other", "empty", "dir", "missing_dir",
                             "under_file"]),
            min_size=3, max_size=3,
        ),
        pick=st.integers(0, 4),
    )
    def test_any_output_path_exits_by_code_and_keeps_the_inputs(
        self, tiny_inputs, command, kinds, pick
    ):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            in_dir = root / "in"
            shutil.copytree(tiny_inputs, in_dir)
            (root / "a_dir").mkdir()
            (root / "a_file").write_text("keep\n", encoding="utf-8")
            flags = OUTPUT_FLAGS[command]
            fresh = [root / f"out{i}" for i in range(len(flags))]
            inputs = list(INPUT_FLAGS[command].values())
            choices = {
                "input": lambda i: in_dir / inputs[pick % len(inputs)],
                "other": lambda i: fresh[(i + 1) % len(flags)],
                "fresh": lambda i: fresh[i],
                "empty": lambda i: "",
                "dir": lambda i: root / "a_dir",
                "missing_dir": lambda i: root / "no_dir" / "x",
                "under_file": lambda i: root / "a_file" / "x",
            }
            outputs = {flag: choices[kind](i) for i, (flag, kind) in enumerate(zip(flags, kinds))}
            before = tree(root)
            rc = main(io_argv(command, in_dir, outputs))
            assert rc == 0 or rc in cli._EXIT_CODES.values()
            after = tree(root)
            assert {p: b for p, b in after.items() if p in before} == before
            if rc != 0:
                assert after == before
            elif command == "train":
                vocab = load_vocab(in_dir / "vocab.txt")
                load_checkpoint(outputs["--checkpoint-out"], vocab,
                                load_categories(in_dir / "categories.tsv", vocab))
                assert len(Path(outputs["--loss-log"]).read_text().splitlines()) == 1


class TestEval:
    def run_eval(self, tmp_path, data, ckpt, extra=(), data_file=None):
        tmp_path.mkdir(parents=True, exist_ok=True)
        report = tmp_path / "report.txt"
        records = tmp_path / "records.tsv"
        rc = main([
            "eval",
            "--checkpoint", str(ckpt),
            "--data-file", str(data_file or data / "test.tsv"),
            "--categories-file", str(data / "categories.tsv"),
            "--vocab-file", str(data / "vocab.txt"),
            "--report-out", str(report),
            "--records-out", str(records),
            *extra,
        ])
        return rc, report, records

    def test_reports_written_with_config_header(self, tmp_path):
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data)
        rc, report, records = self.run_eval(tmp_path, data, ckpt)
        assert rc == 0
        text = report.read_text()
        assert "run config (from checkpoint):" in text
        assert "threshold: 0.5" in text
        assert "unweighted mean of per-category F1" in text
        rec = records.read_text()
        assert "run\t-\td\t8" in rec
        assert re.search(r"micro\t-\tf1\t[\d.e+-]+", rec)

    def test_rerun_is_byte_identical(self, tmp_path):
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data)
        _, r1, c1 = self.run_eval(tmp_path / "e1", data, ckpt)
        _, r2, c2 = self.run_eval(tmp_path / "e2", data, ckpt)
        assert r1.read_bytes() == r2.read_bytes()
        assert c1.read_bytes() == c2.read_bytes()

    def test_failed_write_keeps_the_old_report_and_leaves_no_temp(self, tmp_path, monkeypatch):
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data)
        out = tmp_path / "eval"
        _, report, records = self.run_eval(out, data, ckpt)
        before = {p.name: p.read_bytes() for p in (report, records)}

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            self.run_eval(out, data, ckpt, extra=["--threshold", "0.3"])
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_ablation_table(self, tmp_path):
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data)
        table_path = tmp_path / "ablation.txt"
        rc, _, _ = self.run_eval(
            tmp_path, data, ckpt,
            extra=["--train-file", str(data / "train.tsv"),
                   "--ablation-out", str(table_path)],
        )
        assert rc == 0
        table = table_path.read_text()
        for row in ("full", "w/o self", "w/o char", "w/o semantic"):
            assert row in table

    def test_ablation_table_scores_at_the_threshold_flag(self, tmp_path):
        """The full row retrains the checkpoint's own run, so it repeats the report."""
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data)
        table_path = tmp_path / "ablation.txt"
        rc, _, records = self.run_eval(
            tmp_path, data, ckpt,
            extra=["--threshold", "0.05", "--train-file",
                   str(data / "train.tsv"), "--ablation-out", str(table_path)],
        )
        assert rc == 0
        values = {
            (scope, metric): float(value)
            for scope, _, metric, value in (
                line.split("\t") for line in records.read_text().splitlines()
            )
            if scope in ("micro", "macro")
        }
        want = [
            f"{values[scope, metric]:.4f}"
            for scope in ("micro", "macro") for metric in ("precision", "recall", "f1")
        ]
        table = table_path.read_text()
        assert "eval threshold: 0.05" in table
        full_row = next(line for line in table.splitlines() if line.startswith("full "))
        assert full_row.split()[1:] == want

    def test_checkpoint_from_before_the_config_change(self, tmp_path):
        """run_config once also carried `workers` and `threshold`."""
        data = gen(tmp_path)
        vocab = load_vocab(data / "vocab.txt")
        cats = load_categories(data / "categories.tsv", vocab)
        model_fields = dict(
            d=8, l_q=8, l_c=8, encoder_layers=1, encoder_heads=2, encoder_ffn=0,
            conv_filters=2, conv_window=(3, 3), conv_stride=(1, 1), pool_window=(2, 2),
            pool_stride=(2, 2), conv_blocks=1, variant="full",
        )
        model = Model(
            ModelConfig(vocab_size=len(vocab), num_categories=len(cats), **model_fields),
            np.random.default_rng(0),
        )
        run_config = {**model_fields, "lr": 0.002, "batch_size": 8, "epochs": 1,
                      "seed": 5, "workers": 3, "threshold": 0.5}
        old, again = tmp_path / "old.ckpt", tmp_path / "again.ckpt"
        save_checkpoint(old, model, vocab, cats, extra={"run_config": run_config})
        loaded = load_checkpoint(old, vocab, cats)
        save_checkpoint(again, loaded.model, vocab, cats, loaded.adam_state, loaded.extra)
        assert old.read_bytes() == again.read_bytes()
        table_path = tmp_path / "ablation.txt"
        rc, _, _ = self.run_eval(
            tmp_path, data, old,
            extra=["--train-file", str(data / "train.tsv"),
                   "--ablation-out", str(table_path)],
        )
        assert rc == 0
        assert "w/o semantic" in table_path.read_text()

    def test_ablation_with_unusable_run_config_exits_3(self, tmp_path, capsys):
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data)
        vocab = load_vocab(data / "vocab.txt")
        cats = load_categories(data / "categories.tsv", vocab)
        loaded = load_checkpoint(ckpt, vocab, cats)
        run_config = {**loaded.extra["run_config"], "batch_size": "many"}
        save_checkpoint(ckpt, loaded.model, vocab, cats, extra={"run_config": run_config})
        capsys.readouterr()
        rc, _, _ = self.run_eval(
            tmp_path, data, ckpt,
            extra=["--train-file", str(data / "train.tsv"),
                   "--ablation-out", str(tmp_path / "ablation.txt")],
        )
        assert rc == 3
        assert "run_config" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()
        assert not (tmp_path / "records.tsv").exists()

    @pytest.mark.parametrize("dropped", [["lr", "epochs"], None], ids=["two-fields", "no-extra"])
    def test_ablation_with_a_run_config_field_missing_exits_3(self, tmp_path, capsys, dropped):
        """No `TrainConfig` default stands in for a stored setting; `epochs` is the first field.

        `None` saves the checkpoint as a library caller does, with no `extra` at all.
        """
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data)
        vocab = load_vocab(data / "vocab.txt")
        cats = load_categories(data / "categories.tsv", vocab)
        loaded = load_checkpoint(ckpt, vocab, cats)
        extra = None
        if dropped is not None:
            run_config = {k: v for k, v in loaded.extra["run_config"].items() if k not in dropped}
            extra = {"run_config": run_config}
        save_checkpoint(ckpt, loaded.model, vocab, cats, extra=extra)
        capsys.readouterr()
        table = tmp_path / "ablation.txt"
        rc, report, records = self.run_eval(
            tmp_path, data, ckpt,
            extra=["--train-file", str(data / "train.tsv"), "--ablation-out", str(table)],
        )
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert err == f"error: {ckpt}: run_config has no 'epochs' field\n"
        assert not report.exists() and not records.exists() and not table.exists()

    @pytest.mark.parametrize(
        "key, value", [("epochs", 2.9), ("lr", "0.002"), ("seed", True)], ids=str
    )
    def test_ablation_run_config_value_of_the_wrong_type_exits_3(
        self, tmp_path, capsys, key, value
    ):
        """No coercion: 2.9 epochs is not 2, "0.002" is not a number, true is not 1."""
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data)
        vocab = load_vocab(data / "vocab.txt")
        cats = load_categories(data / "categories.tsv", vocab)
        loaded = load_checkpoint(ckpt, vocab, cats)
        run_config = {**loaded.extra["run_config"], key: value}
        save_checkpoint(ckpt, loaded.model, vocab, cats, extra={"run_config": run_config})
        capsys.readouterr()
        rc, report, records = self.run_eval(
            tmp_path, data, ckpt,
            extra=["--train-file", str(data / "train.tsv"),
                   "--ablation-out", str(tmp_path / "ablation.txt")],
        )
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"run_config: {key} is" in err
        assert not report.exists() and not records.exists()

    def test_run_config_not_an_object_exits_3_in_eval_and_predict(self, tmp_path, capsys):
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data)
        vocab = load_vocab(data / "vocab.txt")
        cats = load_categories(data / "categories.tsv", vocab)
        loaded = load_checkpoint(ckpt, vocab, cats)
        save_checkpoint(ckpt, loaded.model, vocab, cats, extra={"run_config": [1, 2]})
        capsys.readouterr()
        rc, _, _ = self.run_eval(tmp_path, data, ckpt)
        err = capsys.readouterr().err
        assert rc == 3
        assert "run_config" in err and "Traceback" not in err
        rc = main([
            "predict",
            "--checkpoint", str(ckpt),
            "--categories-file", str(data / "categories.tsv"),
            "--vocab-file", str(data / "vocab.txt"),
            "--query", "abc",
        ])
        err = capsys.readouterr().err
        assert rc == 3
        assert "run_config" in err and "Traceback" not in err

    def test_ablation_without_train_file_is_an_error(self, tmp_path, capsys):
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data)
        rc, report, records = self.run_eval(
            tmp_path, data, ckpt, extra=["--ablation-out", str(tmp_path / "ablation.txt")]
        )
        assert rc == 2
        assert "--train-file" in capsys.readouterr().err
        assert not report.exists() and not records.exists()

    def test_train_file_without_ablation_out_is_an_error_before_any_input(
        self, tmp_path, capsys
    ):
        """No input exists here, so any read would fail with another message."""
        rc, report, records = self.run_eval(
            tmp_path, tmp_path, tmp_path / "ghost.ckpt",
            extra=["--train-file", str(tmp_path / "ghost.tsv")],
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "--ablation-out and --train-file" in err
        assert not report.exists() and not records.exists()

    @pytest.mark.parametrize("empty", ["data", "train"])
    def test_file_without_queries_exits_2_before_writing(self, tmp_path, capsys, empty):
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data)
        blank = tmp_path / "blank.tsv"
        blank.write_text("\n\n\n", encoding="utf-8")
        table = tmp_path / "ablation.txt"
        train_file = blank if empty == "train" else data / "train.tsv"
        capsys.readouterr()
        rc, report, records = self.run_eval(
            tmp_path, data, ckpt,
            extra=["--train-file", str(train_file), "--ablation-out", str(table)],
            data_file=blank if empty == "data" else None,
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {blank}: holds no queries\n"
        assert not report.exists() and not records.exists() and not table.exists()

    def test_missing_checkpoint_exits_nonzero(self, tmp_path, capsys):
        data = gen(tmp_path)
        rc, _, _ = self.run_eval(tmp_path, data, tmp_path / "ghost.ckpt")
        assert rc != 0
        assert "ghost.ckpt" in capsys.readouterr().err


class TestPredict:
    def predict(self, data, ckpt, query, capsys, threshold="0.5"):
        capsys.readouterr()  # drop output from earlier commands
        rc = main([
            "predict",
            "--checkpoint", str(ckpt),
            "--categories-file", str(data / "categories.tsv"),
            "--vocab-file", str(data / "vocab.txt"),
            "--query", query,
            "--threshold", threshold,
        ])
        assert rc == 0
        return capsys.readouterr().out

    def parse_rows(self, out):
        rows = []
        for line in out.rstrip("\n").split("\n"):
            if line.startswith("#"):
                continue
            rank, cid, name, prob, mark = line.split("\t")
            rows.append((int(rank), int(cid), name, float(prob), mark))
        return rows

    def test_all_categories_ranked_descending(self, tmp_path, capsys):
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data)
        rows = self.parse_rows(self.predict(data, ckpt, "abc", capsys))
        assert len(rows) == 3
        probs = [r[3] for r in rows]
        assert probs == sorted(probs, reverse=True)
        assert all(0.0 <= p <= 1.0 for p in probs)
        assert [r[0] for r in rows] == [1, 2, 3]

    def test_same_query_same_output(self, tmp_path, capsys):
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data)
        a = self.predict(data, ckpt, "abc", capsys)
        b = self.predict(data, ckpt, "abc", capsys)
        assert a == b

    def test_each_call_reads_the_checkpoint_afresh(self, tmp_path, capsys):
        """Nothing is kept between calls: a checkpoint rewritten in place is read anew."""
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path / "a", data)
        other, _ = train(tmp_path / "b", data, ["--seed", "6"])
        first = self.predict(data, ckpt, "abc", capsys)
        shutil.copyfile(other, ckpt)
        second = self.predict(data, ckpt, "abc", capsys)
        assert second == self.predict(data, other, "abc", capsys)
        assert self.parse_rows(second) != self.parse_rows(first)

    def test_probability_at_the_threshold_is_marked(self, tmp_path, capsys):
        """An untrained model's zero w_x gives every category a logit of 0, so a
        probability of exactly 0.5: `decide`'s inclusive rule marks each one."""
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data, ["--epochs", "0"])
        rows = self.parse_rows(self.predict(data, ckpt, "abc", capsys))
        assert [(r[3], r[4]) for r in rows] == [(0.5, "*")] * 3

    def test_empty_query_uses_unk_path(self, tmp_path, capsys):
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data)
        rows = self.parse_rows(self.predict(data, ckpt, "", capsys))
        assert len(rows) == 3

    def test_malformed_checkpoint_exits_3_without_traceback(self, tmp_path, capsys):
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data)
        raw = ckpt.read_bytes()
        blob = b"[]"
        ckpt.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob)
        capsys.readouterr()
        rc = main([
            "predict",
            "--checkpoint", str(ckpt),
            "--categories-file", str(data / "categories.tsv"),
            "--vocab-file", str(data / "vocab.txt"),
            "--query", "abc",
        ])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(ckpt) in err
        assert "Traceback" not in err

    def test_nan_in_payload_exits_3_naming_the_tensor(self, tmp_path, capsys):
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data)
        raw = bytearray(ckpt.read_bytes())
        at = 12 + int.from_bytes(raw[8:12], "little") + 8  # first value of encoder.tok_emb
        raw[at : at + 8] = np.array([np.nan], dtype="<f8").tobytes()
        ckpt.write_bytes(bytes(raw))
        capsys.readouterr()
        rc = main([
            "predict",
            "--checkpoint", str(ckpt),
            "--categories-file", str(data / "categories.tsv"),
            "--vocab-file", str(data / "vocab.txt"),
            "--query", "abc",
        ])
        out, err = capsys.readouterr()
        assert rc == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "encoder.tok_emb" in err
        assert out == ""

    def test_core_token_query_ranks_its_category_first(self, tmp_path, capsys):
        """After real training, a query made of category j's own core
        characters must put category j on top."""
        # needs a budget past the tiny-model saddle: more data and filters
        data = gen(tmp_path, extra=["--queries-per-category", "24"])
        ckpt, _ = train(
            tmp_path, data,
            extra=["--conv-filters", "4", "--epochs", "12",
                   "--batch-size", "4", "--lr", "0.005"],
        )
        vocab = load_vocab(data / "vocab.txt")
        cats = load_categories(data / "categories.tsv", vocab)
        hits = 0
        for rec in cats:
            out = self.predict(data, ckpt, rec.name, capsys)
            rows = self.parse_rows(out)
            hits += rows[0][1] == rec.category_id
        assert hits == len(cats)
