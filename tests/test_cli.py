"""End-to-end command-line tests over a small generated dataset."""

import re

import numpy as np
import pytest

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
    "--l-q", "8",
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


def train(tmp_path, data_dir, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "loss.tsv"
    rc = main([
        "train",
        "--train-file", str(data_dir / "train.tsv"),
        "--categories-file", str(data_dir / "categories.tsv"),
        "--vocab-file", str(data_dir / "vocab.txt"),
        "--checkpoint-out", str(ckpt),
        "--loss-log", str(log),
        *TINY_MODEL,
        "--epochs", "2",
        "--batch-size", "8",
        "--lr", "0.002",
        "--seed", "5",
        *extra,
    ])
    assert rc == 0
    return ckpt, log


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
        train_set = load_dataset(out / "train.tsv", vocab, len(cats), l_max=8)
        test_set = load_dataset(out / "test.tsv", vocab, len(cats), l_max=8)
        assert len(cats) == 3
        assert len(train_set) + len(test_set) == 36

    def test_sidecar_embeds_config(self, tmp_path):
        out = gen(tmp_path)
        sidecar = (out / "run.json").read_text()
        assert '"num_categories": 3' in sidecar
        assert '"seed": 7' in sidecar


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
        rc = main([
            "train",
            "--train-file", str(data / "train.tsv"),
            "--categories-file", str(data / "nope.tsv"),
            "--vocab-file", str(data / "vocab.txt"),
            "--checkpoint-out", str(tmp_path / "m.ckpt"),
            "--loss-log", str(tmp_path / "l.tsv"),
        ])
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
        rc = main([
            "train",
            "--train-file", str(data / "train.tsv"),
            "--categories-file", str(data / "categories.tsv"),
            "--vocab-file", str(data / "vocab.txt"),
            "--checkpoint-out", str(tmp_path / "m.ckpt"),
            "--loss-log", str(tmp_path / "l.tsv"),
            "--batch-size", "0",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "batch_size" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.ckpt").exists()


    @pytest.mark.parametrize("lr", ["nan", "inf", "0"])
    def test_non_finite_or_zero_lr_exits_2_without_checkpoint(self, tmp_path, capsys, lr):
        data = gen(tmp_path)
        capsys.readouterr()
        rc = main([
            "train",
            "--train-file", str(data / "train.tsv"),
            "--categories-file", str(data / "categories.tsv"),
            "--vocab-file", str(data / "vocab.txt"),
            "--checkpoint-out", str(tmp_path / "m.ckpt"),
            "--loss-log", str(tmp_path / "l.tsv"),
            "--lr", lr,
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "lr" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.ckpt").exists()


class TestEval:
    def run_eval(self, tmp_path, data, ckpt, extra=()):
        tmp_path.mkdir(parents=True, exist_ok=True)
        report = tmp_path / "report.txt"
        records = tmp_path / "records.tsv"
        rc = main([
            "eval",
            "--checkpoint", str(ckpt),
            "--data-file", str(data / "test.tsv"),
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

    def test_ablation_table(self, tmp_path):
        data = gen(tmp_path)
        ckpt, _ = train(tmp_path, data)
        table_path = tmp_path / "ablation.txt"
        rc, _, _ = self.run_eval(
            tmp_path, data, ckpt,
            extra=["--ablation", "--train-file", str(data / "train.tsv"),
                   "--ablation-out", str(table_path)],
        )
        assert rc == 0
        table = table_path.read_text()
        for row in ("full", "w/o self", "w/o char", "w/o semantic"):
            assert row in table

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
            extra=["--ablation", "--train-file", str(data / "train.tsv"),
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
            extra=["--ablation", "--train-file", str(data / "train.tsv"),
                   "--ablation-out", str(tmp_path / "ablation.txt")],
        )
        assert rc == 3
        assert "run_config" in capsys.readouterr().err

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
        rc, _, _ = self.run_eval(tmp_path, data, ckpt, extra=["--ablation"])
        assert rc != 0
        assert "--train-file" in capsys.readouterr().err

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
