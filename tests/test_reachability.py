"""The package holds only what its four commands run.

Every function and method defined in `src/intentmatch/*.py` must be called
by one in-process run of `gen`, `train`, `eval --ablation-out` and `predict`
on a tiny dataset, apart from a fixed list of exemptions, each kept for a
stated reason.  The check is equality, so a stale exemption fails it too.
"""

import importlib
import inspect
import sys
from pathlib import Path

import intentmatch
from intentmatch import cli

# a function no command calls, and why it stays
EXEMPT = {
    "autodiff.maxpool2d": "C2 checks pooling through it, and perfbench hooks it",
    "autodiff.Tape.__len__": "perfbench's node count, and the tests' tape-length pins",
    "autodiff.Tensor.__repr__": "debugging",
    "textdata.filter_labels_by_cdf": "C8, the click-CDF label filter",
}


def package_functions():
    """{code object: "module.qualname"} of every function and method, property
    accessors included, defined in the package's modules."""
    found = {}
    for path in sorted(Path(intentmatch.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"intentmatch.{path.stem}")
        defined = [v for v in vars(module).values() if inspect.isfunction(v)]
        for cls in vars(module).values():
            if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
                continue
            for attr in vars(cls).values():
                if isinstance(attr, property):
                    defined += [f for f in (attr.fget, attr.fset, attr.fdel) if f]
                elif isinstance(attr, (staticmethod, classmethod)):
                    defined.append(attr.__func__)
                elif inspect.isfunction(attr):
                    defined.append(attr)
        for fn in defined:  # not imported names, nor code a dataclass generates
            if fn.__code__.co_filename == module.__file__:
                found[fn.__code__] = f"{path.stem}.{fn.__qualname__}"
    return found


def command_runs(tmp):
    data, ckpt = tmp / "data", str(tmp / "m.ckpt")
    train_file, test_file = str(data / "train.tsv"), str(data / "test.tsv")
    inputs = ["--categories-file", str(data / "categories.tsv"),
              "--vocab-file", str(data / "vocab.txt")]
    return [
        ["gen", "--out-dir", str(data),
         "--categories", "3", "--vocab-size", "24", "--queries-per-category", "10"],
        ["train", "--train-file", train_file, *inputs,
         "--checkpoint-out", ckpt, "--loss-log", str(tmp / "loss.tsv"),
         "--d", "8", "--l-q", "8", "--l-c", "8", "--encoder-layers", "1",
         "--encoder-heads", "2", "--conv-filters", "2", "--conv-blocks", "1",
         "--epochs", "1", "--conv-window", "3,3"],  # a pair flag, so `_pair` runs
        ["eval", "--checkpoint", ckpt, "--data-file", test_file, *inputs,
         "--report-out", str(tmp / "report.txt"), "--records-out", str(tmp / "records.tsv"),
         "--ablation-out", str(tmp / "ablation.txt"), "--train-file", train_file],
        ["predict", "--checkpoint", ckpt, *inputs, "--query", "abc"],
    ]


def test_the_four_commands_call_every_function_but_the_exemptions(tmp_path):
    functions = package_functions()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in command_runs(tmp_path)]
    finally:
        sys.setprofile(outer)
    assert codes == [0, 0, 0, 0]
    never = {functions[c] for c in set(functions) - called}
    assert never == set(EXEMPT)
