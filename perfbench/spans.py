"""Outside-in spans around the package's public functions.

The benchmark never edits the package. It wraps a function at every name
that refers to it: ``model.py`` calls ``encode`` through its own global, so
wrapping only ``intentmatch.encoder.encode`` would miss those calls. The
tracer therefore scans every loaded ``intentmatch`` module and replaces each
global that *is* the original function object, and patches methods on their
class. A hook whose target is gone (renamed or folded by a later change) is
reported as absent; it never stops the run.

Spans are kept in memory as ``[layer, parent, start, end, count]`` lists and
written out by the caller when the run ends. A root span, opened by the
benchmark itself, has layer ``"root"`` and holds its kind in place of the
count.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict


def _category_count(args, kwargs):
    cats = args[1] if len(args) > 1 else kwargs["cats"]
    return len(cats)


def _tape_nodes(args, kwargs):
    tape = args[1] if len(args) > 1 else kwargs["tape"]
    return len(tape)


# (layer, module, attribute, count function). A count function reads a
# work count from the call's arguments; it is optional.
HOOKS = (
    ("autodiff.backward", "intentmatch.autodiff", "backward", _tape_nodes),
    ("autodiff.conv2d", "intentmatch.autodiff", "conv2d", None),
    ("autodiff.maxpool2d", "intentmatch.autodiff", "maxpool2d", None),
    ("encoder.encode", "intentmatch.encoder", "encode", None),
    ("model.encode_categories", "intentmatch.model", "Model.encode_categories", _category_count),
    ("model.forward", "intentmatch.model", "Model.forward", None),
    ("model.self_match", "intentmatch.model", "self_match", None),
    ("model.char_interaction", "intentmatch.model", "char_interaction", None),
    ("model.char_match", "intentmatch.model", "char_match", None),
    ("model.semantic_match", "intentmatch.model", "semantic_match", None),
    ("model.fuse_and_score", "intentmatch.model", "fuse_and_score", None),
    ("model.multilabel_loss", "intentmatch.model", "multilabel_loss", None),
    ("training.train", "intentmatch.training", "train", None),
    ("training.batch_gradients", "intentmatch.training", "batch_gradients", None),
    ("training.adam_step", "intentmatch.training", "adam_step", None),
    ("training.save_checkpoint", "intentmatch.training", "save_checkpoint", None),
    ("training.load_checkpoint", "intentmatch.training", "load_checkpoint", None),
    ("textdata.load", "intentmatch.textdata", "load_vocab", None),
    ("textdata.load", "intentmatch.textdata", "load_categories", None),
    ("textdata.tokenize", "intentmatch.textdata", "tokenize", None),
    ("evaluation.evaluate", "intentmatch.evaluation", "evaluate", None),
    ("synthetic.generate", "intentmatch.synthetic", "generate_synthetic", None),
    ("cli.main", "intentmatch.cli", "main", None),
)

ROOT = "root"


def _resolve(module_name, attr):
    """(owner, name, original) for a dotted attribute, or None when absent."""
    owner = sys.modules.get(module_name)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, parts[-1], None)):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Installs span hooks, records spans, and rolls them up per layer."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.absent = []

    # -- recording --------------------------------------------------------

    def _open(self, layer, count=None):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([layer, parent, time.perf_counter(), 0.0, count])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, kind):
        """A span the benchmark opens itself, around work of one kind."""
        idx = self._open(ROOT, kind)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, layer, fn, count_fn):
        tracer = self

        def traced(*args, **kwargs):
            count = None
            if count_fn is not None:
                try:
                    count = count_fn(args, kwargs)
                except (IndexError, KeyError, TypeError):
                    count = None
            idx = tracer._open(layer, count)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap every hook target at each name bound to it; return absent ones."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "intentmatch" or n.startswith("intentmatch.")) and m is not None]
        for layer, module_name, attr, count_fn in HOOKS:
            found = _resolve(module_name, attr)
            if found is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            owner, name, original = found
            wrapped = self._wrap(layer, original, count_fn)
            targets = [(owner, name)]
            if "." not in attr:
                targets += [(m, k) for m in modules for k, v in list(vars(m).items())
                            if v is original and (m, k) != (owner, name)]
            for obj, key in targets:
                self._patches.append((obj, key, getattr(obj, key)))
                setattr(obj, key, wrapped)
        return self.absent

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    # -- roll-up ----------------------------------------------------------

    def rollup(self, kind):
        """Self time, calls and counts per layer, over roots of one kind.

        Returns (layers, root_seconds) where layers maps a layer name to a
        dict with ``self_s``, ``calls`` and ``count``. Self time is a span's
        duration minus that of its direct children.
        """
        child_s = defaultdict(float)
        for layer, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        root_of = []
        layers = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "count": 0})
        root_s = 0.0
        for i, (layer, parent, start, end, count) in enumerate(self.spans):
            root = i if parent < 0 else root_of[parent]
            root_of.append(root)
            span_root = self.spans[root]
            if span_root[0] != ROOT or span_root[4] != kind:
                continue
            if i == root:
                root_s += end - start
                continue
            entry = layers[layer]
            entry["self_s"] += end - start - child_s[i]
            entry["calls"] += 1
            entry["count"] += count or 0
        return dict(layers), root_s
