"""The benchmark's three closed-loop workloads.

Each workload runs in one single-threaded process with one client: the next
operation starts only when the previous one has returned, and every call
into the package is synchronous, so no layer queues work. Inputs are made
from the workload seed; the package sees only the generated data.

The workloads call only these entry points: ``generate_synthetic``,
``Model``/``ModelConfig`` with ``Model.encode_categories``/``forward``,
``train``/``TrainConfig``, ``evaluate``, ``probabilities``,
``save_checkpoint`` and ``cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from intentmatch import cli, evaluation, model, synthetic, training

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 0
# Logit and loss agreement allowed against the committed reference: well
# above the <=1e-12 reorderings a batched engine may introduce (they grow
# only a little over a few Adam steps), far below any real behaviour change.
REFERENCE_TOL = 1e-9
# Agreement between two paths of the same build (cold vs warm predict).
PATH_TOL = 1e-12
LR = 1e-3
D = 32


class Ledger:
    """Counts operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, n, problem=None):
        self.attempted += n
        if problem is not None:
            self.failed += n
            if len(self.problems) < 20:
                self.problems.append(problem)

    @contextlib.contextmanager
    def guard(self, n, what):
        """Count n operations as failed if the block raises."""
        try:
            yield
        except Exception as exc:  # a failing op is counted, not fatal
            self.record(n, f"{what} raised {type(exc).__name__}: {exc}")


@dataclass
class Samples:
    """What one measurement phase saw."""

    op_ms: list = field(default_factory=list)  # the workload's primary op
    rate: list = field(default_factory=list)  # per-unit items/s (eval-wide)
    warm_ms: list = field(default_factory=list)  # predict-1q warm queries
    busy_s: float = 0.0  # time inside timed regions
    ops: int = 0  # steps (train-c4) or queries (others): per-layer divisor
    queries: int = 0  # queries scored (training examples on train-c4)


def _region(tracer):
    return tracer.root("op") if tracer is not None else contextlib.nullcontext()


def _mismatch(got, want, tol):
    """None when got matches want elementwise within tol, else a reason."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return f"shape {got.shape} != {want.shape}"
    if not np.all(np.isfinite(got)):
        return "non-finite value"
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    worst = float(err.max()) if err.size else 0.0
    return None if worst <= tol else f"max scaled error {worst:.3e} > {tol:g}"


def load_reference(name):
    return json.loads(REFERENCE_FILE.read_text())[name]


def _pick(rng, items, n):
    return [items[i] for i in rng.choice(len(items), size=n, replace=False)]


def _probe_logits(m, cats, queries):
    enc = m.encode_categories(cats)
    return np.array([m.forward(ex.query, enc).data for ex in queries])


# ---------------------------------------------------------------------------
# train-c4


@dataclass
class TrainState:
    seed: int
    data: object
    batch: list
    probe: list
    expect_history: list | None = None
    expect_probe: np.ndarray | None = None


class TrainC4:
    """C4 training steps: 8 categories, d=32, batch 32, lr 1e-3.

    One unit is one ``train`` call of STEPS epochs over a single seeded
    32-query batch, so every epoch is exactly one C4-shaped mini-batch and
    ``log_fn`` marks each step's end. Every unit starts from the same seeded
    model, so every unit must repeat the first one's loss history.
    """

    name = "train-c4"
    SETUP_REPS = 9  # set-up is ~0.1 s, so more repeats steady its median
    STEPS = 4
    BATCH = 32

    def setup(self, seed, workdir):
        data = synthetic.generate_synthetic(synthetic.SyntheticConfig(seed=seed))
        rng = np.random.default_rng(seed)
        return TrainState(seed, data, _pick(rng, data.train, self.BATCH),
                          _pick(rng, data.test, 8))

    def _episode(self, st, tracer=None):
        m = model.Model(
            model.ModelConfig(vocab_size=len(st.data.vocab), num_categories=8, d=D),
            np.random.default_rng(st.seed),
        )
        cfg = training.TrainConfig(epochs=self.STEPS, batch_size=self.BATCH, lr=LR, seed=st.seed)
        stamps = [time.perf_counter()]
        with _region(tracer):
            history, _ = training.train(
                m, st.batch, st.data.categories, cfg,
                log_fn=lambda epoch, loss: stamps.append(time.perf_counter()),
            )
        return m, list(history), np.diff(stamps)

    def _check(self, st, ledger, history, probe):
        """Record one op per step; the probe check rides on the last step."""
        if len(history) != self.STEPS:
            ledger.record(self.STEPS, f"{len(history)} losses for {self.STEPS} steps")
            return
        for i, loss in enumerate(history):
            problem = None
            if not math.isfinite(loss):
                problem = f"step {i} loss {loss} is not finite"
            elif i == 0 and abs(loss - 8 * math.log(2)) > 1e-12:
                problem = f"first loss {loss!r} != 8 ln 2"
            elif st.expect_history is not None and _mismatch(
                    loss, st.expect_history[i], REFERENCE_TOL):
                problem = f"step {i} loss {loss!r} != {st.expect_history[i]!r}"
            elif i == self.STEPS - 1 and st.expect_probe is not None:
                why = _mismatch(probe, st.expect_probe, REFERENCE_TOL)
                problem = None if why is None else f"probe logits after training: {why}"
            ledger.record(1, problem)

    def reference_entry(self, workdir):
        st = self.setup(REFERENCE_SEED, workdir)
        m, history, _ = self._episode(st)
        return {"loss_history": history,
                "probe_logits": _probe_logits(m, st.data.categories, st.probe).tolist()}

    def prepare(self, st, ledger, workdir):
        # the committed reference, then this seed's own first unit, which
        # also warms up before timing starts
        with ledger.guard(self.STEPS, "reference unit"):
            ref = load_reference(self.name)
            st0 = self.setup(REFERENCE_SEED, workdir)
            st0.expect_history = ref["loss_history"]
            st0.expect_probe = np.array(ref["probe_logits"])
            m, history, _ = self._episode(st0)
            self._check(st0, ledger, history, _probe_logits(m, st0.data.categories, st0.probe))
        with ledger.guard(self.STEPS, "first unit"):
            m, history, _ = self._episode(st)
            probe = _probe_logits(m, st.data.categories, st.probe)
            self._check(st, ledger, history, probe)
            st.expect_history, st.expect_probe = history, probe

    def unit(self, st, ledger, samples, tracer=None):
        with ledger.guard(self.STEPS, "train"):
            m, history, step_s = self._episode(st, tracer)
            samples.op_ms.extend(step_s * 1000.0)
            samples.busy_s += float(step_s.sum())
            samples.ops += len(step_s)
            samples.queries += self.BATCH * len(step_s)
            self._check(st, ledger, history, _probe_logits(m, st.data.categories, st.probe))

    def end_to_end(self, s):
        return s.queries / s.busy_s, s.op_ms, {}

    def close(self, st):
        pass


# ---------------------------------------------------------------------------
# eval-wide


@dataclass
class EvalState:
    data: object
    model: object
    pass_data: list
    threshold: float = 0.5
    expect: dict | None = None


def _report_summary(report):
    """The comparable content of a MetricsReport."""
    return {
        "example_count": report.example_count,
        "counts": [[c.tp, c.fp, c.fn] for c in report.per_category],
        "scores": [report.micro_precision, report.micro_recall, report.micro_f1,
                   report.macro_precision, report.macro_recall, report.macro_f1]
        + [v for c in report.per_category for v in (c.precision, c.recall, c.f1)],
    }


def _prf(tp, fp, fn):
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def _independent_summary(probs, golds, threshold):
    """Micro/macro P/R/F1 computed here, without the evaluation module."""
    pred = probs >= threshold
    gold = golds == 1.0
    tp = (pred & gold).sum(axis=0)
    fp = (pred & ~gold).sum(axis=0)
    fn = (~pred & gold).sum(axis=0)
    per = [_prf(int(a), int(b), int(c)) for a, b, c in zip(tp, fp, fn)]
    micro = _prf(int(tp.sum()), int(fp.sum()), int(fn.sum()))
    macro = [float(np.mean([p[k] for p in per])) for k in range(3)]
    return {
        "example_count": len(probs),
        "counts": [[int(a), int(b), int(c)] for a, b, c in zip(tp, fp, fn)],
        "scores": list(micro) + macro + [v for p in per for v in p],
    }


def _split_threshold(probs):
    """A threshold in the widest gap of the middle half of the probabilities.

    About half the decisions come out positive, so a perturbed logit flips
    some of them, and no probability sits near the threshold, so engine
    reorderings of ~1e-12 cannot.
    """
    v = np.sort(probs.ravel())
    lo, hi = len(v) // 4, (3 * len(v)) // 4
    k = lo + int(np.argmax(v[lo + 1 : hi + 1] - v[lo:hi]))
    if v[k + 1] - v[k] < 1e-9:
        raise ValueError("probabilities too clustered for a stable threshold")
    return float((v[k] + v[k + 1]) / 2)


class EvalWide:
    """Forward-only scoring of a 64-category model through ``evaluate``.

    One unit is one ``evaluate`` pass over the same seeded 32 test queries,
    so each pass encodes the 64 category texts once (2 per query scored).
    """

    name = "eval-wide"
    SETUP_REPS = 3
    CATEGORIES = 64
    PASS = 32

    def setup(self, seed, workdir):
        cfg = synthetic.SyntheticConfig(num_categories=self.CATEGORIES, vocab_size=272,
                                        queries_per_category=20, seed=seed)
        data = synthetic.generate_synthetic(cfg)
        m = model.Model(
            model.ModelConfig(vocab_size=len(data.vocab), num_categories=self.CATEGORIES, d=D),
            np.random.default_rng(seed),
        )
        rng = np.random.default_rng(seed)
        # w_x starts at zero, so an untrained model's logits are all zero:
        # two short mini-batches make them carry information
        training.train(m, _pick(rng, data.train, 16), data.categories,
                       training.TrainConfig(epochs=1, batch_size=8, lr=LR, seed=seed))
        return EvalState(data, m, _pick(rng, data.test, self.PASS))

    def reference_entry(self, workdir):
        st = self.setup(REFERENCE_SEED, workdir)
        return {"probe_logits": _probe_logits(st.model, st.data.categories,
                                              st.pass_data[:4]).tolist()}

    def prepare(self, st, ledger, workdir):
        with ledger.guard(4, "reference probe"):
            want = np.array(load_reference(self.name)["probe_logits"])
            st0 = self.setup(REFERENCE_SEED, workdir)
            why = _mismatch(_probe_logits(st0.model, st0.data.categories, st0.pass_data[:4]),
                            want, REFERENCE_TOL)
            ledger.record(4, None if why is None else f"reference probe logits: {why}")
        with ledger.guard(self.PASS, "reference report"):
            logits = _probe_logits(st.model, st.data.categories, st.pass_data)
            if not np.any(logits):
                raise ValueError("all logits are zero; the check would test nothing")
            probs = evaluation.probabilities(logits)
            st.threshold = _split_threshold(probs)
            golds = np.array([ex.labels for ex in st.pass_data])
            st.expect = _independent_summary(probs, golds, st.threshold)
            ledger.record(self.PASS)

    def unit(self, st, ledger, samples, tracer=None):
        with ledger.guard(self.PASS, "evaluate"):
            t0 = time.perf_counter()
            with _region(tracer):
                report = evaluation.evaluate(st.model, st.pass_data, st.data.categories,
                                             threshold=st.threshold)
            dt = time.perf_counter() - t0
            samples.op_ms.append(dt * 1000.0)
            samples.rate.append(self.PASS / dt)
            samples.busy_s += dt
            samples.ops += self.PASS
            samples.queries += self.PASS
            got = _report_summary(report)
            problem = None
            if st.expect is None:
                problem = "no reference report"
            elif got["example_count"] != st.expect["example_count"] or \
                    got["counts"] != st.expect["counts"]:
                problem = "evaluate report counts differ from the reference"
            else:
                why = _mismatch(got["scores"], st.expect["scores"], PATH_TOL)
                problem = None if why is None else f"evaluate report scores: {why}"
            ledger.record(self.PASS, problem)

    def end_to_end(self, s):
        return float(np.median(s.rate)), s.op_ms, {}

    def close(self, st):
        pass


# ---------------------------------------------------------------------------
# predict-1q


class _ColdLogitTap:
    """Keeps the logits ``cli`` passes to ``probabilities`` on each predict.

    Only ``cli``'s own binding is replaced. If a later change stops calling
    it, the cold/warm logit comparison is reported as unobserved.
    """

    def __init__(self):
        self.original = getattr(cli, "probabilities", None)
        self.logits = None
        if self.original is not None:
            def tap(logits, *args, **kwargs):
                self.logits = np.array(getattr(logits, "data", logits), dtype=np.float64)
                return self.original(logits, *args, **kwargs)
            cli.probabilities = tap

    def close(self):
        if self.original is not None:
            cli.probabilities = self.original


@dataclass
class PredictState:
    data: object
    model: object
    argv: list
    stream: object
    cat_enc: object = None
    tap: object = None
    unobserved: int = 0


class Predict1Q:
    """Single-query prediction, cold through ``cli.main`` and warm in-process.

    One unit is one query from a seeded stream of test queries, answered
    first by ``cli.main(["predict", ...])`` (reads vocab, categories and the
    checkpoint, encodes the 8 categories, ranks) and then warm, by
    ``Model.forward`` against categories encoded once plus ``probabilities``.
    """

    name = "predict-1q"
    SETUP_REPS = 5

    def setup(self, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["gen", "--out-dir", str(workdir), "--seed", str(seed)])
        if rc != 0:
            raise RuntimeError(f"intentmatch gen exited {rc}")
        data = synthetic.generate_synthetic(synthetic.SyntheticConfig(seed=seed))
        m = model.Model(
            model.ModelConfig(vocab_size=len(data.vocab), num_categories=8, d=D),
            np.random.default_rng(seed),
        )
        rng = np.random.default_rng(seed)
        _, adam = training.train(m, _pick(rng, data.train, 64), data.categories,
                                 training.TrainConfig(epochs=1, batch_size=32, lr=LR, seed=seed))
        ckpt = workdir / "model.ckpt"
        training.save_checkpoint(str(ckpt), m, data.vocab, data.categories, adam)
        argv = ["predict", "--checkpoint", str(ckpt),
                "--categories-file", str(workdir / "categories.tsv"),
                "--vocab-file", str(workdir / "vocab.txt"), "--query"]
        return PredictState(data, m, argv, np.random.default_rng([seed, 1]))

    def prepare(self, st, ledger, workdir):
        st.tap = _ColdLogitTap()
        with ledger.guard(1, "encode categories"):
            st.cat_enc = st.model.encode_categories(st.data.categories)
            ledger.record(1)
        for _ in range(2):  # warm-up, checked but not timed
            self.unit(st, ledger, Samples())

    def _check_cold(self, st, rc, text, logits, cold_logits):
        if rc != 0:
            return f"cli.main predict exited {rc}"
        probs = evaluation.probabilities(logits)
        cats = st.data.categories
        rows = [line.split("\t") for line in text.splitlines() if not line.startswith("#")]
        if len(rows) != len(cats) or any(len(r) != 5 for r in rows):
            return f"cli printed {len(rows)} ranking rows, expected {len(cats)}"
        if [r[0] for r in rows] != [str(i) for i in range(1, len(cats) + 1)]:
            return "ranks are not 1..n"
        cids = [int(r[1]) for r in rows]
        if sorted(cids) != list(range(len(cats))):
            return "ranking is not a permutation of the categories"
        for rank, cid, name, prob, mark in rows:
            cid = int(cid)
            if name != cats[cid].name or prob != f"{probs[cid]:.6f}" or \
                    mark != ("*" if probs[cid] >= 0.5 else " "):
                return f"cli row {rank} {name!r} {prob} {mark!r} != warm path"
        ordered = probs[cids]
        if np.any(np.diff(ordered) > PATH_TOL):
            return "cli ranking is out of order for the warm probabilities"
        if cold_logits is not None:
            why = _mismatch(cold_logits, logits, PATH_TOL)
            if why is not None:
                return f"cold vs warm logits: {why}"
        return None

    def unit(self, st, ledger, samples, tracer=None):
        """Two ops: the cold call, then the warm query."""
        ex = st.data.test[int(st.stream.integers(len(st.data.test)))]
        cold = None
        with ledger.guard(1, "cold predict"):
            st.tap.logits = None
            out = io.StringIO()
            t0 = time.perf_counter()
            with _region(tracer), contextlib.redirect_stdout(out):
                rc = cli.main(st.argv + [ex.text])
            dt = time.perf_counter() - t0
            samples.op_ms.append(dt * 1000.0)
            samples.busy_s += dt
            cold = (rc, out.getvalue(), st.tap.logits)
        warm = None
        with ledger.guard(1, "warm predict"):
            t0 = time.perf_counter()
            with _region(tracer):
                logits = st.model.forward(ex.query, st.cat_enc)
                probs = evaluation.probabilities(logits)
            dt = time.perf_counter() - t0
            samples.warm_ms.append(dt * 1000.0)
            samples.busy_s += dt
            samples.ops += 1
            samples.queries += 1
            finite = np.all(np.isfinite(logits.data)) and np.all(np.isfinite(probs))
            ledger.record(1, None if finite else "warm logits not finite")
            warm = np.array(logits.data)
        if cold is not None:
            with ledger.guard(1, "cold output check"):
                rc, text, cold_logits = cold
                if cold_logits is None:
                    st.unobserved += 1
                problem = "no warm logits to compare with" if warm is None else \
                    self._check_cold(st, rc, text, warm, cold_logits)
                ledger.record(1, problem)

    def end_to_end(self, s):
        return 1000.0 / float(np.median(s.warm_ms)), s.op_ms, {"predict_warm_ms": s.warm_ms}

    def close(self, st):
        if st.tap is not None:
            st.tap.close()


WORKLOADS = {w.name: w for w in (TrainC4(), EvalWide(), Predict1Q())}
