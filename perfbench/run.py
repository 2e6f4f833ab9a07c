"""intentmatch benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload train-c4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

Run from the root of a source checkout; the package is imported from its
``src/`` directory. ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones, taken from a separate
traced phase. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every output check passed. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("train-c4", "eval-wide", "predict-1q")


def _import_package():
    """Import intentmatch from this checkout's src/, never an installed copy."""
    if not (SRC / "intentmatch" / "__init__.py").is_file():
        raise SystemExit(f"error: no intentmatch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import intentmatch

    if Path(intentmatch.__file__).resolve().parent != SRC / "intentmatch":
        raise SystemExit(f"error: imported intentmatch from {intentmatch.__file__}")


# ---------------------------------------------------------------------------
# provenance


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    libs += glob.glob(str(Path(numpy.__file__).parent / ".libs" / "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD's commit read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "intentmatch").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workload, seed, seconds, trace):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads = _blas_threads()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads},
        "nproc": nproc,
        "blas_threads_exceed_nproc": threads is not None and threads > nproc,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """(value, percentile, n): the highest percentile with >= 10 samples above.

    With fewer than 11 samples no such percentile exists; the maximum is
    reported as the 100th.
    """
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], 100.0, n
    return v[n - 11], 100.0 * (n - 10) / n, n


# ---------------------------------------------------------------------------
# one workload


class Session:
    """Set-up, checks and measurement of one workload in this process."""

    def __init__(self, workload, seed, smoke=False):
        from workloads import WORKLOADS, Ledger

        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.smoke = smoke
        self.ledger = Ledger()
        self.workdir = OUT_DIR / f"work-{os.getpid()}"
        self.setup_s = []
        self.state = None

    def setup(self, reps):
        for rep in range(reps):
            t0 = time.perf_counter()
            self.state = self.wl.setup(self.seed, self.workdir / f"setup{rep}")
            self.setup_s.append(time.perf_counter() - t0)

    def prepare(self):
        self.wl.prepare(self.state, self.ledger, self.workdir / "prepare")

    def drive(self, seconds, tracer=None):
        """Closed loop: run units until the next would overrun `seconds`."""
        from workloads import Samples

        samples = Samples()
        start = time.perf_counter()
        units = 0
        while True:
            self.wl.unit(self.state, self.ledger, samples, tracer)
            units += 1
            elapsed = time.perf_counter() - start
            done = units >= 2 if self.smoke else elapsed * (units + 1) / units > seconds
            if done:
                return samples

    def close(self):
        if self.state is not None:
            self.wl.close(self.state)
        shutil.rmtree(self.workdir, ignore_errors=True)


def end_to_end(session, samples):
    items_per_s, op_ms, extra = session.wl.end_to_end(samples)
    p50 = statistics.median(op_ms)
    tail_ms, pct, n = tail(op_ms)
    metrics = {
        "setup_s": (statistics.median(session.setup_s), "s"),
        "items_per_s": (items_per_s, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    notes = [f"op_ms_tail is p{pct:.1f} of {n} ops"]
    for name, values in extra.items():
        t, tp, tn = tail(values)
        notes.append(f"{name} p50 {statistics.median(values):.4f} ms, "
                     f"tail p{tp:.1f} {t:.4f} ms of {tn}")
    return metrics, notes


def per_layer(session, untraced, traced, tracer):
    layers, root_s = tracer.rollup("op")
    setup_layers, _ = tracer.rollup("setup")
    ops, queries = traced.ops, traced.queries

    def get(table, layer, key):
        return table.get(layer, {}).get(key, 0)

    def ms(layer):
        return 1000.0 * get(layers, layer, "self_s") / ops

    def calls(layer, per=ops):
        return get(layers, layer, "calls") / per

    m = {
        "autodiff.tape_nodes_per_step": (get(layers, "autodiff.backward", "count") / ops, "count"),
        "autodiff.backward_ms_per_step": (ms("autodiff.backward"), "ms"),
        "autodiff.conv2d_ms": (ms("autodiff.conv2d"), "ms"),
        "autodiff.conv2d_calls": (calls("autodiff.conv2d"), "count"),
        "autodiff.maxpool2d_ms": (ms("autodiff.maxpool2d"), "ms"),
        "autodiff.maxpool2d_calls": (calls("autodiff.maxpool2d"), "count"),
        "encoder.encode_ms": (ms("encoder.encode"), "ms"),
        "encoder.encode_calls_per_query": (calls("encoder.encode", queries), "count"),
        "model.encode_categories_ms": (ms("model.encode_categories"), "ms"),
        "model.category_encodes_per_query":
            (get(layers, "model.encode_categories", "count") / queries, "count"),
        "model.forward_ms": (ms("model.forward"), "ms"),
        "model.self_match_ms": (ms("model.self_match"), "ms"),
        "model.char_interaction_ms": (ms("model.char_interaction"), "ms"),
        "model.char_interaction_calls_per_query":
            (calls("model.char_interaction", queries), "count"),
        "model.char_match_ms": (ms("model.char_match"), "ms"),
        "model.semantic_match_ms": (ms("model.semantic_match"), "ms"),
        "model.fuse_and_score_ms": (ms("model.fuse_and_score"), "ms"),
        "model.multilabel_loss_ms": (ms("model.multilabel_loss"), "ms"),
        "training.adam_step_ms": (ms("training.adam_step"), "ms"),
        "training.batch_gradients_ms": (ms("training.batch_gradients"), "ms"),
        "training.load_checkpoint_ms": (ms("training.load_checkpoint"), "ms"),
        "training.save_checkpoint_ms":
            (1000.0 * get(setup_layers, "training.save_checkpoint", "self_s"), "ms"),
        "textdata.load_ms": (ms("textdata.load"), "ms"),
        "textdata.tokenize_ms": (ms("textdata.tokenize"), "ms"),
        "evaluation.evaluate_ms": (ms("evaluation.evaluate"), "ms"),
        "synthetic.generate_ms":
            (1000.0 * get(setup_layers, "synthetic.generate", "self_s"), "ms"),
        "cli.main_ms": (ms("cli.main"), "ms"),
        "trace.overhead_frac":
            ((root_s / ops) / (untraced.busy_s / untraced.ops) - 1.0, "frac"),
        "trace.self_sum_frac":
            (sum(e["self_s"] for e in layers.values()) / root_s, "frac"),
    }
    notes = [f"per-layer values are per {'step' if session.wl.name == 'train-c4' else 'query'} "
             f"over {traced.ops} ops, {traced.queries} queries; setup layers over one set-up"]
    if tracer.absent:
        notes.append("absent hooks: " + ", ".join(tracer.absent))
    return m, notes


def _write_trace(session, tracer, prov, metrics):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{session.wl.name}-seed{session.seed}.json"
    layers = {kind: tracer.rollup(kind)[0] for kind in ("op", "setup")}
    path.write_text(json.dumps({
        "provenance": prov,
        "absent_hooks": tracer.absent,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "layers": layers,
        "spans_columns": ["layer", "parent", "start_s", "end_s", "count"],
        "spans": tracer.spans,
    }))
    return path


def run(workload, seed, seconds, trace, smoke=False):
    """Run one workload; return (result dict, human-readable lines)."""
    from spans import Tracer

    session = Session(workload, seed, smoke)
    prov = provenance(workload, seed, seconds, trace)
    lines = ["provenance " + json.dumps(prov, sort_keys=True)]
    try:
        session.setup(1 if (smoke or trace) else session.wl.SETUP_REPS)
        session.prepare()
        if not trace:
            samples = session.drive(seconds)
            metrics, notes = end_to_end(session, samples) if samples.queries else ({}, [])
        else:
            untraced = session.drive(seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                with tracer.root("setup"):
                    session.wl.setup(seed, session.workdir / "traced-setup")
                traced = session.drive(seconds / 2, tracer)
            finally:
                tracer.uninstall()
            metrics, notes = per_layer(session, untraced, traced, tracer) \
                if untraced.queries and traced.queries else ({}, [])
            notes.append(f"spans written to {_write_trace(session, tracer, prov, metrics)}")
    finally:
        session.close()
    led = session.ledger
    unobserved = getattr(session.state, "unobserved", 0)
    if unobserved:
        notes.append(f"cold logits unobserved on {unobserved} predict calls")
    for name, (value, unit) in metrics.items():
        lines.append(f"{workload}  {name} = {value:.6g} {unit}")
    lines += [f"{workload}  fail_frac = {led.failed}/{led.attempted}"] + \
             [f"note: {n}" for n in notes] + [f"FAILED: {p}" for p in led.problems]
    result = {
        "correct": led.failed == 0 and led.attempted > 0,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def _run_all(args):
    """Every workload, each in its own process so peak RSS is its own."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        rc = subprocess.run(cmd, cwd=ROOT).returncode
        print(f"== {name} exited {rc}", flush=True)
        worst = max(worst, rc)
    return worst


def _write_reference():
    from workloads import REFERENCE_FILE, WORKLOADS

    entries = {}
    for name in ("train-c4", "eval-wide"):
        workdir = OUT_DIR / f"reference-{os.getpid()}"
        try:
            entries[name] = WORKLOADS[name].reference_entry(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny load: one set-up and two units per phase")
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute reference.json from the current sources")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    _import_package()
    if args.write_reference:
        return _write_reference()
    if args.workload == "all":
        return _run_all(args)
    result, lines = run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
