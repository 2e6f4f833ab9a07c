"""The committed measurement records (BENCH_*.json) hold what a perf claim cites.

Each record is `{provenance, runs: [{workload, seed, side, trace, result}]}`,
collected from `perfbench/run.py` runs of a change and its parent; the
workloads and metric names come from BENCHMARK.json, read only.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
# trace 0 runs measure end to end, trace 1 runs layer by layer
METRICS_BY_TRACE = {
    0: {m["name"] for m in BENCHMARK["end_to_end"]},
    1: {m["name"] for m in BENCHMARK["per_layer"]},
}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_record_is_complete(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    missing = {"python", "numpy", "blas", "nproc", "seconds"} - record["provenance"].keys()
    assert not missing, f"provenance has no {sorted(missing)}"
    assert record["runs"]
    for i, run in enumerate(record["runs"]):
        where = f"run {i}"
        assert run["workload"] in WORKLOADS, where
        assert run["side"] in ("parent", "change"), where
        assert run["trace"] in METRICS_BY_TRACE, where
        result = run["result"]
        assert result["correct"] is True and result["failed"] == 0, where
        missing = METRICS_BY_TRACE[run["trace"]] - result["metrics"].keys()
        assert not missing, f"{where} has no {sorted(missing)}"
