"""The benchmark's smoke load runs every workload to a correct result.

`perfbench/run.py --workload all` runs each workload in its own process and
follows each one's last output line, a JSON result, with `== <name> exited
<code>`. Its scratch files go under the git-ignored `.perfbench/`.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_every_workload_smoke_run_is_correct():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1", "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        end = lines.index(f"== {workload} exited 0")
        result = json.loads(lines[end - 1])
        assert result["correct"] is True, (workload, result)
