"""The benchmark's own tests pass: `perfbench/selftest.py`, run as a script.

It checks that every metric is emitted with its unit, that planted faults are
counted as failed operations and that the benchmark refuses to run without
the package sources. Every workload it drives is a smoke load of fixed size.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    cmd = [sys.executable, "perfbench/selftest.py"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr.rstrip().endswith("OK")
