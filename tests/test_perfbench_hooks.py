"""Every function the benchmark's span tracer hooks still exists in the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_hook_resolves():
    """A renamed or folded hooked function would silently zero its per-layer metric."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, module, _, _ in spans.HOOKS:
        importlib.import_module(module)
    gone = [f"{module}.{attr}" for _, module, attr, _ in spans.HOOKS
            if spans._resolve(module, attr) is None]
    assert not gone
