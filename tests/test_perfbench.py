"""The benchmark's tracer wraps faircon functions by module attribute."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_trace_boundaries_are_module_attributes():
    # tracing.py swaps each (owner, attr) in owner.__dict__; a refactor that
    # drops or inlines one of these names breaks `run.py --trace 1`.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{owner.__name__}.{attr}"
        for _, owner, attr, _ in tracing.boundaries()
        if attr not in owner.__dict__
    ]
    assert missing == []
