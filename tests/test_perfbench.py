"""The benchmark's tracer wraps faircon functions by module attribute, and
its method and notion tables match the CLI's."""

import importlib.util
import sys
from pathlib import Path

from faircon import cli

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


def _load(name: str):
    """A perfbench script loaded by file path, as a module of its own.  It
    is registered in sys.modules first: a dataclass looks its module up
    there."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", TRACING.parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_workload_tables_match_the_cli():
    # workloads.py and gate.py keep their own copies of the CLI's method and
    # notion tables; a method or notion the CLI gains or drops fails here
    # rather than leaving the benchmark out of step.
    workloads, gate = _load("workloads"), _load("gate")
    assert set(workloads.NOTIONS) == set(cli.SOLVERS)
    assert set(workloads.NOTIONS.values()) <= set(cli.NOTIONS)
    assert gate.FLAGS == cli.NOTIONS
