"""The benchmark's tracer wraps faircon functions by module attribute, and
its method and notion tables match the CLI's."""

import importlib.util
import sys
from fractions import Fraction as F
from pathlib import Path

from faircon import cli, exact, ext
from faircon.core import greedy_ef
from faircon.instances import gen_random

from conftest import make_contract

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


def test_gate_reverify_reads_the_verifier_return_shapes(ex52):
    # gate.py takes [0] of verify_ir, verify_ef and verify_ef1 and reads
    # verify_eps_ef and verify_efs as bools; a change to those shapes would
    # fail every benchmark operation while the rest of the suite stays green.
    gate = _load("gate")
    for inst in (ex52, gen_random(3, 3, 5)):
        assert gate.reverify(inst, greedy_ef(inst), "ef", None)
        eps_ef = exact.solve_opt_ef(inst, F(1, 10)).contract
        assert gate.reverify(inst, eps_ef, "eps-ef", F(1, 10))
        assert gate.reverify(inst, ext.round_robin_ef1(inst).contract, "ef1", None)
        assert gate.reverify(inst, exact.solve_opt_efs(inst).contract, "efs", None)
    assert not gate.reverify(ex52, make_contract(ex52, [1], [F(1, 2)]), "ef", None)
