"""Correctness gate for benchmark operations, run outside the timed region.

An operation fails when
  - its exit code is not 0 (2 is a budget overrun),
  - the fairness flag of its notion in the CLI output is not true
    (`ok` for a verify),
  - its contract does not pass the public verifier of its notion, and IR,
    at tolerance 0,
  - the reported revenue differs from `faircon.revenue` of the contract, or
  - a revenue is pinned for this seed and the result differs from it.

Run `python3 perfbench/gate.py` for the gate's self-test: a wrong pinned
revenue and a non-zero exit must each count as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from fractions import Fraction

FLAGS = {"ef": "ef_ok", "eps-ef": "eps_ef_ok", "ef1": "ef1_ok", "efs": "efs_ok"}


def as_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def reverify(inst, contract, notion: str, eps: Fraction | None) -> bool:
    """The public verifier for the notion, at tolerance 0."""
    from faircon import core

    if not core.verify_ir(inst, contract, 0)[0]:
        return False
    if notion == "ef":
        return core.verify_ef(inst, contract, 0)[0]
    if notion == "eps-ef":
        return core.verify_eps_ef(inst, contract, eps, 0)
    if notion == "ef1":
        return core.verify_ef1(inst, contract, 0)[0]
    if notion == "efs":
        return contract.subsidies is not None and core.verify_efs(inst, contract, 0)
    raise ValueError(f"unknown notion {notion!r}")


def check(op, code: int, out_path: str, inst, work: str, pinned: str | None):
    """(failure reason or None, revenue as num/den or None) for one call."""
    from faircon import core, serialize

    if code != 0:
        return f"exit code {code}", None
    try:
        with open(out_path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}", None
    if op.method is None:
        if payload.get("ok") is not True:
            return "verify did not report ok", None
        path = os.path.join(work, op.contract + ".contract.json")
        contract = serialize.contract_from_dict(serialize.load_json(path), inst.n)
        rev = core.revenue(inst, contract)
    else:
        if payload.get("fairness", {}).get(FLAGS[op.notion]) is not True:
            return f"{FLAGS[op.notion]} is not true", None
        contract = serialize.contract_from_dict(payload["contract"], inst.n)
        rev = Fraction(str(payload["revenue"]))
        if core.revenue(inst, contract) != rev:
            return f"reported revenue {as_text(rev)} is not the contract's revenue", None
    eps = Fraction(op.eps) if op.eps else None
    if not reverify(inst, contract, op.notion, eps):
        return f"contract fails {op.notion} at tolerance 0", None
    if pinned is not None and pinned != as_text(rev):
        return f"revenue {as_text(rev)} differs from pinned {pinned}", None
    return None, as_text(rev)


def self_test(work: str) -> list[str]:
    """Problems found; empty when the gate rejects what it must reject."""
    from faircon import serialize

    import workloads

    wl = workloads.Workload(
        "self-test",
        {"pef-1-2": ("partition-ef", "--set", "1,2")},
        (workloads.solve("greedy", "pef-1-2"), workloads.solve("exact-ef", "pef-1-2")),
        workloads.solve("greedy", "pef-1-2"),
    )
    with workloads.quiet():
        workloads.generate(wl, work)
    inst = serialize.instance_from_dict(serialize.load_json(os.path.join(work, "pef-1-2.json")))
    out = os.path.join(work, "self-test-out.json")
    greedy, exact_ef = wl.ops
    problems = []

    def run(op, argv_tail=()):
        with workloads.quiet():
            code, _ = workloads.call_cli(op.argv(work, out) + list(argv_tail))
        return code

    code = run(greedy)
    reason, rev = check(greedy, code, out, inst, work, None)
    if reason is not None:
        problems.append(f"a correct greedy solve was rejected: {reason}")
    reason, _ = check(greedy, code, out, inst, work, rev)
    if reason is not None:
        problems.append(f"a correct pinned revenue was rejected: {reason}")
    wrong = as_text(Fraction(rev) + 1) if rev else "1/1"
    reason, _ = check(greedy, code, out, inst, work, wrong)
    if reason is None:
        problems.append("a wrong pinned revenue was accepted")
    code = run(exact_ef, ["--budget-lps", "1"])
    if code == 0:
        problems.append("an over-budget solve exited 0")
    reason, _ = check(exact_ef, code, out, inst, work, None)
    if reason is None:
        problems.append("a non-zero exit was accepted")
    return problems


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    sys.path.insert(0, os.path.join(root, "src"))
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        problems = self_test(work)
    for p in problems:
        print(f"FAIL: {p}")
    print("gate self-test: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
