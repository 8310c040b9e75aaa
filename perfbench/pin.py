"""Write pins.json: the exact revenue of every operation, per workload, for
the default seed and the holdout seed.

    python3 perfbench/pin.py

Each operation runs once through the CLI and must pass the correctness
gate (without pins) before its revenue is recorded.  Re-pin only when a
change to the benchmark adds or alters operations; a change to the
program must reproduce the pinned revenues.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import workloads  # noqa: E402

PINNED_SEEDS = (1, 2)  # default seed, holdout seed


def pin_workload(name: str, seed: int, out_dir: str) -> dict[str, str]:
    from faircon import serialize

    wl = workloads.build(name, seed)
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        out = os.path.join(work, "out.json")
        pins = {}
        with workloads.quiet():
            workloads.generate(wl, work)
            workloads.write_contracts(wl, work)
        for op in wl.ops:
            inst = serialize.instance_from_dict(
                serialize.load_json(os.path.join(work, op.instance + ".json"))
            )
            with workloads.quiet():
                code, err = workloads.call_cli(op.argv(work, out))
            reason, rev = gate.check(op, code, out, inst, work, None)
            if reason is not None:
                raise SystemExit(f"{name} seed {seed} {op.id}: {reason} {err}")
            if op.id in pins:
                raise SystemExit(f"{name}: duplicate operation id {op.id}")
            pins[op.id] = rev
    return pins


def main() -> int:
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    table = {
        str(seed): {name: pin_workload(name, seed, out_dir) for name in workloads.NAMES}
        for seed in PINNED_SEEDS
    }
    with open(os.path.join(HERE, "pins.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {sum(len(w) for s in table.values() for w in s.values())} revenues")
    return 0


if __name__ == "__main__":
    sys.exit(main())
