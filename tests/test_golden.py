"""Byte-for-byte CLI snapshots: `solve --exact-arith` for every method and
`verify --exact-arith` for every notion, on example 5.2 and a seeded 2x3
random instance, plus two dp-ef1 solves that exercise the adaptive-grid
option kernel and the candidate-band screen at scale, a dp-eps-ef solve
whose profiles pack into two words, and the instance file and manifest
`generate` writes for every family.

The snapshots pin whole fairness reports (IR and EF slacks, EF1 witnesses,
the left-hand-side form) and solver meta, which the other tests only sample.
After an intended output change, rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from faircon.cli import SOLVERS, main
from faircon.instances import gen_example, gen_partition_ef1, gen_random
from faircon.serialize import dump_json, instance_to_dict

GOLDEN = Path(__file__).parent / "golden"

INSTANCES = {
    "ex52": lambda: gen_example("5.2", Fraction(1, 100)),
    "rand2x3s1": lambda: gen_random(2, 3, 1),
    "pef1-1": lambda: gen_partition_ef1([1]),
    "readme": lambda: gen_random(2, 4, 7, "sparse-ability"),
    "ex57": lambda: gen_example("5.7", Fraction(1, 4)),
}

# Extra solve flags per method; eps methods share one eps, dp-ef1 gets a
# coarse guess ladder so the snapshot stays quick.
SOLVE_FLAGS = {m: (["--eps", "1/4"] if needs_eps else []) for m, (_, needs_eps) in SOLVERS.items()}
SOLVE_FLAGS["dp-ef1"] = SOLVE_FLAGS["dp-ef1"] + ["--f-bits", "6"]

# (instance, method, flags) solved on their own.  pef1-1 is scan-bound: the
# float screen rejects thousands of its band rows (meta `screened`) and the
# exact verifier runs twice (`exact_checks`); its exact-ef1 solve reaches
# allocations that leave agents empty.  readme is the README's instance at a
# short guess ladder.  ex57's five agents make 25 profile components, which
# dp-eps-ef packs into two words.
EXTRA_SOLVES = [
    ("pef1-1", "dp-ef1", ["--eps", "1/6", "--f-bits", "1"]),
    ("pef1-1", "exact-ef1", []),
    ("readme", "dp-ef1", ["--eps", "1/4", "--f-bits", "3"]),
    ("ex57", "dp-eps-ef", ["--eps", "1/4"]),
]

# (instance, notion, contract, extra flags).  The rand2x3s1 ef, eps-ef and
# ef1 contracts break IR, so their reports take the clamped left-hand side.
VERIFY_CASES = [
    ("ex52", "ef", {"assignment": [1], "alpha": ["1/2"]}, []),
    ("ex52", "eps-ef", {"assignment": [1], "alpha": ["3/5"]}, ["--eps", "1/25"]),
    ("ex52", "ef1", {"assignment": [0], "alpha": ["1/7"]}, ["--tol", "0"]),
    (
        "ex52", "efs",
        {"assignment": [1], "alpha": ["3/5"], "subsidies": ["1/20", "0"]},
        ["--tol", "0"],
    ),
    ("rand2x3s1", "ef", {"assignment": [1, 0, 0], "alpha": ["1/3", "1/7", "0"]}, []),
    (
        "rand2x3s1", "eps-ef",
        {"assignment": [1, 0, 0], "alpha": ["1/2", "1/3", "1/7"]},
        ["--eps", "1/10"],
    ),
    ("rand2x3s1", "ef1", {"assignment": [0, 1, 1], "alpha": ["1/3", "2/3", "1/7"]}, ["--tol", "0"]),
    (
        "rand2x3s1", "efs",
        {"assignment": [1, 0, 0], "alpha": ["2/3", "1/2", "5/7"], "subsidies": ["1/10", "0"]},
        [],
    ),
]


# (snapshot name, `generate` argv): every family, with the optional flags
# (--c-target, --seed, --profile) both left at their defaults and set.
GENERATE_CASES = [
    ("partition-ef", ["partition-ef", "--set", "3,1,2"]),
    ("partition-ef1", ["partition-ef1", "--set", "1 2 3"]),
    ("partition-eps-ef", ["partition-eps-ef", "--set", "1,2", "--eps", "1/10"]),
    ("two-agent-hard", ["two-agent-hard", "--set", "1,1,2"]),
    ("independent-set", ["independent-set", "--graph", "0-1,1-2,2-0"]),
    ("independent-set-c2", ["independent-set", "--graph", "0-1,1-2,2-3", "--c-target", "3/2"]),
    ("pof-sqrt", ["pof-sqrt", "--n", "10"]),
    ("example-5.2", ["example", "--id", "5.2", "--eps", "1/100"]),
    ("example-5.7", ["example", "--id", "5.7", "--eps", "0.25"]),
    ("random", ["random", "--n", "2", "--m", "3"]),
    ("random-sparse", ["random", "--n", "3", "--m", "2", "--seed", "5", "--profile", "sparse-ability"]),
    ("random-cost", ["random", "--n", "2", "--m", "2", "--seed", "9", "--profile", "cost-heavy"]),
]


def _cases():
    """(golden file name, instance name, argv template[, contract]) per snapshot."""
    out = []
    solves = [(name, m, f) for name in ("ex52", "rand2x3s1") for m, f in SOLVE_FLAGS.items()]
    for name, method, flags in solves + EXTRA_SOLVES:
        argv = ["solve", "{inst}", "--method", method, "--exact-arith", *flags]
        out.append((f"solve-{name}-{method}.json", name, argv))
    for name, notion, contract, flags in VERIFY_CASES:
        argv = ["verify", "{inst}", "{contract}", "--notion", notion, "--exact-arith", *flags]
        out.append((f"verify-{name}-{notion}.json", name, argv, contract))
    return out


def _render(case, workdir: Path) -> bytes:
    fname, name, argv, *contract = case
    ipath = workdir / f"{name}.json"
    dump_json(instance_to_dict(INSTANCES[name]()), str(ipath))
    kpath = workdir / f"{fname}.contract.json"
    if contract:
        dump_json(contract[0], str(kpath))
    out = workdir / fname
    args = [a.format(inst=ipath, contract=kpath) for a in argv] + ["--out", str(out)]
    main(args)  # exit code 1 (verification failed) is part of some snapshots
    return out.read_bytes()


def _render_generate(name: str, argv: list[str], workdir: Path) -> dict[str, bytes]:
    """The instance file and manifest for one `generate` case, by golden name."""
    fname = f"generate-{name}.json"
    out = workdir / fname
    assert main(["generate", *argv, "--out", str(out)]) == 0
    manifest = Path(str(out) + ".manifest.json")
    return {fname: out.read_bytes(), manifest.name: manifest.read_bytes()}


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case[0])
def test_cli_output_matches_golden(case, tmp_path):
    assert _render(case, tmp_path) == (GOLDEN / case[0]).read_bytes()


@pytest.mark.parametrize("name,argv", GENERATE_CASES, ids=[c[0] for c in GENERATE_CASES])
def test_generate_matches_golden(name, argv, tmp_path):
    for fname, data in _render_generate(name, argv, tmp_path).items():
        assert data == (GOLDEN / fname).read_bytes(), fname


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in _cases():
            (GOLDEN / case[0]).write_bytes(_render(case, Path(tmp)))
            print(f"wrote {GOLDEN / case[0]}", file=sys.stderr)
        for name, argv in GENERATE_CASES:
            for fname, data in _render_generate(name, argv, Path(tmp)).items():
                (GOLDEN / fname).write_bytes(data)
                print(f"wrote {GOLDEN / fname}", file=sys.stderr)
