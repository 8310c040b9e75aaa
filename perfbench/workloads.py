"""The benchmark's workloads: fixed lists of `faircon` CLI operations.

Every operation is one in-process `faircon.cli.main(argv)` call with the
argv a user would type.  Instance files are written by `faircon generate`
during set-up; random instances take their seeds from the workload seed,
so the same seed gives the same inputs.  The hardness-family instances and
the pinned acceptance-suite seeds are the same for every workload seed;
they carry most of each pass, which keeps a pass's cost nearly
independent of the seed.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
from dataclasses import dataclass

NAMES = ("exact-enum", "dp-ef1", "dp-eps-ef", "cli-verify")
NOTIONS = {
    "greedy": "ef",
    "exact-ef": "ef",
    "exact-eps-ef": "eps-ef",
    "exact-ef1": "ef1",
    "exact-efs": "efs",
    "dp-eps-ef": "eps-ef",
    "dp-ef1": "ef1",
    "round-robin": "ef1",
}


@dataclass(frozen=True)
class Op:
    """One CLI call: `solve` when method is set, else `verify` of a
    contract file that set-up wrote."""

    instance: str
    notion: str
    method: str | None = None
    eps: str | None = None
    f_bits: int | None = None
    contract: str | None = None

    @property
    def id(self) -> str:
        parts = [self.method or f"verify-{self.notion}", self.contract or self.instance]
        if self.eps:
            parts.append("e" + self.eps.replace("/", "_"))
        if self.f_bits is not None:
            parts.append(f"fb{self.f_bits}")
        return ".".join(parts)

    def argv(self, work: str, out: str) -> list[str]:
        inst = os.path.join(work, self.instance + ".json")
        if self.method is None:
            contract = os.path.join(work, self.contract + ".contract.json")
            argv = ["verify", inst, contract, "--notion", self.notion]
        else:
            argv = ["solve", inst, "--method", self.method]
        if self.eps:
            argv += ["--eps", self.eps]
        if self.f_bits is not None:
            argv += ["--f-bits", str(self.f_bits)]
        return argv + ["--exact-arith", "--out", out]


def solve(method: str, instance: str, eps: str | None = None, f_bits: int | None = None) -> Op:
    return Op(instance, NOTIONS[method], method, eps, f_bits)


@dataclass(frozen=True)
class Workload:
    name: str
    instances: dict[str, tuple[str, ...]]  # file stem -> `faircon generate` args
    ops: tuple[Op, ...]
    warmup: Op
    # (contract stem, instance stem, method): contracts set-up writes for verify ops
    contracts: tuple[tuple[str, str, str], ...] = ()
    # Share of the time spent in numpy-bound work; weights the host-speed
    # probe's two parts (calib.py).
    numpy_share: float = 0.0


def _seeds(name: str, seed: int):
    rng = random.Random(f"{name}:{seed}")
    while True:
        yield rng.randrange(2**31)


def _random(n: int, m: int, seed: int, profile: str = "uniform") -> tuple[str, ...]:
    return ("random", "--n", str(n), "--m", str(m), "--seed", str(seed), "--profile", profile)


# op_s.p50 and op_s.tail (p75 over seven passes or more) are percentiles
# over the operation list, each operation at its median over the passes
# (run.py), so the lists are built around them.  exact-enum and dp-ef1 have
# ten operations: p50 lies between the 5th and 6th fastest, and p75 reads
# the 8th.  dp-eps-ef has nine: p50 reads the 5th, and p75 the 7th.  Each
# of these sits next to an operation of similar latency, so a swap in order
# moves a percentile by a few percent at most.  The random instances stay
# below the middle for every seed.  No operation takes much more than half
# a second at the reference speed (calib.py), and passes take one to two
# seconds, so a run holds ten passes or more.


def exact_enum(seed: int) -> Workload:
    """Allocation enumeration with one Fraction-simplex LP per allocation."""
    seeds = _seeds("exact-enum", seed)
    rand = [f"r{k}-3x6" for k in range(2)]
    inst = {stem: _random(3, 6, next(seeds), "cost-heavy") for stem in rand}
    inst.update({
        "pef-1-2": ("partition-ef", "--set", "1,2"),
        "peef-1": ("partition-eps-ef", "--set", "1", "--eps", "1/20"),
        "tah-1-2": ("two-agent-hard", "--set", "1,2"),
        "pef-1-3": ("partition-ef", "--set", "1,2,3"),
        "pef1-1": ("partition-ef1", "--set", "1"),
        "tah-1-3": ("two-agent-hard", "--set", "1,2,3"),
    })
    ops = [solve("exact-ef", stem) for stem in rand] + [
        solve("exact-ef", "tah-1-2"),
        solve("exact-ef", "pef-1-2"),
        solve("exact-efs", "pef-1-2"),
        solve("exact-eps-ef", "peef-1", "1/20"),
        solve("exact-ef1", "tah-1-2"),
        solve("exact-ef", "pef-1-3"),
        solve("exact-ef", "tah-1-3"),
        solve("exact-ef1", "pef1-1"),
    ]
    return Workload("exact-enum", inst, tuple(ops), ops[3])


def dp_ef1(seed: int) -> Workload:
    """The EF1 FPTAS: utility-guess loop, adaptive grids, candidate scan."""
    seeds = _seeds("dp-ef1", seed)
    rand = [f"r{k}-2x2" for k in range(2)]
    inst = {stem: _random(2, 2, next(seeds), "cost-heavy") for stem in rand}
    acceptance = {20004: 3, 20018: 4, 20001: 4, 20006: 4, 20003: 6, 20007: 6}  # seed: f_bits
    for s in acceptance:
        inst[f"acc-{s}"] = _random(2, 4, s)
    inst["readme"] = _random(2, 4, 7, "sparse-ability")
    inst["pef1-1"] = ("partition-ef1", "--set", "1")
    ops = [solve("dp-ef1", stem, "1/4", 4) for stem in rand]
    ops += [solve("dp-ef1", f"acc-{s}", "1/4", fb) for s, fb in acceptance.items()]
    ops += [solve("dp-ef1", "readme", "1/4", 3), solve("dp-ef1", "pef1-1", "1/6", 1)]
    return Workload("dp-ef1", inst, tuple(ops), ops[2])


def dp_eps_ef(seed: int) -> Workload:
    """The eps-EF FPTAS: one uniform-grid DP pass and one candidate per solve."""
    seeds = _seeds("dp-eps-ef", seed)
    rand = [f"r{k}-2x3" for k in range(2)]
    inst = {stem: _random(2, 3, next(seeds)) for stem in rand}
    inst.update({
        "tah-1": ("two-agent-hard", "--set", "1"),
        "tah-1-2": ("two-agent-hard", "--set", "1,2"),
        "pef-1-2": ("partition-ef", "--set", "1,2"),
        "pef-1-3": ("partition-ef", "--set", "1,2,3"),
    })
    ops = [solve("dp-eps-ef", stem, "1/20") for stem in rand] + [
        solve("dp-eps-ef", "tah-1", "1/10"),
        solve("dp-eps-ef", "pef-1-2", "1/10"),
        solve("dp-eps-ef", "tah-1", "1/20"),
        solve("dp-eps-ef", "tah-1-2", "1/10"),
        solve("dp-eps-ef", "pef-1-2", "1/20"),
        solve("dp-eps-ef", "tah-1-2", "1/15"),
        solve("dp-eps-ef", "pef-1-3", "1/15"),
    ]
    # The DP transitions (numpy sort and dedupe) carry most of these solves.
    return Workload("dp-eps-ef", inst, tuple(ops), ops[2], numpy_share=0.75)


CLI_VERIFY_SHAPES = ((2, 3), (2, 4), (3, 3), (2, 5))
CLI_VERIFY_PROFILES = ("uniform", "sparse-ability", "cost-heavy")


def cli_verify(seed: int) -> Workload:
    """Many short solves and verifies: dispatch, reports, JSON."""
    seeds = _seeds("cli-verify", seed)
    inst = {
        "ex-5.2": ("example", "--id", "5.2", "--eps", "1/100"),
        "ex-5.7": ("example", "--id", "5.7", "--eps", "1/4"),
        # exact-efs and dp-eps-ef on this one are the two slowest calls,
        # well apart from each other and from the rest.  With 144 calls a
        # pass, op_s.tail (p99) reads the second slowest, whatever the seed.
        "tah-1-4": ("two-agent-hard", "--set", "1,2,3,4"),
    }
    for k in range(21):
        n, m = CLI_VERIFY_SHAPES[k % len(CLI_VERIFY_SHAPES)]
        profile = CLI_VERIFY_PROFILES[k % len(CLI_VERIFY_PROFILES)]
        inst[f"r{k}-{n}x{m}"] = _random(n, m, next(seeds), profile)
    ops: list[Op] = []
    contracts = []
    for stem in inst:
        ops += [
            solve("greedy", stem),
            solve("round-robin", stem),
            solve("exact-efs", stem),
            solve("dp-eps-ef", stem, "1/4"),
        ]
        for method in ("greedy", "round-robin"):
            contracts.append((f"{stem}.{method}", stem, method))
            ops.append(Op(stem, NOTIONS[method], contract=f"{stem}.{method}"))
    return Workload("cli-verify", inst, tuple(ops), ops[0], tuple(contracts))


_BY_NAME = {"exact-enum": exact_enum, "dp-ef1": dp_ef1, "dp-eps-ef": dp_eps_ef, "cli-verify": cli_verify}


def build(name: str, seed: int) -> Workload:
    return _BY_NAME[name](seed)


# ---------------------------------------------------------------------------
# Running operations.


def call_cli(argv: list[str]) -> tuple[int, str]:
    """One CLI call; (exit code, error text).  An exception that escapes
    `main` is a failed operation with code -1, not a crashed benchmark."""
    from faircon import cli

    try:
        return cli.main(argv), ""
    except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
        return -1, f"{type(exc).__name__}: {exc}"


@contextlib.contextmanager
def quiet():
    """Send the CLI's stdout and stderr chatter to /dev/null."""
    with open(os.devnull, "w") as sink:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            yield


def generate(wl: Workload, work: str) -> None:
    """Write every instance file through `faircon generate`."""
    for stem, args in wl.instances.items():
        code, err = call_cli(["generate", *args, "--out", os.path.join(work, stem + ".json")])
        if code != 0:
            raise RuntimeError(f"generate {stem} failed with exit code {code} {err}")


def write_contracts(wl: Workload, work: str) -> None:
    """Solve once per verify op and keep the contract part of the output."""
    tmp = os.path.join(work, "contract-solve.json")
    for stem, instance, method in wl.contracts:
        op = solve(method, instance)
        code, err = call_cli(op.argv(work, tmp))
        if code != 0:
            raise RuntimeError(f"solve for contract {stem} failed with exit code {code} {err}")
        with open(tmp) as fh:
            contract = json.load(fh)["contract"]
        with open(os.path.join(work, stem + ".contract.json"), "w") as fh:
            json.dump(contract, fh)
