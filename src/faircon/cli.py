"""Command-line front end: solve, verify, generate, bench-pof.

Exit codes: 0 success, 1 verification failed, 2 budget exceeded, 3 invalid
input.  FAIRCON_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import csv
import functools
import logging
import os
import sys
import time
from fractions import Fraction

from . import exact, ext, instances, serialize
from .core import (
    SolveResult,
    fairness_report,
    greedy_ef,
    revenue,
    unconstrained_opt,
)
from .errors import DEFAULT_STATE_BUDGET, BudgetExceededError, FairconError, InvalidInstanceError
from .numeric import as_count, as_fraction, as_int, format_scalar_text

log = logging.getLogger("faircon")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BUDGET = 2
EXIT_INVALID = 3


def _setup_logging() -> None:
    level = os.environ.get("FAIRCON_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _load_instance(path: str):
    return serialize.instance_from_dict(serialize.load_json(path))


def _greedy(inst) -> SolveResult:
    contract = greedy_ef(inst)
    return SolveResult(contract, revenue(inst, contract), "greedy", {})


def _dp():
    from . import dp  # numpy comes with it, so only a DP solve imports it
    return dp


# Method name -> (solver, needs_eps).  Each solver takes (inst, eps,
# budget_lps, budget_states, f_bits) and looks its function up on the module
# at call time, so a name rebound there (a tracing wrapper) sees the call;
# the DP module is imported on the first DP solve, then looked up the same way.
SOLVERS = {
    "greedy": (lambda inst, *_: _greedy(inst), False),
    "exact-ef": (lambda inst, eps, lps, *_: exact.solve_opt_ef(inst, 0, lps), False),
    "exact-eps-ef": (lambda inst, eps, lps, *_: exact.solve_opt_ef(inst, eps, lps), True),
    "exact-ef1": (lambda inst, eps, lps, *_: exact.solve_opt_ef1(inst, lps), False),
    "exact-efs": (lambda inst, eps, lps, *_: exact.solve_opt_efs(inst, lps), False),
    "dp-eps-ef": (lambda inst, eps, lps, states, _: _dp().solve_eps_ef_fptas(inst, eps, states), True),
    "dp-ef1": (
        lambda inst, eps, lps, states, f_bits: _dp().solve_ef1_fptas(inst, eps, states, f_bits),
        True,
    ),
    "round-robin": (lambda inst, *_: ext.round_robin_ef1(inst), False),
}
# verify --notion name -> the FairnessReport field holding its verdict.
NOTIONS = {"ef": "ef_ok", "eps-ef": "eps_ef_ok", "ef1": "ef1_ok", "efs": "efs_ok"}
# The methods bench-pof accepts for its EF and EF1 columns.
BENCH_EF_METHODS = ("exact-ef", "dp-eps-ef", "greedy")
BENCH_EF1_METHODS = ("exact-ef1", "dp-ef1", "round-robin")
# The keys a bench-pof config and each of its rows may set.
BENCH_KEYS = ("rows", "budget_lps", "budget_states")
BENCH_ROW_KEYS = ("id", "family", "params", "eps", "ef_method", "ef1_method", "f_bits")


def _run(method: str, inst, eps, budget_lps: int, budget_states: int, f_bits) -> SolveResult:
    solver, needs_eps = SOLVERS[method]
    if needs_eps and eps is None:
        raise InvalidInstanceError(f"method {method} requires eps")
    return solver(inst, eps, budget_lps, budget_states, f_bits)


def cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    res = _run(args.method, inst, args.eps, args.budget_lps, args.budget_states, args.f_bits)
    report = fairness_report(inst, res.contract, args.eps or 0, args.tol)
    serialize.dump_json(serialize.result_to_dict(res, report, args.exact_arith), args.out)
    print(
        f"method={res.method} revenue={format_scalar_text(res.revenue, args.exact_arith)}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    data = serialize.load_json(args.contract)
    if isinstance(data, dict) and "contract" in data:  # a solve result
        data = data["contract"]
    contract = serialize.contract_from_dict(data, inst.n)
    if args.notion == "eps-ef" and args.eps is None:
        raise InvalidInstanceError("eps-ef verification requires --eps")
    if args.notion == "efs" and contract.subsidies is None:
        raise InvalidInstanceError("contract has no subsidies")
    report = fairness_report(inst, contract, args.eps or 0, args.tol)
    payload = serialize.report_to_dict(report, args.exact_arith)
    ok = report.ir_ok and bool(getattr(report, NOTIONS[args.notion]))
    payload["notion"] = args.notion
    payload["ok"] = ok
    serialize.dump_json(payload, args.out)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def tolerance(text: str) -> Fraction:
    """--tol as a Fraction; a malformed or negative one is a usage error."""
    tol = as_fraction(text)
    if tol < 0:
        raise argparse.ArgumentTypeError("tol must be nonnegative")
    return tol


def number(text: str) -> Fraction:
    """--eps or --c-target as a Fraction; a malformed one is a usage error."""
    return as_fraction(text)


def count(text: str) -> int:
    """--budget-lps, --budget-states or --jobs: an integer of at least 1."""
    return as_count(text, "count")


def integer(text: str) -> int:
    """An integral flag value, written as `2` or `2.0`."""
    return as_int(text, "integer")


def integers(text: str) -> list[int]:
    return [as_int(x, "integer") for x in text.replace(",", " ").split()]


def edge_list(text: str) -> list[list[int]]:
    """Edges like '0-1,1-2,2-0' into an adjacency list."""
    edges = []
    for part in text.replace(",", " ").split():
        u, v = part.split("-")
        edges.append((as_int(u, "vertex"), as_int(v, "vertex")))
    n = max(max(e) for e in edges) + 1
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


# `generate` parameters whose flag differs from the family parameter name.
_PARAM_FLAGS = {"adjacency": "graph"}
# The `generate` flags without a default; a family that does not take one rejects it.
_FAMILY_FLAGS = ("set", "eps", "graph", "n", "m", "id")


def cmd_generate(args) -> int:
    _, required, optional = instances.FAMILIES[args.family]
    flags = {key: _PARAM_FLAGS.get(key, key) for key in required + optional}
    given = [f for f in _FAMILY_FLAGS if getattr(args, f) is not None]
    if extra := [f for f in given if f not in flags.values()]:
        raise InvalidInstanceError(f"--{extra[0]} is not a parameter of {args.family}")
    if missing := [flags[key] for key in required if flags[key] not in given]:
        raise InvalidInstanceError(f"--{missing[0]} is required for {args.family}")
    # Every other parameter has a flag default.
    params = {key: getattr(args, f) for key, f in flags.items()}
    inst = instances.make(args.family, params)
    serialize.dump_json(serialize.instance_to_dict(inst), args.out)
    manifest = {
        "generator": args.family,
        "params": {
            k: (str(v) if isinstance(v, Fraction) else v) for k, v in params.items()
        },
    }
    serialize.dump_json(manifest, args.out + ".manifest.json")
    print(f"wrote {inst.n}x{inst.m} instance to {args.out}", file=sys.stderr)
    return EXIT_OK


CSV_COLUMNS = [
    "instance_id", "n", "m", "opt", "opt_ef", "opt_ef1_lb",
    "ratio_ef", "ratio_ef1", "method", "lp_solves", "states", "error",
]


def _bench_row(row: dict, budget_lps: int, budget_states: int) -> dict:
    """One price-of-fairness row; exceptions are reported in the row."""
    out = dict.fromkeys(CSV_COLUMNS, "")
    try:
        if not isinstance(row, dict):
            raise InvalidInstanceError(f"row {row!r} is not an object")
        out["instance_id"] = row.get("id", "")
        if unknown := [key for key in row if key not in BENCH_ROW_KEYS]:
            raise InvalidInstanceError(f"row takes no key {unknown[0]!r}")
        inst = instances.make(row["family"], row.get("params", {}))
        out["n"], out["m"] = inst.n, inst.m
        eps = as_fraction(row["eps"]) if row.get("eps") is not None else None
        ef_method = row.get("ef_method", "exact-ef")
        ef1_method = row.get("ef1_method", "round-robin")
        opt = unconstrained_opt(inst)
        if ef_method not in BENCH_EF_METHODS:
            raise InvalidInstanceError(f"unknown ef_method {ef_method!r}")
        if ef1_method not in BENCH_EF1_METHODS:
            raise InvalidInstanceError(f"unknown ef1_method {ef1_method!r}")
        f_bits = as_int(row["f_bits"], "f_bits") if row.get("f_bits") is not None else None
        ef_res = _run(ef_method, inst, eps, budget_lps, budget_states, f_bits)
        ef1_res = _run(ef1_method, inst, eps, budget_lps, budget_states, f_bits)
        out.update(
            opt=format_scalar_text(opt),
            opt_ef=format_scalar_text(ef_res.revenue),
            opt_ef1_lb=format_scalar_text(ef1_res.revenue),
            ratio_ef=format_scalar_text(ef_res.revenue / opt) if opt else "",
            ratio_ef1=format_scalar_text(ef1_res.revenue / opt) if opt else "",
            method=f"{ef_method}+{ef1_method}",
            lp_solves=ef_res.meta.get("lp_solves", 0) + ef1_res.meta.get("lp_solves", 0),
            states=ef_res.meta.get("states", 0) + ef1_res.meta.get("states", 0),
        )
    except Exception as exc:  # per-row failures must not kill the sweep
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def cmd_bench_pof(args) -> int:
    config = serialize.load_json(args.config)
    rows = config.get("rows", []) if isinstance(config, dict) else None
    if not isinstance(rows, list):
        raise InvalidInstanceError("bench config must be an object whose rows are a list")
    if unknown := [key for key in config if key not in BENCH_KEYS]:
        raise InvalidInstanceError(f"bench config takes no key {unknown[0]!r}")
    budget_lps = as_count(config.get("budget_lps", exact.DEFAULT_LP_BUDGET), "budget_lps")
    budget_states = as_count(config.get("budget_states", DEFAULT_STATE_BUDGET), "budget_states")
    started = time.time()
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so serial runs skip its import
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(
                pool.map(_bench_row, rows, [budget_lps] * len(rows), [budget_states] * len(rows))
            )
    else:
        results = [_bench_row(row, budget_lps, budget_states) for row in rows]
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for rec in results:
            writer.writerow(rec)
    ok_rows = sum(1 for rec in results if not rec["error"])
    log.info("bench: %d/%d rows ok in %.1fs", ok_rows, len(results), time.time() - started)
    print(f"{ok_rows}/{len(results)} rows ok -> {args.out}", file=sys.stderr)
    return EXIT_OK if ok_rows else EXIT_INVALID


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later `main`
    call (building it costs about a millisecond).  It holds each command's
    `cmd_*` function as of that first build."""
    parser = argparse.ArgumentParser(
        prog="faircon",
        description="Revenue-optimal fair contracts: solvers, verifiers, generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--eps", type=number, help="epsilon for eps-EF / DP methods")
    shared.add_argument("--tol", type=tolerance, default="1e-9")
    shared.add_argument("--exact-arith", action="store_true", help="print rationals as num/den")
    shared.add_argument("--out")

    ps = sub.add_parser("solve", parents=[shared], help="solve an instance file")
    ps.add_argument("instance")
    ps.add_argument("--method", required=True, choices=tuple(SOLVERS))
    ps.add_argument("--budget-lps", type=count, default=exact.DEFAULT_LP_BUDGET)
    ps.add_argument("--budget-states", type=count, default=DEFAULT_STATE_BUDGET)
    ps.add_argument(
        "--f-bits", type=integer, default=None,
        help="dp-ef1 guess resolution; default: the instance's total bit length over every "
        "numerator and denominator, at which the (f_bits + ceil(log2 m) + 2)^n guesses, charged "
        "to --budget-states up front, exceed it already on small 3-agent instances",
    )
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("verify", parents=[shared], help="verify a contract against an instance")
    pv.add_argument("instance")
    pv.add_argument("contract")
    pv.add_argument("--notion", required=True, choices=tuple(NOTIONS))
    pv.set_defaults(func=cmd_verify)

    pg = sub.add_parser("generate", help="write an instance from a named family")
    pg.add_argument("family", choices=tuple(instances.FAMILIES))
    pg.add_argument("--set", type=integers, help="comma-separated integers for partition families")
    pg.add_argument("--eps", type=number)
    pg.add_argument("--graph", type=edge_list, help="edge list like 0-1,1-2,2-0")
    pg.add_argument("--c-target", type=number, default="1")
    pg.add_argument("--n", type=integer)
    pg.add_argument("--m", type=integer)
    pg.add_argument("--id", help="example id: 5.2, 5.4, or 5.7")
    pg.add_argument("--seed", type=integer, default=0)
    pg.add_argument("--profile", default="uniform", choices=instances.PROFILES)
    pg.add_argument("--out", required=True)
    pg.set_defaults(func=cmd_generate)

    pb = sub.add_parser("bench-pof", help="price-of-fairness sweep to CSV")
    pb.add_argument("config")
    pb.add_argument("--out", required=True)
    pb.add_argument("--jobs", type=count, default=1)
    pb.set_defaults(func=cmd_bench_pof)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FairconError, OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
