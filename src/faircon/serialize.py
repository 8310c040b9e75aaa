"""JSON forms for instances, contracts, reports, and solve results.

Numbers are written as ints, "num/den" strings (exact mode), or floats
rounded to 12 significant digits; the loaders accept any of those.
"""

from __future__ import annotations

import contextlib
import json
import sys
from typing import Any

from .core import Allocation, Contract, FairnessReport, Instance, SolveResult
from .errors import FairconError, InvalidInstanceError
from .numeric import as_int, format_number


def instance_to_dict(inst: Instance) -> dict:
    num = lambda x: format_number(x, True)  # noqa: E731
    return {
        "n": inst.n,
        "m": inst.m,
        "r": [num(x) for x in inst.r],
        "p": [[num(x) for x in row] for row in inst.p],
        "c": [[num(x) for x in row] for row in inst.c],
    }


def instance_from_dict(data: dict) -> Instance:
    try:
        inst = Instance(data["r"], data["p"], data["c"])
    except FairconError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInstanceError(f"bad instance JSON: {exc}") from exc
    if "n" in data and as_int(data["n"], "declared n") != inst.n:
        raise InvalidInstanceError("declared n does not match p/c rows")
    if "m" in data and as_int(data["m"], "declared m") != inst.m:
        raise InvalidInstanceError("declared m does not match r length")
    return inst


def contract_to_dict(k: Contract, exact: bool = False) -> dict:
    num = lambda x: format_number(x, exact)  # noqa: E731
    out: dict[str, Any] = {
        "assignment": list(k.assignment),
        "alpha": [num(a) for a in k.alpha],
    }
    if k.subsidies is not None:
        out["subsidies"] = [num(s) for s in k.subsidies]
    return out


def contract_from_dict(data: dict, n_agents: int) -> Contract:
    try:
        alloc = Allocation(data["assignment"], n_agents)
        return Contract(alloc, data["alpha"], data.get("subsidies"))
    except FairconError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInstanceError(f"bad contract JSON: {exc}") from exc


def report_to_dict(rep: FairnessReport, exact: bool = False) -> dict:
    num = lambda x: format_number(x, exact)  # noqa: E731
    out: dict[str, Any] = {
        "tolerance": num(rep.tolerance),
        "epsilon": num(rep.epsilon),
        "ir_ok": rep.ir_ok,
        "ir_slacks": {f"{i},{j}": num(s) for (i, j), s in rep.ir_slacks.items()},
        "lhs_form": rep.lhs_form,
        "ef_ok": rep.ef_ok,
        "ef_slacks": [[num(s) for s in row] for row in rep.ef_slacks],
        "eps_ef_ok": rep.eps_ef_ok,
        "ef1_ok": rep.ef1_ok,
        "ef1_witnesses": {f"{i},{j}": w for (i, j), w in rep.ef1_witnesses.items()},
    }
    if rep.efs_ok is not None:
        out["efs_ok"] = rep.efs_ok
    return out


def _meta_value(x: Any, exact: bool) -> Any:
    """A meta value as JSON: a number as `format_number` writes it, a tuple
    or list element by element."""
    if isinstance(x, (tuple, list)):
        return [_meta_value(v, exact) for v in x]
    return format_number(x, exact)


def result_to_dict(res: SolveResult, report: FairnessReport, exact: bool = False) -> dict:
    return {
        "method": res.method,
        "revenue": format_number(res.revenue, exact),
        "contract": contract_to_dict(res.contract, exact),
        "meta": {key: _meta_value(value, exact) for key, value in res.meta.items()},
        "fairness": report_to_dict(report, exact),
    }


def dump_json(data: dict, path: str | None = None) -> None:
    """Indented, key-sorted JSON and a newline, to `path` or else stdout."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
