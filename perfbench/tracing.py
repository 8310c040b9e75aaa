"""Spans around the calls into each faircon layer, recorded from outside.

Each boundary function is replaced, at the module-level name its caller
looks up, by a wrapper that records one span: name, start, end, parent span
and operation id.  Spans are kept in flat arrays while the run lasts and
written out once at the end.  Nothing inside the package is edited; the
originals are put back when tracing stops.

Self time of a span is its duration minus the time its child spans cover.
Calls are single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

import numpy as np


class Recorder:
    """Flat in-memory span store; one row per wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.ok = array("b")  # outcome flag: simplex optimal, verifier passed
        self.notes: dict[int, dict] = {}  # solver meta counters, by span index
        self.stack: list[int] = []
        self.current_op = -1

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.ok.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, op: int):
        """A root span for one operation (the `cli.main` call)."""
        self.current_op = op
        idx = self.open(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)
            self.current_op = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "ok": np.frombuffer(self.ok, dtype=np.int8).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _passed(result) -> bool:
    """Verifiers return a bool or (bool, witnesses)."""
    return bool(result[0] if isinstance(result, tuple) else result)


def _solver_notes(args, result) -> dict:
    inst = args[0]
    meta = result.meta
    return {
        "allocations": inst.n**inst.m,
        "lp_solves": meta.get("lp_solves", 0),
        "guesses": meta.get("guesses", 0),
        "states": meta.get("states", 0),
        # dp-ef1 counts float screens as "exact_checks"; dp-eps-ef has no
        # screen, so each checked candidate is one verifier call.
        "screens": meta.get("exact_checks", meta.get("candidates_checked", 0)),
    }


def boundaries():
    """(span name, owner, attribute, result hook) for every wrapped call.

    The owner is the module (or class) whose attribute the caller looks up
    at call time, so the wrapper sees exactly the calls that cross the
    boundary: `faircon.dp.agent_task_utility` counts the DP's utility calls
    and not the verifiers' own.
    """
    from faircon import cli, dp, exact, ext, instances, serialize, simplex

    optimal = lambda args, res: res[0] == simplex.OPTIMAL  # noqa: E731
    verified = lambda args, res: _passed(res)  # noqa: E731
    out = [("simplex", simplex, "maximize", optimal)]
    out += [("lp.build", exact, f, None) for f in ("build_ef_lp", "build_ef1_lp", "build_efs_lp")]
    out += [("lp.solve", exact, "solve_lp", None)]
    out += [("exact.solve", exact, f, _solver_notes) for f in ("solve_opt_ef", "solve_opt_ef1", "solve_opt_efs")]
    out += [("exact.case4", exact, "enumerate_case4_bounds", None)]
    out += [("core.min_wage", mod, "minimum_wage", None) for mod in (exact, dp)]
    out += [("core.verify", exact, f, verified) for f in ("verify_ef1", "verify_efs")]
    out += [("core.verify", dp, f, verified) for f in ("verify_ef1", "verify_eps_ef")]
    out += [("core.revenue", mod, "revenue", None) for mod in (exact, dp, cli)]
    out += [("core.utility", dp, "agent_task_utility", None)]
    out += [("core.report", cli, "fairness_report", None)]
    out += [("dp.solve", dp, f, _solver_notes) for f in ("solve_eps_ef_fptas", "solve_ef1_fptas")]
    out += [("dp.enumerate", dp, "dp_enumerate", None)]
    out += [("dp.grid", dp, f, None) for f in ("adaptive_grid", "uniform_grid")]
    out += [("dp.band", dp.DpResult, "band", None), ("dp.reconstruct", dp.DpResult, "reconstruct", None)]
    out += [
        ("serialize", serialize, f, None)
        for f in (
            "instance_to_dict", "instance_from_dict", "contract_to_dict", "contract_from_dict",
            "report_to_dict", "result_to_dict", "dump_json", "load_json",
        )
    ]
    out += [
        ("ext", ext, f, None)
        for f in ("round_robin_ef1", "efs_augment", "embed_subsidized", "extract_subsidies")
    ]
    out += [("instances", instances, "make", None)]
    return out


def _wrap(rec: Recorder, name: str, fn, hook):
    nid = rec.name_id(name)

    if hook is None:
        def traced(*args, **kwargs):
            idx = rec.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)
        return traced

    def traced_hooked(*args, **kwargs):
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        note = hook(args, result)
        if isinstance(note, dict):
            rec.notes[idx] = note
        else:
            rec.ok[idx] = bool(note)
        return result

    return traced_hooked


@contextlib.contextmanager
def tracing(rec: Recorder):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for name, owner, attr, hook in boundaries():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(rec, name, original, hook))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans.


def layer_metrics(rec: Recorder, passes: int) -> dict[str, float]:
    """Per-pass layer figures from the spans of `passes` traced passes
    (spans with op >= 0) and of one traced instance generation (op -1)."""
    a = rec.arrays()
    n = len(a["start"])
    dur = a["end"] - a["start"]
    parent = a["parent"].astype(np.int64)
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    name = a["name"]
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    timed = a["op"] >= 0
    ok = a["ok"].astype(bool)

    def nid(layer: str) -> int:
        return rec.name_ids.get(layer, -2)

    def sel(layer: str) -> np.ndarray:
        return timed & (name == nid(layer))

    def calls(layer: str) -> float:
        return float(sel(layer).sum()) / passes

    def ms(layer: str, mask=None) -> float:
        m = sel(layer) if mask is None else mask
        return float(dur[m].sum()) * 1e3 / passes

    def self_ms(layer: str) -> float:
        return float(self_t[sel(layer)].sum()) * 1e3 / passes

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    def note_sum(layer: str, key: str) -> float:
        idx = np.nonzero(sel(layer))[0]
        return sum(rec.notes[i][key] for i in idx if i in rec.notes) / passes

    out: dict[str, float] = {}
    out["simplex.calls"] = calls("simplex")
    out["simplex.ms"] = ms("simplex")
    out["simplex.ms_per_call"] = frac(out["simplex.ms"], out["simplex.calls"])
    out["simplex.optimal_frac"] = frac(float((sel("simplex") & ok).sum()), float(sel("simplex").sum()))

    out["lp.build_calls"] = calls("lp.build")
    out["lp.build_ms"] = ms("lp.build")
    out["lp.solve_self_ms"] = self_ms("lp.solve")

    out["exact.allocations"] = note_sum("exact.solve", "allocations")
    out["exact.lp_solves"] = note_sum("exact.solve", "lp_solves")
    out["exact.lp_per_allocation"] = frac(out["exact.lp_solves"], out["exact.allocations"])
    out["exact.case4_calls"] = calls("exact.case4")
    out["exact.case4_ms"] = ms("exact.case4")
    out["exact.self_ms"] = self_ms("exact.solve")

    out["dp.guesses"] = note_sum("dp.solve", "guesses")
    out["dp.enumerate_calls"] = calls("dp.enumerate")
    out["dp.guess_hit_frac"] = _guess_hit_frac(
        sel("dp.solve"), sel("dp.enumerate"), sel("core.verify"), parent, a["start"], ok
    )
    out["dp.enumerate_ms"] = ms("dp.enumerate")
    out["dp.enumerate_self_ms"] = self_ms("dp.enumerate")
    out["dp.states"] = note_sum("dp.solve", "states")
    out["dp.grid_ms"] = ms("dp.grid")
    out["dp.band_ms"] = ms("dp.band")
    out["dp.candidates"] = calls("dp.reconstruct")
    out["dp.screens"] = note_sum("dp.solve", "screens")
    out["dp.scan_self_ms"] = self_ms("dp.solve")

    out["core.report_calls"] = calls("core.report")
    out["core.report_ms"] = ms("core.report")
    out["core.verify_calls"] = calls("core.verify")
    out["core.verify_ms"] = ms("core.verify")
    out["core.verify_pass_frac"] = frac(float((sel("core.verify") & ok).sum()), float(sel("core.verify").sum()))
    out["core.utility_calls"] = calls("core.utility")
    out["core.utility_ms"] = ms("core.utility")
    out["core.revenue_calls"] = calls("core.revenue")
    out["core.revenue_ms"] = ms("core.revenue")
    out["core.min_wage_calls"] = calls("core.min_wage")
    out["core.min_wage_ms"] = ms("core.min_wage")

    # serialize functions call each other; time counts only the outermost.
    out["serialize.calls"] = calls("serialize")
    out["serialize.ms"] = ms("serialize", sel("serialize") & (parent_name != nid("serialize")))
    out["ext.calls"] = calls("ext")
    out["ext.ms"] = ms("ext", sel("ext") & (parent_name != nid("ext")))
    out["cli.self_ms"] = self_ms("cli.main")
    gen = (a["op"] == -1) & (name == nid("instances"))
    out["instances.ms"] = float(dur[gen].sum()) * 1e3
    return out


def _guess_hit_frac(solve, enum, verify, parent, start, ok) -> float:
    """Share of FPTAS DP runs whose candidate scan saw a verifier pass.

    Within one solve span, each dp_enumerate child opens a guess; the
    verifier calls that follow it, up to the next dp_enumerate, belong to
    that guess.
    """
    in_solve = np.zeros(len(solve) + 1, dtype=bool)
    in_solve[:-1] = solve
    kids = np.nonzero((enum | verify) & in_solve[parent])[0]
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    runs = hits = 0
    guess_parent, guess_hit = -1, False
    for i in kids.tolist():
        if enum[i]:
            hits += guess_hit
            runs += 1
            guess_parent, guess_hit = int(parent[i]), False
        elif int(parent[i]) == guess_parent and ok[i]:
            guess_hit = True
    hits += guess_hit
    return hits / runs if runs else 0.0


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_frac") or name.endswith("_per_allocation"):
        return "ratio"
    if name.endswith("_ms") or name.endswith(".ms") or name.endswith(".ms_per_call"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"
