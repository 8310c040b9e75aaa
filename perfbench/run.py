"""faircon benchmark: seeded workloads of `faircon` CLI calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # each workload in its own process

Run from the root of a source checkout; the package is imported from its
`src/`.  One workload runs in this process, single-threaded, as a closed
loop with one client: each operation is one `faircon.cli.main(argv)` call,
sent when the previous one has returned.

  1. Set-up, seven times: import `faircon.cli` in a fresh interpreter,
     generate the instance files through `faircon generate`, write the
     contracts the verify operations read, run one warm-up operation.
     `setup_s` is the median.
  2. One warm-up pass, then passes over the workload's operation list
     until `--seconds` have passed, and at least MIN_PASSES of them.  After each pass, and
     outside its timing, every output goes through the correctness gate
     (gate.py).
  3. Between operations, outside their timing, a host-speed probe
     (calib.py) runs about every tenth of a second.  Each operation's and
     each set-up's time is divided by the slowdown the probe measured
     around it, so it reads as seconds on a core running at the probe's
     reference speed.  The raw figures go to the result file.
     `op_s.p50` and `op_s.tail` take each operation at its median over
     the passes.
  4. With `--trace 1`, untraced and traced passes alternate (tracing.py);
     the per-layer figures are per traced pass, and `trace.overhead_s` is
     traced minus untraced `wall_s`.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  The lines before it name every metric with its unit, the
tail percentile and its sample count, and the environment; the same record
goes to `.perfbench/result-<workload>-<seed>-<trace>.json`.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, fixed before numpy is first imported, so only the
# program's own thread is measured.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FAIRCON_LOG", None)
# One string-hash seed for every run, so dict and set layouts, and their
# cost, do not change from run to run.  The process re-executes itself
# once to apply it; exec replaces it, so no child process is left.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_ROUNDS = 7
MIN_PASSES = 7  # untraced passes per run, even when --seconds runs out first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import faircon.cli; "
    "print(time.perf_counter() - t)"
)

import calib  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {"wall_s": "s", "op_s.p50": "s", "op_s.tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="faircon benchmark")
    p.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def percentiles(op_medians: list[float], passes: int) -> tuple[float, float, float]:
    """(tail percentile, p50, tail) of the run's operation latencies, each
    operation counted once per pass at its median over the passes.

    Taking each operation at its median keeps one pass's spell of noise
    from shifting a percentile that falls between two operations of
    similar latency.  The tail is the highest ladder percentile with at
    least ten samples beyond it in MIN_PASSES passes.  The level depends on
    the operation list only, not on how many passes the machine's speed
    allowed; every run has at least MIN_PASSES passes, so at least ten
    samples always lie beyond it.
    """
    import numpy as np

    n = MIN_PASSES * len(op_medians)
    pct = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10), 50.0)
    samples = np.repeat(op_medians, passes)
    return pct, float(np.percentile(samples, 50)), float(np.percentile(samples, pct))


def import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def set_up(wl, work: str) -> float:
    """One full set-up in `work`; returns its seconds."""
    t_import = import_seconds()
    out = os.path.join(work, "out")
    os.makedirs(out, exist_ok=True)
    t0 = time.perf_counter()
    workloads.generate(wl, work)
    workloads.write_contracts(wl, work)
    code, err = workloads.call_cli(wl.warmup.argv(work, os.path.join(out, "warmup.json")))
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"warm-up {wl.warmup.id} exited {code} {err}")
    return t_import + elapsed


class Runner:
    """Timed passes over one workload plus the gate on their outputs."""

    def __init__(self, wl, work: str, pins: dict | None, probe):
        from faircon import serialize

        self.wl = wl
        self.work = work
        self.pins = pins
        self.probe = probe
        self.insts = {
            stem: serialize.instance_from_dict(serialize.load_json(os.path.join(work, stem + ".json")))
            for stem in wl.instances
        }
        self.outs = [os.path.join(work, "out", f"{k}.json") for k in range(len(wl.ops))]
        self.argvs = [op.argv(work, out) for op, out in zip(wl.ops, self.outs)]
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, rec=None) -> tuple[float, list[float], float]:
        """Returns (pass wall seconds, per-op seconds, raw pass wall
        seconds), all without the probe's time.  Each operation's time is
        divided by the slowdown the probe measured around it, and the pass
        wall by the slowdown of the whole pass."""
        latencies = []
        codes = []
        marks = []  # probe samples taken before each operation
        probe, window = self.probe, calib.WINDOW
        for _ in range(window):
            probe.sample()
        probing = 0.0
        with workloads.quiet():
            t_pass = time.perf_counter()
            for k, argv in enumerate(self.argvs):
                probing += probe.maybe()
                marks.append(len(probe.py))
                t0 = time.perf_counter()
                if rec is None:
                    result = workloads.call_cli(argv)
                else:
                    with rec.span("cli.main", k):
                        result = workloads.call_cli(argv)
                latencies.append(time.perf_counter() - t0)
                codes.append(result)
            wall = time.perf_counter() - t_pass - probing
        for _ in range(window):
            probe.sample()
        share = self.wl.numpy_share
        scaled = [t / probe.slowdown(share, m - window, m + window) for t, m in zip(latencies, marks)]
        self.check(codes)
        return wall * sum(scaled) / sum(latencies), scaled, wall

    def check(self, codes) -> None:
        for op, out, (code, err) in zip(self.wl.ops, self.outs, codes):
            self.attempted += 1
            pinned = None
            if self.pins is not None:
                # A pinned seed pins every operation; a missing entry fails.
                pinned = self.pins.get(op.id, "missing pin")
            reason, _ = gate.check(op, code, out, self.insts[op.instance], self.work, pinned)
            if reason is not None:
                self.failures.append(f"{op.id}: {reason} {err}".strip())


def environment() -> dict:
    import numpy

    import faircon

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "faircon": faircon.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": commit(),
        "src_sha256": source_digest(),
    }


def source_digest() -> str:
    """Digest of the package sources; names the code where git cannot."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "faircon")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_pins(name: str, seed: int) -> dict | None:
    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)
    return pins.get(str(seed), {}).get(name)


def run_workload(args) -> int:
    import faircon
    import tracing

    if not os.path.abspath(faircon.__file__).startswith(SRC + os.sep):
        print(f"faircon imported from {faircon.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        problems = gate.self_test(work)
        if problems:
            for p in problems:
                print(f"gate self-test: {p}", file=sys.stderr)
            return 1
        wl = workloads.build(args.workload, args.seed)
        probe = calib.Probe()
        setups, raw_setups = [], []
        with workloads.quiet():
            for _ in range(SETUP_ROUNDS):
                first_sample = len(probe.py)
                for _ in range(calib.WINDOW):
                    probe.sample()
                raw_setups.append(set_up(wl, work))
                for _ in range(calib.WINDOW):
                    probe.sample()
                setups.append(raw_setups[-1] / probe.slowdown(wl.numpy_share, first_sample))
        runner = Runner(wl, work, load_pins(wl.name, args.seed), probe)

        # With tracing, untraced and traced passes alternate, so a slow
        # spell of the machine falls on both sides of the overhead.
        walls, latencies, traced_walls, raw_walls = [], [], [], []
        rec = tracing.Recorder()
        runner.one_pass()  # warm-up: the first pass runs every code path cold
        t_start = time.perf_counter()
        while len(walls) < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
            if args.trace and len(walls) > len(traced_walls):
                with tracing.tracing(rec):
                    traced_walls.append(runner.one_pass(rec)[0])
            else:
                wall, lat, raw_wall = runner.one_pass()
                walls.append(wall)
                latencies += lat
                raw_walls.append(raw_wall)
        layers = {}
        if args.trace:
            with tracing.tracing(rec), workloads.quiet():
                workloads.generate(wl, work)
            layers = tracing.layer_metrics(rec, len(traced_walls))
            layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
            rec.save(os.path.join(OUT, f"trace-{wl.name}.npz"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n = len(wl.ops)
    op_medians = [statistics.median(latencies[k::n]) for k in range(n)]
    pct, p50, tail_value = percentiles(op_medians, len(walls))
    e2e = {
        "wall_s": statistics.median(walls),
        "op_s.p50": p50,
        "op_s.tail": tail_value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    slowdown = probe.slowdown(wl.numpy_share)
    failed = len(runner.failures)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_walls_s": walls,
        "traced_pass_walls_s": traced_walls,
        "ops_per_pass": len(wl.ops),
        "op_samples": len(latencies),
        "raw_pass_walls_s": raw_walls,
        "raw_setups_s": raw_setups,
        "probe": {
            "slowdown": slowdown,
            "samples": len(probe.py),
            "py_median_s": statistics.median(probe.py),
            "np_median_s": statistics.median(probe.np),
            "numpy_share": wl.numpy_share,
        },
        "tail_percentile": pct,
        "failed_frac": failed / runner.attempted,
        "pinned": runner.pins is not None,
        "environment": environment(),
        "end_to_end": e2e,
        "per_layer": layers,
        "op_median_s": {op.id: m for op, m in zip(wl.ops, op_medians)},
        "failures": runner.failures[:20],
        "latencies_s": latencies,
    }
    with open(os.path.join(OUT, f"result-{wl.name}-{args.seed}-{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    env = record["environment"]
    print(
        f"# {wl.name} seed={args.seed} passes={len(walls)}+{len(traced_walls)} traced "
        f"ops/pass={len(wl.ops)} pinned={record['pinned']} python={env['python']} "
        f"numpy={env['numpy']} nproc={env['nproc']} cpu={env['cpu']!r} commit={env['commit']}"
    )
    for name, value in e2e.items():
        print(f"# {name} = {value:.6g} {E2E_UNITS[name]}")
    print(f"# op_s.tail is p{pct:g} over {len(latencies)} operations")
    print(
        f"# times are divided by the host slowdown around them, {slowdown:.4g} over the run "
        f"({len(probe.py)} probe samples); raw wall_s = {statistics.median(raw_walls):.6g} s"
    )
    print(f"# failed_frac = {record['failed_frac']:.6g} ({failed} of {runner.attempted})")
    for line in runner.failures[:20]:
        print(f"# FAILED {line}")
    if args.trace:
        metrics = {name: {"value": value, "unit": tracing.unit(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    status = 0
    for name in workloads.NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, timeout=900,
        )
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "faircon", "cli.py")):
        print(f"no faircon sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
