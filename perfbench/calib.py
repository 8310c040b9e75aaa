"""Host-speed probe: fixed work timed between a run's operations.

The 2-vCPU host this benchmark was built on shares its cores with other
tenants.  For seconds to minutes at a time the same code runs up to 1.8
times slower, in CPU time as well as in wall time, with no steal time to
show for it, and the share of such spells changes from minute to minute.
Ten runs of the same code then spread by 20-60%, more than any bound worth
having.

The probe does a fixed amount of the two kinds of work the program does:
Fraction and dict arithmetic in the interpreter (the exact solvers, option
generation), and a numpy sort-and-dedupe over an array (the DP
transitions).  It runs between operations, outside their timing, about
every PROBE_EVERY_S seconds, and WINDOW times at the start and end of each
pass.  Its median times over the WINDOW samples before an operation and
the WINDOW after it, against the reference times below, give that
operation's slowdown; the benchmark divides the operation's time by it, so
it reads as seconds on a core running at the reference speed.  The window
spans well under a second, shorter than most slow or fast spells, so the
probe and the operation it scales see the same spell.  The program never
touches the probe's code, so the same probe on the same host scales two
commits alike.

    python3 perfbench/calib.py [seconds]   # probe medians and minima here
"""

from __future__ import annotations

import statistics
import sys
import time
from fractions import Fraction

# Probe times on an unshared core of the 2 GHz Xeon the benchmark was tuned
# on: the minima that `python3 perfbench/calib.py 20` prints there.
REFERENCE_PY_S = 0.0029
REFERENCE_NP_S = 0.0038
PROBE_EVERY_S = 0.1
WINDOW = 3
NP_SIZE = 25_000


def _py_work() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 89 + 1, i % 97 + 2) * Fraction(3, 7)
    seen: dict[tuple[int, int], int] = {}
    for i in range(4000):
        key = (i % 331, i % 17)
        seen[key] = seen.get(key, 0) + 1
    return acc


class Probe:
    """Probe samples over one run."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._array = np.random.default_rng(0).integers(0, 1 << 40, NP_SIZE)
        self.py: list[float] = []
        self.np: list[float] = []
        self._last = float("-inf")

    def sample(self) -> float:
        """Take one sample; returns the seconds it took."""
        t0 = time.perf_counter()
        _py_work()
        t1 = time.perf_counter()
        self._np.unique(self._array)
        t2 = time.perf_counter()
        self.py.append(t1 - t0)
        self.np.append(t2 - t1)
        self._last = t2
        return t2 - t0

    def maybe(self) -> float:
        """Sample if PROBE_EVERY_S has passed since the last one; returns
        the seconds spent."""
        if time.perf_counter() - self._last < PROBE_EVERY_S:
            return 0.0
        return self.sample()

    def slowdown(self, numpy_share: float, start: int = 0, stop: int | None = None) -> float:
        """The slowdown against the reference speed over samples
        [start, stop): the two probe parts' median slowdowns, weighted by
        the share of the workload's time that numpy-bound work takes."""
        py = statistics.median(self.py[start:stop]) / REFERENCE_PY_S
        np_ = statistics.median(self.np[start:stop]) / REFERENCE_NP_S
        return (1.0 - numpy_share) * py + numpy_share * np_


def main(argv: list[str]) -> int:
    seconds = float(argv[0]) if argv else 10.0
    probe = Probe()
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        probe.sample()
    for name, xs in (("py", probe.py), ("np", probe.np)):
        print(f"{name}: {len(xs)} samples, median {statistics.median(xs):.5f} s, min {min(xs):.5f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
