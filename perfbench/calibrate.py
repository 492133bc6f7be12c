"""The machine's speed, measured by a fixed reference kernel timed all
through a pass, and the scale that puts every timing on one speed.

On a shared VM the same call runs up to 2x slower in phases that last from
under a second to minutes, and a run can fall wholly inside one.  A
pure-Python kernel owned by the benchmark slows down with the package in
those phases.  So the kernel is timed right after every timed operation,
and every `EVERY_S` seconds from a timer signal, also in the middle of a
long operation.  Every timing of the pass is read from `Meter.clock`, which
stops while the kernel runs, and is then multiplied, piece by piece between
kernel timings, by `UNIT_S` over the mean of the two kernel timings around
the piece.  The start-up is multiplied by `UNIT_S` over the mean of the
kernel timings made right after it.  A timing then reads as the seconds it
would take on a machine where one kernel unit takes `UNIT_S`; the raw
figures are printed beside them.

The kernel is exact sparse integer elimination over a fixed pseudo-random
matrix, the kind of dict-of-dicts and integer work the package does.  It is
the benchmark's own code, so a change to `beireg` does not change it.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import time
from math import gcd

# nominal seconds of one kernel unit: its fast-phase time on a 2-vCPU VM
UNIT_S = 0.005
# kernel units a process times as soon as the package is imported
MIN_UNITS = 8
# seconds between the timer's kernel timings
EVERY_S = 0.25

_MATRIX = None


def _matrix():
    global _MATRIX
    if _MATRIX is None:
        rng = random.Random(20260206)
        _MATRIX = [{r: rng.choice((-2, -1, 1, 1, 2, 3))
                    for r in rng.sample(range(60), 4)}
                   for _ in range(70)]
    return _MATRIX


def rank(columns):
    """Rank over the rationals of an integer matrix given as sparse columns
    (dicts row -> value), by fraction-free elimination."""
    rows: dict[int, dict[int, int]] = {}
    for ci, col in enumerate(columns):
        for r, v in col.items():
            rows.setdefault(r, {})[ci] = v
    out = 0
    while rows:
        pr, prow = min(rows.items(), key=lambda kv: (len(kv[1]), kv[0]))
        pc, pv = min(prow.items(), key=lambda kv: (abs(kv[1]), kv[0]))
        del rows[pr]
        out += 1
        for r in [r for r, row in rows.items() if pc in row]:
            row = rows[r]
            f = row[pc]
            new = {}
            for c in set(row) | set(prow):
                v = pv * row.get(c, 0) - f * prow.get(c, 0)
                if v:
                    new[c] = v
            if new:
                g = 0
                for v in new.values():
                    g = gcd(g, v)
                rows[r] = {c: v // g for c, v in new.items()}
            else:
                del rows[r]
    return out


def unit():
    """Seconds one kernel unit takes now.  The garbage collector is off
    meanwhile, so the time does not grow with the package's heap; the
    kernel makes no reference cycles."""
    matrix = _matrix()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        rank(matrix)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Kernel timings spread over one process's work: `MIN_UNITS` when it
    is made, then one per `tick()`, called after every timed operation, and
    one every EVERY_S between `sample()` and `stop()`."""

    def __init__(self):
        unit()  # warm-up: builds the matrix and specialises the bytecode
        self.stamps = []
        self.units = []
        self.handled = 0.0  # seconds spent in the kernel so far
        self.busy = False
        for _ in range(MIN_UNITS):
            self.tick()

    def clock(self):
        """`time.perf_counter()` less the time spent in the kernel."""
        while True:
            handled = self.handled
            now = time.perf_counter()
            if handled == self.handled:  # no kernel timing ran in between
                return now - handled

    def tick(self):
        """Time one kernel unit, stamped with the clock."""
        if self.busy:
            return
        self.busy = True
        t0 = time.perf_counter()
        self.stamps.append(t0 - self.handled)
        self.units.append(unit())
        self.handled += time.perf_counter() - t0
        self.busy = False

    def sample(self):
        """Also time a unit every EVERY_S, from a timer signal."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.tick())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def start_scale(self):
        """The scale of the process's start, from the units timed when the
        meter was made."""
        return UNIT_S * MIN_UNITS / sum(self.units[:MIN_UNITS])

    def scaled(self, t0, t1):
        """The clock's timing from t0 to t1 on the nominal speed: each piece
        between kernel timings is multiplied by UNIT_S over the mean of the
        two timings around it."""
        lo = bisect.bisect_right(self.stamps, t0)
        hi = bisect.bisect_left(self.stamps, t1)
        cuts = [t0] + self.stamps[lo:hi] + [t1]
        total = 0.0
        for n, (a, b) in enumerate(zip(cuts, cuts[1:])):
            near = self.units[max(0, lo + n - 1):lo + n + 1]
            total += (b - a) * UNIT_S * len(near) / sum(near)
        return total
