"""Host-speed adjustment: a fixed reference loop timed all through a run.

The benchmark runs on a few cores of a shared host whose CPU throughput
drifts by ±25 % and more, over seconds and over minutes, with no steal time
to show for it: a pure-Python loop's CPU time tracks its wall time.  Medians
over a run cannot take out drift that lasts as long as the run, so each job's
time is adjusted by the host's speed around it:

    adjusted = (wall - reference-loop time inside the job) * REFERENCE_S / local

``local`` is the median time of the reference loop over the samples that
start within WINDOW_S of the job.  A SIGALRM timer runs the loop every TICK_S
in the benchmark's one thread, also in the middle of a long job, whose wall
time then has the loop's time taken out again.

The loop is the kind of work wpimod's jobs do (Fraction arithmetic, hashing
tuples and small objects into dicts, integer arithmetic, reading a JSON file)
and calls no wpimod code.  A change to wpimod therefore moves adjusted times
exactly as it moves raw ones; only the host's drift cancels.  REFERENCE_S is
about the loop's time, sampled between jobs, on the 2-vCPU host where the
baseline was recorded, so adjusted times are close to that host's usual
milliseconds.

Set-up time is mostly process start and imports, which the loop does not
track.  A set-up probe is adjusted instead by the start time of a bare
interpreter that imports a few standard modules (INTERPRETER_PROBE), timed
just before and just after the probe: adjusted = probe * INTERPRETER_START_S
/ mean(bare).  On that host the ratio of the two spread a third as much as
the probe time alone.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import statistics
import time
from fractions import Fraction

TICK_S = 0.025
WINDOW_S = 0.1
REFERENCE_S = 0.0012
INTERPRETER_PROBE = "import argparse, fractions, json; print('ready', flush=True)"
INTERPRETER_START_S = 0.050


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __hash__(self):
        return hash((self.a, self.b))

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b


def reference_loop(path: str):
    """Fixed work of the kinds wpimod spends its time in; no wpimod code."""
    acc = Fraction(0)
    counts: dict = {}
    for i in range(1, 60):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        key = (i % 13, i % 11, i)
        counts[key] = counts.get(key, 0) + i * i % 97
    total = sum(hash(k) & 255 for k in sorted(counts))
    seen: dict = {}
    frontier = [_Cell(0, 0)]
    for _ in range(5):
        grown = []
        for cell in frontier:
            for da, db in ((1, 0), (0, 1), (-1, 2)):
                nxt = _Cell(cell.a + da, (cell.b + db) % 9)
                if nxt not in seen:
                    seen[nxt] = Fraction(nxt.a + 1, nxt.b + 2)
                    grown.append(nxt)
        frontier = grown[:8]
        acc += sum(seen[c] for c in frontier)
    for i in range(3500):
        total += i * i % 7
    for _ in range(2):
        with open(path, encoding="utf-8") as fh:
            total += len(json.dumps(json.load(fh), sort_keys=True))
    return acc, total


class HostSpeed:
    """Reference-loop samples: every TICK_S while active as a context manager,
    and one at each sample() call."""

    def __init__(self, workdir: str):
        self.path = os.path.join(workdir, "reference-loop.json")
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump({"v": 1, "edges": [
                {"greater": {"k": k, "i": 1, "j": 2}, "lesser": {"k": k, "i": 2, "j": 1},
                 "strict": k % 2 == 1} for k in range(12)]}, fh)
        for _ in range(20):
            reference_loop(self.path)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def sample(self):
        """Time the reference loop once, now."""
        t0 = time.perf_counter()
        reference_loop(self.path)
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def _tick(self, signum, frame):
        self.sample()

    def __enter__(self):
        self.sample()  # so that every job has a sample to go by
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def loop_times(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def adjust(self, start: float, seconds: float) -> tuple[float, float]:
        """(raw, adjusted) seconds of a job timed from `start` for `seconds` of wall time.

        raw is the wall time less the reference loop's samples inside the job.
        """
        end = start + seconds
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        raw = seconds - sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_left(self.starts, end + WINDOW_S)
        if lo == hi:  # no sample near the job: go by all of them
            lo, hi = 0, len(self.starts)
        local = statistics.median(self.ends[i] - self.starts[i] for i in range(lo, hi))
        return raw, raw * REFERENCE_S / local
