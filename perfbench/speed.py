"""Times corrected for the speed of a shared host.

A shared 2-vCPU host runs the same code in fast and slow periods about 1.6x
apart.  They alternate every half second or so, in a mix that drifts over
minutes, so the wall time of a CPU-bound operation says as much about the
neighbours as about the program; user+sys CPU time stretches with them just
as much.  `SpeedClock` therefore samples the host's speed while an operation
runs: every `SAMPLE_EVERY_S` of the process's CPU time a SIGPROF handler
times `calibrate`, a fixed loop of the kinds of Python code the solvers are
made of.  Each stretch of the operation, up to the next sample, is then
scaled by `REF_S` over the loop time measured at its start.  The result is the operation's time in
reference seconds: the time it would take on a host where the loop takes
`REF_S`.  The raw wall time, without the time spent sampling, is kept too.

On a 2-vCPU x86_64 host, over 35 runs each in four minutes, the raw times
of `param det hypercube -n 7`, `param det folded -n 7` and `param
transitivity hypercube -n 9` spread 37%, 22% and 25% (quartile distance over
median) and their slowest run took 2.1, 1.9 and 2.0 times their fastest;
corrected, they spread 4%, 3% and 4%, and 1.15, 1.13 and 1.11 times.
"""

from __future__ import annotations

import signal
from time import perf_counter

SAMPLE_EVERY_S = 0.015  # CPU seconds between speed samples
REF_S = 1.75e-4         # the calibration loop's time at the reference speed,
                        # about its fastest on the host described above

_KEYS = list(range(64))


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key):
        self.key = key
        self.kids = []

    def depth(self) -> int:
        return 1 + max((kid.depth() for kid in self.kids), default=0)


def calibrate() -> float:
    """Seconds one run of the fixed calibration loop takes now.

    The loop mixes what the solvers' Python code is made of (dict and set
    building, sorting, generator sums, small objects and method calls,
    string formatting, big-int arithmetic), so that it slows with the
    host as they do.  A loop of dict lookups alone missed some slow
    periods: with it, the same queries' slowest corrected run took 1.15 to
    1.27 times their fastest."""
    acc = 0
    t0 = perf_counter()
    for i in range(16):
        row = {k: (k * i) & 15 for k in range(12)}
        seen = frozenset(row.values())
        acc += len(sorted(seen, reverse=True))
        acc += sum(x & 3 for x in _KEYS[i:i + 12] if x not in seen)
        root = _Node(i)
        root.kids = [_Node(j) for j in range(3)]
        root.kids[0].kids.append(_Node(i))
        acc += root.depth()
        acc += len(f"{i}:{acc % 97}".split(":"))
        acc += (i << 40) // 7 % 5
    return perf_counter() - t0


class SpeedClock:
    """Wall time of a stretch of code, raw and in reference seconds.

    `start` takes a first sample and arms the profiling timer; `stop`
    disarms it and returns (raw seconds, reference seconds), both without
    the time spent in the samples themselves."""

    def __init__(self):
        self._marks: list[tuple[float, float, float]] = []  # (start, end, loop s)
        self.loop_s: list[float] = []   # every loop time sampled, for the context

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        loop = calibrate()
        self._marks.append((t0, perf_counter(), loop))

    def start(self) -> None:
        self._marks = []
        signal.signal(signal.SIGPROF, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> tuple[float, float]:
        signal.setitimer(signal.ITIMER_PROF, 0)
        t_end = perf_counter()
        raw = ref = 0.0
        marks = self._marks
        for (_, end, loop), (nxt, _, _) in zip(marks, marks[1:] + [(t_end, 0, 0)]):
            raw += nxt - end
            ref += (nxt - end) * REF_S / loop
        self.loop_s += [loop for _, _, loop in marks]
        return raw, ref
