"""Host speed: a frozen reference kernel, timed by helper interpreters on the run's CPU.

The benchmark shares its host with other machines' work, which slows a
pure-Python loop by up to about 1.8x, changing from one second to the next.
So the runner starts `HELPERS` helper interpreters (`HostSpeed`) before it
imports the program. Each times this fixed kernel in its own CPU time, writes
the sample with its end time, and sleeps; together they take a sample about
every `PERIOD_S` seconds. After the run, every measured interval (an
operation, a set-up) is corrected with `Timeline.correct`: the CPU time the
helpers took inside it is taken off, and the rest is rescaled by
`NOMINAL_S / mean kernel seconds` of the samples in and next to it. The
result is the host time the interval would have taken with the kernel
running at `NOMINAL_S`, so a change of load on the host mostly cancels.

The runner and the helpers are pinned to one CPU, so the samples come from
the CPU the operations run on (on the baseline host, samples from the other
vCPU tracked an operation's speed far worse), and from within every
operation, however long. A helper wakes on its own timer, whatever the
program is doing, so the time it takes lands on the program's spans in
proportion to their length.

The kernel never runs in the program's interpreter. Whatever the program does
to its own interpreter (a profile or trace hook, tracemalloc, GC settings,
more live objects for each collection to walk) slows the operation and not
the kernel, so it shows in full. Samples come from several helpers because
the kernel's speed differs by a few percent from one interpreter process to
the next (memory layout, string hashing); mixing them averages that out.

The kernel is written like the simulator's hot path (an RK4 step over tuples
with a dataclass of coefficients, `math.sin`, `abs`) but is part of the
benchmark, not the program. Never change it or `NOMINAL_S`: they define the
unit every normalized time is in.

Run as a script, this file is one helper: `python3 hostspeed.py PERIOD DELAY`
prints `ready`, waits DELAY seconds, then prints `end_time kernel_cpu_seconds`
lines, one sample every PERIOD seconds, until its standard input closes.
"""

from __future__ import annotations

import math
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# Kernel seconds on an unloaded host: about the fastest samples seen on the
# shared 2-vCPU Intel Xeon VM (Python 3.11) where the baseline was taken.
NOMINAL_S = 0.0125
STEPS = 2000
HELPERS = 4
# Mean seconds between two samples of the helpers together.
PERIOD_S = 0.25


@dataclass(frozen=True)
class _Coefficients:
    stiffness: float = 0.3
    damping: float = 0.05


def _derivs(c: _Coefficients, s, u):
    x, v, th, w = s
    return (v, u - c.stiffness * x - c.damping * v * abs(v), w, -math.sin(th) - c.damping * w)


def kernel() -> float:
    c = _Coefficients()
    s = (0.1, 0.0, 0.2, 0.0)
    dt = 1e-3
    for i in range(STEPS):
        u = 0.5 * math.sin(2.0 * math.pi * i * dt)
        k1 = _derivs(c, s, u)
        k2 = _derivs(c, tuple(a + dt / 2 * b for a, b in zip(s, k1)), u)
        k3 = _derivs(c, tuple(a + dt / 2 * b for a, b in zip(s, k2)), u)
        k4 = _derivs(c, tuple(a + dt * b for a, b in zip(s, k3)), u)
        s = tuple(a + dt / 6 * (b + 2 * p + 2 * q + r) for a, b, p, q, r in zip(s, k1, k2, k3, k4))
    return s[0]


@dataclass(frozen=True)
class Timeline:
    """The helpers' samples: (end time on `time.perf_counter`'s clock, kernel CPU seconds)."""

    samples: list[tuple[float, float]]

    def correct(self, start: float, end: float) -> tuple[float, float]:
        """Helper CPU seconds taken inside [start, end], and the factor that
        rescales the rest to the kernel's nominal speed."""
        busy = sum(max(0.0, min(end, t) - max(start, t - k)) for t, k in self.samples)
        near = [k for t, k in self.samples if start - PERIOD_S <= t <= end + PERIOD_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - (start + end) / 2))[1]]
        return busy, NOMINAL_S / statistics.fmean(near)


class HostSpeed:
    """The helper interpreters, pinned with the calling process to one CPU.

    Use as a context manager; `stop` ends the helpers and returns their
    samples, after waiting one period so that the last interval has a
    sample after it.
    """

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._procs = [  # staggered, so that the samples come one every PERIOD_S
            subprocess.Popen(
                [sys.executable, __file__, repr(HELPERS * PERIOD_S), repr(i * PERIOD_S)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for i in range(HELPERS)
        ]
        for proc in self._procs:  # started up, so that no start-up competes with what is measured
            proc.stdout.readline()
        self._timeline: Timeline | None = None

    def stop(self) -> Timeline:
        if self._timeline is None:
            time.sleep(PERIOD_S)
            samples = []
            for proc in self._procs:
                out, _ = proc.communicate(timeout=30)  # closes stdin, which ends the helper
                samples += [tuple(map(float, line.split())) for line in out.splitlines()]
            self._timeline = Timeline(sorted(samples))
        return self._timeline

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        for proc in self._procs:
            if proc.returncode is None:  # not ended by `stop`
                proc.kill()
                proc.communicate()


def _serve(period: float, delay: float) -> None:
    print("ready", flush=True)
    wait = delay
    while not select.select([sys.stdin], [], [], wait)[0]:
        wait = period
        start = time.thread_time()
        kernel()
        print(time.perf_counter(), time.thread_time() - start, flush=True)


if __name__ == "__main__":
    _serve(float(sys.argv[1]), float(sys.argv[2]))
