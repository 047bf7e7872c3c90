"""The speed of the core a run is getting, from a fixed reference kernel.

On a shared VM the CPU time of the same code swings with what other
guests do on the host: by about a quarter from one second to the next,
and by up to 1.8x over stretches of minutes, with no steal time to show
it.  Seconds measured in one run are therefore scaled to a core of fixed
speed: a reference kernel is timed while the work runs, and each item's
CPU time is multiplied by REF_NOMINAL_S / (median kernel time around it).

The kernel interrupts the work: a CPU-time interval timer (SIGPROF)
runs it once every PROBE_EVERY_S of the process's CPU time, in the
process doing the work (the benchmark process, or the CLI child), so it
samples the same core at the same moments; a CLI child also runs it once
after the call.  Its own CPU time is taken out of the item's.  An item is
scaled by the median of its own samples, widened to the items next to it
until there are at least LOCAL_SAMPLES, because the speed drifts over
seconds.

The kernel is the benchmark's own, not the library's: a sparse product
of two polynomials held as dicts from exponent tuples to Fractions, the
same mix of tuple building, dict probing and Fraction arithmetic as
``MPoly.__mul__``.  A change to the library therefore does not move it,
and it slows down on a busy host as the library does.

This module imports nothing the CLI does not import already, so a CLI
child that probes pays only for the probes.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from fractions import Fraction

# CPU seconds the kernel takes on the core the scaled times refer to.  A
# round figure near its median on an Intel Xeon vCPU at 2.1 GHz with
# Python 3.11.7 (0.036-0.047 s from run to run); it fixes the unit only.
REF_NOMINAL_S = 0.05
REF_TERMS = 85
REF_VARS = 4
# one kernel run (about 0.05 s) per this much CPU time of the work
PROBE_EVERY_S = 0.4
LOCAL_SAMPLES = 8


def _operand(state: int) -> tuple:
    """REF_TERMS terms with exponents in 0..3, from a fixed linear congruential sequence."""
    terms = {}
    while len(terms) < REF_TERMS:
        key = []
        for _ in range(REF_VARS):
            state = (state * 1103515245 + 12345) % 2**31
            key.append(state >> 29)
        state = (state * 1103515245 + 12345) % 2**31
        terms[tuple(key)] = Fraction(1 + state % 50, 1 + (state >> 8) % 9)
    return terms, state


def reference_kernel(a: dict, b: dict) -> dict:
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = tuple(x + y for x, y in zip(k1, k2))
            c = c1 * c2
            acc = out.get(key)
            out[key] = c if acc is None else acc + c
    return out


class Speed:
    """Reference-kernel samples taken during one run, and their total CPU time."""

    def __init__(self):
        self.a, state = _operand(1)
        self.b, _ = _operand(state)
        self.samples: list = []
        self.spent = 0.0

    def sample(self, *_) -> None:
        """Time the kernel once (also the SIGPROF handler)."""
        t0 = time.process_time()
        reference_kernel(self.a, self.b)
        dt = time.process_time() - t0
        self.samples.append(dt)
        self.spent += dt

    @contextmanager
    def probing(self):
        """Run the kernel every PROBE_EVERY_S of CPU time while the block runs."""
        previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def report(self) -> dict:
        return {"samples": self.samples, "spent": self.spent}

    def add(self, report: dict) -> None:
        """Take in the samples a CLI child reported."""
        self.samples += report["samples"]
        self.spent += report["spent"]

    def scale(self, lo: int = 0, hi=None) -> float:
        """Factor from CPU seconds to seconds on the nominal core, by samples[lo:hi]."""
        samples = sorted(self.samples[lo:hi])
        n = len(samples)
        median = samples[n // 2] if n % 2 else (samples[n // 2 - 1] + samples[n // 2]) / 2
        return REF_NOMINAL_S / median

    def local_scales(self, spans: list) -> list:
        """One factor per item, from the samples taken around it.

        spans[i] = (lo, hi) are the indices of item i's samples; items are
        in the order they ran.  The window grows by one item on each side
        until it holds LOCAL_SAMPLES samples or every item.
        """
        scales = []
        for i in range(len(spans)):
            first = last = i
            while spans[last][1] - spans[first][0] < LOCAL_SAMPLES and (first, last) != (0, len(spans) - 1):
                first, last = max(first - 1, 0), min(last + 1, len(spans) - 1)
            lo, hi = spans[first][0], spans[last][1]
            scales.append(self.scale(lo, hi) if hi > lo else self.scale())
        return scales
