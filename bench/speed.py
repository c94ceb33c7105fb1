"""The machine's speed of the moment, from a fixed probe, to scale timings by.

On a shared host the CPU's speed changes: for 10-60 s at a time every
call takes up to twice as long, and a slow stretch can cover a whole run,
so neither the best nor the median of a run's repeats removes it.  A
probe is fixed work of the same kind as the timed calls that uses no
charvar code, so a change to the program cannot change it:

- ``probe``, for calls inside one process: interpreted Python around
  small complex numpy products, QR and eigen-decompositions;
- ``process_probe``, for fresh processes (set-up, CLI stages): a new
  interpreter that imports numpy.

A probe runs between the timed calls, never inside one, and a timing is
scaled by the probe's reference time over the median probe time of the
samples around it: the result reads as the time the call takes when the
probe takes its reference time.  Both the scaled and the raw figures are
kept.
"""

from __future__ import annotations

import bisect
import itertools
import statistics
import subprocess
import sys
import time

import numpy as np

EVERY_S = 0.1  # least wall time between two probe samples during a run
NEAREST = 9  # probe samples whose median gives the speed around a timing

_rng = np.random.default_rng(20260)
_MATS = [
    (_rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))) / n
    for n in (2, 3, 4, 8)
]
_W = np.exp(1j * np.arange(6))


def probe() -> float:
    """Fixed work; returns its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(4):
        for m in _MATS:
            p = m @ m.conj().T
            q, _ = np.linalg.qr(m)
            w = np.linalg.eigvals(p + q)
            acc += float(np.abs(np.trace(p))) + float(np.max(np.abs(w)))
            acc += sum(abs(complex(z)) for z in np.diagonal(q))
    for p in itertools.permutations(range(6)):
        acc += max(abs(_W[i] - _W[p[i]]) for i in range(6))
    if acc != acc:  # keeps the work from being skipped; never true
        raise ArithmeticError("probe diverged")
    return time.perf_counter() - t0


def process_probe() -> float:
    """A fresh interpreter importing numpy; returns its wall time in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


# (probe, its reference time in seconds): about the probe's median time on
# a shared 2-core Xeon VM (Python 3.11, numpy 2.4, OpenBLAS), in a calm stretch
IN_PROCESS = (probe, 0.004)
PROCESS = (process_probe, 0.15)


class Speed:
    """Probe samples over a run, and the scale factor they give at a moment."""

    def __init__(self, kind=IN_PROCESS):
        self.probe, self.ref_s = kind
        self.at = []  # mid-point of each sample, perf_counter seconds
        self.took = []  # the sample's probe time

    def sample(self, count=1):
        for _ in range(count):
            t0 = time.perf_counter()
            dt = self.probe()
            self.at.append(t0 + dt / 2)
            self.took.append(dt)

    def tick(self):
        """Take a sample if the last one is ``EVERY_S`` old."""
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def scale(self, t: float) -> float:
        """The reference time over the median of the ``NEAREST`` samples nearest ``t``."""
        i = bisect.bisect_left(self.at, t)
        lo, hi = i, i
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.at)):
            if hi >= len(self.at) or (lo > 0 and t - self.at[lo - 1] <= self.at[hi] - t):
                lo -= 1
            else:
                hi += 1
        return self.ref_s / statistics.median(self.took[lo:hi])
