"""A fixed reference kernel that calibrates op times to the host's speed.

On a shared host the same op can run 1.3 to 2 times slower for minutes at a
time while other tenants load the cores.  A median over one run moves with
that load, so two sets of runs of the same code disagree.  The benchmark
therefore times this kernel right before and right after every op, in the
same process, and scales the op's wall time by

    NOMINAL_S / (mean of the kernel seconds before and after the op)

which gives the op's time at the host speed at which the kernel takes
NOMINAL_S.  The kernel is the benchmark's own code and never changes, so a
change to the program moves the calibrated time exactly as it moves the wall
time.

The kernel mixes the kinds of work the package does: exact rational
arithmetic (the certification layers), scalar float polynomial evaluation in
plain Python (the flow right-hand sides) and small numpy array operations
(the direct solver and the checks).  Timed against each part alone, the
flow-heavy `evolve` ops slowed with the host less than the exact part and
the array part did; the scalar part tracked them best, so it has the largest
share.  The tracking is not exact: the host's speed also changes within an
op, between the two kernel timings, so single calibrated samples still
scatter and only their medians over a run are steady.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# Median-of-REPEATS seconds of the kernel on the reference host (2-vCPU
# x86_64 VM, Python 3.11, numpy 2.4) in a quiet phase.  Any constant would
# do; this one keeps calibrated seconds close to quiet-host wall seconds.
NOMINAL_S = 0.0025
# The median, not the best, of a few runs: an op's time reflects the host's
# typical speed while it runs, not its fastest moment.
REPEATS = 5

_TERMS = [(0.5, ((0, 1), (1, 2))), (-1.25, ((1, 1), (2, 1))),
          (1.0 / 6.0, ((0, 3),)), (0.75, ((2, 2), (3, 1)))]


def _exact() -> float:
    x = Fraction(1, 3)
    for i in range(1, 120):
        x = x * Fraction(i + 1, i) + Fraction(1, i * i + 1)
        x = Fraction(x.numerator % 10**9 + 1, x.denominator % 10**9 + 1)
    return float(x)


def _scalar() -> float:
    state = [0.1, -0.2, 0.3, 0.7]
    total = 0.0
    for _ in range(900):
        for coeff, powers in _TERMS:
            v = coeff
            for i, e in powers:
                v *= state[i] ** e if e > 2 else \
                    (state[i] * state[i] if e == 2 else state[i])
            total += v
        state[0] = state[0] * 0.999 + 1e-4
    return total


def _array() -> float:
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(150):
        a = np.sin(a) * 1.0001 + 0.25
    return float(a[0])


PARTS = (_exact, _scalar, _array)


def _kernel() -> float:
    return sum(part() for part in PARTS)


def kernel_seconds() -> float:
    """Median of REPEATS timed kernel runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def calibrated(seconds: float, kernel_s: float) -> float:
    """``seconds`` of wall time at the speed where the kernel takes
    NOMINAL_S."""
    return seconds * NOMINAL_S / kernel_s
