"""A fixed calibration kernel that measures how fast the machine runs right now.

On a shared VM the speed of the same code drifts by up to 2x over tens of
seconds, as neighbours come and go, and a whole benchmark run can fall
inside one slow stretch. Every timed call is therefore bracketed by this
kernel, and its wall time is rescaled to a reference speed:

    reference_s = wall_s * CALIBRATION_REFERENCE_S / mean(kernel before, kernel after)

The kernel mixes the kinds of work the workloads do: small-int arithmetic
with dict stores, copying and sorting a 10k-entry dict, exact ``Fraction``
arithmetic, numpy sort and variance, and CSV formatting of floats. It does
not touch ``popcoin_sim``, so a change to the program cannot move it. It
must never change: that would rescale every recorded ``run_s``.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from time import perf_counter

import numpy as np

# Kernel time on a 2-vCPU Intel Xeon VM (Python 3.11.7, numpy 2.4.6) in its
# fast state; it only fixes the scale of the reported seconds.
CALIBRATION_REFERENCE_S = 0.031

_DICT = {f"p{i:08d}": i * 7919 for i in range(10000)}
_ARRAY = np.random.default_rng(1).random(10000)


def _integers() -> None:
    state, table = 0, {}
    for i in range(60000):
        state = (state * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF
        table[i & 1023] = state


def _dicts() -> None:
    for _ in range(12):
        sorted(dict(_DICT))


def _fractions() -> None:
    rate = Fraction(1, 10**8)
    for _ in range(600):
        rate = rate * Fraction(49, 50) * Fraction(101, 100)
        round(Fraction(2922) / rate)


def _arrays() -> None:
    for _ in range(60):
        np.sort(_ARRAY)
        float(np.var(_ARRAY))


def _formatting() -> None:
    writer = csv.writer(io.StringIO())
    for i in range(6000):
        writer.writerow([i, repr(i * 0.1234567), "E", repr(1.0 / (i + 1))])


def calibration_seconds() -> float:
    """Wall seconds of one pass of the kernel."""
    start = perf_counter()
    _integers()
    _dicts()
    _fractions()
    _arrays()
    _formatting()
    return perf_counter() - start


def timed_at_reference(fn):
    """Call ``fn()``; return its result, its wall seconds and the factor that
    rescales those seconds to the reference speed."""
    before = calibration_seconds()
    start = perf_counter()
    result = fn()
    wall = perf_counter() - start
    after = calibration_seconds()
    return result, wall, 2 * CALIBRATION_REFERENCE_S / (before + after)
