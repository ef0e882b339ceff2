"""Machine-speed calibration for timings on shared, drifting machines.

Where this benchmark was built, the same computation ran up to 1.9 times
slower for tens of seconds at a time because of other tenants of the
host; no setting of the run can prevent that.  Every timed call is
therefore bracketed by a short calibration kernel and each latency is
reported at reference speed:

    latency = measured seconds * REF_SECONDS / local calibration seconds

The kernel is stdlib Fraction arithmetic of the kind fcl does (a product
of two polynomials with 40- to 70-bit rational coefficients and a few
division steps); it shares no code with fcl, so a change to fcl moves the
measured seconds and not the calibration.  The local calibration is the
median of the calibrations taken around the call.  Raw seconds are kept
next to the normalized ones in the run's details file.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

# One calibration (best of CAL_REPEATS kernel runs) on an undisturbed
# 2-vCPU x86-64 VM under CPython 3.11; a constant, so that normalized
# seconds read close to raw seconds on such a machine.
REF_SECONDS = 0.0012
CAL_REPEATS = 3
# Calibrations on each side of a call that make up its local speed.
WINDOW = 3

_rng = random.Random(20261017)
_A = tuple(Fraction(_rng.randint(-10**12, 10**12), _rng.randint(1, 10**9)) for _ in range(16))
_B = _A[::-1]


def _kernel() -> None:
    prod = [Fraction(0)] * (len(_A) + len(_B) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            prod[i + j] += x * y
    r0, r1 = list(_A), list(_B[:-3])
    for _ in range(3):
        q = r0[-1] / r1[-1]
        shift = len(r0) - len(r1)
        rem = r0[:shift] + [u - q * v for u, v in zip(r0[shift:], r1)]
        r0, r1 = r1, rem[:-1]


def calibrate() -> float:
    """Seconds of one calibration: the best of CAL_REPEATS kernel runs."""
    best = None
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    return best


def normalize_all(seconds, cals):
    """Normalize call i, taken between cals[i] and cals[i + 1]."""
    out = []
    for i, dt in enumerate(seconds):
        window = sorted(cals[max(0, i + 1 - WINDOW): i + 1 + WINDOW])
        out.append(dt * REF_SECONDS / window[(len(window) - 1) // 2])
    return out
