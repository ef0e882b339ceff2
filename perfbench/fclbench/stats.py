"""Summary statistics and input-size measures used by every workload."""
from __future__ import annotations

import math
from fractions import Fraction

# Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def median(xs):
    s = sorted(xs)
    n = len(s)
    if n == 0:
        raise ValueError("median of no samples")
    m = n // 2
    return s[m] if n % 2 else (s[m - 1] + s[m]) / 2


def nearest_rank(p: float, n: int) -> int:
    """1-based nearest-rank index of percentile p among n samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def tail_percentile(n: int):
    """Highest ladder percentile with at least ten of n samples beyond it.

    None when n is too small for even the median to have ten beyond.
    """
    for p in TAIL_LADDER:
        if n - nearest_rank(p, n) >= TAIL_BEYOND:
            return p
    return None


def tail(xs, pool_size: int):
    """(value, percentile) of the tail latency.

    The percentile is fixed by the number of calls in one pass over the
    pool, so it does not depend on how many passes fit in a run; the value
    is taken over all samples.  With too few calls the maximum is reported
    under percentile 100.
    """
    p = tail_percentile(pool_size)
    s = sorted(xs)
    if p is None:
        return s[-1], 100.0
    return s[nearest_rank(p, len(s)) - 1], p


def rat_bits(x) -> int:
    """Bit length of a rational: the larger of numerator and denominator."""
    x = Fraction(x)
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def max_bits(values) -> int:
    return max((rat_bits(v) for v in values), default=0)
