"""Exact Hankel determinants of rational sequences."""
from __future__ import annotations

import math

from .poly import Rat, as_rat, bareiss_det_int


def _scaled(s, n: int):
    """The first n entries of s as integers over their least common
    denominator, and that denominator."""
    s = [as_rat(x) for x in s[:n]]
    if len(s) < n:
        raise ValueError(f"need at least {n} sequence entries, got {len(s)}")
    den = math.lcm(*[x.denominator for x in s])
    return [x.numerator * (den // x.denominator) for x in s], den


def hankel_det(s, k: int) -> Rat:
    """det(s[i+j]) for i,j = 0..k, by fraction-free elimination.

    Needs at least 2k+1 entries of the sequence.
    """
    if k < 0:
        raise ValueError("order must be nonnegative")
    ints, den = _scaled(s, 2 * k + 1)
    m = [[ints[i + j] for j in range(k + 1)] for i in range(k + 1)]
    return Rat(bareiss_det_int(m), den ** (k + 1))


def leading_minors(s, k_max: int):
    """Yield det(s[i+j]) for i,j = 0..k, for k = 0, 1, ..., k_max in turn.

    One Bareiss elimination of the order-k_max Hankel matrix without row
    swaps (Bareiss, Math. Comp. 22, 1968): over one common denominator den
    of the first 2k_max+1 terms, pivot k is the integer order-k minor, and
    the rational one is pivot k / den^(k+1).  The elimination runs one
    column per order, so a caller that stops early pays only for the
    orders it has read.  Every stage of the elimination is symmetric, so
    the entries of row r it needs are read from the stored columns.

    From the first zero pivot on, a pivot is no longer the minor of its
    order, so each remaining order comes from `hankel_det`.
    """
    if k_max < 0:
        raise ValueError("order must be nonnegative")
    h, den = _scaled(s, 2 * k_max + 1)
    cols = []  # cols[j][r]: entry (r, j) after r elimination steps, r <= j
    for k in range(k_max + 1):
        c = h[k: 2 * k + 1]
        prev = 1
        for r in range(k):
            p, cr = cols[r][r], c[r]
            for i in range(r + 1, k):
                c[i] = (c[i] * p - cols[i][r] * cr) // prev
            c[k] = (c[k] * p - cr * cr) // prev
            prev = p
        if c[k] == 0:
            for j in range(k, k_max + 1):
                yield hankel_det(s, j)
            return
        cols.append(c)
        yield Rat(c[k], den ** (k + 1))
