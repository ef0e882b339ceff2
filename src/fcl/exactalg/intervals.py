"""Rational interval arithmetic: `Iv` and `iv_poly_eval`.

No fcl module uses it any more: `AlgebraicReal.sign_of` takes its signs
from an exact mean value bound instead of interval enclosures.  It is kept
only because the benchmark's tracer (`perfbench/fclbench/tracing.py`)
imports it to meter `iv_poly_eval`; it goes once the tracer drops that
target.
Endpoints are exact Fractions, so enclosures never suffer rounding.
"""
from __future__ import annotations

from .poly import as_rat


class Iv:
    """Closed interval [lo, hi] with rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = as_rat(lo)
        hi = lo if hi is None else as_rat(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        self.lo, self.hi = lo, hi

    def sign(self):
        """1, -1, 0 (exact point zero) or None when the sign is undetermined."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None

    def __add__(self, other) -> "Iv":
        other = _coerce(other)
        return Iv(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other) -> "Iv":
        other = _coerce(other)
        vals = [self.lo * other.lo, self.lo * other.hi,
                self.hi * other.lo, self.hi * other.hi]
        return Iv(min(vals), max(vals))

    def __repr__(self):
        return f"Iv({self.lo}, {self.hi})"


def _coerce(x) -> Iv:
    if isinstance(x, Iv):
        return x
    return Iv(as_rat(x))


def iv_poly_eval(coeffs, x: Iv) -> Iv:
    """Horner evaluation of a polynomial with Iv (or rational) coefficients."""
    acc = Iv(0)
    for c in reversed(list(coeffs)):
        acc = acc * x + _coerce(c)
    return acc
