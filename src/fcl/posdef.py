"""Positive-definiteness verdicts via exact Hankel minors.

A strictly negative minor is a permanent certificate that the sequence is
not a moment sequence; a run of nonnegative minors is only ever reported
as "positive so far".  Zero minors do not stop the scan (finitely atomic
measures produce them legitimately).

All minors of one scan come from the fraction-free Chebyshev recurrence
(`exactalg.hankel.leading_minors`), read order by order, on integers: the
c-dilated ones that `moments` and `cumulants` store on their prefix, or
else the terms over their common denominator.  From the first zero minor
on, each order is a determinant of its own.
"""
from __future__ import annotations

from dataclasses import dataclass

from .classf import ClassF, SeriesPrefix, cumulants, moments
from .exactalg import Rat, leading_minors


@dataclass(frozen=True)
class HankelVerdict:
    status: str            # 'positive_so_far' | 'negative_at'
    order: int             # max order checked, or the offending order
    determinant: Rat       # the offending minor (negative_at only)
    minors: tuple          # all minors computed, orders 0..

    @property
    def is_negative(self) -> bool:
        return self.status == "negative_at"

    def describe(self, what: str = "a moment sequence") -> str:
        """The verdict in words; `what` names what a negative minor rules out."""
        if self.is_negative:
            return (f"negative_at(order={self.order}, det={self.determinant}) "
                    f"— certified not {what}")
        return f"positive_so_far(order<= {self.order}) — inconclusive"


def hankel_verdict(s, k_max: int) -> HankelVerdict:
    """Scan minors det(s[i+j]), order 0..k_max, stopping at the first < 0.

    The minors come one order at a time from the Chebyshev recurrence on
    `s.as_dilated_ints()` (for a plain sequence, its first 2k_max+1 terms
    over their common denominator), so a negative minor stops the work too.
    The recurrence divides by the minors: from the first zero minor on,
    every order is a separate `hankel_det`.
    """
    _check_order(k_max)
    if not isinstance(s, SeriesPrefix):
        s = SeriesPrefix(tuple(s)[: 2 * k_max + 1])
    a, c, e = s.as_dilated_ints()
    minors = []
    for k, d in enumerate(leading_minors(a, k_max, c, e)):
        minors.append(d)
        if d < 0:
            return HankelVerdict("negative_at", k, d, tuple(minors))
    return HankelVerdict("positive_so_far", k_max, Rat(0), tuple(minors))


def is_moment_positive_up_to(f: ClassF, k_max: int) -> HankelVerdict:
    """Finite-order positive definiteness of the moment sequence of F."""
    _check_order(k_max)
    return hankel_verdict(moments(f, 2 * k_max), k_max)


def fid_check(f: ClassF, k_max: int) -> HankelVerdict:
    """Hankel scan of the shifted cumulants (r_2, r_3, ...).

    Positive definiteness of this sequence characterizes free infinite
    divisibility; a negative minor certifies non-FID.  The shifted prefix
    keeps the dilated cumulants c^n r_n of `cumulants` (`SeriesPrefix.tail`).
    """
    _check_order(k_max)
    return hankel_verdict(cumulants(f, 2 * k_max + 2).tail(2), k_max)


def _check_order(k_max: int):
    if k_max < 0:
        raise ValueError(f"Hankel order must be >= 0, got {k_max}")
