"""Positive-definiteness verdicts via exact Hankel minors.

A strictly negative minor is a permanent certificate that the sequence is
not a moment sequence; a run of nonnegative minors is only ever reported
as "positive so far".  Zero minors do not stop the scan (finitely atomic
measures produce them legitimately).

All minors of one scan come from one fraction-free elimination of the
largest Hankel matrix (`exactalg.hankel.leading_minors`), read order by
order.  From the first zero minor on, each order is a determinant of its
own.
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

    def describe(self) -> str:
        if self.is_negative:
            return (f"negative_at(order={self.order}, det={self.determinant}) "
                    f"— certified not a moment sequence")
        return f"positive_so_far(order<= {self.order}) — inconclusive"


def hankel_verdict(s, k_max: int) -> HankelVerdict:
    """Scan minors det(s[i+j]), order 0..k_max, stopping at the first < 0.

    The minors are the pivots of one Bareiss elimination of the order-k_max
    matrix, computed one order at a time, so a negative minor stops the
    elimination too.  A zero pivot ends that correspondence: from the first
    zero minor on, every order is a separate `hankel_det`.
    """
    terms = s.terms if isinstance(s, SeriesPrefix) else tuple(s)
    minors = []
    for k, d in enumerate(leading_minors(terms, k_max)):
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
    divisibility; a negative minor certifies non-FID.
    """
    _check_order(k_max)
    r = cumulants(f, 2 * k_max + 2)
    shifted = r.terms[2:]
    return hankel_verdict(shifted, k_max)


def _check_order(k_max: int):
    if k_max < 0:
        raise ValueError(f"Hankel order must be >= 0, got {k_max}")
