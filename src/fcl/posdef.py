"""Positive-definiteness verdicts via exact Hankel minors.

A strictly negative minor is a permanent certificate that the sequence is
not a moment sequence; a run of nonnegative minors is only ever reported
as "positive so far".  Zero minors do not stop the scan (finitely atomic
measures produce them legitimately).

The minors of one scan come from `exactalg.hankel.leading_minors`, read
order by order, on integers: the two checks on F read the ints of
`dilated_moments` and `dilated_cumulants`, dilated by a c with
den_i | c^i (den_i the lcm of the denominators of F's w^i coefficients;
see `classf._dilation`), and `hankel_verdict` writes any sequence over
its common denominator.  Either form scales the order-k minor by a
positive factor (e^(k+1) c^(k(k+1)) for a_n = e c^n s_n), so the verdict
does not depend on it.  They come from the fraction-free Chebyshev
recurrence up to its first zero minor H_k.  If the residuals it holds
there are all zero, the Hankel matrix has rank at most k and every later
minor is 0; otherwise the later orders are read off one subresultant
scan of the same integers.
"""
from __future__ import annotations

from dataclasses import dataclass

from .classf import ClassF, dilated_cumulants, dilated_moments
from .exactalg import Rat, integer_prefix, leading_minors


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

    s is any finite iterable (a list, a generator, a `SeriesPrefix`); its
    first 2k_max+1 terms are read once and written as integers over their
    least common denominator (`exactalg.integer_prefix`).  The minors come
    one order at a time from the Chebyshev recurrence on those integers, so
    a negative minor stops the work too.  The recurrence divides by the
    minors.  At the first zero minor H_k, zero residuals of the orthogonal
    polynomial pi_k (the prefix obeys pi_k's recurrence, so the Hankel
    matrix has rank at most k) make every later minor 0 with no
    determinant; after a nonzero residual the later orders are read in
    turn off one subresultant scan, which a negative minor stops too.
    """
    _check_order(k_max)
    ints, den = integer_prefix(s, 2 * k_max + 1)
    return _scan(ints, 1, den, k_max)


def is_moment_positive_up_to(f: ClassF, k_max: int) -> HankelVerdict:
    """Finite-order positive definiteness of the moment sequence of F:
    `hankel_verdict(moments(f, 2 k_max), k_max)`, on the ints of
    `dilated_moments`."""
    _check_order(k_max)
    a, c = dilated_moments(f, 2 * k_max)
    return _scan(a, c, 1, k_max)


def fid_check(f: ClassF, k_max: int) -> HankelVerdict:
    """Hankel scan of the shifted cumulants (r_2, r_3, ...).

    Positive definiteness of this sequence characterizes free infinite
    divisibility; a negative minor certifies non-FID.  The scan reads the
    dilated cumulants c^n r_n of `dilated_cumulants` from n = 2 on, so that
    r_(n+2) = a_(n+2) / (c^2 c^n).
    """
    _check_order(k_max)
    a, c = dilated_cumulants(f, 2 * k_max + 2)
    return _scan(a[2:], c, c * c, k_max)


def _scan(a, c: int, e: int, k_max: int) -> HankelVerdict:
    """The verdict on the minors of s_n = a_n / (e c^n), n = 0..2k_max."""
    minors = []
    for k, d in enumerate(leading_minors(a, k_max, c, e)):
        minors.append(d)
        if d < 0:
            return HankelVerdict("negative_at", k, d, tuple(minors))
    return HankelVerdict("positive_so_far", k_max, Rat(0), tuple(minors))


def _check_order(k_max: int):
    if k_max < 0:
        raise ValueError(f"Hankel order must be >= 0, got {k_max}")
