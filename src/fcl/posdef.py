"""Positive-definiteness verdicts via exact Hankel minors.

A strictly negative minor is a permanent certificate that the sequence is
not a moment sequence; a run of nonnegative minors is only ever reported
as "positive so far".  Zero minors do not stop the scan (finitely atomic
measures produce them legitimately).

A scan reads, order by order, the integer minors H_k that
`exactalg.hankel.leading_minors` yields for ints a_n = e c^n s_n: those of
`dilated_moments` and `dilated_cumulants` (den_i | c^i for the lcm den_i
of the denominators of F's w^i coefficients; see `classf._dilation`), or of
any sequence over its common denominator e (`hankel_verdict`).  `_scan`,
the one place that knows c and e, divides H_k by e^(k+1) c^(k(k+1)) > 0.
"""
from __future__ import annotations

from ._record import Record
from .classf import ClassF, dilated_cumulants, dilated_moments
from .exactalg import Rat, integer_prefix, leading_minors


class HankelVerdict(Record):
    """The outcome of a Hankel scan.

    A frozen `Record`, not a dataclass (see `fcl._record`).  status:
    'positive_so_far' | 'negative_at'; order: the max order checked, or
    the offending order; determinant: the offending minor (negative_at
    only); minors: all minors computed, orders 0..
    """

    __slots__ = ("status", "order", "determinant", "minors")

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
    one order at a time (`exactalg.leading_minors`), so a negative minor
    stops the work too.
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
    """The verdict on s_n = a_n / (e c^n): minors H_k(a) / (e^(k+1) c^(k(k+1)))."""
    minors = []
    for k, h in enumerate(leading_minors(a, k_max)):
        d = Rat(h, e ** (k + 1) * c ** (k * (k + 1)))
        minors.append(d)
        if d < 0:
            return HankelVerdict("negative_at", k, d, tuple(minors))
    return HankelVerdict("positive_so_far", k_max, Rat(0), tuple(minors))


def _check_order(k_max: int):
    if k_max < 0:
        raise ValueError(f"Hankel order must be >= 0, got {k_max}")
