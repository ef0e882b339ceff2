"""Exact real algebraic numbers as (squarefree polynomial, isolating interval).

Nothing is refined unless a caller asks for it.  Isolation is one Sturm
bisection, on the whole line or inside an asked range (lo, hi), that
stops as soon as an interval holds one root.  It starts at the asked ends
clipped to (-2^e, 2^e), a power-of-two form of Fujiwara's root bound,
where the variation counts are read from the chain's leading
coefficients; its endpoints are ints over one power-of-two multiple of the
ends' common denominator, signed in integers.  Rational roots are found
apart from it, by p-adic lifting (`_rational_roots`), and each one
collapses the interval that holds it to a point.

Every exact predicate is decided by `AlgebraicReal.sign_of`: the sign of a
polynomial at an irrational number is one Tarski query on the isolating
interval as it stands, read from `poly._remainder_chain` (the remainder
sequence of every gcd and Sturm count too) started from P' p reduced mod
the defining polynomial P, or none for a constant or a linear polynomial
whose root is not inside it.  `is_root_of` is sign_of(p) == 0,
`compare_rational` is sign_of(x - q) when q is inside the interval, and
two irrationals are equal when one is a root of the other's defining
polynomial inside the other's interval.

Bisection only refines, for the callers that need narrower intervals
(`refined_to`, `separate`, and a range's end intervals in
`isolate_real_roots`): one step, `_bisect`, on the
primitive integer form of the defining polynomial is a single integer sign
at the midpoint against the stored sign at lo.  Refinement is pure: methods
return new numbers with narrower intervals, the original is never mutated.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .poly import Poly, Rat, _exact_div, _monic, _prem, _remainder_chain, as_rat
from .sturm import (count_distinct_real_roots, sturm_chain, _sign_at, _sign_hom,
                    _variations_at, _variations_at_inf, _variations_hom)


def _bisect(ints, slo, lo, hi):
    """One bisection step of [lo, hi] around the root of the int list `ints`
    whose sign at lo is slo != 0: the half with the sign change, or the
    midpoint twice when it is the root."""
    mid = (lo + hi) / 2
    s = _sign_at(ints, mid)
    if s == 0:
        return mid, mid
    return (mid, hi) if s == slo else (lo, mid)


class AlgebraicReal:
    """A real algebraic number: one root of `defining` inside [lo, hi].

    `_ints`, the primitive integer form of `defining`, and `_slo`, its sign
    at the first lo, are set once and passed on unchanged by refinement:
    every `_bisect` step keeps that sign at its lo until it hits the root.
    """

    __slots__ = ("defining", "lo", "hi", "_ints", "_slo")

    def __init__(self, defining: Poly, lo, hi):
        lo, hi = as_rat(lo), as_rat(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        ints = defining.int_coeffs()[0]
        slo = _sign_at(ints, lo)
        if lo == hi:
            if slo != 0:
                raise ValueError("point interval is not a root")
        elif slo == 0 or count_distinct_real_roots(defining, lo, hi) != 1:
            raise ValueError("interval does not isolate exactly one root")
        if lo < hi and _sign_at(ints, hi) == 0:
            lo, slo = hi, 0  # the root is hi itself
        self.defining = defining
        self.lo, self.hi = lo, hi
        self._ints, self._slo = ints, slo

    def _narrowed(self, lo, hi) -> "AlgebraicReal":
        """This number on [lo, hi], a subinterval produced by `_bisect`."""
        return _from_parts(self.defining, self._ints, self._slo, lo, hi)

    @staticmethod
    def from_rational(q) -> "AlgebraicReal":
        q = as_rat(q)
        p = Poly([-q, 1])
        return _from_parts(p, p.int_coeffs()[0], 0, q, q)

    # -- queries -------------------------------------------------------

    def is_rational(self) -> bool:
        return self.lo == self.hi

    def as_fraction(self):
        """The exact value when rational, else None."""
        return self.lo if self.lo == self.hi else None

    def width(self) -> Rat:
        return self.hi - self.lo

    def __float__(self) -> float:
        a = self.refined_to(Fraction(1, 10**18))
        return float((a.lo + a.hi) / 2)

    def __repr__(self):
        if self.is_rational():
            return f"AlgebraicReal({self.lo})"
        return f"AlgebraicReal({self.defining.to_str('x')} in [{self.lo}, {self.hi}] ~ {float(self):.6g})"

    # -- refinement ------------------------------------------------------

    def refined_to(self, width) -> "AlgebraicReal":
        width = as_rat(width)
        lo, hi = self.lo, self.hi
        while hi - lo > width:
            lo, hi = _bisect(self._ints, self._slo, lo, hi)
        return self._narrowed(lo, hi)

    def separate(self, other: "AlgebraicReal"):
        """(self, other) refined until their intervals are disjoint.

        The two numbers must differ, or the refinement never ends.
        """
        alo, ahi, blo, bhi = self.lo, self.hi, other.lo, other.hi
        while not (ahi < blo or bhi < alo):
            alo, ahi = _bisect(self._ints, self._slo, alo, ahi)
            blo, bhi = _bisect(other._ints, other._slo, blo, bhi)
        return self._narrowed(alo, ahi), other._narrowed(blo, bhi)

    # -- exact predicates --------------------------------------------------

    def is_root_of(self, p: Poly) -> bool:
        """Exact test whether p vanishes at this number."""
        return self.sign_of(p) == 0

    def sign_of(self, p: Poly) -> int:
        """Exact sign of p at this number, without refinement.

        A rational number is substituted.  An irrational one lies inside
        (lo, hi), where a constant p, or a linear p whose root is not
        inside (lo, hi), has one sign, the sign it has at lo or hi.  Every
        other p, where the number is the only root of P = defining in
        (lo, hi) and P(lo) P(hi) != 0, gets the Tarski query: the Cauchy
        index of P' p / P on (lo, hi), Var(lo) - Var(hi) of the chain P,
        R, -rem(P, R), ... (Basu, Pollack and Roy, Algorithms in Real
        Algebraic Geometry, ch. 2).  R is P' p itself when its degree is
        below deg P, else `_prem(P' p, P)`, a positive multiple of
        rem(P' p, P): the two differ by a polynomial, which has no pole,
        so the index is the same, for a P with multiple roots too, and the
        chain starts below deg P.
        """
        q = p.int_coeffs()[0]
        if self.lo == self.hi or len(q) < 2:
            return _sign_at(q, self.lo)
        if len(q) == 2:
            slo, shi = _sign_at(q, self.lo), _sign_at(q, self.hi)
            if slo * shi >= 0:  # the root of q is not inside (lo, hi)
                return slo or shi
        a = self._ints
        b = [0] * (len(a) + len(q) - 2)
        for i, c in enumerate(a[1:], 1):
            for j, d in enumerate(q):
                b[i - 1 + j] += i * c * d
        if len(b) >= len(a):
            b = _prem(b, a)
        chain = _remainder_chain(a, b)
        return _variations_at(chain, self.lo) - _variations_at(chain, self.hi)

    def compare_rational(self, q) -> int:
        """The sign of self - q: read off the interval when q is outside
        it, else sign_of(x - q)."""
        q = as_rat(q)
        if q < self.lo:
            return 1
        if q > self.hi:
            return -1
        return self.sign_of(Poly([-q, 1]))

    def __lt__(self, other):
        return _compare(self, other) < 0

    def __le__(self, other):
        return _compare(self, other) <= 0

    def __gt__(self, other):
        return _compare(self, other) > 0

    def __ge__(self, other):
        return _compare(self, other) >= 0

    def __eq__(self, other):
        if not isinstance(other, (AlgebraicReal, int, Fraction)):
            return NotImplemented
        return _compare(self, other) == 0

    def __hash__(self):
        raise TypeError("AlgebraicReal is unhashable (use as_fraction for rationals)")


def _from_parts(defining, ints, slo, lo, hi) -> AlgebraicReal:
    """The root of `defining` (primitive integer form `ints`, sign slo at lo)
    on an interval already known to isolate it; `ints` is shared, not copied."""
    a = object.__new__(AlgebraicReal)
    a.defining, a._ints, a._slo, a.lo, a.hi = defining, ints, slo, lo, hi
    return a


def _compare(a: AlgebraicReal, b) -> int:
    """The sign of a - b, for b an AlgebraicReal or a rational."""
    if not isinstance(b, AlgebraicReal):
        return a.compare_rational(b)
    if b.is_rational():
        return a.compare_rational(b.lo)
    if a.is_rational():
        return -b.compare_rational(a.lo)
    # a is the only root of a.defining in (a.lo, a.hi), so b == a iff b is
    # a root of a.defining inside that interval
    if (max(a.lo, b.lo) < min(a.hi, b.hi) and b.sign_of(a.defining) == 0
            and b.compare_rational(a.lo) > 0 and b.compare_rational(a.hi) < 0):
        return 0
    a, b = a.separate(b)
    return -1 if a.hi < b.lo else 1


# -- root isolation ----------------------------------------------------------


def _odd_primes():
    p = 3
    while True:
        if all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


def _eval_mod(a, x, m) -> int:
    v = 0
    for c in reversed(a):
        v = (v * x + c) % m
    return v


def _rational_roots(a, bound):
    """The rational roots of the squarefree primitive int list a, ascending;
    every real root of a lies in (-bound, bound).

    A factor x gives the root 0.  Every other rational root u/v (lowest
    terms) has v | L, L = |lc(a)|, so for an odd prime p not dividing L it
    reduces to a root of a mod p.  p is the first such prime at which every
    root of a mod p is simple (every prime dividing neither L nor the
    discriminant qualifies); each of those roots is found by trying every
    residue and Hensel-lifted (Newton, the modulus squaring each step) to
    a root r mod m with m > 2 L (ceil(bound) + 1) > 2 |L u / v|.  L r then
    reduces to the symmetric residue L u / v when u/v lifts r, and one
    integer sign at that candidate settles it (Loos, Computing rational
    zeros of integral polynomials by p-adic expansion, SIAM J. Comput. 12,
    1983).
    """
    roots = []
    if a[0] == 0:
        roots.append(Fraction(0))
        a = a[1:]
    if len(a) == 1:
        return roots
    lead = abs(a[-1])
    da = [i * c for i, c in enumerate(a)][1:]
    for p in _odd_primes():
        if lead % p:
            zeros = [r for r in range(p) if _eval_mod(a, r, p) == 0]
            if all(_eval_mod(da, r, p) for r in zeros):
                break
    target = 2 * lead * (math.ceil(bound) + 1)
    for r in zeros:
        m = p
        while m <= target:
            m *= m
            r = (r - _eval_mod(a, r, m) * pow(_eval_mod(da, r, m), -1, m)) % m
        c = lead * r % m
        c = Fraction(c - m if 2 * c > m else c, lead)
        if _sign_at(a, c) == 0:
            roots.append(c)
    return sorted(roots)


def _root_bound_exponent(a) -> int:
    """e with every real root of the int list a (degree n >= 1) strictly
    inside (-2^e, 2^e): the least integer with
    2^(e i) |lc| > 2^i |a_(n-i)| for every i = 1..n, or 0 when every
    a_(n-i) is 0.

    Fujiwara's bound (Tohoku Math. J. 10, 1916): at |x| >= 2^e every term
    |a_(n-i) x^(n-i)| is below |lc x^n| / 2^i, or 0, so they sum to less
    than |lc x^n| and a(x) != 0.
    """
    n, lc = len(a) - 1, abs(a[-1])
    exps = []
    for i in range(1, n + 1):
        c = abs(a[n - i])
        if c:
            # the least m with |lc| 2^(m i) > c is m or m + 1 by bit lengths
            m = (c.bit_length() - lc.bit_length()) // i
            if lc << max(m * i, 0) <= c << max(-m * i, 0):
                m += 1
            exps.append(m + 1)
    return max(exps, default=0)


def isolate_real_roots(p: Poly, lo=None, hi=None):
    """Isolating AlgebraicReals for the distinct real roots of p in (lo, hi),
    ascending; None is an unbounded end, so the default is every real root.

    One Sturm bisection serves both: it starts at the asked ends, each
    clipped to (-2^e, 2^e) (`_root_bound_exponent`), which holds every
    real root, and stops as soon as an interval holds one root; nothing
    is refined further, except that an interval with an end at an asked
    lo or hi is bisected by signs alone (`_bisect`) until it lies
    strictly inside (lo, hi).  At +-2^e the variation counts are those
    at +-infinity, read from the chain's leading coefficients, as no
    root lies beyond; an asked end is signed in the chain, and at a hi
    that is a root 1 is added, so the counts are of the open interval.
    Counts on (a, b] hold at any rational end (Basu, Pollack and Roy,
    Algorithms in Real Algebraic Geometry, ch. 2), so lo may itself be
    a root.

    Every rational root, from `_rational_roots`, comes back as a point,
    AlgebraicReal.from_rational.  Every irrational root is defined by the
    squarefree part of p divided by (x - r) for each rational root r
    (over the whole line), so its defining polynomial has no rational
    root and is the same with and without a range.  The Sturm chain of p
    ends at a multiple of gcd(p, p'); only when that has positive degree
    is the chain rebuilt from the squarefree part.
    """
    lo = None if lo is None else as_rat(lo)
    hi = None if hi is None else as_rat(hi)
    if lo is not None and hi is not None and lo >= hi:
        raise ValueError("need lo < hi")
    if p.is_zero():
        raise ValueError("zero polynomial")
    chain = sturm_chain(p)
    if len(chain[-1]) > 1:
        chain = sturm_chain(_monic(_exact_div(chain[0], chain[-1])))
    elif chain[0][-1] < 0:  # negated, it is the chain of the monic p
        chain = [[-c for c in a] for a in chain]
    ints = chain[0]  # the primitive integer form of the squarefree part s
    if len(ints) == 1:
        return []
    bound = Fraction(2) ** _root_bound_exponent(ints)
    if lo is None or lo <= -bound:
        a, va = -bound, _variations_at_inf(chain, -1)
    else:
        a, va = lo, _variations_at(chain, lo)
    if hi is None or hi >= bound:
        b, vb = bound, _variations_at_inf(chain, 1)
    else:
        b, vb = hi, _variations_at(chain, hi) + (_sign_at(ints, hi) == 0)
    if a >= b or va == vb:
        return []

    # endpoints are ints over the denominator d * 2^k of their depth k
    d = math.lcm(a.denominator, b.denominator)
    out = []

    def split(lo, hi, k, vlo, vhi):
        # invariant: the count in (lo, hi) is vlo - vhi
        n = vlo - vhi
        if n == 1:
            out.append((Fraction(lo, d << k), Fraction(hi, d << k)))
        if n <= 1:
            return
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        while _sign_hom(ints, mid, d << k) == 0:
            lo, mid, hi, k = 2 * lo, lo + mid, 2 * hi, k + 1
        vm = _variations_hom(chain, mid, d << k)
        split(lo, mid, k, vlo, vm)
        split(mid, hi, k, vm, vhi)

    split(a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), 0, va, vb)
    rats = _rational_roots(ints, bound)
    qi = ints  # one primitive list for every irrational root
    for r in rats:
        qi = _exact_div(qi, [-r.numerator, r.denominator])
    q = _monic(qi)
    rats = [r for r in rats if a < r < b]
    roots = []
    for u, v in out:
        # intervals and rational roots in range ascend together; each
        # root is inside one
        if rats and rats[0] < v:
            roots.append(AlgebraicReal.from_rational(rats.pop(0)))
            continue
        # qi has no rational root, so its sign at u is not 0 and no
        # bisection hits the root
        su = _sign_at(qi, u)
        while (lo is not None and u <= lo) or (hi is not None and v >= hi):
            u, v = _bisect(qi, su, u, v)
        roots.append(_from_parts(q, qi, su, u, v))
    return roots
