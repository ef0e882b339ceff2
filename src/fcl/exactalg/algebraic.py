"""Exact real algebraic numbers as (squarefree polynomial, isolating interval).

Isolation is Sturm bisection inside a Cauchy bound.  Rational roots are
recognized completely (the interval collapses to a point): by the rational
root theorem every rational root of a primitive integer polynomial with
leading coefficient L is a multiple of 1/|L|, so an isolating interval no
wider than 1/|L| holds one candidate, and one exact evaluation settles it.

Refinement is one bisection step, `_bisect`, on the primitive integer form
of the defining polynomial: a single integer sign at the midpoint against
the stored sign at lo.  Refinement is pure: methods return new numbers with
narrower intervals, the original is never mutated.
"""
from __future__ import annotations

from fractions import Fraction

from .bipoly import BiPoly, subresultant_table
from .intervals import Iv, iv_poly_eval
from .poly import Poly, Rat, as_rat, poly_gcd, squarefree_part
from .sturm import (cauchy_bound, count_distinct_real_roots, pmv, sturm_chain,
                    _sign_at, _variations_at)


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

    def __init__(self, defining: Poly, lo, hi, _checked=False):
        lo, hi = as_rat(lo), as_rat(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        ints = defining.int_coeffs()[0]
        slo = _sign_at(ints, lo)
        if not _checked:
            if lo == hi:
                if slo != 0:
                    raise ValueError("point interval is not a root")
            elif slo == 0 or count_distinct_real_roots(defining, lo, hi) != 1:
                raise ValueError("interval does not isolate exactly one root")
        self.defining = defining
        self.lo, self.hi = lo, hi
        self._ints, self._slo = ints, slo

    def _narrowed(self, lo, hi) -> "AlgebraicReal":
        """This number on [lo, hi], a subinterval produced by `_bisect`."""
        return _from_parts(self.defining, self._ints, self._slo, lo, hi)

    @staticmethod
    def from_rational(q) -> "AlgebraicReal":
        q = as_rat(q)
        return AlgebraicReal(Poly([-q, 1]), q, q, _checked=True)

    # -- queries -------------------------------------------------------

    def is_rational(self) -> bool:
        return self.lo == self.hi

    def as_fraction(self):
        """The exact value when rational, else None."""
        return self.lo if self.lo == self.hi else None

    @property
    def interval(self) -> Iv:
        return Iv(self.lo, self.hi)

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

    def refine_inside(self, lo, hi):
        """This number with its interval strictly inside (lo, hi), or None
        when the number does not lie in (lo, hi)."""
        if self.compare_rational(lo) <= 0 or self.compare_rational(hi) >= 0:
            return None
        alo, ahi = self.lo, self.hi
        while not (lo < alo and ahi < hi):
            alo, ahi = _bisect(self._ints, self._slo, alo, ahi)
        return self._narrowed(alo, ahi)

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

    def equals_rational(self, q) -> bool:
        q = as_rat(q)
        return self.lo <= q <= self.hi and _sign_at(self._ints, q) == 0

    def is_root_of(self, p: Poly) -> bool:
        """Exact test whether p vanishes at this number."""
        if p.is_zero():
            return True
        if self.is_rational():
            return p(self.lo) == 0
        g = poly_gcd(self.defining, p)
        if g.is_constant():
            return False
        # all roots of g are roots of defining; the only root of defining in
        # our interval is this number, so g has a root here iff it is ours
        return count_distinct_real_roots(g, self.lo, self.hi) == 1

    def sign_of(self, p: Poly) -> int:
        """Exact sign of p at this number."""
        s = iv_poly_eval(p.coeffs, self.interval).sign()
        if s is None and self.is_root_of(p):
            return 0
        lo, hi = self.lo, self.hi
        while s is None:
            lo, hi = _bisect(self._ints, self._slo, lo, hi)
            s = iv_poly_eval(p.coeffs, Iv(lo, hi)).sign()
        return s

    def compare_rational(self, q) -> int:
        q = as_rat(q)
        if self.equals_rational(q):
            return 0
        lo, hi = self.lo, self.hi
        while lo <= q <= hi:
            lo, hi = _bisect(self._ints, self._slo, lo, hi)
        return -1 if hi < q else 1

    def __lt__(self, other):
        if isinstance(other, AlgebraicReal):
            return _compare(self, other) < 0
        return self.compare_rational(other) < 0

    def __le__(self, other):
        if isinstance(other, AlgebraicReal):
            return _compare(self, other) <= 0
        return self.compare_rational(other) <= 0

    def __gt__(self, other):
        if isinstance(other, AlgebraicReal):
            return _compare(self, other) > 0
        return self.compare_rational(other) > 0

    def __ge__(self, other):
        if isinstance(other, AlgebraicReal):
            return _compare(self, other) >= 0
        return self.compare_rational(other) >= 0

    def __eq__(self, other):
        if isinstance(other, AlgebraicReal):
            return _compare(self, other) == 0
        if isinstance(other, (int, Fraction)):
            return self.equals_rational(other)
        return NotImplemented

    def __hash__(self):
        raise TypeError("AlgebraicReal is unhashable (use as_fraction for rationals)")


def _from_parts(defining, ints, slo, lo, hi) -> AlgebraicReal:
    """The root of `defining` (primitive integer form `ints`, sign slo at lo)
    on an interval already known to isolate it; `ints` is shared, not copied."""
    a = object.__new__(AlgebraicReal)
    a.defining, a._ints, a._slo, a.lo, a.hi = defining, ints, slo, lo, hi
    return a


def _compare(a: AlgebraicReal, b: AlgebraicReal) -> int:
    if b.is_rational():
        return a.compare_rational(b.lo)
    if a.is_rational():
        return -b.compare_rational(a.lo)
    # Equality: each isolating interval contains exactly one root of the
    # respective defining polynomial, hence at most one root of
    # g = gcd(defining_a, defining_b), and when a (resp. b) is a root of g
    # that g-root *is* a (resp. b).  So a == b iff the intersection of the
    # intervals contains a root of g.
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo <= hi:
        g = poly_gcd(a.defining, b.defining)
        if not g.is_constant() and a.is_root_of(g) and b.is_root_of(g):
            if g(lo) == 0 or (lo < hi and count_distinct_real_roots(g, lo, hi) >= 1):
                return 0
    a, b = a.separate(b)
    return -1 if a.hi < b.lo else 1


# -- root isolation ----------------------------------------------------------


def isolate_real_roots(p: Poly):
    """Isolating AlgebraicReals for the distinct real roots of p, ascending.

    Every rational root comes back as a point, AlgebraicReal.from_rational.
    Every irrational root is defined by the squarefree part of p divided by
    (x - r) for each rational root r, so its defining polynomial has no
    rational root.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    s = squarefree_part(p)
    if s.is_constant():
        return []
    chain = sturm_chain(s)
    bound = cauchy_bound(s)
    ints = chain[0]  # the primitive integer form of s
    lead = abs(ints[-1])
    step = Fraction(1, lead)

    out = []

    def var(x):
        return _variations_at(chain, x)

    def split(lo, hi, vlo, vhi):
        # invariant: s(lo) != 0, s(hi) != 0; count in (lo, hi] = vlo - vhi
        n = vlo - vhi
        if n == 0:
            return
        if n == 1:
            # once (lo, hi) is at most 1/lead wide it holds at most one
            # multiple of 1/lead, c, and every rational root is one
            slo = _sign_at(ints, lo)
            while hi - lo > step:
                lo, hi = _bisect(ints, slo, lo, hi)
            c = Fraction((lo * lead).__floor__() + 1, lead)
            if c < hi and _sign_at(ints, c) == 0:
                lo = hi = c
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        while _sign_at(ints, mid) == 0:
            mid = (lo + mid) / 2
        vm = var(mid)
        split(lo, mid, vlo, vm)
        split(mid, hi, vm, vhi)

    split(-bound, bound, var(-bound), var(bound))
    q = s
    for lo, hi in out:
        if lo == hi:
            q = q.exact_div(Poly([-lo, 1]))
    qi = ints if q is s else q.int_coeffs()[0]  # one list for every irrational root
    return [AlgebraicReal.from_rational(lo) if lo == hi
            else _from_parts(q, qi, _sign_at(qi, lo), lo, hi) for lo, hi in out]


# -- real-rootedness at an algebraic parameter ------------------------------


def is_real_rooted_at(wcoeffs, t0: AlgebraicReal) -> bool:
    """Whether sum_i c_i(t0) w^i has only real roots, for c_i in Q[t].

    Leading coefficients that vanish at t0 are dropped first (is_root_of),
    so the rest, x of degree p in w, keeps its degree at t0.  The signed
    principal subresultant coefficients s_p, ..., s_0 of x and its
    w-derivative are interpolated once as polynomials in t
    (`subresultant_table`), and their signs at t0 come from sign_of, so the
    answer is exact.  x(t0) has PmV(signs) distinct real roots and
    p - d distinct complex ones, d being the smallest j with s_j(t0) != 0,
    i.e. deg gcd(x, x') at t0; it is real-rooted iff the two agree (Basu,
    Pollack and Roy, Algorithms in Real Algebraic Geometry, ch. 4 and 9).
    """
    cs = list(wcoeffs)
    while cs and t0.is_root_of(cs[-1]):
        cs.pop()
    if not cs:
        raise ValueError("polynomial vanishes at t0")
    p = len(cs) - 1
    if p == 0:
        return True
    signs = [t0.sign_of(s) for s in subresultant_table(BiPoly(cs))]
    d = next(j for j, s in enumerate(signs) if s)
    return pmv(signs) == p - d
