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

Every exact predicate is decided by `AlgebraicReal.sign_of`.  At an
irrational number inside (lo, hi) it is one exact bound
(`_mean_value_sign`): with c the midpoint, h the half-width and
R = max(|lo|, |hi|), p has the sign of p(c) on all of (lo, hi) when
p(c) != 0 and |p(c)| >= h sum_(i>=1) i |p_i| R^(i-1), by the mean value
theorem, tested in integers.  When the bound cannot settle the sign, a
zero is tested exactly: the number is the only root of its squarefree
defining polynomial P in (lo, hi), and neither end is a root, so p
vanishes there iff g = gcd(P, p) has positive degree and g(lo) g(hi) < 0.
Otherwise the interval is bisected (`_bisect`) until the bound settles
the sign; its slack h M shrinks with h and p does not vanish at the
number, so this ends.  `is_root_of` is sign_of(p) == 0,
`compare_rational` is sign_of(x - q) when q is inside the interval, and
two irrationals are equal when one is a root of the other's defining
polynomial inside the other's interval.

The bound settles more signs on a narrower interval.  `fenced` gives the
same number on a dyadic interval of relative half-width about 2^-46,
placed by a float Newton guess and kept only when the exact integer signs
of the defining polynomial at its two ends differ; a caller that signs
many polynomials at one number, as `spectra.Pencil.real_rooted_at` does,
signs them on it.

Bisection refines for the callers that need narrower intervals
(`refined_to`, `separate`, and a range's end intervals in
`isolate_real_roots`), and `sign_of` bisects a copy of the interval it
does not keep: one step, `_bisect`, on the primitive integer form of the
squarefree defining polynomial is a single integer sign at the midpoint
against the stored sign at lo.  Refinement is pure: methods return new
numbers with narrower intervals, the original is never mutated.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .poly import Poly, Rat, _exact_div, _gcd, _monic, _remainder_chain, as_rat
from .sturm import (count_distinct_real_roots, sturm_chain, _sign_at, _sign_hom,
                    _variations_at, _variations_hom)


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

    `_ints`, the primitive integer form of the squarefree part of
    `defining`, and `_slo`, its sign at the first lo, are set once and
    passed on unchanged by refinement: every `_bisect` step keeps that
    sign at its lo until it hits the root.
    """

    __slots__ = ("defining", "lo", "hi", "_ints", "_slo")

    def __init__(self, defining: Poly, lo, hi):
        lo, hi = as_rat(lo), as_rat(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        ints = defining.int_coeffs()[0]
        if len(ints) > 2:
            # squarefree, so that the sign changes at the root
            ints = _exact_div(ints, _gcd(ints, [i * c for i, c in enumerate(ints)][1:]))
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
        """This number on [lo, hi], a subinterval produced by `_bisect` or
        checked by `fenced`."""
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
        """The midpoint of a refinement that holds no 0 and is at most
        10^-18 and 2^-60 min(|lo|, |hi|) wide, so right to about a unit in
        the last place at every magnitude; from modulus about 1.2 up, the
        10^-18 alone decides."""
        a = self.refined_to(Fraction(1, 10**18))
        lo, hi = a.lo, a.hi
        if lo <= 0 <= hi and _sign_at(a._ints, 0) == 0:
            return 0.0
        while lo < hi and (lo <= 0 <= hi or (hi - lo) * 2**60 > min(abs(lo), abs(hi))):
            lo, hi = _bisect(a._ints, a._slo, lo, hi)
        return float((lo + hi) / 2)

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
        """Exact sign of p at this number.

        A rational number is substituted.  At an irrational one, inside
        (lo, hi), the mean value bound (`_mean_value_sign`) settles most
        signs from one evaluation at the midpoint.  When it cannot, p
        vanishes at the number iff gcd(P, p) changes sign on (lo, hi);
        otherwise the interval is bisected until the bound settles.
        """
        q = p.int_coeffs()[0]
        lo, hi = self.lo, self.hi
        if lo == hi:
            return _sign_at(q, lo)
        s = _mean_value_sign(q, lo, hi)
        if s or not q:
            return s
        g = _gcd(self._ints, q)
        if len(g) > 1 and _sign_at(g, lo) * _sign_at(g, hi) < 0:
            return 0
        while not s:
            lo, hi = _bisect(self._ints, self._slo, lo, hi)
            if lo == hi:
                return _sign_at(q, lo)
            s = _mean_value_sign(q, lo, hi)
        return s

    def fenced(self) -> "AlgebraicReal":
        """This number on a dyadic interval ((u - 1)/2^k, (u + 1)/2^k) inside
        [lo, hi], of half-width about |x| 2^-46, or self.

        A float Newton guess on `_ints` (`_float_root`) places the
        interval.  It is kept only when the exact integer signs of the
        defining polynomial at its two ends differ: the number is the only
        root in (lo, hi), so it lies inside.  Each half-width of
        `_FENCE_BITS` is tried in turn, narrowest first; on overflow, NaN
        or a failed check the number comes back unchanged.
        """
        if self.lo == self.hi:
            return self
        try:
            x = _float_root(self._ints, float(self.lo), float(self.hi), self._slo)
        except OverflowError:
            return self
        if math.isnan(x):
            return self
        e = math.frexp(x)[1]
        lo, hi, ints = self.lo, self.hi, self._ints
        for bits in _FENCE_BITS:
            # the ends (u - 1)/2^k and (u + 1)/2^k as a/d and b/d
            k = bits - e
            u = round(math.ldexp(x, k))
            a, b, d = (u - 1, u + 1, 1 << k) if k >= 0 else ((u - 1) << -k, (u + 1) << -k, 1)
            if (lo.numerator * d <= a * lo.denominator and b * hi.denominator <= hi.numerator * d
                    and _sign_hom(ints, a, d) * _sign_hom(ints, b, d) < 0):
                # P has no root in [self.lo, x), so its sign at a/d is _slo
                return self._narrowed(Fraction(a, d), Fraction(b, d))
        return self

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


def _mean_value_sign(q, lo, hi) -> int:
    """The sign of the int list q on all of (lo, hi), rationals lo < hi,
    when the mean value bound settles it, else 0.

    With c the midpoint, h the half-width and R = max(|lo|, |hi|), every
    y in (lo, hi) has |q(y) - q(c)| <= |y - c| max |q'| < h M or q(y) =
    q(c), where M = sum_(i>=1) i |q_i| R^(i-1) >= |q'| on [-R, R] (mean
    value theorem).  So q(c) != 0 and |q(c)| >= h M give q the sign of
    q(c) on all of (lo, hi).  Both sides are taken in integers, times
    (2d)^n for lo = a/d and hi = b/d over their common denominator d and
    n = deg q: q(c) is q homogenised at (a + b, 2d), and h M is
    (b - a) sum_(i>=1) i |q_i| (2 max(|a|, |b|))^(i-1) (2d)^(n-i).  For a
    linear q the test says exactly that its root is not inside (lo, hi).
    A cheap test that is exactly certified and falls back on a complete
    one is a filtered exact predicate (Bronnimann, Burnikel and Pion,
    Discrete Appl. Math. 109, 2001).
    """
    if not q:
        return 0
    d = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    u, r, d = a + b, 2 * max(-a, b), 2 * d
    v, m, dp = q[-1], 0, 1
    for i in range(len(q) - 1, 0, -1):
        m = m * r + i * abs(q[i]) * dp
        dp *= d
        v = v * u + q[i - 1] * dp
    if v and abs(v) >= (b - a) * m:
        return 1 if v > 0 else -1
    return 0


# relative half-widths 2^-bits that `AlgebraicReal.fenced` tries, narrowest first
_FENCE_BITS = (46, 38, 30, 22, 14)
# float Newton (or bisection) steps that `_float_root` takes at most
_FLOAT_STEPS = 80


def _float_root(a, lo, hi, slo) -> float:
    """A float guess at the root of the int list a in (lo, hi), floats,
    where a has the sign slo != 0 at lo, or NaN: Newton steps from the
    midpoint, a step that leaves the bracket kept by the float signs of a
    replaced by the bracket's midpoint.  Only a guess, as float signs near
    the root may be wrong.  Raises OverflowError for a coefficient past
    the float range."""
    c = [float(ai) for ai in reversed(a)]
    x = (lo + hi) / 2
    for _ in range(_FLOAT_STEPS):
        v = dv = 0.0
        for ci in c:
            dv = dv * x + v
            v = v * x + ci
        if not math.isfinite(v):
            return math.nan
        if v == 0:
            return x
        if (v > 0) == (slo > 0):
            lo = x
        else:
            hi = x
        if not dv or not lo < (y := x - v / dv) < hi:
            y = (lo + hi) / 2
        if abs(y - x) <= abs(x) * 2.0 ** -50:
            return y
        x = y
    return x


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
    at +-infinity, the points (+-1, 0) of the homogenised chain, as no
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
    is the chain rebuilt, on ints, from the squarefree part, the exact
    quotient.  A chain is negated to a positive leading coefficient.
    """
    lo = None if lo is None else as_rat(lo)
    hi = None if hi is None else as_rat(hi)
    if lo is not None and hi is not None and lo >= hi:
        raise ValueError("need lo < hi")
    if p.is_zero():
        raise ValueError("zero polynomial")
    chain = sturm_chain(p)
    if len(chain[-1]) > 1:
        s = _exact_div(chain[0], chain[-1])
        chain = _remainder_chain(s, [i * c for i, c in enumerate(s)][1:])
    if chain[0][-1] < 0:  # negated, it is the chain of the monic squarefree part
        chain = [[-c for c in a] for a in chain]
    ints = chain[0]  # the primitive integer form of the squarefree part s
    if len(ints) == 1:
        return []
    bound = Fraction(2) ** _root_bound_exponent(ints)
    if lo is None or lo <= -bound:
        a, va = -bound, _variations_hom(chain, -1, 0)
    else:
        a, va = lo, _variations_at(chain, lo)
    if hi is None or hi >= bound:
        b, vb = bound, _variations_hom(chain, 1, 0)
    else:
        b, vb = hi, _variations_at(chain, hi) + (_sign_at(ints, hi) == 0)
    if a >= b or va == vb:
        return []

    # endpoints are ints over the denominator d * 2^k of their depth k
    d = math.lcm(a.denominator, b.denominator)
    out = []

    # depth first, left half first, so the intervals come out ascending; a
    # stack, as the depth can pass the recursion limit
    stack = [(a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), 0, va, vb)]
    while stack:
        # invariant: the count in (x0, x1) is v0 - v1
        x0, x1, k, v0, v1 = stack.pop()
        n = v0 - v1
        if n == 1:
            out.append((Fraction(x0, d << k), Fraction(x1, d << k)))
        if n <= 1:
            continue
        x0, x1, k = 2 * x0, 2 * x1, k + 1
        mid = (x0 + x1) // 2
        while _sign_hom(ints, mid, d << k) == 0:
            x0, mid, x1, k = 2 * x0, x0 + mid, 2 * x1, k + 1
        vm = _variations_hom(chain, mid, d << k)
        stack += [(mid, x1, k, vm, v1), (x0, mid, k, v0, vm)]
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
