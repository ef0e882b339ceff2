"""Sturm chains, exact real-root counting, and real-rootedness.

A Sturm chain is `poly._remainder_chain` of p and p', the primitive
remainder sequence over Z (Collins, "Subresultants and reduced polynomial
remainder sequences", J. ACM 1967) that the gcd also runs: each member
is an integer coefficient list, lowest degree first, and a positive
rational multiple of the matching member of the Euclidean chain p, p',
-rem(...) over Q, so sign variations are the same.  Signs at a rational
a/b are taken from the member homogenised at (a, b), in integers.

Counts follow the (lo, hi] convention: with V(x) the number of sign changes
in the chain at x (zeros skipped), V(lo) - V(hi) is the number of distinct
real roots in (lo, hi].  An end given as None is unbounded: -infinity and
+infinity are the points (-1, 0) and (1, 0), where each homogenised
member has the sign of its leading term times (+-1)^deg.  Chains
terminate at a multiple of gcd(p, p'), so multiple roots are counted once.

Real-rootedness is a yes/no question and builds no Sturm chain:
`is_real_rooted` reads the signed subresultant coefficients of p and p'
top-down from `poly._subresultant_scan` and stops at the first entry that
settles the answer (`real_rooted_from_signs`, the rule that
`spectra.Pencil.real_rooted_at` also applies at an algebraic parameter).
"""
from __future__ import annotations

from .poly import Poly, _exact_div, _remainder_chain, _subresultant_scan, as_rat


def sturm_chain(p: Poly):
    """Primitive integer Sturm chain of p, ending at a multiple of gcd(p, p').

    Members are int lists, lowest degree first, each a positive multiple of
    the matching member of p, p', -rem(...) over Q.
    """
    a = p.int_coeffs()[0]
    return _remainder_chain(a, [i * c for i, c in enumerate(a)][1:])


def _sign_at(a, x) -> int:
    """Sign of the int list a at the rational x."""
    return _sign_hom(a, x.numerator, x.denominator)


def _sign_hom(a, u: int, d: int) -> int:
    """Sign of the int list a at u/d, d > 0: the sign of sum a_i u^i d^(deg - i)."""
    v, dp = 0, 1
    for c in reversed(a):
        v = v * u + c * dp
        dp *= d
    return (v > 0) - (v < 0)


def sign_variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _variations_at(chain, x) -> int:
    return sign_variations([_sign_at(p, x) for p in chain])


def _variations_hom(chain, u: int, d: int) -> int:
    """_variations_at at u/d, d > 0, or at -infinity (u, d) = (-1, 0) and
    +infinity (1, 0)."""
    return sign_variations([_sign_hom(p, u, d) for p in chain])


def count_distinct_real_roots(p: Poly, lo=None, hi=None) -> int:
    """Distinct real roots of any nonzero p in (lo, hi] (no squarefree
    demand), for rationals lo <= hi; None is -infinity as lo and +infinity
    as hi.

    When gcd(p, p') has positive degree every member is divided by the
    chain's last, a primitive multiple of it, so the chain is signed at a
    multiple root too, where all its members vanish.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if lo is not None and hi is not None and as_rat(lo) > as_rat(hi):
        raise ValueError("need lo <= hi")
    if p.is_constant():
        return 0
    chain = sturm_chain(p)
    if len(chain[-1]) > 1:
        chain = [_exact_div(c, chain[-1]) for c in chain]
    vlo = _variations_hom(chain, -1, 0) if lo is None else _variations_at(chain, as_rat(lo))
    vhi = _variations_hom(chain, 1, 0) if hi is None else _variations_at(chain, as_rat(hi))
    return vlo - vhi


def is_real_rooted(p: Poly) -> bool:
    """True iff every complex root of p is real (constants vacuously qualify).

    Read from the signed subresultant coefficients s_(p-1), ..., s_0 of
    a and a', a the primitive integer form of p with lc(a) > 0
    (`poly._subresultant_scan`), by `real_rooted_from_signs`: s_p = lc(a)
    and s_(p-1) = p lc(a) are positive, and the scan stops at the first
    entry that settles the answer, so a No usually costs a pseudo-division
    or two and no Sturm chain.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.is_constant():
        return True
    a = p.int_coeffs()[0]
    if a[-1] < 0:
        a = [-c for c in a]
    scan = _subresultant_scan(a, [i * c for i, c in enumerate(a)][1:])
    next(scan)  # s_(p-1) = p lc(a) > 0
    return real_rooted_from_signs(scan)


def real_rooted_from_signs(entries) -> bool:
    """Whether x of degree p >= 1 is real-rooted, from s_(p-2), ..., s_0,
    the signed principal subresultant coefficients of x and x' read
    top-down, each a number of the sign of s_j * lc(x).

    x has PmV(s_p, ..., s_0) distinct real roots and p - d distinct complex
    ones, d the smallest j with s_j != 0, i.e. deg gcd(x, x') (Basu, Pollack
    and Roy, Algorithms in Real Algebraic Geometry, ch. 4 and 9).  Each
    consecutive nonzero pair adds at most 1 to PmV, and 1 only at distance
    1 with equal signs, so PmV = p - d iff s_p, ..., s_d are all nonzero
    with one sign; s_p = lc(x) and s_(p-1) = p lc(x) have the sign of
    lc(x).  A negative entry answers No; the first zero answers whether
    every later entry is zero too; the end answers Yes.  `entries` is read
    only as far as the answer needs, so a lazy iterator pays only for the
    entries read.
    """
    entries = iter(entries)
    for s in entries:
        if s < 0:
            return False
        if s == 0:
            return all(r == 0 for r in entries)
    return True
