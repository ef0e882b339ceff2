"""Characteristic polynomials, the multiple-root locus, and phase transitions.

chi_F = (P + wP')Q - wPQ' is the numerator of F'; its real-rootedness is
the strong (rr0) membership test.  The weaker rr test asks that every z
for which wP - zQ acquires a multiple root is real.

Both questions scan a pencil x = A(w) + s B(w), linear in one parameter s:
chi_t of the free power flow (s = t) and wP - zQ (s = z).  A `Pencil`,
built from the two parts (A, B), splits, cleans and decides x in one
place.  Its content g = gcd(A, B) is split off first: g is the same
polynomial at every s, so it cannot create or destroy a transition, while
leaving it in would make the eliminant vanish identically whenever g has
a multiple root.  (A
normalised member has P, Q coprime and Q(0) = 1, so the content of
wP - zQ is 1.)  The eliminant is the squarefree resultant in s of the
moving part and its w-derivative, +-s_0 of their signed subresultant
coefficients, cleaned of the artifact that leading-coefficient collapse
of the generic Sylvester matrix introduces at tau, the root of a linear
leading coefficient.  Critical values are its real roots (multiple-root
kind) together with tau when the moving part drops degree by at least
two there.

The pencil is real-rooted at s iff g is (tested once) and the moving part
at s is: `Pencil.real_rooted_at` decides it, by substitution in the
moving parts A/g and B/g at a rational s and from the signs at an
irrational s, narrowed once per decision (`AlgebraicReal.fenced`), of the
moving part's signed subresultant coefficients, with one rule
(`exactalg.real_rooted_from_signs`) and no Sturm chain.  (The gcd g of
the split and the squarefree part of each eliminant try the heuristic
gcd before the primitive PRS.)  On the flow, t = 0 is the free power
delta_0, whose chi is 1, not chi_t(0) = P^2: the verdict there is Yes.

Those coefficients do not depend on s, so a `Pencil` builds one table of
them (`exactalg.subresultants`), on its first eliminant or irrational
decision, and every later question reads it: each node's PRS runs once,
and each coefficient is interpolated once, when first read.  chi_t's
pencil is memoised per member (`flow_pencil`, an lru_cache of 64 pencils
keyed on the frozen ClassF), so a scan that decides many criticals of
one member, as `euler.ck_candidates` does, splits chi_t's parts once and
reads the table its criticals built.  The memo is not meant for
concurrent threads.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .classf import ClassF, char_poly
from .errors import DegenerateEliminant
from .exactalg import (AlgebraicReal, BiPoly, Poly, Rat, as_rat,
                       count_distinct_real_roots, is_real_rooted, is_squarefree,
                       isolate_real_roots, poly_gcd, real_rooted_from_signs,
                       squarefree_part, subresultants)


class Verdict(Enum):
    YES = "yes"
    NO = "no"


# ----------------------------------------------------------------------
# characteristic polynomials


def _chi_t_parts(f: ClassF):
    """(A, B) with chi_t = A + t B: chi is linear in Q and chi_0 = P^2, so
    A = P^2 and B = chi_F - P^2 = (P+wP')(Q-P) - wP(Q'-P')."""
    a = f.P * f.P
    return a, char_poly(f) - a


def char_poly_t(f: ClassF) -> BiPoly:
    """chi of the free power flow: P^2 + t[(P+wP')(Q-P) - wP(Q'-P')]."""
    return BiPoly.from_linear(*_chi_t_parts(f))


def is_rr0(f: ClassF) -> bool:
    """All roots of chi_F real (constants vacuously)."""
    return is_real_rooted(char_poly(f))


def is_singular(f: ClassF) -> bool:
    """chi_F has a multiple *real* root."""
    chi = char_poly(f)
    if chi.is_constant():
        return False
    g = poly_gcd(chi, chi.derivative())
    if g.is_constant():
        return False
    return count_distinct_real_roots(g) >= 1


# ----------------------------------------------------------------------
# a pencil linear in its parameter


class Pencil:
    """x = a(w) + s b(w), split once as g(w) * (a' + s b'), g = gcd(a, b).

    `content` is the monic g; `a` and `b` are a' = a/g and b' = b/g (a and
    b themselves when g is constant), the parts of the moving part
    a' + s b'; `p` is its w-degree, `lc` its leading coefficient
    a'_p + s b'_p, a Poly in s of degree at most 1, and `tau` the root of
    lc when that degree is 1, else None.  g is tested for real-rootedness
    here, once.

    The moving part's signed subresultant coefficients s_{p-1}, ..., s_0,
    polynomials in s, do not depend on the point: `eliminant` reads s_0
    and `real_rooted_at` signs s_{p-2}, ..., s_0 at an irrational s, all
    from one `subresultants` table that the first of them builds.  The
    table is stored only once built, so an interrupted build leaves none,
    and it keeps its node rows and the entries read so far: a later
    decision on the same pencil pays only for its signs.  The rows are
    p ints each, one per node the table scanned: for a member with
    deg P = deg Q = d and squarefree P, 3d for chi_t (p = 2d) and 2d + 1
    for w P - z Q (p = d + 1), fewer where a node past t = 0 is
    degenerate.  Not meant for concurrent threads.
    """

    __slots__ = ("content", "a", "b", "p", "lc", "tau", "_content_rooted", "_table")

    def __init__(self, a: Poly, b: Poly):
        g = poly_gcd(a, b)
        if not g.is_constant():
            a, b = a.exact_div(g), b.exact_div(g)
        p = max(a.degree, b.degree)
        lc = Poly([a.coeff(p), b.coeff(p)])
        self.content, self.a, self.b, self.p, self.lc = g, a, b, p, lc
        self.tau = -lc.coeff(0) / lc.lc if lc.degree == 1 else None
        self._content_rooted = is_real_rooted(g)
        self._table = None

    def _s(self, j: int) -> Poly:
        """s_j of the moving part, from the pencil's table, built on first use."""
        if self._table is None:
            self._table = subresultants(BiPoly.from_linear(self.a, self.b))
        return self._table(j)

    def eliminant(self) -> Poly:
        """Squarefree Res_w(x, x_w) of the moving part x, less its artifact.

        The resultant is +-s_0, read from the pencil's subresultant table,
        which a later irrational decision reads too.  Where lc(x) vanishes
        (at tau), so does that of x_w: the Sylvester matrix gets a zero
        column and the resultant vanishes there whether or not x has a
        multiple root.  tau is kept only if x specialized there really has
        one.  A moving part constant in w has no multiple roots: its
        eliminant is 1.
        """
        tau = self.tau
        if self.p <= 0:
            return Poly.one()
        raw = self._s(0)
        if raw.is_zero():
            raise DegenerateEliminant("resultant of the pencil and its w-derivative is zero")
        rho = squarefree_part(raw)
        # x(tau) != 0: else A = -tau B, a content that the split took out
        if tau is not None and rho(tau) == 0 and is_squarefree(self.a + self.b * tau):
            rho = rho.exact_div(Poly([-tau, 1]))
        return rho

    def criticals(self, lo, hi) -> list:
        """Ascending [AlgebraicReal, kind] pairs in (lo, hi), intervals disjoint
        and strictly inside (lo, hi), for rationals lo < hi.

        kind is 'multiple_root' for a real root of the eliminant,
        'degree_drop' for tau where the moving part drops degree by at least
        two, and 'both' when they coincide.  The eliminant's roots are
        isolated inside (lo, hi) alone (`isolate_real_roots(rho, lo, hi)`),
        so lo may be one of them, as t = 0 is for chi_t (chi_0 = P^2).
        """
        crits = [[r, "multiple_root"] for r in isolate_real_roots(self.eliminant(), lo, hi)]
        tau = self.tau
        if tau is not None and lo < tau < hi and (self.a + self.b * tau).degree <= self.p - 2:
            side = [c[0].compare_rational(tau) for c in crits]
            if 0 in side:
                crits[side.index(0)][1] = "both"
            else:
                crits.insert(side.count(-1), [AlgebraicReal.from_rational(tau), "degree_drop"])
        for i in range(len(crits) - 1):
            crits[i][0], crits[i + 1][0] = crits[i][0].separate(crits[i + 1][0])
        return crits

    def real_rooted_at(self, s) -> bool:
        """Whether x at s (int, Fraction or AlgebraicReal) has only real roots:
        g is, and the moving part at s is.

        A rational s is substituted, as a' + s b' on the parts' ints, and
        `exactalg.is_real_rooted` tests the polynomial it gives.  At an
        irrational s the same rule, `real_rooted_from_signs`, reads the
        moving part x, of degree p in w, from the signs at s of its signed
        principal subresultant coefficients s_j with its w-derivative:
        s_p = lc(x) and s_{p-1} = p lc(x) share the sign `top`, so the scan
        passes top * sign s_j(s) for s_{p-2}, ..., s_0 and stops at the
        first entry of the other sign or at the first zero.  lc(x) is a nonzero
        polynomial of degree at most 1 in s over Q, so it vanishes at no
        irrational s: x keeps degree p there, and the s_j, determinants of
        the generic-degree matrix, are those of x at s.  They come from the
        pencil's table (built here if no eliminant built it first), each
        interpolated in s only when the scan first reads it.  s is narrowed
        once per call, to `s.fenced()`, and lc(x) and the scanned entries
        are signed on that narrower interval (`AlgebraicReal.sign_of`),
        where the mean value bound settles nearly every nonzero sign; a
        zero entry is found by a gcd, and one the bound cannot settle is
        bisected until it can.  The narrowed number is not kept past the
        call.
        """
        if not self._content_rooted:
            return False
        q = s if isinstance(s, (int, Fraction)) else s.as_fraction()
        if q is None:
            s = s.fenced()
            top = s.sign_of(self.lc)
            return real_rooted_from_signs(top * s.sign_of(self._s(j))
                                          for j in range(self.p - 2, -1, -1))
        return is_real_rooted(self.a + self.b * q)


# ----------------------------------------------------------------------
# the multiple-root locus in z


@dataclass(frozen=True)
class NSetResult:
    z_poly: Poly                      # cleaned squarefree eliminant in z
    real_members: tuple               # AlgebraicReal, ascending
    nonreal_pair_count: int

    @property
    def all_real(self) -> bool:
        return self.nonreal_pair_count == 0


def n_set(f: ClassF) -> NSetResult:
    """Eliminate w from {wP - zQ = 0, (wP - zQ)' = 0} and isolate real z."""
    sq = Pencil(Poly.x() * f.P, -f.Q).eliminant()
    if sq.is_constant():
        return NSetResult(sq, (), 0)
    members = tuple(isolate_real_roots(sq))
    pairs, rem = divmod(sq.degree - len(members), 2)
    assert rem == 0
    return NSetResult(sq, members, pairs)


def is_rr(f: ClassF) -> bool:
    return n_set(f).all_real


# ----------------------------------------------------------------------
# critical t values of the free power flow


@dataclass(frozen=True)
class CriticalReport:
    t_lo: Rat
    t_hi: Rat
    criticals: tuple                  # AlgebraicReal, ascending
    kinds: tuple                      # 'multiple_root' | 'degree_drop' | 'both'
    rr0_verdicts: tuple               # Verdict per open interval (len = criticals+1)
    samples: tuple                    # rational sample point per interval


@functools.lru_cache(maxsize=64)
def flow_pencil(f: ClassF) -> Pencil:
    """chi_t's pencil, built once per member from chi_t's two parts and shared.

    Keyed on the frozen ClassF, so equal members built apart share one
    pencil; the 64 most recently used are kept.  `euler.ck_candidates`
    reads one member's pencil back to back; a pool that first scans each
    member's criticals and then decides them in shuffled order, as the
    `algebraic_rr0` benchmark does, reads a pencil again at most 40
    other members later (30-41 members a pool, on nine seeds).  A scan
    that cycles through more than 64 members, as `flow_scan`'s 70 do,
    never finds its pencil.  `critical_ts`,
    `rr0_at_algebraic_t` and `cleaned_critical_eliminant` all read it, so
    chi_t is split once and its subresultant table, which the eliminant
    of `critical_ts` builds, serves every decision at an irrational t0.
    Each kept pencil holds its table's node rows, 3d rows of 2d ints for
    a member with deg P = deg Q = d and squarefree P.  Not meant for
    concurrent threads (see `Pencil`).
    """
    return Pencil(*_chi_t_parts(f))


def cleaned_critical_eliminant(f: ClassF):
    """(g, moving part as a BiPoly, cleaned squarefree resultant in t) of
    chi_t's pencil.

    A by-name accessor over `flow_pencil`: perfbench's tracer wraps it.
    """
    p = flow_pencil(f)
    return p.content, BiPoly.from_linear(p.a, p.b), p.eliminant()


def critical_ts(f: ClassF, t_lo, t_hi) -> CriticalReport:
    """Critical t values in (t_lo, t_hi) plus rr0 verdicts between them.

    Verdicts come from chi_t's pencil at each interval's rational sample;
    a sample at 0 is Yes (delta_0).
    """
    t_lo, t_hi = as_rat(t_lo), as_rat(t_hi)
    if not t_lo < t_hi:
        raise ValueError("need t_lo < t_hi")
    pencil = flow_pencil(f)
    crits = pencil.criticals(t_lo, t_hi)
    bounds_lo = [t_lo] + [c[0].hi for c in crits]
    bounds_hi = [c[0].lo for c in crits] + [t_hi]
    samples = [(a + b) / 2 for a, b in zip(bounds_lo, bounds_hi)]
    verdicts = [Verdict.YES if s == 0 or pencil.real_rooted_at(s) else Verdict.NO
                for s in samples]
    return CriticalReport(t_lo, t_hi,
                          tuple(c[0] for c in crits),
                          tuple(c[1] for c in crits),
                          tuple(verdicts), tuple(samples))


# ----------------------------------------------------------------------
# rr0 at an exact algebraic parameter value


def rr0_at_algebraic_t(f: ClassF, t0) -> Verdict:
    """Real-rootedness of chi_{t0} for an exact algebraic t0, decided exactly.

    chi_{t0} = g * (A + t0 B) for t0 != 0, decided by
    `Pencil.real_rooted_at` on chi_t's pencil.  t0 = 0 is Yes: the zero
    free power is delta_0, whose chi is 1.

    The pencil comes from `flow_pencil`, which keeps the 64 most recently
    used members' pencils.  Each keeps its subresultant table, built by
    the member's `critical_ts` or by the first decision, so a later
    decision on the same member, at any t0, interpolates only the entries
    no earlier read built and otherwise pays only for its signs: one
    narrowing of an irrational t0 (`AlgebraicReal.fenced`), a mean value
    bound per entry, a gcd for each entry that is zero at t0 (s_0 is, at a
    multiple-root critical), and bisection for one the bound cannot settle.
    Not meant for concurrent threads.
    """
    pencil = flow_pencil(f)
    q = t0 if isinstance(t0, (int, Fraction)) else t0.as_fraction()
    return Verdict.YES if q == 0 or pencil.real_rooted_at(t0) else Verdict.NO


# ----------------------------------------------------------------------
# closed-form regions for polynomial R-transforms


def deg3_rr0(a, b, c) -> bool:
    """rr0 test for F = w(1 + a w + b w^2 + c w^3), in closed form."""
    a, b, c = as_rat(a), as_rat(b), as_rat(c)
    return 9 * a**2 * b**2 - 27 * b**3 - 32 * a**3 * c + 108 * a * b * c - 108 * c**2 >= 0


def r3_poly_rr0(b, c) -> bool:
    """rr0 test for R = u w + b w^2 + c w^3 with b > 0: 27 c^2 <= b^3."""
    b, c = as_rat(b), as_rat(c)
    if b <= 0:
        raise ValueError("need b > 0")
    return 27 * c**2 <= b**3


def r4_singular_params(b, v):
    """The (c, d) on the singular curve of R = b w^2 + c w^3 + d w^4."""
    b, v = as_rat(b), as_rat(v)
    return (v * (b - 2 * v**2), v**2 * (b - 3 * v**2) / 3)


def r4_c0_classify(b, d) -> dict:
    """Membership flags for R = b w^2 + d w^4, b > 0."""
    b, d = as_rat(b), as_rat(d)
    if b <= 0:
        raise ValueError("need b > 0")
    return {
        "in_dist": -(b**2) <= 12 * d <= 3 * b**2,
        "in_rr0": -(b**2) <= 12 * d <= 0,
        "on_rr_balloon_top": 4 * d == b**2,
    }


def lb_curve(b, n_samples: int):
    """(c, d) samples of the closed singular curve for fixed b > 0.

    v runs over [-sqrt(b/2), sqrt(b/2)] with rationally under-approximated
    endpoints, mapped through r4_singular_params.
    """
    b = as_rat(b)
    if b <= 0:
        raise ValueError("need b > 0")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    scale = 10**9
    half = b / 2
    vmax = Fraction(math.isqrt(half.numerator * half.denominator * scale**2),
                    half.denominator * scale)
    step = 2 * vmax / (n_samples - 1)
    return [r4_singular_params(b, -vmax + i * step) for i in range(n_samples)]


def cg_region(k3, k4) -> bool:
    """Exact membership of (kappa3, kappa4) in the degree-4 cumulant body.

    The two bounding inequalities involve nested square roots; both are
    decided by sign analysis plus squaring over the rationals, boundary
    points counting as inside.
    """
    x, y = as_rat(k3), as_rat(k4)
    # lower lobe: -1/12 <= y <= 1/36,
    # 54 x^2 <= 4 - 3u + u^(3/2) with u = 1 - 36 y in [0, 4]
    if Fraction(-1, 12) <= y <= Fraction(1, 36):
        u = 1 - 36 * y
        lhs = 54 * x**2 - 4 + 3 * u
        if lhs <= 0 or lhs**2 <= u**3:
            return True
    # upper lobe: 1/36 < y <= 1/4, x^2 + 48 y^2 <= 24 y^(3/2)
    if Fraction(1, 36) < y <= Fraction(1, 4):
        if (x**2 + 48 * y**2) ** 2 <= 576 * y**3:
            return True
    return False
