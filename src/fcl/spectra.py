"""Characteristic polynomials, the multiple-root locus, and phase transitions.

chi_F = (P + wP')Q - wPQ' is the numerator of F'; its real-rootedness is
the strong (rr0) membership test.  The weaker rr test asks that every z
for which wP - zQ acquires a multiple root is real; that set is cut out by
a resultant in z, cleaned of artifacts introduced by leading-coefficient
collapse of the generic Sylvester matrix.

chi_t, the characteristic polynomial of the free power flow, is linear in
t.  Its t-independent factor g = gcd of the two pencil parts is split off
before eliminating w: g cannot create or destroy transitions (it is the
same polynomial at every t), while leaving it in would make the resultant
vanish identically whenever g has a multiple root.  Critical t values are
then the real roots of the cleaned eliminant (multiple-root kind) together
with parameter values where the moving part drops degree by at least two.

Every rr0 verdict on the flow is read off the same split: for t != 0 the
free power has chi = g * (A + tB), real-rooted iff g is (tested once) and
the moving part at t is.  A rational t is substituted.  At an irrational
t0 the moving part x, of degree p in w at t0, is real-rooted iff its
signed principal subresultant coefficients s_p, ..., s_d with its
w-derivative are all nonzero at t0 with one sign, d being the smallest j
with s_j(t0) != 0 (their permanences minus variations then reach p - d).
s_p = lc(x) and s_{p-1} = p lc(x) share one sign, so a scan from s_{p-2}
down, each entry interpolated in t and signed at t0 only when reached,
stops at the first entry of the other sign or at the first zero.  Each
entry costs only its own nodes: s_j is interpolated from
(2p - 1 - 2j) deg_t x + 1 of them, and each node's subresultant PRS runs
a pseudo-division only when the scan reads the entry that needs it.  Its
sign at t0 is one Tarski query, P' s_j reduced mod t0's defining
polynomial P before the chain is built, so the chain starts below deg P.
At t = 0 the free power is delta_0, whose chi is 1, not chi_t(0) = P^2:
the verdict there is Yes.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .classf import ClassF
from .errors import DegenerateEliminant
from .exactalg import (AlgebraicReal, BiPoly, Poly, Rat, as_rat,
                       count_distinct_real_roots, is_real_rooted,
                       is_real_rooted_at, isolate_real_roots, poly_gcd,
                       resultant_w, squarefree_part)


class Verdict(Enum):
    YES = "yes"
    NO = "no"


# ----------------------------------------------------------------------
# characteristic polynomials


def char_poly(f: ClassF) -> Poly:
    """chi_F = (P + wP')Q - wPQ'; always has constant term 1."""
    w = Poly.x()
    return (f.P + w * f.P.derivative()) * f.Q - w * f.P * f.Q.derivative()


def char_poly_t(f: ClassF) -> BiPoly:
    """chi of the free power flow: P^2 + t[(P+wP')(Q-P) - wP(Q'-P')]."""
    w = Poly.x()
    p, q = f.P, f.Q
    a = p * p
    b = (p + w * p.derivative()) * (q - p) - w * p * (q.derivative() - p.derivative())
    return BiPoly.from_linear(a, b)


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


def boundary_diagnostics(f: ClassF) -> dict:
    """Degree deficiency and singularity flags for boundary analysis."""
    chi = char_poly(f)
    deficient = chi.degree <= f.P.degree + f.Q.degree - 2
    return {"degree_deficient": deficient, "singular": is_singular(f),
            "chi_degree": chi.degree}


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


def _clean_eliminant(x: BiPoly) -> Poly:
    """Squarefree Res_w(x, x_w) of a pencil x, less its leading-collapse artifact.

    Where the leading coefficient of x (linear in the parameter) vanishes,
    so does that of x_w: the Sylvester matrix gets a zero column and the
    resultant vanishes there whether or not x has a multiple root.  That
    root is kept only if x specialized there really has one.  A pencil
    constant in w has no multiple roots: its eliminant is 1.
    """
    if x.degree_w <= 0:
        return Poly.one()
    raw = resultant_w(x, x.deriv_w())
    if raw.is_zero():
        raise DegenerateEliminant("resultant of the pencil and its w-derivative is zero")
    rho = squarefree_part(raw)
    lc = x.lc_poly
    if lc.degree == 1:
        tau = -lc.coeff(0) / lc.lc
        xt = x.eval_param(tau)
        if rho(tau) == 0 and (xt.is_constant() or poly_gcd(xt, xt.derivative()).is_constant()):
            rho = rho.exact_div(Poly([-tau, 1]))
    return rho


def n_set(f: ClassF) -> NSetResult:
    """Eliminate w from {wP - zQ = 0, (wP - zQ)' = 0} and isolate real z."""
    sq = _clean_eliminant(BiPoly.from_linear(Poly.x() * f.P, -f.Q))
    if sq.is_constant():
        return NSetResult(sq, (), 0)
    members = tuple(isolate_real_roots(sq))
    pairs, rem = divmod(sq.degree - len(members), 2)
    assert rem == 0
    return NSetResult(sq, members, pairs)


def is_rr(f: ClassF) -> bool:
    return n_set(f).nonreal_pair_count == 0


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


def moving_part(x: BiPoly):
    """Split chi_t = g(w) * (A + tB) with g the t-independent content."""
    a = Poly([c.coeff(0) for c in x.wcoeffs])
    b = Poly([c.coeff(1) for c in x.wcoeffs])
    if x.max_param_degree() > 1:
        raise ValueError("pencil expected to be linear in the parameter")
    g = poly_gcd(a, b)
    if g.is_constant():
        # rebuilding x here would cost about 5% of an irrational rr0 decision
        return Poly.one(), x
    return g, BiPoly.from_linear(a.exact_div(g), b.exact_div(g))


def cleaned_critical_eliminant(f: ClassF):
    """(g, moving part, cleaned squarefree resultant in t).

    A constant moving part (chi_t does not actually move) has no critical
    values; the eliminant degenerates to 1.
    """
    g, xh = moving_part(char_poly_t(f))
    return g, xh, _clean_eliminant(xh)


def critical_ts(f: ClassF, t_lo, t_hi) -> CriticalReport:
    """Critical t values in (t_lo, t_hi) plus rr0 verdicts between them.

    Verdicts come from chi_t = g * (A + tB): g is tested once, the moving
    part at each interval's rational sample; a sample at 0 is Yes (delta_0).
    """
    t_lo, t_hi = as_rat(t_lo), as_rat(t_hi)
    if not t_lo < t_hi:
        raise ValueError("need t_lo < t_hi")
    g, xh, rho = cleaned_critical_eliminant(f)

    crits = []
    if not rho.is_constant():
        for r in isolate_real_roots(rho):
            r2 = r.refine_inside(t_lo, t_hi)
            if r2 is not None:
                crits.append([r2, "multiple_root"])

    # degree drops by >= 2: top coefficient root where the next one vanishes too
    lc = xh.lc_poly
    if lc.degree == 1:
        tau = -lc.coeff(0) / lc.lc
        if t_lo < tau < t_hi and xh.eval_param(tau).degree <= xh.degree_w - 2:
            side = [c[0].compare_rational(tau) for c in crits]
            if 0 in side:
                crits[side.index(0)][1] = "both"
            else:
                crits.insert(side.count(-1), [AlgebraicReal.from_rational(tau), "degree_drop"])

    crits = _disjoint(crits)

    g_rooted = is_real_rooted(g)
    bounds_lo = [t_lo] + [c[0].hi for c in crits]
    bounds_hi = [c[0].lo for c in crits] + [t_hi]
    samples = [(a + b) / 2 for a, b in zip(bounds_lo, bounds_hi)]
    verdicts = [_flow_verdict(g_rooted, xh, s) for s in samples]

    return CriticalReport(t_lo, t_hi,
                          tuple(c[0] for c in crits),
                          tuple(c[1] for c in crits),
                          tuple(verdicts), tuple(samples))


def _disjoint(crits):
    """Refine consecutive criticals until their intervals are disjoint."""
    for i in range(len(crits) - 1):
        crits[i][0], crits[i + 1][0] = crits[i][0].separate(crits[i + 1][0])
    return crits


# ----------------------------------------------------------------------
# rr0 at an exact algebraic parameter value


def rr0_at_algebraic_t(f: ClassF, t0) -> Verdict:
    """Real-rootedness of chi_{t0} for an exact algebraic t0, decided exactly.

    chi_{t0} = g * (A + t0 B) for t0 != 0: g is tested over Q, the moving
    part by substitution at a rational t0 and otherwise by a top-down scan
    of the signs at t0 of its signed subresultant coefficients
    (exactalg.is_real_rooted_at): s_p = lc and s_{p-1} = p lc give the
    sign the rest must keep, down to the first zero, below which every
    entry must vanish.  t0 = 0 is Yes: the zero free power is delta_0,
    whose chi is 1.
    """
    g, xh = moving_part(char_poly_t(f))
    return _flow_verdict(is_real_rooted(g), xh, t0)


def _flow_verdict(g_rooted: bool, xh: BiPoly, t0) -> Verdict:
    """rr0 of the free power at t0 (int, Fraction or AlgebraicReal).

    g_rooted says whether g is real-rooted.  At t0 = 0 the power is delta_0.
    """
    q = t0 if isinstance(t0, (int, Fraction)) else t0.as_fraction()
    if q == 0:
        return Verdict.YES
    if not g_rooted:
        return Verdict.NO
    if q is None:
        rooted = is_real_rooted_at(xh.wcoeffs, t0)
    else:
        rooted = is_real_rooted(xh.eval_param(q))
    return Verdict.YES if rooted else Verdict.NO


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
    import math as _math
    b = as_rat(b)
    if b <= 0:
        raise ValueError("need b > 0")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    scale = 10**9
    half = b / 2
    vmax = Fraction(_math.isqrt(half.numerator * half.denominator * scale**2),
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
