"""Named distribution families and their exact decomposition catalog.

Construction is always through R-transforms, so every identity here is a
statement about rational functions and is checked exactly.  Square roots
enter only through decomposition *weights* (never through the chi
factorizations, which rationalize into polynomial identities over Q).
Each irrational position or weight is written in closed form p + q*sqrt(d)
with rational p, q and the family's discriminant d, and built as an exact
algebraic number by `_quad_number`; the R-transform identities for them
are still proved exactly over Q(sqrt(d)), by splitting every R sum into a
rational part and a sqrt(d) part.
"""
from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .classf import (ClassF, RatFun, char_poly, compose, from_r, make_classf,
                     make_ratfun, r_transform)
from .errors import DecompositionNotReal
from .exactalg import AlgebraicReal, Poly, Rat, as_rat

_W = Poly.x()


# ----------------------------------------------------------------------
# the three building blocks


def dirac(u) -> ClassF:
    """Point mass at u: F = w/(1 + u w)."""
    return make_classf(Poly.one(), Poly([1, as_rat(u)]))


def wigner(t) -> ClassF:
    """Semicircle of variance t > 0: F = w/(1 + t w^2)."""
    t = as_rat(t)
    if t <= 0:
        raise ValueError("need t > 0")
    return make_classf(Poly.one(), Poly([1, 0, t]))


def mp(v, t) -> ClassF:
    """Marchenko-Pastur with scale v != 0 and shape t > 0."""
    v, t = as_rat(v), as_rat(t)
    if v == 0:
        raise ValueError("need v != 0")
    if t <= 0:
        raise ValueError("need t > 0")
    return make_classf(Poly([1, -v]), Poly([1, -v + t * v]))


def mp_moment(v, t, n: int) -> Rat:
    """Closed form: v^n * sum_k C(n,k-1) C(n-1,k-1) t^k / k (Narayana weights)."""
    v, t = as_rat(v), as_rat(t)
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return Rat(1)
    return v**n * sum(
        (Rat(math.comb(n, k - 1) * math.comb(n - 1, k - 1)) * t**k / k
         for k in range(1, n + 1)), Rat(0))


def wigner_moment(t, n: int) -> Rat:
    """Even moments are Catalan numbers times t^m; odd moments vanish."""
    t = as_rat(t)
    if n < 0:
        raise ValueError("need n >= 0")
    if n % 2:
        return Rat(0)
    m = n // 2
    return Rat(math.comb(2 * m + 1, m), 2 * m + 1) * t**m


def dirac_moment(u, n: int) -> Rat:
    return as_rat(u) ** n


# ----------------------------------------------------------------------
# freely infinitely divisible laws


class LevyData(Record):
    """Parameters (drift, semicircular weight, point-mass atoms) of a FID law.

    A frozen `Record`, not a dataclass (see `fcl._record`).
    """

    __slots__ = ("u", "c0", "atoms")   # atoms: ((u_k, c_k), ...), u_k distinct nonzero, c_k > 0

    def __post_init__(self):
        object.__setattr__(self, "u", as_rat(self.u))
        object.__setattr__(self, "c0", as_rat(self.c0))
        object.__setattr__(self, "atoms",
                           tuple((as_rat(a), as_rat(c)) for a, c in self.atoms))
        if self.c0 < 0:
            raise ValueError("semicircular weight must be >= 0")
        us = [a for a, _ in self.atoms]
        if any(a == 0 for a in us) or len(set(us)) != len(us):
            raise ValueError("atom positions must be distinct and nonzero")
        if any(c <= 0 for _, c in self.atoms):
            raise ValueError("atom weights must be > 0")


def levy_r(data: LevyData) -> RatFun:
    """R = u w + c0 w^2 + sum_k c_k u_k w / (1 - u_k w), exactly."""
    r = make_ratfun(Poly([0, data.u, data.c0]), Poly.one())
    for a, c in data.atoms:
        r = r + make_ratfun(Poly([0, c * a]), Poly([1, -a]))
    return r


def from_levy(data: LevyData) -> ClassF:
    return from_r(levy_r(data))


# ----------------------------------------------------------------------
# deconvolution families (singular elements with factored chi)


def _record(f: ClassF, claimed: Poly, check: str = "chi_check", atoms=None) -> dict:
    """A catalog entry: F, its chi, the closed form claimed for chi and,
    under the key `check`, their exact equality; with `atoms`, also the
    decomposition and its exact R-transform identity check."""
    chi = char_poly(f)
    rec = {"f": f, "chi": chi, "chi_claimed": claimed, check: chi == claimed}
    if atoms is not None:
        rec["decomposition"] = atoms
        rec["identity_check"] = check_r_identity(atoms, f)
    return rec


def deconv_wmp(u, x) -> dict:
    """Signed Wigner + Marchenko-Pastur combination with factored chi.

    R = u^2 x^3 w^2 + (1-x)^3 u w / (1 - u w); the returned flag records
    the exact equality chi = (1-uxw)^2 (1 - 2uw + 2uxw - u^2 x w^2).
    Degenerate parameter choices that drop F's degree make the closed
    form inapplicable and the flag False.
    """
    u, x = as_rat(u), as_rat(x)
    if u == 0:
        raise ValueError("need u != 0")
    a, b = u**2 * x**3, (1 - x) ** 3
    r = make_ratfun(Poly([0, 0, a]) * Poly([1, -u]) + Poly([0, b * u]), Poly([1, -u]))
    claimed = Poly([1, -u * x]) ** 2 * Poly([1, -2 * u + 2 * u * x, -(u**2) * x])
    return _record(from_r(r), claimed, "chi_factored_check")


def deconv_mpmp(u, v, x) -> dict:
    """Signed combination of two Marchenko-Pastur laws with factored chi."""
    u, v, x = as_rat(u), as_rat(v), as_rat(x)
    if u == 0 or v == 0 or u == v:
        raise ValueError("need u, v nonzero and distinct")
    a = (u - x) ** 3 / (u**2 * (u - v))
    b = (v - x) ** 3 / (v**2 * (v - u))
    num = Poly([0, a * u]) * Poly([1, -v]) + Poly([0, b * v]) * Poly([1, -u])
    r = make_ratfun(num, Poly([1, -u]) * Poly([1, -v]))
    claimed = Poly([1, -x]) ** 2 * Poly([1, 2 * (x - u - v), 3 * u * v - x * u - x * v])
    return _record(from_r(r), claimed, "chi_factored_check")


# ----------------------------------------------------------------------
# decomposition atoms (weights may be negative: free deconvolution)


class Atom(Record):
    """One signed component of an R-transform decomposition.

    A frozen `Record`, not a dataclass (see `fcl._record`).
    """

    __slots__ = ("kind", "params")   # kind: dirac | wigner | mp | rpoly | rfun


def check_r_identity(atoms, f: ClassF) -> bool:
    """Does the decomposition's R sum reproduce r_transform(f)?

    Exact for every decomposition, proved over Q(sqrt(d)): each numeric
    parameter is written as p + q*sqrt(d) for one radicand d, and each atom's
    R contribution is split into a rational part and a sqrt(d) part over Q
    (an mp term c*a*w/(1 - a*w) through the conjugate 1 - a'*w of its
    denominator).  The identity holds iff the sqrt(d) part is 0 and the
    rational part equals r_transform(f).  A parameter outside every
    quadratic field, or in a second one, raises ValueError.  So does a
    quadratic irrational whose `defining` polynomial is not quadratic, such
    as sqrt(2) isolated as a root of (x^2 - 2)(x^2 - 3).
    """
    rat_part = sqrt_part = RatFun(Poly.zero(), Poly.one())
    numeric = []
    for a in atoms:
        if a.kind == "rpoly":
            rat_part = rat_part + RatFun(a.params[0], Poly.one())
        elif a.kind == "rfun":
            rat_part = rat_part + a.params[0]
        elif a.kind in ("dirac", "wigner", "mp"):
            numeric.append((a.kind, [_quad_parts(x) for x in a.params]))
        else:
            raise ValueError(f"unknown atom kind {a.kind!r}")
    # the first irrational parameter fixes d; with none, every q is 0
    d = next((disc for _, parts in numeric for _, disc, s in parts if s), Rat(1))
    for kind, parts in numeric:
        (p, q), *weight = [_in_quad_field(part, d) for part in parts]
        if kind == "mp":
            (cp, cq), = weight
            norm = p * p - q * q * d
            # c x w / (1 - x w) = c x w (1 - x' w) / (1 - 2 p w + norm w^2)
            rat = [0, cp * p + cq * q * d, -cp * norm]
            sq = [0, cp * q + cq * p, -cq * norm]
            den = Poly([1, -2 * p, norm])
        else:  # dirac: x w; wigner: x w^2
            shift = [0] * (1 if kind == "dirac" else 2)
            rat, sq, den = shift + [p], shift + [q], Poly.one()
        rat_part = rat_part + make_ratfun(Poly(rat), den)
        sqrt_part = sqrt_part + make_ratfun(Poly(sq), den)
    return sqrt_part.num.is_zero() and rat_part == r_transform(f)


def _quad_parts(x):
    """(p, D, s) with x = p + s*sqrt(D) and s in {-1, 0, 1}; s = 0 iff x is rational."""
    if not isinstance(x, AlgebraicReal):
        return as_rat(x), Rat(0), 0
    if x.as_fraction() is not None:
        return x.as_fraction(), Rat(0), 0
    m = x.defining
    if m.degree != 2:
        raise ValueError(f"{x!r} is not in a quadratic field")
    c, b, _ = (k / m.lc for k in m.coeffs)
    p = -b / 2
    disc, s = p * p - c, x.compare_rational(p)
    root = _sqrt_rat(disc)
    if root is not None:
        return p + s * root, Rat(0), 0
    return p, disc, s


def _in_quad_field(parts, d):
    """(p, q) with x = p + q*sqrt(d), from x's `_quad_parts`; ValueError
    when x lies outside Q(sqrt(d))."""
    p, disc, s = parts
    if s == 0:
        return p, Rat(0)
    q = _sqrt_rat(disc / d)
    if q is None:
        raise ValueError(f"sqrt({disc}) is not in Q(sqrt({d}))")
    return p, s * q


def _quad_number(p: Rat, q: Rat, d: Rat):
    """p + q*sqrt(d) for rationals p, q and d > 0: a Fraction when q = 0 or
    d is a square, else the AlgebraicReal root of x^2 - 2p x + p^2 - q^2 d
    on p + q*[lo, hi], where lo <= sqrt(d) < hi = lo + 2^-32/den(d).

    That interval always isolates the root.  Take q > 0: p + q*sqrt(d)
    lies in it, and the conjugate p - q*sqrt(d) lies below p <= p + q*lo,
    as lo >= 0 > -sqrt(d).  q < 0 is the mirror image.
    """
    if q == 0:
        return p
    root = _sqrt_rat(d)
    if root is not None:
        return p + q * root
    m = d.denominator
    r = math.isqrt(d.numerator * m << 64)
    lo, hi = Fraction(r, m << 32), Fraction(r + 1, m << 32)
    ends = sorted((p + q * lo, p + q * hi))
    return AlgebraicReal(Poly([p * p - q * q * d, -2 * p, 1]), *ends)


def _sqrt_rat(x: Rat):
    """Exact rational square root, or None."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


# ----------------------------------------------------------------------
# monotone convolution catalog


def monotone_family(kind: str, *args, **params) -> dict:
    """Composition families with exact decompositions and, but for the two
    dirac kinds, exact chi factorizations.

    kind: 'wmp'  = semicircle into MP      (params t, v, s)
          'mpw'  = MP into semicircle      (params v, s, t)
          'mpmp' = MP into MP              (params u, s, v, t)
          'ww'   = semicircle into semicircle (params s, t)
          'dirac-w'  = delta_u into semicircle (params u, t)
          'dirac-mp' = delta_u into MP         (params u, v, t)
    The parameters go by name or by position, in the order listed.
    F is the composition F_second(F_first(w)); chi_check records the exact
    polynomial equality against the rationalized closed form (the two
    dirac kinds have all-rational decompositions and no chi).  Raises
    DecompositionNotReal when the signed decomposition would need complex
    weights (the chi information is still available through compose and
    char_poly directly).
    """
    family = _MONOTONE.get(kind)
    if family is None:
        raise ValueError(f"unknown monotone kind {kind!r}")
    return family(*args, **params)


def _monot_wmp(t, v, s) -> dict:
    t, v, s = as_rat(t), as_rat(v), as_rat(s)
    f = compose(mp(v, s), wigner(t))
    base = Poly([1, -v, t])
    claimed = Poly([1, 0, -t]) * (base * base - Poly([0, v]) ** 2 * s)
    d = v * v - 4 * t
    if d <= 0:
        raise DecompositionNotReal(
            "the semicircle-into-MP decomposition needs v^2 > 4t")
    # positions (v -+ sqrt(d))/2 with product t; their weights
    # s v^2/(v_i (v_i - v_j)) = -k -+ (k v/d) sqrt(d)
    k = s * v**2 / (2 * t)
    atoms = [Atom("dirac", (s * v,)), Atom("wigner", (t,)),
             Atom("mp", (_quad_number(v / 2, Rat(-1, 2), d), _quad_number(-k, -k * v / d, d))),
             Atom("mp", (_quad_number(v / 2, Rat(1, 2), d), _quad_number(-k, k * v / d, d)))]
    return _record(f, claimed, atoms=atoms)


def _monot_mpw(v, s, t) -> dict:
    v, s, t = as_rat(v), as_rat(s), as_rat(t)
    f = compose(wigner(t), mp(v, s))
    a = Poly([1, -v * (1 - s)])
    b = Poly([0, 1, -v])  # w(1 - vw)
    claimed = Poly([1, -2 * v, v**2 * (1 - s)]) * (a * a - t * b * b)
    if s == 1:
        atoms = [Atom("rpoly", (Poly([0, 0, t, -t * v]),)), Atom("mp", (v, Rat(1)))]
    else:
        atoms = [Atom("dirac", (s * t / ((1 - s) ** 2 * v),)),
                 Atom("wigner", (t / (1 - s),)),
                 Atom("mp", (v, s)),
                 Atom("mp", (v * (1 - s), s * t / ((s - 1) ** 3 * v**2)))]
    return _record(f, claimed, atoms=atoms)


def _monot_mpmp(u, s, v, t) -> dict:
    u, s, v, t = as_rat(u), as_rat(s), as_rat(v), as_rat(t)
    f = compose(mp(v, t), mp(u, s))
    a = Poly([1, -u * (1 - s)])
    b = Poly([0, v]) * Poly([1, -u])  # vw(1 - uw)
    claimed = Poly([1, -2 * u, u**2 * (1 - s)]) * ((a - b) * (a - b) - t * b * b)
    sigma = u - s * u + v
    d = sigma**2 - 4 * u * v
    if d <= 0:
        raise DecompositionNotReal(
            "the MP-into-MP decomposition needs (u - su + v)^2 > 4uv")
    # positions (sigma -+ sqrt(d))/2 with product uv; their weights p +- q sqrt(d)
    p = t * (1 - s) / 2
    q = t * ((1 - s) ** 2 * u - (1 + s) * v) / (2 * d)
    atoms = [Atom("mp", (u, s)),
             Atom("mp", (_quad_number(sigma / 2, Rat(-1, 2), d), _quad_number(p, q, d))),
             Atom("mp", (_quad_number(sigma / 2, Rat(1, 2), d), _quad_number(p, -q, d)))]
    return _record(f, claimed, atoms=atoms)


def _monot_ww(s, t) -> dict:
    s, t = as_rat(s), as_rat(t)
    f = compose(wigner(t), wigner(s))
    a = Poly([1, 0, s])
    claimed = Poly([1, 0, -s]) * (a * a - Poly([0, 0, t]))
    atoms = [Atom("wigner", (s,)),
             Atom("rfun", (make_ratfun(Poly([0, 0, t]), Poly([1, 0, s])),))]
    return _record(f, claimed, atoms=atoms)


def _monot_dirac_w(u, t) -> dict:
    """delta_u into the semicircle: delta_{(t+u^2)/u} + MP(-u, t/u^2)."""
    u, t = as_rat(u), as_rat(t)
    if u == 0:
        raise ValueError("need u != 0")
    f = compose(wigner(t), dirac(u))
    atoms = [Atom("dirac", ((t + u**2) / u,)), Atom("mp", (-u, t / u**2))]
    return {"f": f, "decomposition": atoms, "identity_check": check_r_identity(atoms, f)}


def _monot_dirac_mp(u, v, t) -> dict:
    """delta_u into MP: a point mass and a semicircle when v == u, else a
    point mass and an MP law."""
    u, v, t = as_rat(u), as_rat(v), as_rat(t)
    if u == 0:
        raise ValueError("need u != 0")
    f = compose(mp(v, t), dirac(u))
    if v == u:
        atoms = [Atom("dirac", ((1 + t) * u,)), Atom("wigner", (t * u**2,))]
    else:
        atoms = [Atom("dirac", (u * (v - u - t * v) / (v - u),)),
                 Atom("mp", (v - u, t * v**2 / (v - u) ** 2))]
    return {"f": f, "decomposition": atoms, "identity_check": check_r_identity(atoms, f)}


_MONOTONE = {"wmp": _monot_wmp, "mpw": _monot_mpw, "mpmp": _monot_mpmp, "ww": _monot_ww,
             "dirac-w": _monot_dirac_w, "dirac-mp": _monot_dirac_mp}


# ----------------------------------------------------------------------
# the even family with polynomial R = (1 + w^2)^r - 1


def fuss_f(r: int) -> ClassF:
    if r < 1:
        raise ValueError("need r >= 1")
    rp = Poly([1, 0, 1]) ** r - Poly.one()
    return from_r(make_ratfun(rp, Poly.one()))


def fuss_chi(r: int) -> Poly:
    """Closed form (1 + w^2 - 2r w^2)(1 + w^2)^(r-1)."""
    if r < 1:
        raise ValueError("need r >= 1")
    return Poly([1, 0, 1 - 2 * r]) * Poly([1, 0, 1]) ** (r - 1)


def fuss_moment(r: int, n: int) -> Rat:
    """Even moments C(2mr + r, m) * r / (2mr + r); odd moments zero."""
    if r < 1:
        raise ValueError("need r >= 1")
    if n < 0:
        raise ValueError("need n >= 0")
    if n % 2:
        return Rat(0)
    m = n // 2
    return Rat(math.comb(2 * m * r + r, m) * r, 2 * m * r + r)
