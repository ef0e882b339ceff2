"""The class of rational functions F(w) = w*P(w)/Q(w) and its operation algebra.

Members are normalized pairs (P, Q) with P(0) = Q(0) = 1 and gcd(P, Q)
constant.  The R-transform R = w/F - 1 = (Q - P)/P linearizes free
convolution; composition of F-functions realizes monotone convolution.

Moments are extracted by two independent routes (Newton series inversion
of F, and M*P(zM) = Q(zM), i.e. F(zM) = z, solved one coefficient at a
time) which must agree exactly; a mismatch raises, it is never papered
over.  Each costs O(D n^2) to order n, D = max(deg P, deg Q).  Both
routes, and the cumulants, run on integers: the dilation F(c w)/c by a c
with den_i | c^i (`_dilation`), den_i the lcm of the denominators of the
w^i coefficients, has integer P(c w), Q(c w) and scales the k-th moment
and cumulant by c^k, which one division per term undoes.
"""
from __future__ import annotations

import math
from itertools import zip_longest
from operator import mul

from ._record import Record
from .errors import ComputationError, InvalidRTransform, NotInClass
from .exactalg import Poly, Rat, as_rat, poly_gcd
from .series import invert_f_series, ser_div, ser_trunc


class ClassF(Record):
    """Normalized representation of F(w) = w*P(w)/Q(w).

    A frozen `Record`, not a dataclass (see `fcl._record`); hashable, so
    it keys `spectra.flow_pencil`'s memo.
    """

    __slots__ = ("P", "Q")

    def __repr__(self):
        num = f"w*({self.P.to_str()})" if self.P != Poly.one() else "w"
        if self.Q == Poly.one():
            return f"ClassF({num})"
        return f"ClassF({num}/({self.Q.to_str()}))"

    def eval(self, w):
        """Numeric evaluation (float/complex welcome)."""
        return w * self.P(w) / self.Q(w)


class RatFun(Record):
    """Reduced rational function num/den with den(0) != 0.

    A frozen `Record`, not a dataclass (see `fcl._record`).  Equality is
    that of the functions, so the hash is that of the reduced form with a
    monic den.
    """

    __slots__ = ("num", "den")

    def __repr__(self):
        if self.den == Poly.one():
            return f"RatFun({self.num.to_str()})"
        return f"RatFun(({self.num.to_str()})/({self.den.to_str()}))"

    def eval(self, w):
        return self.num(w) / self.den(w)

    def __add__(self, other: "RatFun") -> "RatFun":
        return make_ratfun(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    def __sub__(self, other: "RatFun") -> "RatFun":
        return make_ratfun(self.num * other.den - other.num * self.den,
                           self.den * other.den)

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        g = poly_gcd(self.num, self.den)
        num, den = self.num.exact_div(g), self.den.exact_div(g)
        return hash((num * (1 / den.coeffs[-1]), den.monic()))


class SeriesPrefix(Record):
    """A prefix of a rational sequence: terms[n] is the n-th element.

    A frozen `Record`, not a dataclass (see `fcl._record`).
    """

    __slots__ = ("terms", "kind")
    _defaults = {"kind": "generic"}  # moments | cumulants | generic

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(as_rat(t) for t in self.terms))
        if self.kind == "moments" and self.terms and self.terms[0] != 1:
            raise ValueError("moment prefix must start with 1")
        if self.kind == "cumulants" and self.terms and self.terms[0] != 0:
            raise ValueError("cumulant prefix must start with 0")

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, i):
        return self.terms[i]


def make_ratfun(num: Poly, den: Poly) -> RatFun:
    """Reduce num/den; den may not vanish at 0 (or be zero)."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return RatFun(Poly.zero(), Poly.one())
    g = poly_gcd(num, den)
    if not g.is_constant():
        num, den = num.exact_div(g), den.exact_div(g)
    if den(0) == 0:
        raise ValueError("denominator vanishes at 0")
    c = 1 / den.coeffs[0]
    return RatFun(num * c, den * c)


def make_classf(p_in: Poly, q_in: Poly) -> ClassF:
    """Normalize (P, Q): remove the common factor, rescale constant terms to 1.

    The pair represents the *function* w*p_in/q_in, so after reduction the
    constant terms must coincide (F'(0) = 1); otherwise the function is not
    in the class.
    """
    if p_in.is_zero() or q_in.is_zero():
        raise NotInClass("P and Q must be nonzero")
    if p_in(0) == 0 or q_in(0) == 0:
        raise NotInClass("P(0) and Q(0) must be nonzero")
    g = poly_gcd(p_in, q_in)
    if not g.is_constant():
        p_in, q_in = p_in.exact_div(g), q_in.exact_div(g)
    if p_in(0) != q_in(0):
        raise NotInClass("F'(0) != 1: constant terms differ after reduction")
    c = 1 / p_in(0)
    return ClassF(p_in * c, q_in * c)


def r_transform(f: ClassF) -> RatFun:
    """R(w) = w/F(w) - 1 = (Q - P)/P, reduced; R(0) = 0."""
    return make_ratfun(f.Q - f.P, f.P)


def from_r(r: RatFun) -> ClassF:
    """The class member with R-transform r: F = w/(1 + R)."""
    if r.num(0) != 0:
        raise InvalidRTransform("R(0) must be 0")
    if r.den(0) == 0:
        raise InvalidRTransform("R must be finite at 0")
    return make_classf(r.den, r.den + r.num)


def char_poly(f: ClassF) -> Poly:
    """chi_F = (P + wP')Q - wPQ', the numerator of F'; its constant term is 1."""
    w = Poly.x()
    return (f.P + w * f.P.derivative()) * f.Q - w * f.P * f.Q.derivative()


def translate(f: ClassF, u) -> ClassF:
    """F/(1 + u F): adds u*w to the R-transform."""
    u = as_rat(u)
    w = Poly.x()
    return make_classf(f.P, f.Q + u * w * f.P)


def dilate(f: ClassF, c) -> ClassF:
    """F(c w)/c: R-transform becomes R(c w), moments scale by c^n."""
    c = as_rat(c)
    if c == 0:
        raise ValueError("dilation by 0")
    return make_classf(f.P.scale_arg(c), f.Q.scale_arg(c))


def boxplus(f1: ClassF, f2: ClassF) -> ClassF:
    """Free convolution: R-transforms add."""
    num = f1.P * f2.P
    den = f1.P * f2.Q + f2.P * f1.Q - f1.P * f2.P
    return make_classf(num, den)


def free_power(f: ClassF, t) -> ClassF:
    """Free power: R-transform scales by t (any rational t)."""
    t = as_rat(t)
    return make_classf(f.P, f.P + t * (f.Q - f.P))


def compose(f2: ClassF, f1: ClassF) -> ClassF:
    """F2(F1(w)), the class member of the monotone convolution mu1 |> mu2.

    Substituting F1 = w*P1/Q1 into F2 = y*P2(y)/Q2(y) and clearing with
    Q1^D, D = max(deg P2, deg Q2), gives
    F2(F1) = w * (P1 * P2^h) / (Q1 * Q2^h) with X^h the homogenized X(F1).
    """
    d = max(f2.P.degree, f2.Q.degree, 0)
    return make_classf(f1.P * _homogenized(f2.P, f1, d),
                       f1.Q * _homogenized(f2.Q, f1, d))


def _homogenized(p: Poly, f: ClassF, d: int) -> Poly:
    """Q1^d * p(w*P1/Q1) as a polynomial (d >= deg p)."""
    y = Poly.x() * f.P
    acc = Poly.zero()
    for i, c in enumerate(p.coeffs):
        acc = acc + c * y**i * f.Q ** (d - i)
    return acc


def moments(f: ClassF, n: int) -> SeriesPrefix:
    """Exact moments s_0..s_n by two independent routes; must agree.

    The terms are the integers of `dilated_moments`, each divided, once,
    by c^k.
    """
    return _undilated(*dilated_moments(f, n), "moments")


def dilated_moments(f: ClassF, n: int):
    """(a, c): the ints a_k = c^k s_k, k = 0..n, and c, by two independent
    routes that must agree.

    Both routes run over Z on the dilation F(c w)/c, whose moments are
    c^k s_k; c has den_i | c^i for every i >= 1, den_i the lcm of the
    denominators of the w^i coefficients of P and Q (`_dilation`), so
    P(c w) and Q(c w) are integer polynomials with constant term 1.
    Route A inverts F(c w)/c as a power series (Newton steps corrected by
    -(F(D) - z) D'); route B solves M*P(z M) = Q(z M), which is
    F(z M(z)) = z, one coefficient at a time
    (`_moments_from_equation`).  The integer lists are compared exactly.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    c, p, q = _dilation(f)
    d = invert_f_series(p, q, n + 1)
    s_a = d[1: n + 2]
    s_b = _moments_from_equation(p, q, n)
    if s_a != s_b:
        raise ComputationError(
            "moment extraction routes disagree: series inversion vs M*P(zM) = Q(zM)")
    return s_a, c


def _undilated(a, c: int, kind: str) -> SeriesPrefix:
    """The prefix of kind `kind` with terms a[k] / c^k."""
    return SeriesPrefix(tuple(Rat(x, c**k) for k, x in enumerate(a)), kind)


# Trial division looks for the prime factors of the denominators below this.
_TRIAL_BOUND = 1 << 10


def _dilation(f: ClassF):
    """(c, p, q): a c >= 1 with den_i | c^i for every i >= 1, and the
    integer coefficient lists of P(c w) and Q(c w).

    den_i is the lcm of the denominators of the w^i coefficients of P and
    Q, so [w^i] P(c w) = c^i [w^i] P is an integer iff den_i | c^i, and c
    is the product over primes r of r^max_i ceil(v_r(den_i) / i).  Trial
    division finds the primes r below `_TRIAL_BOUND`, each r^k in the lcm
    of the denominators.  The cofactor left, a prime when below
    `_TRIAL_BOUND`^2, is written y^k with k as large as possible
    (`_perfect_power`).  Each such y^k gives c its least power y^e
    (`_least_power`), checked by divisibility, as y need not be prime.  c
    is least when the cofactor is 1 or a power of one prime, and may not be
    otherwise (1/1033 at w and 1/1031^2 at w^2 give 1031^2 * 1033, where
    1031 * 1033 suffices).  c divides the lcm of all the denominators.
    """
    (pn, pd), (qn, qd) = f.P.as_integer_ratio(), f.Q.as_integer_ratio()
    rest = math.lcm(pd, qd)
    if rest == 1:
        return 1, pn, qn
    dens = [math.lcm(pd // math.gcd(a, pd), qd // math.gcd(b, qd))
            for a, b in zip_longest(pn, qn, fillvalue=0)]
    c, r = 1, 2
    while r < _TRIAL_BOUND and r * r <= rest:
        k = 0
        while rest % r == 0:
            rest //= r
            k += 1
        if k:
            c *= _least_power(dens, r, k)
        r += 1 + (r > 2)
    if rest > 1:
        c *= _least_power(dens, *_perfect_power(rest))
    p, q = (x.scale_arg(c).as_integer_ratio()[0] for x in (f.P, f.Q))
    return c, p, q


def _least_power(dens, y: int, k: int) -> int:
    """The least y^e, 1 <= e <= k, with g_i | y^(e i) for every i >= 1,
    g_i = gcd(dens[i], y^k): the part of den_i that y^k holds."""
    top, e = y**k, 1
    while e < k and any(y**(e * i) % math.gcd(d, top) for i, d in enumerate(dens[1:], 1)):
        e += 1
    return y**e


def _perfect_power(n: int):
    """(y, k) with n = y^k and k as large as possible, for an n >= 2 with
    no prime factor below `_TRIAL_BOUND` (so k <= log2(n) / 10)."""
    for k in range(n.bit_length() // 10, 1, -1):
        y = 1 << -(-n.bit_length() // k)  # Newton from above to floor(n^(1/k))
        while (z := ((k - 1) * y + n // y**(k - 1)) // k) < y:
            y = z
        if y**k == n:
            return y, k
    return n, 1


def _moments_from_equation(p, q, n: int):
    """s_0..s_n from M*P(U) = Q(U), U = z M, for coefficient lists with p(0) = q(0) = 1.

    Comparing [z^k] on both sides, with [z^0]P(U) = 1, gives
    s_k = [z^k]Q(U) - sum_{i<k} s_i [z^(k-i)]P(U).  [z^k]U^j = [z^(k-j)]M^j
    needs s_0..s_(k-j) only, so the powers M^j, j = 1..D with
    D = max(deg p, deg q), grow by one coefficient per step: O(D n^2) in all.
    """
    top = min(max(len(p), len(q)) - 1, n)
    s = [1]
    pows = [None, s] + [[] for _ in range(top - 1)]  # pows[j] = M^j, grown online
    pu = [1]  # [z^k] P(U)
    for k in range(1, n + 1):
        pk = qk = 0
        for j in range(1, min(top, k) + 1):
            t = k - j
            if j > 1:
                pows[j].append(sum(map(mul, s[: t + 1], pows[j - 1][t::-1])))
            u = pows[j][t]
            if j < len(p):
                pk += p[j] * u
            if j < len(q):
                qk += q[j] * u
        pu.append(pk)
        s.append(qk - sum(map(mul, s, pu[k:0:-1])))
    return s


def _cumulant_series(p, q, n: int):
    """Series of the R-transform (q - p)/p, for coefficient lists with p(0) = 1."""
    num = [a - b for a, b in zip(ser_trunc(q, n), ser_trunc(p, n))]
    return ser_div(num, p, n)


def cumulants(f: ClassF, n: int) -> SeriesPrefix:
    """Free cumulants r_1..r_n (index 0 holds the structural 0).

    The terms are the integers of `dilated_cumulants`, each divided by c^k.
    """
    return _undilated(*dilated_cumulants(f, n), "cumulants")


def dilated_cumulants(f: ClassF, n: int):
    """(a, c): the ints a_k = c^k r_k, k = 0..n (a_0 = 0), and c: the
    cumulants of F(c w)/c over Z (see `dilated_moments`)."""
    if n < 1:
        raise ValueError("need n >= 1")
    c, p, q = _dilation(f)
    return _cumulant_series(p, q, n), c


def identity_f() -> ClassF:
    """F(w) = w, the neutral element of free convolution."""
    return ClassF(Poly.one(), Poly.one())
