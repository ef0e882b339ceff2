"""The integer-stored Poly against the Fraction-coefficient ring code it replaced.

`RefPoly` is the former `Poly`: one Fraction per coefficient and
schoolbook arithmetic on them.  Every ring operation of the new class is
compared with it on random rational polynomials, and every result is
checked for the stored-form invariant.
"""
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcl.classf import make_classf
from fcl.exactalg import Poly, resultant_w
from fcl.exactalg.poly import rat_str
from fcl.spectra import char_poly_t


class RefPoly:
    """Dense univariate polynomial with Fraction coefficients (reference)."""

    def __init__(self, coeffs=()):
        cs = [F(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        return self.coeffs[-1] if self.coeffs else F(0)

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else F(0)

    def __add__(self, other):
        other = _ref(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RefPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __neg__(self):
        return RefPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_ref(other))

    def __mul__(self, other):
        if isinstance(other, (int, F)):
            return RefPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return RefPoly()
        out = [F(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RefPoly(out)

    def __pow__(self, n):
        result, base = RefPoly([1]), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self):
        return RefPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return x * 0 if acc is None else acc

    def scale_arg(self, c):
        return RefPoly([a * F(c) ** i for i, a in enumerate(self.coeffs)])

    def divmod(self, other):
        q = [F(0)] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        rem = list(self.coeffs)
        d, lc = other.degree, other.lc
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            f = rem[-1] / lc
            q[k] = f
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= f * b
            while rem and rem[-1] == 0:
                rem.pop()
        return RefPoly(q), RefPoly(rem)

    def monic(self):
        return self if self.is_zero() else self * (1 / self.lc)

    def int_coeffs(self):
        if self.is_zero():
            return [], F(1)
        den = math.lcm(*[c.denominator for c in self.coeffs])
        ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
        g = math.gcd(*[abs(v) for v in ints])
        return [v // g for v in ints], F(g, den)

    def to_str(self, var="w"):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = rat_str(mag)
            else:
                v = var if i == 1 else f"{var}^{i}"
                term = v if mag == 1 else f"{rat_str(mag)}*{v}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def _ref(x):
    return x if isinstance(x, RefPoly) else RefPoly([x])


def stored(p: Poly):
    """p's stored form, after checking its invariant."""
    num, den = p.as_integer_ratio()
    assert type(num) is tuple and all(type(c) is int for c in num)
    assert type(den) is int and den > 0
    assert math.gcd(den, *num) == 1
    assert not num or num[-1] != 0
    return num, den


def same(p: Poly, r: RefPoly):
    stored(p)
    assert p.coeffs == r.coeffs
    assert all(type(c) is F for c in p.coeffs)
    assert p.degree == r.degree


coef = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=F(-9), max_value=F(9), max_denominator=12),
    st.fractions(max_denominator=10**12).filter(lambda c: abs(c) < 10**15))
coeff_lists = st.lists(coef, max_size=7)
polys = coeff_lists.map(lambda cs: (Poly(cs), RefPoly(cs)))
nonzero = polys.filter(lambda pr: not pr[1].is_zero())
points = st.one_of(st.integers(-7, 7), st.fractions(max_denominator=30).filter(lambda x: abs(x) < 50))


@settings(max_examples=150, deadline=None)
@given(polys, polys, st.one_of(st.integers(-5, 5), st.fractions(max_denominator=9)))
def test_ring_operations_match_the_fraction_reference(a, b, c):
    (p, r), (q, s) = a, b
    same(p, r)
    same(p + q, r + s)
    same(p - q, r - s)
    same(-p, -r)
    same(p * q, r * s)
    same(p * c, r * c)
    same(c * p, r * c)
    same(p + c, r + c)
    same(c - p, -(r - c))
    same(p.derivative(), r.derivative())
    same(p.scale_arg(c), r.scale_arg(c))
    same(p.monic(), r.monic())
    assert (p == q) == (r.coeffs == s.coeffs)
    again = p + q - q
    assert p == again and hash(p) == hash(again) and p == Poly(r.coeffs)
    assert (p == c) == (r.coeffs == RefPoly([c]).coeffs)


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(0, 5))
def test_powers_match_the_fraction_reference(a, n):
    p, r = a
    same(p ** n, r ** n)


@settings(max_examples=150, deadline=None)
@given(polys, nonzero, polys)
def test_division_matches_the_fraction_reference(a, b, c):
    (p, r), (q, s), (m, t) = a, b, c
    quo, rem = p.divmod(q)
    rq, rr = r.divmod(s)
    same(quo, rq)
    same(rem, rr)
    same((p * q).exact_div(q), r)
    same((m * q + rem).divmod(q)[1], rr)
    if not rr.is_zero():
        with pytest.raises(ValueError):
            p.exact_div(q)


@settings(max_examples=150, deadline=None)
@given(polys, points, st.floats(-3, 3))
def test_queries_and_evaluation_match_the_fraction_reference(a, x, y):
    p, r = a
    v = p(x)
    assert v == r(x) and type(v) is type(r(x))
    assert p(y) == r(y)
    z = complex(y, 0.5)
    assert p(z) == r(z)
    ints, scale = p.int_coeffs()
    assert (ints, scale) == r.int_coeffs() and type(ints) is list
    assert p.lc == r.lc and type(p.lc) is F
    for i in range(-1, len(r.coeffs) + 2):
        assert p.coeff(i) == r.coeff(i) and type(p.coeff(i)) is F
    assert p.to_str() == r.to_str() and p.to_str("t") == r.to_str("t")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=40),
                          st.fractions(max_denominator=40).map(str),
                          st.integers(-64, 64).map(lambda k: k / 8)), max_size=7))
def test_construction_from_ints_fractions_strings_and_floats(cs):
    p = Poly(cs)
    same(p, RefPoly(cs))
    num, den = p.as_integer_ratio()
    same(Poly.from_ints(num, den), RefPoly(cs))
    same(Poly.from_ints([-c for c in num] + [0, 0], -den * 3), RefPoly(cs) * F(1, 3))


def test_stored_form_examples():
    assert Poly([F(1, 2), F(1, 3), 0, 0]).as_integer_ratio() == ((3, 2), 6)
    assert Poly([]).as_integer_ratio() == ((), 1) == Poly([0, F(0)]).as_integer_ratio()
    assert Poly(["27/8", 0.5]).as_integer_ratio() == ((27, 4), 8)
    assert Poly([F(1, 2), F(1, 2)]) + Poly([F(1, 2), F(-1, 2)]) == Poly.one()
    assert Poly.from_ints([2, 4], -6).as_integer_ratio() == ((-1, -2), 3)
    with pytest.raises(ZeroDivisionError):
        Poly.from_ints([1], 0)
    with pytest.raises(AttributeError):
        Poly([1]).coeffs = (F(2),)


def test_kernel_does_no_fraction_arithmetic(monkeypatch):
    f = make_classf(Poly([1, F(1, 3), F(-2, 7)]), Poly([1, F(5, 2), F(1, 9), F(3, 4)]))
    p, q = f.P, f.Q

    def run():
        x = p * q + p ** 3 - q.derivative()
        chi = char_poly_t(f)
        return x, x(F(2, 3)), x(-5), chi, resultant_w(chi, chi.deriv_w())

    want = run()

    def arithmetic(*args):
        raise AssertionError("Fraction arithmetic in the integer kernel")

    for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
        monkeypatch.setattr(F, name, arithmetic)
    assert run() == want
