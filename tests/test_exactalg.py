import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import rand_poly, rand_rat
from fcl.classf import make_classf
from fcl.errors import NotInClass
from fcl.euler import nk_classf
from fcl.exactalg import (AlgebraicReal, BiPoly, Iv, Poly,
                          count_distinct_real_roots, hankel_det,
                          is_real_rooted, is_squarefree,
                          isolate_real_roots, iv_poly_eval, poly_gcd,
                          resultant, resultant_w, squarefree_part,
                          sturm_chain)
from fcl.exactalg import algebraic, bipoly, poly, sturm
from fcl.exactalg.algebraic import _rational_roots, _root_bound_exponent
from fcl.exactalg.bipoly import _nodes, subresultants
from fcl.exactalg.poly import bareiss_det_int
from fcl.exactalg.sturm import _sign_at, _variations_at, real_rooted_from_signs
from fcl.spectra import Pencil, char_poly_t, critical_ts

w = Poly.x()


def _signed_subresultants(a, b):
    """[s_0, ..., s_p]: `poly._subresultant_scan(a, b)` read to its end,
    bottom-up, then s_p = lc(a)."""
    return [*reversed(list(poly._subresultant_scan(a, b))), a[-1]]


def _subresultant_table(x: BiPoly):
    """[s_0, ..., s_p] of x and its w-derivative as polynomials in the
    parameter: `subresultants(x)` for s_0, ..., s_(p-2), then p lc(x) and
    lc(x)."""
    s, lc = subresultants(x), x.lc_poly
    return [*map(s, range(x.degree_w - 1)), x.degree_w * lc, lc]


# ---------------------------------------------------------------- arithmetic


def test_poly_basic_ops():
    assert Poly([1, -1]).derivative() == Poly([-1])
    assert Poly([1, 0, -1]).derivative() == Poly([0, -2])          # d/dw (1 - w^2)
    assert Poly.const(5).derivative() == Poly.zero()
    assert (1 - 2 * w) ** 2 * (1 - 2 * w) == Poly([1, -6, 12, -8])
    assert Poly([1, 2, 3])(F(1, 2)) == 1 + 1 + F(3, 4)
    assert (w**3 - w).divmod(w - 1) == (w**2 + w, Poly.zero())


def test_poly_division_and_errors():
    q, r = (w**2 + 1).divmod(w + 1)
    assert q == w - 1 and r == Poly.const(2)
    with pytest.raises(ZeroDivisionError):
        w.divmod(Poly.zero())
    with pytest.raises(ValueError):
        (w**2 + 1).exact_div(w + 1)


def test_gcd_examples():
    assert poly_gcd(w**2 - 1, w - 1) == w - 1
    assert poly_gcd(1 - w, Poly.one()) == Poly.one()
    chi = (1 - 2 * w) ** 3
    # Euclid by hand: gcd(chi, chi') = (w - 1/2)^2 after monic normalization
    assert poly_gcd(chi, chi.derivative()) == Poly([F(1, 4), -1, 1])
    # zero and constant inputs skip the heuristic gcd
    big = 3 * w**2 - 2**200 * w + 7
    assert poly_gcd(big, Poly.zero()) == poly_gcd(Poly.zero(), big) == big.monic()
    assert poly_gcd(big, Poly.const(-5)) == poly_gcd(Poly.const(F(2, 3)), big) == Poly.one()
    assert poly_gcd(Poly.const(4), Poly.const(6)) == poly_gcd(Poly.const(4), Poly.zero()) == 1
    with pytest.raises(ValueError):
        poly_gcd(Poly.zero(), Poly.zero())


def test_squarefree_part():
    assert squarefree_part((1 - 2 * w) ** 3) == Poly([F(-1, 2), 1])
    p = Poly([1, 0, -3]) ** 2  # (1 - 3w^2)^2 = 1 - 6w^2 + 9w^4
    assert Poly([1, 0, -6, 0, 9]) == p
    assert squarefree_part(p) == Poly([F(-1, 3), 0, 1])
    q = Poly([1, 2, 7])
    assert squarefree_part(q) == q.monic()
    assert squarefree_part(Poly.const(-3)) == Poly.one()
    with pytest.raises(ValueError):
        squarefree_part(Poly.zero())


def test_squarefree_divides_and_cofactor(rng):
    for _ in range(25):
        p = rand_poly(rng, 5)
        if p.is_constant():
            continue
        s = squarefree_part(p)
        assert p.divmod(s)[1].is_zero()
        assert poly_gcd(s, s.derivative()).is_constant()


# ------------------------------------------------------------------- sturm


def test_sturm_count_examples():
    assert count_distinct_real_roots(Poly([1, -4, 1])) == 2   # discriminant 12 > 0
    assert count_distinct_real_roots(Poly([1, -2, 2])) == 0   # no real roots
    assert count_distinct_real_roots(w, -1, 1) == 1
    assert count_distinct_real_roots(Poly([1, -4, 1]), None, None) == 2
    with pytest.raises(ValueError):
        count_distinct_real_roots(Poly.zero())


def test_sturm_halfopen_convention():
    # roots of w^2 - 1 at +-1; (lo, hi] includes hi, excludes lo
    p = w**2 - 1
    assert count_distinct_real_roots(p, -1, 1) == 1
    assert count_distinct_real_roots(p, -2, 1) == 2
    assert count_distinct_real_roots(p, 1, 2) == 0


def test_sturm_count_random_products(rng):
    # products of distinct linear factors and negative-discriminant quadratics
    for _ in range(20):
        roots = sorted({rand_rat(rng, 6, 3) for _ in range(rng.randint(0, 3))})
        p = Poly.one()
        for r in roots:
            p = p * Poly([-r, 1])
        pairs = rng.randint(0, 2)
        for _ in range(pairs):
            a = rand_rat(rng, 3, 2)
            b = a * a / 4 + F(rng.randint(1, 5), rng.randint(1, 3))
            p = p * Poly([b, a, 1])
        if p.is_constant():
            continue
        assert count_distinct_real_roots(p) == len(roots) == p.degree - 2 * pairs


def test_reversed_endpoints_raise():
    # an empty (lo, hi] is only lo == hi; None is an unbounded end
    p = w**2 - 2
    with pytest.raises(ValueError):
        count_distinct_real_roots(p, 2, -2)
    assert count_distinct_real_roots(p, 1, 1) == 0
    assert count_distinct_real_roots(p, None, 0) == count_distinct_real_roots(p, 0, None) == 1


def test_is_real_rooted():
    assert not is_real_rooted(Poly([1, -2]) * Poly([1, -2, 2]))
    assert is_real_rooted((1 - 2 * w) ** 3)
    assert is_real_rooted(Poly.one())
    with pytest.raises(ValueError):
        is_real_rooted(Poly.zero())


def _euclid_sturm_chain(p: Poly):
    """The Sturm chain p, p', -rem(...) over Q, by Fraction long division."""
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        chain.append(-chain[-2].divmod(chain[-1])[1])
    if chain[-1].is_zero():
        chain.pop()
    return chain


def _assert_positive_multiples(ints_chain, chain):
    assert len(ints_chain) == len(chain)
    for a, e in zip(ints_chain, chain):
        c = F(a[-1]) / e.lc
        assert c > 0 and Poly(a) == e * c


def test_sturm_chain_positive_multiples_examples():
    # negative leading coefficients and degree gaps of 2 and 3, so pseudo-
    # division multiplies by odd powers of a negative leading coefficient
    for p in (Poly([1, -1, 3, 0, 0, -2]),            # -2w^5 + 3w^2 - w + 1
              Poly([-7, 0, 0, 5, 0, 0, -1]),         # -w^6 + 5w^3 - 7
              Poly([2, -3, 0, 0, 0, 0, 0, F(-5, 3)]),
              -(w**3 - 2) ** 2 * w):                  # chain ends at (w^3 - 2)
        chain = sturm_chain(p)
        assert max(len(a) - len(b) for a, b in zip(chain, chain[1:])) >= 2
        _assert_positive_multiples(chain, _euclid_sturm_chain(p))


_coef = st.fractions(min_value=-9, max_value=9, max_denominator=4)
_sparse_coef = st.one_of(st.just(F(0)), _coef)


@settings(max_examples=60, deadline=None)
@given(st.lists(_sparse_coef, min_size=1, max_size=9), _coef.filter(bool))
def test_sturm_chain_positive_multiples(low, lead):
    p = Poly(low + [lead])
    _assert_positive_multiples(sturm_chain(p), _euclid_sturm_chain(p))


# -------------------------------------------------------- sympy oracles


@st.composite
def _factored_polys(draw):
    """c * f1^e1 * ... with c of either sign: repeated and shared factors."""
    p = Poly.const(draw(_coef.filter(bool)))
    for _ in range(draw(st.integers(0, 3))):
        f = Poly(draw(st.lists(_coef, min_size=1, max_size=3)) + [draw(_coef.filter(bool))])
        p = p * f ** draw(st.integers(1, 3))
    return p


def _sympy_poly(sympy, p: Poly):
    x = sympy.Symbol("x")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], x, domain="QQ")


def _from_sympy(q) -> Poly:
    return Poly([F(int(c.p), int(c.q)) for c in reversed(q.all_coeffs())])


@settings(max_examples=40, deadline=None)
@given(_factored_polys(), _factored_polys(), _factored_polys())
def test_gcd_and_squarefree_match_sympy(p, q, r):
    sympy = pytest.importorskip("sympy")
    a, b = p * r, q * r
    ref = sympy.gcd(_sympy_poly(sympy, a), _sympy_poly(sympy, b)).monic()
    assert poly_gcd(a, b) == _from_sympy(ref)
    ref = sympy.sqf_part(_sympy_poly(sympy, a)).monic()
    assert squarefree_part(a) == _from_sympy(ref)


def test_count_with_an_end_at_a_multiple_root():
    # every member of the chain of p vanishes at a root of gcd(p, p')
    p = (w + 1) ** 2 * (w**2 - 2)
    assert [count_distinct_real_roots(p, lo, hi) for lo, hi in
            ((-1, 0), (-2, -1), (-1, -1), (None, -1), (-1, None))] == [0, 2, 0, 2, 1]
    q = -(w - 3) ** 3 * w
    assert [count_distinct_real_roots(q, lo, hi) for lo, hi in
            ((0, 3), (-1, 0), (3, 5), (0, None))] == [1, 1, 0, 1]


@settings(max_examples=40, deadline=None)
@given(_factored_polys())
def test_real_root_counts_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    roots = _sympy_poly(sympy, p).real_roots(multiple=False)
    assert count_distinct_real_roots(p) == len(roots)
    assert is_real_rooted(p) == (sum(m for _, m in roots) == p.degree)


@settings(max_examples=60, deadline=None)
@given(_factored_polys(), st.builds(F, st.integers(-40, 40), st.integers(1, 12)))
@example((w**2 - 2) * (3 * w - 1) ** 2, F(1, 3))
@example(w * (w + 1), F(0))
def test_counts_split_at_a_rational(p, q):
    # (-inf, q] and (q, +inf) partition the line, whether or not q is a root
    total = count_distinct_real_roots(p)
    assert total == len(isolate_real_roots(p))
    assert count_distinct_real_roots(p, None, q) + count_distinct_real_roots(p, q, None) == total
    with pytest.raises(ValueError):
        count_distinct_real_roots(p, q + F(1, 7), q)


# ------------------------------------------- the heuristic gcd and the scan


_big = st.integers(-2**200, 2**200)


@st.composite
def _big_polys(draw, max_deg=3):
    """Int polynomials with coefficients up to 2^200, either leading sign."""
    cs = draw(st.lists(_big, max_size=max_deg)) + [draw(_big.filter(bool))]
    return Poly(cs)


@st.composite
def _gcd_pairs(draw):
    """(a, b): a planted common factor g, g^2 or none, cofactors with
    repeated factors, and now and then a zero or constant input."""
    g = draw(_big_polys()) ** draw(st.integers(0, 2))
    a, b = (g * draw(_big_polys()) * draw(_big_polys(2)) ** draw(st.integers(1, 3))
            for _ in range(2))
    a = draw(st.sampled_from([a, a, a, Poly.zero(), Poly.const(draw(_big.filter(bool)))]))
    return a, b


def _prs_monic_gcd(p: Poly, q: Poly) -> Poly:
    """The monic gcd by the primitive remainder sequence alone, the last
    member of `_remainder_chain`; `poly_gcd` with the heuristic forced to
    fail, so that it falls back to the same chain, must agree."""
    a, b = p.int_coeffs()[0], q.int_coeffs()[0]
    if len(a) < len(b):
        a, b = b, a
    g = poly._monic(poly._remainder_chain(a, b)[-1])
    with mock.patch.object(poly, "_gcd_heuristic", lambda a, b: None):
        assert poly_gcd(p, q) == g
    return g


@settings(max_examples=60, deadline=None)
@given(_gcd_pairs())
def test_heuristic_gcd_matches_the_prs_and_sympy(pair):
    a, b = pair
    g = poly_gcd(a, b)
    assert g == poly_gcd(b, a) == _prs_monic_gcd(a, b)
    if not a.is_constant():
        sqf = squarefree_part(a)
        assert sqf == a.exact_div(_prs_monic_gcd(a, a.derivative())).monic()
    try:
        import sympy
    except ImportError:
        return
    assert g == _from_sympy(sympy.gcd(_sympy_poly(sympy, a), _sympy_poly(sympy, b)).monic())
    if not a.is_constant():
        assert sqf == _from_sympy(sympy.sqf_part(_sympy_poly(sympy, a)).monic())


def test_gcd_when_the_heuristic_fails(monkeypatch):
    rng = random.Random(2121)
    pairs = []
    for _ in range(30):
        g = Poly([rng.randint(-2**80, 2**80) for _ in range(rng.randint(1, 3))]
                 + [rng.randint(1, 9)]) ** rng.randint(1, 2)
        pairs.append((g * rand_poly(rng, 3), -g * rand_poly(rng, 4) ** 2))
    want = [(poly_gcd(a, b), squarefree_part(b)) for a, b in pairs]
    assert all(not g.is_constant() for g, _ in want)
    tries = []

    def fails(a, b):
        tries.append((a, b))
        return None

    monkeypatch.setattr(poly, "_gcd_heuristic", fails)
    assert [(poly_gcd(a, b), squarefree_part(b)) for a, b in pairs] == want
    assert len(tries) >= len(pairs)


def test_heuristic_gcd_retries_after_a_wrong_candidate(monkeypatch):
    # at xi = 4 and xi = 10 the values of x and x + 20 share the factor xi,
    # whose digits rebuild x, which divides x but not x + 20; xi = 27 gives 1
    seen = []
    exact_div = poly._exact_div

    def traced(a, b):
        seen.append(b)
        return exact_div(a, b)

    monkeypatch.setattr(poly, "_exact_div", traced)
    assert poly._gcd_heuristic([0, 1], [20, 1]) == [1]
    assert seen == [[0, 1]] * 4
    assert poly_gcd(w, w + 20) == Poly.one()


_small = st.integers(-30, 30)


@st.composite
def _int_lists(draw, min_deg=0, max_deg=4):
    """Int coefficient lists, lowest degree first, with a nonzero lead."""
    deg = draw(st.integers(min_deg, max_deg))
    return draw(st.lists(_small, min_size=deg, max_size=deg)) + [draw(_small.filter(bool))]


@settings(max_examples=150, deadline=None)
@given(_int_lists(), st.integers(0, 3), st.data())
@example([3, 1], 0, None)              # deg a = deg b, lc(b) < 0 below
@example([1, 0, -3], 0, None)
@example([1, 0, -3], 1, None)
@example([2, 5, -7], 2, None)
def test_prem_is_a_primitive_positive_multiple_of_the_remainder(b, k, data):
    if data is None:  # the explicit examples: lc(b) < 0, deg a - deg b = k
        b = [-c for c in b] if b[-1] > 0 else b
        a = [1] * (len(b) + k - 1) + [5]
    else:
        a = data.draw(_int_lists(len(b) - 1 + k, len(b) - 1 + k))
    r = poly._prem(a, b)
    want = Poly(a).divmod(Poly(b))[1]
    if want.is_zero():
        assert r == []
        return
    assert math.gcd(*r) == 1
    ratio = Poly(r).lc / want.lc
    assert ratio > 0 and Poly(r) == want * ratio


@settings(max_examples=150, deadline=None)
@given(_int_lists(), _int_lists(), st.integers(2, 5), _int_lists(max_deg=3))
@example([1], [1, 2], 2, [1])          # (1 + 2x) / (2 + 4x) = 1/2
def test_exact_div_is_the_integral_quotient_or_none(q, b, d, r):
    a = Poly(q) * Poly(b)
    got = poly._exact_div(list(a.as_integer_ratio()[0]), b)
    assert got == q and Poly(got) == a.divmod(Poly(b))[0]
    # b scaled by d: the quotient over Q is q / d, integral only if d | q
    bd = [d * c for c in b]
    integral = all(c % d == 0 for c in q)
    assert poly._exact_div(list(a.as_integer_ratio()[0]), bd) == (
        [c // d for c in q] if integral else None)
    # a nonzero remainder of degree below deg b
    rem = Poly(r[:len(b) - 1])
    if not rem.is_zero():
        assert poly._exact_div(list((a + rem).as_integer_ratio()[0]), b) is None


def _real_rooted_polys():
    """Products of linear factors (real-rooted, repeated roots allowed) and
    of _factored_polys (mostly not)."""
    linear = st.lists(st.builds(lambda u, v: Poly([u, v]), _coef, _coef.filter(bool)),
                      min_size=1, max_size=8)
    return st.one_of(linear.map(lambda fs: math.prod(fs, start=Poly.one())),
                     _factored_polys())


@settings(max_examples=80, deadline=None)
@given(_real_rooted_polys())
def test_is_real_rooted_reads_no_sturm_chain(p):
    distinct = p.degree - (poly_gcd(p, p.derivative()).degree if p.degree > 0 else 0)
    want = count_distinct_real_roots(p) == distinct
    try:
        import sympy
    except ImportError:
        pass
    else:
        roots = _sympy_poly(sympy, p).real_roots(multiple=False)
        assert want == (sum(m for _, m in roots) == p.degree)

    def no_chain(a, b):
        raise AssertionError("is_real_rooted built a Sturm chain")

    with mock.patch.object(sturm, "_remainder_chain", no_chain):
        assert is_real_rooted(p) == want


def test_is_real_rooted_stops_at_the_first_negative_entry(monkeypatch):
    # s_8 of w^10 + w^8 + 1 and its derivative is negative: the sum of the
    # squared root differences is 10 p_2 - p_1^2 = -20 < 0
    calls = []
    pseudo_rem = poly._pseudo_rem

    def counted(a, b):
        calls.append(len(a))
        return pseudo_rem(a, b)

    monkeypatch.setattr(poly, "_pseudo_rem", counted)
    assert not is_real_rooted(w**10 + w**8 + 1)
    assert calls == [11]
    calls.clear()
    assert is_real_rooted(math.prod((w - k for k in range(10)), start=Poly.one()))
    assert len(calls) == 9  # a Yes reads every entry


def test_real_rooted_from_signs_reads_only_what_it_needs():
    read = []

    def entries(signs):
        for s in signs:
            read.append(s)
            yield s

    assert not real_rooted_from_signs(entries([1, 2, -1, 5, 0]))
    assert read == [1, 2, -1]
    read.clear()
    assert real_rooted_from_signs(entries([3, 0, 0, 0]))
    assert not real_rooted_from_signs(entries([0, 0, 1]))
    assert real_rooted_from_signs([])


@settings(max_examples=40, deadline=None)
@given(_factored_polys(), _factored_polys())
def test_resultant_matches_sympy(p, q):
    sympy = pytest.importorskip("sympy")
    n, m = p.degree, q.degree
    sp, sq = _sympy_poly(sympy, p), _sympy_poly(sympy, q)
    # sympy 1.14 returns the wrong sign for some pairs with deg p < deg q
    # (Res(x - 5, -2x^3 - 3x^2 + x - 4) = -324 comes back as 324); it is
    # right with the larger degree first, and Res(q, p) = (-1)^(nm) Res(p, q)
    ref = sp.resultant(sq) if n >= m else (-1) ** (n * m) * sq.resultant(sp)
    assert resultant(p, q) == F(int(ref.p), int(ref.q))


# ------------------------------------------------------ signed subresultants


def _sres_by_det(a, b, j):
    """s_j by definition: rows x^(q-j-1) a, ..., a, b, ..., x^(p-j-1) b,
    highest degree first, first p + q - 2j columns, one Bareiss determinant."""
    p, q = len(a) - 1, len(b) - 1

    def row(c, shift):  # x^shift * c over degrees p+q-j-1 .. j
        top = p + q - j - 1
        return [c[top - k - shift] if 0 <= top - k - shift < len(c) else 0
                for k in range(p + q - 2 * j)]

    rows = [row(a, k) for k in range(q - j - 1, -1, -1)]
    rows += [row(b, k) for k in range(p - j)]
    return bareiss_det_int(rows)


def test_signed_subresultants_match_determinants():
    # negative leading coefficients, sparse inputs and forced degree gaps
    # (deg b well below deg a - 1, and remainders that drop several degrees)
    cases = [([1, -1, 3, 0, 0, -2], [0, 0, 0, 4, -1]),
             ([-7, 0, 0, 5, 0, 0, -1], [3, 0, -2]),
             ([2, -3, 0, 0, 0, 0, 0, -5], [1, 0, 0, 0, -3]),
             ([0, 0, 0, 0, 0, 0, 1], [-1, 0, 0, 1]),
             ([5, 1, 0, 0, 0, 1, -3], [0, 2])]
    sq = -(w**3 - 2) ** 2 * w  # b = a' shares the factor (w^3 - 2)
    cases.append((sq.int_coeffs()[0], sq.derivative().int_coeffs()[0]))
    rng = random.Random(7)
    for _ in range(300):
        p = rng.randint(1, 7)
        q = rng.randint(0, p - 1)
        a = [rng.choice([0, 0, rng.randint(-6, 6)]) for _ in range(p)] + [rng.choice([-3, -1, 2])]
        b = [rng.choice([0, 0, rng.randint(-6, 6)]) for _ in range(q)] + [rng.choice([-2, 1, 3])]
        cases.append((a, b))
    gaps = 0
    for a, b in cases:
        p, q = len(a) - 1, len(b) - 1
        s = _signed_subresultants(a, b)
        assert len(s) == p + 1 and s[p] == a[-1]
        assert s[q + 1:p] == [0] * (p - q - 1)
        assert s[:q + 1] == [_sres_by_det(a, b, j) for j in range(q + 1)]
        gaps += sum(1 for j in range(q) if s[j] == 0)
    assert gaps > 0  # some runs went through defective subresultants


def pmv(signs) -> int:
    """Permanences minus variations of a sign list s_0, ..., s_p (s_p != 0).

    Consecutive nonzero entries s_i, s_j at an odd distance k = j - i add
    eps_k s_i s_j, eps_k = (-1)^(k(k-1)/2); at an even distance they add
    nothing (Basu, Pollack and Roy, Algorithms in Real Algebraic Geometry,
    ch. 4).  Applied to the signed subresultant coefficients of p and p'
    it counts the distinct real roots of p.
    """
    nz = [(j, s) for j, s in enumerate(signs) if s]
    total = 0
    for (i, a), (j, b) in zip(nz, nz[1:]):
        k = j - i
        if k % 2:
            total += a * b if k % 4 == 1 else -a * b
    return total


def test_pmv_examples():
    assert pmv([1, 1, 1]) == 2 and pmv([-1, 1, 1]) == 0
    # zeros: an odd gap k = 3 adds eps_3 = -1 times the sign product,
    # an even gap adds nothing, and trailing zeros are skipped
    assert pmv([1, 0, 0, 1]) == -1 and pmv([1, 0, 1]) == 0
    assert pmv([0, 0, 1, 1]) == 1


@settings(max_examples=60, deadline=None)
@given(_factored_polys())
def test_subresultant_count_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    if p.degree < 1:
        return
    a = p.int_coeffs()[0]
    s = _signed_subresultants(a, [i * c for i, c in enumerate(a)][1:])
    signs = [(c > 0) - (c < 0) for c in s]
    sp = _sympy_poly(sympy, p)
    assert pmv(signs) == len(sp.real_roots(multiple=False))
    d = next(j for j, c in enumerate(s) if c)
    assert d == sympy.gcd(sp, sp.diff()).degree()


# ---------------------------------------------------------------- isolation


def test_isolate_quadratic():
    roots = isolate_real_roots(Poly([1, -4, 1]))  # 2 +- sqrt(3)
    assert len(roots) == 2
    assert abs(float(roots[0]) - 0.2679491924) < 1e-9
    assert abs(float(roots[1]) - 3.7320508076) < 1e-9


def test_isolate_rational_roots():
    assert [r.as_fraction() for r in isolate_real_roots((1 - 2 * w) ** 2)] == [F(1, 2)]
    assert [r.as_fraction() for r in isolate_real_roots(w**3 - w)] == [-1, 0, 1]
    # a leading coefficient far too large to factor by trial division
    lo, mid, hi = isolate_real_roots((10**13 * w - 1) * (w**2 - 3))
    assert mid.as_fraction() == F(1, 10**13)
    assert lo.defining == hi.defining == w**2 - 3
    with pytest.raises(ValueError):
        isolate_real_roots(Poly.zero())


def test_isolate_recognises_every_rational_root(rng):
    # planted rational roots with denominators up to 10^15 beside sqrt(k)
    for _ in range(30):
        rats = sorted({F(rng.randint(-10**15, 10**15), rng.randint(1, 10**15))
                       for _ in range(rng.randint(1, 3))})
        k = rng.choice([2, 3, 5, 6, 7])
        p = w**2 - k
        for r in rats:
            p = p * (w - r) ** rng.randint(1, 2)
        roots = isolate_real_roots(p)
        assert [r.as_fraction() for r in roots if r.is_rational()] == rats
        assert [r.defining for r in roots if not r.is_rational()] == [w**2 - k] * 2


def _planted_rational_cases():
    """(polynomial, its rational roots) for the p-adic root finder."""
    rng = random.Random(11)
    L = 3 * 5 * 7 * 11 * 13
    big = sorted({F(rng.randint(-10**20, 10**20), rng.randint(1, 10**20)) for _ in range(3)})
    prod = Poly.one()
    for k in range(13):
        prod = prod * (w - k)
    cases = [
        # every odd prime below 17 divides the leading coefficient
        ((L * w - 2) * (w + 4) * (w**2 - 3), [F(-4), F(2, L)]),
        (L * w**3 - 7, []),
        # 0, 1, ..., 12: the roots collide mod every prime below 13
        (prod, [F(k) for k in range(13)]),
        ((w**2 - 5) * (w - 1) * (w - 4) * (w - 7) * (w - 10), [F(1), F(4), F(7), F(10)]),
        (w * (3 * w - 1) * (w**2 - 5), [F(0), F(1, 3)]),
        (w**2 * (w**2 + 1), [F(0)]),
        (w, [F(0)]),
        # negative leading coefficients
        (-(2 * w - 3) * (w**2 + 1) * (w + 5), [F(-5), F(3, 2)]),
        (-7 * w + 3, [F(3, 7)]),
    ]
    p = w**2 - 7
    for r in big:
        p = p * (w - r)
    cases.append((p, big))
    return cases


@pytest.mark.parametrize("p, rats", _planted_rational_cases())
def test_padic_rational_roots(p, rats):
    s = squarefree_part(p)
    ints = s.int_coeffs()[0]
    assert _rational_roots(ints, F(2) ** _root_bound_exponent(ints)) == rats
    roots = isolate_real_roots(p)
    assert [r.as_fraction() for r in roots if r.is_rational()] == rats
    assert len(roots) == count_distinct_real_roots(s)
    sympy = pytest.importorskip("sympy")
    linear = [f for f, _ in sympy.factor_list(_sympy_poly(sympy, p))[1] if f.degree() == 1]
    assert sorted(-g.coeffs[0] / g.coeffs[1] for g in map(_from_sympy, linear)) == rats


def test_isolate_root_at_midpoint_of_bound():
    # regression: roots on both sides of an exact midpoint root
    for quadratic in (Poly([-54, F(117, 64), 1]), w**2 - 2):
        rs = isolate_real_roots(w * quadratic)
        assert len(rs) == 3
        assert rs[1].as_fraction() == 0
        assert rs[0].defining == rs[2].defining == quadratic


def _fraction_bisection(p):
    """Isolating intervals of p by Sturm bisection on Fraction midpoints,
    from +-2^e with the counts at +-infinity."""
    s = squarefree_part(p)
    chain = sturm_chain(s)
    if chain[0][-1] < 0:
        chain = [[-c for c in a] for a in chain]
    out = []

    def split(lo, hi, vlo, vhi):
        if vlo - vhi == 1:
            out.append((lo, hi))
        if vlo - vhi <= 1:
            return
        mid = (lo + hi) / 2
        while s(mid) == 0:
            mid = (lo + mid) / 2
        vm = _variations_at(chain, mid)
        split(lo, mid, vlo, vm)
        split(mid, hi, vm, vhi)

    b = F(2) ** _root_bound_exponent(chain[0])
    at_minus_inf = sturm.sign_variations([a[-1] * (-1) ** (len(a) - 1) for a in chain])
    split(-b, b, at_minus_inf, sturm.sign_variations([a[-1] for a in chain]))
    return out


@settings(max_examples=60, deadline=None)
@given(_factored_polys())
@example(w * (w**2 - 2))
@example(w * Poly([-54, F(117, 64), 1]))
@example((w**2 - 2) * (w**2 - 3) * (3 * w - 1) * (w + F(7, 3)) ** 2)
def test_isolation_intervals_match_fraction_bisection(p):
    # the integer bisection hands out the same rationals as Fraction midpoints
    assume(not p.is_constant())
    roots = isolate_real_roots(p)
    want = _fraction_bisection(p)
    assert len(roots) == len(want)
    for r, (lo, hi) in zip(roots, want):
        if r.is_rational():
            assert lo < r.lo <= hi
        else:
            assert (r.lo, r.hi) == (lo, hi)
            assert type(r.lo) is type(r.hi) is F


def test_isolated_roots_share_one_integer_form():
    # the irrational roots of one call keep one primitive integer list, with
    # and without rational roots split off, and refinement passes it on
    for p in ((w**2 - 2) * (w**2 - 3), (w**2 - 2) * (w**2 - 3) * (3 * w - 1)):
        irr = [r for r in isolate_real_roots(p) if not r.is_rational()]
        assert len(irr) == 4 and len({id(r._ints) for r in irr}) == 1
        assert irr[0]._ints == irr[0].defining.int_coeffs()[0]
        assert irr[2].refined_to(F(1, 10**6))._ints is irr[0]._ints
        for r in irr:
            assert r._slo == _sign_at(r._ints, r.lo) != 0


def test_isolate_random_consistency(rng):
    for _ in range(20):
        p = rand_poly(rng, 6)
        if p.is_constant():
            continue
        s = squarefree_part(p)
        roots = isolate_real_roots(p)
        assert len(roots) == count_distinct_real_roots(s)
        for a, b in zip(roots, roots[1:]):
            ra, rb = a.refined_to(F(1, 10**9)), b.refined_to(F(1, 10**9))
            assert ra.hi < rb.lo
        for r in roots:
            q = r.as_fraction()
            if q is not None:
                assert s(q) == 0


def test_algebraic_real_api():
    r = isolate_real_roots(Poly([-2, 0, 1]))[1]  # sqrt(2)
    assert r.as_fraction() is None
    assert r < F(3, 2) and r > 1
    assert r.sign_of(Poly([-2, 0, 1])) == 0
    assert r.sign_of(w - 1) == 1
    assert r.sign_of(w - 2) == -1
    assert r == isolate_real_roots(Poly([-2, 0, 1]) * (w - 5))[1]
    assert AlgebraicReal.from_rational(F(2, 3)).as_fraction() == F(2, 3)
    rr = r.refined_to(F(1, 10**12))
    assert rr.width() <= F(1, 10**12)
    assert float(rr) == pytest.approx(2**0.5, abs=1e-12)
    [inside] = isolate_real_roots(Poly([-2, 0, 1]), F(7, 5), F(71, 50))
    assert F(7, 5) < inside.lo and inside.hi < F(71, 50) and inside == r
    assert isolate_real_roots(Poly([-2, 0, 1]), F(3, 2), 2) == []
    s3 = isolate_real_roots(Poly([-3, 0, 1]))[1]
    a, b = r.separate(s3)
    assert a.hi < b.lo and a == r and b == s3
    # intervals that touch at 3/2 are not yet separated
    a, b = AlgebraicReal(w**2 - 2, 1, F(3, 2)).separate(AlgebraicReal(w**2 - 3, F(3, 2), 2))
    assert a.hi < b.lo


def test_root_at_right_endpoint_is_a_point():
    one = AlgebraicReal(w - 1, 0, 1)
    assert one.is_rational() and one.as_fraction() == 1 and one == 1
    r = AlgebraicReal(w**2 - 1, 0, 1)
    assert r.as_fraction() == 1
    assert r.sign_of(w - 2) == -1 and r.sign_of(w + 1) == 1 and r.sign_of(w - 1) == 0
    # a root at lo is still rejected: (lo, hi] does not hold it
    with pytest.raises(ValueError):
        AlgebraicReal(w - 1, 1, 2)


def test_isolation_and_signs_do_not_refine(monkeypatch):
    def no_bisection(*args):
        raise AssertionError("bisected")

    monkeypatch.setattr(algebraic, "_bisect", no_bisection)
    p = (w**2 - 2) * (w**3 - w - 1) * (3 * w - 1)
    roots = isolate_real_roots(p)
    assert [r.as_fraction() for r in roots].count(F(1, 3)) == 1 and len(roots) == 4
    signs = [[r.sign_of(q) for r in roots] for q in (w**2 - 2, w - F(1, 3), w**3 - w - 1, w)]
    # roots -sqrt(2) < 1/3 < 1.3247 (the real root of w^3 - w - 1) < sqrt(2)
    assert signs == [[0, -1, -1, 0], [-1, 0, 1, 1], [-1, -1, 0, 1], [-1, 1, 1, 1]]

    def no_chain(*args):
        raise AssertionError("built a remainder chain")

    # a constant, and a linear q whose root is not inside (lo, hi), are
    # signed by position, with no Tarski query
    monkeypatch.setattr(algebraic, "_remainder_chain", no_chain)
    for r in roots:
        assert [r.sign_of(Poly.const(c)) for c in (-5, 0, F(2, 3))] == [-1, 0, 1]
        below, above = r.lo - F(1, 7), r.hi + 1
        assert r.sign_of(w - below) == 1 and r.sign_of(3 * w - 3 * above) == -1
        assert r.sign_of(below - w) == -1
        # a root at an end of a proper interval is outside the number's (lo, hi)
        proper = 1 if r.lo < r.hi else 0
        assert r.sign_of(w - r.lo) == r.sign_of(r.hi - w) == proper


def test_predicates_decide_by_sign_of_alone(monkeypatch):
    # built first: __init__ counts the roots of outside input
    r = AlgebraicReal(w**2 - 2, 1, 2)
    wide = AlgebraicReal((w**2 - 2) * (w - 5), F(7, 5), 3)

    def forbidden(*args):
        raise AssertionError("decided off the sign_of route")

    monkeypatch.setattr(poly, "poly_gcd", forbidden)
    for name in ("poly_gcd", "count_distinct_real_roots", "_bisect"):
        monkeypatch.setattr(algebraic, name, forbidden, raising=False)
    # below, at lo, inside on either side of sqrt(2), at hi, above
    qs = (F(1, 2), 1, F(7, 5), F(3, 2), 2, 3)
    assert [r.compare_rational(q) for q in qs] == [1, 1, 1, -1, -1, -1]
    assert [r == q for q in qs] == [False] * 6
    assert r.is_root_of(w**2 - 2) and r.is_root_of(w**4 - 4) and r.is_root_of(Poly.zero())
    assert not r.is_root_of(w**2 - 3) and not r.is_root_of(w - F(7, 5))
    # sqrt(2) under two defining polynomials, on overlapping intervals
    assert r == wide and wide == r and r <= wide and not r < wide


# ----------------------------- real-rootedness at an algebraic t0 (Pencil)


def test_pencil_real_rooted_at_splits_modulus():
    # t0 = sqrt(2) and sqrt(3) share the reducible defining (t^2-2)(t^2-3);
    # the pencil t w^2 + 2w + t/2, of content 1, has the double root
    # -sqrt(2)/2 at sqrt(2) and no real root at sqrt(3).  Its subresultant
    # table is s_2 = t, s_1 = 2t, s_0 = 4t - 2t^3: at sqrt(2) the exact sign
    # of s_0 is 0, so d = 1 and PmV(s_2, s_1) = 1 = p - d; at sqrt(3) the
    # signs 1, 1, -1 give PmV = 0 < p.
    m = Poly([6, 0, -5, 0, 1])
    sqrt2, sqrt3 = AlgebraicReal(m, F(7, 5), F(3, 2)), AlgebraicReal(m, F(17, 10), F(9, 5))
    x = BiPoly.from_linear(Poly([0, 2]), Poly([F(1, 2), 0, 1]))
    assert _subresultant_table(x)[0] == Poly([0, 4, 0, -2])
    pencil = Pencil(x)
    assert pencil.content == Poly.one()
    assert pencil.real_rooted_at(sqrt2)
    assert not pencil.real_rooted_at(sqrt3)


def _full_table_rule(wcoeffs, t0: AlgebraicReal) -> bool:
    """Real-rootedness at t0 by the rule on the whole table: after the
    leading coefficients that vanish at t0 are dropped, x of degree p is
    real-rooted iff PmV(s_p, ..., s_0) = p - d, d the smallest j with
    s_j(t0) != 0."""
    cs = list(wcoeffs)
    while t0.is_root_of(cs[-1]):
        cs.pop()
    p = len(cs) - 1
    if p < 1:
        return True
    signs = [t0.sign_of(s) for s in _subresultant_table(BiPoly(cs))]
    d = next(j for j, s in enumerate(signs) if s)
    return pmv(signs) == p - d


def _sympy_number(sympy, a: AlgebraicReal):
    """a as a sympy number: the root of a.defining of the same rank."""
    k = next(i for i, r in enumerate(isolate_real_roots(a.defining)) if r == a)
    return _sympy_poly(sympy, a.defining).real_roots(multiple=False)[k][0]


def _sympy_real_rooted_at(sympy, wcoeffs, x) -> bool:
    """Whether sum_i c_i(x) w^i has only real roots, for a real algebraic
    sympy number x: over Q(x) it is divided by its gcd with its derivative,
    and the squarefree quotient has every root real, to 50 digits."""
    field = sympy.QQ.algebraic_field(x)
    gen = field.from_sympy(x)
    vals = []
    for c in reversed(wcoeffs):
        v = field.zero
        for q in reversed(c.coeffs):
            v = v * gen + field.convert(sympy.Rational(q.numerator, q.denominator))
        vals.append(v)
    sw = sympy.Symbol("w")
    p = sympy.Poly.from_list(vals, sw, domain=field)
    if p.degree() < 1:
        return True
    s = sympy.quo(p, sympy.gcd(p, p.diff(sw)))
    approx = sympy.Poly([sympy.N(field.to_sympy(c), 60) for c in s.rep.to_list()], sw)
    return all(abs(sympy.im(z)) < 1e-30 for z in approx.nroots(n=50, maxsteps=200))


def _rand_member3(rng):
    """A class member with deg P = deg Q = 3."""
    while True:
        p, q = (Poly([1, rand_rat(rng), rand_rat(rng), rand_rat(rng, nonzero=True)])
                for _ in range(2))
        try:
            return make_classf(p, q)
        except NotInClass:
            continue


def _oracle_cases(rng):
    """(x, t0): random integer pencils x linear in t, deg_w 2-6, at
    irrational roots of random t-polynomials (some reducible) and of their
    own s_0 and s_1, so that zero entries occur; and the moving parts of
    random degree-3 members at their irrational criticals in (0, 10)."""
    cases = []
    for _ in range(6):
        p = rng.randint(2, 6)
        while True:
            x = BiPoly([Poly([rng.randint(-4, 4), rng.randint(-4, 4)]) for _ in range(p + 1)])
            if x.degree_w == p:
                break
        ms = [Poly([rng.randint(-6, 6) for _ in range(rng.randint(2, 4))] + [1])
              for _ in range(2)]
        table = _subresultant_table(x)
        for m in (ms[0], ms[0] * ms[1], table[0], table[1]):
            if m.degree > 0:
                ts = [r for r in isolate_real_roots(m) if not r.is_rational()]
                cases += [(x, t0) for t0 in rng.sample(ts, min(2, len(ts)))]
    crits = 0
    while crits < 6:
        f = _rand_member3(rng)
        xh = Pencil(char_poly_t(f)).moving
        for c in critical_ts(f, 0, 10).criticals:
            if not c.is_rational():
                cases.append((xh, c))
                crits += 1
    return cases


def test_pencil_real_rooted_at_matches_the_full_table(rng):
    verdicts = set()
    for x, t0 in _oracle_cases(rng):
        got = Pencil(x).real_rooted_at(t0)
        assert got == _full_table_rule(x.wcoeffs, t0)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_pencil_real_rooted_at_matches_sympy(rng):
    sympy = pytest.importorskip("sympy")
    for x, t0 in _oracle_cases(rng):
        got = Pencil(x).real_rooted_at(t0)
        assert got == _sympy_real_rooted_at(sympy, x.wcoeffs, _sympy_number(sympy, t0))


def test_pencil_real_rooted_at_stops_at_the_first_other_sign(monkeypatch):
    # nk_classf(6): a moving part of degree 8 in w, criticals near 0.88,
    # 5.62 and 26.19 in (0, 2000); the first is No, the last Yes
    f = nk_classf(6)
    pencil = Pencil(char_poly_t(f))
    xh = pencil.moving
    no, _, yes = critical_ts(f, 0, 2000).criticals
    p = xh.degree_w
    signed = []
    sign_of = AlgebraicReal.sign_of
    monkeypatch.setattr(AlgebraicReal, "sign_of",
                        lambda self, q: signed.append(q) or sign_of(self, q))
    assert not pencil.real_rooted_at(no)
    # the full table would sign all p + 1 entries
    assert 0 < len(signed) < p + 1
    signed.clear()
    assert pencil.real_rooted_at(yes)
    assert len(signed) == p  # lc(x), then s_{p-2}, ..., s_0
    monkeypatch.undo()
    assert not _full_table_rule(xh.wcoeffs, no) and _full_table_rule(xh.wcoeffs, yes)


# ------------------------------------------------ refinement sympy oracle


_small_rat = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def _planted_polys(draw):
    """(c * product of factors, factors): distinct x - r and irreducible
    (x - u)^2 - k v^2, so the product is squarefree with the planted roots
    r and u +- v sqrt(k)."""
    factors = [Poly([-r, 1]) for r in draw(st.lists(_small_rat, max_size=3, unique=True))]
    for _ in range(draw(st.integers(0, 2))):
        u, v = draw(_small_rat), draw(_small_rat.filter(bool))
        quad = Poly([u * u - draw(st.sampled_from([2, 3, 5, 6, 7])) * v * v, -2 * u, 1])
        if quad not in factors:
            factors.append(quad)
    p = Poly.const(draw(st.integers(-4, 4).filter(bool)))
    for f in factors:
        p = p * f
    return p, factors


def _exact_sign(sympy, p: Poly, x) -> int:
    """sign of p(x) for a sympy number x = a + b sqrt(k), expanded exactly."""
    v = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(p.coeffs))
    return int(sympy.sign(sympy.expand(v)))


def _holds(sympy, a: AlgebraicReal, x) -> bool:
    return _exact_sign(sympy, w - a.lo, x) >= 0 and _exact_sign(sympy, w - a.hi, x) <= 0


@settings(max_examples=30, deadline=None)
@given(_planted_polys(), _planted_polys(), _small_rat, _small_rat,
       st.lists(_small_rat, min_size=1, max_size=3))
def test_refinement_matches_sympy(planted, other, a, b, g_low):
    sympy = pytest.importorskip("sympy")
    p, factors = planted
    assume(factors)
    roots, exact = isolate_real_roots(p), _sympy_poly(sympy, p).real_roots()
    assert len(roots) == len(exact)
    g = Poly(g_low + [1])
    lo, hi = min(a, b), max(a, b)
    for r, x in zip(roots, exact):
        assert _holds(sympy, r, x) and r.is_rational() == x.is_Rational
        # refinement from the same start is nested and keeps the root
        prev = r
        for k in range(1, 12):
            rk = r.refined_to(F(1, 2**k))
            assert rk.width() <= F(1, 2**k) and prev.lo <= rk.lo and rk.hi <= prev.hi
            assert _holds(sympy, rk, x)
            prev = rk
        # rationals on both sides, the planted roots and centres among them
        qs = [a, b, rk.lo, rk.hi] + [-f.coeffs[0] for f in factors if f.degree == 1] \
            + [-f.coeffs[1] / 2 for f in factors if f.degree == 2]
        for q in qs:
            assert r.compare_rational(q) == _exact_sign(sympy, w - q, x)
        # a drawn window, the isolating interval and a window of width 2^-18:
        # x is isolated in the window iff it lies in it, strictly inside
        c = r.refined_to(F(1, 2**20)).lo
        for u, v in ((lo, hi), (r.lo, r.hi), (c - F(1, 2**19), c + F(1, 2**19))):
            if u == v:
                with pytest.raises(ValueError):
                    isolate_real_roots(p, u, v)
                continue
            inside = [t for t in isolate_real_roots(p, u, v) if t == r]
            if _exact_sign(sympy, w - u, x) > 0 and _exact_sign(sympy, w - v, x) < 0:
                [t] = inside
                assert u < t.lo and t.hi < v and _holds(sympy, t, x)
            else:
                assert inside == []
        # exact signs, 0 on a multiple of the factor that vanishes at x
        vanishing = next(f for f in factors if _exact_sign(sympy, f, x) == 0)
        assert r.sign_of(g) == _exact_sign(sympy, g, x)
        assert r.sign_of(g * vanishing) == 0
    for r, x in zip(roots, exact):
        for s, y in zip(isolate_real_roots(other[0]), _sympy_poly(sympy, other[0]).real_roots()):
            order = int(sympy.sign(sympy.expand(x - y)))
            assert (r < s, r == s, r > s) == (order < 0, order == 0, order > 0)
            if order:
                ra, sb = r.separate(s)
                assert (ra.hi < sb.lo) == (order < 0) and (sb.hi < ra.lo) == (order > 0)
                assert _holds(sympy, ra, x) and _holds(sympy, sb, y)


@st.composite
def _ranged_polys(draw):
    """(p, lo, hi): a planted polynomial, its first factor perhaps squared,
    and ends drawn from its rational roots, 0 and small rationals of
    either sign, in either order."""
    p, factors = draw(_planted_polys())
    if factors and draw(st.booleans()):
        p = p * factors[0]
    rats = [-f.coeffs[0] for f in factors if f.degree == 1]
    end = st.sampled_from(rats + [F(0)]) | _small_rat
    return p, draw(end), draw(end)


@settings(max_examples=80, deadline=None)
@given(_ranged_polys())
@example((w * (w - 1) * (w**2 - 2), F(0), F(1)))
@example((w * (w - 1) * (w**2 - 2), F(-1), F(0)))
@example(((w**2 - 2) * (w**2 - 3) * (w + F(3, 2)), F(-3, 2), F(3, 2)))
@example(((w**2 - 2) * (3 * w - 1) ** 2, F(1, 3), F(1, 3)))
@example(((w**2 - 2) * (3 * w - 1), F(1, 3), F(-5)))
@example((Poly([-54, F(117, 64), 1]) * w, F(-5), F(5)))
@example(((w + 1) ** 2 * (w**2 - 2), F(-1), F(0)))       # lo a multiple root
@example(((10**13 * w - 1) * (w**2 - 3), F(-100), F(100)))  # ends beyond 2^e
@example(((10**13 * w - 1) * (w**2 - 3), F(0), F(1, 10**12)))
def test_range_isolation_is_the_whole_line_restricted(case):
    p, lo, hi = case
    if lo >= hi:
        with pytest.raises(ValueError):
            isolate_real_roots(p, lo, hi)
        return
    whole = isolate_real_roots(p)
    got = isolate_real_roots(p, lo, hi)
    want = [r for r in whole if lo < r < hi]
    # the count on (lo, hi] less a root at hi
    assert len(got) == len(want) == count_distinct_real_roots(p, lo, hi) - (p(hi) == 0)
    for g, r in zip(got, want):
        assert g == r and g.is_rational() == r.is_rational() and g.defining == r.defining
        assert lo < g.lo and g.hi < hi
    # an end given as None is unbounded
    assert isolate_real_roots(p, lo, None) == [r for r in whole if lo < r]
    assert isolate_real_roots(p, None, hi) == [r for r in whole if r < hi]
    assert isolate_real_roots(p, None, None) == whole


def _sign_at_sympy_root(sympy, q: Poly, x) -> int:
    """sign of q at a real algebraic sympy number x: 0 when the minimal
    polynomial of x divides q, else the sign of q(x) to 60 digits."""
    sx = sympy.Symbol("x")
    sq = _sympy_poly(sympy, q)
    if sq.is_zero or sq.rem(sympy.Poly(sympy.minimal_polynomial(x, sx), sx, domain="QQ")).is_zero:
        return 0
    v = sympy.N(sq.as_expr().subs(sx, x), 60)
    assert abs(v) > 1e-40
    return 1 if v > 0 else -1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=7).filter(lambda c: c[-1]),
       st.lists(st.lists(st.integers(-9, 9), max_size=7), min_size=1, max_size=3),
       st.lists(st.integers(-5, 5), min_size=1, max_size=3))
def test_sign_of_matches_sympy(pc, qcs, gc):
    sympy = pytest.importorskip("sympy")
    p = Poly(pc)
    roots = isolate_real_roots(p)
    exact = [x for x, _ in _sympy_poly(sympy, p).real_roots(multiple=False)]
    assert len(roots) == len(exact)
    sx = sympy.Symbol("x")
    g = Poly(gc)
    for r, x in zip(roots, exact):
        # the query needs no squarefree defining polynomial
        square = r if r.is_rational() else AlgebraicReal(r.defining**2, r.lo, r.hi)
        for q in map(Poly, qcs):
            assert r.sign_of(q) == square.sign_of(q) == _sign_at_sympy_root(sympy, q, x)
        # a multiple of the minimal polynomial of x, a factor of p, vanishes
        m = _from_sympy(sympy.Poly(sympy.minimal_polynomial(x, sx), sx, domain="QQ"))
        assert r.sign_of(m * g) == 0
        assert r.sign_of(m + g) == _sign_at_sympy_root(sympy, g, x)


def _sign_by_refinement(r: AlgebraicReal, q: Poly) -> int:
    """The sign of q at r off the Tarski route: 0 when gcd(q, defining)
    has a root inside r's interval, else the sign of q at hi once
    bisection has left q no root in [lo, hi]."""
    if r.is_rational():
        return _sign_at(q.int_coeffs()[0], r.lo)
    g = poly_gcd(q, r.defining)
    if g.degree > 0 and count_distinct_real_roots(g, r.lo, r.hi) == 1:
        return 0
    while count_distinct_real_roots(q, r.lo, r.hi) or q(r.lo) == 0:
        r = r.refined_to(r.width() / 2)
    return _sign_at(q.int_coeffs()[0], r.hi)


def test_sign_of_reduces_the_query_mod_the_defining_polynomial(monkeypatch, rng):
    # q of degree deg P .. 2 deg P + 1, so P' q is of degree >= deg P; the
    # chain must start below deg P, for a squared defining polynomial too
    try:
        import sympy
    except ImportError:
        sympy = None
    chain = algebraic._remainder_chain

    def reduced_chain(a, b):
        assert len(b) < len(a), "the Tarski chain starts at or above deg P"
        return chain(a, b)

    # the oracles and isolation build their chains in `sturm`, unpatched
    monkeypatch.setattr(algebraic, "_remainder_chain", reduced_chain)

    definings = [w**3 - w - 1, w**4 - 10 * w**2 + 1, (w**2 - 2) * (w**3 - 3),
                 (3 * w**2 - 5) * (w - F(1, 2))]
    seen = set()
    for p in definings:
        roots = isolate_real_roots(p)
        exact = ([x for x, _ in _sympy_poly(sympy, p).real_roots(multiple=False)]
                 if sympy else [None] * len(roots))
        for r, x in zip(roots, exact):
            if r.is_rational():
                continue
            square = AlgebraicReal(r.defining**2, r.lo, r.hi)
            n = r.defining.degree
            for _ in range(4):
                g = Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, n + 1))] + [1])
                h = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, n))])
                c = rng.choice([-3, -1, 2, 7])
                for q in (r.defining * g + c, r.defining * g, r.defining * g + h,
                          Poly([rng.randint(-9, 9) for _ in range(2 * n + 1)] + [1])):
                    assert n <= q.degree <= 2 * n + 1
                    want = (_sign_at_sympy_root(sympy, q, x) if sympy
                            else _sign_by_refinement(r, q))
                    assert (r.sign_of(q), square.sign_of(q)) == (want, want)
                    seen.add(want)
                # q = c mod P takes the sign of c; a multiple of P vanishes
                assert r.sign_of(r.defining * g + c) == (c > 0) - (c < 0)
                assert r.sign_of(r.defining * g) == square.sign_of(r.defining * g) == 0
    assert seen == {-1, 0, 1}


def test_interval_arithmetic():
    a = Iv(1, 2)
    assert (a * a).lo == 1 and (a * a).hi == 4
    assert iv_poly_eval([1, -1], Iv(F(1, 3))).lo == F(2, 3)
    assert Iv(-1, 1).sign() is None and Iv(0).sign() == 0


# --------------------------------------------------------------- resultants


def test_resultant_univariate_examples():
    # Res(w^2 - z, 2w) at fixed rational z, from first principles
    for z in (F(3), F(-5, 2)):
        assert resultant(Poly([-z, 0, 1]), Poly([0, 2])) == -4 * z
    assert resultant(Poly([1, -1]), Poly([2])) == 2  # deg-0 case: lc^deg


def test_resultant_w_examples():
    # Res_w(w^2 - z, 2w) as a polynomial in the parameter
    a = BiPoly([Poly([0, -1]), Poly([0]), Poly([1])])  # w^2 - z
    b = BiPoly([Poly([0]), Poly([2])])
    assert resultant_w(a, b) == Poly([0, -4])
    # Res_w(w(1-w) - z, 1 - 2w) vanishes exactly at z = 1/4
    a2 = BiPoly([Poly([0, -1]), Poly([1]), Poly([-1])])
    b2 = BiPoly([Poly([1]), Poly([-2])])
    r2 = resultant_w(a2, b2)
    assert r2 == Poly([1, -4]) or r2 == Poly([-1, 4])
    assert r2(F(1, 4)) == 0


def test_resultant_w_matches_sympy(rng):
    sympy = pytest.importorskip("sympy")
    sw, st_ = sympy.symbols("w t")

    def sym(x: BiPoly):
        return sum(sympy.Rational(c.numerator, c.denominator) * st_**j * sw**i
                   for i, cp in enumerate(x.wcoeffs) for j, c in enumerate(cp.coeffs))

    for _ in range(10):
        a = BiPoly.from_linear(rand_poly(rng, 3), rand_poly(rng, 2))
        b = BiPoly.from_linear(rand_poly(rng, 2), rand_poly(rng, 2))
        r = resultant_w(a, b)
        ref = sympy.Poly(sympy.resultant(sym(a), sym(b), sw), st_).all_coeffs()
        assert r == Poly([F(int(c.p), int(c.q)) for c in reversed(ref)])
        # interpolation nodes are integers; check the result between them
        for t0 in (F(1, 2), F(-7, 3), F(13, 5)):
            pa, pb = a.eval_param(t0), b.eval_param(t0)
            if pa.degree == a.degree_w and pb.degree == b.degree_w:
                assert r(t0) == resultant(pa, pb)


def test_resultant_evaluation_commutes(rng):
    for _ in range(10):
        a = BiPoly.from_linear(rand_poly(rng, 3), rand_poly(rng, 2))
        b = a.deriv_w()
        r = resultant_w(a, b)
        for _ in range(3):
            t0 = rand_rat(rng, 7, 3)
            pa, pb = a.eval_param(t0), b.eval_param(t0)
            if pa.degree < a.degree_w or pb.degree < b.degree_w or pb.is_zero():
                continue
            assert r(t0) == resultant(pa, pb)


def test_subresultant_table_specialises(rng):
    # the interpolated s_j agree with the routine at non-integer parameters,
    # i.e. between the integer nodes, wherever lc does not vanish; every
    # coefficient is linear in t, so s_0 reaches its degree bound 2p - 1
    for _ in range(8):
        x = BiPoly([Poly([rand_rat(rng), rand_rat(rng, nonzero=True)])
                    for _ in range(rng.randint(3, 6))])
        table = _subresultant_table(x)
        assert len(table) == x.degree_w + 1 and table[-1] == x.lc_poly
        for t0 in (F(1, 2), F(-7, 3), F(13, 5)):
            xt = x.eval_param(t0)
            if xt.degree < x.degree_w:
                continue
            a, c = xt.int_coeffs()
            s = _signed_subresultants(a, [i * v for i, v in enumerate(a)][1:])
            p = len(a) - 1
            assert [tj(t0) for tj in table[:p]] == [c ** (2 * p - 1 - 2 * j) * s[j]
                                                   for j in range(p)]


def _lagrange(nodes, values, den):
    """The interpolant of (nodes, values) divided by den, by the Fraction
    Lagrange formula."""
    out = Poly.zero()
    for i, (ti, yi) in enumerate(zip(nodes, values)):
        basis = Poly.one()
        for j, tj in enumerate(nodes):
            if j != i:
                basis = basis * Poly([F(-tj, ti - tj), F(1, ti - tj)])
        out = out + basis * F(yi, den)
    return out


def _full_node_table(x: BiPoly):
    """s_{p-2}, ..., s_0 of x and x': the whole PRS at all (2p - 1) deg_t + 1
    nodes, each s_j interpolated from every node by `_lagrange`."""
    p, k = x.degree_w, max(x.max_param_degree(), 0)
    d = math.lcm(*(c.as_integer_ratio()[1] for c in x.wcoeffs))
    xi = [[int(v) for v in (c * d).coeffs] for c in x.wcoeffs]
    nodes = _nodes((2 * p - 1) * k + 1, xi[-1])
    rows = []
    for t in nodes:
        a = [sum(v * t**i for i, v in enumerate(c)) for c in xi]
        rows.append(_signed_subresultants(a, [i * v for i, v in enumerate(a)][1:]))
    return [_lagrange(nodes, [r[j] for r in rows], d ** (2 * p - 1 - 2 * j))
            for j in range(p - 2, -1, -1)]


def test_lower_subresultants_match_the_full_node_table(rng):
    cases = []
    for deg_t in (1, 2, 3):
        for _ in range(4):
            p = rng.randint(2, 6)
            cs = [Poly([rand_rat(rng) for _ in range(deg_t + 1)]) for _ in range(p)]
            # a leading coefficient with a root at a small integer node
            root = rng.choice([0, 1, -1, 2])
            cs.append(Poly([-root, 1]) * Poly([rng.randint(1, 3)] * deg_t))
            cases.append(BiPoly(cs))
    t = Poly.x()
    # defective PRS: degree gaps > 1 at every node (sparse in w), at the
    # node 0 alone (w^6 + t x(w)), and entries that vanish identically
    # (a squared factor, so deg gcd(x, x') > 0 at every t)
    cases += [BiPoly([Poly.one(), Poly.zero(), t, Poly.zero(), Poly.zero(), Poly.zero(),
                      Poly.one()]),
              BiPoly([t * 3, t * -2, t, t * 5, Poly.zero(), Poly.zero(), Poly.one()]),
              BiPoly([Poly([1, 2]), Poly.zero(), Poly([2, 1]), Poly.const(3)])
              * BiPoly([t, Poly.zero(), Poly.one()]) * BiPoly([t, Poly.zero(), Poly.one()]),
              BiPoly([Poly([F(1, 2), 1]), Poly([0, F(-2, 3)]), Poly([F(1, 4), 0, 1])])]
    zero_entries = 0
    for x in cases:
        table = subresultants(x)
        got = [table(j) for j in range(x.degree_w - 2, -1, -1)]
        assert got == _full_node_table(x)
        zero_entries += sum(1 for s in got if s.is_zero())
    assert zero_entries > 0


def test_subresultants_scan_each_node_once(monkeypatch, rng):
    # p = 6, deg_t = 1: (2p - 1) + 1 = 12 nodes, each scanned to its end
    # when the table is built and never again; the lc 1 + t vanishes at
    # the node -1, which is skipped
    x = BiPoly([Poly([rng.randint(-4, 4), rng.randint(-4, 4)]) for _ in range(6)]
               + [Poly([1, 1])])
    scans = []
    scan = bipoly._subresultant_scan
    monkeypatch.setattr(bipoly, "_subresultant_scan",
                        lambda a, b: scans.append(a[:]) or scan(a, b))
    s = subresultants(x)
    assert scans == [[int(c(t)) for c in x.wcoeffs]
                     for t in (0, 1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6)]
    got = [s(j) for j in range(6)] + [s(j) for j in range(5, -1, -1)]
    assert len(scans) == 12 and s.cache_info().currsize == 6
    monkeypatch.undo()
    assert got[:5] == _full_node_table(x)[::-1] and got[6:] == got[5::-1]
    with pytest.raises(ValueError, match="constant in w"):
        subresultants(BiPoly([Poly([1, 1])]))


def test_bipoly_eval_and_ops():
    x = BiPoly.from_linear(Poly([1, 0, -2]), Poly([0, 3]))
    assert x.eval_param(F(1, 3)) == Poly([1, 1, -2])
    y = x * BiPoly.lift(w)
    assert y.degree_w == 3 and y.coeff(0).is_zero()


# ------------------------------------------------------------------- hankel


def _cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = F(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _cofactor_det(minor)
    return total


def test_hankel_examples():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    # independent oracle first: exact cofactor expansion of the 4x4
    m = [[F(catalan[i + j]) for j in range(4)] for i in range(4)]
    assert _cofactor_det(m) == 1
    assert hankel_det(catalan, 3) == 1
    a109081 = [1, 1, 3, 10, 37, 146, 602, 2563, 11181, 49720, 224540]
    assert hankel_det(a109081, 5) == -3374
    assert hankel_det([F(7, 3), 1, 1], 0) == F(7, 3)
    with pytest.raises(ValueError):
        hankel_det([1, 2], 1)


def test_hankel_det_reads_only_its_entries():
    # order k converts s[0..2k] alone; later entries are never touched
    assert hankel_det([1, 1, 2, "not a number"], 1) == 1
    assert hankel_det((F(1, 2), 3, object()), 0) == F(1, 2)


def test_hankel_matches_cofactor_oracle(rng):
    for _ in range(15):
        k = rng.randint(0, 4)
        s = [rand_rat(rng, 9, 5) for _ in range(2 * k + 1)]
        m = [[s[i + j] for j in range(k + 1)] for i in range(k + 1)]
        assert hankel_det(s, k) == _cofactor_det(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.lists(_small_rat, min_size=11, max_size=11),
       st.lists(st.tuples(_small_rat, _small_rat.filter(bool)), min_size=1, max_size=4),
       st.booleans())
def test_hankel_det_matches_sympy(k, seq, atoms, atomic):
    # s_n = sum of wt x^n over m distinct atoms x has Hankel rank <= m, so
    # every order k >= m gives a zero minor, and smaller ones often do
    sympy = pytest.importorskip("sympy")
    if atomic:
        seq = [sum(wt * x**n for x, wt in atoms) for n in range(11)]
    ents = [sympy.Rational(v.numerator, v.denominator) for v in seq]
    ref = sympy.Matrix(k + 1, k + 1, lambda i, j: ents[i + j]).det()
    assert hankel_det(seq, k) == F(int(ref.p), int(ref.q))
    if atomic and k >= len({x for x, _ in atoms}):
        assert hankel_det(seq, k) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(max_denominator=20,
                             min_value=F(-10), max_value=F(10)),
                min_size=3, max_size=3))
def test_bareiss_det_int_3x3(vals):
    # the matrices of the rational cofactor check, scaled to integers
    den = math.lcm(*(v.denominator for v in vals))
    a, b, c = (int(v * den) for v in vals)
    m = [[a, b, c], [b, c, a], [c, a, b]]
    assert bareiss_det_int(m) == _cofactor_det(m)


def _root_bound_cases(rng):
    yield from (rand_poly(rng, 5) for _ in range(20))
    yield from (
        # huge and tiny coefficients, lc far from +-1 and of either sign
        (10**40 * w - 3) * (w**2 - 10**30),
        (10**13 * w - 1) * (w**2 - F(1, 10**20)),
        -7 * (w**3 - F(1, 10**9)) * (3 * w + 10**6),
        F(1, 10**12) * w**5 - 10**12 * w,
        10**9 * w**4 - 1,
        # every root on the bound's own scale, and a lone root at 0
        w - 1, w + 1, w**2 - 4, (w - 2) ** 3 * (w + 1), 5 * w, -w**3,
    )


def test_root_bound_contains_roots(rng):
    for p in _root_bound_cases(rng):
        if p.is_constant():
            continue
        a = p.int_coeffs()[0]
        e = _root_bound_exponent(a)
        b = F(2) ** e
        # every real root strictly inside (-2^e, 2^e): none in (-inf, -2^e]
        # or in (2^e, inf), and 2^e itself is not one
        assert count_distinct_real_roots(p, -b, b) == count_distinct_real_roots(p)
        assert p(b) != 0
        # e is the least integer with 2^(e i) |lc| > 2^i |a_(n-i)| for every
        # i, or 0 for c x^n
        n, lc = len(a) - 1, abs(a[-1])

        def holds(k):
            return all(F(2) ** (k * i) * lc > 2**i * abs(a[n - i]) for i in range(1, n + 1))

        if any(a[:-1]):
            assert holds(e) and not holds(e - 1)
        else:
            assert e == 0
