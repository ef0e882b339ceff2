import math
import random
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcl.classf
import fcl.series
from conftest import rand_classf, rand_rat
from fcl import distlib
from fcl.classf import (ClassF, RatFun, SeriesPrefix, boxplus, compose,
                        cumulants, dilate, dilated_cumulants, dilated_moments,
                        free_power, from_r, identity_f,
                        make_classf, make_ratfun, moments, r_transform,
                        translate)
from fcl.errors import ComputationError, InvalidRTransform, NotInClass
from fcl.exactalg import Poly
from fcl.series import invert_f_series, ser_div, ser_trunc

w = Poly.x()

small_rat = st.fractions(min_value=F(-5), max_value=F(5), max_denominator=4)


# ------------------------------------------------------------ construction


def test_make_classf_normalization():
    f = make_classf(Poly([1, -1]), Poly.one())
    assert f == ClassF(Poly([1, -1]), Poly.one())
    assert make_classf(Poly([2, -2]), Poly([2])) == f
    assert make_classf(Poly([1, -1]) * Poly([1, 1]), Poly([1, 1])) == f


def test_make_classf_errors():
    with pytest.raises(NotInClass):
        make_classf(Poly([0, 1]), Poly.one())
    with pytest.raises(NotInClass):
        make_classf(Poly.one(), Poly([0, 1]))
    with pytest.raises(NotInClass):
        make_classf(Poly([2, 1]), Poly([3, 1]))  # F'(0) = 2/3


def test_series_prefix_invariants():
    with pytest.raises(ValueError):
        SeriesPrefix((2, 1), "moments")
    with pytest.raises(ValueError):
        SeriesPrefix((1, 1), "cumulants")
    assert SeriesPrefix((1, 2, 3), "moments")[2] == 3


def test_series_prefix_dilated_ints(rng):
    # moments and cumulants are the c-dilated ints a_k of dilated_*, each
    # divided by c^k
    for _ in range(10):
        f = rand_classf(rng, 3)
        for pre, (a, c) in ((moments(f, 9), dilated_moments(f, 9)),
                            (cumulants(f, 9), dilated_cumulants(f, 9))):
            assert all(type(x) is int for x in a) and c >= 1
            assert list(pre.terms) == [F(x, c**k) for k, x in enumerate(a)]


# ------------------------------------------------------------- r-transform


def test_r_transform_examples():
    v, t = F(2), F(3)
    f = make_classf(Poly([1, -v]), Poly([1, -v + t * v]))
    assert r_transform(f) == make_ratfun(Poly([0, t * v]), Poly([1, -v]))
    assert r_transform(identity_f()) == RatFun(Poly.zero(), Poly.one())
    fw = make_classf(Poly.one(), Poly([1, 0, t]))
    assert r_transform(fw) == RatFun(Poly([0, 0, t]), Poly.one())


def test_from_r_examples():
    r1 = make_ratfun(w, (1 - w) ** 2)
    assert from_r(r1) == ClassF((1 - w) ** 2, Poly([1, -1, 1]))
    assert from_r(RatFun(Poly.zero(), Poly.one())) == identity_f()
    r2 = make_ratfun(w * (1 + w), (1 - w) ** 3)
    assert from_r(r2) == ClassF((1 - w) ** 3, Poly([1, -2, 4, -1]))
    with pytest.raises(InvalidRTransform):
        from_r(RatFun(Poly.one(), Poly.one()))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_from_r_roundtrip(seed):
    f = rand_classf(random.Random(seed), 3)
    assert from_r(r_transform(f)) == f


# ------------------------------------------------- translation and dilation


def test_translate_dilate_examples():
    u = F(5, 2)
    assert translate(identity_f(), u) == ClassF(Poly.one(), Poly([1, u]))
    f = rand_classf(random.Random(3), 3)
    assert translate(f, 0) == f
    assert dilate(make_classf(Poly([1, -1]), Poly.one()), -1) == \
        make_classf(Poly([1, 1]), Poly.one())
    assert dilate(f, 1) == f
    with pytest.raises(ValueError):
        dilate(f, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), small_rat, small_rat)
def test_translate_dilate_r_identities(seed, u, c):
    f = rand_classf(random.Random(seed), 3)
    rf = r_transform(f)
    r1 = r_transform(translate(f, u))
    assert r1 - rf == RatFun(Poly([0, u]), Poly.one())
    if c != 0:
        r2 = r_transform(dilate(f, c))
        assert r2 == make_ratfun(rf.num.scale_arg(c), rf.den.scale_arg(c))


# ------------------------------------------------------- group operations


def test_boxplus_examples():
    f = rand_classf(random.Random(11), 4)
    assert boxplus(f, identity_f()) == f
    mp_pos = make_classf(Poly([1, -1]), Poly([1, F(-1, 2)]))   # MP(1, 1/2)
    mp_neg = make_classf(Poly([1, 1]), Poly([1, F(1, 2)]))     # MP(-1, 1/2)
    assert boxplus(mp_pos, mp_neg) == ClassF(Poly([1, 0, -1]), Poly.one())


def test_free_power_examples():
    fd = make_classf(Poly([1, 0, -1]), Poly.one())
    t = F(7, 2)
    assert free_power(fd, t) == ClassF(Poly([1, 0, -1]), Poly([1, 0, t - 1]))
    f = rand_classf(random.Random(5), 4)
    assert free_power(f, 1) == f
    assert free_power(f, 0) == identity_f()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), small_rat, small_rat)
def test_group_laws(seed, s, t):
    rng = random.Random(seed)
    f1, f2, f3 = (rand_classf(rng, 3) for _ in range(3))
    assert boxplus(f1, f2) == boxplus(f2, f1)
    assert boxplus(boxplus(f1, f2), f3) == boxplus(f1, boxplus(f2, f3))
    assert r_transform(boxplus(f1, f2)) == r_transform(f1) + r_transform(f2)
    assert free_power(f1, s + t) == boxplus(free_power(f1, s), free_power(f1, t))
    assert free_power(free_power(f1, s), t) == free_power(f1, s * t)


# ------------------------------------------------------------- composition


def test_compose_examples():
    u, v = F(2), F(-3)
    g = compose(make_classf(Poly([1, v]), Poly.one()),
                make_classf(Poly([1, u]), Poly.one()))
    assert g == make_classf(Poly([1, u]) * Poly([1, v, u * v]), Poly.one())
    f = rand_classf(random.Random(17), 4)
    assert compose(identity_f(), f) == f
    assert compose(f, identity_f()) == f


def test_compose_monotone_paper_form():
    # semicircle into MP: F_MP(F_W(w)) with rationalized parameters
    v, s, t = F(3), F(4), F(1)
    fw = make_classf(Poly.one(), Poly([1, 0, t]))
    fmp = make_classf(Poly([1, -v]), Poly([1, -v + s * v]))
    got = compose(fmp, fw)
    expect = make_classf(Poly([1, -v, t]),
                         Poly([1, 0, t]) * Poly([1, -v + s * v, t]))
    assert got == expect


def ser_mul(a, b, n: int):
    """a*b mod z^(n+1)."""
    a, b = ser_trunc(a, n), ser_trunc(b, n)
    return [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(n + 1)]


def ser_compose(a, b, n: int):
    """a(b(z)) mod z^(n+1); requires b[0] == 0."""
    b = ser_trunc(b, n)
    if b[0] != 0:
        raise ValueError("series composition needs b(0) = 0")
    out = [0] * (n + 1)
    power = [1] + [0] * n
    for k, c in enumerate(ser_trunc(a, n)):
        if c:
            out = [x + c * y for x, y in zip(out, power)]
        if k < n:
            power = ser_mul(power, b, n)
    return out


def moments_from_cumulants(r, n: int):
    """s_0..s_n from cumulants r via s_k = sum_j r_j * [z^(k-j)] M(z)^j (O(n^3)).

    pows[j][m] = [z^m] M(z)^j is filled at step k = j + m from s[0..m] and
    pows[j-1][0..m], which are final by then.
    """
    s = [1] + [0] * n
    pows = [[1] + [0] * n]  # M^0
    for k in range(1, n + 1):
        pows.append([1] + [0] * (n - k))  # M^k = 1 + O(z), needed to z^(n-k)
        for j in range(1, k):
            m = k - j
            pows[j][m] = sum(map(mul, s[: m + 1], pows[j - 1][m::-1]))
        s[k] = sum(r[j] * pows[j][k - j] for j in range(1, k + 1))
    return s


def test_series_ring_is_preserved():
    d = invert_f_series([1, -1], [1], 8)  # inverse of w - w^2: Catalan numbers
    assert all(type(x) is int for x in d) and d[1:6] == [1, 1, 2, 5, 14]
    assert ser_div([1], [2, 1], 3) == [F(1, 2), F(-1, 4), F(1, 8), F(-1, 16)]
    half = ser_div([F(1, 2)], [1, -1], 3)
    assert half == [F(1, 2)] * 4 and all(type(x) is F for x in half)


def _padded_ser_div(a, b, n):
    """a/b mod z^(n+1) by schoolbook division with both series padded to n+1."""
    a, b = ser_trunc(a, n), ser_trunc(b, n)
    out = []
    for k in range(n + 1):
        acc = a[k] - sum(b[i] * out[k - i] for i in range(1, k + 1))
        out.append(F(acc) / b[0])
    return out


_ints = st.integers(-9, 9)


@settings(max_examples=80, deadline=None)
@given(st.lists(_ints | small_rat, max_size=12),
       st.one_of(_ints, small_rat).filter(bool),
       st.lists(_ints | small_rat, max_size=14), st.integers(0, 10))
def test_ser_div_matches_padded_schoolbook(a, b0, b_rest, n):
    # b0 != 1 takes the Fraction path; b may be longer than n + 1
    b = [b0] + b_rest
    out = ser_div(a, b, n)
    assert len(out) == n + 1 and out == _padded_ser_div(a, b, n)
    if b0 == 1 and all(type(x) is int for x in a + b):
        assert all(type(x) is int for x in out)


@pytest.mark.parametrize("b", [[], [0], [0, 1, 2]])
def test_ser_div_needs_a_unit_constant_term(b):
    with pytest.raises(ZeroDivisionError):
        ser_div([1, 2], b, 3)


@pytest.mark.parametrize("deg_p,deg_q", [(0, 0), (0, 3), (3, 0), (2, 5), (6, 6)])
def test_invert_f_series_inverts_at_every_order(deg_p, deg_q):
    # D p(D) = z q(D) mod z^(n+1), i.e. F(D) = z, since q(D) is a unit; orders
    # that are not powers of two end on a clipped Newton step
    rng = random.Random(100 * deg_p + deg_q)

    def rand_poly(deg):
        return [1] + [rng.randint(-9, 9) for _ in range(deg - 1)] + \
            [rng.choice([-3, -2, -1, 1, 2, 3])] * (deg > 0)

    for _ in range(3):
        p, q = rand_poly(deg_p), rand_poly(deg_q)
        for n in range(41):
            d = invert_f_series(p, q, n)
            assert len(d) == n + 1 and all(type(x) is int for x in d)
            lhs = ser_mul(d, ser_compose(p, d, n), n)
            rhs = ser_mul([0, 1], ser_compose(q, d, n), n)
            assert lhs == rhs, (p, q, n)


def test_compose_d_series(rng):
    # D series of the composition is D1(D2(z)) order by order
    for _ in range(5):
        f1, f2 = rand_classf(rng, 3), rand_classf(rng, 3)
        n = 15
        g = compose(f2, f1)
        mg = moments(g, n)
        d1 = [F(0)] + list(moments(f1, n).terms)
        d2 = [F(0)] + list(moments(f2, n).terms)
        comp = ser_compose(ser_trunc(d1, n + 1), ser_trunc(d2, n + 1), n + 1)
        assert comp[1:] == list(mg.terms)


# ----------------------------------------------------------------- moments


def test_moments_catalan():
    f = make_classf(Poly([1, -1]), Poly.one())
    assert list(moments(f, 5).terms) == [1, 1, 2, 5, 14, 42]


def test_moments_rnn1():
    f = from_r(make_ratfun(w, (1 - w) ** 2))
    assert list(moments(f, 10).terms) == \
        [1, 1, 3, 10, 37, 146, 602, 2563, 11181, 49720, 224540]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_first_moments_formulas(seed):
    f = rand_classf(random.Random(seed), 4)
    a1, a2 = f.P.coeff(1), f.P.coeff(2)
    b1, b2 = f.Q.coeff(1), f.Q.coeff(2)
    s = moments(f, 2).terms
    assert s[0] == 1
    assert s[1] == b1 - a1
    assert s[2] == 2 * a1**2 + b1**2 - 3 * a1 * b1 - a2 + b2
    # variance identity
    assert s[2] - s[1] ** 2 == a1**2 - a1 * b1 - a2 + b2


def test_moments_dual_route_agreement(rng):
    # the two extraction routes agree to n = 25 on 50 random members
    for _ in range(50):
        f = rand_classf(rng, 4)
        m = moments(f, 25)
        assert len(m.terms) == 26 and m.terms[0] == 1


# A member with awkward denominators (7/12, -5/3, 1/9) in both P and Q.
AWKWARD = make_classf(Poly([1, F(7, 12), F(-5, 3)]), Poly([1, F(1, 9), 0, F(-7, 12)]))


@pytest.mark.parametrize("c", [F(3), F(2, 5), F(-7, 4)])
def test_dilation_scales_moments_and_cumulants(c):
    n = 20
    for f in (AWKWARD, boxplus(AWKWARD, rand_classf(random.Random(7), 3))):
        g = dilate(f, c)
        sf, sg = moments(f, n).terms, moments(g, n).terms
        assert all(sg[k] == c**k * sf[k] for k in range(n + 1))
        rf, rg = cumulants(f, n).terms, cumulants(g, n).terms
        assert all(rg[k] == c**k * rf[k] for k in range(n + 1))


def test_moments_match_closed_forms_at_fractional_parameters():
    n = 30
    for t in (F(2, 3), F(7, 5), F(1, 9)):
        assert list(moments(distlib.wigner(t), n).terms) == \
            [distlib.wigner_moment(t, k) for k in range(n + 1)]
    for v, s in ((F(-5, 3), F(7, 12)), (F(3, 4), F(1, 9)), (F(2), F(5, 2))):
        assert list(moments(distlib.mp(v, s), n).terms) == \
            [distlib.mp_moment(v, s, k) for k in range(n + 1)]
        assert list(cumulants(distlib.mp(v, s), n).terms) == \
            [0] + [s * v**k for k in range(1, n + 1)]


def test_moment_and_cumulant_terms_are_fractions():
    for f in (AWKWARD, identity_f(), make_classf(Poly([1, -1]), Poly.one())):
        assert all(type(x) is F for x in moments(f, 8).terms)
        assert all(type(x) is F for x in cumulants(f, 8).terms)


@pytest.mark.parametrize("dp, dq", [(0, 0), (1, 1), (0, 2), (1, 2), (3, 1), (2, 5),
                                    (6, 4), (0, 6), (5, 0), (6, 6)])
def test_moments_match_cumulant_table(dp, dq):
    # M*P(zM) = Q(zM) against the free moment-cumulant relation, to n = 60
    rng = random.Random(100 * dp + dq)
    n = 60
    while True:
        try:
            f = make_classf(Poly([1] + [rand_rat(rng, 5, 3, True) for _ in range(dp)]),
                            Poly([1] + [rand_rat(rng, 5, 3, True) for _ in range(dq)]))
            break
        except NotInClass:
            continue
    assert (f.P.degree, f.Q.degree) == (dp, dq)
    expect = moments_from_cumulants(cumulants(f, n).terms, n)
    assert list(moments(f, n).terms) == expect


def test_moments_when_chi_has_lower_degree_than_q():
    # chi = 1 - 2w: the Newton power table must still reach D^(deg Q)
    f = make_classf(Poly([1, -1]), Poly([1, -1, 1]))
    n = 30
    assert list(moments(f, n).terms) == moments_from_cumulants(cumulants(f, n).terms, n)


@pytest.mark.parametrize("route", ["invert_f_series", "_moments_from_equation"])
def test_moments_route_mismatch_raises(monkeypatch, route):
    original = getattr(fcl.classf, route)

    def perturbed(p, q, n):
        s = original(p, q, n)
        s[-1] += 1
        return s

    monkeypatch.setattr(fcl.classf, route, perturbed)
    with pytest.raises(ComputationError):
        moments(AWKWARD, 6)


def test_invert_f_series_halves_down_from_the_target(monkeypatch):
    # the Newton orders are n, ceil(n/2), ceil(n/4), ... in ascending order:
    # doubling would run 2, 4, 8, 16, 32, 37
    seen = []
    original = fcl.series._combine

    def spy(p, pows, n):
        seen.append(n)
        return original(p, pows, n)

    monkeypatch.setattr(fcl.series, "_combine", spy)
    d = invert_f_series([1, 2, -1], [1, -3, 0, 2], 37)
    assert seen[::2] == seen[1::2] == [2, 3, 5, 10, 19, 37]
    monkeypatch.undo()
    assert d == invert_f_series([1, 2, -1], [1, -3, 0, 2], 40)[:38]


# ------------------------------------------------------ the least dilation


def _dens(f):
    """den_i: the lcm of the denominators of the w^i coefficients of P and Q."""
    top = max(f.P.degree, f.Q.degree)
    return [math.lcm(f.P.coeff(i).denominator, f.Q.coeff(i).denominator)
            for i in range(top + 1)]


def _lcm_dilation(f):
    """The dilation by the lcm of every coefficient denominator, an oracle."""
    c = math.lcm(*_dens(f))
    return (c,) + tuple(x.scale_arg(c).as_integer_ratio()[0] for x in (f.P, f.Q))


def _prime_factors(c):
    out, r = [], 2
    while r * r <= c:
        if c % r == 0:
            out.append(r)
            while c % r == 0:
                c //= r
        r += 1
    return out + [c] * (c > 1)


def _dilation_members():
    rng = random.Random(37)
    laws = [AWKWARD]
    for a, b, c in ((F(1, 4), F(-2, 9), F(5, 12)), (F(7, 9), F(3, 4), F(1, 12)),
                    (F(5, 12), F(4, 9), F(-9, 4))):
        laws += [compose(distlib.mp(b, abs(a)), distlib.wigner(abs(c))),
                 compose(distlib.wigner(abs(a)), distlib.mp(c, abs(b))),
                 compose(distlib.mp(a, abs(c)), distlib.mp(b, abs(a))),
                 compose(distlib.wigner(abs(b)), distlib.wigner(abs(c)))]
    return laws + [rand_classf(rng, 4) for _ in range(30)]


def test_dilation_is_the_least_c_with_den_i_dividing_c_to_the_i():
    shrunk = 0
    for f in _dilation_members():
        c, p, q = fcl.classf._dilation(f)
        dens, lcm = _dens(f), _lcm_dilation(f)[0]
        assert lcm % c == 0
        assert all(c**i % d == 0 for i, d in enumerate(dens) if i)
        for r in _prime_factors(c):
            assert any((c // r)**i % d for i, d in enumerate(dens) if i), (f, c, r)
        assert list(p) == list(f.P.scale_arg(c).coeffs) and list(q) == list(f.Q.scale_arg(c).coeffs)
        shrunk += c < lcm
    assert shrunk >= 10
    # w^2/4 needs c = 2, w^3/16 needs 4 (16 | 4^3), w^2/9 + w^3/8 needs 6
    for p, c in ((Poly([1, 0, F(1, 4)]), 2), (Poly([1, 0, 0, F(1, 16)]), 4),
                 (Poly([1, 0, F(1, 9), F(1, 8)]), 6)):
        assert fcl.classf._dilation(make_classf(p, Poly.one()))[0] == c


_BIG = 10**6 + 3  # a prime above the trial bound 2^10


@pytest.mark.parametrize("terms, least", [
    ({1: _BIG**2}, _BIG**2), ({2: _BIG**2}, _BIG), ({3: _BIG**3}, _BIG), ({2: _BIG**3}, _BIG**2),
    ({2: (1031 * 1033)**2}, 1031 * 1033), ({1: 10**400}, 10**400),
    ({3: 10**400}, 10**134), ({2: 4 * 1031}, 2 * 1031),
    ({1: 1033, 2: 1031**2}, None), ({1: 1031**2, 2: 1033**2}, None)],
    ids=["big_prime_sq-w1", "big_prime_sq-w2", "big_prime_cube-w3", "big_prime_cube-w2",
         "composite_sq-w2", "1e400-w1", "1e400-w3", "4x1031-w2",
         "two_big_primes-w1w2", "two_big_prime_squares-w1w2"])
def test_dilation_of_large_denominators_is_valid(terms, least):
    # P = 1 + sum w^i / terms[i].  Small primes get their least exponent; the
    # cofactor with no small prime factor, y^k with k as large as possible,
    # the least power of y (y = 1031 * 1033 > 2^20 is composite:
    # (1031 * 1033)^2 is not split).  Two primes above 2^10 in two
    # denominators share one exponent, so c is valid but not least there
    # (least is None): 1031^2 * 1033 and (1031 * 1033)^2, where 1031 * 1033
    # and 1031^2 * 1033 suffice
    p = [1] + [0] * max(terms)
    for i, den in terms.items():
        p[i] = F(1, den)
    f = make_classf(Poly(p), Poly([1, F(-1, 3)]))
    c = fcl.classf._dilation(f)[0]
    dens = _dens(f)
    assert math.lcm(*dens) % c == 0
    assert all(c**i % d == 0 for i, d in enumerate(dens) if i)
    if least is not None:
        assert c == 3 * least  # the 3 from Q
    assert moments(f, 12) == _oracle(moments, f, 12)
    assert cumulants(f, 12) == _oracle(cumulants, f, 12)
    from fcl.posdef import fid_check, is_moment_positive_up_to
    for scan in (is_moment_positive_up_to, fid_check):
        assert scan(f, 5) == _oracle(scan, f, 5)


def _oracle(fn, *args):
    """fn(*args) with the lcm dilation in place of the least one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fcl.classf, "_dilation", _lcm_dilation)
        return fn(*args)


def test_least_dilation_keeps_every_moment_cumulant_and_minor():
    from fcl.posdef import fid_check, is_moment_positive_up_to
    for f in _dilation_members():
        c, lcm = fcl.classf._dilation(f)[0], _lcm_dilation(f)[0]
        for dilated in (dilated_moments, dilated_cumulants):
            a, c1 = dilated(f, 16)
            b, c2 = _oracle(dilated, f, 16)
            assert (c1, c2) == (c, lcm)
            assert [x * (lcm // c)**k for k, x in enumerate(a)] == b
        assert moments(f, 16) == _oracle(moments, f, 16)
        assert cumulants(f, 16) == _oracle(cumulants, f, 16)
        for scan in (is_moment_positive_up_to, fid_check):
            assert scan(f, 7) == _oracle(scan, f, 7)


# --------------------------------------------------------------- cumulants


def test_cumulants_examples():
    v, t = F(3, 2), F(5)
    fm = make_classf(Poly([1, -v]), Poly([1, -v + t * v]))
    assert list(cumulants(fm, 6).terms) == [0] + [t * v**n for n in range(1, 7)]
    assert list(cumulants(identity_f(), 5).terms) == [0] * 6
    f = from_r(make_ratfun(w, (1 - w) ** 2))
    assert list(cumulants(f, 9).terms) == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
    with pytest.raises(ValueError):
        cumulants(f, 0)
