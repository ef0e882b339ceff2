import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import moving_part, pencil_parts, rand_classf, rand_rat, tarski_query
from fcl.classf import (from_r, free_power, identity_f, make_classf,
                        make_ratfun, translate)
from fcl.euler import ck_candidates, nk_classf
from fcl.exactalg import (AlgebraicReal, BiPoly, Poly, algebraic,
                          is_real_rooted, is_squarefree, isolate_real_roots,
                          poly_gcd, real_rooted_from_signs, resultant_w,
                          squarefree_part, sturm_chain, subresultants)
from fcl.spectra import (Pencil, Verdict, cg_region, char_poly,
                         char_poly_t, cleaned_critical_eliminant,
                         critical_ts, deg3_rr0, flow_pencil, is_rr, is_rr0,
                         is_singular,
                         lb_curve, n_set, r3_poly_rr0, r4_c0_classify,
                         r4_singular_params, rr0_at_algebraic_t)

w = Poly.x()


def f_of(p, q=None):
    return make_classf(p, q if q is not None else Poly.one())


# --------------------------------------------------------------- char poly


def test_char_poly_examples():
    assert char_poly(f_of(Poly([1, -1]) * Poly([1, -2, 2]))) == (1 - 2 * w) ** 3
    v, t = F(3), F(7)
    fmp = make_classf(Poly([1, -v]), Poly([1, -v + t * v]))
    assert char_poly(fmp) == Poly([1, -2 * v, (1 - t) * v**2])
    assert char_poly(identity_f()) == Poly.one()
    assert char_poly(f_of(Poly([1, -1]))) == Poly([1, -2])


def test_char_poly_translation_dilation(rng):
    for _ in range(15):
        f = rand_classf(rng, 3)
        u, c = rand_rat(rng), rand_rat(rng, nonzero=True)
        assert char_poly(translate(f, u)) == char_poly(f)
        assert char_poly(dilate_local(f, c)) == char_poly(f).scale_arg(c)


def dilate_local(f, c):
    from fcl.classf import dilate
    return dilate(f, c)


def test_char_poly_t_examples():
    fd = f_of(Poly([1, 0, -1]))
    assert char_poly_t(fd) == BiPoly([Poly([1]), Poly([0]), Poly([-2, -1]),
                                      Poly([0]), Poly([1, -1])])
    fa = make_classf(Poly([1, -1]), Poly([1, -1, 2, -1]))
    assert char_poly_t(fa) == BiPoly([Poly([1]), Poly([-2]), Poly([1, -2]),
                                      Poly([0, 2]), Poly([0, -1])])


def test_char_poly_t_specialization(rng):
    for _ in range(100):
        f = rand_classf(rng, 3)
        t = rand_rat(rng, 7, 3)
        specialized = char_poly_t(f).eval_param(t)
        if t != 0:
            assert specialized == char_poly(free_power(f, t))
        else:
            # the flow collapses to the identity; chi_0 = P^2 covers it
            assert specialized == f.P * f.P
            assert char_poly(free_power(f, 0)) == Poly.one()


_tail = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=4)


def _sympy_expr(sympy, p: Poly, x):
    return sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(p.coeffs))


def _rat(c) -> F:
    return F(int(c.p), int(c.q))


@settings(max_examples=40, deadline=None)
@given(_tail, _tail)
def test_char_poly_matches_sympy(p_tail, q_tail):
    # chi_F is the numerator of (wP/Q)' = ((P + wP')Q - wPQ')/Q^2
    sympy = pytest.importorskip("sympy")
    f = make_classf(Poly([1] + p_tail), Poly([1] + q_tail))
    x = sympy.Symbol("w")
    P, Q = _sympy_expr(sympy, f.P, x), _sympy_expr(sympy, f.Q, x)
    ref = sympy.Poly(sympy.cancel(sympy.diff(x * P / Q, x) * Q**2), x)
    assert char_poly(f) == Poly([_rat(c) for c in reversed(ref.all_coeffs())])


@settings(max_examples=40, deadline=None)
@given(_tail, _tail)
def test_char_poly_t_matches_sympy(p_tail, q_tail):
    # chi of F_t = wP/Q_t with Q_t = P + t(Q - P), t a symbol
    sympy = pytest.importorskip("sympy")
    f = make_classf(Poly([1] + p_tail), Poly([1] + q_tail))
    x, t = sympy.symbols("w t")
    P, Q = _sympy_expr(sympy, f.P, x), _sympy_expr(sympy, f.Q, x)
    Qt = P + t * (Q - P)
    ref = sympy.Poly((P + x * sympy.diff(P, x)) * Qt - x * P * sympy.diff(Qt, x), x, t)
    chi = char_poly_t(f)
    ours = {(i, j): c for i, pc in enumerate(chi.wcoeffs) for j, c in enumerate(pc.coeffs) if c}
    assert ours == {ij: _rat(c) for ij, c in ref.terms()}


# ------------------------------------------------------------- memberships


def test_is_rr0_examples():
    assert is_rr0(f_of(Poly([1, -1]) * Poly([1, -2, 2])))
    assert not is_rr0(f_of(Poly([1, -1]) * Poly([1, -1, 1])))
    assert is_rr0(make_classf(Poly.one(), Poly([1, 0, 3, 1])))
    assert char_poly(make_classf(Poly.one(), Poly([1, 0, 3, 1]))) == \
        Poly([1, 1]) ** 2 * Poly([1, -2])


def test_n_set_examples():
    ns = n_set(f_of(Poly([1, -1])))
    assert [r.as_fraction() for r in ns.real_members] == [F(1, 4)]
    assert ns.nonreal_pair_count == 0

    ns2 = n_set(f_of(Poly([1, -1]) * Poly([1, -1, 1])))
    assert [r.as_fraction() for r in ns2.real_members] == [F(3, 16), F(1, 4)]
    assert ns2.nonreal_pair_count == 0 and ns2.all_real

    f2 = free_power(f_of(Poly([1, 0, -1])), 2)
    ns3 = n_set(f2)
    assert ns3.nonreal_pair_count >= 1


def test_n_set_artifact_cleaning():
    # semicircle: generic leading coefficient vanishes at z = 0 but z = 0
    # is not a genuine member
    t = F(4)
    fw = make_classf(Poly.one(), Poly([1, 0, t]))
    ns = n_set(fw)
    assert ns.nonreal_pair_count == 0
    vals = [r for r in ns.real_members]
    assert len(vals) == 2
    assert all(r != 0 for r in vals)
    # members are +-1/(2 sqrt(t)) = +-1/4
    assert [r.as_fraction() for r in vals] == [F(-1, 4), F(1, 4)]


def test_n_set_genuine_zero_member():
    # P with a double root puts z = 0 into the set; cleaning must keep it
    f = f_of((1 - w) ** 2)
    ns = n_set(f)
    assert any(r == 0 for r in ns.real_members)


def test_n_set_member_certificates(rng):
    for _ in range(10):
        f = rand_classf(rng, 3)
        ns = n_set(f)
        for r in ns.real_members:
            q = r.as_fraction()
            pz_gcd_deg_pos = None
            if q is not None:
                pz = w * f.P - q * f.Q
                pz_gcd_deg_pos = not poly_gcd(pz, pz.derivative()).is_constant()
                assert pz_gcd_deg_pos
            else:
                # exact: the member is a root of the raw eliminant
                a = BiPoly.from_linear(w * f.P, -f.Q)
                raw = resultant_w(a, a.deriv_w())
                assert r.is_root_of(raw)


def test_is_rr_examples():
    assert is_rr(f_of(Poly([1, -1]) * Poly([1, -1, 1])))
    assert not is_rr(free_power(f_of(Poly([1, 0, -1])), 2))


def test_rr0_implies_rr(rng):
    hits = 0
    for _ in range(40):
        f = rand_classf(rng, 3)
        if is_rr0(f):
            hits += 1
            assert is_rr(f)
    assert hits >= 3  # corpus actually exercised


def test_is_singular_examples():
    assert is_singular(f_of(Poly([1, -1]) * Poly([1, -2, 2])))
    assert not is_singular(f_of(Poly([1, -1])))
    f1 = make_classf(Poly([1, 0, 1]), Poly([1, 0, 9]))
    assert char_poly(f1) == Poly([1, 0, -3]) ** 2
    assert is_singular(f1)
    # multiple complex root only: not singular
    fc = from_r(make_ratfun(Poly([0, 0, 2, 0, 1]), Poly.one()))
    chi = char_poly(fc)
    assert chi == Poly([1, 0, -2, 0, -3])  # chi = 1 - 2w^2 - 3w^4 squarefree
    assert not is_singular(fc)


# ---------------------------------------------------------------- criticals


def test_criticals_rnn1():
    f = from_r(make_ratfun(w, (1 - w) ** 2))
    rep = critical_ts(f, 0, 10)
    assert [c.as_fraction() for c in rep.criticals] == [F(27, 8)]
    assert rep.kinds == ("multiple_root",)
    assert rep.rr0_verdicts == (Verdict.NO, Verdict.YES)
    chi = char_poly(free_power(f, F(27, 8)))
    assert chi == F(1, 4) * Poly([1, -1]) * Poly([1, -4]) * Poly([2, 1]) ** 2


def test_criticals_darkmatter():
    f = f_of(Poly([1, 0, -1]))
    rep = critical_ts(f, 0, 3)
    assert len(rep.criticals) == 1
    assert rep.criticals[0].as_fraction() == 1
    assert rep.kinds == ("degree_drop",)
    assert rep.rr0_verdicts == (Verdict.YES, Verdict.NO)


def test_criticals_degree_drop_placement():
    # a degree drop between multiple-root criticals keeps ascending order
    f = make_classf(Poly([1, F(-3, 2), 0, 2]), Poly([1, 4]))
    rep = critical_ts(f, -10, 10)
    assert rep.kinds == ("multiple_root",) * 3 + ("degree_drop", "multiple_root")
    assert rep.criticals[3].as_fraction() == 1
    assert all(a.hi < b.lo for a, b in zip(rep.criticals, rep.criticals[1:]))
    # a degree drop that is also a multiple-root critical
    g = make_classf(Poly([1, F(5, 3)]), Poly([1, -4, F(-9, 4), 1]))
    rep = critical_ts(g, -10, 10)
    assert rep.kinds == ("both", "multiple_root")
    assert rep.criticals[0].as_fraction() == 0


def test_criticals_a078623():
    f = make_classf(Poly([1, -1]), Poly([1, -1, 2, -1]))
    rep = critical_ts(f, 0, 1)
    assert any(c.as_fraction() == F(1, 8) for c in rep.criticals)
    chi = char_poly(free_power(f, F(1, 8)))
    assert chi == F(1, 8) * Poly([2, -1]) ** 2 * Poly([2, -2, -1])
    assert is_rr0(free_power(f, F(1, 10)))
    assert not is_rr0(free_power(f, F(1, 4)))


def test_criticals_trivial_f():
    rep = critical_ts(identity_f(), 0, 5)
    assert rep.criticals == ()
    assert rep.rr0_verdicts == (Verdict.YES,)


_RNN1 = from_r(make_ratfun(w, (1 - w) ** 2))
_DROP = make_classf(Poly([1, F(-3, 2), 0, 2]), Poly([1, 4]))      # tau = 1
_BOTH = make_classf(Poly([1, F(5, 3)]), Poly([1, -4, F(-9, 4), 1]))  # tau = 0
_A078623 = make_classf(Poly([1, -1]), Poly([1, -1, 2, -1]))      # tau = 0


@pytest.mark.parametrize("f, t_lo, t_hi, crits, kinds, verdicts", [
    (_RNN1, 0, F(27, 8), [], "", "N"),
    (_RNN1, F(27, 8), 10, [], "", "Y"),
    (_RNN1, 0, 10, [F(27, 8)], "m", "NY"),
    (_DROP, 0, 1, [0.79021], "m", "NN"),
    (_DROP, 1, 3, [2.61369], "m", "NY"),
    (_DROP, -1, 0, [-0.08457], "m", "NN"),
    (_DROP, 0, 3, [0.79021, F(1), 2.61369], "mdm", "NNNY"),
    (_DROP, -20, 1, [-0.08457, F(0), 0.79021], "mmm", "NNNN"),
    (_BOTH, 0, 1, [0.13824], "m", "YN"),
    (_BOTH, -1, 0, [], "", "N"),
    (_A078623, -1, F(1, 8), [F(0)], "b", "NY"),
    (_A078623, 0, F(1, 8), [], "", "Y"),
    (_A078623, F(1, 8), 1, [], "", "N"),
    (_A078623, -1, 0, [], "", "N"),
])
def test_criticals_with_an_end_on_a_critical_or_tau(f, t_lo, t_hi, crits, kinds, verdicts):
    # every end above is a rational critical (0 is one for each of these
    # members: chi_0 = P^2) or tau; the expected values are those of
    # isolating the whole line and keeping the roots inside the range
    kind = {"m": "multiple_root", "d": "degree_drop", "b": "both"}
    rep = critical_ts(f, t_lo, t_hi)
    assert rep.kinds == tuple(kind[k] for k in kinds)
    assert rep.rr0_verdicts == tuple(Verdict.YES if v == "Y" else Verdict.NO for v in verdicts)
    assert len(rep.criticals) == len(crits)
    for c, want in zip(rep.criticals, crits):
        assert t_lo < c.lo and c.hi < t_hi
        if isinstance(want, F):
            assert c.as_fraction() == want
        else:
            assert not c.is_rational() and float(c) == pytest.approx(want, abs=1e-5)
    # the same criticals, kinds and verdicts as a range whose ends are none
    wide = critical_ts(f, -20, 20)
    inside = [i for i, c in enumerate(wide.criticals) if t_lo < c < t_hi]
    assert list(rep.criticals) == [wide.criticals[i] for i in inside]
    assert rep.kinds == tuple(wide.kinds[i] for i in inside)
    j = sum(1 for c in wide.criticals if c <= t_lo)
    assert rep.rr0_verdicts == wide.rr0_verdicts[j:j + len(inside) + 1]


def test_critical_ts_from_zero_never_reports_zero(rng):
    members = [nk_classf(2), nk_classf(3), _RNN1, _BOTH, _A078623]
    members += [rand_classf(rng, d) for d in (2, 3, 3, 4, 4)]
    at_zero = 0
    for f in members:
        at_zero += flow_pencil(f).eliminant()(0) == 0
        rep = critical_ts(f, 0, 10)
        assert all(c != 0 and 0 < c.lo and c.hi < 10 for c in rep.criticals)
    # t = 0 is a root of chi_t's eliminant for most of them
    assert at_zero >= 5


def test_degree6_eliminant_chain_stays_small():
    # a random degree-6 member (coefficients p/q, |p| <= 9, q <= 4, drawn
    # with random.Random(1)); its cleaned eliminant has degree 16.  The
    # Euclidean Sturm chain of it over Q reaches 28,706-bit coefficients,
    # the primitive integer chain 3,359 bits.
    f = make_classf(Poly([1, -5, -1, F(3, 2), F(3, 2), -3, 6]),
                    Poly([1, F(3, 4), F(-9, 4), F(-1, 2), 9, 1, -9]))
    _, _, rho = cleaned_critical_eliminant(f)
    assert rho.degree == 16
    assert max(abs(c).bit_length() for m in sturm_chain(rho) for c in m) < 4096
    rep = critical_ts(f, 0, 10)
    assert rep.kinds == ("multiple_root",) * 2
    assert rep.rr0_verdicts == (Verdict.NO,) * 3
    assert [c.defining.degree for c in rep.criticals] == [15, 15]
    assert [float(c) for c in rep.criticals] == pytest.approx(
        [0.38989691271009375, 1.378772413487241], abs=1e-12)


def test_multiple_root_criticals_certify(rng):
    # every multiple_root critical satisfies: the moving part at t0 has a
    # nonconstant gcd with its derivative (rational t0 checked exactly)
    f = make_classf(Poly([1, -1]), Poly([1, -1, 2, -1]))
    _, xh, _ = cleaned_critical_eliminant(f)
    rep = critical_ts(f, 0, 1)
    for c, kind in zip(rep.criticals, rep.kinds):
        if kind in ("multiple_root", "both") and c.as_fraction() is not None:
            pt = xh.eval_param(c.as_fraction())
            assert not poly_gcd(pt, pt.derivative()).is_constant()


# -------------------------------------------------------------- the pencil


def _random_pencils(rng):
    """The parts (a, b) of chi_t, read off the printed BiPoly, and of
    w*P - z*Q, for random members of degree 2 to 4, and of two chi_t whose
    content is 1 + w^2 and w - 1/2."""
    for f in (make_classf((1 + w**2) ** 2, 1 + w + 8 * w**2 + F(5, 3) * w**3),
              make_classf((1 - 2 * w) ** 2, 1 + w - w**3)):
        yield pencil_parts(char_poly_t(f))
    for d in (2, 3, 4):
        for _ in range(6):
            f = rand_classf(rng, d)
            while max(f.P.degree, f.Q.degree) != d:
                f = rand_classf(rng, d)
            yield pencil_parts(char_poly_t(f))
            yield w * f.P, -f.Q


def test_pencil_splits_off_a_monic_content(rng):
    contents, verdicts = [], set()
    for a, b in _random_pencils(rng):
        p = Pencil(a, b)
        g = p.content
        assert (g * p.a, g * p.b) == (a, b)
        assert g.lc == 1
        assert poly_gcd(p.a, p.b).is_constant()
        if g.is_constant():
            assert p.a is a and p.b is b
        for _ in range(4):
            q = rand_rat(rng, 12, 5)
            assert g * (p.a + q * p.b) == a + q * b
            verdict = p.real_rooted_at(q)
            assert verdict == is_real_rooted(a + q * b)
            verdicts.add(verdict)
        contents.append(g)
    assert contents[:2] == [1 + w**2, w - F(1, 2)]
    assert all(g == 1 for g in contents[2:])
    assert verdicts == {True, False}


def test_pencil_tau_is_the_root_of_a_linear_leading_coefficient(rng):
    kinds = set()
    for a, b in _random_pencils(rng):
        p = Pencil(a, b)
        lc = p.lc
        assert lc == Poly([p.a.coeff(p.p), p.b.coeff(p.p)])
        if lc.degree == 1:
            assert lc(p.tau) == 0
        else:
            assert p.tau is None
        kinds.add(lc.degree)
    assert kinds == {0, 1}
    # (1 + s) w^2 + w - s and w^2 + s
    assert Pencil(Poly([0, 1, 1]), Poly([-1, 0, 1])).tau == -1
    assert Pencil(Poly([0, 0, 1]), Poly.one()).tau is None


def test_decisions_specialise_no_bipoly(monkeypatch, rng):
    # a rational s, a sample or tau, is substituted in the pencil's two
    # parts: with BiPoly.eval_param refused, scans and decisions still run
    # and give the same results
    members = [nk_classf(3), make_classf((1 - 2 * w) ** 2, 1 + w - w**3)]
    members += [rand_classf(rng, 4) for _ in range(4)]
    want = [(critical_ts(f, -5, 50), n_set(f), flow_pencil(f).real_rooted_at(F(1, 3)))
            for f in members]
    flow_pencil.cache_clear()

    def refused(self, t):
        raise AssertionError("BiPoly.eval_param called")

    monkeypatch.setattr(BiPoly, "eval_param", refused)
    got = [(critical_ts(f, -5, 50), n_set(f), flow_pencil(f).real_rooted_at(F(1, 3)))
           for f in members]
    assert got == want
    taus = [flow_pencil(f).tau for f in members]
    assert any(t is not None and -5 < t < 50 for t in taus)


def test_critical_ts_and_n_set_build_one_table_each(monkeypatch, rng):
    import fcl.spectra
    calls = []
    table = fcl.spectra.subresultants
    monkeypatch.setattr(fcl.spectra, "subresultants",
                        lambda x: calls.append(x) or table(x))
    for f in (nk_classf(3), rand_classf(rng, 4)):
        for scan in (lambda: critical_ts(f, -5, 50), lambda: n_set(f)):
            calls.clear()
            scan()
            assert len(calls) == 1
    # the criticals' table serves every later decision on the member
    f = nk_classf(3)
    flow_pencil.cache_clear()
    calls.clear()
    for t0 in critical_ts(f, 0, 2000).criticals:
        rr0_at_algebraic_t(f, t0)
    assert len(calls) == 1


def _resultant_eliminant(pencil):
    """The squarefree part of Res_w(x, x') for the moving part x, with tau
    removed where x(tau) is squarefree: the eliminant by `resultant_w`."""
    x, tau = moving_part(pencil), pencil.tau
    if x.degree_w <= 0:
        return Poly.one()
    rho = squarefree_part(resultant_w(x, x.deriv_w()))
    if tau is not None and rho(tau) == 0 and is_squarefree(x.eval_param(tau)):
        rho = rho.exact_div(Poly([-tau, 1]))
    return rho


def test_eliminant_is_the_cleaned_resultant(rng):
    members = [nk_classf(k) for k in range(2, 7)]
    for deg in (2, 3, 4, 5):
        members += [rand_classf(rng, deg) for _ in range(4)]
    cleaned = 0
    for f in members:
        for a, b in (pencil_parts(char_poly_t(f)), (w * f.P, -f.Q)):
            pencil = Pencil(a, b)
            want = _resultant_eliminant(pencil)
            assert pencil.eliminant() == want
            cleaned += pencil.tau is not None and want(pencil.tau) != 0
    assert cleaned > 0   # tau was taken out of some eliminants


# ------------------------------------------------- algebraic rr0 verdicts


def test_rr0_at_rational_consistency(rng):
    f = f_of(Poly([1, 0, -1]))
    for t0 in (F(1, 2), F(1), F(2), F(7, 3)):
        expect = Verdict.YES if is_rr0(free_power(f, t0)) else Verdict.NO
        assert rr0_at_algebraic_t(f, t0) is expect
        assert rr0_at_algebraic_t(f, AlgebraicReal.from_rational(t0)) is expect


def test_rr0_at_algebraic_noncritical():
    f = f_of(Poly([1, 0, -1]))
    sqrt2 = isolate_real_roots(Poly([-2, 0, 1]))[1]
    assert rr0_at_algebraic_t(f, sqrt2) is Verdict.NO
    sqrt_half = isolate_real_roots(Poly([-1, 0, 2]))[1]
    assert rr0_at_algebraic_t(f, sqrt_half) is Verdict.YES


def test_rr0_at_algebraic_critical_euler2():
    f = nk_classf(2)
    rep = critical_ts(f, 0, 10)
    assert len(rep.criticals) == 1
    t0 = rep.criticals[0]
    assert abs(float(t0) - 6.49104) < 1e-4
    assert rr0_at_algebraic_t(f, t0) is Verdict.YES


# irrational criticals on the multiple-root locus; verdicts checked
# against an independent floating-point root oracle
@pytest.mark.parametrize("f, t_hi, expect", [
    (make_classf(1 - F(9, 2) * w**2, 1 - 2 * w**2 - F(3, 2) * w**4), 10,
     [(0.79788, Verdict.YES)]),
    (make_classf(1 + 8 * w**2, 1 - F(9, 2) * w**2 - w**4), 10,
     [(0.473688, Verdict.NO), (0.966369, Verdict.NO)]),
    (nk_classf(6), 2000,
     [(0.882321, Verdict.NO), (5.621342, Verdict.NO), (26.190316, Verdict.YES)]),
], ids=["yes", "no", "nk6"])
def test_rr0_at_algebraic_criticals(f, t_hi, expect):
    rep = critical_ts(f, 0, t_hi)
    assert len(rep.criticals) == len(expect)
    for t0, (approx, verdict) in zip(rep.criticals, expect):
        assert not t0.is_rational() and abs(float(t0) - approx) < 1e-5
        assert rr0_at_algebraic_t(f, t0) is verdict


# ------------------------------------ verdicts from chi_t = g * (A + tB)


def _old_route(f, s):
    """rr0 of the free power at s through free_power and char_poly."""
    return Verdict.YES if is_rr0(free_power(f, s)) else Verdict.NO


def _flow_members(rng):
    # g = 1 + w^2 is not real-rooted; the moving part is, at each range's last sample
    yield make_classf((1 + w**2) ** 2, 1 + w + 8 * w**2 + F(5, 3) * w**3)
    # g = w - 1/2 is real-rooted and some verdicts are Yes
    yield make_classf((1 - 2 * w) ** 2, 1 + w - w**3)
    for d in (2, 3, 4):
        for _ in range(6):
            f = rand_classf(rng, d)
            while max(f.P.degree, f.Q.degree) != d:
                f = rand_classf(rng, d)
            yield f


@pytest.mark.parametrize("t_lo, t_hi", [(0, 10), (-3, 5)])
def test_flow_verdicts_match_the_free_power_route(rng, t_lo, t_hi):
    for f in _flow_members(rng):
        rep = critical_ts(f, t_lo, t_hi)
        for s, v in zip(rep.samples, rep.rr0_verdicts):
            assert v is _old_route(f, s)
            assert rr0_at_algebraic_t(f, s) is v
            assert rr0_at_algebraic_t(f, AlgebraicReal.from_rational(s)) is v


def test_rr0_at_zero_is_the_zero_free_power():
    # chi_t at t = 0 is P^2, not real-rooted here, but the zero free power
    # is delta_0 with chi = 1
    f = make_classf(1 + w**2, 1 + w + w**3)
    assert not is_real_rooted(f.P * f.P)
    assert char_poly_t(f).eval_param(0) == f.P * f.P
    assert _old_route(f, 0) is Verdict.YES
    for t0 in (0, F(0), AlgebraicReal.from_rational(0)):
        assert rr0_at_algebraic_t(f, t0) is Verdict.YES


def test_flow_verdicts_do_not_build_free_powers(monkeypatch):
    import fcl.classf
    import fcl.spectra
    f = f_of(Poly([1, 0, -1]))      # README: fcl criticals "w*(1-w^2)" --range 0:3
    sqrt2 = isolate_real_roots(Poly([-2, 0, 1]))[1]
    sqrt_half = isolate_real_roots(Poly([-1, 0, 2]))[1]

    def run():
        rep = critical_ts(f, 0, 3)
        return ([(c.defining, c.lo, c.hi) for c in rep.criticals], rep.kinds,
                rep.rr0_verdicts, rep.samples,
                [rr0_at_algebraic_t(f, t0) for t0 in (F(1, 2), F(2), sqrt2, sqrt_half)])

    want = run()

    def old_route(*args):
        raise AssertionError("old route called")

    def chi_of_f_only(g):
        # chi_t's moving part is chi_F - P^2: chi of the member itself, of
        # no free power
        if g != f:
            raise AssertionError("old route called")
        return fcl.classf.char_poly(g)

    for module, name in ((fcl.spectra, "is_rr0"), (fcl.classf, "free_power")):
        monkeypatch.setattr(module, name, old_route)
    monkeypatch.setattr(fcl.spectra, "char_poly", chi_of_f_only)
    flow_pencil.cache_clear()      # the patched run builds chi_t's pencil anew
    assert run() == want
    assert want[2] == (Verdict.YES, Verdict.NO)
    assert want[4] == [Verdict.YES, Verdict.NO, Verdict.NO, Verdict.YES]


# ------------------------------------ chi_t's pencil, memoised per member


def test_equal_members_share_one_flow_pencil():
    a, b = (make_classf(1 - F(9, 2) * w**2, 1 - 2 * w**2 - F(3, 2) * w**4) for _ in range(2))
    assert a == b and a is not b
    assert flow_pencil(a) is flow_pencil(b)
    assert flow_pencil(nk_classf(3)) is flow_pencil(nk_classf(3))
    assert flow_pencil.cache_info().currsize == 2


def test_a_second_decision_on_a_member_interpolates_nothing(monkeypatch):
    from fcl.exactalg import bipoly
    f = nk_classf(6)
    no_a, no_b, yes = critical_ts(f, 0, 2000).criticals
    flow_pencil.cache_clear()
    nodes = []
    scan = bipoly._subresultant_scan
    monkeypatch.setattr(bipoly, "_subresultant_scan", lambda a, b: nodes.append(a) or scan(a, b))
    signed = []
    sign_of = AlgebraicReal.sign_of
    monkeypatch.setattr(AlgebraicReal, "sign_of",
                        lambda self, q: signed.append(q) or sign_of(self, q))
    assert rr0_at_algebraic_t(f, yes) is Verdict.YES    # reads every entry
    assert nodes
    nodes.clear()
    for t0, verdict in ((no_a, Verdict.NO), (no_b, Verdict.NO), (yes, Verdict.YES)):
        signed.clear()
        assert rr0_at_algebraic_t(f, t0) is verdict
        assert nodes == [] and signed    # the signs alone


def test_flow_pencil_memo_keeps_at_most_64(rng):
    members = []
    while len(members) < 100:
        f = rand_classf(rng, 3)
        if f not in members:
            members.append(f)
    for f in members:
        flow_pencil(f)
    info = flow_pencil.cache_info()
    assert info.misses == 100 and info.currsize <= 64


def _candidate(k):
    c = ck_candidates(k, 2000)["candidate"]
    return None if c is None else (c.defining, c.lo, c.hi)


@pytest.mark.parametrize("k", range(2, 7))
def test_ck_candidates_agree_with_a_cold_and_a_warm_memo(k):
    cold = _candidate(k)
    assert cold is not None
    # warm: every critical decided first, the last one first
    f = nk_classf(k)
    for t0 in reversed(critical_ts(f, 0, 2000).criticals):
        rr0_at_algebraic_t(f, t0)
    assert _candidate(k) == cold


def _irrational_criticals(rng):
    """(f, t0), each member's criticals ascending: every irrational critical
    of nk_classf(2..6) in (0, 2000), then 40 of random degree-3 members in
    (0, 10)."""
    cases = []
    for k in range(2, 7):
        f = nk_classf(k)
        cases += [(f, c) for c in critical_ts(f, 0, 2000).criticals if not c.is_rational()]
    n = 0
    while n < 40:
        f = rand_classf(rng, 3)
        if max(f.P.degree, f.Q.degree) != 3:
            continue
        for c in critical_ts(f, 0, 10).criticals:
            if not c.is_rational() and n < 40:
                cases.append((f, c))
                n += 1
    return cases


@pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
def test_memo_verdicts_match_a_fresh_pencil(rng, descending):
    cases = _irrational_criticals(rng)
    if descending:
        cases.reverse()
    want = [Pencil(*pencil_parts(char_poly_t(f))).real_rooted_at(t0) for f, t0 in cases]
    flow_pencil.cache_clear()
    got = [rr0_at_algebraic_t(f, t0) is Verdict.YES for f, t0 in cases]
    assert got == want
    assert set(want) == {True, False}
    # every memoised pencil holds the table its moving part would give afresh
    for f in {f for f, _ in cases}:
        p = flow_pencil(f)
        js = range(p.p)
        assert list(map(p._table, js)) == list(map(subresultants(moving_part(p)), js))


def _tarski_only(pencil, t0) -> bool:
    """`Pencil.real_rooted_at` at an irrational t0 with every sign a Tarski
    query on t0's own interval: no narrowing, no mean value bound."""
    def sign(q):
        return tarski_query(t0._ints, q.int_coeffs()[0], t0.lo, t0.hi)

    top = sign(pencil.lc)
    return pencil._content_rooted and real_rooted_from_signs(
        top * sign(pencil._s(j)) for j in range(pencil.p - 2, -1, -1))


def test_verdicts_match_the_tarski_only_route(rng):
    cases = _irrational_criticals(rng)
    want = [_tarski_only(flow_pencil(f), t0) for f, t0 in cases]
    assert [rr0_at_algebraic_t(f, t0) is Verdict.YES for f, t0 in cases] == want
    assert set(want) == {True, False}


# fallback bisection steps per decision at the irrational criticals of
# nk_classf(k) in (0, 2000), ascending: the signs the mean value bound
# settles on the fenced interval take none, and no Tarski chain is built;
# Tarski queries alone built [3], [1, 4], [3, 5], [1, 1, 6] chains at k = 2..5
_NK_BISECTIONS = {2: [0], 3: [0, 0], 4: [0, 0], 5: [0, 0, 25], 6: [0, 2, 0]}


@pytest.mark.parametrize("k", sorted(_NK_BISECTIONS))
def test_the_mean_value_bound_spares_the_tarski_chains(monkeypatch, k):
    f = nk_classf(k)
    crits = [c for c in critical_ts(f, 0, 2000).criticals if not c.is_rational()]
    ends = [(c.lo, c.hi) for c in crits]
    want = [_tarski_only(flow_pencil(f), c) for c in crits]
    steps = []
    bisect = algebraic._bisect
    monkeypatch.setattr(algebraic, "_bisect", lambda *a: steps.append(a) or bisect(*a))
    got, counts = [], []
    for c in crits:
        steps.clear()
        got.append(rr0_at_algebraic_t(f, c) is Verdict.YES)
        counts.append(len(steps))
    assert got == want and counts == _NK_BISECTIONS[k]
    # the narrowed numbers stay inside the decisions
    assert [(c.lo, c.hi) for c in crits] == ends


def test_nk6_criticals_below_6_are_no():
    # the two criticals of nk_classf(6) that perfbench's algebraic_rr0 pool
    # leaves out (NK6_KEEP_ABOVE), near 0.88 and 5.62
    f = nk_classf(6)
    crits = [c for c in critical_ts(f, 0, 2000).criticals if c.compare_rational(6) < 0]
    assert len(crits) == 2 and not any(c.is_rational() for c in crits)
    for c in crits:
        assert rr0_at_algebraic_t(f, c) is Verdict.NO
        assert not _tarski_only(flow_pencil(f), c)


def test_a_decision_that_stops_at_the_first_entry_then_one_that_reads_all():
    f = nk_classf(3)
    no, yes = critical_ts(f, 0, 2000).criticals
    flow_pencil.cache_clear()
    pencil = flow_pencil(f)
    p = pencil.p
    assert pencil._table is None
    assert rr0_at_algebraic_t(f, no) is Verdict.NO
    assert pencil._table.cache_info().currsize == 1     # s_{p-2} alone
    assert rr0_at_algebraic_t(f, yes) is Verdict.YES
    assert pencil._table.cache_info().currsize == p - 1     # s_{p-2}, ..., s_0
    fresh = subresultants(moving_part(pencil))
    assert [pencil._table(j) for j in range(p - 1)] == [fresh(j) for j in range(p - 1)]
    assert rr0_at_algebraic_t(f, no) is Verdict.NO
    fresh = Pencil(*pencil_parts(char_poly_t(f)))
    assert fresh.real_rooted_at(yes) and not fresh.real_rooted_at(no)


class _Interrupted(Exception):
    pass


def test_a_table_build_that_raised_leaves_no_table(monkeypatch):
    from fcl.exactalg import bipoly
    f = nk_classf(4)
    no, yes = critical_ts(f, 0, 2000).criticals
    flow_pencil.cache_clear()
    pencil = flow_pencil(f)
    assert moving_part(pencil).max_param_degree() == 1
    # the fifth node's scan fails once, as an interrupt would
    calls = []
    scan = bipoly._subresultant_scan

    def failing_once(a, b):
        calls.append(a)
        if len(calls) == 5:
            raise _Interrupted
        return scan(a, b)

    monkeypatch.setattr(bipoly, "_subresultant_scan", failing_once)
    with pytest.raises(_Interrupted):
        rr0_at_algebraic_t(f, no)
    assert pencil._table is None
    assert rr0_at_algebraic_t(f, no) is Verdict.NO
    assert rr0_at_algebraic_t(f, yes) is Verdict.YES
    p = pencil.p
    # one whole build after the failed one: the moving part at t = 0 is
    # (1 - w)^6, whose PRS ends in g = 5 zeros, so the node 0 and
    # 2p - 1 - g more fix s_0 / lc
    assert pencil.a == Poly([1, -1]) ** 6
    assert len(calls) == 5 + 1 + (2 * p - 1 - 5)
    fresh = subresultants(moving_part(pencil))
    assert [pencil._table(j) for j in range(p)] == [fresh(j) for j in range(p)]


def test_interleaved_reads_of_a_pencil_see_the_same_entries():
    # the eliminant reads s_0 first, a decision then reads s_{p-2} down;
    # another table read bottom-up gives the same entries
    f = nk_classf(4)
    pencil = Pencil(*pencil_parts(char_poly_t(f)))
    no, yes = critical_ts(f, 0, 2000).criticals
    pencil.eliminant()
    assert pencil._table.cache_info().currsize == 1
    assert not pencil.real_rooted_at(no) and pencil.real_rooted_at(yes)
    p = pencil.p
    fresh = subresultants(moving_part(pencil))
    up = [fresh(j) for j in range(p - 1)]
    assert [pencil._table(j) for j in range(p - 2, -1, -1)] == up[::-1]
    assert pencil._table.cache_info().currsize == p - 1


# ------------------------------------------------------------ region tests


def test_deg3_closed_form_examples():
    assert deg3_rr0(0, 0, 0)
    assert deg3_rr0(4, 5, 2)          # w(1+w)^2(1+2w)
    assert is_rr0(f_of(Poly([1, 4, 5, 2])))


def test_deg3_matches_sturm(rng):
    for _ in range(200):
        a, b = rand_rat(rng, 5, 3), rand_rat(rng, 5, 3)
        c = rand_rat(rng, 5, 3, nonzero=True)
        assert deg3_rr0(a, b, c) == is_rr0(f_of(Poly([1, a, b, c])))


def test_r3_poly_examples():
    assert r3_poly_rr0(3, 1)
    assert not r3_poly_rr0(1, 1)
    assert r3_poly_rr0(2, 0)
    with pytest.raises(ValueError):
        r3_poly_rr0(0, 1)


def test_r3_poly_matches_rr0(rng):
    for _ in range(40):
        b = abs(rand_rat(rng, 5, 3, nonzero=True))
        c = rand_rat(rng, 5, 3)
        u = rand_rat(rng, 5, 3)
        f = from_r(make_ratfun(Poly([0, u, b, c]), Poly.one()))
        assert r3_poly_rr0(b, c) == is_rr0(f)


def test_r4_singular_params():
    assert r4_singular_params(1, 0) == (0, 0)
    assert r4_singular_params(1, F(1, 2)) == (F(1, 4), F(1, 48))
    b, v = F(1), F(1)
    c, d = r4_singular_params(b, v)
    assert (c, d) == (-1, F(-2, 3))
    f = from_r(make_ratfun(Poly([0, 0, b, c, d]), Poly.one()))
    assert is_singular(f)
    assert is_rr0(f) == (2 * v**2 <= b)
    # claimed factorization of chi
    assert char_poly(f) == Poly([1, v]) ** 2 * Poly([1, -2 * v, 3 * v**2 - b])


def test_r4_singular_random(rng):
    for _ in range(25):
        b = abs(rand_rat(rng, 4, 2, nonzero=True))
        v = rand_rat(rng, 3, 2)
        c, d = r4_singular_params(b, v)
        f = from_r(make_ratfun(Poly([0, 0, b, c, d]), Poly.one()))
        assert char_poly(f) == Poly([1, v]) ** 2 * Poly([1, -2 * v, 3 * v**2 - b])
        # at v = 0 the squared factor is trivial and F is the plain semicircle
        assert is_singular(f) == (v != 0)
        assert is_rr0(f) == (2 * v**2 <= b)


def test_r4_c0_classify():
    assert r4_c0_classify(1, F(1, 4)) == \
        {"in_dist": True, "in_rr0": False, "on_rr_balloon_top": True}
    assert r4_c0_classify(1, F(-1, 12)) == \
        {"in_dist": True, "in_rr0": True, "on_rr_balloon_top": False}
    assert r4_c0_classify(1, 1) == \
        {"in_dist": False, "in_rr0": False, "on_rr_balloon_top": False}
    with pytest.raises(ValueError):
        r4_c0_classify(-1, 0)


def test_r4_c0_rr0_matches_sturm(rng):
    for _ in range(30):
        b = abs(rand_rat(rng, 4, 2, nonzero=True))
        d = rand_rat(rng, 4, 3)
        f = from_r(make_ratfun(Poly([0, 0, b, 0, d]), Poly.one()))
        assert r4_c0_classify(b, d)["in_rr0"] == is_rr0(f)


def test_r4_balloon_top_is_rr_not_rr0():
    b = F(2)
    d = b**2 / 4
    f = from_r(make_ratfun(Poly([0, 0, b, 0, d]), Poly.one()))
    assert not is_rr0(f)
    assert is_rr(f)


def test_lb_curve():
    pts = lb_curve(1, 9)
    assert len(pts) == 9
    assert pts[4] == (0, 0)                      # v = 0 sample
    assert pts[0][0] == -pts[-1][0]              # c odd in v
    assert pts[0][1] == pts[-1][1]               # d even in v
    for c, d in pts:
        f = from_r(make_ratfun(Poly([0, 0, 1, c, d]), Poly.one()))
        assert is_singular(f) == ((c, d) != (0, 0))
    with pytest.raises(ValueError):
        lb_curve(-1, 5)
    with pytest.raises(ValueError):
        lb_curve(1, 1)


def test_cg_region_anchors():
    assert cg_region(0, F(1, 4))
    assert cg_region(0, F(-1, 12))
    assert not cg_region(0, F(1, 3))
    assert cg_region(0, F(1, 36))
    assert not cg_region(1, F(1, 4))
    assert not cg_region(0, F(-1, 11))


def test_cg_region_symmetry(rng):
    for _ in range(100):
        x, y = rand_rat(rng, 2, 6), rand_rat(rng, 2, 6)
        assert cg_region(x, y) == cg_region(-x, y)


def test_cg_region_deg3_consistency(rng):
    # inside the body with k4 = 0 it degenerates to the cubic criterion
    for _ in range(25):
        x = rand_rat(rng, 2, 8)
        f = from_r(make_ratfun(Poly([0, 0, 1, x]), Poly.one()))
        assert cg_region(x, 0) == is_rr0(f)
