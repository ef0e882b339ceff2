import random
from fractions import Fraction as F

import pytest

from conftest import rand_rat
from fcl.classf import (ClassF, compose, free_power, from_r, make_classf,
                        make_ratfun, moments, r_transform, translate)
from fcl.distlib import (Atom, LevyData, _quad_number, check_r_identity,
                         deconv_mpmp, deconv_wmp, dirac, dirac_moment,
                         from_levy, fuss_chi, fuss_f, fuss_moment, levy_r,
                         monotone_family, mp, mp_moment, wigner, wigner_moment)
from fcl.exactalg import (AlgebraicReal, Poly, is_real_rooted, is_squarefree,
                          isolate_real_roots)
from fcl.oeis import load_bundled
from fcl.posdef import fid_check
from fcl.spectra import char_poly, is_rr0

w = Poly.x()


# ------------------------------------------------------------ constructors


def test_constructors_and_domains():
    assert dirac(F(2)) == ClassF(Poly.one(), Poly([1, 2]))
    assert wigner(F(3)) == ClassF(Poly.one(), Poly([1, 0, 3]))
    assert mp(F(2), F(5)) == make_classf(Poly([1, -2]), Poly([1, 8]))
    with pytest.raises(ValueError):
        wigner(0)
    with pytest.raises(ValueError):
        mp(0, 1)
    with pytest.raises(ValueError):
        mp(1, 0)


def test_closed_form_moments_match_extraction(rng):
    for _ in range(6):
        v = rand_rat(rng, 3, 2, nonzero=True)
        t = abs(rand_rat(rng, 3, 2, nonzero=True))
        m = moments(mp(v, t), 15)
        assert all(m.terms[n] == mp_moment(v, t, n) for n in range(16))
        mw = moments(wigner(t), 15)
        assert all(mw.terms[n] == wigner_moment(t, n) for n in range(16))
        u = rand_rat(rng, 3, 2)
        md = moments(dirac(u), 15)
        assert all(md.terms[n] == dirac_moment(u, n) for n in range(16))


def test_moment_formula_values():
    assert mp_moment(1, 1, 4) == 14          # Narayana row 1+6+6+1
    assert mp_moment(F(2), F(3), 1) == 6
    assert wigner_moment(F(7), 3) == 0
    assert wigner_moment(1, 8) == 14
    assert [mp_moment(1, 1, n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


# ------------------------------------------------------------------- levy


def test_from_levy_examples():
    assert from_levy(LevyData(0, 0, [(1, 1)])) == mp(1, 1)
    assert from_levy(LevyData(-1, 1, [(1, 1)])) == \
        ClassF(Poly([1, -1]), Poly([1, -1, 2, -1]))
    assert from_levy(LevyData(0, 0, [(1, F(1, 2)), (-1, F(1, 2))])) == \
        ClassF(Poly([1, 0, -1]), Poly.one())


def test_levy_validation():
    with pytest.raises(ValueError):
        LevyData(0, -1, [])
    with pytest.raises(ValueError):
        LevyData(0, 0, [(0, 1)])
    with pytest.raises(ValueError):
        LevyData(0, 0, [(1, 1), (1, 2)])
    with pytest.raises(ValueError):
        LevyData(0, 0, [(1, 0)])


def _rand_levy(rng):
    # corpus with well-separated poles and moderate weights: the all-real
    # window of the free-power flow provably contains t = 1/100 here
    pool = [F(1), F(-1), F(1, 2), F(-1, 2)]
    weights = [F(1, 4), F(1, 2), F(3, 4), F(1)]
    us = rng.sample(pool, rng.randint(0, 3))
    return LevyData(rand_rat(rng, 3, 2), rng.choice([F(0)] + weights),
                    [(u, rng.choice(weights)) for u in us])


def test_levy_r_structure(rng):
    for _ in range(10):
        data = _rand_levy(rng)
        f = from_levy(data)
        # P is the product of (1 - u_k w): real simple roots
        expect_p = Poly.one()
        for a, _ in data.atoms:
            expect_p = expect_p * Poly([1, -a])
        assert f.P == expect_p
        assert is_squarefree(f.P)
        if not f.P.is_constant():
            assert is_real_rooted(f.P)


def test_levy_small_power_rr0_and_fid(rng):
    for _ in range(20):
        data = _rand_levy(rng)
        f = from_levy(data)
        assert is_rr0(free_power(f, F(1, 100)))
        assert not fid_check(f, 8).is_negative


def test_levy_window_is_data_dependent():
    # heavy close-pole data push the all-real window below 1/100; the law
    # is still freely infinitely divisible and real-rootedness reappears
    # at smaller t (the existence direction, sampled)
    data = LevyData(-1, 1, [(F(-3, 2), 2), (-1, 3), (1, F(3, 2))])
    f = from_levy(data)
    assert not is_rr0(free_power(f, F(1, 100)))
    assert is_rr0(free_power(f, F(1, 1000)))
    assert is_rr0(free_power(f, F(1, 10000)))
    assert not fid_check(f, 8).is_negative


# ------------------------------------------------------------ deconvolution


def test_deconv_wmp_examples():
    d = deconv_wmp(1, -1)
    assert d["chi_factored_check"]
    assert translate(d["f"], -4) == ClassF(Poly([1, -1]), (1 + w) ** 3)
    assert char_poly(translate(d["f"], -4)) == (1 + w) ** 2 * Poly([1, -4, 1])
    d0 = deconv_wmp(F(3), 0)
    assert d0["f"] == mp(3, 1) and d0["chi_factored_check"]
    with pytest.raises(ValueError):
        deconv_wmp(0, 1)


def test_deconv_mpmp_examples():
    d = deconv_mpmp(1, 2, 0)
    assert d["f"] == make_classf(Poly([1, -1]) * Poly([1, -2]), Poly.one())
    assert d["chi_factored_check"]
    m = moments(d["f"], 6)
    assert list(m.terms)[:5] == [1, 3, 16, 105, 768]  # 2^n (3n)!!/((n+1)! n!!)
    d2 = deconv_mpmp(-1, 2, 0)
    assert d2["chi_factored_check"]
    fx = load_bundled()["A250886"]
    m2 = moments(d2["f"], 10)
    assert list(m2.terms) == list(fx.terms[:11])
    with pytest.raises(ValueError):
        deconv_mpmp(1, 1, 0)


def test_deconv_mpmp_degenerate_weight():
    # x = u kills one weight: F collapses to a single MP law and the
    # generic closed form no longer applies (reported, not hidden)
    d = deconv_mpmp(1, 2, 1)
    assert d["f"] == mp(2, F(1, 4))
    assert not d["chi_factored_check"]


def test_deconv_identities_random(rng):
    done = 0
    while done < 50:
        u = rand_rat(rng, 4, 3, nonzero=True)
        x = rand_rat(rng, 4, 3)
        if x == 1:
            continue  # zero MP weight degenerates F's degree
        assert deconv_wmp(u, x)["chi_factored_check"], (u, x)
        done += 1
    for _ in range(50):
        u = rand_rat(rng, 4, 3, nonzero=True)
        v = rand_rat(rng, 4, 3, nonzero=True)
        x = rand_rat(rng, 4, 3)
        if u == v or x == u or x == v:
            continue
        assert deconv_mpmp(u, v, x)["chi_factored_check"], (u, v, x)


# ---------------------------------------------------------------- monotone


def test_monotone_wmp():
    t, v, s = F(1), F(3), F(4)
    rec = monotone_family("wmp", t=t, v=v, s=s)
    assert rec["f"] == make_classf(Poly([1, -v, t]),
                                   Poly([1, 0, t]) * Poly([1, -v + s * v, t]))
    assert rec["chi_check"] and rec["identity_check"]
    kinds = [a.kind for a in rec["decomposition"]]
    assert kinds == ["dirac", "wigner", "mp", "mp"]
    # rationalized closed form: rr0 iff 4t <= (1-sqrt(s))^2 v^2
    assert is_rr0(rec["f"]) == (4 * t <= (1 - 2) ** 2 * v**2)  # sqrt(4) = 2


def test_monotone_wmp_no_decomposition():
    from fcl.errors import DecompositionNotReal
    for v in (F(1), F(2)):  # v^2 < 4t, and v^2 = 4t (a double position)
        with pytest.raises(DecompositionNotReal, match=r"needs v\^2 > 4t"):
            monotone_family("wmp", t=F(1), v=v, s=F(2))
    # the chi information stays reachable through compose + char_poly
    f = compose(mp(F(1), F(2)), wigner(F(1)))
    assert char_poly(f) == Poly([1, 0, -1]) * \
        (Poly([1, -1, 1]) * Poly([1, -1, 1]) - 2 * Poly([0, 1]) ** 2)


def test_monotone_wmp_algebraic_weights():
    # disc 9/4 and 1 are squares: rational positions (ascending) and weights
    for t, v, s, positions in ((F(1), F(5, 2), F(3), [F(1, 2), F(2)]),
                               (F(2), F(3), F(1), [F(1), F(2)])):
        rec = monotone_family("wmp", t=t, v=v, s=s)
        assert rec["identity_check"] and rec["chi_check"]
        assert all(type(p) is F for a in rec["decomposition"] for p in a.params)
        assert [a.params[0] for a in rec["decomposition"][2:]] == positions
    rec2 = monotone_family("wmp", t=F(1), v=F(3), s=F(2))    # disc 5 irrational
    assert rec2["chi_check"]
    assert any(isinstance(p, AlgebraicReal)
               for a in rec2["decomposition"] for p in a.params)
    assert rec2["identity_check"]
    v1, v2 = (a.params[0] for a in rec2["decomposition"][2:])
    assert v1 < v2 and [v1, v2] == isolate_real_roots(w**2 - 3 * w + 1)


def test_monotone_mpw():
    v, s, t = F(2), F(3), F(5)
    rec = monotone_family("mpw", v=v, s=s, t=t)
    assert rec["chi_check"] and rec["identity_check"]
    kinds = [a.kind for a in rec["decomposition"]]
    assert kinds == ["dirac", "wigner", "mp", "mp"]
    rec1 = monotone_family("mpw", v=F(2), s=F(1), t=F(7))
    assert rec1["chi_check"] and rec1["identity_check"]
    assert [a.kind for a in rec1["decomposition"]] == ["rpoly", "mp"]
    assert rec1["decomposition"][0].params[0] == Poly([0, 0, 7, -14])


def test_monotone_mpmp():
    rec = monotone_family("mpmp", u=F(1), s=F(2), v=F(8), t=F(3))
    assert rec["chi_check"] and rec["identity_check"]
    assert [a.kind for a in rec["decomposition"]] == ["mp", "mp", "mp"]
    from fcl.errors import DecompositionNotReal
    # (u - su + v)^2 - 4uv = -3 < 0, and = 0 (a double position)
    for s, v in ((F(1), F(3)), (F(4), F(1))):
        with pytest.raises(DecompositionNotReal, match=r"needs \(u - su \+ v\)\^2 > 4uv"):
            monotone_family("mpmp", u=F(1), s=s, v=v, t=F(1))


def test_monotone_parameter_error_wins_over_the_decomposition_error():
    # F is built before the decomposition is tried, so a bad parameter is
    # reported as such, not as a decomposition that needs complex weights
    for kind, params in (("wmp", dict(t=1, v=0, s=1)), ("mpmp", dict(u=0, s=1, v=1, t=1))):
        with pytest.raises(ValueError, match=r"^need v != 0$"):
            monotone_family(kind, **params)


def test_monotone_family_takes_positional_parameters():
    by_name = monotone_family("mpmp", u=F(1), s=F(2), v=F(8), t=F(3))
    by_position = monotone_family("mpmp", 1, 2, 8, 3)
    for key in ("f", "chi", "chi_claimed", "chi_check", "identity_check"):
        assert by_position[key] == by_name[key], key
    with pytest.raises(ValueError, match="unknown monotone kind"):
        monotone_family("wigner", 1, 1)


def test_monotone_ww():
    rec = monotone_family("ww", s=F(1), t=F(1))
    assert rec["f"] == make_classf(Poly([1, 0, 1]), Poly([1, 0, 3, 0, 1]))
    assert rec["chi_check"] and rec["identity_check"]
    # rr0 iff t >= 4s
    assert not is_rr0(rec["f"])
    assert is_rr0(monotone_family("ww", s=F(1), t=F(4))["f"])
    assert is_rr0(monotone_family("ww", s=F(1), t=F(5))["f"])


def _closed_chi(which, s, t, u, v):
    """Independent encoding of the rationalized chi factorizations."""
    if which == "wmp":
        base = Poly([1, -v, t])
        return Poly([1, 0, -t]) * (base * base - s * Poly([0, v]) ** 2)
    if which == "mpw":
        a = Poly([1, -v * (1 - s)])
        b = Poly([0, 1, -v])
        return Poly([1, -2 * v, v**2 * (1 - s)]) * (a * a - t * b * b)
    if which == "mpmp":
        a = Poly([1, -u * (1 - s)])
        b = Poly([0, v]) * Poly([1, -u])
        return Poly([1, -2 * u, u**2 * (1 - s)]) * ((a - b) * (a - b) - t * b * b)
    a = Poly([1, 0, s])
    return Poly([1, 0, -s]) * (a * a - Poly([0, 0, t]))


def test_monotone_chi_random(rng):
    # 50 random parameter tuples per family, each an exact polynomial
    # equality against an independently encoded closed form (no
    # decomposability restriction)
    for which in ("wmp", "mpw", "mpmp", "ww"):
        for _ in range(50):
            s = abs(rand_rat(rng, 3, 2, nonzero=True))
            t = abs(rand_rat(rng, 3, 2, nonzero=True))
            u = rand_rat(rng, 3, 2, nonzero=True)
            v = rand_rat(rng, 3, 2, nonzero=True)
            if which == "wmp":
                f = compose(mp(v, s), wigner(t))
            elif which == "mpw":
                f = compose(wigner(t), mp(v, s))
            elif which == "mpmp":
                f = compose(mp(v, t), mp(u, s))
            else:
                f = compose(wigner(t), wigner(s))
            assert char_poly(f) == _closed_chi(which, s, t, u, v), \
                (which, s, t, u, v)


def test_fuss_chi_factorization_many_orders():
    for r in range(1, 26):
        assert char_poly(fuss_f(r)) == fuss_chi(r)


def test_monotone_rr0_condition_wmp(rng):
    # rr0 iff 4t <= (1 - sqrt(s))^2 v^2; sampled with square s
    for sq in (1, 2, 3):
        s = F(sq * sq)
        for t, v in ((F(1), F(4)), (F(2), F(1)), (F(1, 4), F(2))):
            f = compose(mp(v, s), wigner(t))
            assert is_rr0(f) == (4 * t <= (1 - sq) ** 2 * v**2), (s, t, v)


def test_dirac_monotone():
    r1 = monotone_family("dirac-w", 1, 1)
    assert r1["identity_check"]
    assert r1["decomposition"] == [Atom("dirac", (F(2),)), Atom("mp", (F(-1), F(1)))]
    r2 = monotone_family("dirac-mp", 1, 1, F(7))
    assert r2["identity_check"]
    assert r2["decomposition"] == [Atom("dirac", (F(8),)), Atom("wigner", (F(7),))]
    r3 = monotone_family("dirac-mp", u=2, v=3, t=F(5))
    assert r3["identity_check"]
    with pytest.raises(ValueError):
        monotone_family("dirac-w", 0, 1)


def test_monotone_by_dirac_is_translation(rng):
    # mu |> delta_u is translation by u
    from conftest import rand_classf
    for _ in range(10):
        f = rand_classf(rng, 3)
        u = rand_rat(rng)
        assert compose(dirac(u), f) == translate(f, u)


# -------------------------------------------------------------------- fuss


def test_fuss_family():
    assert fuss_f(1) == wigner(1)
    for r in (1, 2, 3, 4):
        f = fuss_f(r)
        assert char_poly(f) == fuss_chi(r)
        m = moments(f, 2 * 8)
        for n in range(9):
            assert m.terms[2 * n] == fuss_moment(r, 2 * n)
        assert all(m.terms[2 * n + 1] == 0 for n in range(8))
        assert fuss_moment(r, 3) == 0
    assert [fuss_moment(1, 2 * n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    assert [fuss_moment(2, 2 * n) for n in range(6)] == [1, 2, 9, 52, 340, 2394]
    with pytest.raises(ValueError):
        fuss_f(0)


def test_fuss_in_rr(rng):
    for r in (1, 2, 3):
        assert is_rr0(fuss_f(r)) == (r == 1)
        from fcl.spectra import is_rr
        assert is_rr(fuss_f(r))


# ------------------------------------------------------------ catalog spots


MP_CATALOG = [
    # (s, u, v, a_number)
    (F(1), F(1), F(0), "A000108"),
    (F(2), F(1), F(0), "A006318"),
    (F(1), F(1), F(1), "A007317"),
    (F(1), F(1), F(-1), "A005043"),
    (F(1), F(-1), F(2), "A001405"),
    (F(1), F(-1), F(3), "A005773"),
    (F(1), F(-1), F(4), "A001700"),
    (F(1, 2), F(2), F(0), "A001003"),
    (F(1, 4), F(2), F(-1, 2), "A000957"),
    (F(1), F(2), F(0), "A151374"),
]

W_CATALOG = [
    # (s, u, a_number, shift): moment n sits at fixture index shift + n
    (F(1), F(1), "A001006", 0),
    (F(1), F(2), "A000108", 1),   # Catalan numbers from index 1
    (F(1), F(3), "A002212", 1),
    (F(1), F(4), "A005572", 0),
    (F(2), F(3), "A001003", 1),   # little Schroeder numbers from index 1
]


@pytest.mark.parametrize("s,u,v,a", MP_CATALOG)
def test_catalog_mp_translations(s, u, v, a):
    fx = load_bundled()[a]
    f = translate(mp(u, s), v)
    m = moments(f, 10)
    data = fx.terms[fx.align:]
    assert list(m.terms) == list(data[:11]), a


@pytest.mark.parametrize("s,u,a,shift", W_CATALOG)
def test_catalog_wigner_translations(s, u, a, shift):
    fx = load_bundled()[a]
    f = translate(wigner(s), u)
    m = moments(f, 10)
    data = fx.terms[shift:]
    assert list(m.terms) == list(data[:11]), a


def test_catalog_signed_and_aerated():
    # (1,-1,0): signed Catalan; u=0 Wigner rows are aerated fixtures
    from fcl.oeis import match
    m = moments(mp(-1, 1), 12)
    hits = match(m)
    assert ("A000108", "signed") in hits and ("A168491", "identity") in hits
    m2 = moments(wigner(2), 12)
    assert ("A151374", "aerated") in match(m2)


# --------------------------------------------------------- identity checker


def test_check_r_identity_rejects_wrong_sum():
    f = mp(1, 1)
    wrong = [Atom("mp", (F(1), F(2)))]
    assert not check_r_identity(wrong, f)
    wrong_alg = [Atom("mp", (AlgebraicReal.from_rational(1), F(2)))]
    assert not check_r_identity(wrong_alg, f)


def test_check_r_identity_rejects_wrong_sqrt_weight():
    # the second MP weight moved by 1e-60 in its sqrt(5) part only: every
    # rational part still matches, so only the exact sqrt(d) split sees it
    t, v, s = F(1), F(3), F(2)
    rec = monotone_family("wmp", t=t, v=v, s=s)
    # positions (v -+ sqrt(d))/2 with d = v^2 - 4t = 5, weights
    # s v^2/(v_i (v_i - v_j)) = -k -+ (k v/d) sqrt(d) with k = s v^2/(2t)
    d, k = v**2 - 4 * t, s * v**2 / (2 * t)
    v1, v2 = _quad_number(v / 2, F(-1, 2), d), _quad_number(v / 2, F(1, 2), d)
    c1, c2 = _quad_number(-k, -k * v / d, d), _quad_number(-k, k * v / d, d)
    assert isinstance(c2, AlgebraicReal) and c2.as_fraction() is None
    head = rec["decomposition"][:2]
    good = head + [Atom("mp", (v1, c1)), Atom("mp", (v2, c2))]
    assert good == rec["decomposition"]
    assert check_r_identity(good, rec["f"])
    moved = _quad_number(-k, k * v / d + F(1, 10**60), d)
    bad = head + [Atom("mp", (v1, c1)), Atom("mp", (v2, moved))]
    assert not check_r_identity(bad, rec["f"])
    # the conjugate weight (sign of the sqrt part flipped) is wrong too
    swapped = head + [Atom("mp", (v1, c2)), Atom("mp", (v2, c1))]
    assert not check_r_identity(swapped, rec["f"])


def test_monotone_mpmp_irrational_identity():
    # (u - su + v)^2 - 4uv = 13, 8 and 5: irrational positions and weights
    for u, s, v, t in ((F(1), F(3), F(-1), F(1)), (F(2), F(1, 2), F(-1), F(5, 7)),
                       (F(-1), F(1), F(1), F(1))):
        rec = monotone_family("mpmp", u=u, s=s, v=v, t=t)
        assert rec["chi_check"] and rec["identity_check"]
        params = [p for a in rec["decomposition"][1:] for p in a.params]
        assert all(isinstance(p, AlgebraicReal) and p.as_fraction() is None
                   for p in params)
        # the positions are the roots of x^2 - (u - su + v) x + uv, ascending
        positions = [a.params[0] for a in rec["decomposition"][1:]]
        assert positions == isolate_real_roots(w**2 - (u - s * u + v) * w + u * v)
        assert positions[0] < positions[1]
        # dropping the rational first component breaks the identity
        assert not check_r_identity(rec["decomposition"][1:], rec["f"])


def test_check_r_identity_needs_one_quadratic_field():
    f = mp(1, 1)
    sqrt2 = AlgebraicReal(Poly([-2, 0, 1]), 1, 2)
    sqrt3 = AlgebraicReal(Poly([-3, 0, 1]), 1, 2)
    cbrt2 = AlgebraicReal(Poly([-2, 0, 0, 1]), 1, 2)
    with pytest.raises(ValueError):
        check_r_identity([Atom("dirac", (sqrt2,)), Atom("wigner", (sqrt3,))], f)
    with pytest.raises(ValueError):
        check_r_identity([Atom("dirac", (cbrt2,))], f)
    # sqrt(8) - sqrt(2) - sqrt(2) = 0: one field, two radicands
    sqrt8 = AlgebraicReal(Poly([-8, 0, 1]), 2, 3)
    minus_sqrt2 = AlgebraicReal(Poly([-2, 0, 1]), -2, -1)
    assert check_r_identity([Atom("dirac", (x,)) for x in (sqrt8, minus_sqrt2, minus_sqrt2)],
                            dirac(0))
    assert not check_r_identity([Atom("dirac", (x,)) for x in (sqrt8, minus_sqrt2)], dirac(0))
    # a reducible quadratic defining polynomial still names a rational
    one = AlgebraicReal(Poly([-1, 0, 1]), F(1, 2), 2)
    assert check_r_identity([Atom("mp", (one, F(1)))], f)
