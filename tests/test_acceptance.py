"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion
report.  Everything is exact unless the criterion itself is numeric
(density matching), whose tolerances are pinned here.
"""
import random
from fractions import Fraction as F

import pytest

from conftest import rand_classf, rand_rat
from fcl.classf import (boxplus, free_power, from_r, make_classf,
                        make_ratfun, moments, r_transform, translate)
from fcl.density import density_grid, reference_density
from fcl.distlib import (LevyData, deconv_mpmp, deconv_wmp, from_levy,
                         fuss_chi, fuss_f, fuss_moment, monotone_family, mp,
                         wigner)
from fcl.euler import eulerian, eulerian_tilde, nk_classf
from fcl.exactalg import Poly, is_real_rooted, is_squarefree
from fcl.oeis import load_bundled
from fcl.posdef import fid_check, hankel_verdict
from fcl.spectra import (Verdict, cg_region, char_poly, char_poly_t,
                         critical_ts, is_rr, is_rr0, is_singular, n_set,
                         rr0_at_algebraic_t)

w = Poly.x()


def _ok(n, msg):
    print(f"ACCEPTANCE {n}: PASS — {msg}")


def test_criterion_01_catalan_moments():
    f = make_classf(Poly([1, -1]), Poly.one())
    m = moments(f, 12)
    fx = load_bundled()["A000108"]
    assert list(m.terms) == list(fx.terms[fx.align:][:13])
    _ok(1, "moments of w - w^2 equal the Catalan fixture for n <= 12, exactly")


def test_criterion_02_hankel_counterexample_1():
    f = from_r(make_ratfun(w, (1 - w) ** 2))
    hv = hankel_verdict(moments(f, 10), 5)
    assert hv.is_negative and hv.order == 5 and hv.determinant == -3374
    _ok(2, "order-5 Hankel minor for the r_n = n flow is exactly -3374")


def test_criterion_03_hankel_counterexample_2():
    f = from_r(make_ratfun(w * (1 + w), (1 - w) ** 3))
    hv = hankel_verdict(moments(f, 8), 4)
    assert hv.is_negative and hv.order == 4 and hv.determinant == -685964
    _ok(3, "order-4 Hankel minor for the r_n = n^2 flow is exactly -685964")


def test_criterion_04_c1_critical():
    f = nk_classf(1)
    rep = critical_ts(f, 0, 10)
    vals = [c.as_fraction() for c in rep.criticals]
    assert vals == [F(27, 8)]
    assert rep.kinds == ("multiple_root",)
    chi = char_poly(free_power(f, F(27, 8)))
    assert chi == F(1, 4) * Poly([1, -1]) * Poly([1, -4]) * Poly([2, 1]) ** 2
    specialized = char_poly_t(f).eval_param(F(27, 8))
    assert specialized == chi
    _ok(4, "27/8 is the single multiple-root critical in (0,10); chi_{27/8} "
           "factors as (1/4)(1-w)(1-4w)(2+w)^2 exactly")


def test_criterion_05_c2_critical():
    f = nk_classf(2)
    rep = critical_ts(f, 0, 10)
    assert len(rep.criticals) == 1
    t0 = rep.criticals[0]
    assert abs(float(t0) - 6.49104) < 1e-4
    assert rr0_at_algebraic_t(f, t0) is Verdict.YES
    _ok(5, f"critical t0 ~ {float(t0):.6f} (within 1e-4 of 6.49104), "
           "certified all-real at t0")


def test_criterion_06_darkmatter_phase_picture():
    f = make_classf(Poly([1, 0, -1]), Poly.one())
    x = char_poly_t(f)
    from fcl.exactalg import BiPoly
    assert x == BiPoly([Poly([1]), Poly([0]), Poly([-2, -1]),
                        Poly([0]), Poly([1, -1])])
    rep = critical_ts(f, 0, 3)
    assert [c.as_fraction() for c in rep.criticals] == [1]
    assert rep.rr0_verdicts == (Verdict.YES, Verdict.NO)
    assert not is_rr(free_power(f, 2))
    _ok(6, "chi_t = 1-(2+t)w^2+(1-t)w^4 exactly; rr0 Yes on (0,1), No above; "
           "power 2 leaves the real-locus class")


def test_criterion_07_a078623_picture():
    f = from_levy(LevyData(-1, 1, [(1, 1)]))
    assert f == make_classf(Poly([1, -1]), Poly([1, -1, 2, -1]))
    rep = critical_ts(f, 0, 1)
    assert any(c.as_fraction() == F(1, 8) for c in rep.criticals)
    chi = char_poly(free_power(f, F(1, 8)))
    assert chi == F(1, 8) * Poly([2, -1]) ** 2 * Poly([2, -2, -1])
    assert is_rr0(free_power(f, F(1, 10)))
    assert not is_rr0(free_power(f, F(1, 4)))
    _ok(7, "critical at t = 1/8 with chi_{1/8} = (1/8)(2-w)^2(2-2w-w^2); "
           "rr0 true at 1/10, false at 1/4")


def test_criterion_08_nset_example():
    f = make_classf(Poly([1, -1]) * Poly([1, -1, 1]), Poly.one())
    ns = n_set(f)
    assert [r.as_fraction() for r in ns.real_members] == [F(3, 16), F(1, 4)]
    assert ns.nonreal_pair_count == 0
    assert not is_rr0(f)
    assert is_rr(f)
    _ok(8, "multiple-root locus is exactly {3/16, 1/4}, all real; "
           "rr0 false but rr true")


def test_criterion_09_deconvolution_identities():
    rng = random.Random(909)
    done = 0
    while done < 50:
        u = rand_rat(rng, 5, 3, nonzero=True)
        x = rand_rat(rng, 5, 3)
        if x == 1:
            continue
        assert deconv_wmp(u, x)["chi_factored_check"], (u, x)
        done += 1
    done = 0
    while done < 50:
        u = rand_rat(rng, 5, 3, nonzero=True)
        v = rand_rat(rng, 5, 3, nonzero=True)
        x = rand_rat(rng, 5, 3)
        if u == v or x == u or x == v:
            continue
        assert deconv_mpmp(u, v, x)["chi_factored_check"], (u, v, x)
        done += 1
    _ok(9, "both deconvolution chi factorizations hold exactly on 50 random "
           "tuples each")


def test_criterion_10_monotone_catalog():
    rec = monotone_family("ww", s=F(1), t=F(1))
    m = moments(rec["f"], 20)
    fx = load_bundled()["A007852"]
    for n in range(11):
        assert m.terms[2 * n] == fx.terms[fx.align + n]
        if 2 * n + 1 < len(m.terms):
            assert m.terms[2 * n + 1] == 0
    f7297 = make_classf(Poly([1, -1]), (1 + w) ** 3)
    assert char_poly(f7297) == (1 + w) ** 2 * Poly([1, -4, 1])
    _ok(10, "double-semicircle even moments match the fixture to n = 10; "
            "the w(1-w)/(1+w)^3 example has chi = (1+w)^2(1-4w+w^2)")


def test_criterion_11_fuss_family():
    f = fuss_f(2)
    assert char_poly(f) == fuss_chi(2)
    m = moments(f, 20)
    fx = load_bundled()["A069271"]
    for n in range(11):
        expect = F(2) * F(pytest.importorskip("math").comb(4 * n + 2, n), 4 * n + 2)
        assert fuss_moment(2, 2 * n) == expect
        assert m.terms[2 * n] == fx.terms[fx.align + n] == expect
    _ok(11, "fuss r=2 even moments equal the fixture and the closed form "
            "for n <= 10; chi factorization exact")


def test_criterion_12_expoly():
    f = make_classf(Poly([1, 0, 1]), Poly([1, 0, 9]))
    assert char_poly(f) == Poly([1, 0, -3]) ** 2
    assert is_singular(f)
    m = moments(f, 11)
    evens = [m.terms[2 * n] for n in range(6)]
    assert evens == [1, 8, 120, 2184, 43768, 929544]
    assert all(m.terms[2 * n + 1] == 0 for n in range(5))
    for x in (0.0, 1.0, 2.0, 5.0):
        got = density_grid(f, x, x + 1e-9, 2).fs[0]
        assert got == pytest.approx(reference_density("expoly", x), abs=1e-10)
    s27 = 27 ** 0.5
    table = density_grid(f, -s27 + 1e-6, s27 - 1e-6, 801)
    assert abs(table.mass_estimate - 1) < 1e-3
    _ok(12, "chi = (1-3w^2)^2 (singular); even moments exact; density matches "
            "the cube-root closed form within 1e-10 and mass within 1e-3")


def test_criterion_13_dual_method_moments():
    rng = random.Random(1313)
    for _ in range(50):
        f = rand_classf(rng, 4)
        m = moments(f, 25)  # raises ComputationError on any disagreement
        assert len(m.terms) == 26
    _ok(13, "series inversion and M*P(zM) = Q(zM) agree exactly to n = 25 "
            "on 50 random members")


def test_criterion_14_group_laws():
    rng = random.Random(1414)
    for _ in range(100):
        f1, f2, f3 = (rand_classf(rng, 3) for _ in range(3))
        s, t = rand_rat(rng, 5, 3), rand_rat(rng, 5, 3)
        assert boxplus(f1, f2) == boxplus(f2, f1)
        assert boxplus(boxplus(f1, f2), f3) == boxplus(f1, boxplus(f2, f3))
        assert r_transform(boxplus(f1, f2)) == r_transform(f1) + r_transform(f2)
        assert free_power(f1, s + t) == boxplus(free_power(f1, s),
                                                free_power(f1, t))
        assert free_power(free_power(f1, s), t) == free_power(f1, s * t)
    _ok(14, "commutativity, associativity, R-additivity and power laws hold "
            "exactly on 100 random triples")


def test_criterion_15_eulerian_suite():
    for k in range(1, 13):
        for p in (eulerian(k), eulerian_tilde(k)):  # tilde also cross-checks routes
            if p.degree >= 1:
                assert is_squarefree(p) and is_real_rooted(p)
    rows = load_bundled()["A123125"].rows()
    rows_t = load_bundled()["A120434"].rows()
    for k in range(0, 9):
        expect = (1,) if k == 0 else (0,) + tuple(int(c) for c in eulerian(k).coeffs)
        assert rows[k] == expect
        assert rows_t[k] == tuple(int(c) for c in eulerian_tilde(k).coeffs)
    _ok(15, "E_k and companion real-rooted to k = 12; coefficient rows match "
            "the brute-force fixtures to k = 8; both construction routes agree")


def test_criterion_16_fid_small_t():
    # The all-real window (0, t0) depends on the datum; this corpus (poles
    # at +-1, +-2, weights <= 1, semicircular part <= 1, any drift) has been
    # exhaustively verified to keep 1/100 inside the window.
    rng = random.Random(1616)
    pool = [F(1), F(-1), F(1, 2), F(-1, 2)]
    weights = [F(1, 4), F(1, 2), F(3, 4), F(1)]
    for _ in range(20):
        us = rng.sample(pool, rng.randint(0, 3))
        data = LevyData(rand_rat(rng, 3, 2), rng.choice([F(0)] + weights),
                        [(u, rng.choice(weights)) for u in us])
        f = from_levy(data)
        assert is_rr0(free_power(f, F(1, 100)))
        assert not fid_check(f, 8).is_negative
    _ok(16, "20 random Levy-type laws: rr0 at power 1/100 and shifted-cumulant "
            "Hankel nonnegative to order 8")


def test_criterion_17_cg_region():
    assert cg_region(0, F(1, 4))
    assert cg_region(0, F(-1, 12))
    assert not cg_region(0, F(1, 3))
    rng = random.Random(1717)
    for _ in range(100):
        x, y = rand_rat(rng, 2, 6), rand_rat(rng, 2, 6)
        assert cg_region(x, y) == cg_region(-x, y)
    _ok(17, "the three anchor points decide correctly and the region is "
            "mirror-symmetric on 100 random samples")


MP_TRIPLES = [
    (F(1), F(1), F(0), "A000108", 0),
    (F(2), F(1), F(0), "A006318", 0),
    (F(1), F(1), F(1), "A007317", None),
    (F(1), F(1), F(-1), "A005043", None),
    (F(1), F(-1), F(0), "A168491", 0),
    (F(1), F(-1), F(2), "A001405", 0),
    (F(1), F(-1), F(3), "A005773", None),
    (F(1), F(-1), F(4), "A001700", 0),
    (F(1, 2), F(2), F(0), "A001003", 0),
    (F(1, 4), F(2), F(-1, 2), "A000957", None),
    (F(1), F(2), F(0), "A151374", 0),
]

W_PAIRS = [
    (F(1), F(1), "A001006", 0),
    (F(1), F(2), "A000108", 1),
    (F(1), F(3), "A002212", 1),
    (F(1), F(4), "A005572", 0),
    (F(2), F(3), "A001003", 1),
]


def test_criterion_18_catalog_spot_checks():
    fxs = load_bundled()
    checked = 0
    for s, u, v, a, shift in MP_TRIPLES:
        fx = fxs[a]
        k = fx.align if shift is None else shift
        m = moments(translate(mp(u, s), v), 10)
        assert list(m.terms) == list(fx.terms[k:][:11]), a
        checked += 1
    assert checked >= 10
    for s, u, a, shift in W_PAIRS:
        fx = fxs[a]
        m = moments(translate(wigner(s), u), 10)
        assert list(m.terms) == list(fx.terms[shift:][:11]), a
    _ok(18, f"{checked} MP-translation triples and {len(W_PAIRS)} "
            "semicircle-translation pairs reproduce their fixture prefixes "
            "exactly for n <= 10")
