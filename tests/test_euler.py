from fractions import Fraction as F

import pytest

from fcl.classf import ClassF, cumulants, free_power
from fcl.euler import (chi_t_factored, ck_candidates, eulerian,
                       eulerian_tilde, nk_classf)
from fcl.exactalg import Poly, is_real_rooted, is_squarefree
from fcl.oeis import load_bundled
from fcl.series import ser_div, ser_trunc
from fcl.spectra import Verdict, char_poly

w = Poly.x()


def test_eulerian_small():
    assert eulerian(0) == Poly.one()
    assert eulerian(1) == Poly.one()
    assert eulerian(2) == Poly([1, 1])
    assert eulerian(3) == Poly([1, 4, 1])
    assert eulerian(4) == Poly([1, 11, 11, 1])
    with pytest.raises(ValueError):
        eulerian(-1)


def test_eulerian_tilde_small():
    assert eulerian_tilde(0) == Poly.one()
    assert eulerian_tilde(1) == Poly([2])
    assert eulerian_tilde(2) == Poly([4, 2])
    assert eulerian_tilde(3) == Poly([8, 14, 2])


def test_degrees():
    for k in range(1, 9):
        assert eulerian(k).degree == k - 1
        assert eulerian_tilde(k).degree == k - 1


def test_real_rooted_up_to_12():
    for k in range(1, 13):
        e = eulerian(k)
        te = eulerian_tilde(k)
        for p in (e, te):
            if p.degree >= 1:
                assert is_squarefree(p)
                assert is_real_rooted(p)
        # roots of E_k are negative: no sign changes of E_k(-w) coefficients
        from fcl.exactalg import count_distinct_real_roots
        if e.degree >= 1:
            assert count_distinct_real_roots(e, 0, 10**9) == 0
            assert count_distinct_real_roots(e, -(10**9), 0) == e.degree


def test_rows_match_bruteforce_fixtures():
    fx = load_bundled()["A123125"].rows()
    for k in range(0, 9):
        row = fx[k]
        expect = (1,) if k == 0 else (0,) + tuple(int(c) for c in eulerian(k).coeffs)
        assert row == expect, k
    fx2 = load_bundled()["A120434"].rows()
    for k in range(0, 9):
        assert fx2[k] == tuple(int(c) for c in eulerian_tilde(k).coeffs), k


def test_power_sum_identity():
    # sum n^k w^n = w E_k / (1-w)^(k+1) as a series prefix, order 15
    for k in range(1, 7):
        num = Poly([0, 1]) * eulerian(k)
        den = (1 - w) ** (k + 1)
        ser = ser_div(ser_trunc(list(num.coeffs), 15),
                      ser_trunc(list(den.coeffs), 15), 15)
        assert ser == [F(n**k) for n in range(16)]


def test_nk_classf():
    assert nk_classf(1) == ClassF((1 - w) ** 2, Poly([1, -1, 1]))
    assert nk_classf(2) == ClassF((1 - w) ** 3, Poly([1, -2, 4, -1]))
    for k in (1, 2, 3):
        c = cumulants(nk_classf(k), 12)
        assert list(c.terms) == [0] + [n**k for n in range(1, 13)]
    with pytest.raises(ValueError):
        nk_classf(0)


def test_chi_t_factored():
    r1 = chi_t_factored(1)
    assert r1["factor_check"]
    # explicit form: (1-w)(1 - 3w + 3w^2 - 2tw^2 - w^3)
    x = r1["lhs"]
    assert x.eval_param(F(2)) == Poly([1, -1]) * Poly([1, -3, 3 - 4, -1])
    r2 = chi_t_factored(2)
    assert r2["factor_check"]
    assert r2["lhs"].eval_param(F(1)) == \
        (1 - w) ** 2 * Poly([1, -4, 2, -6, 1])
    for k in (3, 4):
        assert chi_t_factored(k)["factor_check"]


def test_chi_t_specializes_to_free_power(rng):
    for k in (1, 2, 3):
        f = nk_classf(k)
        x = chi_t_factored(k)["lhs"]
        for t in (F(1, 2), F(3), F(27, 8)):
            assert x.eval_param(t) == char_poly(free_power(f, t))


def test_ck_candidates_k1():
    res = ck_candidates(1, 10)
    assert res["candidate"] is not None
    assert res["candidate"].as_fraction() == F(27, 8)
    chi = char_poly(free_power(nk_classf(1), F(27, 8)))
    assert chi == F(1, 4) * Poly([1, -1]) * Poly([1, -4]) * Poly([2, 1]) ** 2


def test_ck_candidates_k1_short_range():
    res = ck_candidates(1, 3)
    assert res["candidate"] is None
    assert all(v is Verdict.NO for v in res["report"].rr0_verdicts)


def test_ck_candidates_k2():
    res = ck_candidates(2, 10)
    c = res["candidate"]
    assert c is not None
    assert abs(float(c) - 6.49104) < 1e-4
    # defining polynomial is the integer quadratic with root (165 rt33 - 117)/128
    assert c.defining.monic() == Poly([F(-3456, 64), F(117, 64), 1])
