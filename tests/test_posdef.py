from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcl.exactalg.hankel as hankel_mod
from conftest import rand_classf, rand_rat
from fcl.classf import dilate, from_r, identity_f, make_classf, make_ratfun, moments
from fcl.distlib import mp, wigner
from fcl.exactalg import Poly, hankel_det
from fcl.posdef import fid_check, hankel_verdict, is_moment_positive_up_to

w = Poly.x()


def test_hankel_verdict_counterexample_1():
    a109081 = [1, 1, 3, 10, 37, 146, 602, 2563, 11181, 49720, 224540]
    hv = hankel_verdict(a109081, 5)
    assert hv.is_negative and hv.order == 5 and hv.determinant == -3374
    assert hv.minors[:5] == (1, 2, 7, 38, 228)
    assert all(m >= 0 for m in hv.minors[:-1])


def test_hankel_verdict_counterexample_2():
    f = from_r(make_ratfun(w * (1 + w), (1 - w) ** 3))
    m = moments(f, 10)
    assert list(m.terms) == [1, 1, 5, 22, 109, 576, 3174, 18047, 105093,
                             623608, 3757124]
    hv = hankel_verdict(m, 4)
    assert hv.is_negative and hv.order == 4 and hv.determinant == -685964


def test_hankel_verdict_positive():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
    hv = hankel_verdict(catalan, 5)
    assert not hv.is_negative
    assert hv.minors == (1,) * 6


def test_hankel_verdict_insufficient_terms():
    with pytest.raises(ValueError):
        hankel_verdict([1, 2, 3], 2)


def test_zero_minor_does_not_stop_scan():
    # minor0 = 1, minor1 = 0, minor2 = -1: the zero must not end the scan
    s = [1, 0, 0, -1, 0]
    hv = hankel_verdict(s, 2)
    assert hv.is_negative and hv.order == 2
    assert hv.minors == (1, 0, -1)


def test_is_moment_positive_examples():
    f = make_classf(Poly([1, -1]) * Poly([1, -1, 1]), Poly.one())
    assert not is_moment_positive_up_to(f, 6).is_negative

    f2 = from_r(make_ratfun(Poly([0, 2, 2, 1]), Poly.one()))  # A106228
    hv = is_moment_positive_up_to(f2, 5)
    assert hv.is_negative and hv.order == 5 and hv.determinant == -3374

    hv3 = is_moment_positive_up_to(identity_f(), 6)
    assert not hv3.is_negative
    assert hv3.minors == (1, 0, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("scan", [is_moment_positive_up_to, fid_check])
def test_negative_order_is_rejected(scan):
    with pytest.raises(ValueError, match="Hankel order must be >= 0, got -1"):
        scan(identity_f(), -1)
    assert len(scan(identity_f(), 0).minors) == 1


def test_fid_check_families():
    v, t = F(3, 2), F(5)
    hv = fid_check(mp(v, t), 6)
    assert not hv.is_negative
    assert hv.minors[0] == t * v**2 and all(m == 0 for m in hv.minors[1:])
    hv2 = fid_check(wigner(t), 5)
    assert not hv2.is_negative
    assert hv2.minors[0] == t and all(m == 0 for m in hv2.minors[1:])


def test_fid_check_non_fid():
    # P has non-real roots, so the law cannot be freely infinitely divisible
    f = make_classf(Poly([1, -1]) * Poly([1, -2, 2]), Poly.one())
    hv = fid_check(f, 12)
    assert hv.is_negative and hv.order <= 12


def test_dilation_minor_scaling(rng):
    # order-k minor scales by c^(k(k+1)) under dilation
    for _ in range(8):
        f = rand_classf(rng, 3)
        c = rand_rat(rng, 4, 2, nonzero=True)
        m1 = moments(f, 8).terms
        m2 = moments(dilate(f, c), 8).terms
        for k in range(5):
            assert hankel_det(m2, k) == c ** (k * (k + 1)) * hankel_det(m1, k)


# ------------------------------------------- the zero-pivot boundary


def _atomic(atoms, n):
    """s_0..s_n of sum wt * delta_x over the (x, wt) pairs."""
    return [sum(wt * x**i for x, wt in atoms) for i in range(n + 1)]


@pytest.mark.parametrize("atoms", [
    [(F(-1), F(1)), (F(2), F(1, 3))],
    [(F(0), F(2)), (F(1, 2), F(1)), (F(3), F(1, 5))],
    [(F(-2), F(1, 4)), (F(-1, 3), F(1)), (F(1), F(2)), (F(5, 2), F(3, 7))],
])
def test_finitely_atomic_minors_vanish_after_atom_count(atoms):
    # positive weights on m distinct points: a Hankel matrix of rank m, so
    # the minors are positive through order m - 1 and zero from order m on
    hv = hankel_verdict(_atomic(atoms, 16), 8)
    m = len(atoms)
    assert not hv.is_negative and hv.order == 8
    assert all(d > 0 for d in hv.minors[:m])
    assert all(d == 0 for d in hv.minors[m:])
    assert list(hv.minors) == [hankel_det(_atomic(atoms, 16), k) for k in range(9)]


def test_negative_after_zero_pivots():
    # one zero minor, then negative
    hv = hankel_verdict([1, 1, 1, 2, 5], 2)
    assert hv.is_negative and hv.order == 2 and hv.minors == (1, 0, -1)
    # the moments of 2 delta_0 + delta_{-1} through s_5, then s_6..s_8 moved:
    # two zero minors, then negative
    hv = hankel_verdict([3, -1, 1, -1, 1, -1, 3, 2, -2], 4)
    assert hv.is_negative and hv.order == 4 and hv.determinant == -16
    assert hv.minors == (3, 2, 0, 0, -16)


@pytest.fixture
def det_calls(monkeypatch):
    """The orders passed to hankel_det during the test."""
    orders, det = [], hankel_mod.hankel_det

    def counted(s, k):
        orders.append(k)
        return det(s, k)

    monkeypatch.setattr(hankel_mod, "hankel_det", counted)
    return orders


def test_no_zero_pivot_needs_no_separate_determinant(det_calls):
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786,
               208012, 742900, 2674440, 9694845, 35357670, 129644790,
               477638700, 1767263190, 6564120420]
    hv = hankel_verdict(catalan, 10)
    assert hv.minors == (1,) * 11 and det_calls == []


def test_one_determinant_per_order_from_the_first_zero_pivot(det_calls):
    atoms = [(F(0), F(2)), (F(1, 2), F(1)), (F(3), F(1, 5))]
    hankel_verdict(_atomic(atoms, 16), 8)               # first zero at 3, scan to 8
    assert det_calls == [3, 4, 5, 6, 7, 8]
    det_calls.clear()
    hankel_verdict([3, -1, 1, -1, 1, -1, 3, 2, -2], 4)  # first zero at 2, negative at 4
    assert det_calls == [2, 3, 4]
    det_calls.clear()
    hankel_verdict([1, 1, 1, 2, 5, 1, 1, 1, 1], 4)      # zero at 1, negative at 2
    assert det_calls == [1, 2]
    # the point mass at 0 and the FID sequences of wigner and mp: every
    # minor after order 0 is zero
    for hv in (is_moment_positive_up_to(identity_f(), 8),
               fid_check(wigner(F(5, 2)), 8), fid_check(mp(F(-3, 2), F(5, 2)), 8)):
        assert not hv.is_negative and hv.minors[1:] == (0,) * 8
    assert det_calls == [1, 2] + list(range(1, 9)) * 3


_small_rat = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.lists(_small_rat, min_size=13, max_size=13),
       st.lists(st.tuples(_small_rat, _small_rat.filter(bool)), min_size=1, max_size=4),
       st.integers(0, 13))
def test_hankel_verdict_matches_sympy(k_max, seq, atoms, cut):
    # s_0..s_{cut-1} are the moments of finitely many atoms (weights of any
    # sign), the rest random: the atomic part gives zero minors, the random
    # tail nonzero and negative ones after them
    sympy = pytest.importorskip("sympy")
    seq = _atomic(atoms, 12)[:cut] + seq[cut:]
    ents = [sympy.Rational(v.numerator, v.denominator) for v in seq]
    ref = []
    for k in range(k_max + 1):
        d = sympy.Matrix(k + 1, k + 1, lambda i, j: ents[i + j]).det()
        ref.append(F(int(d.p), int(d.q)))
    hv = hankel_verdict(seq, k_max)
    neg = next((k for k, d in enumerate(ref) if d < 0), None)
    if neg is None:
        assert hv.status == "positive_so_far" and hv.order == k_max
        assert list(hv.minors) == ref
    else:
        assert hv.status == "negative_at" and hv.order == neg
        assert hv.determinant == ref[neg] and list(hv.minors) == ref[: neg + 1]
