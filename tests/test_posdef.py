import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcl.exactalg.hankel as hankel_mod
from conftest import bareiss_det_int, rand_classf, rand_rat
from fcl.classf import (SeriesPrefix, compose, cumulants, dilate, dilated_moments, from_r,
                        identity_f, make_classf, make_ratfun, moments)
from fcl.distlib import mp, wigner
from fcl.exactalg import Poly, hankel_det, leading_minors
from fcl.exactalg.poly import as_rat
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
    with pytest.raises(ValueError, match="need at least 5 sequence entries, got 3"):
        hankel_verdict([1, 2, 3], 2)
    with pytest.raises(ValueError, match="need at least 5 sequence entries, got 4"):
        hankel_verdict(moments(mp(F(3, 2), F(5, 4)), 3), 2)


def test_hankel_verdict_reads_any_finite_iterable():
    # a list, a tuple, a generator and a moments prefix of the same terms
    # give one verdict; a short input gives one message whatever its type
    f = from_r(make_ratfun(w * (1 + w), (1 - w) ** 3))
    m = moments(f, 10)
    for k_max, want in ((4, "negative_at"), (3, "positive_so_far")):
        hvs = [hankel_verdict(seq, k_max)
               for seq in (m, list(m.terms), tuple(m.terms), (x for x in m.terms))]
        assert hvs[0].status == want and hvs == [hvs[0]] * 4
    for seq in (m, list(m.terms), tuple(m.terms), (x for x in m.terms)):
        with pytest.raises(ValueError, match="need at least 13 sequence entries, got 11"):
            hankel_verdict(seq, 6)

    # a generator is read no further than its first 2k_max+1 terms
    def catalan_then_raise(n):
        c = 1
        for i in range(n):
            yield c
            c = c * 2 * (2 * i + 1) // (i + 2)
        raise AssertionError("read past the terms the scan needs")

    hv = hankel_verdict(catalan_then_raise(13), 6)
    assert hv.status == "positive_so_far" and hv.minors == (1,) * 7


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


def _verdict_of_moments(f, k_max):
    return hankel_verdict(moments(f, 2), k_max)


@pytest.mark.parametrize("scan", [is_moment_positive_up_to, fid_check, _verdict_of_moments])
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
def scans(monkeypatch):
    """One entry per subresultant scan that `exactalg.hankel` builds during
    the test: the number of entries read off it."""
    reads, scan = [], hankel_mod._subresultant_scan

    def counted(a, b):
        reads.append(0)
        i = len(reads) - 1
        for s in scan(a, b):
            reads[i] += 1
            yield s

    monkeypatch.setattr(hankel_mod, "_subresultant_scan", counted)
    return reads


def test_no_zero_pivot_needs_no_separate_determinant(scans):
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786,
               208012, 742900, 2674440, 9694845, 35357670, 129644790,
               477638700, 1767263190, 6564120420]
    hv = hankel_verdict(catalan, 10)
    assert hv.minors == (1,) * 11 and scans == []


def test_zero_residuals_settle_the_tail_without_a_determinant(scans):
    # at the first zero minor every residual <pi_k, x^l> is zero: the
    # prefix obeys pi_k's recurrence, so the Hankel matrix has rank at most k
    atoms = [(F(0), F(2)), (F(1, 2), F(1)), (F(3), F(1, 5))]
    hv = hankel_verdict(_atomic(atoms, 16), 8)           # first zero at 3, scan to 8
    assert hv.minors[3:] == (0,) * 6 and all(hv.minors[:3])
    # the point mass at 0 and the FID sequences of wigner and mp: every
    # minor after order 0 is zero
    for hv in (is_moment_positive_up_to(identity_f(), 8),
               fid_check(wigner(F(5, 2)), 8), fid_check(mp(F(-3, 2), F(5, 2)), 8)):
        assert not hv.is_negative and hv.minors[1:] == (0,) * 8
    assert scans == []


def test_all_zero_sequence_gives_zeros_without_a_determinant(scans):
    # k = 0: the residuals are the terms themselves
    hv = hankel_verdict([0] * 9, 4)
    assert hv.status == "positive_so_far" and hv.minors == (0,) * 5
    assert scans == []


def test_one_scan_from_the_first_zero_pivot(scans):
    # the sequences whose residuals at the first zero minor are not all
    # zero: one subresultant scan serves every later order, and it is read
    # up to the first negative minor and no further (entry j is order j)
    hv = hankel_verdict([3, -1, 1, -1, 1, -1, 3, 2, -2], 4)  # first zero at 2, negative at 4
    assert hv.minors == (3, 2, 0, 0, -16) and scans == [5]
    scans.clear()
    hv = hankel_verdict([1, 1, 1, 2, 5, 1, 1, 1, 1], 4)      # zero at 1, negative at 2
    assert hv.minors == (1, 0, -1) and scans == [3]
    scans.clear()
    # k = 0 with a nonzero term further on
    hv = hankel_verdict([0, 0, 1, 0, 0], 2)
    assert hv.minors == (0, 0, -1) and scans == [3]
    scans.clear()
    # no negative minor after the zero one: the scan is read to k_max
    hv = hankel_verdict([1, 1, 1, 1, -1, 2, -1, 3, 2], 4)
    assert hv.status == "positive_so_far" and hv.minors == (1, 0, 0, 8, 77)
    assert scans == [5]


def _sympy_minors(sympy, s, k_max):
    ents = [sympy.Rational(v.numerator, v.denominator) for v in map(as_rat, s)]
    out = []
    for k in range(k_max + 1):
        d = sympy.Matrix(k + 1, k + 1, lambda i, j: ents[i + j]).det()
        out.append(F(int(d.p), int(d.q)))
    return out


def _check_against(hv, ref, k_max):
    """hv is the scan of a sequence whose minors of order 0..k_max are ref."""
    neg = next((k for k, d in enumerate(ref) if d < 0), None)
    if neg is None:
        assert hv.status == "positive_so_far" and hv.order == k_max
        assert list(hv.minors) == ref
    else:
        assert hv.status == "negative_at" and hv.order == neg
        assert hv.determinant == ref[neg] and list(hv.minors) == ref[: neg + 1]


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
    ref = _sympy_minors(sympy, seq, k_max)
    _check_against(hankel_verdict(seq, k_max), ref, k_max)
    assert _bareiss_minors(seq, k_max) == ref


# ------------------------------- the Chebyshev recurrence against Bareiss


def _oracle_minor(h, k):
    """det(h[i+j]), i,j = 0..k, of the ints h, by the tests' Bareiss oracle."""
    return bareiss_det_int([h[i: i + k + 1] for i in range(k + 1)])


def _bareiss_minors(s, k_max):
    """det(s[i+j]), i,j = 0..k, for k = 0..k_max: the pivots of one Bareiss
    elimination of the order-k_max Hankel matrix without row swaps, over one
    common denominator of the first 2k_max+1 terms (pivot k over den^(k+1)).
    From the first zero pivot on, a pivot is no longer the minor of its
    order, so each remaining order is a determinant of its own."""
    s = [as_rat(x) for x in s[: 2 * k_max + 1]]
    den = math.lcm(*[x.denominator for x in s])
    h = [x.numerator * (den // x.denominator) for x in s]
    out, cols = [], []  # cols[j][r]: entry (r, j) after r elimination steps
    for k in range(k_max + 1):
        c = h[k: 2 * k + 1]
        prev = 1
        for r in range(k):
            p, cr = cols[r][r], c[r]
            for i in range(r + 1, k):
                c[i] = (c[i] * p - cols[i][r] * cr) // prev
            c[k] = (c[k] * p - cr * cr) // prev
            prev = p
        if c[k] == 0:
            return out + [F(_oracle_minor(h, j), den ** (j + 1)) for j in range(k, k_max + 1)]
        cols.append(c)
        out.append(F(c[k], den ** (k + 1)))
    return out


def _member(rng):
    """A random class member of degree 2 or 3."""
    while True:
        f = rand_classf(rng, 3)
        if max(f.P.degree, f.Q.degree) >= 2:
            return f


def test_dilated_scans_match_bareiss_and_sympy(rng):
    # random members of degree 2-3: the minors of is_moment_positive_up_to
    # and fid_check (on the c-dilated ints of moments and cumulants) against
    # the Bareiss oracle and sympy on the rational terms
    sympy = pytest.importorskip("sympy")
    seen = set()
    for i in range(24):
        f, k_max = _member(rng), 2 + i % 9
        m, r = moments(f, 2 * k_max).terms, cumulants(f, 2 * k_max + 2).terms[2:]
        dilated = dilated_moments(f, 2 * k_max)[1] > 1
        for name, hv, seq in (("moments", is_moment_positive_up_to(f, k_max), m),
                              ("fid", fid_check(f, k_max), r)):
            ref = _bareiss_minors(seq, k_max)
            _check_against(hv, ref, k_max)
            if k_max <= 6:
                assert _sympy_minors(sympy, seq, k_max) == ref
            seen.add((name, hv.status, dilated))
    for name in ("moments", "fid"):
        for status in ("negative_at", "positive_so_far"):
            assert (name, status, True) in seen


_PLANTED = [
    # finitely atomic: minors zero from the atom count on (the last one
    # has a negative weight, so its order-1 minor is negative)
    (_atomic([(F(-1), F(1)), (F(2), F(1, 3))], 16), 8),
    (_atomic([(F(0), F(2)), (F(1, 2), F(1)), (F(3), F(1, 5))], 16), 8),
    (_atomic([(F(-2), F(1, 4)), (F(-1, 3), F(1)), (F(1), F(2)), (F(5, 2), F(3, 7))], 16), 8),
    (_atomic([(F(1), F(1)), (F(-1), F(-2))], 16), 8),
    # zero minors, then a negative one
    ([1, 1, 1, 2, 5], 2),
    ([3, -1, 1, -1, 1, -1, 3, 2, -2], 4),
    ([1, 1, 1, 2, 5, 1, 1, 1, 1], 4),
    ([F(1, 2), 0, 0, F(-1, 3), 0], 2),
]


@pytest.mark.parametrize("s, k_max", _PLANTED)
@pytest.mark.parametrize("c, e", [(1, 1), (6, 1), (2, 35), (15, 4)])
def test_planted_zero_minors_plain_and_dilated(s, k_max, c, e):
    # the same sequence as a plain list, and as its ints a_n = e' c^n s_n,
    # e' = e times the common denominator, in the kernel's dilated route
    ref = _bareiss_minors(s, k_max)
    assert ref == [hankel_det(s, k) for k in range(k_max + 1)] and 0 in ref
    _check_against(hankel_verdict(s, k_max), ref, k_max)
    den = math.lcm(*[F(x).denominator for x in s])
    a = [int(x * den * e * c**n) for n, x in enumerate(s)]
    assert list(leading_minors(a, k_max, c, den * e)) == ref


def test_nonzero_minors_build_no_subresultant_scan(scans):
    hv = is_moment_positive_up_to(wigner(F(7, 3)), 18)
    assert not hv.is_negative and len(hv.minors) == 19 and all(hv.minors)
    law = compose(mp(F(-3, 2), F(5, 4)), wigner(F(2, 3)))
    assert not is_moment_positive_up_to(law, 12).is_negative
    hv = fid_check(law, 18)
    assert all(hv.minors)
    assert scans == []
    # so do zero residuals
    assert fid_check(wigner(F(7, 3)), 8).minors[1:] == (0,) * 8
    assert scans == []
    # a zero minor with a nonzero residual builds one
    hankel_verdict([1, 1, 1, 2, 5, 1, 1, 1, 1], 4)
    assert len(scans) == 1


def test_minors_past_a_zero_pivot_of_100_bit_entries_match_bareiss(scans, rng):
    # K = 30: the moments of three atoms up to s_6 make H_3 = 0, and the
    # 100-bit entries after them a nonzero residual; every order from 3 on
    # comes off one subresultant scan and equals the oracle's minor
    k_max = 30
    a = [2 * (-5)**n + 7 * 3**n + 11 for n in range(7)]
    a += [rng.getrandbits(100) - (1 << 99) for _ in range(2 * k_max + 1 - len(a))]
    ref = [_oracle_minor(a, k) for k in range(k_max + 1)]
    assert ref[3] == 0 and all(ref[:3]) and sum(d != 0 for d in ref) > 20
    assert list(leading_minors(a, k_max)) == ref
    assert len(scans) == 1 and scans[0] == k_max + 1
    # and dilated: a_n = e c^n s_n scales order k by e^(k+1) c^(k(k+1))
    c, e = 6, 35
    scaled = [e * c**n * x for n, x in enumerate(a)]
    assert list(leading_minors(scaled, k_max, c, e)) == ref


def _laws_and_members(rng):
    yield from (wigner(F(7, 3)), mp(F(-3, 2), F(5, 4)), identity_f(),
                compose(mp(F(-3, 2), F(5, 4)), wigner(F(2, 3))))
    for _ in range(12):
        yield _member(rng)


def test_checks_scan_integers_only(rng, monkeypatch):
    # the verdicts of the two checks are those of hankel_verdict on the
    # prefixes of moments and cumulants, but the checks build no prefix
    cases = []
    for i, f in enumerate(_laws_and_members(rng)):
        k_max = 2 + i % 7
        cases.append((f, k_max, hankel_verdict(moments(f, 2 * k_max), k_max),
                      hankel_verdict(cumulants(f, 2 * k_max + 2).terms[2:], k_max)))

    def no_prefix(*args, **kwargs):
        raise AssertionError("a check built a SeriesPrefix")

    monkeypatch.setattr(SeriesPrefix, "__post_init__", no_prefix)
    statuses = set()
    for f, k_max, hv, fv in cases:
        assert is_moment_positive_up_to(f, k_max) == hv
        assert fid_check(f, k_max) == fv
        statuses |= {hv.status, fv.status}
    assert statuses == {"negative_at", "positive_so_far"}
