import random
import sys
from fractions import Fraction

import pytest

from fcl.classf import ClassF, make_classf
from fcl.errors import NotInClass
from fcl.exactalg import BiPoly, Poly
from fcl.exactalg.poly import _prem, _remainder_chain
from fcl.exactalg.sturm import _variations_at


def rand_rat(rng, num=9, den=4, nonzero=False):
    while True:
        v = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if v or not nonzero:
            return v


def rand_poly(rng, max_deg, num=9, den=4):
    deg = rng.randint(0, max_deg)
    return Poly([1] + [rand_rat(rng, num, den) for _ in range(deg)])


def pencil_parts(x: BiPoly):
    """(a, b) with x = a + s b, for a BiPoly x linear in s: a Pencil's input."""
    return tuple(Poly([c.coeff(k) for c in x.wcoeffs]) for k in (0, 1))


def moving_part(pencil) -> BiPoly:
    """The moving part a' + s b' of a Pencil, as a BiPoly."""
    return BiPoly.from_linear(pencil.a, pencil.b)


def rand_classf(rng, max_deg=4) -> ClassF:
    while True:
        try:
            return make_classf(rand_poly(rng, max_deg), rand_poly(rng, max_deg))
        except NotInClass:
            continue


def tarski_query(a, q, lo, hi) -> int:
    """The exact sign of the int list q at the only root x of the int list
    a in (lo, hi), where a(lo) a(hi) != 0; a may have multiple roots.  An
    oracle for `AlgebraicReal.sign_of` that shares no step with it.

    The Tarski query: the Cauchy index of P' q / P on (lo, hi), for P = a,
    is Var(lo) - Var(hi) of the chain P, R, -rem(P, R), ... (Basu, Pollack
    and Roy, Algorithms in Real Algebraic Geometry, ch. 2).  R is P' q
    itself when its degree is below deg P, else `_prem(P' q, P)`, a
    positive multiple of rem(P' q, P): the two differ by a polynomial,
    which has no pole, so the index is the same.  A zero R gives 0.
    """
    b = [0] * (len(a) + len(q) - 2)
    for i, c in enumerate(a[1:], 1):
        for j, e in enumerate(q):
            b[i - 1 + j] += i * c * e
    if len(b) >= len(a):
        b = _prem(b, a)
    if not any(b):
        return 0
    chain = _remainder_chain(a, b)
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def bareiss_det_int(m) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix, with
    row swaps at a zero pivot: the tests' determinant oracle, which shares
    no step with the kernel's subresultant scan."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture(autouse=True)
def cold_flow_pencil():
    """Start every test with an empty chi_t pencil memo, so no test passes
    on a pencil, or on subresultant entries, an earlier test built."""
    spectra = sys.modules.get("fcl.spectra")   # not imported here: see test_imports
    if spectra is not None:
        spectra.flow_pencil.cache_clear()
