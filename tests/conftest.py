import random
import sys
from fractions import Fraction

import pytest

from fcl.classf import ClassF, make_classf
from fcl.errors import NotInClass
from fcl.exactalg import Poly


def rand_rat(rng, num=9, den=4, nonzero=False):
    while True:
        v = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if v or not nonzero:
            return v


def rand_poly(rng, max_deg, num=9, den=4):
    deg = rng.randint(0, max_deg)
    return Poly([1] + [rand_rat(rng, num, den) for _ in range(deg)])


def rand_classf(rng, max_deg=4) -> ClassF:
    while True:
        try:
            return make_classf(rand_poly(rng, max_deg), rand_poly(rng, max_deg))
        except NotInClass:
            continue


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
