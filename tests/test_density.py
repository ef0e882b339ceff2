import math
from fractions import Fraction

import pytest

from fcl import density
from fcl.classf import make_classf, moments
from fcl.density import (_CLAMP_TOL, _Evaluator, density_csv, density_grid,
                         g_eval_descent, reference_density, support_radius_estimate)
from fcl.distlib import mp, wigner
from fcl.exactalg import Poly


def test_density_matches_closed_forms():
    fe = make_classf(Poly([1, 0, 1]), Poly([1, 0, 9]))
    for x in (0.0, 1.0, 2.0, 5.0):
        got = density_grid(fe, x, x + 1e-9, 2).fs[0]
        assert got == pytest.approx(reference_density("expoly", x), abs=1e-10)
    fw = wigner(1)
    for x in (-1.9, -1.0, 0.0, 0.7, 1.9):
        got = density_grid(fw, x, x + 1e-9, 2).fs[0]
        assert got == pytest.approx(reference_density("wigner", x, 1), abs=1e-10)
    fm = mp(1, 1)
    for x in (0.1, 0.9, 2.2, 3.9):
        got = density_grid(fm, x, x + 1e-9, 2).fs[0]
        assert got == pytest.approx(reference_density("mp", x, 1, 1), abs=1e-10)


def test_density_near_an_atom():
    # mp(-2, 1/2) has an atom of mass 1/2 at x = 0; the grid hits it exactly
    t = density_grid(mp(-2, Fraction(1, 2)), -7, 1, 401)
    assert 0.0 in t.xs and all(v is not None and v >= 0 for v in t.fs)
    for x, v in t.rows():
        if x != 0:
            assert abs(v - reference_density("mp", x, -2, 0.5)) <= 1e-10
    assert density_grid(wigner(1), 0.0, 1.0, 2).fs[0] == pytest.approx(1 / math.pi, abs=1e-12)


def test_density_symmetry():
    fe = make_classf(Poly([1, 0, 1]), Poly([1, 0, 9]))
    t = density_grid(fe, -3.0, 3.0, 61)
    for k in range(1, 31):
        assert abs(t.fs[30 - k] - t.fs[30 + k]) < 1e-8


def test_density_mass_and_moments():
    fw = wigner(1)
    t = density_grid(fw, -1.999, 1.999, 401)
    assert abs(t.mass_estimate - 1) < 2e-3
    xs, fs = t.xs, t.fs
    exact = [x for x in moments(fw, 4).terms]
    for n in (1, 2, 3, 4):
        est = sum(0.5 * (xs[i] ** n * fs[i] + xs[i + 1] ** n * fs[i + 1])
                  * (xs[i + 1] - xs[i]) for i in range(len(xs) - 1))
        assert abs(est - float(exact[n])) < 2e-3 * (1 + abs(float(exact[n])))


def test_reference_density_support():
    assert reference_density("mp", 4.5, 1, 1) == 0.0
    assert reference_density("wigner", 2.5, 1) == 0.0
    assert reference_density("expoly", 6.0) == 0.0
    assert reference_density("wigner", 0.0, 1) == pytest.approx(1 / math.pi)
    assert reference_density("expoly", 0.0) == pytest.approx(1 / (3 * math.pi))
    with pytest.raises(ValueError):
        reference_density("nope", 0.0)


def test_density_grid_validation():
    fw = wigner(1)
    with pytest.raises(ValueError):
        density_grid(fw, 0, 1, 1)


@pytest.mark.parametrize("lo, hi", [(5.0, -5.0), (2.0, 2.0), (0.0, float("nan"))])
def test_density_grid_needs_an_ascending_range(lo, hi):
    with pytest.raises(ValueError, match="need x_lo < x_hi"):
        density_grid(wigner(1), lo, hi, 11)


def test_density_csv_format():
    fw = wigner(1)
    t = density_grid(fw, -0.5, 0.5, 3)
    text = density_csv(t)
    lines = text.strip().split("\n")
    assert lines[0] == "x,f"
    assert len(lines) == 4
    assert all("," in ln for ln in lines[1:])


def test_descent_support_radius():
    assert support_radius_estimate(wigner(1)) > 2.0
    assert g_eval_descent(_Evaluator(wigner(1)), 0.0, 8.0).imag > 0


def test_density_grid_builds_one_evaluator(monkeypatch):
    # one float view of f per grid, one descent per point, same values
    f = make_classf(Poly([1, 0, 1]), Poly([1, 0, 9]))
    anchor = support_radius_estimate(f)
    xs = [-5 + 10 * i / 40 for i in range(41)]
    # each point on its own evaluator, clamped as density_grid clamps
    alone = [g_eval_descent(_Evaluator(f), x, anchor).imag / math.pi for x in xs]
    alone = [0.0 if -_CLAMP_TOL <= v < 0 else v for v in alone]
    built, descents = [], []
    evaluator, descent = density._Evaluator, density.g_eval_descent
    monkeypatch.setattr(density, "_Evaluator", lambda f: built.append(f) or evaluator(f))
    monkeypatch.setattr(density, "g_eval_descent",
                        lambda *args: descents.append(args) or descent(*args))
    table = density_grid(f, -5, 5, 41)
    assert len(built) == 1 and len(descents) == 41
    assert list(table.fs) == alone
