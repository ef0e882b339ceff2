"""Eulerian polynomials and the F-functions whose cumulants are t * n^k.

E_k is built from the classical recurrence
    E_k = (k w - w + 1) E_{k-1} + w (1 - w) E'_{k-1},      E_0 = 1,
and the companion polynomials come in two provably equal ways:
    TE_k = (k+1) E_k + (1 - w) E_k'                 (definition)
    TE_k = (k w - w + 2) TE_{k-1} + w (1-w) TE'_{k-1}  (recurrence)
Both are computed and compared on every call; a mismatch raises.

Coefficient tables are derived from the polynomial recurrences only and
cross-checked in the test suite against brute-force descent counts.
"""
from __future__ import annotations

from fractions import Fraction

from .classf import ClassF, cumulants, make_classf
from .errors import ComputationError
from .exactalg import BiPoly, Poly
from .spectra import Verdict, char_poly_t, critical_ts, rr0_at_algebraic_t


def eulerian(k: int) -> Poly:
    """E_k; degree k-1 for k >= 1, E_0 = 1."""
    if k < 0:
        raise ValueError("need k >= 0")
    e = Poly.one()
    w = Poly.x()
    for j in range(1, k + 1):
        e = (j * w - w + 1) * e + w * (1 - w) * e.derivative()
    return e


def eulerian_tilde(k: int) -> Poly:
    """The companion polynomial, computed by both routes (must agree)."""
    if k < 0:
        raise ValueError("need k >= 0")
    w = Poly.x()
    e = eulerian(k)
    via_def = (k + 1) * e + (1 - w) * e.derivative()
    via_rec = Poly.one()
    for j in range(1, k + 1):
        via_rec = (j * w - w + 2) * via_rec + w * (1 - w) * via_rec.derivative()
    if via_def != via_rec:
        raise ComputationError("companion polynomial routes disagree")
    return via_def


def nk_classf(k: int) -> ClassF:
    """The class member whose free cumulant sequence is n^k."""
    if k < 1:
        raise ValueError("need k >= 1")
    w = Poly.x()
    p = (1 - w) ** (k + 1)
    return make_classf(p, p + w * eulerian(k))


def chi_t_factored(k: int) -> dict:
    """chi_t of nk_classf(k) and its closed factorization, checked exactly.

    chi_t = (1-w)^k * ((1-w)^(k+2) - t w^2 TE_k); the right side is built
    from its two parts in t, (1-w)^(2k+2) and -(1-w)^k w^2 TE_k, and the
    check is an exact BiPoly equality against char_poly_t.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    w = Poly.x()
    lhs = char_poly_t(nk_classf(k))
    g = (1 - w) ** k
    rhs = BiPoly.from_linear(g * (1 - w) ** (k + 2), -(g * w * w * eulerian_tilde(k)))
    return {"lhs": lhs, "rhs": rhs, "factor_check": lhs == rhs}


def ck_candidates(k: int, t_hi) -> dict:
    """Critical scan of nk_classf(k) on (0, t_hi) and the C_k candidate.

    The candidate is the smallest critical whose right-hand interval has a
    Yes verdict, or which is itself decided Yes; None when no rr0 window
    shows up in range.  No minimality claim is made.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    f = nk_classf(k)
    report = critical_ts(f, Fraction(0), t_hi)
    candidate = None
    for i, crit in enumerate(report.criticals):
        if report.rr0_verdicts[i + 1] is Verdict.YES:
            candidate = crit
            break
        if rr0_at_algebraic_t(f, crit) is Verdict.YES:
            candidate = crit
            break
    return {"report": report, "candidate": candidate}
