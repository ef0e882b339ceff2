"""Truncated power series over Z or Q.

A series is a plain list of ints or Fractions, index n = coefficient of
z^n, always carried to a fixed truncation order N (length N+1).
`invert_f_series` takes polynomials as coefficient sequences, lowest
degree first.  The ring is preserved: padding is the int 0 and a
division by a series with constant term 1 never leaves the ring, so
integer inputs give integer outputs and Fraction inputs give Fractions.
Only a constant term other than 1 brings in a Fraction.
"""
from __future__ import annotations

from operator import mul

from .exactalg import Rat


def ser_trunc(a, n: int):
    a = list(a[: n + 1])
    return a + [0] * (n + 1 - len(a))


def ser_mul(a, b, n: int):
    a, b = ser_trunc(a, n), ser_trunc(b, n)
    return [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(n + 1)]


def ser_div(a, b, n: int):
    """a/b mod z^(n+1); requires b[0] != 0."""
    a, b = ser_trunc(a, n), ser_trunc(b, n)
    if b[0] == 0:
        raise ZeroDivisionError("series division needs a unit constant term")
    inv0 = None if b[0] == 1 else Rat(1) / b[0]
    out = []
    for k in range(n + 1):
        acc = a[k] - sum(map(mul, b[1: k + 1], reversed(out)))
        out.append(acc if inv0 is None else acc * inv0)
    return out


def invert_f_series(p, q, n: int):
    """Coefficients of the composition inverse D of F(w) = w*p(w)/q(w).

    p and q are coefficient sequences with p(0) = q(0) = 1.  Newton
    iteration D <- D - (F(D) - z)/F'(D) with doubling truncation order;
    returns D's coefficients to order n (D[0] = 0, D[1] = 1).
    F' = chi/q^2 with chi = (p + w p')q - w p q', the exact numerator of
    F', so the correction is (D p(D) - z q(D)) q(D) / chi(D).  Its one
    division is by chi(D), whose constant term is p(0)q(0) = 1, so
    integer p and q keep D integral.  Each step builds the powers
    D^0..D^(deg p + deg q) of its D once (D^j = O(z^j), so none past the
    step's order) and reads p(D), q(D) and chi(D) off them.
    """
    p, q = list(p), list(q)
    p_wdp = [(i + 1) * c for i, c in enumerate(p)]  # p + w p'
    wdq = [i * c for i, c in enumerate(q)]  # w q'
    deg = len(p) + len(q) - 2
    chi = [a - b for a, b in zip(ser_mul(p_wdp, q, deg), ser_mul(p, wdq, deg))]

    order = 1
    d = [0, 1]  # D = z + O(z^2)
    while order < n:
        order = min(2 * order, n)
        d = ser_trunc(d, order)
        pows = [ser_trunc([1], order), d]
        for _ in range(min(deg, order) - 1):
            pows.append(ser_mul(pows[-1], d, order))
        qd = _combine(q, pows, order)
        resid = ser_mul(d, _combine(p, pows, order), order)
        resid = [x - y for x, y in zip(resid, [0] + qd)]  # D p(D) - z q(D)
        corr = ser_div(ser_mul(resid, qd, order), _combine(chi, pows, order), order)
        d = [x - y for x, y in zip(d, corr)]
    return ser_trunc(d, n)


def _combine(p, pows, n: int):
    """p(D) mod z^(n+1) as sum_j p_j D^j, from pows[j] = D^j (missing powers vanish)."""
    acc = [0] * (n + 1)
    for c, pw in zip(p, pows):
        if c:
            acc = [x + c * y for x, y in zip(acc, pw)]
    return acc
