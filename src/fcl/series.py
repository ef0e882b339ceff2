"""Truncated power series over the rationals.

A series is a plain list of Fractions, index n = coefficient of z^n,
always carried to a fixed truncation order N (length N+1).
"""
from __future__ import annotations

from .exactalg import Poly, Rat


def ser_trunc(a, n: int):
    a = list(a[: n + 1])
    return a + [Rat(0)] * (n + 1 - len(a))


def ser_mul(a, b, n: int):
    a, b = ser_trunc(a, n), ser_trunc(b, n)
    out = [Rat(0)] * (n + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(min(len(b), n + 1 - i)):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def ser_div(a, b, n: int):
    """a/b mod z^(n+1); requires b[0] != 0."""
    a, b = ser_trunc(a, n), ser_trunc(b, n)
    if b[0] == 0:
        raise ZeroDivisionError("series division needs a unit constant term")
    inv0 = 1 / b[0]
    out = [Rat(0)] * (n + 1)
    for k in range(n + 1):
        acc = a[k]
        for j in range(1, k + 1):
            if b[j] and out[k - j]:
                acc -= b[j] * out[k - j]
        out[k] = acc * inv0
    return out


def ser_poly_at(p: Poly, d, n: int):
    """p(d) mod z^(n+1) for a polynomial p and series d (Horner)."""
    acc = [Rat(0)] * (n + 1)
    for c in reversed(p.coeffs):
        acc = ser_mul(acc, d, n)
        acc[0] += c
    return acc


def ser_compose(a, b, n: int):
    """a(b(z)) mod z^(n+1); requires b[0] == 0."""
    b = ser_trunc(b, n)
    if b[0] != 0:
        raise ValueError("series composition needs b(0) = 0")
    out = [Rat(0)] * (n + 1)
    power = [Rat(0)] * (n + 1)
    power[0] = Rat(1)
    a = ser_trunc(a, n)
    for k, c in enumerate(a):
        if c:
            out = [x + c * y for x, y in zip(out, power)]
        if k < n:
            power = ser_mul(power, b, n)
    return out


def invert_f_series(p: Poly, q: Poly, n: int):
    """Coefficients of the composition inverse D of F(w) = w*p(w)/q(w).

    Newton iteration D <- D - (F(D) - z)/F'(D) with doubling truncation
    order; returns D's coefficients to order n (D[0] = 0, D[1] = 1).
    F' is evaluated as chi/q^2 with chi = (p + w p')q - w p q', the exact
    numerator of F'.
    """
    w = Poly.x()
    chi = (p + w * p.derivative()) * q - w * p * q.derivative()
    q2 = q * q

    order = 1
    d = [Rat(0), Rat(1)]  # D = z + O(z^2)
    while order < n:
        order = min(2 * order, n)
        d = ser_trunc(d, order)
        pd = ser_poly_at(p, d, order)
        qd = ser_poly_at(q, d, order)
        fd = ser_mul(d, ser_div(pd, qd, order), order)
        fd[1] -= 1  # F(D) - z
        chid = ser_poly_at(chi, d, order)
        q2d = ser_poly_at(q2, d, order)
        corr = ser_div(ser_mul(fd, q2d, order), chid, order)
        d = [x - y for x, y in zip(d, corr)]
    return ser_trunc(d, n)
