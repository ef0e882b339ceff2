"""Truncated power series over Z or Q.

A series is a plain list of ints or Fractions, index n = coefficient of
z^n, always carried to a fixed truncation order N (length N+1).
`invert_f_series` takes polynomials as coefficient sequences, lowest
degree first, and inverts F(w) = w p(w)/q(w) by Newton steps to the
orders n, ceil(n/2), ceil(n/4), ..., taken in ascending order, so that
the last step appends about n/2 coefficients.  Each step's correction is
-(F(D) - z) D': its one division is by q(D), it reads
p(D) and q(D) off the powers of D up to max(deg p, deg q), and its
products skip the coefficients known to be zero.  The ring is preserved:
padding is the int 0 and a division by a series with constant term 1
never leaves the ring, so integer inputs give integer outputs and
Fraction inputs give Fractions.  Only a constant term other than 1 (in
`ser_div`) brings in a Fraction.
"""
from __future__ import annotations

from operator import mul

from .exactalg import Rat


def ser_trunc(a, n: int):
    a = list(a[: n + 1])
    return a + [0] * (n + 1 - len(a))


def ser_div(a, b, n: int):
    """a/b mod z^(n+1); requires b[0] != 0.

    b is not padded, so a divisor of degree d costs O(n d), not O(n^2).
    """
    a, b = ser_trunc(a, n), list(b[: n + 1])
    if not b or b[0] == 0:
        raise ZeroDivisionError("series division needs a unit constant term")
    inv0 = None if b[0] == 1 else Rat(1) / b[0]
    out = []
    for k in range(n + 1):
        acc = a[k] - sum(map(mul, b[1: k + 1], reversed(out)))
        out.append(acc if inv0 is None else acc * inv0)
    return out


def invert_f_series(p, q, n: int):
    """Coefficients of the composition inverse D of F(w) = w*p(w)/q(w).

    p and q are coefficient sequences with p(0) = q(0) = 1; returns D's
    coefficients to order n (D[0] = 0, D[1] = 1).  Newton iteration,
    corrected by D' in place of 1/F'(D): if F(D) - z = O(z^(m+1)),
    differentiating gives F'(D) D' = 1 + O(z^m), so D <- D - (F(D) - z) D'
    is exact mod z^(2m+1) and only appends coefficients m+1..2m.  The
    steps halve down from the target (von zur Gathen and Gerhard, *Modern
    Computer Algebra*, 9.1): they reach the orders n, ceil(n/2),
    ceil(n/4), ... > 1 in ascending order, each at most twice the one
    before.  So n = 37 runs 2, 3, 5, 10, 19, 37; doubling would end on a
    step 32 -> 37 that builds 37-term power tables for 5 coefficients.
    F(D) - z = (D p(D) - z q(D)) / q(D) is the one division, by q(D),
    whose constant term is 1, so integer p and q keep D integral.

    Products skip known zeros: the iteration runs on E = D/z, so each
    power D^j = z^j E^j is held as E^j from its first possibly nonzero
    index, and (F(D) - z)/z is computed from its index m on.  Each step
    builds E^0..E^k once, k = max(deg p, deg q), and reads p(D) and q(D)
    off them.
    """
    p, q = list(p), list(q)
    top = max(len(p), len(q)) - 1
    orders, k = [], n  # n, ceil(n/2), ceil(n/4), ... > 1: each <= twice the next
    while k > 1:
        orders.append(k)
        k = -(-k // 2)
    e = [1]  # E = D/z = 1 + O(z): D is exact through z^m, m = len(e)
    for order in reversed(orders):  # D is wanted mod z^(order+1)
        m = len(e)
        # pows[j] = E^j mod z^(order-j), so that z^j pows[j] = D^j mod z^order
        pows = [[1] + [0] * (order - 1), e + [0] * (order - 1 - m)]
        for j in range(2, min(top, order - 1) + 1):
            prev = pows[-1]
            pows.append([sum(map(mul, e, prev[t::-1])) for t in range(order - j)])
        pd, qd = _combine(p, pows, order), _combine(q, pows, order)
        # h = (F(D) - z)/z = (E p(D) - q(D))/q(D), from its index m on
        h = []
        for u in range(m, order):
            acc = sum(map(mul, e, pd[u::-1])) - qd[u]
            h.append(acc - sum(map(mul, qd[1: len(h) + 1], reversed(h))))
        # [z^(u+1)] of (F(D) - z) D' for u >= m, with D'[c] = (c + 1) E[c]
        de = [(c + 1) * x for c, x in enumerate(e[: order - m])]
        e += [-sum(map(mul, h[: t + 1], de[t::-1])) for t in range(order - m)]
    return [0] + e[:n]


def _combine(p, pows, n: int):
    """p(D) mod z^n as sum_j p_j z^j E^j, from pows[j] = E^j mod z^(n-j)."""
    acc = [0] * n
    for j, (c, pw) in enumerate(zip(p, pows)):
        if c:
            acc[j:] = [x + c * y for x, y in zip(acc[j:], pw)]
    return acc
