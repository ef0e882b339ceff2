"""Exact Hankel determinants of rational sequences.

`leading_minors` yields the integer leading minors of a list of ints by
the fraction-free modified Chebyshev algorithm (Gautschi, *Orthogonal
Polynomials: Computation and Approximation*, 2004, ch. 2); `hankel_det`
reads one subresultant scan (`_scan_minors`).  `integer_prefix` writes a
rational sequence as integers over its least common denominator.
"""
from __future__ import annotations

import math
from itertools import islice, repeat

from .poly import Rat, _subresultant_scan, as_rat


def integer_prefix(s, n: int):
    """(ints, den): the first n entries of the iterable s as integers over
    their least common denominator den.  Reads no entry past the n-th."""
    s = [as_rat(x) for x in islice(s, n)]
    if len(s) < n:
        raise ValueError(f"need at least {n} sequence entries, got {len(s)}")
    den = math.lcm(*[x.denominator for x in s])
    return [x.numerator * (den // x.denominator) for x in s], den


def _scan_minors(a):
    """The Hankel minors H_0, ..., H_K of the 2K+1 ints a, each computed
    when it is read.  B / x^(2K+1), B = sum_i a_i x^(2K-i), has the Laurent
    coefficients a_i, so H_k is the signed principal subresultant
    coefficient s_(2K-k) of x^(2K+1) and B, entry k of `_subresultant_scan`
    (Basu, Pollack and Roy, *Algorithms in Real Algebraic Geometry*, ch. 9).
    """
    b = list(reversed(a))  # B, lowest degree first
    while b and b[-1] == 0:
        b.pop()
    scan = _subresultant_scan([0] * len(a) + [1], b) if b else repeat(0)
    return islice(scan, len(a) // 2 + 1)


def hankel_det(s, k: int) -> Rat:
    """det(s[i+j]) for i,j = 0..k, the last entry of `_scan_minors`.

    Needs at least 2k+1 entries of the sequence.
    """
    if k < 0:
        raise ValueError("order must be nonnegative")
    ints, den = integer_prefix(s, 2 * k + 1)
    *_, h = _scan_minors(ints)
    return Rat(h, den ** (k + 1))


def leading_minors(a, k_max: int):
    """Yield the integer minors H_k = det(a[i+j]), i,j = 0..k, of the ints
    a, for k = 0, 1, ..., k_max in turn.

    They come from T_k[l] = H_(k-1) <pi_k, x^l>, pi_k the monic orthogonal
    polynomials of a, so that T_k[k] = H_k.  With T_(-1) = 0, T_0 = a and
    H_(-1) = H_(-2) = 1, the three-term recurrence cleared of fractions is

        T_k[l] = (H_(k-2) (H_(k-1) T_(k-1)[l+1] - T_(k-1)[k] T_(k-1)[l])
                  + H_(k-1) (T_(k-2)[k-1] T_(k-1)[l] - H_(k-1) T_(k-2)[l]))
                 / H_(k-2)^2,

    an exact division, for l = k..2k_max-k.  A caller that stops early pays
    only for the orders it has read.

    The recurrence divides by the minors, so it stops at the first zero
    minor H_k (H_(k-1) != 0).  There T_k[k..2k_max-k] = H_(k-1) <pi_k, x^l>
    are the residuals of pi_k's recurrence; T_0 = a at k = 0.  If all are
    0, then sum_i pi_k[i] a_(i+l) = 0 for l = 0..2k_max-k (below k by
    orthogonality), so every column j >= k of the order-k_max Hankel matrix
    is a combination of the k columns before it.  The matrix has rank at
    most k (Iohvidov, *Hankel and Toeplitz Matrices and Forms*, 1982), and
    the orders k..k_max yield 0 with no determinant.  If one residual is
    nonzero, they come off one `_scan_minors`.
    """
    if k_max < 0:
        raise ValueError("order must be nonnegative")
    n = 2 * k_max + 1
    if len(a) < n:
        raise ValueError(f"need at least {n} sequence entries, got {len(a)}")
    t2, t1 = [0] * (n + 1), list(a[:n])  # T_(k-1)[k-1:] and T_k[k:] at k = 0
    h2, h1 = 1, t1[0]                     # H_(k-1) and H_k
    for k in range(k_max + 1):
        if k:
            u, v, w, d = h2 * h1, h1 * t2[1] - h2 * t1[1], h1 * h1, h2 * h2
            t2, t1 = t1, [(u * x1 + v * x0 - w * y) // d
                          for x1, x0, y in zip(t1[2:], t1[1:], t2[2:])]
            h2, h1 = h1, t1[0]
        if h1 == 0:
            if any(t1):
                yield from islice(_scan_minors(a[:n]), k, None)
            else:  # zero residuals: rank <= k
                yield from repeat(0, k_max + 1 - k)
            return
        yield h1
