"""Polynomials in w whose coefficients are polynomials in a parameter t.

A `BiPoly` is a tuple of `Poly`s in t, one per power of w, each stored as
int numerators over its own denominator (see `poly`).  Eliminations run
over Z: the t-coefficients are brought to one common denominator d, read
off the stored forms (`_int_wcoeffs`), and the integer polynomials are
evaluated at integer parameter nodes where their leading coefficients do
not vanish; at each node a subresultant PRS of the two integer polynomials
(`poly._subresultant_scan`) gives the node values.  Lagrange
interpolation (degree bound from the determinant sizes) sums the weighted
basis numerators as ints over one common denominator, which absorbs the
power of d, and normalises once, so each result is exact.
`resultant_w` interpolates the resultant.  `lower_subresultants` yields
the signed principal subresultant coefficients of x and its w-derivative
below the top two, lc(x) and p lc(x), each only when it is read: s_j is
interpolated from its own (2p - 1 - 2j) deg_t x + 1 nodes, and each
node's PRS runs only down to s_j.  Both are determinants of
*generic-degree* matrices, so parameter values where leading coefficients
collapse may contribute spurious factors; callers strip those (see the
spectra eliminant cleaning) or read them only where no leading
coefficient vanishes (see `spectra.Pencil.real_rooted_at`).
"""
from __future__ import annotations

import functools
import math
from itertools import zip_longest

from .poly import Poly, Rat, as_rat, _eval_int, _resultant_int, _subresultant_scan


class BiPoly:
    """Dense polynomial in w; coefficient of w^i is a Poly in the parameter.

    `wcoeffs` has no trailing zero Poly.  Each Poly keeps its own int
    numerators and denominator; ring operations are those of Poly.
    """

    __slots__ = ("wcoeffs",)

    def __init__(self, wcoeffs=()):
        cs = [c if isinstance(c, Poly) else Poly.const(c) for c in wcoeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.wcoeffs = tuple(cs)

    @staticmethod
    def from_linear(a: Poly, b: Poly) -> "BiPoly":
        """The pencil a(w) + t*b(w)."""
        (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
        return BiPoly([Poly.from_ints((x * bd, y * ad), ad * bd)
                       for x, y in zip_longest(an, bn, fillvalue=0)])

    @staticmethod
    def lift(p: Poly) -> "BiPoly":
        """A parameter-free polynomial in w."""
        return BiPoly([Poly.const(c) for c in p.coeffs])

    # -- queries ---------------------------------------------------------

    @property
    def degree_w(self) -> int:
        return len(self.wcoeffs) - 1

    def is_zero(self) -> bool:
        return not self.wcoeffs

    def coeff(self, i: int) -> Poly:
        return self.wcoeffs[i] if 0 <= i < len(self.wcoeffs) else Poly.zero()

    @property
    def lc_poly(self) -> Poly:
        return self.wcoeffs[-1] if self.wcoeffs else Poly.zero()

    def max_param_degree(self) -> int:
        return max((c.degree for c in self.wcoeffs), default=-1)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, (int, Rat, Poly)):
            other = BiPoly([other if isinstance(other, Poly) else Poly.const(other)])
        if self.is_zero() or other.is_zero():
            return BiPoly(())
        out = [Poly.zero()] * (len(self.wcoeffs) + len(other.wcoeffs) - 1)
        for i, a in enumerate(self.wcoeffs):
            if not a.is_zero():
                for j, b in enumerate(other.wcoeffs):
                    out[i + j] = out[i + j] + a * b
        return BiPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.wcoeffs == other.wcoeffs

    def __hash__(self):
        return hash(self.wcoeffs)

    def deriv_w(self) -> "BiPoly":
        return BiPoly([i * c for i, c in enumerate(self.wcoeffs)][1:])

    def eval_param(self, t) -> Poly:
        """Specialize the parameter to a rational value; returns a Poly in w."""
        t = as_rat(t)
        return Poly([c(t) for c in self.wcoeffs])

    def __repr__(self):
        return f"BiPoly({self.to_str()})"

    def to_str(self, wvar: str = "w", tvar: str = "t") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.wcoeffs):
            if c.is_zero():
                continue
            cs = c.to_str(tvar)
            if i == 0:
                parts.append(f"({cs})")
            elif i == 1:
                parts.append(f"({cs})*{wvar}")
            else:
                parts.append(f"({cs})*{wvar}^{i}")
        return " + ".join(parts)


@functools.lru_cache(maxsize=64)
def _interpolator(xs: tuple):
    """Exact interpolation at the distinct integer nodes xs: values -> Poly.

    The node polynomial M = prod_j (t - x_j) is built once; each basis
    numerator M/(t - x_i) comes from it by synthetic division, and its
    value d_i at x_i is the basis denominator, so set-up and every call are
    O(n^2).  With L the lcm of the d_i, the values y_i times L/d_i weight
    the numerators over the one denominator L, and the sum is normalised
    once: interpolate(ys, den) is the interpolant divided by the int den.
    The bases are memoised on the node tuple for reuse across calls: within
    one `lower_subresultants` scan each s_j reads a different prefix, but
    node sets are nearly always prefixes of 0, 1, -1, 2, ..., so later
    eliminations of other pencils find their bases built.  Over one pass
    of distinct inputs of the algebraic_rr0 and flow_scan benchmark
    workloads about 90% of calls hit, and the 10-14 entries left hold
    65-130 kB.
    """
    m = [1]  # M, lowest degree first
    for x in xs:
        m = [0] + m
        for k in range(len(m) - 1):
            m[k] -= x * m[k + 1]
    basis = []
    for xi in xs:
        q = [0] * (len(m) - 1)  # M/(t - xi)
        acc = 0
        for k in range(len(m) - 1, 0, -1):
            acc = m[k] + xi * acc
            q[k - 1] = acc
        den = 0
        for c in reversed(q):
            den = den * xi + c
        basis.append((den, q))
    big = math.lcm(*(den for den, _ in basis))
    basis = [(big // den, q) for den, q in basis]

    def interpolate(ys, den: int = 1) -> Poly:
        out = [0] * (len(m) - 1)
        for y, (wt, q) in zip(ys, basis):
            if y:
                a = y * wt
                for k, c in enumerate(q):
                    out[k] += a * c
        return Poly.from_ints(out, big * den)

    return interpolate


def _int_wcoeffs(x: BiPoly):
    """(d, lists) with d * x having the integer t-coefficient lists `lists`."""
    forms = [cp.as_integer_ratio() for cp in x.wcoeffs]
    d = math.lcm(*(den for _, den in forms))
    return d, [[c * (d // den) for c in num] for num, den in forms]


def _nodes(count: int, *lcs):
    """The first `count` of 0, 1, -1, 2, -2, ... where no int list in lcs vanishes."""
    out = []
    k = 0
    while len(out) < count:
        t = (k + 1) // 2 * (1 if k % 2 else -1)
        k += 1
        if all(_eval_int(c, t) for c in lcs):
            out.append(t)
    return out


def resultant_w(a: BiPoly, b: BiPoly) -> Poly:
    """Resultant of a and b as polynomials in w; a Poly in the parameter.

    Computed for the generic w-degrees of a and b.  Parameter values where
    both leading coefficients vanish are artifacts of the generic Sylvester
    matrix, not solutions; callers must post-process.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant of an identically zero polynomial")
    n, m = a.degree_w, b.degree_w
    if n == 0 and m == 0:
        return Poly.one()
    if n == 0:
        return a.coeff(0) ** m
    if m == 0:
        return b.coeff(0) ** n

    bound = m * max(a.max_param_degree(), 0) + n * max(b.max_param_degree(), 0)
    # Res(A/da, B/db) = Res(A, B) / (da^m db^n) for integer A = da*a, B = db*b
    da, ai = _int_wcoeffs(a)
    db, bi = _int_wcoeffs(b)
    nodes = _nodes(bound + 1, ai[-1], bi[-1])
    values = [_resultant_int([_eval_int(c, t) for c in ai], [_eval_int(c, t) for c in bi])
              for t in nodes]
    return _interpolator(tuple(nodes))(values, da ** m * db ** n)


def lower_subresultants(x: BiPoly):
    """s_{p-2}, ..., s_0 in that order: the signed principal subresultant
    coefficients of x and its w-derivative below the top two, as
    polynomials in the parameter, p = deg_w x; nothing when p < 2.

    s_j is the determinant of `poly._subresultant_scan` built from the
    coefficients of x and x'; it has 2p - 1 - 2j rows, so degree at most
    (2p - 1 - 2j) deg_t x, and it is interpolated from the first
    (2p - 1 - 2j) deg_t x + 1 nodes alone, when the generator reaches it.
    Each node keeps one lazy scan, advanced only down to the entry being
    read, so a pseudo-division runs at a node only when an entry needs it:
    a caller that stops after s_{p-2} pays for 3 deg_t x + 1 nodes and one
    pseudo-division at each.  The top two need no interpolation:
    s_p = lc(x) and s_{p-1} = p lc(x), the leading coefficient of x'.
    """
    p = x.degree_w
    if p < 2:
        return
    d, xi = _int_wcoeffs(x)
    k = max(x.max_param_degree(), 0)
    nodes = _nodes((2 * p - 1) * k + 1, xi[-1])
    scans = []
    for j in range(p - 2, -1, -1):
        n = (2 * p - 1 - 2 * j) * k + 1
        while len(scans) < n:
            a = [_eval_int(c, nodes[len(scans)]) for c in xi]
            scan = _subresultant_scan(a, [i * c for i, c in enumerate(a)][1:])
            for _ in range(p - 1 - j):  # s_{p-1}, ..., s_{j+1}, as the others
                next(scan)
            scans.append(scan)
        # d x has rows scaled by d: s_j(d x) = d^(2p - 1 - 2j) s_j(x)
        yield _interpolator(tuple(nodes[:n]))([next(scan) for scan in scans],
                                              d ** (2 * p - 1 - 2 * j))
