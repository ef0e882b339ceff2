"""Polynomials in w whose coefficients are polynomials in a parameter t.

A `BiPoly` is a tuple of `Poly`s in t, one per power of w, each stored as
int numerators over its own denominator (see `poly`).  It has three uses:
the input of a pencil's subresultant table (`subresultants`, which
`spectra.Pencil` builds from its two parts with `BiPoly.from_linear`),
the printed chi_t (`spectra.char_poly_t`), and the tracer-only
`resultant_w`; it carries no ring arithmetic.  Eliminations run
over Z: the t-coefficients are brought to one common denominator d, read
off the stored forms (`_int_wcoeffs`), and the integer polynomials are
evaluated at integer parameter nodes where their leading coefficients do
not vanish; at each node a subresultant PRS of the two integer polynomials
(`poly._subresultant_scan`) gives the node values.  Lagrange
interpolation (degree bound from the determinant sizes) sums the weighted
basis numerators as ints over one common denominator, which absorbs the
power of d, and normalises once, so each result is exact.
`subresultants(x)` gives the signed principal subresultant coefficients
of x and its w-derivative, one table for a pencil's eliminant s_0 and its
real-rootedness decisions; `resultant_w`, with no fcl caller, interpolates
a resultant.  Both are determinants of *generic-degree* matrices, so
parameter values where leading coefficients collapse may contribute
spurious factors; callers strip those (see the spectra eliminant
cleaning) or read them only where no leading coefficient vanishes (see
`spectra.Pencil.real_rooted_at`).

The table interpolates only the part of each s_j not known in advance,
by two facts about the matrix of s_j (p = deg_w x, k = deg_t x):

* lc(x) divides s_j, with a quotient of degree at most (2p - 2 - 2j) k:
  the first column holds only lc(x), in the top x-row, and p lc(x), in
  the top x'-row, so expanding along it leaves lc(x) times minors of
  2p - 2 - 2j rows.
* (t - t0)^(g - j) divides s_j for j < g when x(t0) keeps its w-degree
  and g = deg gcd(x(t0), x'(t0)): the pairs (u, v) with u x + v x' = 0,
  deg u < p - 1 - j and deg v < p - j, are the multiples of
  (x'/gcd, -x/gcd) by the polynomials of degree < g - j, so the rows of
  the matrix at t0 obey g - j independent relations; a constant change
  of rows that puts them on top leaves g - j rows divisible by t - t0.
"""
from __future__ import annotations

import functools
import math
from itertools import count, islice, zip_longest

from .poly import (Poly, as_rat, _conv, _eval_int, _resultant_int,
                   _subresultant_scan)


class BiPoly:
    """Dense polynomial in w; coefficient of w^i is a Poly in the parameter.

    `wcoeffs` has no trailing zero Poly.  Each Poly keeps its own int
    numerators and denominator.
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

    # -- queries ---------------------------------------------------------

    @property
    def degree_w(self) -> int:
        return len(self.wcoeffs) - 1

    def is_zero(self) -> bool:
        return not self.wcoeffs

    def coeff(self, i: int) -> Poly:
        return self.wcoeffs[i] if 0 <= i < len(self.wcoeffs) else Poly.zero()

    def max_param_degree(self) -> int:
        return max((c.degree for c in self.wcoeffs), default=-1)

    # -- comparison, derivative, specialisation ----------------------------

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
    """Exact interpolation at the distinct integer nodes xs: values ->
    (num, den), the interpolant's int coefficients, lowest degree first,
    over the int den, not normalised.

    The node polynomial M = prod_j (t - x_j) is built once; each basis
    numerator M/(t - x_i) comes from it by synthetic division, and its
    value d_i at x_i is the basis denominator, so set-up and every call are
    O(n^2).  With L the lcm of the d_i, the values y_i times L/d_i weight
    the numerators over the one denominator L, which the caller folds into
    its own normalisation.  The bases are memoised on the node tuple for
    reuse across calls: within one `subresultants` table each s_j reads a
    different prefix of the nodes where it is not known to vanish, but
    node sets are nearly always prefixes of 0, 1, -1, 2, ... or of 1, -1,
    2, ..., so later eliminations of other pencils find their bases
    built.  Over the set-up and one pass of the flow_scan and
    algebraic_rr0 benchmark workloads at seeds 1-3, 85-92% of calls hit,
    and the 11-21 entries left hold 20-58 kB.
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

    def interpolate(ys):
        out = [0] * (len(m) - 1)
        for y, (wt, q) in zip(ys, basis):
            if y:
                a = y * wt
                for k, c in enumerate(q):
                    out[k] += a * c
        return out, big

    return interpolate


def _int_wcoeffs(x: BiPoly):
    """(d, lists) with d * x having the integer t-coefficient lists `lists`."""
    forms = [cp.as_integer_ratio() for cp in x.wcoeffs]
    d = math.lcm(*(den for _, den in forms))
    return d, [[c * (d // den) for c in num] for num, den in forms]


def _node_stream(*lcs):
    """0, 1, -1, 2, -2, ... where no int list in lcs vanishes."""
    for k in count():
        t = (k + 1) // 2 * (1 if k % 2 else -1)
        if all(_eval_int(c, t) for c in lcs):
            yield t


def _nodes(n: int, *lcs):
    """The first n nodes of `_node_stream(*lcs)`."""
    return list(islice(_node_stream(*lcs), n))


def resultant_w(a: BiPoly, b: BiPoly) -> Poly:
    """Resultant of a and b as polynomials in w; a Poly in the parameter.

    Computed for the generic w-degrees of a and b.  Parameter values where
    both leading coefficients vanish are artifacts of the generic Sylvester
    matrix, not solutions; callers must post-process.  No fcl module calls
    it: it is kept only for the tests and the benchmark's tracer, and goes
    once the tracer drops it.
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
    num, den = _interpolator(tuple(nodes))(values)
    return Poly.from_ints(num, den * da ** m * db ** n)


def subresultants(x: BiPoly):
    """s(j) -> Poly, 0 <= j < p = deg_w x >= 1: the signed principal
    subresultant coefficients of x and x' as polynomials in the parameter.

    s_j is the determinant of `poly._subresultant_scan`: 2p - 1 - 2j rows
    of t-coefficients of degree <= k = deg_t x.  Two facts fix part of it
    in advance (proofs in the module docstring):

    * s_j = lc(x) m_j with deg m_j <= (2p - 2 - 2j) k: the first column
      holds only lc(x) and p lc(x), and expanding along it leaves minors
      of 2p - 2 - 2j rows.
    * (t - t0)^(g - j) divides s_j for j < g at a node t0 whose PRS ends
      in g = deg gcd(x(t0), x'(t0)) zeros: there the rows obey the g - j
      independent relations u x + v x' = 0 with deg u < p - 1 - j and
      deg v < p - j.

    So s_j = lc(x) N_j q_j, with N_j the product of those powers and
    deg q_j <= (2p - 2 - 2j) k - deg N_j; q_j = 0 when that is negative.
    A node with g <= j gives one value of q_j, the exact int quotient
    s_j(t0) / (lc(t0) N_j(t0)); a node with g > j gives g - j zeros of
    m_j.  The nodes 0, 1, -1, 2, ... where lc(x) does not vanish each run
    their PRS once, in full, here, until every m_j has as many of those
    conditions as coefficients: at most (2p - 2) k + 1 nodes.  For a
    member with deg P = deg Q = d and squarefree P, chi_t (p = 2d, and
    g = d at t = 0, where chi_0 = P^2) takes 3d and w P - z Q takes
    2d + 1.  s(j) interpolates q_j from its first usable nodes when first
    asked for, multiplies lc(x) N_j back in on ints with one
    normalisation, and caches what it returned; it raises ValueError for
    j outside 0..p-1.  s_0 = +-Res_w(x, x').
    """
    p = x.degree_w
    if p < 1:
        raise ValueError("subresultants of a polynomial constant in w")
    d, xi = _int_wcoeffs(x)
    k = max(x.max_param_degree(), 0)
    lc = xi[-1]
    bound = [(2 * p - 2 - 2 * j) * k for j in range(p)]  # deg_t m_j
    scans = []  # (t0, [s_(p-1)(t0), ..., s_0(t0)], g, lc(t0))

    def lacking(j):
        # conditions m_j still needs: a node gives one value or g - j zeros
        return bound[j] + 1 - sum(max(g - j, 1) for _, _, g, _ in scans)

    left = bound[0] + 1  # max of lacking(j) over j
    for t in _node_stream(lc):
        a = [_eval_int(c, t) for c in xi]
        row = list(_subresultant_scan(a, [i * c for i, c in enumerate(a)][1:]))
        g = next(i for i, v in enumerate(reversed(row)) if v)
        scans.append((t, row, g, a[-1]))
        # a node with g = 0 fixes one more value of every m_j
        left = max(map(lacking, range(p))) if g else left - 1
        if left <= 0:
            break

    @functools.cache
    def s(j: int) -> Poly:
        if not 0 <= j < p:
            raise ValueError(f"s(j) needs 0 <= j < {p}, got {j}")
        zeros = [(t0, g - j) for t0, _, g, _ in scans if g > j]  # N_j
        n = bound[j] + 1 - sum(e for _, e in zeros)
        if n <= 0:
            return Poly.zero()
        ts, ys = [], []  # q_j at the first n nodes where s_j is not known to vanish
        for t, row, g, v in scans:
            if g <= j:
                for t0, e in zeros:
                    v *= (t - t0) ** e
                ts.append(t)
                ys.append(row[p - 1 - j] // v)  # v = lc(t) N_j(t)
                if len(ts) == n:
                    break
        num, den = _interpolator(tuple(ts))(ys)
        known = lc  # times N_j, on ints
        for t0, e in zeros:
            for _ in range(e):
                known = _conv(known, [-t0, 1])
        # d x has rows scaled by d: s_j(d x) = d^(2p - 1 - 2j) s_j(x)
        return Poly.from_ints(_conv(known, num), den * d ** (2 * p - 1 - 2 * j))

    return s
