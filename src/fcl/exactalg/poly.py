"""Dense exact polynomials over the rationals, stored in integers.

A `Poly` is a tuple of int numerators, lowest degree first with no trailing
zero, over one positive common denominator, normalised once per result:
trailing zeros stripped and one gcd(den, *num) divided out.  Every ring
operation (+, -, *, **, derivative, scale_arg, monic, divmod by
pseudo-division), == and hash, and evaluation at an int or a Fraction run
on those ints; evaluation ends in a single Fraction.  The Fraction
coefficients (`Poly.coeffs`) are built only when someone reads them.
Floating point enters only when the caller evaluates at a float/complex
point.  gcds, squarefree parts and resultants run on primitive integer
coefficient lists (`Poly.int_coeffs`), so their intermediate coefficients
stay small.  One primitive remainder sequence over Z, `_remainder_chain`,
serves the gcd and the Sturm chains of `sturm`.  A gcd is first tried by the heuristic gcd (GCDHEU: one
integer gcd of the values at a large point, read back as a polynomial and
proved by trial division), and only when that fails is it the chain's last
member.  The signed subresultant PRS (`_subresultant_scan`), the one
determinant routine, yields its entries top-down and lazily, for
resultants, the real-rootedness rule in `sturm`, the pencil tables of
`bipoly` and the Hankel minors of `hankel`.
"""
from __future__ import annotations

import math
from fractions import Fraction

Rat = Fraction


def as_rat(x) -> Rat:
    """Coerce ints, strings like '27/8' and Fractions to Fraction."""
    if isinstance(x, Rat):
        return x
    return Rat(x)


def rat_str(x: Rat) -> str:
    """Render a rational as 'p' or 'p/q' (exact, never decimal)."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Poly:
    """Dense univariate polynomial over Q: int numerators over one denominator.

    The polynomial is sum_i num[i] w^i / den.  `num` is a tuple of ints,
    lowest degree first, with no trailing zero; `den` is a positive int
    with gcd(den, *num) = 1.  The zero polynomial is ((), 1).  The form is
    canonical, so == and hash compare it directly.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, (int, Rat)) else as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        # den is the lcm of the reduced denominators, so gcd(den, *num) = 1
        den = math.lcm(*[c.denominator for c in cs])
        self._num = tuple(c.numerator * (den // c.denominator) for c in cs)
        self._den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_ints(num, den=1) -> "Poly":
        """sum_i num[i] w^i / den, for ints num (lowest degree first) and den != 0."""
        if den == 0:
            raise ZeroDivisionError("polynomial with denominator 0")
        return _norm(num, den)

    @staticmethod
    def zero() -> "Poly":
        return _new((), 1)

    @staticmethod
    def one() -> "Poly":
        return _new((1,), 1)

    @staticmethod
    def const(c) -> "Poly":
        c = c if isinstance(c, (int, Rat)) else as_rat(c)
        return _new((c.numerator,), c.denominator) if c else _new((), 1)

    @staticmethod
    def x() -> "Poly":
        return _new((0, 1), 1)

    # -- the stored form ----------------------------------------------

    def as_integer_ratio(self):
        """(num, den): the int numerator tuple, lowest degree first, and the
        positive common denominator, with gcd(den, *num) = 1."""
        return self._num, self._den

    @property
    def coeffs(self):
        """The coefficients as a tuple of Fractions, lowest degree first,
        built from the stored form at each read."""
        den = self._den
        return tuple(Rat(c, den) for c in self._num)

    def int_coeffs(self):
        """Primitive integer coefficients and the scale s with self = s * prim."""
        num = self._num
        if not num:
            return [], Rat(1)
        g = math.gcd(*num)
        return [c // g for c in num] if g > 1 else list(num), Rat(g, self._den)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._num) - 1

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return len(self._num) <= 1

    @property
    def lc(self) -> Rat:
        """Leading coefficient (of the zero polynomial: 0)."""
        return Rat(self._num[-1], self._den) if self._num else Rat(0)

    def coeff(self, i: int) -> Rat:
        num = self._num
        return Rat(num[i], self._den) if 0 <= i < len(num) else Rat(0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        a, da, b, db = self._num, self._den, other._num, other._den
        if da != db:
            g = math.gcd(da, db)
            ma, mb = db // g, da // g
            a, b, da = [c * ma for c in a], [c * mb for c in b], da * ma
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _norm(out, da)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _new(tuple(-c for c in self._num), self._den)

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Poly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Rat)):
            u = other.numerator
            return _norm([c * u for c in self._num], self._den * other.denominator)
        other = _coerce(other)
        return _norm(_conv(self._num, other._num), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result, base = Poly.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Rat)):
            other = Poly.const(other)
        return (isinstance(other, Poly) and self._num == other._num
                and self._den == other._den)

    def __hash__(self):
        return hash((self._num, self._den))

    # -- calculus / evaluation -----------------------------------------

    def derivative(self) -> "Poly":
        return _norm([i * c for i, c in enumerate(self._num)][1:], self._den)

    def __call__(self, x):
        """Horner evaluation at x.

        At an int or a Fraction u/v it is one integer Horner on the
        numerators, homogenised at (u, v), and one final Fraction; at
        floats, complexes and intervals it runs on the Fraction `coeffs`.
        """
        num = self._num
        if not num:
            return x * 0
        if isinstance(x, (int, Rat)):
            u, v = x.numerator, x.denominator
            it = reversed(num)
            acc, vp = next(it), 1
            for c in it:
                vp *= v
                acc = acc * u + c * vp
            return Rat(acc, self._den * vp)
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return acc

    def scale_arg(self, c) -> "Poly":
        """p(c*w) for a rational c."""
        c = as_rat(c)
        u, v = c.numerator, c.denominator
        # p(u w / v) = sum_i num_i u^i v^(n-i) w^i / (den v^n)
        out = list(self._num)
        up = vp = 1
        for i in range(1, len(out)):
            up *= u
            out[i] *= up
        for i in range(len(out) - 2, -1, -1):
            vp *= v
            out[i] *= vp
        return _norm(out, self._den * vp)

    # -- division ------------------------------------------------------

    def divmod(self, other: "Poly"):
        """(q, r) with self = q * other + r and deg r < deg other, by
        pseudo-division of the numerators (`_pdivmod`)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r, s = _pdivmod(self._num, other._num)
        s *= self._den
        e = other._den
        return _norm([c * e for c in q], s), _norm(r, s)

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return _norm(self._num, self._num[-1])

    # -- printing --------------------------------------------------------

    def __repr__(self):
        return f"Poly({self.to_str()})"

    def to_str(self, var: str = "w") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = rat_str(mag)
            else:
                v = var if i == 1 else f"{var}^{i}"
                term = v if mag == 1 else f"{rat_str(mag)}*{v}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def _new(num: tuple, den: int) -> Poly:
    """The Poly with the stored form (num, den), already normalised."""
    p = object.__new__(Poly)
    p._num, p._den = num, den
    return p


def _norm(num, den: int) -> Poly:
    """num / den normalised: trailing zeros stripped, den > 0, and both
    divided by one gcd(den, *num).  num is not modified."""
    n = len(num)
    while n and num[n - 1] == 0:
        n -= 1
    if not n:
        return _new((), 1)
    if n < len(num):
        num = num[:n]
    if den < 0:
        den, num = -den, [-c for c in num]
    if den != 1:
        g = math.gcd(den, *num)
        if g > 1:
            return _new(tuple([c // g for c in num]), den // g)
    return _new(tuple(num), den)


def _conv(a, b):
    """The product of int lists a and b ([] if either is empty)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _pdivmod(a, b):
    """(q, r, s) with s a = q b + r and deg r < deg b, for int lists a and b,
    b nonzero.  s is a power of lc(b): a step multiplies by lc(b) only when
    lc(b) does not divide its leading coefficient, so a monic b divides
    without any scaling."""
    r = list(a)
    d = len(b) - 1
    lb = b[-1]
    q = [0] * max(0, len(r) - d)
    s = 1
    for k in range(len(q) - 1, -1, -1):
        lead = r.pop()
        c, m = divmod(lead, lb)
        if m:
            r = [x * lb for x in r]
            q = [x * lb for x in q]
            s *= lb
            c = lead
        q[k] = c
        if c:
            for j in range(d):
                r[k + j] -= c * b[j]
    return q, r, s


def _coerce(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Rat)):
        return Poly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Poly")


# -- the integer kernel: int coefficient lists, lowest degree first ------


def _primitive(a):
    """a divided by the positive gcd of its entries ([] stays [])."""
    g = math.gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _prem(a, b):
    """Primitive positive multiple of a rem b, for int lists with b nonzero
    and deg a >= deg b (every caller has that).

    `_pseudo_rem(a, b)` is lc(b)^e (a rem b) with e = deg a - deg b + 1, so
    its primitive part is a positive multiple of a rem b unless lc(b)^e < 0,
    that is lc(b) < 0 and e odd (deg a - deg b even); it is then negated.
    Signs are those of the Euclidean remainder, as Sturm chains need
    (Collins, J. ACM 14 (1967), primitive PRS).
    """
    r = _primitive(_pseudo_rem(a, b))
    if b[-1] < 0 and (len(a) - len(b)) % 2 == 0:
        return [-c for c in r]
    return r


def _remainder_chain(a, b):
    """The primitive remainder sequence a, b, -rem(a, b), ... of int lists,
    a nonzero and deg a >= deg b: after a, each member is primitive and a
    positive multiple of the matching signed remainder over Q, so it keeps
    the signs a Sturm chain reads.  It stops at a
    constant or before a zero remainder, so its last member is a primitive
    gcd of a and b (a itself when b is zero)."""
    chain = [a]
    r = _primitive(b)
    while r:
        chain.append(r)
        if len(r) == 1:
            break
        r = [-c for c in _prem(chain[-2], r)]
    return chain


def _exact_div(a, b):
    """The int list q with a = q * b, or None when b does not divide a over Z.

    `_pdivmod` scales by lc(b) (s != 1) exactly when some quotient
    coefficient is not an integer.
    """
    q, r, s = _pdivmod(a, b)
    return q if s == 1 and q and not any(r) else None


_HEU_TRIES = 6


def _gcd_heuristic(a, b):
    """GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989): a
    primitive gcd of the primitive int lists a, b, both of positive degree,
    or None when every try fails.

    A try evaluates a and b at an integer xi >= 2 min(|a|, |b|) + 2 (max
    norms), takes the integer gcd of the two values, rebuilds G from its
    symmetric xi-adic digits (each of modulus at most xi/2) and accepts
    pp(G) when it divides a and b over Z.  It is then the gcd g: g =
    pp(G) h for some h in Z[x], and G(xi) = cont(G) pp(G)(xi) is the
    integer gcd, a multiple of g(xi), so h(xi) divides cont(G), which
    divides every digit and so has modulus at most xi/2.  Every root of h
    is a root of a and of b, of modulus below 1 + min(|a|, |b|) <= xi/2
    (Cauchy), so deg h >= 1 would give |h(xi)| > xi/2: h is a unit.  A
    constant G is accepted at once (the gcd is 1).  Each failed try
    multiplies xi by about 2.73.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(_HEU_TRIES):
        gamma = math.gcd(_eval_int(a, xi), _eval_int(b, xi))
        g = []
        while gamma:
            d = gamma % xi
            if 2 * d > xi:
                d -= xi
            g.append(d)
            gamma = (gamma - d) // xi
        g = _primitive(g)
        if len(g) == 1:
            return [1]
        if _exact_div(a, g) is not None and _exact_div(b, g) is not None:
            return g
        xi = xi * 73794 // 27011
    return None


def _eval_int(a, x: int) -> int:
    """The int list a at the int x, by Horner."""
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _gcd(a, b):
    """A primitive gcd of int lists a, b, not both zero: `_gcd_heuristic`
    when both have positive degree, and the last member of
    `_remainder_chain` when it fails or does not apply."""
    if len(a) < len(b):
        a, b = b, a
    a = _primitive(a)
    b = _primitive(b)
    if len(b) > 1:
        g = _gcd_heuristic(a, b)
        if g is not None:
            return g
    return _remainder_chain(a, b)[-1]


def _monic(a) -> "Poly":
    return _norm(a, a[-1])


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor: the heuristic gcd, else the primitive
    remainder sequence over Z (`_gcd`)."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    return _monic(_gcd(p.int_coeffs()[0], q.int_coeffs()[0]))


def squarefree_part(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p."""
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree part")
    if p.is_constant():
        return Poly.one()
    a = p.int_coeffs()[0]
    g = _gcd(a, [i * c for i, c in enumerate(a)][1:])
    return _monic(_exact_div(a, g))


def is_squarefree(p: Poly) -> bool:
    if p.is_zero():
        return False
    return p.is_constant() or poly_gcd(p, p.derivative()).is_constant()


# -- determinants and resultants: one signed subresultant PRS -------------


def _pseudo_rem(a, b):
    """lc(b)^(deg a - deg b + 1) * a reduced modulo b, for int lists with
    deg a >= deg b (the full pseudo-remainder: every step multiplies).

    It runs in place on one copy of a.  Step k, from k = deg a - deg b
    down to 0, pops the leading entry and touches the window a[k], ...,
    a[k + deg b - 1] with one multiply-subtract each; an entry below the
    window is left alone until the step it enters, where the lc(b) powers
    of the steps it missed are made up in one multiplication.
    """
    a = list(a)
    d = len(b) - 1
    if not d:
        return []
    lb = b[-1]
    pw = 1
    for k in range(len(a) - 1 - d, -1, -1):
        lead = a.pop()
        pw *= lb  # lc(b)^(deg a - deg b + 1 - k), the scaling a[k] owes
        a[k] = a[k] * pw - lead * b[0]
        for j in range(1, d):
            a[k + j] = a[k + j] * lb - lead * b[j]
    while a and a[-1] == 0:
        a.pop()
    return a


def _subresultant_scan(a, b):
    """The signed principal subresultant coefficients s_(p-1), ..., s_0 of
    int lists a and b, top-down, each pseudo-division run only when the
    next entry is asked for.

    Needs deg b < deg a = p.  For j <= deg b = q, s_j is the determinant
    of the rows x^(q-j-1) a, ..., a, b, x b, ..., x^(p-j-1) b, coefficients
    written highest degree first and the first p + q - 2j columns kept;
    s_j = 0 for q < j < p, and s_p = lc(a) (not yielded).  They come from
    the subresultant PRS with Lazard's reduction (Ducos, "Optimizations of
    the subresultant algorithm", JPAA 145 (2000)), every division exact: it
    gives the standard coefficients psc_j, and s_j = eps_(p-j) psc_j with
    eps_i = (-1)^(i(i-1)/2) (Basu, Pollack and Roy, Algorithms in Real
    Algebraic Geometry, ch. 4 and 8).  s_(p-1), ..., s_q need no division;
    each later PRS member costs one pseudo-division, made when the entry
    below the last one yielded is read, so a caller that stops after s_j
    pays only for the members of degree >= j.  With b = a', the smallest
    j with s_j != 0 is deg gcd(a, a').
    """
    p, q = len(a) - 1, len(b) - 1
    yield from [0] * (p - 1 - q)
    s = b[-1] ** (p - q)
    yield s if (p - q) % 4 < 2 else -s
    if q == 0:
        return
    # prem(A, -B) = (-1)^(deg A - deg B + 1) prem(A, B): the sign of the
    # PRS's negated divisor goes into the exact divisor below
    A, B = b, _pseudo_rem(a, b)
    if (p - q) % 2 == 0:
        B = [-c for c in B]
    while B:
        d, e = len(A) - 1, len(B) - 1
        delta = d - e
        yield from [0] * (delta - 1)
        if delta > 1:
            # Lazard: S_e = lc(B)^(delta-1) B / s^(delta-1)
            num, den = B[-1] ** (delta - 1), s ** (delta - 1)
            C = [c * num // den for c in B]
        else:
            C = B
        yield C[-1] if (p - e) % 4 < 2 else -C[-1]
        if e == 0:
            return
        den = s ** delta * A[-1] if delta % 2 else -(s ** delta) * A[-1]
        B = [c // den for c in _pseudo_rem(A, B)]
        A, s = C, C[-1]
    yield from [0] * (len(A) - 1)


def _resultant_int(a, b) -> int:
    """Res(a, b) of int lists with nonzero leading coefficients."""
    n, m = len(a) - 1, len(b) - 1
    if n < m:
        return -_resultant_int(b, a) if n * m % 2 else _resultant_int(b, a)
    if m == 0:
        return b[0] ** n
    if n == m:
        # r = lc(a) b - lc(b) a has the value lc(a) b at every root of a,
        # so Res(a, r) = lc(a)^deg r Res(a, b)
        r = [a[-1] * y - b[-1] * x for x, y in zip(a, b)]
        while r and r[-1] == 0:
            r.pop()
        return _resultant_int(a, r) // a[-1] ** (len(r) - 1) if r else 0
    # the Sylvester matrix is the s_0 matrix with its b rows reversed; s_0
    # is the scan's last entry
    *_, s0 = _subresultant_scan(a, b)
    return s0 if n % 4 < 2 else -s0


def resultant(p: Poly, q: Poly) -> Rat:
    """Resultant of two rational polynomials (formal degrees = actual).

    With p = s * P and q = u * Q for primitive integer P, Q of degrees n
    and m, it is s^m u^n Res(P, Q), the last from the subresultant PRS
    over Z.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial")
    n, m = p.degree, q.degree
    if n == 0:
        return p.lc ** m
    if m == 0:
        return q.lc ** n
    (a, s), (b, u) = p.int_coeffs(), q.int_coeffs()
    return s ** m * u ** n * _resultant_int(a, b)
