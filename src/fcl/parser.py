"""Expression parser for rational functions of w.

Grammar (precedence ^ > unary minus > * / > + -, left associative):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' exponent)?
    atom   := INTEGER | 'w' | '(' expr ')'

Exponents must be nonnegative integer literals, or a parenthesized
expression whose value (by `eval_ratio`, so `(w/w)` and `(w-w+2)` count by
their values 1 and 2) is a nonnegative integer.  The AST is plain tuples;
evaluation produces a reduced num/den pair of polynomials.

Size limits, fixed: parentheses and unary minus nest at most MAX_DEPTH
levels, and the AST is at most MAX_DEPTH operators deep (a sum of
MAX_DEPTH + 2 terms is too deep); deeper input raises ParseError at the
token that crosses the bound, before any recursion can run out of stack.
A power whose result would exceed MAX_POWER_DEGREE in w or MAX_POWER_BITS
coefficient bits raises ParseError instead of running for minutes.
"""
from __future__ import annotations

from fractions import Fraction

from .classf import ClassF, RatFun, make_classf, make_ratfun
from .errors import InvalidRTransform, NotInClass, ParseError
from .exactalg import Poly, poly_gcd

MAX_DEPTH = 100
MAX_POWER_DEGREE = 256
MAX_POWER_BITS = 100_000


class _Tok:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind, self.value, self.pos = kind, value, pos


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", int(text[i:j]), i))
            i = j
        elif c == "w":
            toks.append(_Tok("w", "w", i))
            i += 1
        elif c in "+-*/^()":
            toks.append(_Tok(c, c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", position=i)
    toks.append(_Tok("end", None, n))
    return toks


def line_col(text: str, pos: int):
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


class _Parser:
    """Recursive descent; each rule returns (ast, depth in operators)."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.nesting = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        t = self.toks[self.i]
        if kind is not None and t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.kind!r}", position=t.pos)
        self.i += 1
        return t

    def enter(self, tok):
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"nested more than {MAX_DEPTH} levels deep", position=tok.pos)

    @staticmethod
    def node(tok, kind, *kids):
        depth = 1 + max(d for _, d in kids)
        if depth > MAX_DEPTH:
            raise ParseError(f"more than {MAX_DEPTH} operators deep", position=tok.pos)
        return (kind, *(a for a, _ in kids)), depth

    def parse(self):
        e, _ = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected {t.kind!r}", position=t.pos)
        return e

    def expr(self):
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            e = self.node(op, "add" if op.kind == "+" else "sub", e, self.term())
        return e

    def term(self):
        e = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            e = self.node(op, "mul" if op.kind == "*" else "div", e, self.unary())
        return e

    def unary(self):
        if self.peek().kind == "-":
            op = self.take()
            self.enter(op)
            e = self.node(op, "neg", self.unary())
            self.nesting -= 1
            return e
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            op = self.take()
            (kind, b), depth = self.node(op, "pow", base)
            return (kind, b, self.exponent()), depth
        return base

    def exponent(self):
        t = self.peek()
        if t.kind == "int":
            self.take()
            return t.value
        if t.kind == "(":
            self.take()
            self.enter(t)
            inner, _ = self.expr()
            self.take(")")
            self.nesting -= 1
            num, den = eval_ratio(inner)
            val = num.coeff(0)
            if num.degree > 0 or den.degree > 0 or val.denominator != 1 or val < 0:
                raise ParseError("exponent must be a nonnegative integer",
                                 position=t.pos)
            return int(val)
        raise ParseError("exponent must be a nonnegative integer", position=t.pos)

    def atom(self):
        t = self.take()
        if t.kind == "int":
            return ("num", Fraction(t.value)), 0
        if t.kind == "w":
            return ("w",), 0
        if t.kind == "(":
            self.enter(t)
            e = self.expr()
            self.take(")")
            self.nesting -= 1
            return e
        raise ParseError(f"unexpected {t.kind!r}", position=t.pos)


def parse_expr(text: str):
    """Parse to an AST; ParseError messages carry line and column."""
    try:
        return _Parser(text).parse()
    except ParseError as e:
        if e.position is not None:
            line, col = line_col(text, e.position)
            err = ParseError(f"{e.message} (line {line}, column {col})")
            err.message, err.position = e.message, e.position
            raise err from None
        raise


def _check_power(degree: int, bits: int, e: int):
    """Refuse a power of something of this degree and coefficient size
    whose result would pass MAX_POWER_DEGREE or MAX_POWER_BITS."""
    if degree * e > MAX_POWER_DEGREE or bits * e > MAX_POWER_BITS:
        raise ParseError(f"power too large: degree {degree} or {bits}-bit "
                         f"coefficients raised to {e}")


def eval_ratio(ast):
    """Reduced (num, den) polynomial pair for the expression value."""
    kind = ast[0]
    if kind == "num":
        return Poly.const(ast[1]), Poly.one()
    if kind == "w":
        return Poly.x(), Poly.one()
    if kind == "neg":
        n, d = eval_ratio(ast[1])
        return -n, d
    if kind == "pow":
        n, d = eval_ratio(ast[1])
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
                   for c in n.coeffs + d.coeffs)
        _check_power(max(n.degree, d.degree), bits, ast[2])
        return n ** ast[2], d ** ast[2]
    n1, d1 = eval_ratio(ast[1])
    n2, d2 = eval_ratio(ast[2])
    if kind == "add":
        n, d = n1 * d2 + n2 * d1, d1 * d2
    elif kind == "sub":
        n, d = n1 * d2 - n2 * d1, d1 * d2
    elif kind == "mul":
        n, d = n1 * n2, d1 * d2
    elif kind == "div":
        if n2.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        n, d = n1 * d2, d1 * n2
    else:
        raise ValueError(kind)
    if n.is_zero():
        return Poly.zero(), Poly.one()
    g = poly_gcd(n, d)
    if not g.is_constant():
        n, d = n.exact_div(g), d.exact_div(g)
    c = d.lc
    return n * (1 / c), d * (1 / c)


def to_classf(ast) -> ClassF:
    """Interpret the expression as a class member F = w P/Q."""
    num, den = eval_ratio(ast)
    if den(0) == 0:
        raise NotInClass("F must be finite at w = 0")
    if num.is_zero() or num(0) != 0:
        raise NotInClass("F(0) must be 0")
    return make_classf(Poly(num.coeffs[1:]), den)


def to_rtransform(ast) -> RatFun:
    """Interpret the expression as an R-transform (must vanish at 0)."""
    num, den = eval_ratio(ast)
    if den(0) == 0:
        raise InvalidRTransform("R must be finite at w = 0")
    if not num.is_zero() and num(0) != 0:
        raise InvalidRTransform("R(0) must be 0")
    return make_ratfun(num, den)


def print_expr(ast) -> str:
    """Render with minimal parentheses; reparsing yields the same AST."""
    def prec(a):
        return {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3,
                "pow": 4, "num": 5, "w": 5}[a[0]]

    def wrap(a, need):
        s = render(a)
        return f"({s})" if prec(a) < need else s

    def render(a):
        k = a[0]
        if k == "num":
            v = a[1]
            return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        if k == "w":
            return "w"
        if k == "neg":
            return "-" + wrap(a[1], 3)
        if k == "pow":
            return f"{wrap(a[1], 5)}^{a[2]}"
        if k == "add":
            return f"{wrap(a[1], 1)} + {wrap(a[2], 2)}"
        if k == "sub":
            return f"{wrap(a[1], 1)} - {wrap(a[2], 2)}"
        if k == "mul":
            return f"{wrap(a[1], 2)}*{wrap(a[2], 3)}"
        if k == "div":
            return f"{wrap(a[1], 2)}/{wrap(a[2], 3)}"
        raise ValueError(k)

    return render(ast)
