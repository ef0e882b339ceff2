"""Reference checks that share no code with fcl.

fcl objects are only read (coefficients, intervals, verdict strings); every
reference value is recomputed here with sympy, mpmath or plain integer and
Fraction arithmetic.  Each check returns None when the output is right and
a one-line reason when it is not.  Nothing here runs inside a timed region.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

from . import env

# ----------------------------------------------------------------------
# sympy helpers


@lru_cache(maxsize=None)
def _sym():
    import sympy
    return sympy, sympy.symbols("w t")


def _poly_w(coeffs, *gens):
    """sympy Poly over QQ from low-first rational coefficients, in gens[0]."""
    sympy, _ = _sym()
    pad = (0,) * (len(gens) - 1)
    terms = {(i,) + pad: _rat(c) for i, c in enumerate(coeffs) if c}
    return sympy.Poly.from_dict(terms or {(0,) + pad: 0}, *gens, domain="QQ")


def _from_q(x):
    return Fraction(int(x.p), int(x.q))


def _horner(cs_high_first, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in cs_high_first:
        acc = acc * x + c
    return acc


def _rat(x):
    sympy, _ = _sym()
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def chi_pencil(f, gens=None):
    """chi of the free power F_t = wP / (P + t (Q - P)), in (w, t).

    R_t = t R and R = w/F - 1 = Q/P - 1 give P_t = P, Q_t = P + t (Q - P);
    chi = (P_t + w P_t') Q_t - w P_t Q_t' is the numerator of F_t'.
    """
    sympy, (w, t) = _sym()
    gens = gens or (w, t)
    p = _poly_w(f.P.coeffs, *gens)
    q = _poly_w(f.Q.coeffs, *gens)
    W = sympy.Poly(gens[0], *gens, domain="QQ")
    T = sympy.Poly(gens[1], *gens, domain="QQ")
    qt = p + T * (q - p)
    return (p + W * p.diff(gens[0])) * qt - W * p * qt.diff(gens[0])


class Sturm:
    """Sturm sequence of a squarefree univariate sympy Poly, built once and
    evaluated in Fraction arithmetic."""

    def __init__(self, sq):
        self.poly = sq
        seq = sq.sturm() if sq.degree() > 0 else []
        self.seq = [[_from_q(c) for c in p.all_coeffs()] for p in seq]   # highest first

    @staticmethod
    def _variations(signs):
        signs = [s for s in signs if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def is_root(self, x) -> bool:
        return bool(self.seq) and _horner(self.seq[0], Fraction(x)) == 0

    def _at(self, x):
        values = [_horner(cs, x) for cs in self.seq]
        return self._variations([(v > 0) - (v < 0) for v in values])

    def _at_inf(self, side):
        return self._variations([(1 if cs[0] > 0 else -1) * (side if len(cs) % 2 == 0 else 1)
                                 for cs in self.seq])

    def count(self, lo=None, hi=None) -> int:
        """Distinct real roots in [lo, hi]; None means unbounded."""
        if not self.seq:
            return 0
        a = self._at_inf(-1) if lo is None else self._at(Fraction(lo))
        b = self._at_inf(1) if hi is None else self._at(Fraction(hi))
        return a - b + (lo is not None and self.is_root(lo))


def all_real(poly) -> bool:
    """Every complex root of a univariate sympy Poly is real (with multiplicity)."""
    if poly.degree() <= 0:
        return True
    _, factors = poly.sqf_list()
    return sum(m * Sturm(g).count() for g, m in factors) == poly.degree()


def _eliminant(m, wvar, pvar):
    """Squarefree resultant in pvar of m and dm/dw, with collapse artifacts
    of the leading coefficient removed; None when it vanishes identically.

    An artifact is a rational root of lc_w(m) at which the specialized
    polynomial has no multiple root: the generic Sylvester matrix loses
    rank there without a genuine double root.
    """
    sympy, _ = _sym()
    _, mz = m.clear_denoms(convert=True)
    res = mz.resultant(mz.diff(wvar))
    res = sympy.Poly(res.as_expr(), pvar, domain="QQ")
    if res.is_zero:
        return None, None
    sq = res.sqf_part()
    terms = m.as_dict()
    top = max(i for i, _ in terms)
    lc = sympy.Poly.from_dict({(j,): c for (i, j), c in terms.items() if i == top},
                              pvar, domain="QQ")
    taus = [] if lc.degree() <= 0 else list(sympy.roots(lc, filter="Q"))
    for tau in taus:
        if sq.degree() > 0 and sq.eval(tau) == 0 and not _genuine(m, wvar, pvar, tau):
            sq = sq.exquo(sympy.Poly(pvar - tau, pvar, domain="QQ"))
    return sq, taus


def _specialize(m, wvar, pvar, value):
    """m with pvar = value, as a Poly in wvar."""
    return m.eval(pvar, value)


def _genuine(m, wvar, pvar, value) -> bool:
    mt = _specialize(m, wvar, pvar, value)
    if mt.degree() <= 0:
        return False
    return mt.gcd(mt.diff(wvar)).degree() > 0


def _roots_in_open(st, lo, hi) -> int:
    return st.count(lo, hi) - st.is_root(lo) - st.is_root(hi)


def _isolates(st, lo, hi) -> bool:
    """[lo, hi] holds exactly one root of st.poly (or is a rational root of it)."""
    if lo == hi:
        return st.is_root(lo)
    return st.count(lo, hi) == 1


# ----------------------------------------------------------------------
# flow_scan


def check_critical_report(f, rep):
    sympy, (w, t) = _sym()
    t_lo, t_hi = Fraction(rep.t_lo), Fraction(rep.t_hi)
    chi, (_, mov) = chi_pencil(f), moving_pencil(f)
    sq, taus, expect = None, [], {}
    if mov.degree(w) > 0:
        sq, taus = _eliminant(mov, w, t)
        if sq is None:
            return "oracle eliminant in t vanished identically"
        st = Sturm(sq)
        expect["multiple_root"] = _roots_in_open(st, t_lo, t_hi)
        gdeg = mov.degree(w)
        for tau in taus:
            if not t_lo < _from_q(tau) < t_hi:
                continue
            if _specialize(mov, w, t, tau).degree() <= gdeg - 2:
                if sq.degree() > 0 and sq.eval(tau) == 0:
                    expect["multiple_root"] -= 1
                    expect["both"] = expect.get("both", 0) + 1
                else:
                    expect["degree_drop"] = expect.get("degree_drop", 0) + 1
    got = {}
    for k in rep.kinds:
        got[k] = got.get(k, 0) + 1
    expect = {k: v for k, v in expect.items() if v}
    if got != expect:
        return f"critical kinds {got}, oracle {expect}"
    for c, k in zip(rep.criticals, rep.kinds):
        if not t_lo <= c.lo <= c.hi <= t_hi:
            return f"critical interval [{c.lo}, {c.hi}] outside the range"
        if k in ("multiple_root", "both") and not _isolates(st, c.lo, c.hi):
            return f"critical [{c.lo}, {c.hi}] does not isolate an eliminant root"
        if k != "multiple_root" and not (c.lo == c.hi and c.lo in map(_from_q, taus)):
            return f"degree-drop critical {c.lo} is not a leading-coefficient root"
    for x, y in zip(rep.criticals, rep.criticals[1:]):
        if not x.hi < y.lo:
            return "critical intervals overlap or are out of order"
    if len(rep.samples) != len(rep.criticals) + 1 or len(rep.rr0_verdicts) != len(rep.samples):
        return "sample or verdict count does not match the criticals"
    for i, (s, v) in enumerate(zip(rep.samples, rep.rr0_verdicts)):
        lo, hi = (t_lo if i == 0 else rep.criticals[i - 1].hi,
                  t_hi if i == len(rep.criticals) else rep.criticals[i].lo)
        if not lo < s < hi:
            return f"sample {s} not strictly between criticals"
        want = "yes" if all_real(_specialize(chi, w, t, _rat(s))) else "no"
        if v.value != want:
            return f"rr0 at sample {s}: {v.value}, oracle {want}"
    return None


def check_n_set(f, ns):
    return check_z_locus(f.P.coeffs, f.Q.coeffs, ns.z_poly.degree,
                         [(a.lo, a.hi) for a in ns.real_members], ns.nonreal_pair_count)


def check_z_locus(pc, qc, z_degree, members, pairs):
    """n_set output against the resultant of wP - zQ and its w-derivative."""
    sympy, (w, z) = _sym()
    p = _poly_w(pc, w, z)
    q = _poly_w(qc, w, z)
    m = sympy.Poly(w, w, z, domain="QQ") * p - sympy.Poly(z, w, z, domain="QQ") * q
    sq, _ = _eliminant(m, w, z)
    if sq is None:
        return "oracle eliminant in z vanished identically"
    deg = max(sq.degree(), 0)
    if deg != max(z_degree, 0):
        return f"eliminant degree {z_degree}, oracle {deg}"
    st = Sturm(sq)
    real = st.count()
    if len(members) != real:
        return f"{len(members)} real members, oracle {real}"
    if pairs != (deg - real) // 2:
        return f"{pairs} non-real pairs, oracle {(deg - real) // 2}"
    for lo, hi in members:
        if not _isolates(st, lo, hi):
            return f"member [{lo}, {hi}] does not isolate an eliminant root"
    return None


# ----------------------------------------------------------------------
# algebraic_rr0

def _bisect_root(coeffs, lo: Fraction, hi: Fraction, bits: int) -> Fraction:
    """Midpoint of [lo, hi] narrowed to width 2^-bits around the sign change
    of the polynomial with low-first coefficients `coeffs`."""
    high_first = coeffs[::-1]

    def ev(x):
        return _horner(high_first, x)

    flo = ev(lo)
    if lo == hi or flo == 0:
        return lo
    width = Fraction(1, 1 << bits)
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = ev(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


def moving_pencil(f):
    """(g, M): chi_t = g(w) * M(w, t) with g = gcd of the two pencil parts."""
    sympy, (w, t) = _sym()
    chi = chi_pencil(f)
    a = chi.eval(t, 0)
    b = chi.diff(t).eval(t, 0)          # chi is linear in t
    g = a.gcd(b)

    def lift(p):
        return sympy.Poly.from_dict({(i, 0): c for (i,), c in p.as_dict().items()},
                                    w, t, domain="QQ")

    T = sympy.Poly(t, w, t, domain="QQ")
    return g, lift(a.exquo(g)) + T * lift(b.exquo(g))


def _real_root_split(coeffs_high_first, dps):
    """(real, non-real, ambiguous) root counts; |Im| is taken relative to
    max(1, |root|), real below 1e-4 and non-real above 1e-2 at double
    precision, and below 10^-(dps/3) / above 10^-(dps/6) with mpmath."""
    if dps is None:
        import numpy
        roots = numpy.roots([float(c) for c in coeffs_high_first])
        rel = [abs(r.imag) / max(1.0, abs(r)) for r in roots]
        lo, hi = 1e-4, 1e-2
    else:
        import mpmath
        with mpmath.workdps(dps):
            cs = [mpmath.mpf(c.numerator) / c.denominator for c in coeffs_high_first]
            try:
                roots = mpmath.polyroots(cs, maxsteps=50 * dps, extraprec=4 * dps)
            except mpmath.mp.NoConvergence:
                return 0, 0, len(cs) - 1
            rel = [float(abs(mpmath.im(r)) / max(1, abs(r))) for r in roots]
        lo, hi = 10.0 ** (-dps / 3), 10.0 ** (-dps / 6)
    real = sum(1 for x in rel if x < lo)
    nonreal = sum(1 for x in rel if x > hi)
    return real, nonreal, len(rel) - real - nonreal


def rr0_at_root(f, t0) -> str:
    """'yes' when chi_{t0} has only real roots, else 'no'.

    The t-independent factor g is decided exactly with sympy.  The moving
    part is evaluated at t0 located to 2^-200 by exact bisection of its
    defining polynomial and solved numerically.  At a critical the moving
    part has a double root, which the solver splits by up to about 1e-6 in
    double precision; genuinely non-real roots of these pencils sit orders
    of magnitude higher.  A root in the gap between is re-solved with
    mpmath at 60 digits, and 'inconclusive' is returned if it stays there.
    """
    sympy, (w, t) = _sym()
    g, mov = moving_pencil(f)
    if not all_real(g):
        return "no"
    tq = _bisect_root([Fraction(c) for c in t0.defining.coeffs],
                      Fraction(t0.lo), Fraction(t0.hi), 200)
    by_power = {}
    for (i, j), c in mov.as_dict().items():
        by_power[i] = by_power.get(i, 0) + _from_q(c) * tq ** j
    coeffs = [by_power.get(i, Fraction(0)) for i in range(mov.degree(w), -1, -1)]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) <= 2:
        return "yes"
    for dps in (None, 60):
        real, nonreal, unclear = _real_root_split(coeffs, dps)
        if nonreal:
            return "no"
        if not unclear:
            return "yes"
    return "inconclusive"


# ----------------------------------------------------------------------
# moment_hankel

_PRIMES = ((1 << 61) - 1, (1 << 89) - 1)


def _mod(x: Fraction, p: int):
    if x.denominator % p == 0:
        return None
    return x.numerator * pow(x.denominator, -1, p) % p


def _ser_mul_mod(a, b, n, p):
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def moments_satisfy_inverse(pc, qc, terms) -> bool:
    """D(z) = sum s_k z^(k+1) solves D P(D) = z Q(D) up to z^(n+1).

    F(w) = w P/Q is the compositional inverse of D; the identity is
    checked modulo two large primes (no denominator of these inputs is
    divisible by either).
    """
    n = len(terms) + 1
    for p in _PRIMES:
        vals = [_mod(Fraction(x), p) for x in list(terms) + list(pc) + list(qc)]
        if any(v is None for v in vals):
            return False
        s = vals[: len(terms)]
        pm = vals[len(terms): len(terms) + len(pc)]
        qm = vals[len(terms) + len(pc):]
        d = [0] + s                         # D = sum s_k z^(k+1)

        def horner(cs):
            acc = [0] * n
            for c in reversed(cs):
                acc = _ser_mul_mod(acc, d, n, p)
                acc[0] = (acc[0] + c) % p
            return acc

        lhs = _ser_mul_mod(d, horner(pm), n, p)
        rhs = [0] + horner(qm)[: n - 1]
        if lhs != rhs:
            return False
    return True


def _bareiss_int(m) -> int:
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def hankel_minors(seq, k_max):
    """Minors det(seq[i+j]) of orders 0..k_max, stopping after the first < 0."""
    seq = [Fraction(x) for x in seq]
    out = []
    for k in range(k_max + 1):
        window = seq[: 2 * k + 1]
        den = 1
        for x in window:
            den = den * x.denominator // math.gcd(den, x.denominator)
        ints = [x.numerator * (den // x.denominator) for x in window]
        d = Fraction(_bareiss_int([[ints[i + j] for j in range(k + 1)]
                                   for i in range(k + 1)]), den ** (k + 1))
        out.append(d)
        if d < 0:
            break
    return out


def _verdict_matches(hv, minors):
    neg = minors[-1] < 0
    if tuple(Fraction(x) for x in hv.minors) != tuple(minors):
        return "minors differ"
    if hv.status != ("negative_at" if neg else "positive_so_far"):
        return f"status {hv.status}"
    if neg and (hv.order != len(minors) - 1 or Fraction(hv.determinant) != minors[-1]):
        return "negative order or determinant differs"
    return None


def free_cumulants(pc, qc, n):
    """r_0..r_n with r_j = [w^j] (Q/P) for j >= 1 and r_0 = 0."""
    pc = [Fraction(c) for c in pc] + [Fraction(0)] * (n + 1)
    qc = [Fraction(c) for c in qc] + [Fraction(0)] * (n + 1)
    out = []
    for j in range(n + 1):
        acc = qc[j] - sum((pc[i] * out[j - i] for i in range(1, j + 1)), Fraction(0))
        out.append(acc / pc[0])
    out[0] = Fraction(0)
    return out


def closed_form_moments(closed, n):
    kind = closed[0]
    if kind == "wigner":
        t = Fraction(closed[1])
        return [Fraction(0) if k % 2 else Fraction(math.comb(k, k // 2), k // 2 + 1) * t ** (k // 2)
                for k in range(n + 1)]
    if kind == "mp":
        v, t = Fraction(closed[1]), Fraction(closed[2])
        out = [Fraction(1)]
        for k in range(1, n + 1):
            nar = sum((Fraction(math.comb(k, j) * math.comb(k, j - 1), k) * t ** j
                       for j in range(1, k + 1)), Fraction(0))
            out.append(v ** k * nar)
        return out
    if kind == "fuss":
        r = closed[1]
        return [Fraction(0) if k % 2 else
                Fraction(math.comb((k // 2) * 2 * r + r, k // 2) * r, (k // 2) * 2 * r + r)
                for k in range(n + 1)]
    raise ValueError(kind)


def check_moment_triple(f, closed, out, n, k):
    m, hv, fv = out
    terms = [Fraction(x) for x in m.terms]
    if len(terms) != n + 1 or terms[0] != 1:
        return "moment prefix has the wrong length or s_0 != 1"
    if closed is not None and terms != closed_form_moments(closed, n):
        return f"moments differ from the {closed[0]} closed form"
    if not moments_satisfy_inverse(f.P.coeffs, f.Q.coeffs, terms):
        return "moments do not invert F"
    why = _verdict_matches(hv, hankel_minors(terms[: 2 * k + 1], k))
    if why:
        return f"moment Hankel verdict: {why}"
    r = free_cumulants(f.P.coeffs, f.Q.coeffs, 2 * k + 2)
    why = _verdict_matches(fv, hankel_minors(r[2:], k))
    if why:
        return f"fid verdict: {why}"
    return None


# ----------------------------------------------------------------------
# cli_session: the README's documented outputs and the paper's constants


def _catalan(n):
    return [math.comb(2 * k, k) // (k + 1) for k in range(n)]


def _fixture_terms(a_number):
    path = env.SRC / "fcl" / "fixtures" / f"{a_number}.json"
    return [int(x) for x in json.loads(path.read_text())["terms"]]


def _rats(xs):
    return [Fraction(x) for x in xs]


def _chi_of(pc, qc):
    sympy, (w, _) = _sym()
    p = _poly_w(pc, w)
    q = _poly_w(qc, w)
    W = sympy.Poly(w, w, domain="QQ")
    return (p + W * p.diff(w)) * q - W * p * q.diff(w)


def _chi_normalized(pc, qc):
    chi = _chi_of(pc, qc)
    cs = [_from_q(c) for c in reversed(chi.all_coeffs())]
    return [c / cs[0] for c in cs]


def _f_of_r(num, den):
    """(P, Q) low-first with F = w / (1 + R), R = num/den, via sympy."""
    sympy, (w, _) = _sym()
    expr = sympy.cancel(w / (1 + num / den))
    nu, de = sympy.fraction(expr)
    pp = sympy.Poly(sympy.cancel(nu / w), w, domain="QQ")
    qq = sympy.Poly(de, w, domain="QQ")
    c = qq.eval(0)
    c = _from_q(c)
    return ([_from_q(x) / c for x in reversed(pp.all_coeffs())],
            [_from_q(x) / c for x in reversed(qq.all_coeffs())])


def _csv_rows(text, header):
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        return None
    return [line.split(",") for line in lines[1:]]


def check_cli(name, stdout):
    sympy, (w, _) = _sym()
    try:
        if name == "moments":
            got = [int(x) for x in json.loads(stdout)["s"]]
            if got != [1, 1, 2, 5, 14, 42] or got != _fixture_terms("A000108")[:6] \
                    or got != _catalan(6):
                return f"moments {got}"
        elif name == "hankel":
            m = hankel_minors(_moments_r_j_is_j(10), 5)
            if "status: negative_at" not in stdout or "order: 5" not in stdout \
                    or "determinant: -3374" not in stdout or m[-1] != -3374:
                return "hankel output is not negative_at(order=5, det=-3374)"
        elif name == "criticals":
            lines = [x.strip() for x in stdout.splitlines()]
            if "value: 1" not in lines or "kind: degree_drop" not in lines:
                return "critical t = 1 (degree_drop) missing"
            i = lines.index("rr0_verdicts:")
            if lines[i + 1: i + 3] != ["- yes", "- no"]:
                return "rr0 verdicts are not yes on (0,1), no on (1,3)"
        elif name == "charpoly":
            got = _rats(json.loads(stdout)["chi"]["coeffs"])
            p = [1, -2, 1]
            t = Fraction(27, 8)
            qt = [Fraction(a) + t * (Fraction(b) - Fraction(a)) for a, b in zip(p, [1, -1, 1])]
            if got != _chi_normalized(p, qt) or got != _rats(["1", "-4", "-3/4", "11/4", "1"]):
                return f"chi at t = 27/8: {got}"
        elif name == "nset":
            d = json.loads(stdout)
            members = []
            for m in d["real_members"]:
                lo, hi = _rats(m["interval"]) if "interval" in m else _rats([m["value"]] * 2)
                members.append((lo, hi))
            why = check_z_locus(_rats(["1", "-2", "2", "-1"]), _rats(["1"]),
                                len(d["z_poly"]["coeffs"]) - 1, members,
                                d["nonreal_pair_count"])
            if why:
                return why
        elif name == "euler":
            # C_2 is the positive root of 64 t^2 + 117 t - 3456, 6.491038...
            cand = json.loads(stdout)["ck"]["candidate"]
            lo, hi = _rats(cand["interval"])
            exact = (-117 + math.sqrt(117 ** 2 + 4 * 64 * 3456)) / 128
            eps = Fraction(1, 10 ** 9)
            if round(exact, 6) != 6.491038 or not lo - eps <= Fraction(exact) <= hi + eps:
                return f"C_2 candidate [{lo}, {hi}] is not 6.491038"
        elif name == "fuss":
            d = json.loads(stdout)["fuss"]
            got = _rats(d["moments"])
            if got != closed_form_moments(("fuss", 2), 10):
                return "Fuss moments differ from the closed form"
        elif name == "monotone":
            d = json.loads(stdout)["monotone"]
            f1 = w / (1 + w ** 2)
            comp = sympy.cancel(f1 / (1 + f1 ** 2))
            nu, de = sympy.fraction(comp)
            if (_rats(d["P"]), _rats(d["Q"])) != ([1, 0, 1], [1, 0, 3, 0, 1]) \
                    or sympy.expand(nu - w * (1 + w ** 2)) != 0 \
                    or sympy.expand(de - (1 + 3 * w ** 2 + w ** 4)) != 0:
                return "semicircle-into-semicircle composition differs"
            if not (d.get("chi_check") and d.get("identity_check")):
                return "monotone checks not reported true"
        elif name == "deconv":
            d = json.loads(stdout)["deconv"]
            u, x = 1, -1
            num = u ** 2 * x ** 3 * w ** 2 * (1 - u * w) + (1 - x) ** 3 * u * w
            pc, qc = _f_of_r(num, 1 - u * w)
            if (_rats(d["P"]), _rats(d["Q"])) != (pc, qc):
                return "deconvolution F differs"
            chi = _chi_normalized(pc, qc)
            claimed = sympy.Poly(sympy.expand((1 - u * x * w) ** 2
                                              * (1 - 2 * u * w + 2 * u * x * w - u ** 2 * x * w ** 2)), w)
            cl = [_from_q(c) for c in reversed(claimed.all_coeffs())]
            if _rats(d["chi"]["coeffs"]) != chi or chi != cl or not d["chi_factored_check"]:
                return "deconvolution chi differs from its factored form"
        elif name == "density":
            return _check_density(stdout)
        elif name == "region":
            rows = _csv_rows(stdout, "c,d")
            if rows is None or len(rows) != 65 or not all(
                    math.isfinite(float(c)) and math.isfinite(float(d)) for c, d in rows):
                return "region lb: expected 65 finite (c, d) rows"
        elif name == "oeis":
            got = {(m["a_number"], m["transform"]) for m in json.loads(stdout)["matches"]}
            if ("A000108", "identity") not in got or ("A168491", "signed") not in got:
                return f"oeis matches {sorted(got)}"
            cat = _catalan(17)
            if _fixture_terms("A000108") != cat:
                return "A000108 fixture is not the Catalan numbers"
        else:
            return f"no reference for CLI example {name!r}"
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"unparseable output: {e}"
    return None


def _moments_r_j_is_j(n):
    """Moments for R = w/(1-w)^2 (the README hankel example): free
    cumulants r_j = j through M(z) = 1 + sum_j r_j z^j M(z)^j."""
    r = [0] + list(range(1, n + 1))
    s = [Fraction(1)] + [Fraction(0)] * n
    # s_m = sum_j r_j * [z^(m-j)] M(z)^j with M = sum s_k z^k
    for m in range(1, n + 1):
        total = Fraction(0)
        powj = [Fraction(1)] + [Fraction(0)] * n       # M^0
        for j in range(1, m + 1):
            powj = [sum((powj[i] * s[k - i] for i in range(k + 1)), Fraction(0))
                    for k in range(n + 1)]
            total += r[j] * powj[m - j]
        s[m] = total
    return s


def _check_density(stdout):
    """Symmetry, non-negativity, unit mass, and agreement with the
    Stieltjes inversion of the cubic zeta w P(w) - Q(w) = 0 by mpmath."""
    import mpmath
    rows = _csv_rows(stdout, "x,f")
    if rows is None or len(rows) != 201:
        return "density: expected 201 rows"
    xs = [float(x) for x, _ in rows]
    fs = [float(v) if v else None for _, v in rows]
    if any(v is None for v in fs):
        return "density has continuation gaps"
    if any(v < 0 for v in fs):
        return "density is negative somewhere"
    if any(abs(a - b) > 1e-9 for a, b in zip(fs, reversed(fs))):
        return "density of a symmetric law is not symmetric"
    mass = sum(0.5 * (a + b) * (x1 - x0) for (x0, a), (x1, b)
               in zip(zip(xs, fs), zip(xs[1:], fs[1:])))
    if abs(mass - 1) > 0.02:
        return f"density mass {mass}"
    # G(zeta) = D(1/zeta) with F(D) = 1/zeta: zeta w P(w) - Q(w) = 0 for
    # P = 1 + w^2, Q = 1 + 9 w^2; the boundary value has Im w < 0.
    checked = 0
    with mpmath.workdps(40):
        for x, v in list(zip(xs, fs))[::10]:
            zeta = mpmath.mpc(x, mpmath.mpf(10) ** -25)
            roots = mpmath.polyroots([zeta, -9, zeta, -1], maxsteps=200, extraprec=100)
            lower = [r for r in roots if mpmath.im(r) < -mpmath.mpf(10) ** -12]
            if len(lower) != 1:
                continue
            ref = float(-mpmath.im(lower[0]) / mpmath.pi)
            if abs(ref - v) > 1e-6 * max(1.0, abs(ref)):
                return f"density at {x}: {v}, reference {ref}"
            checked += 1
    if checked < 5:
        return "density: too few points with an unambiguous reference branch"
    return None
