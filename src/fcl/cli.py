"""Command line front end.

Every library capability is reachable in one invocation.  Output is exact
by default (rationals as p/q strings); --json and --csv switch the shape,
--approx adds decimal renderings.  Exit codes: 0 success, 1 domain error,
2 usage/syntax error.

Each handler imports the fcl modules it uses, so one invocation loads
only what its subcommand needs.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import classf as cf
from . import oeis as oe
from .errors import FclError, ParseError
from .exactalg import Poly, rat_str
from .parser import MAX_POWER_BITS, _int_literal, parse_expr, to_classf, to_rtransform


def _frac(s: str) -> Fraction:
    """s as a rational: p/q or n 10^x, the forms `Fraction` reads, in ASCII
    digits (D: a digit run, `_` inside).  ParseError for any other s, and,
    before a larger int is built, past MAX_POWER_BITS bits: `_int_literal`
    bounds each digit run, and n 10^x with n != 0 and 3|x| > 2
    MAX_POWER_BITS passes 2^MAX_POWER_BITS."""
    m = re.fullmatch(r"(?ai)\s*([-+]?)(?=\.?\d)(D|)(?:/(D)|(?:\.(D|))?(?:e([-+]?)(D))?)\s*"
                     .replace("D", r"\d+(?:_\d+)*"), s)
    if m is None or m[3] is not None and not m[3].strip("0_"):
        raise ParseError(f"expected a rational number, got {s!r}")
    sign, p, q, f, esign, e = (g.replace("_", "") for g in m.groups(""))
    try:
        n, d = _int_literal(p + f, 0), _int_literal(q or "1", 0)
        x = _int_literal(e, 0) * (-1 if esign == "-" else 1) - len(f) if n else 0
        if 3 * abs(x) <= 2 * MAX_POWER_BITS:
            r = Fraction(n * 10 ** max(x, 0), d * 10 ** max(-x, 0))
            if max(r.numerator.bit_length(), r.denominator.bit_length()) <= MAX_POWER_BITS:
                return -r if sign == "-" else r
    except ParseError:
        pass
    raise ParseError(f"rational number past {MAX_POWER_BITS} bits, got {s!r}")


def _range(s: str):
    if ":" not in s:
        raise ParseError(f"expected lo:hi, got {s!r}")
    lo, hi = s.split(":", 1)
    return _frac(lo), _frac(hi)


def _f_from(args, attr="expr") -> cf.ClassF:
    ast = parse_expr(getattr(args, attr))
    if getattr(args, "from_r", False):
        f = cf.from_r(to_rtransform(ast))
    else:
        f = to_classf(ast)
    power = getattr(args, "power", None)
    if power is not None:
        f = cf.free_power(f, _frac(power))
    return f


def _classf_payload(f: cf.ClassF) -> dict:
    return {"P": [rat_str(c) for c in f.P.coeffs],
            "Q": [rat_str(c) for c in f.Q.coeffs],
            "pretty": repr(f)}


def _decimal(q: Fraction, digits: int) -> str:
    """q to `digits` significant digits, rounded half to even from the
    exact value (`_g_format`), at any magnitude; 0 is "0"."""
    return _g_format(q, digits) if q else "0"


def _g_format(q: Fraction, digits: int) -> str:
    """The nonzero q in the "g" form of `format` at `digits` significant
    digits, in integers: the digits m of |q| rounded half to even at its
    decimal exponent e, then fixed point when -4 <= e < digits, else
    scientific, with trailing zeros dropped."""
    p = max(digits, 1)
    n, d = abs(q.numerator), q.denominator
    e = len(str(n)) - len(str(d))    # 10^(e-1) < |q| < 10^(e+1)
    if n * 10 ** max(-e, 0) < d * 10 ** max(e, 0):
        e -= 1
    m = round(Fraction(n * 10 ** max(p - 1 - e, 0), d * 10 ** max(e - p + 1, 0)))
    if m == 10 ** p:
        m, e = m // 10, e + 1
    ds = str(m)
    if -4 <= e < p:
        text = ds[:e + 1] + "." + ds[e + 1:] if e >= 0 else "0." + "0" * (-e - 1) + ds
        text = text.rstrip("0").rstrip(".")
    else:
        text = (ds[0] + "." + ds[1:]).rstrip("0").rstrip(".") + f"e{e:+03d}"
    return "-" + text if q < 0 else text


def _exact(key: str, q, args) -> dict:
    """{key: q as p/q}, then key_approx: q to --approx digits when asked."""
    out = {key: rat_str(q)}
    if args.approx is not None:
        out[key + "_approx"] = _decimal(q, args.approx)
    return out


def _alg_payload(a, args) -> dict:
    """A rational as its value; an irrational as its defining polynomial
    and an isolating interval of --precision digits."""
    q = Fraction(a) if isinstance(a, (int, Fraction)) else a.as_fraction()
    if q is not None:
        return _exact("value", q, args)
    scale = 10 ** args.precision
    r = a.refined_to(Fraction(1, scale))
    # outward-rounded endpoints with tame denominators keep the enclosure
    lo = Fraction((r.lo * scale).__floor__(), scale)
    hi = Fraction((r.hi * scale).__ceil__(), scale)
    try:
        approx = float(r)
    except OverflowError:    # past the float range: 17 digits, as a string
        r1 = r.refined_to(1)
        approx = _g_format((r1.lo + r1.hi) / 2, 17)
    ints, _ = r.defining.int_coeffs()
    return {"defining": [str(c) for c in ints],
            "interval": [rat_str(lo), rat_str(hi)],
            "approx": approx}


def _poly_payload(p: Poly, var: str = "w") -> dict:
    return {"coeffs": [rat_str(c) for c in p.coeffs], "pretty": p.to_str(var)}


# ----------------------------------------------------------------------
# handlers: each returns its payload


# the largest --order any command takes.  Exact terms grow in size with
# the order, and the work faster: at 1000, `hankel` on a degree-2 R takes
# about 20 s and `moments` on a degree-2 F about 1 s (2-vCPU host,
# Python 3.11); at 3000 `moments` takes 30 s and `hankel` over a minute.
# Not so for fractional coefficients: `hankel "w*(1-w/3)/(1+w/7+w^2/5)"`
# (dilation c = 105) takes 1.0 s at order 60, 17 s at 100, > 10 min at 200
MAX_ORDER = 1000


def _order(args, what: str) -> int:
    """args.order, or ValueError (exit 1) when it is negative and FclError
    (exit 1) past MAX_ORDER; each handler reads it before computing."""
    if args.order < 0:
        raise ValueError(f"{what} order must be >= 0, got {args.order}")
    if args.order > MAX_ORDER:
        raise FclError(f"{what} order must be <= {MAX_ORDER}, got {args.order}")
    return args.order


def _cmd_moments(args):
    n = _order(args, "moment")
    m = cf.moments(_f_from(args), n)
    return {"s": [rat_str(t) for t in m.terms]}


def _cmd_cumulants(args):
    n = _order(args, "cumulant")
    r = cf.cumulants(_f_from(args), max(n, 1))
    return {"r": [rat_str(t) for t in r.terms]}


def _cmd_charpoly(args):
    return {"chi": _poly_payload(cf.char_poly(_f_from(args)))}


def _cmd_chart(args):
    from . import spectra as sp
    x = sp.char_poly_t(_f_from(args))
    return {"chi_t": {"w_coeffs": [[rat_str(c) for c in p.coeffs] for p in x.wcoeffs],
                      "pretty": x.to_str()}}


def _cmd_spectra_test(args):
    """rr0, rr and singular: the verdict of spectra.is_<command>."""
    from . import spectra as sp
    return {args.command: getattr(sp, "is_" + args.command)(_f_from(args))}


def _cmd_nset(args):
    from . import spectra as sp
    ns = sp.n_set(_f_from(args))
    return {"z_poly": _poly_payload(ns.z_poly, "z"),
            "real_members": [_alg_payload(r, args) for r in ns.real_members],
            "nonreal_pair_count": ns.nonreal_pair_count,
            "all_real": ns.all_real}


def _verdict_payload(hv, args, what: str = "a moment sequence") -> dict:
    det = _exact("determinant", hv.determinant, args) if hv.is_negative else {"determinant": None}
    return {"status": hv.status, "order": hv.order, **det,
            "minors": [rat_str(m) for m in hv.minors],
            "note": hv.describe(what)}


def _cmd_hankel(args):
    from . import posdef as pd
    n = _order(args, "Hankel")
    hv = pd.is_moment_positive_up_to(_f_from(args), n)
    return {"hankel": _verdict_payload(hv, args)}


def _cmd_fid(args):
    from . import posdef as pd
    n = _order(args, "Hankel")
    # a negative minor of the shifted cumulants rules out free infinite divisibility
    return {"fid": _verdict_payload(pd.fid_check(_f_from(args), n), args, "FID")}


# each class operation and its second operand: an F (expr2) or a rational
_CLASS_OPS = {"convolve": (cf.boxplus, "expr2"), "power": (cf.free_power, "t"),
              "compose": (cf.compose, "expr2"), "translate": (cf.translate, "u"),
              "dilate": (cf.dilate, "c")}


def _cmd_class_op(args):
    """F op G for the class operation the command names; F is built first."""
    op, operand = _CLASS_OPS[args.command]
    f = _f_from(args)
    g = _f_from(args, operand) if operand == "expr2" else _frac(getattr(args, operand))
    return _classf_payload(op(f, g))


def _scan_payload(rep, args) -> dict:
    """A critical scan's criticals with their kinds, and its rr0 verdicts."""
    return {"criticals": [dict(_alg_payload(c, args), kind=k)
                          for c, k in zip(rep.criticals, rep.kinds)],
            "rr0_verdicts": [v.value for v in rep.rr0_verdicts]}


def _cmd_criticals(args):
    from . import spectra as sp
    lo, hi = _range(args.range)
    rep = sp.critical_ts(_f_from(args), lo, hi)
    return {"range": [rat_str(lo), rat_str(hi)], **_scan_payload(rep, args),
            "samples": [rat_str(s) for s in rep.samples]}


def _cmd_density(args):
    from . import density as dens
    if args.grid < 2:
        raise ValueError(f"density grid needs >= 2 points, got {args.grid}")
    try:
        lo, hi = (float(b) for b in _range(args.range))
    except OverflowError:
        raise ValueError(f"--range bounds must fit a float, got {args.range}") from None
    table = dens.density_grid(_f_from(args), lo, hi, args.grid)
    rows = [{"x": x, "f": v} for x, v in table.rows()]
    return {"density": {"rows": rows, "mass_estimate": table.mass_estimate},
            "_csv": dens.density_csv(table)}


def _cmd_euler(args):
    from . import euler as eu
    if args.ck is not None:
        t_hi = _frac(args.ck)
        if t_hi <= 0:
            raise ValueError(f"--ck must be > 0, got {rat_str(t_hi)}")
        res = eu.ck_candidates(args.k, t_hi)
        cand = res["candidate"]
        return {"ck": dict(_scan_payload(res["report"], args),
                           candidate=None if cand is None else _alg_payload(cand, args))}
    out = {"k": args.k,
           "e_row": [rat_str(c) for c in eu.eulerian(args.k).coeffs],
           "e_tilde_row": [rat_str(c) for c in eu.eulerian_tilde(args.k).coeffs]}
    if args.k >= 1:
        out["nk_classf"] = _classf_payload(eu.nk_classf(args.k))
    return {"euler": out}


def _cmd_fuss(args):
    from . import distlib as dl
    order = _order(args, "moment")
    f = dl.fuss_f(args.r)
    ms = [rat_str(dl.fuss_moment(args.r, n)) for n in range(order + 1)]
    chi_ok = cf.char_poly(f) == dl.fuss_chi(args.r)
    return {"fuss": dict(_classf_payload(f), moments=ms, chi_check=chi_ok)}


# parameter count of each kind of `dist`, `deconv` and `monotone`
_DIST_ARITY = {"dirac": 1, "wigner": 1, "mp": 2}
_DECONV_ARITY = {"wmp": 2, "mpmp": 3}
_MONOTONE_ARITY = {"wmp": 3, "mpw": 3, "mpmp": 4, "ww": 2, "dirac-w": 2, "dirac-mp": 3}


def _params(args, arity: dict) -> list:
    """The kind's parameters as Fractions; ParseError on a wrong count."""
    want, got = arity[args.kind], len(args.params)
    if got != want:
        raise ParseError(f"{args.kind} takes {want} parameter{'s' * (want > 1)}, got {got}")
    return [_frac(p) for p in args.params]


def _cmd_dist(args):
    from . import distlib as dl
    ps = _params(args, _DIST_ARITY)
    f = {"dirac": dl.dirac, "wigner": dl.wigner, "mp": dl.mp}[args.kind](*ps)
    rt = cf.r_transform(f)
    return {"dist": dict(_classf_payload(f),
                         chi=_poly_payload(cf.char_poly(f)),
                         r_transform=repr(rt))}


def _cmd_deconv(args):
    from . import distlib as dl
    ps = _params(args, _DECONV_ARITY)
    rec = {"wmp": dl.deconv_wmp, "mpmp": dl.deconv_mpmp}[args.kind](*ps)
    return {"deconv": dict(_classf_payload(rec["f"]),
                           chi=_poly_payload(rec["chi"]),
                           chi_claimed=_poly_payload(rec["chi_claimed"]),
                           chi_factored_check=rec["chi_factored_check"])}


def _atom_payload(a, args) -> dict:
    if a.kind == "rpoly":
        return {"kind": a.kind, "r_part": a.params[0].to_str()}
    if a.kind == "rfun":
        return {"kind": a.kind, "r_part": repr(a.params[0])}
    return {"kind": a.kind,
            "params": [_alg_payload(p, args) for p in a.params]}


def _cmd_monotone(args):
    from . import distlib as dl
    ps = _params(args, _MONOTONE_ARITY)
    rec = dl.monotone_family(args.kind, *ps)
    out = dict(_classf_payload(rec["f"]))
    if "chi" in rec:
        out["chi"] = _poly_payload(rec["chi"])
        out["chi_check"] = rec["chi_check"]
    out["decomposition"] = [_atom_payload(a, args) for a in rec["decomposition"]]
    out["identity_check"] = rec["identity_check"]
    return {"monotone": out}


def _cmd_oeis_match(args):
    n = _order(args, "moment")
    cfg = _config_of(args)
    m = cf.moments(_f_from(args), n)
    hits = oe.match(m, min_overlap=args.min_overlap, fixtures=oe.load_fixtures(cfg))
    return {"matches": [{"a_number": a, "transform": t} for a, t in hits]}


def _cmd_oeis_fetch(args):
    cfg = _config_of(args)
    fx = oe.fetch(args.a_number, cfg)
    return {"fixture": {"a_number": fx.a_number, "offset": fx.offset,
                        "terms": [str(t) for t in fx.terms],
                        "source": fx.source, "note": fx.note}}


def _region_samples(args) -> int:
    """args.samples, or ValueError (exit 1) when it is below one."""
    if args.samples < 1:
        raise ValueError(f"region samples must be >= 1, got {args.samples}")
    return args.samples


def _cmd_region(args):
    if args.kind == "cg":
        rows = ["x,y,side"]
        n = _region_samples(args)
        for i in range(n + 1):
            u2 = Fraction(1, 6) + Fraction(i, n) * (Fraction(1, 2) - Fraction(1, 6))
            uf = float(u2) ** 0.5
            x = uf * (2 * float(u2) - 1)
            y = float(u2) * (1 - 3 * float(u2)) / 3
            rows.append(f"{x!r},{y!r},lower")
            rows.append(f"{-x!r},{y!r},lower")
        for i in range(n + 1):
            y = 1 / 36 + (1 / 4 - 1 / 36) * i / n
            inner = 6 * y * (y**0.5 - 2 * y)
            x = 2 * (inner ** 0.5) if inner > 0 else 0.0
            rows.append(f"{x!r},{y!r},upper")
            rows.append(f"{-x!r},{y!r},upper")
        return {"_csv": "\n".join(rows) + "\n", "region": "cg"}
    if args.kind == "lb":
        from . import spectra as sp
        pts = sp.lb_curve(_frac(args.b), args.samples)
        rows = ["c,d"] + [f"{float(c)!r},{float(d)!r}" for c, d in pts]
        return {"_csv": "\n".join(rows) + "\n", "region": "lb",
                "points": [[rat_str(c), rat_str(d)] for c, d in pts]}
    # deg3, the last of argparse's choices
    from . import spectra as sp
    rows = ["a,b,rr0"]
    n = _region_samples(args)
    for i in range(n + 1):
        a = Fraction(-4) + Fraction(8 * i, n)
        for j in range(n + 1):
            b = Fraction(-4) + Fraction(8 * j, n)
            rows.append(f"{float(a)!r},{float(b)!r},{int(sp.deg3_rr0(a, b, 1))}")
    return {"_csv": "\n".join(rows) + "\n", "region": "deg3"}


def _config_of(args):
    from .config import load_config
    return load_config({"fixtures": args.fixtures, "network": args.network,
                        "config": args.config})


# ----------------------------------------------------------------------


_LONG_OPTION = re.compile(r"--[A-Za-z][\w-]*(=.*)?", re.DOTALL)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reads "-w*(w-1)" or "-1/2" as a value, not an option.

    Plain argparse takes every token that starts with '-' for an option
    unless it is a bare negative number.  Here a token is an option only
    if it is a known option string or has the form --name[=value], so an
    unknown --name still gives a usage error.
    """

    def _parse_optional(self, arg_string):
        if arg_string in self._option_string_actions or _LONG_OPTION.fullmatch(arg_string):
            return super()._parse_optional(arg_string)
        return None


# name: (handler, takes an F expression, takes the oeis options,
#        [(argument name, add_argument keywords), ...])
_COMMANDS = {
    "moments": (_cmd_moments, True, False, [("--order", {"type": int, "default": 10})]),
    "cumulants": (_cmd_cumulants, True, False, [("--order", {"type": int, "default": 10})]),
    "charpoly": (_cmd_charpoly, True, False, []),
    "chart": (_cmd_chart, True, False, []),
    "rr0": (_cmd_spectra_test, True, False, []),
    "rr": (_cmd_spectra_test, True, False, []),
    "singular": (_cmd_spectra_test, True, False, []),
    "nset": (_cmd_nset, True, False, []),
    "hankel": (_cmd_hankel, True, False, [("--order", {"type": int, "default": 12})]),
    "fid": (_cmd_fid, True, False, [("--order", {"type": int, "default": 12})]),
    "convolve": (_cmd_class_op, True, False, [("expr2", {})]),
    "power": (_cmd_class_op, True, False, [("t", {})]),
    "compose": (_cmd_class_op, True, False, [("expr2", {"help": "inner F"})]),
    "translate": (_cmd_class_op, True, False, [("u", {})]),
    "dilate": (_cmd_class_op, True, False, [("c", {})]),
    "criticals": (_cmd_criticals, True, False, [("--range", {"required": True})]),
    "density": (_cmd_density, True, False, [("--range", {"required": True}),
                                            ("--grid", {"type": int, "default": 201})]),
    "euler": (_cmd_euler, False, False, [
        ("k", {"type": int}),
        ("--ck", {"default": None, "metavar": "T_HI",
                  "help": "scan (0, T_HI) for the threshold candidate"})]),
    "fuss": (_cmd_fuss, False, False, [("r", {"type": int}),
                                       ("--order", {"type": int, "default": 10})]),
    "dist": (_cmd_dist, False, False, [("kind", {"choices": list(_DIST_ARITY)}),
                                       ("params", {"nargs": "+"})]),
    "deconv": (_cmd_deconv, False, False, [("kind", {"choices": list(_DECONV_ARITY)}),
                                           ("params", {"nargs": "+"})]),
    "monotone": (_cmd_monotone, False, False, [("kind", {"choices": list(_MONOTONE_ARITY)}),
                                               ("params", {"nargs": "+"})]),
    "oeis-match": (_cmd_oeis_match, True, True, [("--order", {"type": int, "default": 12}),
                                                 ("--min-overlap", {"type": int, "default": 6})]),
    "oeis-fetch": (_cmd_oeis_fetch, False, True, [("a_number", {})]),
    "region": (_cmd_region, False, False, [("kind", {"choices": ["cg", "lb", "deg3"]}),
                                           ("--b", {"default": "1"}),
                                           ("--samples", {"type": int, "default": 64})]),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The fcl parser: every subcommand, or only `command` when it names one.

    A parser with one subcommand parses that subcommand's arguments as the
    full one does, and its usage line lists every command all the same.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument("--csv", action="store_true", help="emit CSV where tabular")
    common.add_argument("--approx", type=int, metavar="DIGITS", default=None,
                        help="add decimal approximations with this many digits")
    common.add_argument("--precision", type=int, default=50,
                        help="digits of printed isolating intervals")

    oeis_cfg = argparse.ArgumentParser(add_help=False)
    oeis_cfg.add_argument("--fixtures", default=None, help="extra fixture/cache directory")
    oeis_cfg.add_argument("--network", choices=["on", "off"], default=None)
    oeis_cfg.add_argument("--config", default=None, help="config file path")

    fexpr = argparse.ArgumentParser(add_help=False)
    fexpr.add_argument("expr", help="rational expression in w")
    fexpr.add_argument("--from-r", action="store_true",
                       help="treat the expression as an R-transform")
    fexpr.add_argument("--power", default=None, metavar="T",
                       help="apply the free power T before the operation")

    p = _ArgumentParser(prog="fcl", description="exact calculus on rational F-functions")
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # one subcommand alone still shows every command in the usage line
    metavar = None if len(names) > 1 else "{" + ",".join(_COMMANDS) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        fn, takes_f, takes_oeis, arguments = _COMMANDS[name]
        parents = [common] + [fexpr] * takes_f + [oeis_cfg] * takes_oeis
        s = sub.add_parser(name, parents=parents)
        s.set_defaults(fn=fn)
        for arg, kw in arguments:
            s.add_argument(arg, **kw)
    return p


def _check_digits(args):
    """ValueError (exit 1) when --approx or --precision is negative."""
    for opt in ("approx", "precision"):
        v = getattr(args, opt)
        if v is not None and v < 0:
            raise ValueError(f"--{opt} must be >= 0, got {v}")


def _render_text(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        # a non-empty dict or list value follows on its own lines one level
        # deeper; an empty one prints inline, as [] or {}
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        # each item starts with "-" at the list's indent; a non-empty dict
        # or list follows on its own lines one level deeper
        for v in obj:
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}-")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{obj}")
    return "\n".join(lines)


def main(argv=None) -> int:
    """Run one invocation and return its exit code.

    Exact numbers print at any length: Python's limit on int <-> str
    conversion, where it exists, is lifted for the call and restored after
    it.  The parser bounds the input (`parser.MAX_POWER_BITS`).
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the named subcommand's parser is built; --help, no arguments and
    # an unknown command get the full one
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        _check_digits(args)
        payload = args.fn(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FclError, ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    csv_text = payload.pop("_csv", None)
    try:
        if args.csv and csv_text is not None:
            sys.stdout.write(csv_text)
        elif args.json:
            print(json.dumps(payload, indent=1))
        else:
            print(_render_text(payload))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: what is left of stdout, and the flush at
        # exit, go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
