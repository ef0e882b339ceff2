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
from .parser import parse_expr, to_classf, to_rtransform


def _frac(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"expected a rational number, got {s!r}") from e


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


def _alg_payload(a, digits: int) -> dict:
    if isinstance(a, (int, Fraction)):
        return {"value": rat_str(Fraction(a))}
    q = a.as_fraction()
    if q is not None:
        return {"value": rat_str(q)}
    scale = 10 ** digits
    r = a.refined_to(Fraction(1, scale))
    # outward-rounded endpoints with tame denominators keep the enclosure
    lo = Fraction((r.lo * scale).__floor__(), scale)
    hi = Fraction((r.hi * scale).__ceil__(), scale)
    ints, _ = r.defining.int_coeffs()
    return {"defining": [str(c) for c in ints],
            "interval": [rat_str(lo), rat_str(hi)],
            "approx": float(r)}


def _poly_payload(p: Poly) -> dict:
    return {"coeffs": [rat_str(c) for c in p.coeffs], "pretty": p.to_str()}


# ----------------------------------------------------------------------
# handlers: each returns (payload, exit_code)


def _order(args, what: str) -> int:
    """args.order, or ValueError (exit 1) when it is negative."""
    if args.order < 0:
        raise ValueError(f"{what} order must be >= 0, got {args.order}")
    return args.order


def _cmd_moments(args):
    f = _f_from(args)
    m = cf.moments(f, _order(args, "moment"))
    return {"s": [rat_str(t) for t in m.terms]}, 0


def _cmd_cumulants(args):
    f = _f_from(args)
    r = cf.cumulants(f, max(_order(args, "cumulant"), 1))
    return {"r": [rat_str(t) for t in r.terms]}, 0


def _cmd_charpoly(args):
    return {"chi": _poly_payload(cf.char_poly(_f_from(args)))}, 0


def _cmd_chart(args):
    from . import spectra as sp
    x = sp.char_poly_t(_f_from(args))
    return {"chi_t": {"w_coeffs": [[rat_str(c) for c in p.coeffs] for p in x.wcoeffs],
                      "pretty": x.to_str()}}, 0


def _cmd_rr0(args):
    from . import spectra as sp
    return {"rr0": sp.is_rr0(_f_from(args))}, 0


def _cmd_rr(args):
    from . import spectra as sp
    return {"rr": sp.is_rr(_f_from(args))}, 0


def _cmd_singular(args):
    from . import spectra as sp
    return {"singular": sp.is_singular(_f_from(args))}, 0


def _cmd_nset(args):
    from . import spectra as sp
    ns = sp.n_set(_f_from(args))
    return {"z_poly": _poly_payload(ns.z_poly),
            "real_members": [_alg_payload(r, args.precision) for r in ns.real_members],
            "nonreal_pair_count": ns.nonreal_pair_count,
            "all_real": ns.all_real}, 0


def _verdict_payload(hv, what: str = "a moment sequence") -> dict:
    return {"status": hv.status, "order": hv.order,
            "determinant": rat_str(hv.determinant) if hv.is_negative else None,
            "minors": [rat_str(m) for m in hv.minors],
            "note": hv.describe(what)}


def _cmd_hankel(args):
    from . import posdef as pd
    return {"hankel": _verdict_payload(pd.is_moment_positive_up_to(_f_from(args), args.order))}, 0


def _cmd_fid(args):
    from . import posdef as pd
    # a negative minor of the shifted cumulants rules out free infinite divisibility
    return {"fid": _verdict_payload(pd.fid_check(_f_from(args), args.order), "FID")}, 0


def _cmd_convolve(args):
    f1, f2 = _f_from(args, "expr"), _f_from(args, "expr2")
    return _classf_payload(cf.boxplus(f1, f2)), 0


def _cmd_power(args):
    return _classf_payload(cf.free_power(_f_from(args), _frac(args.t))), 0


def _cmd_compose(args):
    outer, inner = _f_from(args, "expr"), _f_from(args, "expr2")
    return _classf_payload(cf.compose(outer, inner)), 0


def _cmd_translate(args):
    return _classf_payload(cf.translate(_f_from(args), _frac(args.u))), 0


def _cmd_dilate(args):
    return _classf_payload(cf.dilate(_f_from(args), _frac(args.c))), 0


def _cmd_criticals(args):
    from . import spectra as sp
    lo, hi = _range(args.range)
    rep = sp.critical_ts(_f_from(args), lo, hi)
    return {"range": [rat_str(lo), rat_str(hi)],
            "criticals": [dict(_alg_payload(c, args.precision), kind=k)
                          for c, k in zip(rep.criticals, rep.kinds)],
            "rr0_verdicts": [v.value for v in rep.rr0_verdicts],
            "samples": [rat_str(s) for s in rep.samples]}, 0


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
            "_csv": dens.density_csv(table)}, 0


def _cmd_euler(args):
    from . import euler as eu
    if args.ck is not None:
        t_hi = _frac(args.ck)
        if t_hi <= 0:
            raise ValueError(f"--ck must be > 0, got {rat_str(t_hi)}")
        res = eu.ck_candidates(args.k, t_hi)
        rep = res["report"]
        payload = {
            "criticals": [dict(_alg_payload(c, args.precision), kind=k)
                          for c, k in zip(rep.criticals, rep.kinds)],
            "rr0_verdicts": [v.value for v in rep.rr0_verdicts],
            "candidate": None if res["candidate"] is None
            else _alg_payload(res["candidate"], args.precision)}
        return {"ck": payload}, 0
    tab = eu.euler_table(args.k)
    f = eu.nk_classf(args.k) if args.k >= 1 else None
    out = {"k": args.k,
           "e_row": [rat_str(c) for c in tab.e_row],
           "e_tilde_row": [rat_str(c) for c in tab.e_tilde_row]}
    if f is not None:
        out["nk_classf"] = _classf_payload(f)
    return {"euler": out}, 0


def _cmd_fuss(args):
    from . import distlib as dl
    f = dl.fuss_f(args.r)
    ms = [rat_str(dl.fuss_moment(args.r, n)) for n in range(_order(args, "moment") + 1)]
    chi_ok = cf.char_poly(f) == dl.fuss_chi(args.r)
    return {"fuss": dict(_classf_payload(f), moments=ms, chi_check=chi_ok)}, 0


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
                         r_transform=repr(rt))}, 0


def _cmd_deconv(args):
    from . import distlib as dl
    ps = _params(args, _DECONV_ARITY)
    rec = {"wmp": dl.deconv_wmp, "mpmp": dl.deconv_mpmp}[args.kind](*ps)
    return {"deconv": dict(_classf_payload(rec["f"]),
                           chi=_poly_payload(rec["chi"]),
                           chi_claimed=_poly_payload(rec["chi_claimed"]),
                           chi_factored_check=rec["chi_factored_check"])}, 0


def _atom_payload(a, digits: int) -> dict:
    if a.kind in ("rpoly",):
        return {"kind": a.kind, "r_part": a.params[0].to_str()}
    if a.kind == "rfun":
        return {"kind": a.kind, "r_part": repr(a.params[0])}
    return {"kind": a.kind,
            "params": [_alg_payload(p, digits) for p in a.params]}


def _cmd_monotone(args):
    from . import distlib as dl
    ps = _params(args, _MONOTONE_ARITY)
    if args.kind.startswith("dirac-"):
        target = "wigner" if args.kind == "dirac-w" else "mp"
        rec = dl.dirac_monotone(ps[0], target, *ps[1:])
    else:
        rec = dl.monotone_family(args.kind, *ps)
    out = dict(_classf_payload(rec["f"]))
    if "chi" in rec:
        out["chi"] = _poly_payload(rec["chi"])
        out["chi_check"] = rec["chi_check"]
    out["decomposition"] = [_atom_payload(a, args.precision) for a in rec["decomposition"]]
    out["identity_check"] = rec["identity_check"]
    return {"monotone": out}, 0


def _cmd_oeis_match(args):
    cfg = _config_of(args)
    f = _f_from(args)
    m = cf.moments(f, _order(args, "moment"))
    hits = oe.match(m, min_overlap=args.min_overlap, fixtures=oe.load_fixtures(cfg))
    return {"matches": [{"a_number": a, "transform": t} for a, t in hits]}, 0


def _cmd_oeis_fetch(args):
    cfg = _config_of(args)
    fx = oe.fetch(args.a_number, cfg)
    return {"fixture": {"a_number": fx.a_number, "offset": fx.offset,
                        "terms": [str(t) for t in fx.terms],
                        "source": fx.source, "note": fx.note}}, 0


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
        return {"_csv": "\n".join(rows) + "\n", "region": "cg"}, 0
    if args.kind == "lb":
        from . import spectra as sp
        pts = sp.lb_curve(_frac(args.b), args.samples)
        rows = ["c,d"] + [f"{float(c)!r},{float(d)!r}" for c, d in pts]
        return {"_csv": "\n".join(rows) + "\n", "region": "lb",
                "points": [[rat_str(c), rat_str(d)] for c, d in pts]}, 0
    if args.kind == "deg3":
        from . import spectra as sp
        rows = ["a,b,rr0"]
        n = _region_samples(args)
        for i in range(n + 1):
            a = Fraction(-4) + Fraction(8 * i, n)
            for j in range(n + 1):
                b = Fraction(-4) + Fraction(8 * j, n)
                rows.append(f"{float(a)!r},{float(b)!r},{int(sp.deg3_rr0(a, b, 1))}")
        return {"_csv": "\n".join(rows) + "\n", "region": "deg3"}, 0
    raise ParseError(f"unknown region {args.kind!r}")


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
    "rr0": (_cmd_rr0, True, False, []),
    "rr": (_cmd_rr, True, False, []),
    "singular": (_cmd_singular, True, False, []),
    "nset": (_cmd_nset, True, False, []),
    "hankel": (_cmd_hankel, True, False, [("--order", {"type": int, "default": 12})]),
    "fid": (_cmd_fid, True, False, [("--order", {"type": int, "default": 12})]),
    "convolve": (_cmd_convolve, True, False, [("expr2", {})]),
    "power": (_cmd_power, True, False, [("t", {})]),
    "compose": (_cmd_compose, True, False, [("expr2", {"help": "inner F"})]),
    "translate": (_cmd_translate, True, False, [("u", {})]),
    "dilate": (_cmd_dilate, True, False, [("c", {})]),
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


def _approximate(obj, digits):
    """Recursively add float renderings next to exact strings."""
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out[k] = _approximate(v, digits)
            if k in ("value", "determinant") and isinstance(v, str) and v:
                try:
                    q = Fraction(v)
                except ValueError:  # not a rational
                    continue
                out[k + "_approx"] = f"{float(q):.{digits}g}"
        return out
    if isinstance(obj, list):
        return [_approximate(v, digits) for v in obj]
    return obj


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
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the named subcommand's parser is built; --help, no arguments and
    # an unknown command get the full one
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        _check_digits(args)
        payload, code = args.fn(args)
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
        else:
            if args.approx is not None:
                payload = _approximate(payload, args.approx)
            if args.json:
                print(json.dumps(payload, indent=1))
            else:
                print(_render_text(payload))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: what is left of stdout, and the flush at
        # exit, go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
