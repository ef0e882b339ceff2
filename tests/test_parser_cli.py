import contextlib
import io
import json
import os
import re
import shlex
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcl.classf import ClassF
from fcl.cli import _COMMANDS, MAX_ORDER, _decimal, build_parser, main
from fcl.config import load_config
from fcl.errors import FclError, InvalidRTransform, NotInClass, ParseError
from fcl.exactalg import Poly
from fcl.parser import (MAX_DEPTH, eval_ratio, parse_expr, print_expr,
                        to_classf, to_rtransform)

w = Poly.x()


# ------------------------------------------------------------------ parser


def test_parse_examples():
    f = to_classf(parse_expr("w - w^2"))
    assert f == ClassF(Poly([1, -1]), Poly.one())
    f2 = to_classf(parse_expr("w*(1-w)/(1+w)^3"))
    assert f2 == ClassF(Poly([1, -1]), (1 + w) ** 3)
    f3 = to_classf(parse_expr("w*(1-w)^2/(1-w+w^2)"))
    assert f3 == ClassF((1 - w) ** 2, Poly([1, -1, 1]))


def test_parse_precedence():
    # ^ binds tighter than unary minus; * tighter than +
    assert eval_ratio(parse_expr("-w^2"))[0] == -(w**2)
    assert eval_ratio(parse_expr("1 - 2*w^2"))[0] == Poly([1, 0, -2])
    assert eval_ratio(parse_expr("(1-w)^2"))[0] == (1 - w) ** 2
    assert eval_ratio(parse_expr("2/4"))[0] == Poly.const(F(1, 2))
    # left associativity
    assert eval_ratio(parse_expr("8/2/2"))[0] == Poly.const(2)
    assert eval_ratio(parse_expr("1 - 1 - 1"))[0] == Poly.const(-1)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as ei:
        parse_expr("w^(1/2)")
    assert "exponent" in str(ei.value)
    assert "line 1" in str(ei.value)
    with pytest.raises(ParseError):
        parse_expr("w +")
    with pytest.raises(ParseError):
        parse_expr("x + 1")
    with pytest.raises(ParseError):
        parse_expr("w^-1")
    with pytest.raises(ParseError):
        parse_expr("(w")


def test_parse_depth_bound():
    # the bound itself parses; one level more is a ParseError at the token
    # that crosses it, not a RecursionError
    assert parse_expr("(" * MAX_DEPTH + "w" + ")" * MAX_DEPTH) == ("w",)
    assert parse_expr("-" * MAX_DEPTH + "w")[0] == "neg"
    assert parse_expr("+".join(["w"] * (MAX_DEPTH + 1)))[0] == "add"
    for text, col in (("(" * (MAX_DEPTH + 1) + "w" + ")" * (MAX_DEPTH + 1), MAX_DEPTH + 1),
                      ("-" * 2000 + "w", MAX_DEPTH + 1),
                      ("+".join(["w"] * 3000), 2 * MAX_DEPTH + 2),
                      ("w^(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1), 3 * MAX_DEPTH + 3)):
        with pytest.raises(ParseError) as ei:
            parse_expr(text)
        assert f"column {col})" in str(ei.value)


def test_parse_power_bound():
    for text in ("w^(((3^3)^3)^3)", "3^(((3^3)^3)^3)", "((3^1000)^1000)^1000",
                 "(1 + w)^257"):
        with pytest.raises(ParseError, match="power too large"):
            eval_ratio(parse_expr(text))
    assert eval_ratio(parse_expr("(1 + w)^256"))[0].degree == 256


def test_parse_zero_division():
    with pytest.raises(ZeroDivisionError):
        eval_ratio(parse_expr("1/(w - w)"))


def test_parenthesized_exponent_is_taken_by_its_value(monkeypatch):
    # the exponent is evaluated by eval_ratio, so w may cancel in it
    assert eval_ratio(parse_expr("w^(w/w)")) == (w, Poly.one())
    assert eval_ratio(parse_expr("w^(w-w+2)")) == (w**2, Poly.one())
    for text in ("w^(w)", "w^(1/2)", "w^(-1)", "w^(w^2/w)"):
        with pytest.raises(ParseError, match="exponent must be a nonnegative integer"):
            parse_expr(text)
    with pytest.raises(ZeroDivisionError, match="division by the zero polynomial"):
        parse_expr("w^(1/0)")
    # 2^(10^6) is refused before any power that large is taken
    exponents = []
    power = Poly.__pow__
    monkeypatch.setattr(Poly, "__pow__", lambda p, n: exponents.append(n) or power(p, n))
    with pytest.raises(ParseError, match="power too large"):
        parse_expr("w^(2^(10^6))")
    assert set(exponents) == {6}  # 10^6, numerator and denominator


def test_to_classf_errors():
    with pytest.raises(NotInClass):
        to_classf(parse_expr("1 + w"))     # F(0) != 0
    with pytest.raises(NotInClass):
        to_classf(parse_expr("2*w"))       # F'(0) != 1
    with pytest.raises(NotInClass):
        to_classf(parse_expr("w/(w*(1-w))"))  # pole at 0 after reduction? -> 1/(1-w), F(0) != 0
    with pytest.raises(NotInClass):
        to_classf(parse_expr("w^2"))


def test_to_rtransform():
    r = to_rtransform(parse_expr("w/(1-w)^2"))
    assert r.num == w and r.den == (1 - w) ** 2
    with pytest.raises(InvalidRTransform):
        to_rtransform(parse_expr("1 + w"))


def test_print_parse_roundtrip():
    corpus = [
        "w - w^2",
        "w*(1-w)/(1+w)^3",
        "w*(1-w)^2/(1-w+w^2)",
        "1 - 2*w + 2*w^2",
        "-w^2 + 3/4",
        "w*(1+2*w)*(1+3*w+6*w^2)",
        "(1-w)/(1+w)/(1-2*w)",
        "1 - (2 - w)",
        "w/-2",
    ]
    for text in corpus:
        ast = parse_expr(text)
        assert parse_expr(print_expr(ast)) == ast, text


# ------------------------------------------------------------------ config


def test_config_precedence(tmp_path, monkeypatch):
    cfg_file = tmp_path / "fcl.conf"
    cfg_file.write_text("network = on\nfixtures = from_file\n# comment\n")
    env = {"FCL_CONFIG": str(cfg_file)}
    c = load_config({}, env=env)
    assert c.network is True and c.fixtures_path == Path("from_file")
    c2 = load_config({"network": "off"}, env=env)
    assert c2.network is False
    env2 = dict(env, FCL_FIXTURES="from_env")
    assert load_config({}, env=env2).fixtures_path == Path("from_env")
    assert load_config({"fixtures": "from_flag"}, env=env2).fixtures_path == Path("from_flag")
    assert load_config({}, env={}).network is False


def test_config_bad_file(tmp_path):
    bad = tmp_path / "c.conf"
    bad.write_text("just words\n")
    with pytest.raises(ValueError):
        load_config({"config": str(bad)})


# --------------------------------------------------------------------- cli


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _cli_quiet(*argv):
    """Exit code and stderr of one call; argparse's usage errors exit 2."""
    code, _, err = _cli_all(*argv)
    return code, err


def _cli_all(*argv):
    """Exit code, stdout and stderr of one call that may exit through argparse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


_DEEP = ("(" * 200 + "w" + ")" * 200, "-" * 2000 + " w", "+".join(["w"] * 3000))


def test_cli_deep_input_exits_2():
    for text in _DEEP:
        code, err = _cli_quiet("moments", text)
        assert code == 2 and err.startswith("error:") and "Traceback" not in err


# tokens joined with or without spaces: the unspaced joins put expressions
# such as "-w*(w-1)" or "--w" where argparse looks for options
@settings(deadline=None)
@given(st.tuples(st.sampled_from((" ", "")),
                 st.lists(st.sampled_from("w 0 1 2 3 + - * / ^ ( )".split()), max_size=20))
       .map(lambda t: t[0].join(t[1])))
@example(_DEEP[0])
@example(_DEEP[1])
@example(_DEEP[2])
@example("-w*(w-1)")
@example("--w")
@example("--")
def test_cli_fuzz_exits_cleanly(text):
    code, err = _cli_quiet("moments", text, "--order", "3")
    assert code in (0, 1, 2)
    assert code == 0 or "error:" in err


def test_cli_values_with_leading_minus(capsys):
    code, out, _ = run_cli(capsys, "moments", "-w*(w-1)", "--order", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"s": ["1", "1", "2", "5"]}
    code, out, _ = run_cli(capsys, "moments", "--order=3", "-w*(w-1)", "--json")
    assert json.loads(out) == {"s": ["1", "1", "2", "5"]}
    # the same results as the spellings argparse always let through
    for argv, accepted in ((("power", "w*(1-w^2)", "-1/2"), ("power", "w*(1-w^2)", " -1/2")),
                           (("density", "w - w^2", "--range", "-1:1", "--grid", "3"),
                            ("density", "w - w^2", "--range=-1:1", "--grid", "3"))):
        result = run_cli(capsys, *argv)
        assert result[0] == 0 and result == run_cli(capsys, *accepted)


def test_cli_unknown_option_is_a_usage_error():
    for argv in (("moments", "w - w^2", "--bogus"), ("moments", "--bogus"),
                 ("--bogus", "moments", "w - w^2"),
                 # the ε schedule is gone: density solves at ε = 0 directly
                 ("density", "w - w^2", "--range=-1:1", "--eps", "1e-3")):
        code, err = _cli_quiet(*argv)
        assert code == 2 and "error:" in err


def _commands(parser):
    """The parser's subcommand parsers by name."""
    return next(a for a in parser._actions if a.dest == "command").choices


def test_cli_help_lists_every_command():
    code, out, _ = _cli_all("--help")
    assert code == 0 and len(_COMMANDS) == 25
    listed = out.split("{", 1)[1].split("}", 1)[0].split(",")
    assert listed == list(_COMMANDS)


def test_cli_unknown_command_exits_2():
    for argv in (("nosuch",), ("nosuch", "w"), ()):
        code, out, err = _cli_all(*argv)
        assert code == 2 and out == "" and "error:" in err
    # the full parser answers, so every command is offered
    assert all(name in _cli_all("nosuch")[2] for name in _COMMANDS)


def test_cli_subcommand_help_exits_0():
    code, out, _ = _cli_all("moments", "--help")
    assert code == 0 and out.startswith("usage: fcl moments")
    assert "--order" in out and "--from-r" in out


def test_build_parser_one_command_matches_the_full_parser():
    full = build_parser()
    assert list(_commands(full)) == list(_COMMANDS)
    for name in _COMMANDS:
        one = build_parser(name)
        assert list(_commands(one)) == [name]
        assert _commands(one)[name].format_help() == _commands(full)[name].format_help()
        assert one.format_usage() == full.format_usage()
    for argv in (["moments", "-w*(w-1)", "--order", "3", "--json"],
                 ["density", "w", "--range=-2:2", "--grid", "5"],
                 ["oeis-match", "w", "--network", "off"], ["euler", "2", "--ck", "10"],
                 ["region", "lb", "--samples", "3"]):
        assert vars(build_parser(argv[0]).parse_args(argv)) == vars(full.parse_args(argv))


def test_cli_moments_json(capsys):
    code, out, _ = run_cli(capsys, "moments", "w - w^2", "--order", "5", "--json")
    assert code == 0
    assert json.loads(out) == {"s": ["1", "1", "2", "5", "14", "42"]}


def test_cli_hankel_from_r(capsys):
    code, out, _ = run_cli(capsys, "hankel", "--from-r", "w/(1-w)^2",
                           "--order", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["hankel"]["status"] == "negative_at"
    assert data["hankel"]["order"] == 5
    assert data["hankel"]["determinant"] == "-3374"


def test_cli_criticals(capsys):
    code, out, _ = run_cli(capsys, "criticals", "w*(1-w^2)", "--range", "0:3",
                           "--json")
    assert code == 0
    data = json.loads(out)
    assert data["criticals"][0]["value"] == "1"
    assert data["criticals"][0]["kind"] == "degree_drop"
    assert data["rr0_verdicts"] == ["yes", "no"]
    # the text form keeps each field on a line of its own
    code, out, _ = run_cli(capsys, "criticals", "w*(1-w^2)", "--range", "0:3")
    lines = [x.strip() for x in out.splitlines()]
    assert code == 0 and "value: 1" in lines and "kind: degree_drop" in lines
    i = lines.index("rr0_verdicts:")
    assert lines[i + 1: i + 3] == ["- yes", "- no"]


def test_cli_text_marks_each_list_item(capsys):
    # a scalar item is "- v", an empty list "- []", and a non-empty dict or
    # list a bare "-" with its own lines one level deeper
    code, out, _ = run_cli(capsys, "chart", "w*(1-w^2)")
    assert code == 0
    assert out.splitlines() == [
        "chi_t:", "  w_coeffs:",
        "    -", "      - 1",
        "    - []",
        "    -", "      - -2", "      - -1",
        "    - []",
        "    -", "      - 1", "      - -1",
        "  pretty: (1) + (-2 - t)*w^2 + (1 - t)*w^4"]
    code, out, _ = run_cli(capsys, "monotone", "wmp", "1", "3", "1")
    lines = out.splitlines()
    assert code == 0
    atoms = lines[lines.index("  decomposition:") + 1: lines.index("  identity_check: True")]
    assert atoms[:5] == ["    -", "      kind: dirac", "      params:",
                         "        -", "          value: 3"]
    starts = [i for i, line in enumerate(atoms) if line == "    -"]
    assert [atoms[i + 1] for i in starts] == [
        "      kind: dirac", "      kind: wigner", "      kind: mp", "      kind: mp"]
    assert all(line.startswith("      ") for i, line in enumerate(atoms) if i not in starts)


def test_cli_text_prints_an_empty_value_inline(capsys):
    # no real member: the empty list is "key: []", not the key and a blank line
    code, out, _ = run_cli(capsys, "nset", "w*(1+w^2)")
    assert code == 0
    assert out.splitlines() == [
        "z_poly:", "  coeffs:", "    - 4/27", "    - 0", "    - 1",
        "  pretty: 4/27 + z^2",
        "real_members: []",
        "nonreal_pair_count: 1",
        "all_real: False"]
    from fcl.cli import _render_text
    assert _render_text({"a": {}, "b": [], "c": {"d": []}}).splitlines() == [
        "a: {}", "b: []", "c:", "  d: []"]


def test_cli_fid_note_names_fid(capsys):
    # it is the shifted cumulants whose minor is negative: the law is not FID,
    # while `hankel` certifies the moments
    code, out, _ = run_cli(capsys, "fid", "--from-r", "3*w^2 + w^3", "--order", "3", "--json")
    assert code == 0
    assert json.loads(out)["fid"]["note"] == "negative_at(order=1, det=-1) — certified not FID"
    code, out, _ = run_cli(capsys, "hankel", "--from-r", "w/(1-w)^2", "--order", "5")
    assert code == 0
    assert out.splitlines()[-1] == ("  note: negative_at(order=5, det=-3374) "
                                    "— certified not a moment sequence")


def test_cli_exit_codes(capsys):
    code, _, err = run_cli(capsys, "moments", "w^(1/2)")
    assert code == 2 and "exponent" in err
    code, _, err = run_cli(capsys, "moments", "w^(1/0)")
    assert code == 1 and err == "error: division by the zero polynomial\n"
    code, _, err = run_cli(capsys, "moments", "1 + w")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "dilate", "w - w^2", "0")
    assert code == 1
    code, _, _ = run_cli(capsys, "rr0", "w - w^2")
    assert code == 0


def test_cli_fuss_negative_order_is_an_error(capsys):
    code, out, err = run_cli(capsys, "fuss", "2", "--order", "-2")
    assert code == 1 and out == ""
    assert err == "error: moment order must be >= 0, got -2\n"


@pytest.mark.parametrize("cmd", ["moments", "oeis-match"])
def test_cli_negative_moment_order_is_an_error(capsys, cmd):
    code, out, err = run_cli(capsys, cmd, "w - w^2", "--order", "-1")
    assert code == 1 and out == ""
    assert err == "error: moment order must be >= 0, got -1\n"


@pytest.mark.parametrize("kind", ["cg", "deg3"])
@pytest.mark.parametrize("samples", [0, -2])
def test_cli_region_needs_a_sample(capsys, kind, samples):
    code, out, err = run_cli(capsys, "region", kind, "--samples", str(samples))
    assert code == 1 and out == ""
    assert err == f"error: region samples must be >= 1, got {samples}\n"
    code, out, _ = run_cli(capsys, "region", kind, "--samples", "1", "--csv")
    assert code == 0 and out.count("\n") > 1


def test_cli_cumulants_negative_order_is_an_error(capsys):
    code, out, err = run_cli(capsys, "cumulants", "w", "--order", "-3")
    assert code == 1 and out == ""
    assert err == "error: cumulant order must be >= 0, got -3\n"
    code, out, _ = run_cli(capsys, "cumulants", "w", "--order", "0", "--json")
    assert code == 0 and json.loads(out)["r"] == ["0", "0"]


@pytest.mark.parametrize("argv", [("hankel", "--from-r", "w/(1-w)^2"), ("fid", "w-w^2")])
def test_cli_negative_hankel_order_names_the_order(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--order", "-1")
    assert code == 1 and out == ""
    assert err == "error: Hankel order must be >= 0, got -1\n"


@pytest.mark.parametrize("rng, msg", [
    pytest.param(rng, msg, id=rng) for rng, msg in (
        ("5:-5", "need x_lo < x_hi"),
        ("2:2", "need x_lo < x_hi"),
        ("0:1e400", "--range bounds must fit a float, got 0:1e400"),
        ("-1e400:0", "--range bounds must fit a float, got -1e400:0"))])
def test_cli_density_rejects_a_reversed_or_empty_range(capsys, rng, msg):
    code, out, err = run_cli(capsys, "density", "w*(1+w^2)/(1+9*w^2)", f"--range={rng}",
                             "--grid", "11", "--json")
    assert code == 1 and out == ""
    assert err == f"error: {msg}\n"


@pytest.mark.parametrize("grid", ["0", "1", "-3"])
def test_cli_density_grid_names_the_option(capsys, grid):
    code, out, err = run_cli(capsys, "density", "w", "--range", "0:1", f"--grid={grid}")
    assert code == 1 and out == ""
    assert err == f"error: density grid needs >= 2 points, got {grid}\n"


@pytest.mark.parametrize("ck, shown", [("0", "0"), ("-1", "-1"), ("-1/2", "-1/2")])
def test_cli_euler_ck_names_the_option(capsys, ck, shown):
    code, out, err = run_cli(capsys, "euler", "2", f"--ck={ck}")
    assert code == 1 and out == ""
    assert err == f"error: --ck must be > 0, got {shown}\n"


@pytest.mark.parametrize("option", ["--approx", "--precision"])
def test_cli_negative_digits_name_the_option(capsys, option):
    argv = ("criticals", "w*(1+w)^2", "--range", "0:10", "--json")
    code, out, err = run_cli(capsys, *argv, f"{option}=-1")
    assert code == 1 and out == ""
    assert err == f"error: {option} must be >= 0, got -1\n"
    code, out, _ = run_cli(capsys, *argv, f"{option}=0")
    assert code == 0
    critical = json.loads(out)["criticals"][0]
    assert critical["value"] == "1"
    assert ("value_approx" in critical) == (option == "--approx")


def test_cli_precision_sets_the_interval_digits(capsys):
    code, out, _ = run_cli(capsys, "euler", "2", "--ck", "10", "--json", "--precision", "3")
    assert code == 0
    cand = json.loads(out)["ck"]["candidate"]
    lo, hi = (F(x) for x in cand["interval"])
    assert 1000 % lo.denominator == 0 and 1000 % hi.denominator == 0
    assert 0 < hi - lo <= F(2, 1000)
    p = Poly([int(c) for c in cand["defining"]])
    assert p(lo) * p(hi) < 0


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone; fileno() is a real descriptor."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_cli_broken_pipe_exits_1_without_traceback():
    rfd, wfd = os.pipe()
    os.close(rfd)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(_ClosedPipe(wfd)), contextlib.redirect_stderr(err):
            code = main(["monotone", "wmp", "1", "3", "1", "--json"])
        # the descriptor now leads to devnull: a write no longer fails
        assert os.write(wfd, b"rest") == 4
    finally:
        os.close(wfd)
    assert code == 1 and err.getvalue() == ""


def test_cli_config_options_belong_to_oeis(capsys, tmp_path):
    for opt, value in (("--network", "on"), ("--fixtures", str(tmp_path)),
                       ("--config", str(tmp_path / "fcl.conf"))):
        code, err = _cli_quiet("moments", "w", opt, value)
        assert code == 2 and f"unrecognized arguments: {opt}" in err
    code, out, _ = run_cli(capsys, "oeis-match", "w - w^2", "--network", "off",
                           "--fixtures", str(tmp_path), "--json")
    assert code == 0
    assert {"a_number": "A000108", "transform": "identity"} in json.loads(out)["matches"]
    code, _, err = run_cli(capsys, "oeis-fetch", "A999999", "--network", "off")
    assert code == 1 and "network" in err.lower()


def test_cli_ops_and_json(capsys):
    code, out, _ = run_cli(capsys, "power", "w*(1-w^2)", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["P"] == ["1", "0", "-1"] and data["Q"] == ["1", "0", "1"]
    code, out, _ = run_cli(capsys, "convolve", "w/(1-w)", "w/(1+w)", "--json")
    assert code == 0
    code, out, _ = run_cli(capsys, "compose", "w*(1+3*w)", "w*(1+2*w)", "--json")
    data = json.loads(out)
    assert data["P"] == [str(c) for c in (Poly([1, 2]) * Poly([1, 3, 6])).coeffs]
    code, out, _ = run_cli(capsys, "translate", "w - w^2", "1/2", "--json")
    assert code == 0
    code, out, _ = run_cli(capsys, "nset", "w*(1-w)*(1-w+w^2)", "--json")
    data = json.loads(out)
    assert [m["value"] for m in data["real_members"]] == ["3/16", "1/4"]
    assert data["all_real"] is True
    code, out, _ = run_cli(capsys, "charpoly", "w - w^2", "--json")
    assert json.loads(out)["chi"]["coeffs"] == ["1", "-2"]
    code, out, _ = run_cli(capsys, "chart", "w*(1-w^2)", "--json")
    assert json.loads(out)["chi_t"]["w_coeffs"][2] == ["-2", "-1"]
    code, out, _ = run_cli(capsys, "singular", "w*(1-w)*(1-2*w+2*w^2)", "--json")
    assert json.loads(out)["singular"] is True
    code, out, _ = run_cli(capsys, "rr", "w*(1-w)*(1-w+w^2)", "--json")
    assert json.loads(out)["rr"] is True
    code, out, _ = run_cli(capsys, "fid", "--from-r", "3*w^2 + w^3", "--order",
                           "4", "--json")
    assert code == 0
    code, out, _ = run_cli(capsys, "cumulants", "w*(1-w)^2/(1-w+w^2)",
                           "--order", "6", "--json")
    assert json.loads(out)["r"] == ["0", "1", "2", "3", "4", "5", "6"]


def test_cli_dist_deconv_monotone_fuss(capsys):
    code, out, _ = run_cli(capsys, "dist", "mp", "1", "1", "--json")
    assert code == 0 and json.loads(out)["dist"]["P"] == ["1", "-1"]
    code, out, _ = run_cli(capsys, "deconv", "wmp", "1", "-1", "--json")
    assert json.loads(out)["deconv"]["chi_factored_check"] is True
    code, out, _ = run_cli(capsys, "monotone", "ww", "1", "1", "--json")
    data = json.loads(out)["monotone"]
    assert data["chi_check"] is True and data["identity_check"] is True
    code, _, err = run_cli(capsys, "monotone", "wmp", "1", "1", "2", "--json")
    assert code == 1 and "decomposition" in err
    # a parameter error is reported before the decomposition is tried
    code, out, err = run_cli(capsys, "monotone", "wmp", "1", "0", "1")
    assert (code, out, err) == (1, "", "error: need v != 0\n")
    code, out, _ = run_cli(capsys, "fuss", "2", "--order", "6", "--json")
    data = json.loads(out)["fuss"]
    assert data["chi_check"] is True
    assert data["moments"] == ["1", "0", "2", "0", "9", "0", "52"]
    code, out, _ = run_cli(capsys, "euler", "3", "--json")
    assert json.loads(out)["euler"]["e_row"] == ["1", "4", "1"]
    code, out, _ = run_cli(capsys, "euler", "1", "--ck", "10", "--json")
    data = json.loads(out)["ck"]
    assert data["candidate"]["value"] == "27/8"


def test_cli_wrong_parameter_count_exits_2():
    for argv in (("dist", "mp", "1"), ("deconv", "wmp", "1"), ("deconv", "mpmp", "1", "2"),
                 ("monotone", "wmp", "1", "2"), ("dist", "wigner", "1", "2"),
                 ("monotone", "ww", "1", "1", "1")):
        code, err = _cli_quiet(*argv)
        assert code == 2 and err.startswith("error:") and "Traceback" not in err, argv


def test_cli_monotone_irrational_weights(capsys):
    # non-square discriminants (5 and 13): the MP parameters print as
    # algebraic numbers and the identity is still proved
    for argv, n_irrational in ((("wmp", "1", "3", "2"), 4), (("mpmp", "1", "3", "-1", "1"), 4)):
        code, out, _ = run_cli(capsys, "monotone", *argv, "--json")
        data = json.loads(out)["monotone"]
        assert code == 0 and data["identity_check"] is True
        params = [p for a in data["decomposition"] if a["kind"] == "mp" for p in a["params"]]
        irrational = [p for p in params if "value" not in p]
        assert len(irrational) == n_irrational
        assert all(len(p["defining"]) == 3 and len(p["interval"]) == 2 for p in irrational)


def test_cli_density_csv(capsys):
    code, out, _ = run_cli(capsys, "density", "w/(1+w^2)", "--range=-1:1",
                           "--grid", "5", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,f" and len(lines) == 6


def test_cli_region_csv(capsys):
    code, out, _ = run_cli(capsys, "region", "cg", "--samples", "8", "--csv")
    assert code == 0
    assert out.startswith("x,y,side")
    code, out, _ = run_cli(capsys, "region", "lb", "--b", "1", "--samples",
                           "9", "--csv")
    assert out.startswith("c,d") and len(out.strip().split("\n")) == 10
    code, out, _ = run_cli(capsys, "region", "deg3", "--samples", "6", "--csv")
    assert out.startswith("a,b,rr0")


def test_cli_oeis(capsys):
    code, out, _ = run_cli(capsys, "oeis-match", "w - w^2", "--json")
    assert code == 0
    hits = json.loads(out)["matches"]
    assert {"a_number": "A000108", "transform": "identity"} in hits
    code, out, _ = run_cli(capsys, "oeis-fetch", "A000108", "--json")
    assert code == 0 and json.loads(out)["fixture"]["source"] == "bundled"
    code, _, err = run_cli(capsys, "oeis-fetch", "A999999")
    assert code == 1 and "network" in err.lower()


def test_cli_power_flag(capsys):
    # chi of the free power in a single invocation
    code, out, _ = run_cli(capsys, "charpoly", "w*(1-w)^2/(1-w+w^2)",
                           "--power", "27/8", "--json")
    assert code == 0
    chi = F(1, 4) * Poly([1, -1]) * Poly([1, -4]) * Poly([2, 1]) ** 2
    assert json.loads(out)["chi"]["coeffs"] == \
        [str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
         for c in chi.coeffs]
    code, out, _ = run_cli(capsys, "rr0", "w*(1-w^2)", "--power", "2", "--json")
    assert json.loads(out)["rr0"] is False


def test_cli_approx_flag(capsys):
    code, out, _ = run_cli(capsys, "nset", "w - w^2", "--json", "--approx", "6")
    data = json.loads(out)
    assert data["real_members"][0]["value"] == "1/4"
    assert data["real_members"][0]["value_approx"] == "0.25"
    # a negative minor's determinant gets its decimal right after it
    argv = ("hankel", "--from-r", "w/(1-w)^2", "--order", "5", "--approx", "6")
    code, out, _ = run_cli(capsys, *argv, "--json")
    verdict = json.loads(out)["hankel"]
    assert code == 0 and list(verdict)[2:4] == ["determinant", "determinant_approx"]
    assert verdict["determinant_approx"] == "-3374"
    code, out, _ = run_cli(capsys, *argv)
    lines = out.splitlines()
    i = lines.index("  determinant: -3374")
    assert code == 0 and lines[i + 1] == "  determinant_approx: -3374"
    # rational atom parameters get a decimal; irrational ones (a defining
    # polynomial and an interval) do not
    code, out, _ = run_cli(capsys, "monotone", "wmp", "1", "3", "2", "--json", "--approx", "5")
    params = [p for a in json.loads(out)["monotone"]["decomposition"] for p in a.get("params", ())]
    assert code == 0 and params
    for p in params:
        assert ("value_approx" in p) == ("value" in p) == ("defining" not in p)
        if "value" in p:
            assert list(p) == ["value", "value_approx"]
            assert p["value_approx"] == f"{float(F(p['value'])):.5g}"
    assert sum("defining" in p for p in params) == 4
    # CSV has no exact values to approximate
    argv = ("density", "w/(1+w^2)", "--range=-1:1", "--grid", "5", "--csv")
    assert run_cli(capsys, *argv, "--approx", "3") == run_cli(capsys, *argv)


_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_print_their_output_lines(capsys):
    # in the README's CLI block, each "#  " line under a command is a
    # verbatim excerpt of one line of its output, in output order
    block = _README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("fcl "):
            examples.append((shlex.split(line, comments=True)[1:], []))
        elif line.startswith("#  "):
            examples[-1][1].append(line[3:])
    examples = [(argv, excerpts) for argv, excerpts in examples if excerpts]
    assert examples
    for argv, excerpts in examples:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        lines = iter(out.splitlines())
        for excerpt in excerpts:
            assert excerpt.strip() and any(excerpt in line for line in lines), (argv, excerpt)


# ------------------------------------------------ past the float range


@pytest.mark.parametrize("argv, code", [
    (("hankel", "--from-r", "100000000000*w/(1-100000000000*w)^2", "--order", "5",
      "--approx", "3"), 0),
    (("density", "w/(1-10^200*w)^2", "--range=0:3", "--grid", "5"), 1),
    # moments to order 8 in range, a coefficient past it
    (("density", "w/(1+10^400*w^12)", "--range=0:1", "--grid", "3"), 1),
    (("monotone", "mpmp", "1/2", "1e308", "-2", "1e400", "--precision", "2"), 0),
], ids=["hankel-approx", "density", "density-coefficient", "monotone-approx"])
def test_values_past_the_float_range_exit_cleanly(argv, code):
    got, out, err = _cli_all(*argv)
    assert got == code and "Traceback" not in err
    assert (err == "") if code == 0 else err.startswith("error:")


def test_hankel_approx_past_the_float_range():
    argv = ("hankel", "--from-r", "100000000000*w/(1-100000000000*w)^2", "--order", "5")
    code, out, _ = _cli_all(*argv, "--approx", "3")
    assert code == 0 and "  determinant_approx: -3.37e+333" in out.splitlines()
    code, out, _ = _cli_all(*argv, "--approx", "30", "--json")
    assert json.loads(out)["hankel"]["determinant_approx"] == "-3.374e+333"


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False).filter(bool), st.integers(0, 25))
@example(0.5, 0)
@example(9.5, 1)
@example(99999.5, 5)
@example(0.0001, 3)
@example(9.99995e-5, 5)
@example(5e-324, 17)
def test_decimal_is_the_float_g_form_in_integers(x, digits):
    from fcl.cli import _g_format
    assert _g_format(F(x), digits) == _decimal(F(x), digits) == f"{x:.{digits}g}"


def test_decimal_past_the_float_range():
    for q, digits, want in ((F(-3374 * 10**330), 3, "-3.37e+333"), (F(10**400), 0, "1e+400"),
                            (F(1, 10**400), 5, "1e-400"), (F(-2, 3 * 10**400), 4, "-6.667e-401"),
                            (F(123456 * 10**400), 3, "1.23e+405"), (F(10**309 - 1), 2, "1e+309"),
                            (F(3 * 10**310), 400, "3" + "0" * 310), (F(0), 3, "0"),
                            # a subnormal float keeps fewer digits than asked
                            (F(1, 3 * 10**315), 17, "3.3333333333333333e-316")):
        assert _decimal(q, digits) == want


# ------------------------------------------------------- the --order cap

_ORDER_COMMANDS = (("moments", "w"), ("cumulants", "w"), ("hankel", "w"), ("fid", "w"),
                   ("oeis-match", "w"), ("fuss", "2"))


def test_order_past_the_cap_fails_before_computing(monkeypatch):
    from fcl import cli, distlib
    reached = []

    def compute(*args):
        reached.append(args)
        raise FclError("computed")

    monkeypatch.setattr(cli, "_f_from", compute)
    monkeypatch.setattr(distlib, "fuss_f", compute)
    assert {c for c, _ in _ORDER_COMMANDS} == {
        name for name, (*_, arguments) in _COMMANDS.items() if "--order" in dict(arguments)}
    for command, arg in _ORDER_COMMANDS:
        for order in (MAX_ORDER + 1, 100000000000, MAX_ORDER, 0):
            reached.clear()
            code, out, err = _cli_all(command, arg, "--order", str(order))
            assert code == 1 and out == "" and "Traceback" not in err
            if order > MAX_ORDER:
                assert err == f"error: {'Hankel' if command in ('hankel', 'fid') else ''}" \
                    f"{'cumulant' if command == 'cumulants' else ''}" \
                    f"{'moment' if command in ('moments', 'oeis-match', 'fuss') else ''}" \
                    f" order must be <= {MAX_ORDER}, got {order}\n"
                assert reached == []
            else:
                assert err == "error: computed\n" and len(reached) == 1


def test_documented_orders_are_under_the_cap():
    root = Path(__file__).resolve().parents[1]
    readme = re.findall(r"--order[ =](\d+)", _README.read_text())
    bench = re.findall(r'"--order", "(\d+)"',
                       (root / "perfbench" / "fclbench" / "workloads.py").read_text())
    assert readme and bench and max(map(int, readme + bench)) <= MAX_ORDER


# ------------------------------------------------------------ a wider fuzz

_COEFFS = ("1", "2", "3/2", "100000000000", "10^200", "1/10^200", "10^400", "1/10^400")
_FORMS = ("w/(1-C*w)^2", "C*w/(1-C*w)^2", "w - C*w^2", "w/(1+C*w^2)", "w*(1+C*w)/(1-C*w)")
_ENDS = ("0", "-3", "10", "1e-400", "1e400", "-1e300")
# F commands: the extra arguments each needs
_FUZZ_COMMANDS = {"moments": (), "cumulants": (), "hankel": (), "fid": (), "nset": (),
                  "rr0": (), "charpoly": (), "power": ("3/2",), "dilate": ("1e400",),
                  "criticals": ("--range",), "density": ("--range", "--grid", "3")}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    form = draw(st.sampled_from(_FORMS)).replace("C", draw(st.sampled_from(_COEFFS)))
    argv = [command, form]
    for a in _FUZZ_COMMANDS[command]:
        argv.append(f"--range={draw(st.sampled_from(_ENDS))}:{draw(st.sampled_from(_ENDS))}"
                    if a == "--range" else a)
    if draw(st.booleans()):
        argv.append("--from-r")
    if command in ("moments", "cumulants", "hankel", "fid"):
        argv += ["--order", str(draw(st.integers(-1, 8)))]
    for flag, top in (("--approx", 30), ("--precision", 60)):
        if draw(st.booleans()):
            argv += [flag, str(draw(st.integers(-1, top)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=40, deadline=None)
@given(_argvs())
@example(["hankel", "100000000000*w/(1-100000000000*w)^2", "--from-r", "--order", "5",
          "--approx", "3"])
@example(["density", "w/(1-10^200*w)^2", "--range=0:3", "--grid", "5"])
@example(["nset", "w/(1-1/10^400*w)^2", "--from-r", "--json"])
def test_cli_fuzz_over_commands_and_flags_exits_cleanly(argv):
    code, _, err = _cli_all(*argv)
    assert code in (0, 1, 2) and "Traceback" not in err
    assert code == 0 or "error:" in err
