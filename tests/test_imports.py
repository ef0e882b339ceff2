"""Import footprint of the package and its lazy (PEP 562) exports."""
import ast
import copy
import dataclasses
import importlib
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import fcl
import fcl.exactalg
import fcl.spectra
from fcl.classf import ClassF, RatFun, SeriesPrefix
from fcl.config import Config
from fcl.density import DensityTable
from fcl.distlib import Atom, LevyData
from fcl.exactalg import Poly
from fcl.oeis import Fixture
from fcl.posdef import HankelVerdict

_SRC = str(Path(fcl.__file__).resolve().parents[1])


def _modules_after(code):
    """Every module loaded in a fresh interpreter after running `code`."""
    probe = code + "\nimport sys, json\nprint(json.dumps(sorted(sys.modules)))"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=_SRC), timeout=60, check=True)
    return set(json.loads(res.stdout.splitlines()[-1]))


def _loaded_after(code):
    """fcl modules loaded in a fresh interpreter after running `code`."""
    return {m for m in _modules_after(code) if m == "fcl" or m.startswith("fcl.")}


def _run_cli(argv):
    """Probe code running the CLI on argv with its output discarded."""
    return ("import contextlib, io, fcl.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert fcl.cli.main({argv!r}) == 0")


def test_import_fcl_loads_no_submodule():
    assert _loaded_after("import fcl") == {"fcl"}


def test_import_cli_loads_no_subcommand_module():
    loaded = _loaded_after("import fcl.cli")
    assert not loaded & {"fcl.spectra", "fcl.distlib", "fcl.density", "fcl.euler",
                         "fcl.posdef"}
    # classf and the parser need the polynomial kernel alone
    assert {m for m in loaded if m.startswith("fcl.exactalg.")} == {"fcl.exactalg.poly"}
    # the benchmark reads oeis' import time from `import fcl.cli`
    assert "fcl.oeis" in loaded


@pytest.mark.parametrize("argv, module, loads_spectra", [
    (["density", "w*(1+w^2)/(1+9*w^2)", "--range=-5:5", "--grid", "5", "--csv"],
     "fcl.density", False),
    (["charpoly", "w*(1-w)^2/(1-w+w^2)", "--power", "27/8"], "fcl.classf", False),
    (["dist", "mp", "1", "3"], "fcl.distlib", False),
    (["deconv", "wmp", "1", "-1"], "fcl.distlib", False),
    (["monotone", "wmp", "1", "3", "1"], "fcl.distlib", False),
    (["fuss", "3", "--order", "8"], "fcl.distlib", False),
    # the lb region samples spectra.lb_curve
    (["region", "lb", "--samples", "5", "--csv"], "fcl.spectra", True),
], ids=["density", "charpoly", "dist", "deconv", "monotone", "fuss", "region-lb"])
def test_command_loads_spectra_only_when_it_calls_it(argv, module, loads_spectra):
    loaded = _loaded_after(_run_cli(argv))
    assert module in loaded
    assert ("fcl.spectra" in loaded) == loads_spectra
    # bipoly's parameter eliminations serve spectra alone: the algebraic
    # numbers of dist, deconv, monotone and fuss do not load it
    assert ("fcl.exactalg.bipoly" in loaded) == loads_spectra
    if argv[0] == "charpoly":
        # chi_F is ClassF algebra: the polynomial kernel alone
        assert {m for m in loaded if m.startswith("fcl.exactalg.")} == {"fcl.exactalg.poly"}


def _readme_examples():
    """perfbench's CLI_EXAMPLES, the README's commands, read from the source
    without importing perfbench."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "fclbench" / "workloads.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CLI_EXAMPLES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no CLI_EXAMPLES in the workloads")


_SPECTRA_COMMANDS = {"criticals", "nset", "euler", "region"}
_SLOW_IMPORTS = {"dataclasses", "inspect"}


@pytest.mark.parametrize("name, argv", [pytest.param(*ex, id=ex[0]) for ex in _readme_examples()])
def test_only_spectra_commands_load_dataclasses(name, argv):
    # records outside spectra are fcl._record classes: importing dataclasses
    # would load inspect, ast, dis and more on every CLI call
    loaded = _modules_after(_run_cli(argv))
    assert ("fcl.spectra" in loaded) == (name in _SPECTRA_COMMANDS)
    assert bool(loaded & _SLOW_IMPORTS) == (name in _SPECTRA_COMMANDS)


def test_record_modules_do_not_load_dataclasses():
    loaded = _modules_after("import fcl.classf, fcl.posdef, fcl.distlib, fcl.density, fcl.oeis")
    assert not loaded & _SLOW_IMPORTS
    # spectra keeps dataclasses: perfbench's tests call dataclasses.replace
    # on a CriticalReport
    assert dataclasses.is_dataclass(fcl.spectra.CriticalReport)


_RECORDS = [
    (ClassF, {"P": Poly([1, -1]), "Q": Poly.one()}, {}, {"Q": Poly([1, 2])}),
    (RatFun, {"num": Poly([0, 1]), "den": Poly([1, -1])}, {}, {"num": Poly([0, 2])}),
    (SeriesPrefix, {"terms": (1, 2, 5)}, {"kind": "generic"}, {"terms": (1, 2)}),
    (Config, {}, {"fixtures_path": None, "network": False}, {"network": True}),
    (Fixture, {"a_number": "A000108", "offset": 0, "terms": (1, 1, 2, 5), "align": 0,
               "note": "", "source": "bundled"}, {"row_lengths": None}, {"offset": 1}),
    (HankelVerdict, {"status": "positive_so_far", "order": 1, "determinant": F(0),
                     "minors": (F(1), F(1))}, {}, {"order": 2}),
    (DensityTable, {"xs": (0.0, 1.0), "fs": (0.5, None), "mass_estimate": 0.5,
                    "clamped": 0}, {}, {"clamped": 1}),
    (LevyData, {"u": 1, "c0": F(1, 2), "atoms": ((1, 1),)}, {}, {"c0": 0}),
    (Atom, {"kind": "dirac", "params": (F(2),)}, {}, {"params": (F(3),)}),
]


@pytest.mark.parametrize("cls, given, defaults, change", _RECORDS,
                         ids=[r[0].__name__ for r in _RECORDS])
def test_records_are_frozen_values(cls, given, defaults, change):
    r = cls(**given)
    assert not dataclasses.is_dataclass(cls)
    assert {k: getattr(r, k) for k in defaults} == defaults
    by_position = cls(*given.values())
    assert r == by_position and hash(r) == hash(by_position)
    assert r != cls(**{**given, **change})
    assert copy.copy(r) == r and pickle.loads(pickle.dumps(r)) == r
    for field in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(r, field, getattr(r, field))
    with pytest.raises(TypeError):
        cls(**given, no_such_field=0)


@pytest.mark.parametrize("pkg", [fcl, fcl.exactalg], ids=lambda p: p.__name__)
def test_lazy_exports_are_the_submodules_objects(pkg):
    assert pkg.__all__
    for name in pkg.__all__:
        home = importlib.import_module(f"{pkg.__name__}.{pkg._SOURCE[name]}")
        assert getattr(pkg, name) is vars(home)[name], name
    assert set(pkg.__all__) <= set(dir(pkg))
    with pytest.raises(AttributeError):
        pkg.no_such_name
    namespace = {}
    exec(f"from {pkg.__name__} import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(pkg.__all__)


def test_algebraic_decisions_do_not_load_intervals():
    # the kernel's algebraic numbers stand on poly <- sturm <- algebraic
    assert _loaded_after("from fcl.exactalg import AlgebraicReal, isolate_real_roots") == {
        "fcl", "fcl.exactalg", "fcl.exactalg.poly", "fcl.exactalg.sturm",
        "fcl.exactalg.algebraic"}
    # signs at algebraic numbers are a mean value bound in integers, on a
    # bisected interval where it cannot settle them; `intervals` has no fcl
    # caller
    loaded = _loaded_after(
        "from fcl.euler import nk_classf\n"
        "from fcl.spectra import critical_ts, n_set, rr0_at_algebraic_t\n"
        "f = nk_classf(2)\n"
        "c = critical_ts(f, 0, 2000).criticals[0]\n"
        "assert not c.is_rational()\n"
        "rr0_at_algebraic_t(f, c), n_set(f)")
    assert "fcl.spectra" in loaded and "fcl.exactalg.intervals" not in loaded


def _tracer_targets():
    """(module, attribute) of each entry of perfbench's tracer TARGETS, read
    from the source without importing or changing perfbench."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "fclbench" / "tracing.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[1].value, entry.elts[2].value) for entry in node.value.elts]
    raise AssertionError("no TARGETS in the tracer")


def test_every_tracer_target_resolves():
    # a name the tracer wraps must outlive it, or `perfbench/run.py --trace 1` fails
    targets = _tracer_targets()
    assert len(targets) >= 30
    for module, attr in targets:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{attr}"


def test_every_exactalg_export_has_a_caller_in_fcl():
    # an export that only tests call is a route to delete: each name in
    # fcl.exactalg.__all__ is read by the code of some fcl module (its own
    # module counts, the export table does not) or wrapped by the tracer
    src = Path(fcl.__file__).resolve().parent
    table = src / "exactalg" / "__init__.py"
    used = set()
    for path in src.rglob("*.py"):
        if path != table:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    traced = {attr for module, attr in _tracer_targets() if module.startswith("fcl.exactalg")}
    unused = sorted(set(fcl.exactalg.__all__) - used - traced)
    assert not unused, unused
    # the exports that only the tracer keeps: they go when it drops them,
    # and a new fcl caller of one shows up here
    assert set(fcl.exactalg.__all__) - used == {"hankel_det", "iv_poly_eval", "resultant",
                                                "resultant_w"}


def _private_definitions(tree):
    """(name, node, owner class or None) of each private (`_name`, not
    dunder) module-level function and class, and method of such a class."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and private(node.name):
            yield node.name, node, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and private(item.name):
                    yield item.name, item, node.name


def test_every_private_helper_is_read_by_fcl_code():
    # a private helper that no fcl code reads outside its own body is dead
    # code left behind by a change; a method that overrides one of its base
    # class's (an argparse hook, say) is read by the base class
    src = Path(fcl.__file__).resolve().parent
    trees = {path: ast.parse(path.read_text()) for path in sorted(src.rglob("*.py"))}
    reads = []   # (name, path, line) of each name read
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((node.attr, path, node.lineno))
    helpers, unread = 0, []
    for path, tree in trees.items():
        module = ".".join(("fcl",) + path.relative_to(src).with_suffix("").parts)
        for name, node, owner in _private_definitions(tree):
            helpers += 1
            if any(n == name and not (p == path and node.lineno <= line <= node.end_lineno)
                   for n, p, line in reads):
                continue
            if owner is not None:
                cls = getattr(importlib.import_module(module), owner)
                if any(hasattr(base, name) for base in cls.__mro__[1:]):
                    continue
            unread.append(f"{module}.{owner + '.' if owner else ''}{name}")
    assert helpers >= 100
    assert not unread, unread
