"""The traced run: wrappers around fcl's public functions, from outside.

Each listed function is rebound, for the length of one pass, in every
loaded fcl module that holds it (so `spectra.isolate_real_roots` is
wrapped as well as `exactalg.algebraic.isolate_real_roots`); methods are
rebound on their class.  A wrapper records a span (call id, name, parent
call id, request id, start, end) and updates the function's size
counters.  Wrapper bookkeeping is timed and charged to no layer: a
span's self time is its duration minus its child spans' durations minus
the bookkeeping done inside it.
"""
from __future__ import annotations

import functools
import importlib
import json
import subprocess
import sys
import time

from . import env
from .stats import max_bits, median, rat_bits

_MARK = "_fclbench_wrapper"


# ----------------------------------------------------------------------
# size counters: meter(counters, args, kwargs, result)


def _bump_max(c, key, v):
    if v > c.get(key, 0):
        c[key] = v


def _m_poly(c, args, kw, res):
    p = args[0]
    _bump_max(c, "max_deg", p.degree)
    _bump_max(c, "max_bits", max_bits(p.coeffs))


def _m_gcd(c, args, kw, res):
    _bump_max(c, "max_bits", max(max_bits(args[0].coeffs), max_bits(args[1].coeffs)))


def _m_isolate(c, args, kw, res):
    _m_poly(c, args, kw, res)
    c["roots"] = c.get("roots", 0) + len(res)
    c["rational_roots"] = c.get("rational_roots", 0) + sum(1 for r in res if r.lo == r.hi)


def _m_out_poly(c, args, kw, res):
    _bump_max(c, "out_deg", res.degree)
    _bump_max(c, "out_bits", max_bits(res.coeffs))


def _m_eliminant(c, args, kw, res):
    f = args[0]
    c.setdefault("_distinct", set()).add((f.P.coeffs, f.Q.coeffs))
    rho = res[2]
    _bump_max(c, "rho_deg", rho.degree)
    _bump_max(c, "rho_bits", max_bits(rho.coeffs))


def _m_rr0(c, args, kw, res):
    c["unknown"] = c.get("unknown", 0) + (res.value == "unknown")


def _m_iv(c, args, kw, res):
    x = args[1]
    lo, hi = getattr(x, "lo", x), getattr(x, "hi", x)
    _bump_max(c, "max_bits", max(rat_bits(lo), rat_bits(hi)))


def _m_hankel_det(c, args, kw, res):
    s, k = args[0], args[1]
    _bump_max(c, "max_order", k)
    _bump_max(c, "max_bits", max_bits(list(s)[: 2 * k + 1]))


def _m_moments(c, args, kw, res):
    _bump_max(c, "max_n", args[1])
    _bump_max(c, "max_bits", max_bits(res.terms))


def _m_verdict(c, args, kw, res):
    c["minors"] = c.get("minors", 0) + len(res.minors)
    c["negative"] = c.get("negative", 0) + res.is_negative


def _m_density(c, args, kw, res):
    c["points"] = c.get("points", 0) + len(res.fs)
    c["gaps"] = c.get("gaps", 0) + sum(1 for v in res.fs if v is None)
    c["clamped"] = c.get("clamped", 0) + res.clamped


# (metric name, module, attribute or Class.method, meter, counter stats)
TARGETS = (
    ("exactalg.sturm.sturm_chain", "fcl.exactalg.sturm", "sturm_chain", _m_poly,
     ("max_deg", "max_bits")),
    ("exactalg.sturm.count_distinct_real_roots", "fcl.exactalg.sturm",
     "count_distinct_real_roots", None, ()),
    ("exactalg.sturm.is_real_rooted", "fcl.exactalg.sturm", "is_real_rooted", None, ()),
    ("exactalg.poly.poly_gcd", "fcl.exactalg.poly", "poly_gcd", _m_gcd, ("max_bits",)),
    ("exactalg.poly.squarefree_part", "fcl.exactalg.poly", "squarefree_part", None, ()),
    ("exactalg.poly.resultant", "fcl.exactalg.poly", "resultant", None, ()),
    ("exactalg.algebraic.isolate_real_roots", "fcl.exactalg.algebraic", "isolate_real_roots",
     _m_isolate, ("roots", "rational_roots", "max_deg", "max_bits")),
    ("exactalg.algebraic.refined_to", "fcl.exactalg.algebraic", "AlgebraicReal.refined_to",
     None, ()),
    ("exactalg.algebraic.is_root_of", "fcl.exactalg.algebraic", "AlgebraicReal.is_root_of",
     None, ()),
    ("exactalg.algebraic.compare", "fcl.exactalg.algebraic", "_compare", None, ()),
    ("exactalg.bipoly.resultant_w", "fcl.exactalg.bipoly", "resultant_w", _m_out_poly,
     ("out_deg", "out_bits")),
    ("exactalg.intervals.iv_poly_eval", "fcl.exactalg.intervals", "iv_poly_eval", _m_iv,
     ("max_bits",)),
    ("exactalg.hankel.hankel_det", "fcl.exactalg.hankel", "hankel_det", _m_hankel_det,
     ("max_order", "max_bits")),
    ("spectra.cleaned_critical_eliminant", "fcl.spectra", "cleaned_critical_eliminant",
     _m_eliminant, ("distinct_f", "rho_deg", "rho_bits")),
    ("spectra.rr0_at_algebraic_t", "fcl.spectra", "rr0_at_algebraic_t", _m_rr0, ("unknown",)),
    ("spectra.critical_ts", "fcl.spectra", "critical_ts", None, ()),
    ("spectra.is_rr0", "fcl.spectra", "is_rr0", None, ()),
    ("spectra.n_set", "fcl.spectra", "n_set", None, ()),
    ("series.invert_f_series", "fcl.series", "invert_f_series", None, ()),
    ("series.ser_div", "fcl.series", "ser_div", None, ()),
    ("classf.moments", "fcl.classf", "moments", _m_moments, ("max_n", "max_bits")),
    ("classf.cumulants", "fcl.classf", "cumulants", None, ()),
    ("classf.make_classf", "fcl.classf", "make_classf", None, ()),
    ("posdef.hankel_verdict", "fcl.posdef", "hankel_verdict", _m_verdict,
     ("minors", "negative")),
    ("posdef.fid_check", "fcl.posdef", "fid_check", None, ()),
    ("density.density_grid", "fcl.density", "density_grid", _m_density,
     ("points", "gaps", "clamped")),
    ("density.g_eval_descent", "fcl.density", "g_eval_descent", None, ()),
    ("cli.main", "fcl.cli", "main", None, ()),
    ("parser.parse_expr", "fcl.parser", "parse_expr", None, ()),
    ("oeis.load_bundled", "fcl.oeis", "load_bundled", None, ()),
    ("oeis.match", "fcl.oeis", "match", None, ()),
    ("euler.ck_candidates", "fcl.euler", "ck_candidates", None, ()),
)

# Ratios derived from the counters: name -> (numerator, denominator).
RATIOS = {
    "exactalg.algebraic.isolate_real_roots.rational_share":
        ("exactalg.algebraic.isolate_real_roots.rational_roots",
         "exactalg.algebraic.isolate_real_roots.roots"),
    "spectra.cleaned_critical_eliminant.reuse_share":
        ("spectra.cleaned_critical_eliminant.distinct_f",
         "spectra.cleaned_critical_eliminant.calls"),
    "exactalg.intervals.iv_poly_eval.per_decision":
        ("exactalg.intervals.iv_poly_eval.calls", "spectra.rr0_at_algebraic_t.calls"),
    "density.density_grid.gap_share":
        ("density.density_grid.gaps", "density.density_grid.points"),
}

IMPORT_METRICS = {"cli.import_s": "fcl.cli", "oeis.import_s": "fcl.oeis"}


def load_targets():
    """Import every module that holds a target, before any snapshot."""
    for _name, modname, *_ in TARGETS:
        importlib.import_module(modname)


def _fcl_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fcl" or name.startswith("fcl."))]


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []        # (call id, name, parent id, request, start, end, overhead)
        self.counters = {t[0]: {} for t in TARGETS}
        self.request = -1
        self._stack = []       # [call id, bookkeeping seconds inside this span]
        self._next = 0
        self._installed = []   # (namespace dict, attribute, original)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, meter):
        tracer = self
        counters = self.counters[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            cid = tracer._next
            tracer._next += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [cid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.spans.append((cid, name, parent[0] if parent else -1,
                                     tracer.request, t0, t1, frame[1]))
            if meter is not None:
                meter(counters, args, kwargs, result)
            if parent is not None:
                parent[1] += (clock() - t_in) - (t1 - t0)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self):
        """Rebind every target in every fcl module (or class) that holds it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for name, modname, attr, meter, _ in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._installed.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, meter))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original, meter)
            for m in _fcl_modules():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._installed.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed = []

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """calls, self_s and counter stats per target, plus derived ratios."""
        child = {}
        for _, _, parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        out = {}
        for name, *_rest, stats in TARGETS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for cid, name, _, _, t0, t1, overhead in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (t1 - t0) - child.get(cid, 0.0) - overhead
        for name, *_rest, stats in TARGETS:
            c = self.counters[name]
            for stat in stats:
                if stat == "distinct_f":
                    out[f"{name}.{stat}"] = len(c.get("_distinct", ()))
                else:
                    out[f"{name}.{stat}"] = c.get(stat, 0)
        return out

    def dump(self) -> dict:
        names = sorted({t[0] for t in TARGETS})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "span_fields": ["call", "name", "parent", "request", "start", "end",
                                "bookkeeping"],
                "spans": [(c, index[n], p, r, t0, t1, o)
                          for c, n, p, r, t0, t1, o in self.spans],
                "layer": self.layer_metrics()}


def wrappers_left() -> list:
    """Names of fcl attributes that still hold a tracing wrapper."""
    left = []
    for m in _fcl_modules():
        for key, value in vars(m).items():
            if getattr(value, _MARK, False):
                left.append(f"{m.__name__}.{key}")
            if isinstance(value, type) and value.__module__.startswith("fcl"):
                for k2, v2 in vars(value).items():
                    if getattr(v2, _MARK, False):
                        left.append(f"{m.__name__}.{key}.{k2}")
    return left


def snapshot() -> dict:
    """Identity of every attribute of every loaded fcl module and class."""
    out = {}
    for m in _fcl_modules():
        for key, value in vars(m).items():
            out[(m.__name__, key)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("fcl"):
                for k2, v2 in vars(value).items():
                    out[(m.__name__, key, k2)] = id(v2)
    return out


def merge_layers(parts) -> dict:
    """Sum per-process layer metrics; max_* and *_deg/*_bits take the maximum."""
    out = {}
    for part in parts:
        for k, v in part.items():
            stat = k.rsplit(".", 1)[1]
            if stat.startswith("max_") or stat.endswith(("_deg", "_bits")):
                out[k] = max(out.get(k, 0), v)
            else:
                out[k] = out.get(k, 0) + v
    return out


def add_ratios(layer: dict) -> dict:
    for name, (num, den) in RATIOS.items():
        layer[name] = layer[num] / layer[den] if layer.get(den) else 0.0
    return layer


def import_times(repeats=3) -> dict:
    """Cumulative import time of fcl.cli and fcl.oeis from -X importtime."""
    samples = {k: [] for k in IMPORT_METRICS}
    for _ in range(repeats):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fcl.cli"],
                             capture_output=True, text=True, cwd=env.ROOT,
                             env=env.child_env(), timeout=60, check=True)
        cumulative = {}
        for line in res.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) / 1e6
        for metric, module in IMPORT_METRICS.items():
            samples[metric].append(cumulative[module])
    return {k: median(v) for k, v in samples.items()}


# ----------------------------------------------------------------------
# the traced run of one workload


def traced_run(args, wl, items, setup_samples, t_main) -> int:
    from . import harness

    plain = harness.run_passes(wl, items, 0, max_passes=1)
    failed = harness.check_outputs(wl, items, plain)

    load_targets()
    before = snapshot()
    if wl.name == "cli_session":
        env.OUT_DIR.mkdir(exist_ok=True)
        traced, parts = _traced_cli_pass(wl, items, args)
        spans_note = f"{len(parts)} child span files"
        layer = merge_layers(parts)
    else:
        tracer = Tracer()
        tracer.install()
        try:
            traced = _traced_pass(wl, items, tracer)
        finally:
            tracer.uninstall()
        layer = tracer.layer_metrics()
        spans_path = env.OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        env.OUT_DIR.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps(tracer.dump()))
        spans_note = f"{len(tracer.spans)} spans in {spans_path.relative_to(env.ROOT)}"
    restored = snapshot() == before and not wrappers_left()

    differ = [i for i in range(len(items)) if plain.first_text[i] != traced.first_text[i]]
    layer = add_ratios(layer)
    layer.update(import_times() if wl.name == "cli_session"
                 else {k: 0.0 for k in IMPORT_METRICS})
    overhead = traced.pass_normalized[0] / plain.pass_normalized[0] - 1
    layer["trace_overhead"] = overhead

    attempted = len(plain.calls) + len(traced.calls)
    failed += traced.failed_calls + len(differ)
    correct = failed == 0 and restored
    print(f"workload {wl.name} traced: {spans_note}; "
          f"untraced pass {plain.pass_normalized[0]:.4g} s, traced pass "
          f"{traced.pass_normalized[0]:.4g} s (normalized), trace_overhead {overhead:.4g}")
    print(f"  traced outputs identical to untraced: {not differ}; "
          f"fcl functions restored: {restored}")
    for k in sorted(layer):
        print(f"  {k} = {layer[k]:.6g}")
    harness._write_details(args, harness._details(args, wl, items, traced, dict(
        layer=layer, untraced_pass_seconds=plain.pass_seconds, setup_samples=setup_samples,
        identical=not differ, restored=restored, total_seconds=time.perf_counter() - t_main)))
    from .metrics import per_layer_units
    units = per_layer_units()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": layer[k], "unit": units[k]} for k in units}}))
    return 0


def _traced_pass(wl, items, tracer):
    from .harness import PassResult, timed_pass

    def set_request(i):
        tracer.request = i

    res = PassResult(len(items))
    timed_pass(wl, items, res, 0, before_each=set_request)
    return res


def _traced_cli_pass(wl, items, args):
    """One pass with every CLI child under traced_cli.py; per-child metrics."""
    from .harness import PassResult, timed_pass
    script = str(env.BENCH_DIR / "fclbench" / "traced_cli.py")
    files = [env.OUT_DIR / f"{args.workload}-seed{args.seed}-spans-{i:03d}.json"
             for i in range(len(items))]

    def use_launcher(i):
        wl.launcher = [script, str(files[i])]

    res = PassResult(len(items))
    try:
        timed_pass(wl, items, res, 0, before_each=use_launcher)
    finally:
        wl.launcher = None
    return res, [json.loads(f.read_text())["layer"] for f in files]
