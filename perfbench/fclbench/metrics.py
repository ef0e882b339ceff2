"""Names, units and directions of every reported metric.

BENCHMARK.json at the repository root lists the same metrics; the
benchmark's tests check that the two agree.
"""
from .tracing import IMPORT_METRICS, RATIOS, TARGETS

# name, unit, better
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("p50_s", "s", "lower"),
    ("tail_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_STAT_UNITS = {"max_deg": "degree", "out_deg": "degree", "rho_deg": "degree",
               "max_bits": "bit", "out_bits": "bit", "rho_bits": "bit",
               "max_n": "count", "max_order": "count"}
_HIGHER = {"exactalg.algebraic.isolate_real_roots.rational_share",
           "spectra.cleaned_critical_eliminant.reuse_share"}


def per_layer():
    out = []
    for name, _mod, _attr, _meter, stats in TARGETS:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
        out += [(f"{name}.{s}", _STAT_UNITS.get(s, "count")) for s in stats]
    out += [(name, "ratio") for name in RATIOS]
    out += [(name, "s") for name in IMPORT_METRICS]
    out.append(("trace_overhead", "ratio"))
    return [(n, u, "higher" if n in _HIGHER else "lower") for n, u in out]


def per_layer_units() -> dict:
    return {n: u for n, u, _ in per_layer()}
