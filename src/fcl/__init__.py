"""Exact calculus on rational functions F(w) = w P(w)/Q(w).

Free and monotone convolution, moment/cumulant extraction, characteristic
polynomials with real-rootedness certificates, Hankel positivity verdicts,
phase-transition scans, named distribution families, and a numeric density
engine — all over exact rational arithmetic.

`import fcl` loads no submodule: each public name is imported from its
submodule on first access (PEP 562), so `from fcl import critical_ts`
pays only for what `critical_ts` needs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "classf": ("ClassF", "RatFun", "SeriesPrefix", "boxplus", "char_poly",
               "compose", "cumulants", "dilate", "free_power", "from_r",
               "identity_f", "make_classf", "make_ratfun", "moments",
               "r_transform", "translate"),
    "errors": ("ComputationError", "ContinuationFailure",
               "DecompositionNotReal", "DegenerateEliminant", "FclError",
               "InvalidRTransform", "NetworkDisabled", "NotFound",
               "NotInClass", "ParseError"),
    "exactalg.algebraic": ("AlgebraicReal",),
    "exactalg.bipoly": ("BiPoly",),
    "exactalg.poly": ("Poly", "Rat"),
    "posdef": ("HankelVerdict", "fid_check", "hankel_verdict",
               "is_moment_positive_up_to"),
    "spectra": ("CriticalReport", "NSetResult", "Pencil", "Verdict",
                "char_poly_t", "cg_region", "critical_ts",
                "deg3_rr0", "is_rr", "is_rr0", "is_singular", "lb_curve",
                "n_set", "r3_poly_rr0", "r4_c0_classify",
                "r4_singular_params", "rr0_at_algebraic_t"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
