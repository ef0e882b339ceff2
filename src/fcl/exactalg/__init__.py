"""Exact rational and polynomial algebra kernel.

Each public name is imported from its submodule on first access
(PEP 562), so `from .exactalg import Poly` loads `poly` alone.
"""

from importlib import import_module

_EXPORTS = {
    "algebraic": ("AlgebraicReal", "isolate_real_roots"),
    "bipoly": ("BiPoly", "lower_subresultants", "resultant_w"),
    "hankel": ("hankel_det", "integer_prefix", "leading_minors"),
    "intervals": ("Iv", "iv_poly_eval"),
    "poly": ("Poly", "Rat", "as_rat", "is_squarefree", "poly_gcd", "rat_str",
             "resultant", "squarefree_part"),
    "sturm": ("count_distinct_real_roots", "is_real_rooted", "real_rooted_from_signs",
              "sturm_chain"),
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
