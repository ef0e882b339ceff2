"""Exact rational and polynomial algebra kernel."""

from .algebraic import AlgebraicReal, is_real_rooted_at, isolate_real_roots
from .bipoly import BiPoly, resultant_w, subresultant_table
from .hankel import hankel_det
from .intervals import Iv, iv_poly_eval
from .poly import (Poly, Rat, as_rat, is_squarefree, poly_gcd, rat_str,
                   resultant, squarefree_part)
from .sturm import (NEG_INF, POS_INF, cauchy_bound,
                    count_distinct_real_roots, is_real_rooted, sturm_chain,
                    sturm_count)

__all__ = [
    "AlgebraicReal", "BiPoly", "Iv", "NEG_INF", "POS_INF", "Poly", "Rat",
    "as_rat", "cauchy_bound", "count_distinct_real_roots", "hankel_det",
    "is_real_rooted", "is_real_rooted_at", "is_squarefree",
    "isolate_real_roots", "iv_poly_eval", "poly_gcd", "rat_str", "resultant",
    "resultant_w", "squarefree_part", "sturm_chain", "sturm_count",
    "subresultant_table",
]
