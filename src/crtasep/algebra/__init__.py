"""Exact arithmetic: integer polynomials in q,t, the field Q(q,t), x-polynomials over it, and q,t-brackets;
``algebra.rings`` holds the coefficient rings that the tableau sums and the trace recurrence run in."""

from .poly import MultiPoly, poly_divexact, poly_gcd
from .qtx import (
    QtxExpr,
    canonical_string,
    from_json,
    from_json_dict,
    parse,
    poly_string,
    ratfunc_string,
    to_json,
    to_json_dict,
)
from .ratfunc import (
    RatFunc,
    qt_bracket,
    qt_factorial,
    qt_factorial_ratio,
    t_bracket,
    t_factorial,
    t_factorial_ratio,
)

__all__ = [
    "MultiPoly",
    "QtxExpr",
    "RatFunc",
    "canonical_string",
    "from_json",
    "from_json_dict",
    "parse",
    "poly_divexact",
    "poly_gcd",
    "poly_string",
    "qt_bracket",
    "qt_factorial",
    "qt_factorial_ratio",
    "ratfunc_string",
    "t_bracket",
    "t_factorial",
    "t_factorial_ratio",
    "to_json",
    "to_json_dict",
]
