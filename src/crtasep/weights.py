"""Weight functions on tableaux and the quantities built from them:
Tab_t, Tab_qtx, the partition function and stationary law, and the
Macdonald polynomials E and P for partitions with parts at most 2.

Every tableau sum is one bottom-to-top DP over rows.  A row's reading
depends only on its label, its arrow columns in label order, and the set U
of square columns whose arrow sits in a lower row, so the state after each
row is a map U (the packed product of its x_c) -> accumulated value.  Row d
moves U to U x_S for each nonempty set S of unused square columns, times
the ring's price sum_c G_c x_d x_S / x_c (``combinatorics.row_step``).  At
the end the x-monomial is x^mu / U, |U| the arrow count a, and body a takes
the factorial ratio
[r+l-a]!/[r+l]! = (1-t)^a / prod_{r+l-a<j<=r+l} (1 - q t^j) over the common
denominator prod_{r+l-A<j<=r+l}, A the largest a: the sum stays integral and
divides once.  P_lambda runs the DP once per word of its sector (all share
r+l) into one map a -> body.  The partition function needs no tableaux: it
is the product C(n, r+l) C(n, l).

The sums run in the rings of ``algebra.rings`` from their first term, and
each DP from the empty product (None; an empty S passes a value on), to one
division, which the stationary law's integer Z joins.  Tab_t packs each
polynomial in t into one int, with a width proved by counting, and prices
no x.  ``wt_qtx`` and ``wt_t`` follow the definition.  This module holds
the tableau sums alone: it imports no oracle, and no oracle imports it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, factorial, gcd
from operator import add

from .algebra.poly import MultiPoly
from .algebra.qtx import QtxExpr
from .algebra.ratfunc import RatFunc, qt_factorial_ratio
from .algebra.rings import SYMBOLIC, Ring, point_ring, t_ring, x_of
from .combinatorics import (
    ArrowOrdering,
    Tableau,
    Word,
    disorder,
    enumerate_orderings,
    enumerate_states,
    recoils,
    row_reading,
    row_step,
)


def _tableau_sum(words: list[Word], ring: Ring):
    """The sum of weights over every tableau of the words (one r + l) in the ring:
    one row DP per word into one map arrow count -> body, divided once."""
    by_arr: dict[int, object] = {}
    for mu in words:
        columns = [(c, x_of(c), a == 2) for c, a in enumerate(mu.letters, start=1) if a]
        states = {0: None}  # the product of the arrow columns' x_c so far -> their sum; None is the empty product
        for d in reversed(mu.positions_of(0)):  # the rows bottom to top
            states = row_step(states, columns, d, x_of(d), 1, ring.row)
        full = sum(xc << square for _, xc, square in columns)  # x^mu: x_i per particle, x_c^2 per 2
        for used, value in states.items():
            if ring.base:  # x^mu over the arrow columns': their x_c is the rows'
                v = ring.base(full - used)
                value = v if value is None else value * v
            elif value is None:
                value = ring.factor(0, 0, 0)  # the empty product
            a = used.bit_count()
            by_arr[a] = by_arr[a] + value if a in by_arr else value
    rl, top = words[0].r + words[0].l, max(by_arr)
    total = reduce(add, [body * ring.factor(a, rl - top, rl - a) for a, body in by_arr.items()]) if top else by_arr[0]
    return ring.divide(total, rl - top, rl)


def wt_x(tableau: Tableau, ordering: ArrowOrdering) -> QtxExpr:
    """The x-monomial of a tableau with an ordering: x_{row label} for each
    row-maximal arrow, x_{column label} for every other arrow and for each
    arrowless square column, times x_i over all particle positions."""
    diagram = tableau.diagram
    arrows = {c for c, _ in tableau.arrows}
    exps = [(a > 0) + (a == 2 and c not in arrows) for c, a in enumerate(diagram.word.letters, start=1)]
    for i in range(1, diagram.k + 1):
        order = ordering.row_order(i)
        if not order:
            continue
        exps[diagram.row_label(i) - 1] = 1  # the row-maximal arrow: x_d, d a 0 of the word
        for c in order[:-1]:
            exps[c - 1] += 1
    return QtxExpr.x_monomial(exps)


def wt_qtx_ordered(tableau: Tableau, ordering: ArrowOrdering) -> QtxExpr:
    """t^disorder q^cycling times the x-weight, for one ordering."""
    readings = [row_reading(tableau, i, ordering) for i in range(1, tableau.diagram.k + 1)]
    rec, dis = sum(map(recoils, readings)), sum(map(disorder, readings))
    return wt_x(tableau, ordering) * RatFunc(MultiPoly.monomial(rec, dis))


def wt_qtx(tableau: Tableau) -> QtxExpr:
    """The qtx-weight: [r+l-arr]!/[r+l]! times the sum over the orderings."""
    mu = tableau.diagram.word
    total = sum((wt_qtx_ordered(tableau, o) for o in enumerate_orderings(tableau)), QtxExpr.zero())
    return total * qt_factorial_ratio(mu.r + mu.l - tableau.arr, mu.r + mu.l)


def wt_t(tableau: Tableau) -> RatFunc:
    """The t-weight: wt_qtx at q = 1 and every x_i = 1."""
    return wt_qtx(tableau).specialize(q_to=1, x_to_one=True).as_ratfunc()


def tab_qtx(mu: Word) -> QtxExpr:
    """Sum of qtx-weights over all tableaux of type mu."""
    return _tableau_sum([mu], SYMBOLIC)


def tab_t(mu: Word) -> RatFunc:
    """Sum of t-weights over all tableaux; computed directly with
    t-brackets (the q = 1, x = 1 specialization of tab_qtx is a test)."""
    # t_ring's width must pass every coefficient of the sum N.  None is
    # negative, so each is at most N(1), which counting bounds: at t = 1 a
    # row's terms add up to the orders of its arrows, and arrows take
    # distinct square columns across rows, so the body of s arrows counts
    # at most the s <= l columns, C(l, s) ways, in s! orders cut into k
    # rows' lists, C(s+k-1, k-1) ways (only s = 0, one way, when k = 0);
    # its factor prod_{r+l-top<j<=r+l-s} [j]_t is at most (r+l-s)!.
    k, rl = mu.k, mu.r + mu.l
    if k:
        bound = sum(comb(mu.l, s) * factorial(s) * comb(s + k - 1, k - 1) * factorial(rl - s) for s in range(mu.l + 1))
    else:
        bound = factorial(rl)
    return _tableau_sum([mu], t_ring(bound.bit_length()))


def tab_qtx_eval(mu: Word, q0, t0, xs) -> Fraction:
    """tab_qtx evaluated at exact rationals without symbolic overhead."""
    return _tableau_sum([mu], point_ring(q0, t0, xs, mu.n))


# -- partition function and the stationary law ------------------------------


# The closed form needs no cache; this name and its lru_cache stay only
# because bench/child.py and bench/layers.py read its cache_info().
@lru_cache(maxsize=None)
def _partition_function_cached(k: int, r: int, l: int) -> RatFunc:
    return RatFunc.const(comb(k + r + l, l) * comb(k + r + l, r + l))


def partition_function(k: int, r: int, l: int) -> RatFunc:
    """Z_{k,r,l} = the sum of tab_t over the sector = P_lambda(1^n; q=1, t)
    = C(n, r+l) C(n, l), free of t, as P_lambda(x; 1, t) = e_{lambda'}(x)
    (Macdonald, Symmetric Functions and Hall Polynomials, VI §4).  Guarded by
    tests/test_weights.py::test_partition_function_is_a_product_of_binomials
    (the sector sum) and the ``symmetries`` verify suite."""
    if min(k, r, l) < 0 or k + r + l < 1:
        raise ValueError("need nonnegative counts summing to at least 1")
    return _partition_function_cached(k, r, l)


def stationary_prob(mu: Word) -> RatFunc:
    """Steady-state probability of a state, as a rational function of t.
    Tab_t is canonical: jointly primitive, its denominator's leading
    coefficient positive.  So with Z the integer partition function and g
    the gcd of Z and the numerator's content, (num/g, den Z/g) is canonical
    too (content(num)/g and Z/g are coprime, and so are the contents of num
    and den), and Z joins with one integer gcd."""
    law, z = tab_t(mu), partition_function(mu.k, mu.r, mu.l).num.terms[0, 0]
    g = gcd(*law.num.terms.values(), z)
    out = RatFunc.__new__(RatFunc)
    out.num, out.den = law.num.divide_content(g), law.den * (z // g)
    return out


# -- Macdonald polynomials ---------------------------------------------------


def macdonald_E(lam: Word) -> QtxExpr:
    """The nonsymmetric Macdonald polynomial of a partition in {0,1,2}^n,
    as the tableau sum."""
    lam.require_partition()
    return tab_qtx(lam)


def macdonald_P(lam: Word) -> QtxExpr:
    """The symmetric Macdonald polynomial: the tableau sum over all
    distinct rearrangements of the partition."""
    lam.require_partition()
    return _tableau_sum(enumerate_states(lam.k, lam.r, lam.l), SYMBOLIC)
