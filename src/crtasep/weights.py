"""Weight functions on tableaux and the quantities built from them:
Tab_t, Tab_qtx, the partition function and stationary law, and the
Macdonald polynomials E and P for partitions with parts at most 2.

Every tableau sum is one bottom-to-top DP over rows.  A row's reading
depends only on its label, its arrow columns in label order, and the set U
of square columns whose arrow sits in a lower row, so the state after each
row is a map U -> accumulated value.  Row i moves U to U | S for each set S
of unused square columns, times the sum over the orders of S of one
ordering's value.  At the end |U| is the arrow count a.  P_lambda, a sector
sum, runs this DP once per word into one shared map a -> body: every word of
a sector has the same r+l, so each body is multiplied once by its factorial
ratio [r+l-a]!/[r+l]! and the answer is reduced once.  The partition
function needs no tableaux: it is the product C(n, r+l) C(n, l).

The values live in a small coefficient ``Ring``: ``SYMBOLIC`` (q,t,x
monomials, giving Tab_qtx), ``T_ONLY`` (t-monomials, giving Tab_t) and
``point_ring`` (exact rationals at one point).  The trace recurrence in
``oracles.recurrence`` uses the same rings.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, NamedTuple

from .algebra.poly import MultiPoly
from .algebra.qtx import QtxExpr
from .algebra.ratfunc import RatFunc, qt_factorial_ratio, t_factorial_ratio
from .combinatorics import (
    ArrowOrdering,
    Diagram,
    Tableau,
    Word,
    build_diagram,
    disorder,
    enumerate_states,
    reading_of,
    recoils,
    row_reading,
)

class Ring(NamedTuple):
    """The coefficient ring of a tableau or trace sum.  Values of ``term``
    are added and multiplied by each other; ``ratio`` and ``base`` values
    multiply them into the ring of the answer."""

    term: Callable  # (rec, dis, x_exponents) -> q^rec t^dis x^x_exponents
    ratio: Callable  # (a, b) -> [a]!/[b]!
    base: Callable | None  # (x_exponents, r) -> x^x_exponents / (1 - q t^r)


def _qtx_ratio(a: int, b: int) -> QtxExpr:
    return QtxExpr.from_ratfunc(qt_factorial_ratio(a, b))


def _qtx_base(exps, r: int) -> QtxExpr:
    return QtxExpr.x_monomial(exps, RatFunc(MultiPoly.one(), MultiPoly.one() - MultiPoly.q() * MultiPoly.t(r)))


SYMBOLIC = Ring(MultiPoly.monomial, _qtx_ratio, _qtx_base)
T_ONLY = Ring(lambda rec, dis, exps: MultiPoly.monomial(0, dis, ()), t_factorial_ratio, None)


def point_ring(q0, t0, xs, n: int) -> Ring:
    """The values at q = q0, t = t0 and the n values x = xs, as exact
    rationals."""
    q0, t0 = Fraction(q0), Fraction(t0)
    xs = tuple(Fraction(v) for v in xs)
    if len(xs) != n:
        raise ValueError(f"need {n} x-values")
    ratios: dict[tuple[int, int], Fraction] = {}

    def term(rec: int, dis: int, exps) -> Fraction:
        v = q0**rec * t0**dis
        for x, e in zip(xs, exps):
            if e:
                v *= x**e
        return v

    def ratio(a: int, b: int) -> Fraction:
        if (a, b) not in ratios:
            v = Fraction(1)
            for j in range(a + 1, b + 1):
                v /= (1 - q0 * t0**j) / (1 - t0)
            ratios[a, b] = v
        return ratios[a, b]

    def base(exps, r: int) -> Fraction:
        return term(0, 0, exps) / (1 - q0 * t0**r)

    return Ring(term, ratio, base)


def _fixed_exps(diagram: Diagram, used) -> list[int]:
    """x_i for each particle position, and once more for each square
    column without an arrow (not in ``used``)."""
    exps = [1 if a else 0 for a in diagram.word.letters]
    for c in diagram.square_cols:
        if c not in used:
            exps[c - 1] += 1
    return exps


def _row_factor(diagram: Diagram, d: int, cols, below, term):
    """Sum over the label orders of the arrows in ``cols`` of one row
    labeled d: q^rec t^dis x_d x_{every arrow but the last labeled}."""
    total = 0
    for perm in itertools.permutations(cols):
        reading = reading_of(diagram, d, perm, below)
        exps = [0] * diagram.word.n
        exps[d - 1] = 1
        for c in perm[:-1]:
            exps[c - 1] += 1
        total = total + term(recoils(reading), disorder(reading), exps)
    return total


def _tableau_sum(diagrams: list[Diagram], ring: Ring, tableau: Tableau | None = None):
    """The sum of weights over every tableau of the diagrams, which share
    one r + l (over the one ``tableau`` of a one-diagram list when given),
    in the ring: one row-subset DP per diagram into one map from arrow
    count to body, then one factorial ratio per arrow count."""
    by_arr: dict[int, object] = {}
    for diagram in diagrams:
        states = {frozenset(): 1}
        for i in range(1, diagram.k + 1):
            d = diagram.row_label(i)
            after: dict[frozenset, object] = {}
            for used, value in states.items():
                if tableau is not None:
                    choices = [tableau.row_arrow_cols(i)]
                else:
                    free = [c for c in diagram.square_cols if c not in used]
                    choices = itertools.chain.from_iterable(
                        itertools.combinations(free, size) for size in range(len(free) + 1)
                    )
                for cols in choices:
                    # a row without arrows reads no labels: its factor is 1
                    v = value * _row_factor(diagram, d, cols, used, ring.term) if cols else value
                    key = used.union(cols)
                    after[key] = after[key] + v if key in after else v
            states = after
        for used, value in states.items():
            v = value * ring.term(0, 0, _fixed_exps(diagram, used))
            a = len(used)
            by_arr[a] = by_arr[a] + v if a in by_arr else v
    rl = diagrams[0].word.r + diagrams[0].word.l
    return sum(ring.ratio(rl - a, rl) * body for a, body in sorted(by_arr.items()))


def wt_x(tableau: Tableau, ordering: ArrowOrdering) -> QtxExpr:
    """The x-monomial of a tableau with an ordering: x_{row label} for each
    row-maximal arrow, x_{column label} for every other arrow and for each
    arrowless square column, times x_i over all particle positions."""
    diagram = tableau.diagram
    exps = _fixed_exps(diagram, {c for c, _ in tableau.arrows})
    for i in range(1, diagram.k + 1):
        order = ordering.row_order(i)
        if not order:
            continue
        exps[diagram.row_label(i) - 1] += 1  # the row-maximal arrow
        for c in order[:-1]:
            exps[c - 1] += 1
    return QtxExpr.x_monomial(exps)


def wt_qtx_ordered(tableau: Tableau, ordering: ArrowOrdering) -> QtxExpr:
    """t^disorder q^cycling times the x-weight, for one ordering."""
    dis = 0
    rec = 0
    for i in range(1, tableau.diagram.k + 1):
        reading = row_reading(tableau, i, ordering)
        dis += disorder(reading)
        rec += recoils(reading)
    return QtxExpr.from_multipoly(MultiPoly.monomial(rec, dis, ())) * wt_x(tableau, ordering)


def wt_qtx(tableau: Tableau) -> QtxExpr:
    """The qtx-weight: the factorial ratio times the ordering sum."""
    return _tableau_sum([tableau.diagram], SYMBOLIC, tableau)


def wt_t(tableau: Tableau) -> RatFunc:
    """The t-weight: q and x dropped."""
    return _tableau_sum([tableau.diagram], T_ONLY, tableau)


def tab_qtx(mu: Word) -> QtxExpr:
    """Sum of qtx-weights over all tableaux of type mu."""
    return _tableau_sum([build_diagram(mu)], SYMBOLIC)


def tab_t(mu: Word) -> RatFunc:
    """Sum of t-weights over all tableaux; computed directly with
    t-brackets (the q = 1, x = 1 specialization of tab_qtx is a test)."""
    return _tableau_sum([build_diagram(mu)], T_ONLY)


def tab_qtx_eval(mu: Word, q0, t0, xs) -> Fraction:
    """tab_qtx evaluated at exact rationals without symbolic overhead."""
    return _tableau_sum([build_diagram(mu)], point_ring(q0, t0, xs, mu.n))


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
    """Steady-state probability of a state, as a rational function of t."""
    return tab_t(mu) / partition_function(mu.k, mu.r, mu.l)


# -- Macdonald polynomials ---------------------------------------------------


def omega(lam: Word) -> RatFunc:
    """The scalar attached to a partition: the product over 1 <= i < j <= s
    of (1 - q^(j-i) t^(conj_i - conj_j)), s the largest part; empty product
    1 when s <= 1."""
    lam.require_partition()
    parts = lam.letters
    s = parts[0] if parts else 0
    conj = [sum(1 for a in parts if a >= i) for i in range(1, s + 1)]
    out = RatFunc.one()
    for i in range(1, s + 1):
        for j in range(i + 1, s + 1):
            out = out * RatFunc(
                MultiPoly.one() - MultiPoly.q(j - i) * MultiPoly.t(conj[i - 1] - conj[j - 1])
            )
    return out


def macdonald_E(lam: Word) -> QtxExpr:
    """The nonsymmetric Macdonald polynomial of a partition in {0,1,2}^n,
    as the tableau sum."""
    lam.require_partition()
    return tab_qtx(lam)


def macdonald_P(lam: Word) -> QtxExpr:
    """The symmetric Macdonald polynomial: the tableau sum over all
    distinct rearrangements of the partition."""
    lam.require_partition()
    return _tableau_sum([build_diagram(mu) for mu in enumerate_states(lam.k, lam.r, lam.l)], SYMBOLIC)
