"""Weight functions, the stationary law, and the Macdonald polynomials.

Expected expressions below are frozen from the worked examples; the
brute-force oracles (direct enumeration over tableaux and orderings with
no row factorisation) guard the production paths.
"""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtasep.algebra import (
    MultiPoly,
    QtxExpr,
    RatFunc,
    parse,
    qt_factorial_ratio,
    qtx_sum,
    t_bracket,
    t_factorial_ratio,
)
from crtasep.combinatorics import (
    ArrowOrdering,
    Tableau,
    Word,
    build_diagram,
    enumerate_orderings,
    enumerate_states,
    enumerate_tableaux,
)
from crtasep.errors import NotAPartition
from crtasep.weights import (
    macdonald_E,
    macdonald_P,
    omega,
    partition_function,
    stationary_prob,
    tab_qtx,
    tab_qtx_eval,
    tab_t,
    wt_qtx,
    wt_qtx_ordered,
    wt_t,
    wt_x,
)

W = Word.from_string

words = st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=5).map(
    lambda ls: Word(tuple(ls))
)


def brackets(*idx):
    text = "*".join(f"((1-q*t^{i})/(1-t))" for i in idx)
    return text


def example_tableau():
    diagram = build_diagram(W("0212201022"))
    tableau = Tableau(diagram, ((2, 2), (4, 2), (5, 1), (10, 2)))
    ordering = ArrowOrdering(((1, (5,)), (2, (4, 10, 2)), (3, ())))
    return tableau, ordering


def wt_qtx_bruteforce(tableau):
    """Independent oracle: scalar times the plain sum over all orderings."""
    mu = tableau.diagram.word
    total = QtxExpr.zero()
    for ordering in enumerate_orderings(tableau):
        total = total + wt_qtx_ordered(tableau, ordering)
    return total * qt_factorial_ratio(mu.r + mu.l - tableau.arr, mu.r + mu.l)


def test_wt_x_worked_example():
    tableau, ordering = example_tableau()
    want = parse("x2*x3*x4^2*x5*x6*x7*x8*x9^2*x10^2")
    assert wt_x(tableau, ordering) == want


def test_wt_x_degree_and_arrowless():
    mu = W("221100")
    arrowless = enumerate_tableaux(mu)[0]
    ordering = enumerate_orderings(arrowless)[0]
    assert wt_x(arrowless, ordering) == parse("x1^2*x2^2*x3*x4")
    for tableau in enumerate_tableaux(mu):
        for ordering in enumerate_orderings(tableau)[:4]:
            assert wt_x(tableau, ordering).total_x_degree() == mu.r + 2 * mu.l


def test_wt_qtx_ordered_example_powers():
    tableau, ordering = example_tableau()
    got = wt_qtx_ordered(tableau, ordering)
    # dis = 12 and cyc = 3 for this ordering (rows contribute 5+7+0 and 1+2+0)
    want = parse("q^3*t^12*x2*x3*x4^2*x5*x6*x7*x8*x9^2*x10^2")
    assert got == want


@settings(max_examples=25, deadline=None)
@given(words)
def test_wt_qtx_matches_bruteforce(mu):
    for tableau in enumerate_tableaux(mu)[:12]:
        assert wt_qtx(tableau) == wt_qtx_bruteforce(tableau)


def test_wt_t_is_specialized_wt_qtx():
    for tableau in enumerate_tableaux(W("02122")):
        want = wt_qtx(tableau).specialize(q_to=1, x_to_one=True).as_ratfunc()
        assert wt_t(tableau) == want


def test_wt_qtx_scalars():
    mu = W("221100")
    full = [t for t in enumerate_tableaux(mu) if t.arr == 2]
    assert full and all(
        qt_factorial_ratio(mu.r + mu.l - t.arr, mu.r + mu.l)
        == qt_factorial_ratio(2, 4)
        for t in full
    )


def test_tab_qtx_201021_matches_display():
    four, three = brackets(4), brackets(3)
    want = parse(
        "x1^2*x3*x5^2*x6"
        f"+(x1+q*t^2*x5)*x1*x3*x4*x5*x6/({four})"
        f"+(t*x1+q*t^3*x5)*x1*x2*x3*x5*x6/({four})"
        f"+q*(t^3*x1+t*x5)*x1*x3*x4*x5*x6/({four}*{three})"
        f"+q*(t^4*x1+t^2*x5)*x1*x2*x3*x5*x6/({four}*{three})"
        f"+q*(t^2+t^3)*x1*x2*x3*x4*x5*x6/({four}*{three})"
    )
    assert tab_qtx(W("201021")) == want


def test_tab_qtx_base_cases():
    # words in 1s and 2s: a single monomial
    assert tab_qtx(W("1212")) == parse("x1*x2^2*x3*x4^2")
    assert tab_qtx(W("21")) == parse("x1^2*x2")
    # all holes: the empty tableau only
    assert tab_qtx(W("000")) == QtxExpr.one()


def test_tab_t_worked_examples():
    t43 = RatFunc(t_bracket(4) * t_bracket(3))
    got = tab_t(W("221100")) * t43
    assert got == RatFunc(parse("(t+1)*(t^4+t^3+6*t^2+t+6)").as_ratfunc().as_poly())
    got = tab_t(W("201021")) * t43
    assert got == RatFunc(parse("(t+1)*(t^2+t+1)*(2*t^2+t+2)").as_ratfunc().as_poly())


@settings(max_examples=30, deadline=None)
@given(words)
def test_tab_t_is_specialized_tab_qtx(mu):
    assert tab_qtx(mu).specialize(q_to=1, x_to_one=True).as_ratfunc() == tab_t(mu)


@settings(max_examples=30, deadline=None)
@given(words)
def test_tab_t_at_one(mu):
    want = Fraction(
        comb(mu.n, mu.l) * factorial(mu.l) * factorial(mu.r), factorial(mu.r + mu.l)
    )
    assert tab_t(mu).evaluate(1, 1) == want


def test_numeric_twins_match_symbolic():
    mu = W("201021")
    q0, t0 = Fraction(2, 7), Fraction(3, 5)
    xs = tuple(Fraction(i + 1, 2) for i in range(6))
    assert tab_qtx_eval(mu, q0, t0, xs) == tab_qtx(mu).evaluate(q0, t0, xs)
    assert tab_qtx_eval(mu, 1, t0, (1,) * mu.n) == tab_t(mu).evaluate(1, t0)
    for wrong in (xs[:5], xs + (Fraction(1),)):
        with pytest.raises(ValueError, match="need 6 x-values"):
            tab_qtx_eval(mu, q0, t0, wrong)


def test_partition_function_values():
    # no holes: every word weighs 1, so Z counts the states
    assert partition_function(0, 2, 2) == RatFunc.const(comb(4, 2))
    for mu in enumerate_states(0, 2, 2):
        assert tab_t(mu) == RatFunc.one()
    assert partition_function(3, 0, 0) == RatFunc.one()
    # t = 1: uniform weight times the number of states
    z = partition_function(2, 2, 2)
    assert z.evaluate(1, 1) == Fraction(90 * comb(6, 2) * 4, factorial(4))


def test_partition_function_is_the_sum_of_tab_t_over_the_sector():
    # the paper's Z is the sum of tab_t over the sector; check the closed
    # form against that sum on every sector with n <= 6
    for n in range(1, 7):
        for k in range(n + 1):
            for r in range(n - k + 1):
                l = n - k - r
                want = RatFunc.zero()
                for mu in enumerate_states(k, r, l):
                    want = want + tab_t(mu)
                assert partition_function(k, r, l) == want


def test_partition_function_is_a_product_of_binomials():
    # Z_{k,r,l} = P_lambda(1, ..., 1; q = 1, t) = e_{r+l}(1^n) e_l(1^n)
    # (Macdonald VI.4: P_lambda(x; 1, t) = e_{lambda'}), free of t
    for n in range(1, 7):
        for k in range(n + 1):
            for r in range(n - k + 1):
                l = n - k - r
                assert partition_function(k, r, l) == RatFunc.const(comb(n, l) * comb(n, r + l))


def test_partition_function_rejects_negative_counts():
    for counts in ((-1, 2, 1), (2, -1, 1), (1, 2, -3), (0, 0, 0)):
        with pytest.raises(ValueError, match="need nonnegative counts summing to at least 1"):
            partition_function(*counts)


def test_stationary_probabilities_normalise():
    total = RatFunc.zero()
    for mu in enumerate_states(1, 2, 1):
        total = total + stationary_prob(mu)
    assert total == RatFunc.one()
    assert stationary_prob(W("000")) == RatFunc.one()
    # uniform at t = 1
    assert stationary_prob(W("201021")).evaluate(1, 1) == Fraction(1, 90)


def test_macdonald_e_221100_matches_display():
    three, four = brackets(3), brackets(4)
    want = parse(
        "x1^2*x2^2*x3*x4"
        f"+q*(x1+x2)*(x5+x6)*x1*x2*x3*x4/({three})"
        f"+q^2*(1+t)*x1*x2*x3*x4*x5*x6/({three}*{four})"
    )
    assert macdonald_E(W("221100")) == want


def test_macdonald_e_small():
    assert macdonald_E(W("1111")) == parse("x1*x2*x3*x4")
    assert macdonald_E(W("20")) == parse("x1^2+q*(1-t)/(1-q*t)*x1*x2")
    with pytest.raises(NotAPartition):
        macdonald_E(W("201021"))


def test_macdonald_p_values():
    assert macdonald_P(W("110")) == parse("x1*x2+x1*x3+x2*x3")
    assert macdonald_P(W("20")) == parse("x1^2+x2^2+(1+q)*(1-t)/(1-q*t)*x1*x2")
    assert macdonald_P(W("000")) == QtxExpr.one()
    with pytest.raises(NotAPartition):
        macdonald_P(W("021"))


def test_macdonald_p_is_the_sum_of_tab_qtx_over_the_sector():
    for text in ("221100", "211000"):
        lam = W(text)
        want = qtx_sum(tab_qtx(mu) for mu in enumerate_states(lam.k, lam.r, lam.l))
        assert macdonald_P(lam) == want


def test_macdonald_p_symmetric():
    for text in ("210", "2110"):
        poly = macdonald_P(W(text))
        for i in range(1, len(text)):
            assert poly.swap_x(i) == poly


def test_dominant_coefficient_is_one():
    for text in ("20", "210", "2110", "221100", "1100", "2200"):
        lam = W(text)
        exps = tuple(lam.letters)
        assert macdonald_E(lam).coefficient(exps) == RatFunc.one()


def test_omega():
    one, q, t = MultiPoly.one(), MultiPoly.q, MultiPoly.t
    assert omega(W("221100")) == RatFunc(one - q() * t(2))
    assert omega(W("1100")) == RatFunc.one()
    assert omega(W("22")) == RatFunc(one - q())
    assert omega(W("000")) == RatFunc.one()


def test_positivity_normalisation():
    for text in ("221100", "201021", "2210", "0212"):
        mu = W(text)
        normal = t_factorial_ratio(mu.r, mu.r + mu.l).inverse() * tab_t(mu)
        assert normal.is_poly()
        assert all(
            c.denominator == 1 and c > 0 for c in normal.as_poly().terms.values()
        )
