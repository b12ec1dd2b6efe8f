"""Weight functions, the stationary law, and the Macdonald polynomials.

Expected expressions below are frozen from the worked examples; the
brute-force oracles (direct enumeration over tableaux and orderings with
no row factorisation) guard the production paths.
"""

import itertools
import random
from fractions import Fraction
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtasep.algebra import (
    MultiPoly,
    QtxExpr,
    RatFunc,
    canonical_string,
    parse,
    poly_divexact,
    qt_factorial_ratio,
    ratfunc_string,
    t_bracket,
    t_factorial_ratio,
)
from crtasep.algebra import ratfunc, rings
from crtasep.algebra.ratfunc import qt_factor
from crtasep.algebra.rings import Ring, point_ring, t_ring
from crtasep import combinatorics, weights
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
from crtasep.oracles.recurrence import f_mu, omega, trace_by_recurrence, trace_rec_eval
from crtasep.weights import (
    _tableau_sum,
    macdonald_E,
    macdonald_P,
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
    """wt_qtx is the definition (the ratio times the plain sum over the
    orderings), so its sum over the tableaux is the brute force of the DP."""
    assert sum((wt_qtx(tableau) for tableau in enumerate_tableaux(mu)), QtxExpr.zero()) == tab_qtx(mu)


@settings(max_examples=25, deadline=None)
@given(words)
def test_wt_t_is_specialized_wt_qtx(mu):
    """wt_t, the q = 1, x = 1 value of wt_qtx, sums to the t-only DP."""
    assert sum((wt_t(tableau) for tableau in enumerate_tableaux(mu)), RatFunc.zero()) == tab_t(mu)


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


# q = 1 in MultiPoly arithmetic, each row's entry summed term by term, each
# x-monomial priced as 1 and each factor with its (1 - t)^a: the packed
# t-ring's answers must be this ring's
T_REFERENCE = Ring(
    lambda entry, labels, x: sum((g.subs_q(1) for g in entry), MultiPoly.zero()),
    lambda x: MultiPoly.one(),
    lambda a, lo, hi: qt_factor(a, lo, hi).subs_q(1),
    lambda value, lo, hi: RatFunc(value, qt_factor(0, lo, hi).subs_q(1)),
)

# n <= 10 sectors with many square columns to each row; tab_t's width bound
# gives 18 bits for (4,0,6), 20 for (3,0,7), 15 for (5,0,5), 18 for (3,1,6)
WIDE_SECTORS = [(4, 0, 6), (3, 0, 7), (5, 0, 5), (3, 1, 6), (4, 1, 5), (5, 1, 4), (6, 0, 4)]


def wide_and_sampled_words():
    rng = random.Random(0)
    for sector in WIDE_SECTORS:
        yield from rng.sample(enumerate_states(*sector), 3)
    for _ in range(40):
        yield Word(tuple(rng.choice((0, 1, 2)) for _ in range(rng.randint(1, 9))))


def test_tab_t_matches_the_multipoly_reference_ring():
    for mu in wide_and_sampled_words():
        assert tab_t(mu) == _tableau_sum([mu], T_REFERENCE), mu


def test_packed_width_must_pass_every_coefficient(monkeypatch):
    # the packed sum N is the reference sum over (1 - t)^top; a width that
    # cannot hold N's largest coefficient must change the answer
    widths = []
    monkeypatch.setattr(weights, "t_ring", lambda width: widths.append(width) or t_ring(width))
    sums = []
    capture = T_REFERENCE._replace(divide=lambda value, lo, hi: sums.append((value, hi - lo)))
    for text in ("2020202020", "0202020202", "2222200000", "0222222000", "2102120", "221100"):
        mu = W(text)
        want = tab_t(mu)
        _tableau_sum([mu], capture)
        value, top = sums.pop()
        n_coeffs = poly_divexact(value, (MultiPoly.one() - MultiPoly.t()) ** top).terms.values()
        assert min(n_coeffs) >= 0
        fits = max(n_coeffs).bit_length()
        assert fits <= widths.pop(), text
        packed = lambda width: _tableau_sum([mu], t_ring(width))
        assert packed(fits) == want
        assert packed(fits - 1) != want, text


def test_t_ring_pays_nothing_for_x(monkeypatch):
    # q = 1 and x = 1: tab_t prices no base monomial, decodes none, and
    # makes one row lookup per (row, state, subset): (2^l - 1) subsets in
    # the bottom row, then 3^l - 2^l pairs of a state U and a nonempty
    # subset of the 2s outside it in each of the k - 1 rows above
    rows, bases, decoded = [], [], []

    def counted(width):
        ring = t_ring(width)
        return ring._replace(
            row=lambda entry, labels, x: rows.append(labels) or ring.row(entry, labels, x),
            base=ring.base and (lambda x: bases.append(x) or ring.base(x)),
        )

    x_tuple = rings._x_tuple
    monkeypatch.setattr(rings, "_x_tuple", lambda x: decoded.append(x) or x_tuple(x))
    words = [Word(ls) for n in range(1, 7) for ls in itertools.product((0, 1, 2), repeat=n)]
    want = [tab_t(mu) for mu in words]
    monkeypatch.setattr(weights, "t_ring", counted)
    for mu, value in zip(words, want):
        rows.clear()
        assert tab_t(mu) == value, mu
        k, l = mu.k, mu.l
        assert len(rows) == (2**l - 1 + (k - 1) * (3**l - 2**l) if k else 0), mu
    assert bases == [] and decoded == []


def gcd_t_ring(width):
    """t_ring reading N's digits into a MultiPoly and reducing it over
    prod [j]_t with poly_gcd, as RatFunc does for arbitrary input."""
    mask = (1 << width) - 1

    def divide(value, lo, hi):
        n = MultiPoly({(0, e): value >> width * e & mask for e in range(-(-value.bit_length() // width))})
        return RatFunc(n, t_factorial_ratio(lo, hi).den)

    return t_ring(width)._replace(divide=divide)


def test_cyclotomic_division_matches_the_gcd_route(monkeypatch):
    every_word_to_n6 = [Word(ls) for n in range(1, 7) for ls in itertools.product((0, 1, 2), repeat=n)]
    words = every_word_to_n6 + list(wide_and_sampled_words())
    got = [tab_t(mu) for mu in words]
    monkeypatch.setattr(weights, "t_ring", gcd_t_ring)
    for mu, value in zip(words, got):
        want = tab_t(mu)
        assert (value.num.terms, value.den.terms) == (want.num.terms, want.den.terms), mu


def phi(d):
    return MultiPoly({(0, e): c for e, c in enumerate(rings.cyclotomic(d))})


@pytest.mark.parametrize(
    "text, kept, signed",
    [
        ("02222", (), False),  # (0, 4]: Phi_2 twice, then Phi_3 and Phi_4, all divide
        ("01222", (2,), False),  # (1, 4]: Phi_2 once of its two
        ("011102", (4,), True),  # (3, 4]: Phi_2 leaves signed digits, on which Phi_4 fails
        ("0112222", (3,), True),  # (2, 6]: Phi_2 twice, Phi_3 once of two, Phi_5 leaves signed digits
    ],
)
def test_cyclotomic_division_named_cases(monkeypatch, text, kept, signed):
    quotients = []
    divmod_monic = rings._divmod_monic

    def spy(p, m):
        out = divmod_monic(p, m)
        quotients.append(out[0])
        return out

    monkeypatch.setattr(rings, "_divmod_monic", spy)
    got = tab_t(W(text))
    assert got.den == prod(map(phi, kept), start=MultiPoly.one())
    assert any(min(q, default=0) < 0 for q in quotients) == signed
    monkeypatch.setattr(weights, "t_ring", gcd_t_ring)
    assert got == tab_t(W(text))


def test_cyclotomic_polynomials():
    t = MultiPoly.t
    assert phi(6) == t(2) - t() + 1
    assert phi(8) == t(4) + 1
    for j in range(1, 11):
        assert prod((phi(d) for d in range(1, j + 1) if j % d == 0), start=MultiPoly.one()) == t(j) - 1


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=8).filter(any),
    st.lists(st.integers(1, 8), max_size=4),
    st.integers(0, 4),
    st.integers(0, 5),
)
def test_cyclotomic_division_of_signed_digits(coeffs, brackets, lo, span):
    # N = c * prod [j]_t over some j, any signs, over prod_{lo<j<=hi} [j]_t
    n = MultiPoly({(0, e): c for e, c in enumerate(coeffs)}) * prod(map(t_bracket, brackets), start=MultiPoly.one())
    digits = [n.terms.get((0, e), 0) for e in range(n.degree_t() + 1)]
    got = rings._cyclotomic_divide(digits, lo, lo + span)
    want = RatFunc(n, t_factorial_ratio(lo, lo + span).den)
    assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)


def test_tab_t_and_the_law_make_no_gcd(monkeypatch):
    def forbidden(a, b):
        raise AssertionError("no gcd or exact division on the tab_t route")

    monkeypatch.setattr(ratfunc, "poly_gcd", forbidden)
    monkeypatch.setattr(ratfunc, "poly_divexact", forbidden)
    for text in ("02222", "0112222", "2020202020", "221100"):
        tab_t(W(text))
        stationary_prob(W(text))


def test_numeric_twins_match_symbolic():
    mu = W("201021")
    q0, t0 = Fraction(2, 7), Fraction(3, 5)
    xs = tuple(Fraction(i + 1, 2) for i in range(6))
    assert tab_qtx_eval(mu, q0, t0, xs) == tab_qtx(mu).evaluate(q0, t0, xs)
    assert tab_qtx_eval(mu, 1, t0, (1,) * mu.n) == tab_t(mu).evaluate(1, t0)
    for wrong in (xs[:5], xs + (Fraction(1),)):
        with pytest.raises(ValueError, match="need 6 x-values"):
            tab_qtx_eval(mu, q0, t0, wrong)


def test_reading_stats_table_stays_within_its_bound():
    # words of length n have at most sum_{m<n} (m+1) 2^m layouts; the cap
    # is that bound at verify's n = 10
    assert combinatorics.READING_STATS_CAP == sum((m + 1) * 2**m for m in range(10))
    combinatorics._READING_STATS.clear()
    q0, t0, xs = Fraction(1, 3), Fraction(2, 5), [Fraction(j, 4) for j in range(3, 8)]
    for n in range(1, 6):
        for letters in itertools.product((0, 1, 2), repeat=n):
            mu = Word(letters)
            tab_qtx_eval(mu, q0, t0, xs[:n])
            trace_rec_eval(mu, q0, t0, xs[:n])
    assert 0 < len(combinatorics._READING_STATS) <= sum((m + 1) * 2**m for m in range(5))


coefficients = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 9)), st.integers(1, 30), min_size=1, max_size=6
).map(MultiPoly)


@settings(max_examples=50, deadline=None)
@given(coefficients, st.fractions(min_value=-2, max_value=2, max_denominator=7), st.fractions(max_denominator=7))
def test_point_ring_caches_the_value_of_each_coefficient(coeff, q0, t0):
    ring = point_ring(q0, t0, (Fraction(3, 2), Fraction(-2)), 2)
    x2 = rings.x_of(2)  # coeff x / x_2 for a row of one label, x_2, over an empty bracket product
    value = lambda x: ring.divide(ring.row((coeff,), (x2,), x + x2), 0, 0)
    want = coeff.evaluate(q0, t0)
    assert value(0) == want
    assert value(2 * rings.x_of(1) + x2) == want * Fraction(9, 4) * -2  # from the cache
    assert value(0) == want


def test_scaled_sums_and_products_are_those_of_fractions():
    # v / L^k: + with equal k adds the v's, with unequal k scales the lower
    # one up; * adds the k's
    rng = random.Random(27)
    equal = 0
    for _ in range(400):
        L = rng.randint(2, 40)
        power = rings._Table(L.__pow__)
        a, b = (rings._Scaled(rng.randint(-(10**9), 10**9), rng.randint(0, 5), power) for _ in range(2))
        if rng.random() < 0.5:
            b.k = a.k
        equal += a.k == b.k
        value = lambda s: Fraction(s.v, L**s.k)
        assert value(a + b) == value(b + a) == value(a) + value(b)
        assert (a + b).k == max(a.k, b.k)
        assert value(a * b) == value(a) * value(b)
    assert 150 < equal < 350


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


def test_stationary_prob_is_tab_t_over_z_in_canonical_form():
    # Z joins Tab_t's denominator by one integer gcd: the result must be the
    # field quotient's canonical form, and term for term the pair normalised
    # from scratch; on some words the gcd cancels part of Z
    cancelled = 0
    for n in range(1, 7):
        for letters in itertools.product((0, 1, 2), repeat=n):
            mu = Word(letters)
            law, z = tab_t(mu), partition_function(mu.k, mu.r, mu.l)
            want = law / z
            got = stationary_prob(mu)
            assert got == want and ratfunc_string(got) == ratfunc_string(want), mu
            pair = RatFunc._reduced(law.num, law.den * z.num)
            assert (got.num.terms, got.den.terms) == (pair.num.terms, pair.den.terms), mu
            # Tab_t's denominator is monic, so got's content is Z/g
            cancelled += gcd(*got.den.terms.values()) < z.num.terms[0, 0]
    assert cancelled > 0


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
        want = sum((tab_qtx(mu) for mu in enumerate_states(lam.k, lam.r, lam.l)), QtxExpr.zero())
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


def test_kernel_coefficients_are_ratfuncs():
    """The kernels accumulate over Z[q, t] (MultiPoly coefficients); every
    answer they return has RatFunc coefficients, so it hashes like the same
    expression parsed from text."""
    mus = [W("".join(map(str, ls))) for n in range(1, 5) for ls in itertools.product((0, 1, 2), repeat=n)]
    mus.append(W("2211000"))
    for mu in mus:
        exprs = [tab_qtx(mu), trace_by_recurrence(mu), f_mu(mu)]
        if list(mu.letters) == sorted(mu.letters, reverse=True):
            exprs += [macdonald_E(mu), macdonald_P(mu)]
        for e in exprs:
            assert all(type(c) is RatFunc for c in e.coeffs.values()), mu
            back = parse(canonical_string(e))
            assert back == e and hash(back) == hash(e), mu
