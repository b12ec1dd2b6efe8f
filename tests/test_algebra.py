"""Exact arithmetic: polynomials, the rational-function field, brackets,
canonical text and JSON round-trips."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crtasep.algebra import (
    MultiPoly,
    QtxExpr,
    RatFunc,
    canonical_string,
    from_json,
    parse,
    poly_divexact,
    poly_gcd,
    qt_bracket,
    qt_factorial,
    qt_factorial_ratio,
    t_bracket,
    t_factorial,
    to_json,
)
from crtasep.algebra.ratfunc import divide_by_brackets, qt_factor
from crtasep.errors import ParseError, PoleError

Q = MultiPoly.q
T = MultiPoly.t


# -- strategies --------------------------------------------------------------

coeffs = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4
).filter(lambda c: c != 0)


def _over_z(terms):
    """(p, m): the integer polynomial p = m * sum(terms), where the keys of
    ``terms`` are monomials, its values rational coefficients, and m is the
    lcm of their denominators."""
    m = math.lcm(*[c.denominator for c in terms.values()])
    return MultiPoly({key: int(c * m) for key, c in terms.items()}), m


@st.composite
def qt_terms(draw, max_terms=4, max_exp=4):
    """A nonzero polynomial in q, t with rational coefficients, as terms."""
    return draw(
        st.dictionaries(
            st.tuples(st.integers(0, max_exp), st.integers(0, max_exp)),
            coeffs,
            min_size=1,
            max_size=max_terms,
        )
    )


def qt_polys(max_terms=4, max_exp=4):
    """The integer associates of ``qt_terms``."""
    return qt_terms(max_terms, max_exp).map(lambda terms: _over_z(terms)[0])


@st.composite
def bracket_products(draw):
    """Products of (1 - t) and (1 - q t^i), the weight-denominator factors."""
    out = MultiPoly.one()
    for i in draw(st.lists(st.integers(-1, 3), min_size=1, max_size=3)):
        out = out * (MultiPoly.one() - (T() if i < 0 else Q() * T(i)))
    return out


@st.composite
def ratfuncs(draw):
    num, a = _over_z(draw(qt_terms()))
    den, b = _over_z(draw(qt_terms()))
    # (num / a) / (den / b): the denominators move into the RatFunc
    return RatFunc(num * b, den * a)


@st.composite
def qtx_exprs(draw, nvars=3):
    n_terms = draw(st.integers(0, 4))
    coeffs_map = {}
    for _ in range(n_terms):
        xs = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        coeffs_map[xs] = draw(ratfuncs())
    return QtxExpr(coeffs_map)


# -- brackets ----------------------------------------------------------------


def test_qt_bracket_values():
    assert qt_bracket(1) == RatFunc(MultiPoly.one() - Q() * T(), MultiPoly.one() - T())
    assert qt_bracket(0) == RatFunc.one()
    # q = 1 recovers the t-bracket
    assert qt_bracket(3).subs_q(1) == RatFunc(t_bracket(3))


def test_qt_bracket_q1_matches_t_bracket_up_to_20():
    for i in range(1, 21):
        assert qt_bracket(i).subs_q(1) == RatFunc(t_bracket(i))


def test_t_bracket_values():
    assert t_bracket(1) == MultiPoly.one()
    assert t_bracket(4) == MultiPoly.one() + T() + T(2) + T(3)
    assert t_bracket(3).evaluate(1, 1) == 3
    assert t_bracket(0).is_zero()


def test_qt_factorial():
    assert qt_factorial(0) == RatFunc.one()
    want = RatFunc(
        (MultiPoly.one() - Q() * T()) * (MultiPoly.one() - Q() * T(2)),
        (MultiPoly.one() - T()) ** 2,
    )
    assert qt_factorial(2) == want
    # at q = t = 1 the factorial degenerates to the ordinary one
    assert qt_factorial(4).subs_q(1).evaluate(1, 1) == 24
    assert t_factorial(4).evaluate(1, 1) == 24


def test_qt_factorial_ratio():
    assert qt_factorial_ratio(2, 4) == qt_factorial(2) / qt_factorial(4)
    assert qt_factorial_ratio(0, 3) == qt_factorial(3).inverse()


# -- polynomial and field arithmetic ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(qt_polys(), qt_polys(), qt_polys())
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    _check_shared_operators(a, b)


def _check_shared_operators(a, b):
    """Subtraction, powers and hashing, which the three algebra types share."""
    assert a - b == a + (-b)
    assert 3 - a == -(a - 3)
    assert a**3 == a * a * a
    assert (a**0).is_one()
    assert hash(a * b) == hash(b * a)


def test_negative_power_needs_a_field():
    for a in (Q() + 1, QtxExpr.x_monomial((1,))):
        with pytest.raises(ValueError):
            a**-1


def test_powers_square_only_what_they_use(monkeypatch):
    base = 1 - T()
    calls = []
    mul = MultiPoly.__mul__

    def counting_mul(self, other):
        calls.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
    eighth = base**8
    monkeypatch.undo()
    # three squarings: no product by one, no square past the top bit
    assert len(calls) == 3
    assert eighth == base * base * base * base * base * base * base * base
    for a in (base, RatFunc(Q() + 2, 1 - T()), parse("x1 - q*x2^2/(1 - t)")):
        want = a.one()
        for n in range(10):
            assert a**n == want, (a, n)
            want = want * a


def _associates(f, g):
    """f is a nonzero rational multiple of g: lc(g) f = lc(f) g."""
    return not f.is_zero() and not g.is_zero() and f * g.leading_coeff() == g * f.leading_coeff()


def _primitive_part(p):
    """p divided by the gcd of its coefficients."""
    c = math.gcd(*p.terms.values())
    return MultiPoly({key: v // c for key, v in p.terms.items()})


@settings(max_examples=50, deadline=None)
@given(qt_polys(), qt_polys().filter(lambda p: not p.is_zero()))
def test_gcd_divides_and_divexact(a, b):
    g = poly_gcd(a, b)
    if not a.is_zero():
        assert poly_divexact(a, g) * g == a
    assert poly_divexact(b, g) * g == b
    # b divides a*b, so it is their gcd up to a constant
    assert _associates(poly_gcd(a * b, b), b)


@settings(max_examples=60, deadline=None)
@given(qt_polys(), qt_polys(), st.one_of(qt_polys(max_terms=2), bracket_products()))
def test_gcd_absorbs_common_factor(a, b, m):
    g = poly_gcd(a * m, b * m)
    poly_divexact(g, _primitive_part(m))  # pp(m) divides the gcd of (am, bm) in Z[q, t]
    poly_divexact(a * m, g)
    poly_divexact(b * m, g)
    assert _associates(g, m * poly_gcd(a, b))


def test_gcd_cache_is_bounded():
    size = poly_gcd.cache_info().maxsize
    assert size is not None
    for i in range(size + 100):  # distinct pairs, each a full gcd computation
        g = poly_gcd(T() + MultiPoly.const(i + 2), Q() + MultiPoly.const(i + 2))
        assert g.is_one()
    assert poly_gcd.cache_info().currsize <= size


def test_gcd_past_a_wrong_or_vanishing_image():
    # the first evaluation point q = 13 suggests q - 2, which divides neither side
    assert poly_gcd(4 * Q(2) + 6, 2 * Q() - 4).is_one()
    # the first point q = 9 is a root of one side: its image is 0
    assert poly_gcd(Q() - 9, Q() + 1).is_one()
    assert poly_gcd((Q() - 9) * T(), Q() + 1).is_one()


def test_gcd_with_a_single_term_side():
    assert poly_gcd(Q(2) * T(3), Q() * T(5) + Q(3) * T(4)) == Q() * T(3)
    assert poly_gcd(MultiPoly.const(6), 4 * Q() + 2 * T()).is_one()


def test_gcd_of_high_degree_brackets():
    one = MultiPoly.one()
    d = one
    for j in range(1, 13):  # prod (1 - q t^j): q-degree 12, t-degree 78, primitive, lc 1
        d = d * (one - Q() * T(j))
    assert poly_gcd(d * (one - T()) ** 6 * (Q(2) + T(5) + 3), d * (one + Q() * T(3)) ** 4) == d
    assert poly_gcd(d, d * (one - T()) ** 8) == d
    want = t_factorial(10) * (one + T(3))  # 1 + t^3 divides [12]_t, primitive, lc 1
    assert poly_gcd(t_factorial(14), want) == want


t_polys = st.dictionaries(
    st.tuples(st.just(0), st.integers(0, 4)), st.integers(-9, 9).filter(bool), min_size=1, max_size=4
).map(MultiPoly)


@st.composite
def bracket_multiples(draw):
    """(c, lo, hi), lo >= -1: c is a signed p, free of q or not, times the
    brackets 1 - q t^j for j in lo < j <= hi and just outside it, each to
    the power 0, 1 or 2."""
    lo = draw(st.integers(-1, 3))
    hi = draw(st.integers(lo, lo + 4))
    c = draw(st.one_of(qt_polys(), t_polys))
    for j in range(max(lo, 0), hi + 2):
        c = c * (MultiPoly.one() - Q() * T(j)) ** draw(st.integers(0, 2))
    return c, lo, hi


@settings(max_examples=150, deadline=None)
@given(bracket_multiples())
@example((MultiPoly.one() - Q(), -1, 0))
@example(((MultiPoly.one() - Q()) ** 2 * (MultiPoly.one() - Q() * T(2)) * (T(3) - 2), -1, 2))
@example((-3 * T(2) + 5, 0, 3))
@example((MultiPoly(), 0, 2))
def test_divide_by_brackets_is_the_gcd_reduced_fraction(case):
    c, lo, hi = case
    got, want = divide_by_brackets(c, lo, hi), RatFunc(c, qt_factor(0, lo, hi))
    assert (got.num, got.den) == (want.num, want.den)


def _to_sympy(p):
    from sympy import Add, Rational, symbols

    q, t = symbols("q t")
    return Add(*(Rational(c) * q**eq * t**et for (eq, et), c in p.terms.items()))


@settings(max_examples=60, deadline=None)
@given(qt_polys(), qt_polys(), st.one_of(st.none(), bracket_products()))
def test_gcd_and_ratfunc_agree_with_sympy(a, b, m):
    """An independent oracle: sympy's gcd and cancel."""
    sympy = pytest.importorskip("sympy")
    if m is not None:
        a, b = a * m, b * m
    sa, sb = _to_sympy(a), _to_sympy(b)
    ratio = sympy.cancel(_to_sympy(poly_gcd(a, b)) / sympy.gcd(sa, sb))
    assert ratio.is_Rational and ratio != 0
    r = RatFunc(a, b)
    assert sympy.expand(_to_sympy(r.num) * sb - sa * _to_sympy(r.den)) == 0
    # as reduced as sympy's: the same denominator total degree
    want_den = sympy.fraction(sympy.cancel(sa / sb))[1]
    want_degree = sympy.Poly(want_den, *sympy.symbols("q t")).total_degree()
    assert max(eq + et for eq, et in r.den.terms) == want_degree


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + (b + c) == (a + b) + c
    assert (a - a).is_zero()
    _check_shared_operators(a, b)
    if not b.is_zero():
        assert (a / b) * b == a
        assert b * b.inverse() == RatFunc.one()
        assert b**-2 == (b**2).inverse()


@settings(max_examples=80, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_canonical_equality_is_cross_multiplication(a, b):
    assert (a == b) == (a.num * b.den == b.num * a.den)


def _every_type_of(e: QtxExpr) -> list:
    """e as each of QtxExpr, RatFunc, MultiPoly, Fraction and int that holds it."""
    out = [e]
    if e.nvars == 0:
        r = e.as_ratfunc()
        out.append(r)
        if r.is_poly():
            out.append(r.num)
        if r.num.terms.keys() <= {(0, 0)} and r.den.terms.keys() == {(0, 0)}:
            c = Fraction(r.num.terms.get((0, 0), 0), r.den.terms[0, 0])
            out += [c, int(c)] if c.denominator == 1 else [c]
    return out


field_elements = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=2).map(RatFunc.const),
    qt_polys(max_terms=2, max_exp=1).map(RatFunc),
    ratfuncs(),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(field_elements.map(QtxExpr.from_ratfunc) | qtx_exprs(nvars=2), min_size=1, max_size=3))
@example([parse("1"), parse("0"), parse("q"), parse("1/2"), parse("x1")])
def test_equal_values_hash_alike(exprs):
    values = [v for e in exprs for v in _every_type_of(e)]
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)


def test_canonical_sign_convention():
    r = RatFunc(MultiPoly.one(), MultiPoly.one() - T())
    # denominator leading coefficient (graded lex) is positive: t - 1
    assert r.den == T() - MultiPoly.one()
    assert r.num == -MultiPoly.one()


def test_poly_rejects_non_integer_coefficients():
    for c in (Fraction(1, 2), Fraction(3), 0.5):
        with pytest.raises(TypeError):
            MultiPoly({(1, 0): c})
        with pytest.raises(TypeError):
            MultiPoly.const(c)
        with pytest.raises(TypeError):
            Q() + c
    with pytest.raises(ValueError):
        poly_divexact(Q() + MultiPoly.one(), MultiPoly.const(2))
    # the rational constant lives in the RatFunc denominator
    assert RatFunc(Q() + MultiPoly.one(), MultiPoly.const(2)).evaluate(3, 0) == 2


# -- evaluation, specialisation ------------------------------------------------


def test_evaluate_expr():
    e = QtxExpr.one()
    assert e.evaluate(5, 7) == 1
    b = QtxExpr.from_ratfunc(qt_bracket(1))
    assert b.evaluate(1, Fraction(1, 2)) == 1
    with pytest.raises(PoleError):
        b.evaluate(2, 1)


points = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=5)
)
int_polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(-20, 20), max_size=6
).map(MultiPoly)


@settings(max_examples=200, deadline=None)
@given(int_polys, points, points)
@example(MultiPoly(), Fraction(0), Fraction(0))
@example(MultiPoly({(2, 1): -3, (0, 3): 4, (0, 0): 5}), Fraction(0), Fraction(-7, 2))
@example(MultiPoly({(3, 0): -2, (1, 2): 7}), Fraction(5, 2), Fraction(0))
def test_poly_evaluate_is_the_termwise_sum(p, q0, t0):
    # one integer sum over one denominator equals the sum of Fraction powers,
    # for the zero polynomial, negative coefficients, zero, negative and large points
    want = sum((c * q0**eq * t0**et for (eq, et), c in p.terms.items()), Fraction(0))
    assert p.evaluate(q0, t0) == want
    assert p.evaluate(q0, t0).denominator == want.denominator


@settings(max_examples=200, deadline=None)
@given(qt_polys(), qt_polys(), points, points)
@example(Q(2) * T() + 3, T(4) - Q(), Fraction(-2, 3), Fraction(-5, 7))  # q-degree 2 over t-degree 4
@example(T(3) - 1, Q(3) + T(), Fraction(-3, 2), Fraction(1, 5))
@example(Q() + T(), Q() * T() - 1, Fraction(-2), Fraction(-1, 2))  # a pole
def test_ratfunc_evaluate_is_the_quotient_of_the_values(num, den, q0, t0):
    # one Fraction from the two scaled values: the same value, or the same PoleError
    r = RatFunc._reduced(num, den)
    d = r.den.evaluate(q0, t0)
    if d == 0:
        with pytest.raises(PoleError, match=f"denominator vanishes at q={q0}, t={t0}"):
            r.evaluate(q0, t0)
    else:
        assert r.evaluate(q0, t0) == r.num.evaluate(q0, t0) / d


def test_evaluate_multiplicative():
    e1 = parse("x1^2+q*t*x2")
    e2 = parse("(1-t)/(1-q*t^2)*x1*x2+3")
    pt = (Fraction(2, 3), Fraction(1, 5), (Fraction(4), Fraction(-2)))
    assert (e1 * e2).evaluate(*pt) == e1.evaluate(*pt) * e2.evaluate(*pt)


def test_specialize():
    e = parse("q*x1")
    assert e.specialize(q_to=1, x_to_one=True) == QtxExpr.one()
    e = parse("1/(1-q*t)")
    assert e.specialize(q_to=0) == QtxExpr.one()
    with pytest.raises(PoleError):
        parse("1/(1-q)").specialize(q_to=1)


@settings(max_examples=80, deadline=None)
@given(ratfuncs(), st.fractions(min_value=-3, max_value=3, max_denominator=5))
def test_subs_q_at_a_fraction_matches_evaluation(r, t0):
    q0 = Fraction(2, 3)
    try:
        want = r.evaluate(q0, t0)
    except PoleError:
        return  # undefined at the point
    assert r.subs_q(q0).evaluate(1, t0) == want


def test_pole_on_vanishing_denominator():
    e = parse("(1-q*t)/(1-t)")
    assert e.evaluate(1, Fraction(1, 2)) == 1
    with pytest.raises(PoleError):
        e.evaluate(Fraction(1, 3), 1)


# -- canonical text and JSON ---------------------------------------------------


def test_canonical_string_zero_and_golden():
    assert canonical_string(QtxExpr.zero()) == "0"
    e = parse("x1^2 + q*x1*x2*(1-t)/(1-q*t)")
    golden = "(1)*x1^2+(q*t-q)/(q*t-1)*x1*x2"
    assert canonical_string(e) == golden
    assert parse(golden) == e


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("x1 + ")
    assert err.value.pos == 5
    with pytest.raises(ParseError):
        parse("x1/x2")  # denominator involves x
    with pytest.raises(ParseError):
        parse("1/(q-q)")
    with pytest.raises(ParseError):
        parse("x0")


@settings(max_examples=150, deadline=None)
@given(qtx_exprs())
def test_text_round_trip(e):
    assert parse(canonical_string(e)) == e
    assert (1 - e) * (e - 2) == 3 * e - e**2 - 2


def test_text_round_trip_bulk():
    rng = random.Random(20260809)
    for _ in range(1000):
        coeffs_map = {}
        for _ in range(rng.randint(0, 4)):
            xs = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 3)))
            num, m = _over_z(
                {
                    (rng.randint(0, 4), rng.randint(0, 4)): Fraction(
                        rng.randint(-9, 9) or 1, rng.randint(1, 4)
                    )
                    for _ in range(rng.randint(1, 3))
                }
            )
            den = MultiPoly.one() - MultiPoly.q(rng.randint(1, 3)) * MultiPoly.t(rng.randint(0, 3))
            coeffs_map[xs] = RatFunc(num, (den if rng.random() < 0.5 else MultiPoly.one()) * m)
        e = QtxExpr(coeffs_map)
        assert parse(canonical_string(e)) == e


@settings(max_examples=100, deadline=None)
@given(qtx_exprs())
def test_json_round_trip(e):
    assert from_json(to_json(e)) == e
    assert from_json(to_json(e, nvars=6)) == e


def test_keys_equal_once_trimmed_add_up():
    one = RatFunc.one()
    assert QtxExpr({(1,): one, (1, 0): one}) == parse("2*x1")
    assert QtxExpr({(0, 1): one, (0, 1, 0, 0): -one}).is_zero()


def _double_loop_product(a, b):
    """a * b formed term by term, with no one-monomial shortcut."""
    coeffs = {}
    for xa, ca in a.coeffs.items():
        for xb, cb in b.coeffs.items():
            key = tuple(map(sum, itertools.zip_longest(xa, xb, fillvalue=0)))
            coeffs[key] = coeffs[key] + ca * cb if key in coeffs else ca * cb
    return QtxExpr(coeffs)


poly_qtx_exprs = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), qt_polys(), max_size=4
).map(QtxExpr)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(qtx_exprs(nvars=2), poly_qtx_exprs),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.one_of(ratfuncs(), qt_polys()),
)
def test_product_with_one_monomial_matches_the_double_loop(e, xs, c):
    m = QtxExpr.x_monomial(xs, c)
    assert len(m.coeffs) == 1
    assert (e * m).coeffs == _double_loop_product(e, m).coeffs
    assert (m * e).coeffs == _double_loop_product(m, e).coeffs


@settings(max_examples=50, deadline=None)
@given(qt_polys())
def test_product_with_the_one_is_the_operand(p):
    one = MultiPoly.one()
    assert one * p is p and p * one is p
    assert p * MultiPoly.const(1) == p  # a one that is not the shared object
    # one term by one term: one dict entry
    assert (3 * Q(2) * T()) * (-2 * Q() * T(4)) == MultiPoly({(3, 5): -6})


def test_x_monomial_trims_and_drops_a_zero_coefficient():
    assert QtxExpr.x_monomial((1, 0, 2, 0, 0)).coeffs == {(1, 0, 2): RatFunc.one()}
    assert QtxExpr.x_monomial((0, 0), T()).coeffs == {(): T()}
    for zero in (RatFunc.zero(), MultiPoly.zero()):
        assert QtxExpr.x_monomial((1, 2), zero).coeffs == {}


def _json_doc(*terms):
    return json.dumps({"nvars": 1, "terms": [{"x": x, "num": num, "den": [["1", 0, 0]]} for x, num in terms]})


def test_from_json_rejects_a_repeated_monomial():
    assert from_json(_json_doc(([1], [["1", 0, 0]]), ([2], [["1", 0, 0]]))) == parse("x1+x1^2")
    with pytest.raises(ValueError, match="repeated"):
        from_json(_json_doc(([1], [["1", 0, 0]]), ([1], [["2", 0, 0]])))
    with pytest.raises(ValueError, match="repeated"):
        from_json(_json_doc(([1], [["1", 0, 0]]), ([1, 0], [["2", 0, 0]])))
    with pytest.raises(ValueError, match="repeated"):
        from_json(_json_doc(([1], [["1", 0, 0], ["2", 0, 0]])))


def test_from_json_rejects_a_negative_exponent():
    with pytest.raises(ValueError, match="negative"):
        from_json(_json_doc(([-1], [["1", 0, 0]])))
    with pytest.raises(ValueError, match="negative"):
        from_json(_json_doc(([1], [["1", -1, 0]])))
    with pytest.raises(ValueError, match="negative"):
        from_json(_json_doc(([1], [["1", 0, -2]])))


def test_from_json_rejects_an_x_past_nvars():
    doc = {"nvars": 0, "terms": [{"x": [1], "num": [["1", 0, 0]], "den": [["1", 0, 0]]}]}
    with pytest.raises(ValueError, match="nvars"):
        from_json(json.dumps(doc))
    doc["terms"][0]["x"] = [0, 0]  # trailing zeros are no support
    assert from_json(json.dumps(doc)) == QtxExpr.one()


def test_from_json_rejects_a_zero_denominator():
    for den in ([], [["0", 0, 0]]):
        doc = {"nvars": 1, "terms": [{"x": [1], "num": [["1", 0, 0]], "den": den}]}
        with pytest.raises(ValueError, match="zero denominator"):
            from_json(json.dumps(doc))


def test_swap_x():
    e = parse("x1^2*x2+q*x3")
    assert e.swap_x(1) == parse("x2^2*x1+q*x3")
    assert e.swap_x(1).swap_x(1) == e


def test_from_json_rejects_a_document_without_terms():
    for text in ("{}", '{"nvars": 1}'):
        with pytest.raises(ValueError, match=r"document needs 'terms' \(list\)"):
            from_json(text)
    with pytest.raises(ValueError, match=r"document needs 'nvars' \(int\)"):
        from_json('{"terms": []}')


def test_from_json_rejects_a_document_that_is_not_an_object():
    for text in ("[]", "1", '"terms"'):
        with pytest.raises(ValueError, match="document needs 'terms'"):
            from_json(text)


def test_from_json_rejects_terms_that_are_not_a_list():
    for terms in ({}, 1, None):
        with pytest.raises(ValueError, match=r"document needs 'terms' \(list\)"):
            from_json(json.dumps({"nvars": 1, "terms": terms}))


def test_from_json_rejects_a_term_without_a_field():
    full = {"x": [1], "num": [["1", 0, 0]], "den": [["1", 0, 0]]}
    for key in full:
        term = {k: v for k, v in full.items() if k != key}
        with pytest.raises(ValueError, match=rf"term needs '{key}' \(list\)"):
            from_json(json.dumps({"nvars": 1, "terms": [term]}))
    with pytest.raises(ValueError, match="term needs 'x'"):
        from_json(json.dumps({"nvars": 1, "terms": [[1]]}))
