"""Trace recurrence, truncated numeric traces, and the matrix relations."""

import gc
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from crtasep.algebra import MultiPoly, QtxExpr, RatFunc, parse, poly_gcd, qt_factorial_ratio, qtx, ratfunc, rings
from crtasep.algebra.ratfunc import qt_factor
from crtasep.algebra.rings import SYMBOLIC, Ring, point_ring
from crtasep.combinatorics import Word
from crtasep.errors import DivergenceError, NoConvergence, PoleError, RelationViolation
from crtasep.oracles.matrices import (
    MAX_SIZE,
    REL_TOL,
    START_SIZE,
    _assert_equal_interior,
    banded_matrix,
    banded_mul,
    check_ansatz_relations,
    check_matrix_relations,
    product_trace,
    truncated_trace,
)
from crtasep.oracles import matrices, recurrence
from crtasep.oracles.recurrence import f_mu, omega, trace_by_recurrence, trace_rec_eval
from crtasep.weights import _tableau_sum, macdonald_E, macdonald_P, stationary_prob, tab_qtx, tab_qtx_eval, tab_t

W = Word.from_string


def scalar_for(mu):
    return RatFunc(MultiPoly.one() - MultiPoly.q() * MultiPoly.t(mu.r))


def test_base_case_words_without_holes():
    assert trace_by_recurrence(W("12")) == parse("x1*x2^2/(1-q*t)")
    assert trace_by_recurrence(W("11")) == parse("x1*x2/(1-q*t^2)")
    assert trace_by_recurrence(W("000")) == parse("1/(1-q)")


def test_trace_identity_symbolic_small():
    for n in range(1, 5):
        for letters in itertools.product((0, 1, 2), repeat=n):
            mu = Word(letters)
            assert trace_by_recurrence(mu) * scalar_for(mu) == tab_qtx(mu)


def test_trace_0212_visits_expected_subwords():
    # peeling d = 1 of 0212 reaches the no-hole base words 212, 12, 21, 2, 1
    mu = W("0212")
    assert trace_by_recurrence(mu) * scalar_for(mu) == tab_qtx(mu)
    assert trace_by_recurrence(mu, d_strategy="min") == trace_by_recurrence(mu)


def test_trace_d_choice_independent():
    for n in range(2, 5):
        for letters in itertools.product((0, 1, 2), repeat=n):
            mu = Word(letters)
            if mu.k >= 2:
                assert trace_by_recurrence(mu, "max") == trace_by_recurrence(mu, "min")


def test_trace_rec_eval_matches_symbolic():
    # every word with n <= 4, words without holes (a bare base term) included
    q0, t0 = Fraction(1, 5), Fraction(2, 7)
    for n in range(1, 5):
        xs = tuple(Fraction(i + 2, 3) for i in range(n))
        for letters in itertools.product((0, 1, 2), repeat=n):
            mu = Word(letters)
            for strategy in ("max", "min"):
                want = trace_by_recurrence(mu, strategy).evaluate(q0, t0, xs)
                assert trace_rec_eval(mu, q0, t0, xs, strategy) == want, (mu, strategy)


def test_point_paths_at_signed_and_zero_points():
    # negative q0 and x_i and a zero x_i: the integer monomials keep signs and zeros
    q0, t0 = Fraction(-3, 4), Fraction(2, 7)
    xs = (Fraction(-5, 3), Fraction(0), Fraction(7, 2), Fraction(-1, 9))
    for n in range(1, 5):
        for letters in itertools.product((0, 1, 2), repeat=n):
            mu, point = Word(letters), (q0, t0, xs[:n])
            assert tab_qtx_eval(mu, *point) == tab_qtx(mu).evaluate(*point), mu
            assert trace_rec_eval(mu, *point) == trace_by_recurrence(mu).evaluate(*point), mu


def test_point_paths_at_awkward_points():
    # distinct prime denominators make the point ring's common denominator
    # L a large product, so values over different powers of L meet in every
    # sum; a float point has a power-of-2 L
    q0, t0 = Fraction(-7, 11), Fraction(13, 17)
    primes = (Fraction(5, 101), Fraction(-8, 103), Fraction(12, 107), Fraction(9, 109))
    with_zero = (Fraction(5, 101), Fraction(0), Fraction(-12, 107), Fraction(9, 109))
    points = ((q0, t0, primes), (q0, t0, with_zero), (0.3, 0.7, (1.1, -0.4, 0.0, 2.5)))
    for mu in _small_words():
        for q, t, xs in points:
            point = (q, t, xs[: mu.n])
            assert tab_qtx_eval(mu, *point) == tab_qtx(mu).evaluate(*point), (mu, point)
            assert trace_rec_eval(mu, *point) == trace_by_recurrence(mu).evaluate(*point), (mu, point)


def _small_words():
    return [Word(letters) for n in range(1, 5) for letters in itertools.product((0, 1, 2), repeat=n)]


def test_point_paths_at_t_equal_one():
    # the factorial ratios' 1 - t factors vanish at t = 1, their 1 - q t^j
    # denominators do not: the answer is finite
    q0, t0, xs = Fraction(1, 2), Fraction(1), (Fraction(2, 3), Fraction(1), Fraction(4, 3), Fraction(5, 3))
    assert tab_qtx_eval(W("210"), q0, t0, xs[:3]) == Fraction(4, 9)
    assert trace_rec_eval(W("2010"), q0, t0, xs) == Fraction(32, 27)
    for mu in _small_words():
        point = (q0, t0, xs[: mu.n])
        assert tab_qtx_eval(mu, *point) == tab_qtx(mu).evaluate(*point), mu
        assert trace_rec_eval(mu, *point) == trace_by_recurrence(mu).evaluate(*point), mu


def test_point_paths_raise_pole_error_where_a_bracket_vanishes():
    # q0 t0^2 = 1: every product of 1 - q t^j over a range holding j = 2 vanishes
    q0, t0, xs = Fraction(1, 4), Fraction(2), (Fraction(2, 3), Fraction(1), Fraction(4, 3), Fraction(5, 3))
    with pytest.raises(PoleError) as symbolic:
        qt_factorial_ratio(1, 2).evaluate(q0, t0)
    raised = set()
    for mu in _small_words():
        point = (q0, t0, xs[: mu.n])
        for name, at_point, exact in (("tab", tab_qtx_eval, tab_qtx), ("trace", trace_rec_eval, trace_by_recurrence)):
            try:
                value = at_point(mu, *point)
            except PoleError as exc:
                assert str(exc) == str(symbolic.value), (name, mu)
                raised.add((name, str(mu)))
            else:
                assert value == exact(mu).evaluate(*point), (name, mu)
    # the trace's denominator is prod_{r <= j <= r+l}, so it holds j = 2 iff r <= 2 <= r + l
    assert {str(mu) for name, mu in raised if name == "trace"} == {
        str(mu) for mu in _small_words() if mu.r <= 2 <= mu.r + mu.l
    }
    assert ("tab", "210") in raised


def test_unknown_d_strategy_is_rejected_without_holes():
    for strategy in ("bogus", "MAX"):
        with pytest.raises(ValueError, match="unknown d strategy"):
            trace_by_recurrence(W("21"), strategy)
        with pytest.raises(ValueError, match="unknown d strategy"):
            trace_rec_eval(W("21"), 1, 1, (1, 1), strategy)


def test_one_gcd_per_x_monomial_of_the_answer(monkeypatch):
    # each kernel sums in Z[q, t][x] and divides once, with no poly_gcd: the
    # symbolic ring divides bracket by bracket, and tab_t and the stationary
    # law (Tab_t over the integer Z) by one cyclotomic factor at a time
    calls = []

    def counting(a, b):
        calls.append(1)
        return poly_gcd(a, b)

    monkeypatch.setattr(ratfunc, "poly_gcd", counting)
    for text in ("2110", "201021", "220110", "212000"):
        mu = W(text)
        for kernel, want in ((tab_t, 0), (tab_qtx, 0), (trace_by_recurrence, 0)):
            calls.clear()
            kernel(mu)
            assert len(calls) == want, (kernel.__name__, text, len(calls))
    for text in ("2110", "21100", "221000"):
        calls.clear()
        macdonald_P(W(text))
        assert len(calls) == 0, (text, len(calls))
    for text in ("2110", "201021", "20102010"):
        calls.clear()
        stationary_prob(W(text))
        assert len(calls) == 0, (text, len(calls))


# the symbolic ring reducing each coefficient with poly_gcd, as RatFunc does
# for arbitrary input
GCD_SYMBOLIC = SYMBOLIC._replace(
    divide=lambda value, lo, hi: QtxExpr({xs: RatFunc(c, qt_factor(0, lo, hi)) for xs, c in value.coeffs.items()})
)


def test_bracket_division_matches_the_gcd_route_on_every_word_to_n5():
    for n in range(1, 6):
        for letters in itertools.product((0, 1, 2), repeat=n):
            mu = Word(letters)
            assert tab_qtx(mu).coeffs == _tableau_sum([mu], GCD_SYMBOLIC).coeffs, mu
            assert trace_by_recurrence(mu).coeffs == recurrence._answer(mu, "max", GCD_SYMBOLIC).coeffs, mu


def test_kernel_sums_coerce_no_int(monkeypatch):
    # every sum starts from its first term, so none passes through Q(q, t)[x]'s
    # coercion of an int 0
    ints = []
    coerce = qtx._coerce

    def counting(value):
        if isinstance(value, int):
            ints.append(value)
        return coerce(value)

    monkeypatch.setattr(qtx, "_coerce", counting)
    for n in range(1, 6):
        for letters in itertools.product((0, 1, 2), repeat=n):
            mu = Word(letters)
            tab_qtx(mu)
            trace_by_recurrence(mu)
            if mu.is_partition():
                macdonald_P(mu)
    assert len(ints) == 0


class _Counted:
    """A point-ring value that reports the operands of each product to ``seen``."""

    def __init__(self, value, seen):
        self.value, self.seen = value, seen

    def __add__(self, other):
        return _Counted(self.value + other.value, self.seen)

    def __mul__(self, other):
        self.seen(self.value, other.value)
        return _Counted(self.value * other.value, self.seen)


def test_exact_kernels_do_no_work_on_the_identity():
    # over a point ring that counts: both kernels price a row only for a
    # nonempty set of arrows or removed 2s, with one entry of the reading
    # table per label, and do so when the word has a 0 and a 2; the trace
    # prices at most one base monomial per set U of removed 2s; and neither
    # kernel multiplies by a value equal to 1 (the point is generic, so no
    # value is 1 by accident)
    q0, t0 = Fraction(2, 7), Fraction(3, 11)
    xs = (Fraction(5, 13), Fraction(7, 17), Fraction(11, 19), Fraction(13, 23), Fraction(17, 29))
    labels, bases, ones = [], [], []
    for n in range(1, 6):
        base = point_ring(q0, t0, xs[:n], n)
        is_one = lambda v: base.divide(v, 0, 0) == 1  # over the empty bracket product
        assert is_one(base.base(0)) and is_one(base.factor(0, n, n))
        seen = lambda *operands: ones.extend(filter(is_one, operands))
        ring = Ring(
            lambda entry, cols, x: labels.append(len(entry) == len(cols) and cols) or _Counted(base.row(entry, cols, x), seen),
            lambda x: bases.append(x) or _Counted(base.base(x), seen),
            lambda *key: _Counted(base.factor(*key), seen),
            lambda value, lo, hi: base.divide(value.value, lo, hi),
        )
        for letters in itertools.product((0, 1, 2), repeat=n):
            mu, point = Word(letters), (q0, t0, xs[:n])
            labels.clear(), bases.clear()
            assert recurrence._answer(mu, "max", ring) == trace_rec_eval(mu, *point), mu
            assert all(labels) and bool(labels) == bool(mu.k and mu.l), mu
            assert len(bases) <= 2**mu.l, mu
            labels.clear()
            assert _tableau_sum([mu], ring) == tab_qtx_eval(mu, *point), mu
            assert all(labels) and bool(labels) == bool(mu.k and mu.l), mu
            assert not ones, mu


def _unpacked(x, n):
    """A packed monomial's exponents of x_1..x_n, read field by field."""
    mask = (1 << rings.X_WIDTH) - 1
    assert x >> rings.X_WIDTH * n == 0, (x, n)
    return tuple(x >> rings.X_WIDTH * i & mask for i in range(n))


def _from_dict(exps, n):
    return tuple(exps.get(i, 0) for i in range(n))


def _row_monomials(d, subset, power, n):
    """x_d x_S^power / x_c for each c of S, from an exponent dict."""
    out = []
    for c in subset:
        exps = {d - 1: 1, **{e - 1: power for e in subset}}
        exps[c - 1] -= 1
        out.append(_from_dict(exps, n))
    return out


def _reference_monomials(mu, power):
    """Every x-monomial a kernel prices on mu, by the exponent-dict rules:
    per zero d in kernel order, set U of 2s taken before and nonempty set S
    of the others, the row's monomials; then, per final U, the tableau's
    x_i per particle times x_c per 2 without an arrow (power 1), or the
    trace's x^mu less the removed 2s, when not 1 or l = 0 (power 2)."""
    n, twos = mu.n, mu.positions_of(2)
    rows, states = [], {()}
    for d in reversed(mu.positions_of(0)):
        following = set(states)
        for used in states:
            free = [c for c in twos if c not in used]
            for size in range(1, len(free) + 1):
                for subset in itertools.combinations(free, size):
                    rows += _row_monomials(d, subset, power, n)
                    following.add(tuple(sorted(used + subset)))
        states = following
    bases = []
    for used in states:
        if power == 1:
            exps = {i: 1 for i, a in enumerate(mu.letters) if a}
            for c in twos:
                if c not in used:
                    exps[c - 1] += 1
        else:
            exps = {c - 1: a for c, a in enumerate(mu.letters, start=1) if a and c not in used}
        if power == 1 or exps or not mu.l:
            bases.append(_from_dict(exps, n))
    return sorted(rows), sorted(bases)


def test_packed_monomials_are_the_exponent_dicts():
    # on every word with n <= 6, each x-monomial that either kernel hands
    # the ring, read field by field, is the one the exponent-dict rules
    # build (as ``wt_x`` does), and no exponent passes 2, so no field carries
    # (a field one bit narrower carries a 2 into x_{i+1}); the word deeper
    # than the recursion limit keeps the trace identity in the test below
    for n in range(1, 7):
        for letters in itertools.product((0, 1, 2), repeat=n):
            mu = Word(letters)
            for power, kernel in ((1, lambda ring: _tableau_sum([mu], ring)), (2, lambda ring: recurrence._trace(mu, "max", ring))):
                rows, bases = [], []

                def row(entry, labels, x):
                    assert sorted(labels) == list(labels) and all(sum(_unpacked(c, n)) == 1 for c in labels)
                    rows.extend(_unpacked(x - c, n) for c in labels)
                    return SYMBOLIC.row(entry, labels, x)

                ring = SYMBOLIC._replace(row=row, base=lambda x: bases.append(_unpacked(x, n)) or SYMBOLIC.base(x))
                kernel(ring)
                assert (sorted(rows), sorted(bases)) == _reference_monomials(mu, power), (mu, power)
                assert max(max(m, default=0) for m in rows + bases) <= 2, mu


def test_recurrence_retains_nothing_between_calls():
    words = [Word(letters) for letters in itertools.product((0, 1, 2), repeat=5)]
    poly_gcd.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for mu in words:
            trace_by_recurrence(mu)
        poly_gcd.cache_clear()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 256 * 1024, retained
    assert recurrence._SYMBOLIC_CACHE == {}


def test_trace_identity_numeric_n7():
    mu = W("0212012")
    q0, t0 = Fraction(1, 3), Fraction(1, 2)
    xs = tuple(Fraction(i + 1, 2) for i in range(mu.n))
    lhs = (1 - q0 * t0**mu.r) * trace_rec_eval(mu, q0, t0, xs)
    assert lhs == tab_qtx_eval(mu, q0, t0, xs)


def test_trace_identity_on_a_word_deeper_than_the_recursion_limit():
    # 1,100 zeros: one peel per zero, past Python's default recursion limit
    # of 1,000, and a 2 on each side of half of them
    mu = W("0" * 550 + "2" + "0" * 550 + "12")
    q0, t0 = Fraction(1, 3), Fraction(1, 2)
    xs = tuple(Fraction(50 + i % 100, 100) for i in range(mu.n))
    want = tab_qtx_eval(mu, q0, t0, xs)
    for strategy in ("max", "min"):
        assert (1 - q0 * t0**mu.r) * trace_rec_eval(mu, q0, t0, xs, strategy) == want


def test_f_mu():
    # for partitions with largest part 2 the scalar matches and f = E
    for text in ("20", "210", "2110", "221100"):
        lam = W(text)
        assert f_mu(lam) == macdonald_E(lam)
    # non-partition: the identity with the word's own hook scalar
    mu = W("201021")
    assert trace_by_recurrence(mu) * scalar_for(mu) == tab_qtx(mu)
    assert f_mu(mu) == trace_by_recurrence(mu) * omega(mu.sorted_decreasing())


# -- truncated traces ---------------------------------------------------------


def test_truncated_trace_geometric_cases():
    v = truncated_trace(W("12"), Fraction(1, 3), Fraction(1, 2))
    assert abs(v - Fraction(6, 5)) < 1e-9
    v = truncated_trace(W("0000"), Fraction(1, 3), Fraction(1, 2))
    assert abs(v - Fraction(3, 2)) < 1e-9


def test_truncated_trace_exact_mode():
    # exact truncation of the geometric series sum q^i (t0 irrelevant)
    got = truncated_trace(W("00"), Fraction(1, 2), Fraction(1, 2), size=10)
    assert got == sum(Fraction(1, 2) ** i for i in range(10))


def test_truncated_trace_rejects_nonpositive_size():
    for size in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            truncated_trace(W("0212"), Fraction(1, 3), Fraction(1, 2), size=size)


def test_truncated_trace_bounds_the_exact_size():
    # MAX_SIZE + 1 first: a build without the bound fails there rather than
    # trying to allocate the billion-row truncation
    for size in (MAX_SIZE + 1, 10**9):
        with pytest.raises(ValueError, match=f"at most {MAX_SIZE}"):
            truncated_trace(W("0212"), Fraction(1, 3), Fraction(1, 2), size=size)
    got = truncated_trace(W("1"), Fraction(1, 3), Fraction(1, 2), size=MAX_SIZE)
    assert got == sum(Fraction(1, 6) ** i for i in range(MAX_SIZE))


def test_truncated_trace_divergence_guard():
    with pytest.raises(DivergenceError):
        truncated_trace(W("12"), Fraction(3), Fraction(1, 2))  # |q t^r| = 3/2
    with pytest.raises(DivergenceError):
        truncated_trace(W("12"), Fraction(1, 3), Fraction(3, 2))  # t outside (0,1)


def test_omega_times_trace_matches_E():
    q0, t0 = Fraction(3, 10), Fraction(2, 5)
    for text in ("20", "210", "2110"):
        lam = W(text)
        xs = tuple(Fraction(i + 2, 3) for i in range(lam.n))
        om = omega(lam).evaluate(q0, t0)
        lhs = float(om) * truncated_trace(lam, q0, t0, xs)
        rhs = float(macdonald_E(lam).evaluate(q0, t0, xs))
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


# -- matrix relations ----------------------------------------------------------


def test_relations_hold_at_rational_points():
    report = check_matrix_relations(Fraction(2, 7), Fraction(3, 5), Fraction(-1, 3), Fraction(4, 9), 10)
    assert report["status"] == "pass"
    report = check_ansatz_relations(Fraction(2, 7), Fraction(3, 5), 10)
    assert report["status"] == "pass"


def test_relations_hold_at_x_equal_y_equal_one():
    report = check_matrix_relations(Fraction(1, 2), Fraction(1, 3), Fraction(1), Fraction(1), 12)
    assert report["status"] == "pass"


def test_perturbed_matrix_violates_relation():
    t0 = Fraction(1, 3)
    size = 8
    a0 = banded_matrix("A0", Fraction(1), size)
    a2 = banded_matrix("A2", Fraction(1), size, t=t0)
    lhs = banded_mul(a0, a2)
    bad = {d: list(row) for d, row in lhs.items()}
    bad[0][2] += 1  # deliberate corruption of entry (2, 2)
    with pytest.raises(RelationViolation) as err:
        _assert_equal_interior("negative-control", bad, lhs, size)
    assert err.value.relation == "negative-control"
    assert err.value.entry == (2, 2)


def test_a_wrong_a2_breaks_its_exchange_relations(monkeypatch):
    real = matrices.banded_matrix

    def shifted_a2(kind, x, size, q=None, t=None):  # A2's subdiagonal read as x (1 - t^(i+1))
        m = real(kind, x, size, q=q, t=t)
        if kind == "A2":
            m[-1] = [x * (1 - t ** (i + 1)) if i else 0 for i in range(size)]
        return m

    monkeypatch.setattr(matrices, "banded_matrix", shifted_a2)
    q0, t0 = Fraction(2, 7), Fraction(3, 5)
    with pytest.raises(RelationViolation) as err:
        check_matrix_relations(q0, t0, Fraction(-1, 3), Fraction(4, 9), 10)
    assert err.value.relation == "A0(x)A2(y)=t*A2(y)A0(x)+(1-t)*A2(y)+x*y*(1-t)*A0(y)"
    assert (err.value.entry, err.value.lhs, err.value.rhs) == ((0, 0), Fraction(208, 2025), Fraction(56, 405))
    with pytest.raises(RelationViolation) as err:
        check_ansatz_relations(q0, t0, 10)
    assert err.value.relation == "A0A2=t*A2A0+(1-t)*(A0+A2)"
    assert (err.value.entry, err.value.lhs, err.value.rhs) == ((0, 0), Fraction(41, 25), Fraction(7, 5))


def test_product_trace_matches_dense_expectation():
    # A1(x) and S are diagonal: trace is a finite geometric sum
    q0, t0, x0 = Fraction(1, 2), Fraction(1, 3), Fraction(2)
    got = product_trace(W("1"), q0, t0, (x0,), 6)
    assert got == sum(x0 * t0**i * q0**i for i in range(6))


# -- dense reference for the truncated product ---------------------------------


def _dense(kind, x, size, q, t):
    """N x N Fraction matrix of A0/A1/A2/S, straight from the definitions."""
    m = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        if kind == "A0":
            m[i][i] = Fraction(1)
            if i + 1 < size:
                m[i][i + 1] = x
        elif kind == "A1":
            m[i][i] = x * t**i
        elif kind == "A2":
            m[i][i] = x * x
            if i >= 1:
                m[i][i - 1] = x * (1 - t**i)
        else:
            m[i][i] = q**i
    return m


def _dense_mul(a, b):
    size = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)] for i in range(size)]


def _entry(m, i, j):
    return m.get(j - i, [0] * len(m[0]))[i]


def test_banded_matrix_matches_dense_definition():
    q0, t0, x0 = Fraction(2, 7), Fraction(3, 5), Fraction(-4, 3)
    for size in (1, 2, 3, 6):
        for kind in ("A0", "A1", "A2", "S"):
            dense = _dense(kind, x0, size, q0, t0)
            banded = banded_matrix(kind, None if kind == "S" else x0, size, q=q0, t=t0)
            got = [[_entry(banded, i, j) for j in range(size)] for i in range(size)]
            assert got == dense, (kind, size)


def test_product_trace_matches_dense_product():
    q0, t0 = Fraction(2, 7), Fraction(3, 5)
    xs = tuple(Fraction(i + 2, 3) for i in range(4))
    kinds = ("A0", "A1", "A2")
    for size in (1, 2, 3, 6):
        s = _dense("S", None, size, q0, t0)
        for n in range(1, 5):
            for letters in itertools.product((0, 1, 2), repeat=n):
                prod = s
                for a, x in reversed(list(zip(letters, xs))):
                    prod = _dense_mul(_dense(kinds[a], x, size, q0, t0), prod)
                expected = sum(prod[i][i] for i in range(size))
                assert product_trace(Word(letters), q0, t0, xs[:n], size) == expected, (letters, size)


def _unpruned_trace(mu, q0, t0, xs, size):
    """The trace of the full banded product, every diagonal of every factor
    kept, its nonzero diagonal entries added left to right."""
    kinds = ("A0", "A1", "A2")
    mats = [banded_matrix(kinds[a], x, size, q=q0, t=t0) for a, x in zip(mu.letters, xs)]
    prod = mats[0]
    for m in mats[1:] + [banded_matrix("S", None, size, q=q0, t=t0)]:
        prod = banded_mul(prod, m)
    total = 0
    for v in prod[0]:
        if v:
            total += v
    return total


def _doubled_unpruned_trace(mu, q0, t0, xs):
    """truncated_trace's adaptive loop over ``_unpruned_trace``."""
    fq, ft, fxs = float(q0), float(t0), tuple(float(x) for x in xs)
    previous, size = None, START_SIZE
    while size <= MAX_SIZE:
        value = _unpruned_trace(mu, fq, ft, fxs, size)
        if previous is not None and abs(value - previous) <= REL_TOL * max(1.0, abs(value)):
            return value
        previous, size = value, size * 2
    raise AssertionError(f"no convergence for {mu}")


def test_factorwise_product_trace_is_the_banded_definition():
    # each factor applied in place equals banded_mul by its banded_matrix,
    # bit for bit and type for type, exact (negative x) and in floats
    q0, t0 = Fraction(2, 7), Fraction(3, 5)
    xs = (Fraction(-5, 3), Fraction(1, 2), Fraction(7, 4), Fraction(-2, 9), Fraction(3, 2))
    fq, ft, fxs = float(q0), float(t0), tuple(float(x) for x in xs)
    for n in range(1, 6):
        for letters in itertools.product((0, 1, 2), repeat=n):
            mu = Word(letters)
            for point, sizes in (((q0, t0, xs[:n]), (1, 2, 3, 7)), ((fq, ft, fxs[:n]), (64, 128, 256))):
                for size in sizes:
                    got, want = product_trace(mu, *point, size), _unpruned_trace(mu, *point, size)
                    assert (got, type(got)) == (want, type(want)), (letters, size)
            assert truncated_trace(mu, q0, t0, xs[:n]) == _doubled_unpruned_trace(mu, q0, t0, xs[:n]), letters


def _doubled_fresh_trace(mu, q0, t0, xs):
    """truncated_trace's stopping rule over fresh product_trace calls, with
    no rows carried over; None where it never stabilises."""
    fq, ft, fxs = float(q0), float(t0), tuple(float(x) for x in xs)
    previous, size = None, START_SIZE
    while size <= MAX_SIZE:
        value = product_trace(mu, fq, ft, fxs, size)
        if previous is not None and abs(value - previous) <= REL_TOL * max(1.0, abs(value)):
            return value
        previous, size = value, size * 2
    return None


def test_carried_rows_give_the_fresh_doubling_bit_for_bit():
    # every word with n <= 5 at seeded points, negative q0 and x among them
    rng = random.Random(21)
    negative_q = negative_x = 0
    for n in range(1, 6):
        for letters in itertools.product((0, 1, 2), repeat=n):
            mu = Word(letters)
            t0 = Fraction(rng.randint(1, 9), 10)
            q0 = Fraction(rng.randint(-12, 12), 10)
            while abs(q0 * t0**mu.r) >= 1:
                q0 /= 2
            xs = tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5)) for _ in range(n))
            negative_q += q0 < 0
            negative_x += min(xs) < 0
            want = _doubled_fresh_trace(mu, q0, t0, xs)
            try:
                got = truncated_trace(mu, q0, t0, xs).hex()
            except NoConvergence:
                got = None
            assert got == (want if want is None else want.hex()), (letters, q0, t0, xs)
    assert negative_q > 50 and negative_x > 300


def _diagonal_terms(mu, q0, t0, xs, size):
    """Entries (i, i) of the banded product A_{mu_1}(x_1)...A_{mu_n}(x_n) S."""
    kinds = ("A0", "A1", "A2")
    prod = banded_matrix("S", None, size, q=q0, t=t0)
    for a, x in reversed(list(zip(mu.letters, xs))):
        prod = banded_mul(banded_matrix(kinds[a], x, size, q=q0, t=t0), prod)
    return prod[0]


def test_rows_below_size_minus_a0_count_are_shared_by_larger_truncations():
    # the lemma the carried rows rest on, exact; and the exact trace with
    # rows carried from size N equals the fresh one at 2N, type and all
    q0, t0 = Fraction(-3, 4), Fraction(2, 5)
    xs = (Fraction(-5, 3), Fraction(1, 2), Fraction(7, 4), Fraction(-2, 9))
    for n in range(1, 5):
        for letters in itertools.product((0, 1, 2), repeat=n):
            mu = Word(letters)
            for size in (1, 2, 3, 5, 8):
                exact = size - letters.count(0)
                small, large = (_diagonal_terms(mu, q0, t0, xs[:n], m) for m in (size, 2 * size))
                assert small[: max(0, exact)] == large[: max(0, exact)], (letters, size)
                carry = [0, 0, [1], [1]]  # rows, their sum, the powers of t0 and of q0
                product_trace(mu, q0, t0, xs[:n], size, carry=carry)
                assert carry[0] == max(0, exact)
                got, want = product_trace(mu, q0, t0, xs[:n], 2 * size, carry=carry), sum(large)
                assert (got, type(got)) == (want, type(want)), (letters, size)


def test_a_settled_trace_computes_fewer_rows_than_one_start_size_truncation(monkeypatch):
    # rows computed = each call's size less the exact rows it was handed
    rows = []

    def recorded(mu, q0, t0, xs, size, *, carry=None):
        rows.append(size - (carry[0] if carry else 0))
        return product_trace(mu, q0, t0, xs, size, carry=carry)

    mu, q0, t0, xs = W("0212"), Fraction(1, 3), Fraction(1, 2), (Fraction(1),) * 4
    monkeypatch.setattr(matrices, "product_trace", recorded)
    got = truncated_trace(mu, q0, t0, xs)
    monkeypatch.undo()
    assert 0 < sum(rows) < START_SIZE
    assert got.hex() == _doubled_fresh_trace(mu, q0, t0, xs).hex()


# (word, q0, t0, xs, .hex() of the trace or the exception), recorded with
# the doubling alone, before the tail bound stopped it early
PLAIN_DOUBLING_OUTPUTS = [
    # settles below START_SIZE - #A0
    ("0212", Fraction(1, 9), Fraction(1, 2), ("3/2", "1/2", "5/4", "2/3"), "0x1.d60ce8560ce85p-2"),
    # settles between START_SIZE - #A0 and 2 START_SIZE - #A0
    ("000220", Fraction(3, 5), Fraction(1, 4), ("11/10", "13/10", "1/2", "7/10", "9/10", "6/5"),
     "0x1.edb02ec9513abp+3"),
    # never settles: rho = 0.99 needs thousands of rows
    ("22", Fraction(99, 100), Fraction(999, 1000), ("1", "1"), NoConvergence),
    # negative q0 and negative x
    ("0212", Fraction(-1, 3), Fraction(1, 2), ("-1/2", "3/2", "-2", "1"), "-0x1.68ca8ca8ca8cdp+1"),
    # t0^(r l) = 10^-400 underflows, so C is past the bound's range
    ("1122", Fraction(1, 3), Fraction(1, 10**100), ("1", "1", "1", "1"), "0x1.0000000000000p+0"),
    # |q0| > 1: q0^i overflows, 0 * inf is a NaN, and the doubling gives up
    ("02111", Fraction(59319, 10), Fraction(1, 39), ("29/10", "3/10", "6/5", "4", "13/10"), NoConvergence),
    # a subnormal trace, below the floor |s| >= 2^-900 C
    ("1", Fraction(0), Fraction(1, 2), ("1e-310",), "0x0.012688b70e62bp-1022"),
]


@pytest.mark.parametrize("letters, q0, t0, xs, want", PLAIN_DOUBLING_OUTPUTS)
def test_the_tail_bound_keeps_the_plain_doubling_outputs(letters, q0, t0, xs, want):
    xs = tuple(Fraction(x) for x in xs)
    if isinstance(want, str):
        assert truncated_trace(W(letters), q0, t0, xs).hex() == want
    else:
        with pytest.raises(want):
            truncated_trace(W(letters), q0, t0, xs)


def test_a_zero_trace_stays_the_integer_zero():
    got = truncated_trace(W("2"), Fraction(1, 3), Fraction(1, 2), (Fraction(0),))
    assert (got, type(got)) == (0, int)


def test_a_trace_that_never_settles_runs_every_doubling_then_gives_up():
    with pytest.raises(NoConvergence, match=f"not stable .* {MAX_SIZE}"):
        truncated_trace(W("22"), Fraction(99, 100), Fraction(999, 1000))
