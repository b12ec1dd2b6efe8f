"""Trace recurrence, truncated numeric traces, and the matrix relations."""

import itertools
from fractions import Fraction

import pytest

from crtasep.algebra import MultiPoly, RatFunc, parse
from crtasep.combinatorics import Word
from crtasep.errors import DivergenceError, RelationViolation
from crtasep.oracles.matrices import (
    _assert_equal_interior,
    banded_matrix,
    check_ansatz_relations,
    check_matrix_relations,
    product_trace,
    sparse_mul,
    truncated_trace,
)
from crtasep.oracles.recurrence import f_mu, trace_by_recurrence, trace_rec_eval
from crtasep.weights import macdonald_E, omega, tab_qtx, tab_qtx_eval

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
    mu = W("02120")
    q0, t0 = Fraction(1, 5), Fraction(2, 7)
    xs = tuple(Fraction(i + 2, 3) for i in range(mu.n))
    assert trace_rec_eval(mu, q0, t0, xs) == trace_by_recurrence(mu).evaluate(q0, t0, xs)


def test_trace_identity_numeric_n7():
    mu = W("0212012")
    q0, t0 = Fraction(1, 3), Fraction(1, 2)
    xs = tuple(Fraction(i + 1, 2) for i in range(mu.n))
    lhs = (1 - q0 * t0**mu.r) * trace_rec_eval(mu, q0, t0, xs)
    assert lhs == tab_qtx_eval(mu, q0, t0, xs)


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
    lhs = sparse_mul(a0, a2)
    bad = dict(lhs)
    bad[(2, 2)] += 1  # deliberate corruption
    with pytest.raises(RelationViolation) as err:
        _assert_equal_interior("negative-control", bad, lhs, size)
    assert err.value.relation == "negative-control"
    assert err.value.entry == (2, 2)


def test_product_trace_matches_dense_expectation():
    # A1(x) and S are diagonal: trace is a finite geometric sum
    q0, t0, x0 = Fraction(1, 2), Fraction(1, 3), Fraction(2)
    got = product_trace(W("1"), q0, t0, (x0,), 6)
    assert got == sum(x0 * t0**i * q0**i for i in range(6))
