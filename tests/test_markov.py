"""The exact Markov oracle against the tableau formula and against a dense
Gauss-Jordan solve over every state."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtasep.combinatorics import Word, enumerate_states
from crtasep.errors import InvalidRate, SingularSystem
from crtasep.oracles.markov import (
    TransitionMatrix,
    _certify,
    _rotation_orbits,
    build_transition_matrix,
    steady_state,
)
from crtasep.weights import stationary_prob

HALF = Fraction(1, 2)


def test_transition_entries():
    m = build_transition_matrix(1, 1, 1, HALF)
    i, j = m.index_of(Word.from_string("210")), m.index_of(Word.from_string("120"))
    assert m.entry(i, j) == HALF / 3  # swap of the adjacent pair (2,1)
    assert m.entry(j, i) == Fraction(1, 3)
    # wraparound pair: 021 -> 120 exchanges positions (3, 1)
    i, j = m.index_of(Word.from_string("021")), m.index_of(Word.from_string("120"))
    assert m.entry(i, j) == HALF / 3
    assert m.entry(j, i) == Fraction(1, 3)


def test_rows_are_stochastic():
    for counts in [(1, 1, 1), (2, 1, 1), (0, 2, 2), (2, 0, 2)]:
        m = build_transition_matrix(*counts, HALF)
        for row in m.rows:
            assert sum(row.values()) == 1
            assert all(v > 0 for v in row.values())  # only nonzeros are stored


def test_off_diagonal_rates_for_n_at_least_3():
    m = build_transition_matrix(2, 1, 1, Fraction(1, 3))
    n = 4
    allowed = {Fraction(0), Fraction(1, 3) / n, Fraction(1, n)}
    for i, row in enumerate(m.rows):
        for j, v in row.items():
            if i != j:
                assert v in allowed


def test_two_site_ring_rates_add():
    # both bonds of the 2-ring join the same pair, so rates accumulate
    m = build_transition_matrix(1, 0, 1, HALF)
    i, j = m.index_of(Word.from_string("20")), m.index_of(Word.from_string("02"))
    assert m.entry(i, j) == (HALF + 1) / 2
    assert m.entry(j, i) == (HALF + 1) / 2
    assert steady_state(m) == (HALF, HALF)


def _reference_rows(k, r, l, t0):
    """The chain's rows by the rule, one ``Word`` per move: a cyclically
    adjacent unequal pair swaps at rate t0/n with the larger letter on the
    left and 1/n otherwise, rates of equal targets add, and the rest of the
    mass stays put."""
    states = enumerate_states(k, r, l)
    index = {mu: i for i, mu in enumerate(states)}
    n = k + r + l
    rows = []
    for i, mu in enumerate(states):
        row: dict[int, Fraction] = {}
        for p in range(n):
            a, b = mu.letters[p], mu.letters[(p + 1) % n]
            if a == b:
                continue
            swapped = list(mu.letters)
            swapped[p], swapped[(p + 1) % n] = b, a
            j = index[Word(tuple(swapped))]
            row[j] = row.get(j, Fraction(0)) + (t0 if a > b else 1) / Fraction(n)
        row[i] = 1 - sum(row.values())
        rows.append({j: v for j, v in row.items() if v})
    return tuple(states), tuple(rows)


@pytest.mark.parametrize("t0", [Fraction(0), Fraction(1, 3), Fraction(1)])
def test_rows_follow_the_move_rule_on_every_small_sector(t0):
    sectors = 0
    for n in range(1, 7):
        for k in range(n + 1):
            for r in range(n - k + 1):
                m = build_transition_matrix(k, r, n - k - r, t0)
                assert (m.states, m.rows) == _reference_rows(k, r, n - k - r, t0), (k, r, t0)
                sectors += 1
    assert sectors == sum((n + 1) * (n + 2) // 2 for n in range(1, 7))


def test_shift_closed_states_with_one_broken_rate_are_not_lumped():
    # 001, 010, 100: one rotation orbit, and the ring chain commutes with
    # the shift; moving mass in one row breaks that, so the orbits must be
    # singletons and the full chain is solved and certified
    ring = build_transition_matrix(2, 1, 0, HALF)
    broken_row = {0: Fraction(1, 2), 1: Fraction(1, 6), 2: Fraction(1, 3)}
    assert broken_row != ring.rows[0] and sum(broken_row.values()) == 1
    m = TransitionMatrix(ring.states, HALF, (broken_row,) + ring.rows[1:])
    for matrix, orbits in ((ring, [[0, 1, 2]]), (m, [[0], [1], [2]])):
        _, ints, _ = _integer_chain(matrix)
        assert _rotation_orbits(matrix.states, ints) == orbits
    pi = steady_state(m)
    assert pi == _dense_steady_state(m)
    assert pi != (Fraction(1, 3),) * 3
    assert all(sum(pi[i] * m.entry(i, j) for i in range(3)) == pi[j] for j in range(3))


def test_invalid_rate():
    with pytest.raises(InvalidRate):
        build_transition_matrix(1, 1, 1, Fraction(3, 2))
    with pytest.raises(InvalidRate):
        build_transition_matrix(1, 1, 1, Fraction(-1, 2))


def test_single_state_chain():
    m = build_transition_matrix(3, 0, 0, HALF)
    assert steady_state(m) == (Fraction(1),)


def test_uniform_at_t_equal_one():
    m = build_transition_matrix(1, 1, 1, Fraction(1))
    assert steady_state(m) == (Fraction(1, 6),) * 6


def test_steady_state_matches_tableau_formula():
    for counts in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 2)]:
        for t0 in (Fraction(1, 3), HALF, Fraction(2, 3)):
            m = build_transition_matrix(*counts, t0)
            pi = steady_state(m)
            assert sum(pi) == 1
            for idx, mu in enumerate(m.states):
                assert pi[idx] == stationary_prob(mu).evaluate(1, t0)


def test_singular_system_detected():
    # two disconnected absorbing states: kernel dimension 2
    states = tuple(enumerate_states(1, 0, 1))
    eye = ({0: Fraction(1)}, {1: Fraction(1)})
    broken = TransitionMatrix(states, Fraction(1, 2), eye)
    with pytest.raises(SingularSystem):
        steady_state(broken)


def test_steady_state_scales_to_322():
    # m = 210 states, 30 rotation orbits
    t0 = Fraction(2, 5)
    m = build_transition_matrix(3, 2, 2, t0)
    pi = steady_state(m)
    assert m.size == 210
    for idx, mu in enumerate(m.states):
        assert pi[idx] == stationary_prob(mu).evaluate(1, t0)


def test_steady_state_scales_to_332():
    # m = 560 states in 70 rotation orbits: the integer solve's entries grow
    # as the minors of the 70 x 70 quotient
    t0 = Fraction(3, 7)
    m = build_transition_matrix(3, 3, 2, t0)
    pi = steady_state(m)
    assert m.size == 560
    for idx, mu in enumerate(m.states):
        assert pi[idx] == stationary_prob(mu).evaluate(1, t0)


def _integer_chain(matrix: TransitionMatrix):
    """D, the rows of M = D P, and the stationary law as ints over one denominator."""
    d = lcm(*{v.denominator for row in matrix.rows for v in row.values()})
    ints = [{j: v.numerator * (d // v.denominator) for j, v in row.items()} for row in matrix.rows]
    pi = steady_state(matrix)
    total = lcm(*(p.denominator for p in pi))
    return d, ints, [int(p * total) for p in pi]


def test_certificate_rejects_a_scaled_orbit_or_two_swapped_states():
    matrix = build_transition_matrix(3, 2, 2, HALF)
    d, ints, w = _integer_chain(matrix)
    _certify(ints, d, w)  # the solved weights pass
    mu = matrix.states[0]
    orbit = {matrix.index_of(mu)}
    while _rotate(mu) != matrix.states[0]:
        mu = _rotate(mu)
        orbit.add(matrix.index_of(mu))
    scaled = [2 * v if i in orbit else v for i, v in enumerate(w)]
    with pytest.raises(SingularSystem, match="fails pi P = pi"):
        _certify(ints, d, scaled)
    i, j = 0, w.index(max(w))
    assert w[i] != w[j]
    swapped = list(w)
    swapped[i], swapped[j] = w[j], w[i]
    with pytest.raises(SingularSystem, match="fails pi P = pi"):
        _certify(ints, d, swapped)
    with pytest.raises(SingularSystem, match="negative entry"):
        _certify(ints, d, [-v for v in w])


# -- contract: the quotient solve against a dense solve over every state -----


def _dense_steady_state(matrix: TransitionMatrix) -> tuple[Fraction, ...]:
    """Reference: pi P = pi with one balance equation replaced by
    sum(pi) = 1, by Gauss-Jordan on the full m x m system; a vanishing
    pivot means the kernel is not one-dimensional."""
    m = matrix.size
    a = [[matrix.entry(mu, nu) - (1 if mu == nu else 0) for mu in range(m)] for nu in range(m)]
    b = [Fraction(0)] * m
    a[m - 1] = [Fraction(1)] * m
    b[m - 1] = Fraction(1)
    for col in range(m):
        pivot = next((row for row in range(col, m) if a[row][col] != 0), None)
        if pivot is None:
            raise SingularSystem("stationary system is rank deficient")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        b[col] *= inv
        for row in range(m):
            if row != col and a[row][col]:
                factor = a[row][col]
                a[row] = [u - factor * v for u, v in zip(a[row], a[col])]
                b[row] -= factor * b[col]
    if any(p < 0 for p in b):
        raise SingularSystem("negative entry in the stationary solution")
    return tuple(b)


def _outcome(solve, matrix):
    try:
        return solve(matrix)
    except SingularSystem:
        return SingularSystem


def _rotate(mu: Word) -> Word:
    return Word(mu.letters[1:] + mu.letters[:1])


def _chain(states, weights) -> TransitionMatrix:
    """A stochastic matrix over ``states`` from ``{(i, j): positive weight}``,
    as sparse rows; a row without weights stays put."""
    m = len(states)
    rows = []
    for i in range(m):
        row = {j: Fraction(weights[i, j]) for j in range(m) if (i, j) in weights}
        total = sum(row.values())
        rows.append({j: v / total for j, v in row.items()} if total else {i: Fraction(1)})
    return TransitionMatrix(tuple(states), Fraction(1, 2), tuple(rows))


sectors = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)).filter(
    lambda c: 1 <= sum(c) <= 5
)
rates = st.fractions(min_value=0, max_value=1, max_denominator=7)


@settings(max_examples=40, deadline=None)
@given(sectors, rates)
def test_quotient_solve_matches_dense_on_ring_chains(counts, t0):
    m = build_transition_matrix(*counts, t0)
    assert _outcome(steady_state, m) == _outcome(_dense_steady_state, m)


@pytest.mark.parametrize("t0", [Fraction(0), Fraction(1)])
def test_quotient_solve_matches_dense_at_the_end_rates(t0):
    # t0 = 0 drops every fast swap (a one-way ring), t0 = 1 makes both swaps equal
    for n in range(1, 5):
        for k in range(n + 1):
            for r in range(n - k + 1):
                m = build_transition_matrix(k, r, n - k - r, t0)
                pi = steady_state(m)
                assert pi == _dense_steady_state(m), (k, r, t0)
                assert [type(p) for p in pi] == [Fraction] * m.size


@st.composite
def random_chains(draw):
    """Random sparse stochastic rows over one sector's states: usually not
    rotation-equivariant, sometimes with several closed classes."""
    states = enumerate_states(*draw(sectors))
    m = len(states)
    weights = draw(
        st.dictionaries(
            st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
            st.integers(1, 4),
            max_size=3 * m,
        )
    )
    return _chain(states, weights)


@settings(max_examples=60, deadline=None)
@given(random_chains())
def test_quotient_solve_matches_dense_on_random_chains(m):
    assert _outcome(steady_state, m) == _outcome(_dense_steady_state, m)


def test_transient_state_gets_zero():
    # 012 feeds the 3-cycle 021 -> 102 -> 210 -> 021 and is never re-entered;
    # the other states all lead into the cycle
    states = enumerate_states(1, 1, 1)
    idx = {str(mu): i for i, mu in enumerate(states)}
    edges = {("012", "021"): 1, ("012", "012"): 1, ("021", "102"): 1, ("102", "210"): 2,
             ("102", "102"): 1, ("210", "021"): 1, ("120", "012"): 1, ("201", "210"): 3}
    m = _chain(states, {(idx[a], idx[b]): w for (a, b), w in edges.items()})
    pi = steady_state(m)
    assert pi == _dense_steady_state(m)
    assert pi[idx["012"]] == 0
    # 102 is left with probability 2/3, so it holds 3/2 of the others' mass
    assert [pi[idx[w]] for w in ("021", "102", "210")] == [Fraction(2, 7), Fraction(3, 7), Fraction(2, 7)]


def test_equivariant_chain_with_two_closed_classes_is_singular():
    # each state rotates or stays: the two rotation orbits of 012 and 021
    # are both closed, and the chain commutes with the shift
    states = enumerate_states(1, 1, 1)
    idx = {mu: i for i, mu in enumerate(states)}
    m = _chain(states, {(idx[mu], idx[_rotate(mu)]): 1 for mu in states} | {(i, i): 1 for i in range(6)})
    for i, mu in enumerate(states):
        for j, nu in enumerate(states):
            assert m.entry(i, j) == m.entry(idx[_rotate(mu)], idx[_rotate(nu)])
    with pytest.raises(SingularSystem):
        steady_state(m)
