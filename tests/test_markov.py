"""The exact Markov oracle against the tableau formula and against a dense
Gauss-Jordan solve over every state."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtasep.combinatorics import Word, enumerate_states
from crtasep.errors import InvalidRate, SingularSystem
from crtasep.oracles.markov import TransitionMatrix, build_transition_matrix, steady_state
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
