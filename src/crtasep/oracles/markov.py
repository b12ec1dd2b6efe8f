"""Exact Markov-chain oracle: the ring-process transition matrix and its
stationary distribution.

A cyclic shift of every word maps the ring process to itself, so its unique
stationary law is constant on rotation orbits.  `steady_state` therefore
checks that the stationary law is unique (exactly one closed communicating
class), lumps the chain onto the rotation orbits, solves the quotient's
balance system (about m/n unknowns instead of m) by rational Gauss-Jordan,
spreads each orbit's mass evenly over its states, and certifies the result
exactly on the full chain: pi P = pi, sum(pi) = 1 and no negative entry.
When the states or the entries are not rotation-invariant the orbits are
singletons and the same solve runs on the full chain.  Only the chain and
its symmetry are used, never the tableau formula, so the oracle stays
independent of what it checks."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ..combinatorics import Word, enumerate_states
from ..errors import InvalidRate, SingularSystem


@dataclass(frozen=True)
class TransitionMatrix:
    states: tuple[Word, ...]
    t0: Fraction
    rows: tuple[tuple[Fraction, ...], ...]

    @property
    def size(self) -> int:
        return len(self.states)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def index_of(self, mu: Word) -> int:
        return self.states.index(mu)


def build_transition_matrix(k: int, r: int, l: int, t0) -> TransitionMatrix:
    """One step of the ring process: a cyclically adjacent pair with the
    larger letter on the left swaps with probability t0/n, the reverse swap
    has probability 1/n; remaining mass stays put.  On the two-site ring
    both bonds join the same pair, so those rates add."""
    t0 = Fraction(t0)
    if not 0 <= t0 <= 1:
        raise InvalidRate(f"hop rate must lie in [0, 1]: {t0}")
    states = enumerate_states(k, r, l)
    index = {mu: i for i, mu in enumerate(states)}
    n = k + r + l
    rows = []
    for mu in states:
        row = [Fraction(0)] * len(states)
        off = Fraction(0)
        for p in range(n):
            a, b = mu.letters[p], mu.letters[(p + 1) % n]
            if a == b:
                continue
            swapped = list(mu.letters)
            swapped[p], swapped[(p + 1) % n] = b, a
            rate = Fraction(t0, n) if a > b else Fraction(1, n)
            row[index[Word(tuple(swapped))]] += rate
            off += rate
        row[index[mu]] = 1 - off
        rows.append(tuple(row))
    return TransitionMatrix(tuple(states), t0, tuple(rows))


def steady_state(matrix: TransitionMatrix) -> tuple[Fraction, ...]:
    """The unique probability vector with pi P = pi, solved exactly on the
    quotient by rotation; entries are aligned with ``matrix.states``.

    1. Uniqueness: the graph of nonzero off-diagonal entries must have
       exactly one closed communicating class, which for a stochastic
       matrix is exactly a one-dimensional kernel; otherwise
       `SingularSystem`.
    2. Partition: the cyclic-shift orbits of the states when the state set
       is closed under the shift and P[rho mu][rho nu] = P[mu][nu] on every
       nonzero entry, so pi is constant on each orbit; singletons
       otherwise.
    3. Quotient solve: with Q[O][O'] the sum of P[rep O][nu] over nu in O',
       one balance equation of pi_hat Q = pi_hat is replaced by
       sum(pi_hat) = 1 and the system is solved by rational Gauss-Jordan.
    4. Lift: pi(mu) = pi_hat(O) / |O| for mu in O.
    5. Certificate: pi P = pi and sum(pi) = 1 are checked exactly on the
       full chain, and a negative entry is rejected; either failure raises
       `SingularSystem`."""
    m = matrix.size
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix.rows]
    if not _one_closed_class(rows):
        raise SingularSystem("the chain has more than one closed class")
    orbits = _rotation_orbits(matrix.states, rows)

    # Equations indexed by orbit O': sum_O pi_hat(O) (Q[O][O'] - delta) = 0.
    size = len(orbits)
    orbit_of = [0] * m
    for o, orbit in enumerate(orbits):
        for i in orbit:
            orbit_of[i] = o
    a = [[Fraction(0)] * size for _ in range(size)]
    for o, orbit in enumerate(orbits):
        for j, v in rows[orbit[0]].items():
            a[orbit_of[j]][o] += v
        a[o][o] -= 1
    b = [Fraction(0)] * size
    a[size - 1] = [Fraction(1)] * size
    b[size - 1] = Fraction(1)

    for col in range(size):
        pivot = next((row for row in range(col, size) if a[row][col] != 0), None)
        if pivot is None:  # only reachable when the rows are not stochastic
            raise SingularSystem("stationary system is rank deficient")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        b[col] *= inv
        for row in range(size):
            if row != col and a[row][col]:
                factor = a[row][col]
                a[row] = [u - factor * v for u, v in zip(a[row], a[col])]
                b[row] -= factor * b[col]

    pi = [b[orbit_of[i]] / len(orbits[orbit_of[i]]) for i in range(m)]
    flow = [Fraction(0)] * m
    for i, row in enumerate(rows):
        for j, v in row.items():
            flow[j] += pi[i] * v
    if flow != pi or sum(pi) != 1:
        raise SingularSystem("the solution fails pi P = pi or sum(pi) = 1")
    if any(p < 0 for p in pi):
        raise SingularSystem("negative entry in the stationary solution")
    return tuple(pi)


def _one_closed_class(succ: Sequence[Iterable[int]]) -> bool:
    """Whether the directed graph ``succ`` (self-loops allowed; they change
    no class) has exactly one closed (sink) strongly connected class.  The
    state finishing last in a depth-first search of the reversed graph lies
    in a closed class (Kosaraju), and that class is the only one exactly
    when every state reaches it."""
    m = len(succ)
    pred: list[list[int]] = [[] for _ in range(m)]
    for i, js in enumerate(succ):
        for j in js:
            pred[j].append(i)
    seen = [False] * m
    last = 0
    for root in range(m):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(pred[root]))]
        while stack:
            v, todo = stack[-1]
            w = next((w for w in todo if not seen[w]), None)
            if w is None:
                stack.pop()
                last = v
            else:
                seen[w] = True
                stack.append((w, iter(pred[w])))
    reached, frontier = {last}, [last]
    while frontier:
        for w in pred[frontier.pop()]:
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    return len(reached) == m


def _rotation_orbits(states: tuple[Word, ...], rows: list[dict[int, Fraction]]) -> list[list[int]]:
    """Index lists of the cyclic-shift orbits of ``states`` when the shift
    permutes them and preserves every nonzero entry of ``rows`` (so it is
    an automorphism of the chain); singletons otherwise."""
    index = {mu: i for i, mu in enumerate(states)}
    shift = [index.get(Word(mu.letters[1:] + mu.letters[:1])) for mu in states]
    equivariant = set(shift) == set(range(len(states))) and all(
        rows[shift[i]].get(shift[j]) == v for i, row in enumerate(rows) for j, v in row.items()
    )
    if not equivariant:
        return [[i] for i in range(len(states))]
    orbits, seen = [], set()
    for i in range(len(states)):
        if i not in seen:
            orbit, j = [i], shift[i]
            while j != i:
                orbit.append(j)
                j = shift[j]
            seen.update(orbit)
            orbits.append(orbit)
    return orbits
