"""Exact Markov-chain oracle: the ring-process transition matrix and its
stationary distribution.

`build_transition_matrix` reads each state's moves from one helper on letter
tuples, `_moves`, and indexes the states by their letters: no `Word` is
built per move.

A cyclic shift of every word maps the ring process to itself, so its unique
stationary law is constant on rotation orbits.  `steady_state` therefore
checks that the stationary law is unique (exactly one closed communicating
class), lumps the chain onto the rotation orbits (the shift is found by
letter tuple and checked on the integer rows M = D P), solves the quotient's
balance system (about m/n unknowns instead of m) in integers by Bareiss
elimination, spreads each orbit's mass evenly over its states, and certifies
the result in integers on the full chain: pi P = pi and no negative entry.
When the states or the entries are not rotation-invariant the orbits are
singletons and the same solve runs on the full chain.  Only the chain and
its symmetry are used, never the tableau formula, so the oracle stays
independent of what it checks."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

from ..algebra.rings import _Table
from ..combinatorics import Word, enumerate_states
from ..errors import InvalidRate, SingularSystem


@dataclass(frozen=True)
class TransitionMatrix:
    states: tuple[Word, ...]
    t0: Fraction
    rows: tuple[dict[int, Fraction], ...]  # row i: {column: entry} of its nonzeros

    @property
    def size(self) -> int:
        return len(self.states)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i].get(j, Fraction(0))

    def index_of(self, mu: Word) -> int:
        return self.states.index(mu)


def build_transition_matrix(k: int, r: int, l: int, t0) -> TransitionMatrix:
    """One step of the ring process: a cyclically adjacent pair with the
    larger letter on the left swaps with probability t0/n, the reverse swap
    has probability 1/n; remaining mass stays put.  On the two-site ring
    both bonds join the same pair, so those rates add.  With t0 = a/b the
    moves are integer rates a and b over the one denominator n b."""
    t0 = Fraction(t0)
    if not 0 <= t0 <= 1:
        raise InvalidRate(f"hop rate must lie in [0, 1]: {t0}")
    states = enumerate_states(k, r, l)
    index = {mu.letters: i for i, mu in enumerate(states)}
    n = k + r + l
    fast, slow = t0.numerator, t0.denominator
    entry = _Table(lambda v: Fraction(v, n * slow))  # one Fraction per distinct rate
    rows = []
    for i, mu in enumerate(states):
        moves: dict[int, int] = {}
        for target, is_fast in _moves(mu.letters):
            j = index[target]
            moves[j] = moves.get(j, 0) + (fast if is_fast else slow)
        moves[i] = n * slow - sum(moves.values())
        rows.append({j: entry[v] for j, v in moves.items() if v})
    return TransitionMatrix(tuple(states), t0, tuple(rows))


def _moves(letters: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], bool]]:
    """(the swapped letters, whether the swap is the fast one: the larger
    letter on the left) for each cyclically adjacent unequal pair.  The
    two-site ring's one pair comes twice, once per bond."""
    for p in range(len(letters) - 1):
        a, b = letters[p], letters[p + 1]
        if a != b:
            yield letters[:p] + (b, a) + letters[p + 2 :], a > b
    a, b = letters[-1], letters[0]  # the bond that closes the ring
    if a != b:
        yield (a,) + letters[1:-1] + (b,), a > b


def steady_state(matrix: TransitionMatrix) -> tuple[Fraction, ...]:
    """The unique probability vector with pi P = pi, solved exactly on the
    quotient by rotation; entries are aligned with ``matrix.states``.

    1. Uniqueness: the graph of nonzero off-diagonal entries must have
       exactly one closed communicating class, which for a stochastic
       matrix is exactly a one-dimensional kernel; otherwise
       `SingularSystem`.
    2. Partition: with M = D P, D the lcm of P's denominators, the
       cyclic-shift orbits of the states when the state set is closed under
       the shift and M[rho mu][rho nu] = M[mu][nu] on every nonzero entry,
       so pi is constant on each orbit; singletons otherwise.
    3. Quotient solve: in integers.  With Q[O][O'] the sum of M[rep O][nu]
       over nu in O', one equation of pi_hat Q = D pi_hat is replaced by
       sum(pi_hat) = 1, and Bareiss elimination, zero wherever Gaussian
       elimination is zero, gives x = det pi_hat, an integer vector by
       Cramer's rule.
    4. Lift: w(mu) = x(O) L / |O| for mu in O, L the lcm of the orbit sizes,
       signed so that sum(w) > 0; pi = w / sum(w).
    5. Certificate: `_certify` checks w M = D w and w >= 0 on the full chain
       in integers; either failure raises `SingularSystem`."""
    if not _one_closed_class(matrix.rows):
        raise SingularSystem("the chain has more than one closed class")
    d = lcm(*{v.denominator for row in matrix.rows for v in row.values()})
    ints = [{j: v.numerator * (d // v.denominator) for j, v in row.items()} for row in matrix.rows]
    orbits = _rotation_orbits(matrix.states, ints)

    # Equations indexed by orbit O': sum_O pi_hat(O) (Q[O][O'] - D delta) = 0,
    # the last replaced by the all-ones row; column `size` is the right side.
    size = len(orbits)
    orbit_of = {i: o for o, orbit in enumerate(orbits) for i in orbit}
    a = [[0] * (size + 1) for _ in range(size)]
    for o, orbit in enumerate(orbits):
        for j, v in ints[orbit[0]].items():
            a[orbit_of[j]][o] += v
        a[o][o] -= d
    a[size - 1] = [1] * (size + 1)

    det = 1  # the last pivot: the leading minor of the rows so far
    for col in range(size):
        pivot = next((row for row in range(col, size) if a[row][col]), None)
        if pivot is None:  # only reachable when the rows are not stochastic
            raise SingularSystem("stationary system is rank deficient")
        a[col], a[pivot] = a[pivot], a[col]
        head, tail = a[col][col], a[col][col + 1 :]
        for row in a[col + 1 :]:
            f = row[col]
            row[col + 1 :] = [(u * head - f * v) // det for u, v in zip(row[col + 1 :], tail)]
        det = head
    x = [0] * size
    for col in reversed(range(size)):
        done = sum(u * v for u, v in zip(a[col][col + 1 : size], x[col + 1 :]))
        x[col] = (det * a[col][size] - done) // a[col][col]

    scale = lcm(*map(len, orbits)) * (1 if det > 0 else -1)
    w = [x[orbit_of[i]] * scale // len(orbits[orbit_of[i]]) for i in range(matrix.size)]
    _certify(ints, d, w)
    total = sum(w)
    return tuple(Fraction(v, total) for v in w)


def _certify(ints: Sequence[dict[int, int]], d: int, w: Sequence[int]) -> None:
    """Raise `SingularSystem` unless w M = D w and w >= 0, M the rows ``ints``."""
    flow = [0] * len(w)
    for wi, row in zip(w, ints):
        for j, v in row.items():
            flow[j] += wi * v
    if flow != [d * wi for wi in w]:
        raise SingularSystem("the solution fails pi P = pi or sum(pi) = 1")
    if any(wi < 0 for wi in w):
        raise SingularSystem("negative entry in the stationary solution")


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


def _rotation_orbits(states: tuple[Word, ...], rows: Sequence[dict[int, int]]) -> list[list[int]]:
    """Index lists of the cyclic-shift orbits of ``states`` when the shift
    permutes them and preserves every nonzero entry of ``rows`` (so it is
    an automorphism of the chain); singletons otherwise.  ``rows`` are the
    integer M = D P: D > 0 is one constant, so equal entries of M are equal
    entries of P."""
    index = {mu.letters: i for i, mu in enumerate(states)}
    shift = [index.get(mu.letters[1:] + mu.letters[:1]) for mu in states]
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
