"""Symbolic trace oracle: the peeling recurrence for traces of the banded
matrix products, with the closed form on words without holes as base case.

Peeling the 0 at position d of a labeled word rewrites the trace as a sum
over subsets I of the heavy positions and total orders sigma of I: the
factorial ratio [rl-|I|]!/[rl]! times x_I^2 x_d / x_{last deleted} times
t^dis q^rec of the order (0 inserted at the rank of d), times the trace of
the word with I and d removed, labels kept; rl counts the nonzero letters.
A word without holes has trace x^mu / (1 - q t^r).  Peeling never removes a
1, so r is constant and the ratios telescope: the recursion computes the
integral N(w) = (1 - q t^r) tr(w) prod_{r<j<=rl(w)} (1 - q t^j), the sum of
(1 - t)^|I| N(w minus I and d) acc(I, sigma), or x^mu prod_{r<j<=r+l}
(1 - q t^j) without holes; each entry divides once by prod_{r<=j<=r+l}.

The recurrence is written once, over a coefficient ``Ring`` from
``algebra.rings``: ``SYMBOLIC`` gives the trace in Q(q,t)[x], ``point_ring``
its value at one exact point.  Each I gives one term per last deleted position,
its orders' q^rec t^dis as one polynomial from ``combinatorics.reading_stats``,
the tableau kernel's table; sums start from their first term, in the ring.
Each top-level call has its own memo, freed on return: one memo shared over
a ``verify recurrence`` sweep gained little time (n = 7: 18.1 s vs 21.2 s)
for three times the peak (80 MB vs 27 MB).  ``omega`` normalises the trace
in ``f_mu``.  Like every oracle, this reads nothing of ``weights``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ..algebra import MultiPoly, QtxExpr, RatFunc
from ..algebra.rings import SYMBOLIC, Ring, point_ring
from ..combinatorics import Word, reading_stats

Labeled = tuple[tuple[int, int], ...]  # ((label, letter), ...)

# Never filled (the memo is per call); bench/child.py and bench/layers.py read it.
_SYMBOLIC_CACHE: dict = {}


def _answer(mu: Word, d_strategy: str, ring: Ring):
    """tr(mu) in the ring: N(mu) over prod_{r<=j<=r+l} (1 - q t^j)."""
    if d_strategy not in ("max", "min"):
        raise ValueError(f"unknown d strategy {d_strategy!r}")
    labeled = tuple(enumerate(mu.letters, start=1))
    return ring.divide(_trace(labeled, d_strategy, ring, {}), mu.r - 1, mu.r + mu.l)


def trace_by_recurrence(mu: Word, d_strategy: str = "max") -> QtxExpr:
    """tr(A_{mu_1}(x_1)...A_{mu_n}(x_n) S) as an element of Q(q,t)[x].

    The result is a formal rational-function identity; any position with a
    hole may be peeled (``d_strategy`` picks which), and the answer is
    independent of the choice.
    """
    return _answer(mu, d_strategy, SYMBOLIC)


def trace_rec_eval(mu: Word, q0, t0, xs, d_strategy: str = "max") -> Fraction:
    """The same recurrence evaluated at exact rationals."""
    return _answer(mu, d_strategy, point_ring(q0, t0, xs, mu.n))


def _trace(labeled: Labeled, strategy: str, ring: Ring, memo: dict):
    """N(w) of a labeled word w, r its number of 1s."""
    if labeled in memo:
        return memo[labeled]

    n_top = max((lab for lab, _ in labeled), default=1)
    ea = [lab for lab, a in labeled if a != 0]
    if len(ea) == len(labeled):  # no holes: closed form
        exps = [0] * n_top
        for lab, a in labeled:
            exps[lab - 1] = a  # x once per 1, squared per 2
        memo[labeled] = ring.term(MultiPoly.one(), exps) * ring.factor(0, exps.count(1), len(ea))
        return memo[labeled]

    d = (max if strategy == "max" else min)(lab for lab, a in labeled if a == 0)
    ee = [lab for lab, a in labeled if a == 2]
    total = None
    for s in range(0, len(ee) + 1):
        for subset in itertools.combinations(ee, s):
            removed = set(subset) | {d}
            sub = tuple(entry for entry in labeled if entry[0] not in removed)
            acc = None
            for last, coeff in reading_stats(subset, ea, d):
                exps = [0] * n_top
                for c in subset:
                    exps[c - 1] += 2
                exps[d - 1] += 1
                exps[(d if last is None else last) - 1] -= 1  # the last deleted position
                v = ring.term(coeff, exps)
                acc = v if acc is None else acc + v
            v = _trace(sub, strategy, ring, memo) * (acc * ring.factor(s, 0, 0))
            total = v if total is None else total + v
    memo[labeled] = total
    return total


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


def f_mu(mu: Word) -> QtxExpr:
    """The normalised trace: omega of the sorted word times the trace.

    For partitions whose largest part is 2 this equals the nonsymmetric
    Macdonald polynomial of the partition.
    """
    scalar = omega(mu.sorted_decreasing())
    return trace_by_recurrence(mu) * scalar
