"""Symbolic trace oracle: the peeling recurrence for traces of the banded
matrix products, with the closed form on words without holes as base case.

Peeling the 0 at position d of a labeled word rewrites the trace as a sum
over subsets I of the heavy positions and total orders sigma of I: the
factorial ratio [r+l-|I|]!/[r+l]! times x_I^2 x_d / x_{last deleted} times
t^dis q^rec of the order (0 inserted at the rank of d), times the trace of
the word with I and d removed, labels kept.  Restriction never removes a
1, so the base-case scalar (1 - q t^r) is constant along the recursion.

The recurrence is written once, over a coefficient ``Ring`` from
``weights``: ``SYMBOLIC`` gives the trace in Q(q,t)[x], memoised across
calls; ``point_ring`` gives its exact value at one point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ..algebra.qtx import QtxExpr
from ..combinatorics import Word, disorder, partial_perms, recoils
from ..weights import SYMBOLIC, Ring, omega, point_ring

Labeled = tuple[tuple[int, int], ...]  # ((label, letter), ...)

_SYMBOLIC_CACHE: dict[tuple[Labeled, str], QtxExpr] = {}


def _label(mu: Word) -> Labeled:
    return tuple(enumerate(mu.letters, start=1))


def _pick_d(labeled: Labeled, strategy: str) -> int:
    zeros = [lab for lab, a in labeled if a == 0]
    if strategy == "max":
        return max(zeros)
    if strategy == "min":
        return min(zeros)
    raise ValueError(f"unknown d strategy {strategy!r}")


def trace_by_recurrence(mu: Word, d_strategy: str = "max") -> QtxExpr:
    """tr(A_{mu_1}(x_1)...A_{mu_n}(x_n) S) as an element of Q(q,t)[x].

    The result is a formal rational-function identity; any position with a
    hole may be peeled (``d_strategy`` picks which), and the answer is
    independent of the choice.
    """
    return _trace(_label(mu), d_strategy, SYMBOLIC, _SYMBOLIC_CACHE)


def trace_rec_eval(mu: Word, q0, t0, xs, d_strategy: str = "max") -> Fraction:
    """The same recurrence evaluated at exact rationals."""
    return _trace(_label(mu), d_strategy, point_ring(q0, t0, xs, mu.n), {})


def _trace(labeled: Labeled, strategy: str, ring: Ring, cache: dict):
    key = (labeled, strategy)
    cached = cache.get(key)
    if cached is not None:
        return cached

    n_top = max((lab for lab, _ in labeled), default=1)
    ea = [lab for lab, a in labeled if a != 0]
    if len(ea) == len(labeled):  # no holes: closed form
        exps = [0] * n_top
        for lab, a in labeled:
            exps[lab - 1] = a  # x once per 1, squared per 2
        result = ring.base(exps, sum(1 for _, a in labeled if a == 1))
        cache[key] = result
        return result

    d = _pick_d(labeled, strategy)
    ee = [lab for lab, a in labeled if a == 2]
    rl = len(ea)
    total = 0
    for s in range(0, len(ee) + 1):
        ratio = ring.ratio(rl - s, rl)
        for subset in itertools.combinations(ee, s):
            removed = set(subset) | {d}
            sub = tuple(entry for entry in labeled if entry[0] not in removed)
            subtrace = _trace(sub, strategy, ring, cache)
            acc = 0
            for perm in partial_perms(subset, ea, d):
                exps = [0] * n_top
                for c in subset:
                    exps[c - 1] += 2
                exps[d - 1] += 1
                exps[perm.col_of(s) - 1] -= 1  # the last deleted position (d itself when s=0)
                acc = acc + ring.term(recoils(perm), disorder(perm), exps)
            total = total + subtrace * acc * ratio
    cache[key] = total
    return total


def f_mu(mu: Word) -> QtxExpr:
    """The normalised trace: omega of the sorted word times the trace.

    For partitions whose largest part is 2 this equals the nonsymmetric
    Macdonald polynomial of the partition.
    """
    scalar = omega(mu.sorted_decreasing())
    return trace_by_recurrence(mu) * scalar
