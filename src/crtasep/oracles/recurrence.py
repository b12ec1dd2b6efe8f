"""Symbolic trace oracle: the peeling recurrence for traces of the banded
matrix products, with the closed form on words without holes as base case.

Peeling the 0 at position d of a labeled word rewrites the trace as a sum
over subsets I of the heavy positions and total orders sigma of I: the
factorial ratio [rl-|I|]!/[rl]! times x_I^2 x_d / x_{last deleted} times
t^dis q^rec of the order (0 inserted at the rank of d), times the trace of
the word with I and d removed, labels kept; rl counts the nonzero letters.
A word without holes has trace x^mu / (1 - q t^r).  Peeling never removes a
1, so r is constant and the ratios telescope into the integral
N(w) = (1 - q t^r) tr(w) prod_{r<j<=rl(w)} (1 - q t^j), the sum of
(1 - t)^|I| acc(I) N(w minus I and d), or x^mu prod_{r<j<=r+l} (1 - q t^j)
without holes; each entry point divides once by prod_{r<=j<=r+l}.

With the zeros in a fixed order (``d_strategy``), a word on the way is mu less
the zeros peeled and U, the 2s removed, so N(mu) unrolls into a sum over
chains {} = U_0 <= ... <= U_k (k zeros) of the steps' acc(I), I = U_j minus
U_{j-1}, times U_k's base term, whose factor takes their (1 - t)^|I| once, as
(1 - t)^|U_k|.  ``_trace`` sums it forward, one layer {U: the sum over chains
ending in U} at a time, U the packed product of its x_c; an empty I (acc =
1) passes each chain sum on to the same U with no reading, row or product.
Over a ``Ring`` of ``algebra.rings``, each nonempty I is a subset of one
``combinatorics.row_step``, as in a tableau row, with x = x_d x_I^2, and the
base term is x^mu / U^2.  ``omega`` normalises the trace in ``f_mu``; this
reads nothing of ``weights``.
"""

from __future__ import annotations

from fractions import Fraction

from ..algebra import MultiPoly, QtxExpr, RatFunc
from ..algebra.rings import SYMBOLIC, Ring, point_ring, x_of
from ..combinatorics import Word, row_step

# Never filled (the pass keeps nothing between calls); bench/child.py and bench/layers.py read it.
_SYMBOLIC_CACHE: dict = {}


def _answer(mu: Word, d_strategy: str, ring: Ring):
    """tr(mu) in the ring: N(mu) over prod_{r<=j<=r+l} (1 - q t^j)."""
    if d_strategy not in ("max", "min"):
        raise ValueError(f"unknown d strategy {d_strategy!r}")
    return ring.divide(_trace(mu, d_strategy, ring), mu.r - 1, mu.r + mu.l)


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


def _trace(mu: Word, strategy: str, ring: Ring):
    """N(mu): the chain sums over U peel by peel, then over the base terms."""
    columns = [(c, x_of(c), a == 2) for c, a in enumerate(mu.letters, start=1) if a]
    zeros = mu.positions_of(0)
    layer = {0: None}  # U as the product of its x_c -> its chains' sum; None is the empty chain's 1
    for d in reversed(zeros) if strategy == "max" else zeros:
        layer = row_step(layer, columns, d, x_of(d), 2, ring.row)
    full = sum(xc << square for _, xc, square in columns)  # x^mu
    total = None
    for removed, chains in layer.items():
        x = full - 2 * removed  # x^mu less the removed 2s
        v = ring.base(x) if x or not mu.l else None
        if mu.l:  # else U is empty, r + l = r, and the factor is 1
            u = removed.bit_count()
            f = ring.factor(u, mu.r, mu.r + mu.l - u)
            v = f if v is None else v * f
        v = v if chains is None else chains * v
        total = v if total is None else total + v
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
