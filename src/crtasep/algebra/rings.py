"""The coefficient rings in which the tableau sums (``weights``) and the
trace recurrence (``oracles.recurrence``) are each written once; algebra
alone, so the oracles need nothing of the sums they check.  A ``Ring`` is
(term, factor, divide): ``SYMBOLIC`` keeps each Z[q, t] coefficient,
``T_ONLY`` sets q = 1, and ``point_ring`` values it at one exact point in
scaled integers, up to the one ``Fraction`` that ``divide`` makes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Callable, NamedTuple

from ..errors import PoleError
from .qtx import QtxExpr
from .ratfunc import RatFunc, qt_factor


class Ring(NamedTuple):
    """The coefficient ring of a tableau or trace sum; ``divide`` runs once per sum."""

    term: Callable  # (coefficient in Z[q, t], x_exponents) -> coefficient x^x_exponents
    factor: Callable  # (a, lo, hi) -> qt_factor(a, lo, hi) = (1 - t)^a prod_{lo<j<=hi} (1 - q t^j)
    divide: Callable  # (value, lo, hi) -> value / qt_factor(0, lo, hi), in the ring of the answer


SYMBOLIC = Ring(
    lambda coeff, exps: QtxExpr.x_monomial(exps, coeff),
    lambda a, lo, hi: QtxExpr.x_monomial((), qt_factor(a, lo, hi)),
    lambda value, lo, hi: QtxExpr({xs: RatFunc(c, qt_factor(0, lo, hi)) for xs, c in value.coeffs.items()}),
)
# keys: G's interned polynomials and qt_factor's values (23 in a law-sweep pass)
_at_q1 = lru_cache(maxsize=4096)(lambda p: p.subs_q(1))
T_ONLY = Ring(
    lambda coeff, exps: _at_q1(coeff),
    lambda a, lo, hi: _at_q1(qt_factor(a, lo, hi)),
    lambda value, lo, hi: RatFunc(value, _at_q1(qt_factor(0, lo, hi))),
)


class _Table(dict):
    """A memo freed with its owner: a missing key is made by ``make`` and kept."""

    __slots__ = ("make",)

    def __init__(self, make: Callable):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _Scaled:
    """A point ring's value v / L^k, L the ring's common denominator, as two
    ints; ``power`` is the ring's table d -> L^d.  ``+`` brings both to the
    larger k, ``*`` adds the k's."""

    __slots__ = ("v", "k", "power")

    def __init__(self, v: int, k: int, power: _Table):
        self.v, self.k, self.power = v, k, power

    def __add__(self, other: _Scaled) -> _Scaled:
        hi, lo = (self, other) if self.k >= other.k else (other, self)
        return _Scaled(hi.v + lo.v * self.power[hi.k - lo.k], hi.k, self.power)

    def __mul__(self, other: _Scaled) -> _Scaled:
        return _Scaled(self.v * other.v, self.k + other.k, self.power)


def point_ring(q0, t0, xs, n: int) -> Ring:
    """The values at q = q0, t = t0 and the n values x = xs, exact.  With L
    the lcm of their denominators, Q = q0 L, T = t0 L and X_i = x_i L are
    ints, and every value up to ``divide`` is an int over a power of L."""
    q0, t0 = Fraction(q0), Fraction(t0)
    xs = tuple(Fraction(v) for v in xs)
    if len(xs) != n:
        raise ValueError(f"need {n} x-values")
    L = lcm(q0.denominator, t0.denominator, *(x.denominator for x in xs))
    Q, T, *X = (v.numerator * (L // v.denominator) for v in (q0, t0, *xs))
    # the powers of L, each coefficient's value and each factor are made
    # once, in tables freed with the ring
    power = _Table(L.__pow__)
    values = _Table(lambda coeff: coeff.scaled_value(Q, L, T, L))

    def term(coeff, exps) -> _Scaled:
        v, dq, dt = values[coeff]  # c q^i t^j = c Q^i T^j L^(D-i-j) / L^D, D = dq + dt
        k = dq + dt
        # exponents are never negative (x_last cancels x_d or an x_i^2)
        for x, e in zip(X, exps):
            if e:
                v *= x**e
                k += e
        return _Scaled(v, k, power)

    def make_factor(key: tuple[int, int, int]) -> _Scaled:
        # 1 - t0 = (L - T) / L and 1 - q0 t0^j = (L^(j+1) - Q T^j) / L^(j+1)
        a, lo, hi = key
        js = range(lo + 1, hi + 1)
        return _Scaled(prod((power[j + 1] - Q * T**j for j in js), start=(L - T) ** a), a + sum(js) + len(js), power)

    factors = _Table(make_factor)

    def divide(value: _Scaled, lo: int, hi: int) -> Fraction:
        den = factors[0, lo, hi]
        if not den.v:  # RatFunc.evaluate's error
            raise PoleError(f"denominator vanishes at q={q0}, t={t0}")
        d = den.k - value.k
        return Fraction(value.v * power[d], den.v) if d >= 0 else Fraction(value.v, den.v * power[-d])

    return Ring(term, lambda *key: factors[key], divide)
