"""The coefficient rings in which the tableau sums (``weights``) and the
trace recurrence (``oracles.recurrence``) are each written once; algebra
alone, so the oracles need nothing of the sums they check.  A ``Ring`` is
(term, factor, divide): ``SYMBOLIC`` keeps each Z[q, t] coefficient and
divides it by the brackets prod_{lo<j<=hi} (1 - q t^j) one at a time
(``divide_by_brackets``, no gcd: the brackets are distinct and irreducible),
``t_ring(B)`` sets q = 1 and holds a polynomial p in t as the int p(2^B);
``tab_t`` proves by counting, as arrows take distinct square columns, that
no coefficient passes sum_{s<=l} C(l,s) s! C(s+k-1,k-1) (r+l-s)! < 2^B
(22 bits at most for n <= 10).  Its ``factor(a, lo, hi)`` is
prod_{lo<j<=hi} [j]_t, ``qt_factor`` at q = 1 over (1 - t)^(a + hi - lo),
and ``divide`` drops (1 - t)^(hi - lo): every term of a tableau sum has
a + hi - lo = top, divide's hi - lo, so the powers cancel and every value
keeps nonnegative coefficients.  ``divide`` needs no gcd either: prod [j]_t
is prod_d Phi_d^(m_d), m_d the multiples of d in (lo, hi], over distinct
monic irreducible cyclotomic polynomials, so the gcd is the Phi_d^(e_d),
e_d <= m_d the times Phi_d divides the sum N.  It reads N's base-2^B digits
into a list once and tests each Phi_d by a fold of that list
(``_cyclotomic_divide``).  The fold adds digits: on the packed int they
could carry past 2^B unless N(1) < 2^B, where on the list the ring needs
only what it needs anyway, each coefficient below 2^B.  ``point_ring``
values each coefficient at one exact point in scaled integers, up to the
one ``Fraction`` that ``divide`` makes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Callable, NamedTuple

from ..errors import PoleError
from .poly import MultiPoly
from .qtx import QtxExpr
from .ratfunc import RatFunc, divide_by_brackets, qt_factor


class Ring(NamedTuple):
    """The coefficient ring of a tableau or trace sum; ``divide`` runs once per sum."""

    term: Callable  # (coefficient in Z[q, t], {index from 0: x exponent}) -> coefficient x^exponents
    factor: Callable  # (a, lo, hi) -> qt_factor(a, lo, hi) = (1 - t)^a prod_{lo<j<=hi} (1 - q t^j)
    divide: Callable  # (value, lo, hi) -> value / qt_factor(0, lo, hi), in the ring of the answer


SYMBOLIC = Ring(
    lambda coeff, exps: QtxExpr.x_monomial(exps, coeff),
    lambda a, lo, hi: QtxExpr.x_monomial((), qt_factor(a, lo, hi)),
    lambda value, lo, hi: QtxExpr({xs: divide_by_brackets(c, lo, hi) for xs, c in value.coeffs.items()}),
)

# keys: G's interned polynomials with a width (a few hundred in a law-sweep pass)
_pack = lru_cache(maxsize=4096)(lambda p, width: sum(c << width * et for (_, et), c in p.terms.items()))


def _divmod_monic(p: list[int], m: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of p by the monic m, both lowest coefficient first."""
    k = len(m) - 1
    r = list(p)
    quotient = [0] * max(len(r) - k, 0)
    for i in reversed(range(len(quotient))):
        c = quotient[i] = r[i + k]
        if c:
            for j in range(k):
                r[i + j] -= c * m[j]
    return quotient, r[:k]


# Keys are ints of at most n, the word length; the cap bounds longer CLI words.
@lru_cache(maxsize=1024)
def cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d, lowest coefficient first: t^d - 1 over Phi_e for each e | d, e < d."""
    p = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            p = _divmod_monic(p, cyclotomic(e))[0]
    return tuple(p)


# Keys are the (d, power) sets left over by ``_cyclotomic_divide``: 16 over
# every word with n <= 8, a few dozen for n <= 10; the cap bounds longer words.
@lru_cache(maxsize=1024)
def _cyclotomic_product(kept: tuple[tuple[int, int], ...]) -> MultiPoly:
    """prod Phi_d^power over kept's (d, power)."""
    factors = (MultiPoly({(0, e): c for e, c in enumerate(cyclotomic(d))}) ** power for d, power in kept)
    return prod(factors, start=MultiPoly.one())


def _cyclotomic_divide(digits: list[int], lo: int, hi: int) -> RatFunc:
    """The polynomial with coefficients ``digits`` (lowest first) over
    prod_{lo<j<=hi} [j]_t = prod_{d>=2} Phi_d^(m_d), reduced with no gcd.
    Folding the coefficients by exponent mod d gives N mod (t^d - 1), whose
    remainder by Phi_d is N's, so Phi_d is tested in O(len + d phi(d)) and
    divided out only where it divides, up to m_d times.  What is left over
    is monic and primitive, so the pair is canonical as it stands."""
    kept = []
    for d in range(2, hi + 1):
        m = hi // d - lo // d
        phi = cyclotomic(d)
        while m and not any(_divmod_monic([sum(digits[i::d]) for i in range(d)], phi)[1]):
            digits = _divmod_monic(digits, phi)[0]
            m -= 1
        if m:
            kept.append((d, m))
    num = MultiPoly({(0, e): c for e, c in enumerate(digits)})
    return RatFunc._reduced(num, _cyclotomic_product(tuple(kept)))


def t_ring(width: int) -> Ring:
    """q = 1 and every x = 1, each value packed at t = 2^width."""
    unit = (1 << width) - 1  # [j]_t at t = 2^width is (2^(width j) - 1) / unit, and each digit's mask

    def divide(value: int, lo: int, hi: int) -> RatFunc:
        digits = [value >> width * e & unit for e in range(-(-value.bit_length() // width))]
        return _cyclotomic_divide(digits, lo, hi)

    return Ring(
        lambda coeff, exps: _pack(coeff, width),
        lambda a, lo, hi: prod(((1 << width * j) - 1) // unit for j in range(lo + 1, hi + 1)),
        divide,
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
    ints; ``power`` is the ring's table d -> L^d.  ``+`` adds the v's of
    equal k's and else brings both to the larger k, ``*`` adds the k's."""

    __slots__ = ("v", "k", "power")

    def __init__(self, v: int, k: int, power: _Table):
        self.v, self.k, self.power = v, k, power

    def __add__(self, other: _Scaled) -> _Scaled:
        if self.k == other.k:
            return _Scaled(self.v + other.v, self.k, self.power)
        hi, lo = (self, other) if self.k >= other.k else (other, self)
        return _Scaled(hi.v + lo.v * self.power[hi.k - lo.k], hi.k, self.power)

    def __mul__(self, other: _Scaled) -> _Scaled:
        return _Scaled(self.v * other.v, self.k + other.k, self.power)


def point_ring(q0, t0, xs, n: int) -> Ring:
    """The values at q = q0, t = t0 and the n values x = xs, exact.  With L
    the lcm of their denominators, Q = q0 L, T = t0 L and X_i = x_i L are
    ints, and every value up to ``divide`` is an int over a power of L."""
    q0, t0, *xs = (v if isinstance(v, Fraction) else Fraction(v) for v in (q0, t0, *xs))
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
        for i, e in exps.items():
            if e:
                v *= X[i] ** e
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
