"""The coefficient rings in which the tableau sums (``weights``) and the
trace recurrence (``oracles.recurrence``) are each written once; algebra
alone, so the oracles need nothing of the sums they check.  An x-monomial
is one int, x_i's exponent in the ``X_WIDTH`` bits at X_WIDTH (i - 1).  No
exponent either kernel builds passes 2, so no field carries: a 0 labels
one row and a square column has at most one arrow on top of its own x_i;
in the trace each 0 is peeled once and a 2 removed once (x_c^2) or kept in
the base.  A ``Ring`` is (row, base, factor, divide): ``row(entry, labels,
x)`` is sum_c G_c x / x_c over a row's last labels c (``entry`` G's
polynomials, ``labels`` the x_c), x = x_d prod x_c in a tableau row and
x_d prod x_c^2 in a trace removal; ``base`` prices a monomial, or is None
where every monomial is 1.  ``SYMBOLIC`` decodes x along its nonzero
fields to QtxExpr's trimmed tuple and divides each Z[q, t] coefficient by
the brackets prod_{lo<j<=hi} (1 - q t^j) one at a time
(``divide_by_brackets``, no gcd: they are distinct and irreducible).
``t_ring(B)`` sets q = 1 and x = 1, holds a polynomial p in t as the int
p(2^B) (``tab_t`` bounds B by counting), packs a row's whole entry once per
(entry, B), has no base, and its ``factor(a, lo, hi)``, prod [j]_t, is
``qt_factor`` at q = 1 over (1 - t)^(a + hi - lo): every tableau term has
a + hi - lo = ``divide``'s hi - lo, and ``divide`` reads N's base-2^B
digits and removes prod [j]_t's cyclotomic factors with no gcd.
``point_ring`` values each coefficient once, and each monomial along its
nonzero fields, in scaled integers up to the one ``Fraction`` of ``divide``.
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


X_WIDTH = 2  # bits per x field: every exponent is at most 2


def x_of(c: int) -> int:
    return 1 << X_WIDTH * (c - 1)  # x_c as a packed monomial


class Ring(NamedTuple):
    """The coefficient ring of a tableau or trace sum; ``divide`` runs once per sum."""

    row: Callable  # (G's entry, (x_c, ...), x) -> sum_c G_c x / x_c, each list by c ascending
    base: Callable | None  # x -> x in the ring, or None where every x-monomial is 1
    factor: Callable  # (a, lo, hi) -> qt_factor(a, lo, hi) = (1 - t)^a prod_{lo<j<=hi} (1 - q t^j)
    divide: Callable  # (value, lo, hi) -> value / qt_factor(0, lo, hi), in the ring of the answer


# keys: the x-monomials of the symbolic sums (674 over a qtx-symbolic pass, which
# hits this cache 5,379 times in 6,413; more entries raise its peak memory)
@lru_cache(maxsize=64)
def _x_tuple(x: int) -> tuple[int, ...]:
    """QtxExpr's trimmed exponent tuple of x, read along its nonzero fields."""
    exps = [0] * -(-x.bit_length() // X_WIDTH)
    while x:
        i = (x.bit_length() - 1) // X_WIDTH
        exps[i] = x >> X_WIDTH * i
        x ^= exps[i] << X_WIDTH * i
    return tuple(exps)


SYMBOLIC = Ring(
    # the x / x_c are distinct and each G_c nonzero: one key per label
    lambda entry, labels, x: QtxExpr._of({_x_tuple(x - c): g for c, g in zip(labels, entry)}),
    lambda x: QtxExpr._of({_x_tuple(x): MultiPoly.one()}),
    lambda a, lo, hi: QtxExpr.x_monomial((), qt_factor(a, lo, hi)),
    lambda value, lo, hi: QtxExpr({xs: divide_by_brackets(c, lo, hi) for xs, c in value.coeffs.items()}),
)


# G's entry at q = 1, packed; keys: entries with a width (66 over a law-sweep pass)
_packed_row = lru_cache(maxsize=4096)(lambda entry, w: sum(c << w * et for g in entry for (_, et), c in g.terms.items()))


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
        lambda entry, labels, x: _packed_row(entry, width),
        None,
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
    # the powers of L, each coefficient's value and each factor are made once,
    # in tables freed with the ring; a monomial is not (most occur once)
    power = _Table(L.__pow__)
    values = _Table(lambda coeff: coeff.scaled_value(Q, L, T, L))

    def monomial(x: int) -> tuple[int, int]:
        v, k = 1, 0  # prod X_i^e / L^k, along x's nonzero fields, the highest first
        while x:
            i = (x.bit_length() - 1) // X_WIDTH
            e = x >> X_WIDTH * i
            x ^= e << X_WIDTH * i
            v, k = v * X[i] ** e, k + e
        return v, k

    def row(entry, labels, x) -> _Scaled:
        total = None
        for c, coeff in zip(labels, entry):
            v, dq, dt = values[coeff]  # c q^i t^j = c Q^i T^j L^(D-i-j) / L^D, D = dq + dt
            m, e = monomial(x - c)
            term = _Scaled(v * m, dq + dt + e, power)
            total = term if total is None else total + term
        return total

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

    return Ring(row, lambda x: _Scaled(*monomial(x), power), lambda *key: factors[key], divide)
