"""The field Q(q, t): reduced fractions of polynomials in Z[q, t].

A rational constant a/b is the fraction of the constants a and b.  Canonical
form: numerator and denominator are coprime with joint content 1, and the
denominator's leading coefficient (graded lex, q > t) is positive.  Two
rational functions are equal as field elements iff their canonical forms
coincide, so ``==`` is exact field equality.  A fraction of arbitrary
polynomials is reduced with ``poly_gcd``, whose primitive gcds keep the
quotients in Z[q, t] (Gauss's lemma); sums and products of reduced fractions
run it only on the factors that can cancel (Henrici's method).  A polynomial
over a product of distinct brackets 1 - q t^j, the one denominator of the
symbolic tableau and trace sums, needs no gcd: ``divide_by_brackets`` tests
and divides one bracket at a time.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod

from ..errors import PoleError
from .poly import Arithmetic, MultiPoly, poly_divexact, poly_gcd, signed_content


class RatFunc(Arithmetic):
    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.one()
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = MultiPoly.zero(), MultiPoly.one()
        else:
            if not den.is_one():
                g = poly_gcd(num, den)
                if not g.is_one():
                    num = poly_divexact(num, g)
                    den = poly_divexact(den, g)
            self.num, self.den = _normalise_pair(num, den)

    @staticmethod
    def _reduced(num: MultiPoly, den: MultiPoly) -> "RatFunc":
        """Construct from an already coprime pair (normalisation only)."""
        out = RatFunc.__new__(RatFunc)
        if num.is_zero():
            out.num, out.den = MultiPoly.zero(), MultiPoly.one()
        else:
            out.num, out.den = _normalise_pair(num, den)
        return out

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "RatFunc":
        return _RF_ZERO

    @staticmethod
    def one() -> "RatFunc":
        return _RF_ONE

    @staticmethod
    def const(c) -> "RatFunc":
        c = Fraction(c)
        return RatFunc(MultiPoly.const(c.numerator), MultiPoly.const(c.denominator))

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_poly(self) -> bool:
        return self.den.is_one()

    def as_poly(self) -> MultiPoly:
        if not self.den.is_one():
            raise ValueError(f"{self!r} is not a polynomial")
        return self.num

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # as the MultiPoly or the Fraction equal to it, if there is one
        if self.den.is_one():
            return hash(self.num)
        a, b = self.num.terms, self.den.terms
        return hash(Fraction(a[0, 0], b[0, 0]) if a.keys() == b.keys() == {(0, 0)} else (self.num, self.den))

    # -- field arithmetic ----------------------------------------------

    def __add__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        # Henrici: only factors of gcd(den, den') can survive in the sum
        g0 = poly_gcd(self.den, other.den)
        if g0.is_one():
            return RatFunc._reduced(
                self.num * other.den + other.num * self.den, self.den * other.den
            )
        d2 = poly_divexact(other.den, g0)
        num = self.num * d2 + other.num * poly_divexact(self.den, g0)
        den = self.den * d2
        g1 = poly_gcd(num, g0)
        if not g1.is_one():
            num = poly_divexact(num, g1)
            den = poly_divexact(den, g1)
        return RatFunc._reduced(num, den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        out = RatFunc.__new__(RatFunc)
        out.num, out.den = -self.num, self.den
        return out

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return _RF_ZERO
        # cross-cancel; reduced inputs then give a reduced product
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if not d2.is_one():
            g = poly_gcd(n1, d2)
            if not g.is_one():
                n1, d2 = poly_divexact(n1, g), poly_divexact(d2, g)
        if not d1.is_one():
            g = poly_gcd(n2, d1)
            if not g.is_one():
                n2, d1 = poly_divexact(n2, g), poly_divexact(d1, g)
        return RatFunc._reduced(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFunc._reduced(other.den, other.num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inverse(self) -> "RatFunc":
        return _RF_ONE / self

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return _RF_ONE
        return RatFunc._reduced(self.num**n, self.den**n)

    # -- evaluation and substitution -------------------------------------

    def evaluate(self, q0, t0) -> Fraction:
        """The value at q0 = a/b, t0 = c/e as one ``Fraction``: the two scaled
        values, over b^Dq e^Dt each, brought to one power of b and of e."""
        (a, b), (c, e) = Fraction(q0).as_integer_ratio(), Fraction(t0).as_integer_ratio()
        num, nq, nt = self.num.scaled_value(a, b, c, e)
        den, dq, dt = self.den.scaled_value(a, b, c, e)
        if not den:
            raise PoleError(f"denominator vanishes at q={q0}, t={t0}")
        sq, st = dq - nq, dt - nt
        return Fraction(num * b ** max(sq, 0) * e ** max(st, 0), den * b ** max(-sq, 0) * e ** max(-st, 0))

    def subs_q(self, q0) -> "RatFunc":
        """Substitute a/b for q; numerator and denominator both take a factor
        b^d, d the larger q-degree, to stay integral."""
        d = max(self.num.degree_q(), self.den.degree_q())
        den = self.den.subs_q(q0, d)
        if den.is_zero():
            raise PoleError(f"denominator vanishes identically at q={q0}")
        return RatFunc(self.num.subs_q(q0, d), den)

    def subs_t_recip(self) -> "RatFunc":
        """Substitute t -> 1/t."""
        dn, dd = self.num.degree_t(), self.den.degree_t()
        d = max(dn, dd)
        num = self.num.t_reversed() * MultiPoly.t(d - dn) if not self.num.is_zero() else self.num
        den = self.den.t_reversed() * MultiPoly.t(d - dd)
        return RatFunc(num, den)

    def __repr__(self) -> str:
        from .qtx import poly_string

        if self.den.is_one():
            return f"RatFunc({poly_string(self.num)})"
        return f"RatFunc(({poly_string(self.num)})/({poly_string(self.den)}))"


def _normalise_pair(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    content = signed_content(den, num)
    return num.divide_content(content), den.divide_content(content)


def _coerce(value) -> "RatFunc":
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, MultiPoly):
        return RatFunc(value)
    if isinstance(value, (int, Fraction)):
        return RatFunc.const(value)
    return NotImplemented


RatFunc._coerce = staticmethod(_coerce)

_RF_ZERO = RatFunc(MultiPoly.zero())
_RF_ONE = RatFunc(MultiPoly.one())


# ----------------------------------------------------------------------
# q,t-brackets and factorials
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def t_bracket(i: int) -> MultiPoly:
    """[i]_t = 1 + t + ... + t^(i-1); the empty sum 0 for i = 0."""
    if i < 0:
        raise ValueError("bracket index must be nonnegative")
    return MultiPoly({(0, e): 1 for e in range(i)})


@lru_cache(maxsize=None)
def t_factorial(i: int) -> MultiPoly:
    """[i]_t! = [1][2]...[i]; empty product 1."""
    return prod(map(t_bracket, range(1, i + 1)), start=MultiPoly.one())


def qt_bracket(i: int) -> RatFunc:
    """[i]_qt = (1 - q t^i)/(1 - t) for i >= 1; the convention [0] = 1."""
    if i < 0:
        raise ValueError("bracket index must be nonnegative")
    return RatFunc._reduced(qt_factor(0, i - 1, i), qt_factor(1, 0, 0)) if i else _RF_ONE


def qt_factorial(i: int) -> RatFunc:
    """[i]_qt! = [i][i-1]...[1]; empty product 1."""
    return RatFunc._reduced(qt_factor(0, 0, i), qt_factor(i, 0, 0))


# Keys are ints of at most n, the word length: a few hundred for the verify
# bound n <= 10; the cap stops longer CLI words from growing it for good.
@lru_cache(maxsize=1024)
def qt_factor(a: int, lo: int, hi: int) -> MultiPoly:
    """(1 - t)^a (1 - q t^(lo+1)) ... (1 - q t^hi); the empty product 1."""
    one = MultiPoly.one()
    brackets = (one - MultiPoly.q() * MultiPoly.t(j) for j in range(lo + 1, hi + 1))
    return prod(brackets, start=(one - MultiPoly.t()) ** a)


def divide_by_brackets(c: MultiPoly, lo: int, hi: int) -> RatFunc:
    """c / qt_factor(0, lo, hi), reduced with no gcd.  Each bracket 1 - q t^j
    is linear in q and primitive, so irreducible, and no two are equal: the
    gcd is the product of the brackets that divide c.  With c_i the
    coefficient of q^i and top the q-degree, h_0 = c_0, h_i = c_i + t^j h_(i-1)
    is the quotient, and the bracket divides iff c_top = -t^j h_(top-1)."""
    if c.is_zero():
        return _RF_ZERO
    slices: list[dict[int, int]] = [{} for _ in range(c.degree_q() + 1)]  # c_i as {e_t: coefficient}
    for (eq, et), k in c.terms.items():
        slices[eq][et] = k
    kept = []
    for j in range(lo + 1, hi + 1):
        h: dict[int, int] = {}
        quotient = []
        for c_i in slices[:-1]:
            h = {et + j: k for et, k in h.items()}
            for et, k in c_i.items():
                s = h.get(et, 0) + k
                if s:
                    h[et] = s
                else:
                    del h[et]
            quotient.append(h)
        if {et + j: -k for et, k in h.items()} == slices[-1]:
            slices = quotient
        else:
            kept.append(j)
    num = MultiPoly({(i, et): k for i, c_i in enumerate(slices) for et, k in c_i.items()})
    return RatFunc._reduced(num, prod((qt_factor(0, j - 1, j) for j in kept), start=MultiPoly.one()))


def qt_factorial_ratio(a: int, b: int) -> RatFunc:
    """[a]_qt! / [b]_qt! for a <= b, i.e. (1 - t)^(b-a) / ((1 - q t^(a+1))
    ... (1 - q t^b)).  No gcd: 1 - t divides no 1 - q t^j, as at t = 1 that
    factor is 1 - q."""
    if a > b:
        raise ValueError("ratio expects a <= b")
    return RatFunc._reduced(qt_factor(b - a, 0, 0), qt_factor(0, a, b))


# Keys are pairs 0 <= a <= b <= n, the word length: 66 for n <= 10; the cap bounds longer words.
@lru_cache(maxsize=1024)
def t_factorial_ratio(a: int, b: int) -> RatFunc:
    """[a]_t! / [b]_t! for a <= b, i.e. 1 / ([a+1]_t ... [b]_t)."""
    if a > b:
        raise ValueError("ratio expects a <= b")
    den = prod(map(t_bracket, range(a + 1, b + 1)), start=MultiPoly.one())
    return RatFunc._reduced(MultiPoly.one(), den)
