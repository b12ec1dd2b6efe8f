"""Sparse exact polynomials in q and t with integer coefficients: the ring
Z[q, t].

A monomial is keyed by ``(e_q, e_t)``.  The monomial order used everywhere
(serialisation, leading terms, gcd) is graded lexicographic with q > t.
The x variables never enter this ring: ``algebra.qtx`` keeps their
exponents as the keys of its x-polynomials.

A rational constant is a ``RatFunc``, a quotient of two integer constants.
``poly_gcd`` is a heuristic gcd by evaluation, checked by exact division
(``poly_divexact``, long division in Z[q, t]).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

Key = tuple  # (e_q, e_t)


def order_key(key: Key) -> tuple[int, int]:
    """Graded-lex sort key (ascending), q > t."""
    return (key[0] + key[1], key[0])


class Arithmetic:
    """``-`` and non-negative ``**`` from a subclass's own ``__add__``, ``__neg__``,
    ``__mul__``, ``one()`` and ``_coerce`` (an operand in the subclass, or NotImplemented)."""

    __slots__ = ()

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative power of a {type(self).__name__}")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self.one() if result is None else result


class MultiPoly(Arithmetic):
    """Immutable sparse polynomial over the integers."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Key, int] | None = None):
        clean: dict[Key, int] = {}
        if terms:
            for (eq, et), c in terms.items():
                if not isinstance(c, int):
                    raise TypeError(f"polynomial coefficients are integers, not {c!r}")
                if c:
                    clean[eq, et] = c
        self.terms = clean
        self._hash: int | None = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return _POLY_ZERO

    @staticmethod
    def one() -> "MultiPoly":
        return _POLY_ONE

    @staticmethod
    def const(c) -> "MultiPoly":
        return MultiPoly({(0, 0): c})

    @staticmethod
    def q(power: int = 1) -> "MultiPoly":
        return MultiPoly({(power, 0): 1})

    @staticmethod
    def t(power: int = 1) -> "MultiPoly":
        return MultiPoly({(0, power): 1})

    @staticmethod
    def monomial(eq: int, et: int, coeff=1) -> "MultiPoly":
        return MultiPoly({(eq, et): coeff})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0, 0): 1}

    def degree_q(self) -> int:
        return max((k[0] for k in self.terms), default=0)

    def degree_t(self) -> int:
        return max((k[1] for k in self.terms), default=0)

    def leading_key(self) -> Key:
        """Largest monomial under graded lex q > t."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=order_key)

    def leading_coeff(self) -> int:
        return self.terms[self.leading_key()]

    def sorted_terms(self) -> list[tuple[Key, int]]:
        """The terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: order_key(kv[0]), reverse=True)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:  # a constant as its int, as the RatFunc equal to it
            const = self.terms.keys() <= {(0, 0)}
            self._hash = hash(self.terms.get((0, 0), 0) if const else frozenset(self.terms.items()))
        return self._hash

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        terms = dict(self.terms)
        for key, c in other.terms.items():
            s = terms.get(key, 0) + c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        out = MultiPoly.__new__(MultiPoly)
        out.terms = terms
        out._hash = None
        return out

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        out = MultiPoly.__new__(MultiPoly)
        out.terms = {k: -c for k, c in self.terms.items()}
        out._hash = None
        return out

    def __mul__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return _POLY_ZERO
        if self is _POLY_ONE:
            return other
        if other is _POLY_ONE:
            return self
        out = MultiPoly.__new__(MultiPoly)
        out._hash = None
        if len(self.terms) == 1 == len(other.terms):
            ((aq, at), ac), ((bq, bt), bc) = *self.terms.items(), *other.terms.items()
            out.terms = {(aq + bq, at + bt): ac * bc}
            return out
        prod: dict[Key, int] = {}
        for (aq, at), ac in self.terms.items():
            for (bq, bt), bc in other.terms.items():
                key = (aq + bq, at + bt)
                s = prod.get(key, 0) + ac * bc
                if s:
                    prod[key] = s
                else:
                    prod.pop(key, None)
        out.terms = prod
        return out

    __rmul__ = __mul__

    def divide_content(self, c: int) -> "MultiPoly":
        """The quotient by a nonzero integer c that divides every coefficient."""
        if c == 1:
            return self
        out = MultiPoly.__new__(MultiPoly)
        out.terms = {k: v // c for k, v in self.terms.items()}
        out._hash = None
        return out

    # -- substitution and evaluation -----------------------------------

    def scaled_value(self, a: int, b: int, c: int, e: int) -> tuple[int, int, int]:
        """(b^Dq e^Dt times the value at q = a/b, t = c/e, Dq, Dt): the first
        is the integer sum of k a^i b^(Dq-i) c^j e^(Dt-j) over terms k q^i t^j."""
        dq, dt = self.degree_q(), self.degree_t()
        return sum(k * a**i * b ** (dq - i) * c**j * e ** (dt - j) for (i, j), k in self.terms.items()), dq, dt

    def evaluate(self, q0, t0) -> Fraction:
        """The value at q0 = a/b, t0 = c/e as one ``Fraction``, the scaled
        value over b^Dq e^Dt."""
        (a, b), (c, e) = Fraction(q0).as_integer_ratio(), Fraction(t0).as_integer_ratio()
        num, dq, dt = self.scaled_value(a, b, c, e)
        return Fraction(num, b**dq * e**dt)

    def subs_q(self, q0, d: int | None = None) -> "MultiPoly":
        """b^d * P(a/b, t) for q0 = a/b in lowest terms; d, by default the
        q-degree, must be at least it, so the result has integer coefficients."""
        q0 = Fraction(q0)
        a, b, d = q0.numerator, q0.denominator, self.degree_q() if d is None else d
        terms: dict[Key, int] = {}
        for (eq, et), c in self.terms.items():
            terms[0, et] = terms.get((0, et), 0) + c * a**eq * b ** (d - eq)
        return MultiPoly(terms)

    def t_reversed(self) -> "MultiPoly":
        """t^deg_t * P(q, 1/t); the coefficient list reversed in t."""
        d = self.degree_t()
        return MultiPoly({(eq, d - et): c for (eq, et), c in self.terms.items()})

    def __repr__(self) -> str:
        from .qtx import poly_string

        return f"MultiPoly({poly_string(self)})"


def _coerce(value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, int):
        return MultiPoly.const(value)
    return NotImplemented


MultiPoly._coerce = staticmethod(_coerce)

_POLY_ZERO = MultiPoly()
_POLY_ONE = MultiPoly({(0, 0): 1})


# ----------------------------------------------------------------------
# gcd and exact division in Z[q, t]
#
# ``_zgcd`` is the heuristic gcd of Char, Geddes and Gonnet (GCDHEU, J.
# Symbolic Computation 7, 1989): strip the integer contents of a and b, set q
# (one level down, t) to an odd integer xi, take the gcd of the two images the
# same way (of constants, ``math.gcd``), rebuild g from the symmetric xi-adic
# digits of its coefficients, and return pp(g) if it divides a and b, else
# retry with xi := 2 xi + 1.  Why pp(g) is then the gcd h, starting from
# xi = 2B + 1 with B the smaller over a, b of 2^(deg_q + deg_t) ceil(||p||_2):
# - A factor k of p has |coeff(k)| <= binomial * M(k) <= 2^deg * M(p)
#   <= 2^deg * ||p||_2 (M the Mahler measure), so no common factor of a
#   and b has a coefficient above B <= (xi - 1)/2.
# - Say G = pp(g) divides a and b: h = G k, and g = c G with |c| at most
#   (xi - 1)/2, as c divides every digit.  h(xi) divides both images, so
#   G(xi) k(xi) divides c G(xi): k(xi) is an integer dividing c.  So k(xi)
#   and k's coefficients are digits, which are unique in an odd base: k is
#   that integer, and G is h up to a unit.
# - q - xi (coefficient xi > B) does not divide both inputs, so the images
#   never both vanish; if one does, the gcd of 0 and p is p, as above.
# - Termination: past finitely many xi, the gcd of the images is h(xi) times
#   an integer dividing a fixed one (the t-coefficients of a/h and b/h share
#   no factor in Q[q]), so for xi large enough g is that integer times h.
# ``math.gcd`` argument tuples are built from lists or dict views, never
# generators: CPython resizes a tuple it builds from a generator, and the
# resized tuples pile up on its free lists (measured: about 1 MB more peak
# RSS over the stationary laws of sectors (3,3,2) and (3,2,2)).
# ----------------------------------------------------------------------


def _at(p: MultiPoly, var: int, xi: int) -> MultiPoly:
    """p with the variable at key position ``var`` (0: q, 1: t) set to xi."""
    powers = [1]
    for _ in range(max(key[var] for key in p.terms)):
        powers.append(powers[-1] * xi)
    terms: dict[Key, int] = {}
    for key, c in p.terms.items():
        k = key[:var] + (0,) + key[var + 1:]
        terms[k] = terms.get(k, 0) + c * powers[key[var]]
    return MultiPoly(terms)


def _rebuild(g: MultiPoly, var: int, xi: int) -> MultiPoly:
    """The polynomial whose coefficients in the variable at key position
    ``var`` are the symmetric xi-adic digits of g's coefficients."""
    half = xi // 2
    terms: dict[Key, int] = {}
    for key, c in g.terms.items():
        e = 0
        while c:
            d = (c + half) % xi - half
            terms[key[:var] + (e,) + key[var + 1:]] = d
            c = (c - d) // xi
            e += 1
    return MultiPoly(terms)


def _factor_bound(p: MultiPoly) -> int:
    """A bound on the coefficients of every factor of p in Z[q, t]."""
    norm2 = sum(c * c for c in p.terms.values())
    return (1 + math.isqrt(norm2 - 1)) << (p.degree_q() + p.degree_t())


def _zgcd(a: MultiPoly, b: MultiPoly, var: int) -> MultiPoly:
    """A gcd of a and b in Z[q, t], content included, of either sign.  The
    exponents before key position ``var`` are zero (var 2: a, b constants)."""
    if var == 2:
        return MultiPoly.const(math.gcd(*a.terms.values(), *b.terms.values()))
    if not (a.terms and b.terms):
        return a + b  # gcd(0, p) = p
    ca, cb = math.gcd(*a.terms.values()), math.gcd(*b.terms.values())
    a, b = a.divide_content(ca), b.divide_content(cb)
    xi = 2 * min(_factor_bound(a), _factor_bound(b)) + 1
    while True:
        g = _rebuild(_zgcd(_at(a, var, xi), _at(b, var, xi), var + 1), var, xi)
        g = g.divide_content(math.gcd(*g.terms.values()))
        try:
            poly_divexact(a, g)
            poly_divexact(b, g)
        except ValueError:
            xi = 2 * xi + 1
        else:
            return g * math.gcd(ca, cb)


# Bound on the memoised gcds.  No benchmark workload calls poly_gcd (a pass at
# seed 1 makes 0 calls on each), as every tableau and trace sum divides with
# no gcd; the calls come from RatFunc arithmetic on arbitrary input, such as
# the verify suites' sums and specialisations: room for large sweeps, and no
# growth for good.
GCD_CACHE_SIZE = 1 << 13


@lru_cache(maxsize=GCD_CACHE_SIZE)
def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """gcd in Q[q, t], normalised to a primitive polynomial of Z[q, t] with
    positive leading coefficient (graded lex, q > t)."""
    if a.is_zero():
        return _gcd_normalise(b)
    if b.is_zero():
        return _gcd_normalise(a)
    if a.is_one() or b.is_one() or a == b:
        return _gcd_normalise(b if a == b else MultiPoly.one())
    return _gcd_normalise(_zgcd(a, b, 0))


def signed_content(lead: MultiPoly, *others: MultiPoly) -> int:
    """The joint content of ``lead`` and ``others``, signed like ``lead``'s
    leading coefficient: dividing by it leaves them jointly primitive with
    ``lead``'s leading coefficient positive."""
    content = math.gcd(*[c for p in (lead, *others) for c in p.terms.values()])
    return -content if lead.leading_coeff() < 0 else content


def _gcd_normalise(p: MultiPoly) -> MultiPoly:
    return p.divide_content(signed_content(p)) if p.terms else _POLY_ZERO


def poly_divexact(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Exact division a / b in Z[q, t]; raises ValueError unless the quotient
    is integral.  By Gauss's lemma it is whenever b is primitive (as every
    ``poly_gcd`` is) and divides a in Q[q, t]."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return _POLY_ZERO
    if b.is_one():
        return a
    rem = dict(a.terms)
    out: dict[Key, int] = {}
    lb = b.leading_key()
    lbc = b.terms[lb]
    while rem:
        la = max(rem, key=order_key)
        kq, kt = la[0] - lb[0], la[1] - lb[1]
        if kq < 0 or kt < 0:
            raise ValueError("inexact polynomial division")
        c, r = divmod(rem[la], lbc)
        if r:
            raise ValueError("inexact polynomial division")
        out[kq, kt] = c
        for (bq, bt), bc in b.terms.items():
            key = (bq + kq, bt + kt)
            s = rem.get(key, 0) - c * bc
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return MultiPoly(out)
