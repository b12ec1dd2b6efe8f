"""Sparse exact polynomials in q, t, x1..xn with integer coefficients.

A monomial is keyed by ``(e_q, e_t, xs)`` where ``xs`` is a tuple of
exponents for x1, x2, ... with trailing zeros removed.  The monomial order
used everywhere (serialisation, leading terms, gcd) is graded lexicographic
with q > t > x1 > x2 > ...

A rational constant is a ``RatFunc``, a quotient of two integer constants.
``poly_gcd`` (q and t only) reads both sides as integer rows, a polynomial
in t with Z[q] coefficients, and runs one primitive remainder sequence on
them; ``poly_divexact`` is exact long division in Z[q, t].
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

Key = tuple  # (e_q, e_t, tuple_of_x_exponents)


def _trim(xs: Iterable[int]) -> tuple[int, ...]:
    xs = tuple(xs)
    end = len(xs)
    while end and xs[end - 1] == 0:
        end -= 1
    return xs[:end]


def order_key(key: Key, width: int) -> tuple:
    """Graded-lex sort key (ascending); pad the x part to ``width``."""
    eq, et, xs = key
    deg = eq + et + sum(xs)
    return (deg, eq, et) + xs + (0,) * (width - len(xs))


class MultiPoly:
    """Immutable sparse polynomial over the integers."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Key, int] | None = None):
        clean: dict[Key, int] = {}
        if terms:
            for (eq, et, xs), c in terms.items():
                if not isinstance(c, int):
                    raise TypeError(f"polynomial coefficients are integers, not {c!r}")
                if c:
                    clean[(eq, et, _trim(xs))] = c
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
        return MultiPoly({(0, 0, ()): c})

    @staticmethod
    def q(power: int = 1) -> "MultiPoly":
        return MultiPoly({(power, 0, ()): 1})

    @staticmethod
    def t(power: int = 1) -> "MultiPoly":
        return MultiPoly({(0, power, ()): 1})

    @staticmethod
    def x(index: int, power: int = 1) -> "MultiPoly":
        """x_index (1-based)."""
        if index < 1:
            raise ValueError("x variables are 1-based")
        xs = (0,) * (index - 1) + (power,)
        return MultiPoly({(0, 0, xs): 1})

    @staticmethod
    def monomial(eq: int, et: int, xs: Iterable[int], coeff=1) -> "MultiPoly":
        return MultiPoly({(eq, et, tuple(xs)): coeff})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0, 0, ()): 1}

    def has_x(self) -> bool:
        return any(key[2] for key in self.terms)

    @property
    def nvars(self) -> int:
        return max((len(key[2]) for key in self.terms), default=0)

    def degree_q(self) -> int:
        return max((k[0] for k in self.terms), default=0)

    def degree_t(self) -> int:
        return max((k[1] for k in self.terms), default=0)

    def leading_key(self) -> Key:
        """Largest monomial under graded lex q > t > x1 > ... ."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        w = self.nvars
        return max(self.terms, key=lambda k: order_key(k, w))

    def leading_coeff(self) -> int:
        return self.terms[self.leading_key()]

    def sorted_terms(self) -> list[tuple[Key, int]]:
        """The terms in descending graded-lex order."""
        w = self.nvars
        return sorted(self.terms.items(), key=lambda kv: order_key(kv[0], w), reverse=True)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
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

    def __sub__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return _POLY_ZERO
        prod: dict[Key, int] = {}
        for (aq, at, axs), ac in self.terms.items():
            for (bq, bt, bxs), bc in other.terms.items():
                key = (aq + bq, at + bt, _mul_xs(axs, bxs))
                s = prod.get(key, 0) + ac * bc
                if s:
                    prod[key] = s
                else:
                    prod.pop(key, None)
        out = MultiPoly.__new__(MultiPoly)
        out.terms = prod
        out._hash = None
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = _POLY_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divide_content(self, c: int) -> "MultiPoly":
        """The quotient by a nonzero integer c that divides every coefficient."""
        if c == 1:
            return self
        out = MultiPoly.__new__(MultiPoly)
        out.terms = {k: v // c for k, v in self.terms.items()}
        out._hash = None
        return out

    # -- substitution and evaluation -----------------------------------

    def evaluate(self, q0, t0, xs: tuple = ()) -> Fraction:
        q0, t0 = Fraction(q0), Fraction(t0)
        xs = tuple(Fraction(v) for v in xs)
        total = Fraction(0)
        for (eq, et, xe), c in self.terms.items():
            if len(xe) > len(xs):
                raise ValueError(f"need {len(xe)} x-values, got {len(xs)}")
            v = c * q0**eq * t0**et
            for i, e in enumerate(xe):
                if e:
                    v *= xs[i] ** e
            total += v
        return total

    def subs_q(self, q0, d: int) -> "MultiPoly":
        """b^d * P(a/b, t, x) for q0 = a/b in lowest terms; d must be at
        least the q-degree, so the result has integer coefficients."""
        q0 = Fraction(q0)
        a, b = q0.numerator, q0.denominator
        terms: dict[Key, int] = {}
        for (eq, et, xe), c in self.terms.items():
            key = (0, et, xe)
            terms[key] = terms.get(key, 0) + c * a**eq * b ** (d - eq)
        return MultiPoly(terms)

    def t_reversed(self) -> "MultiPoly":
        """t^deg_t * P(q, 1/t); the coefficient list reversed in t."""
        d = self.degree_t()
        return MultiPoly({(eq, d - et, xe): c for (eq, et, xe), c in self.terms.items()})

    def __repr__(self) -> str:
        from .qtx import poly_string

        return f"MultiPoly({poly_string(self)})"


def _coerce(value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, int):
        return MultiPoly.const(value)
    return NotImplemented


def _mul_xs(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    return tuple(ai + bi for ai, bi in zip(a, b)) + a[len(b):]


_POLY_ZERO = MultiPoly()
_POLY_ONE = MultiPoly({(0, 0, ()): 1})


# ----------------------------------------------------------------------
# gcd and exact division in Z[q, t]
#
# Bivariate polynomials are handled as polynomials in t whose coefficients
# are univariate polynomials in q, so the primitive polynomial remainder
# sequences run on machine/big ints.  The weight denominators are
# products of q,t-brackets (1 - q t^i), (1 - t) and t-brackets [j]_t, so
# degrees stay small.  Tuples here, argument tuples of ``math.gcd``
# included, are built from lists, not generators: CPython
# resizes a tuple it builds from a generator, and the resized tuples pile up
# on its tuple free lists (measured: about 1 MB more peak RSS over
# the stationary laws of sectors (3,3,2) and (3,2,2)).
# ----------------------------------------------------------------------


def _zq_trim(c) -> tuple:
    end = len(c)
    while end and not c[end - 1]:
        end -= 1
    return tuple(c[:end])


def _zq_pp(a: tuple[int, ...]) -> tuple[int, ...]:
    c = math.gcd(*a)
    if c in (0, 1):
        return a
    return tuple([v // c for v in a])


def _zq_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                out[i + j] += av * bv
    return _zq_trim(out)


def _zq_prem(a, b):
    """Pseudo-remainder in Z[q]: iterate a := lc(b)*a - lc(a)*q^shift*b."""
    a = list(a)
    lb = b[-1]
    db = len(b) - 1
    while a and len(a) - 1 >= db:
        la = a[-1]
        shift = len(a) - 1 - db
        for i in range(len(a)):
            a[i] *= lb
        for i, bv in enumerate(b):
            a[shift + i] -= la * bv
        while a and not a[-1]:
            a.pop()
    return tuple(a)


def _zq_gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """gcd in Z[q], primitive with positive leading coefficient."""
    if not a:
        return _zq_pp(b) if not b or b[-1] > 0 else tuple([-v for v in _zq_pp(b)])
    if not b:
        return _zq_pp(a) if a[-1] > 0 else tuple([-v for v in _zq_pp(a)])
    c = math.gcd(*a, *b)
    a, b = _zq_pp(a), _zq_pp(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _zq_prem(a, b)
        a, b = b, _zq_pp(r)
    if a[-1] < 0:
        a = tuple([-v for v in a])
    return tuple([v * c for v in a])


def _zq_divexact(a, b):
    """Exact quotient in Z[q]; raises ValueError unless b divides a with an
    integer quotient."""
    if not b:
        raise ZeroDivisionError("q-polynomial division by zero")
    if not a:
        return ()
    a = list(a)
    lb, db = b[-1], len(b) - 1
    quot = [0] * (len(a) - db)
    for shift in range(len(a) - len(b), -1, -1):
        c, r = divmod(a[shift + db], lb)
        if r:
            raise ValueError("inexact q-polynomial division")
        if c:
            quot[shift] = c
            for i, bv in enumerate(b):
                a[shift + i] -= c * bv
    if any(a):
        raise ValueError("inexact q-polynomial division")
    return _zq_trim(quot)


def _poly_to_zrows(p: MultiPoly) -> list[tuple[int, ...]]:
    """Integer t-major coefficient rows."""
    if p.has_x():
        raise ValueError("gcd is only defined for polynomials in q and t")
    rows: list[list[int]] = [[] for _ in range(p.degree_t() + 1)]
    for (eq, et, _), c in p.terms.items():
        row = rows[et]
        if len(row) <= eq:
            row.extend([0] * (eq + 1 - len(row)))
        row[eq] = c
    return [_zq_trim(r) for r in rows]


def _zrows_to_poly(rows) -> MultiPoly:
    terms = {}
    for et, row in enumerate(rows):
        for eq, c in enumerate(row):
            if c:
                terms[(eq, et, ())] = c
    return MultiPoly(terms)


def _tp_content(f) -> tuple[int, ...]:
    g: tuple[int, ...] = ()
    for row in f:
        g = _zq_gcd(g, row)
        if g == (1,):
            break
    return g


def _tp_pp(f):
    cont = _tp_content(f)
    if not cont:
        return []
    if cont == (1,):
        return list(f)
    return [_zq_divexact(r, cont) for r in f]


def _tp_prem(f, g):
    """Pseudo-remainder of f by g in (Z[q])[t]; f, g lists of q-polys.
    Integer content is stripped after every elimination step (the result is
    only used up to units) to keep coefficient growth in check."""
    lg = g[-1]
    dg = len(g) - 1
    while len(f) - 1 >= dg and f:
        lf = f[-1]
        shift = len(f) - 1 - dg
        nf = [_zq_mul(lg, r) for r in f]
        for i, r in enumerate(g):
            prod = _zq_mul(lf, r)
            row = list(nf[shift + i])
            if len(row) < len(prod):
                row.extend([0] * (len(prod) - len(row)))
            for j, v in enumerate(prod):
                row[j] -= v
            nf[shift + i] = _zq_trim(row)
        f = _zq_trim(nf)
        c = math.gcd(*[v for row in f for v in row])
        if c > 1:
            f = [tuple([v // c for v in row]) for row in f]
    return f


# Bound on the memoised gcds.  A benchmark pass misses the cache about 440
# times (qtx-symbolic) or 400 times (law-sweep), so this leaves room for
# far larger sweeps while the cache cannot grow for the life of a process.
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
    if len(a.terms) == 1 or len(b.terms) == 1:
        return _gcd_with_monomial(a, b)
    fa, fb = _poly_to_zrows(a), _poly_to_zrows(b)
    c = _zq_gcd(_tp_content(fa), _tp_content(fb))
    f, g = _tp_pp(fa), _tp_pp(fb)
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _tp_pp(_tp_prem(f, g))
    return _gcd_normalise(_zrows_to_poly([_zq_mul(r, c) for r in f]))


def _gcd_with_monomial(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """gcd when one side is a single term: q and t powers bounded by the
    other side's minimal exponents (constants are units, so coefficient 1)."""
    mono, other = (a, b) if len(a.terms) == 1 else (b, a)
    meq, met, _ = next(iter(mono.terms))
    eq = min(min(k[0] for k in other.terms), meq)
    et = min(min(k[1] for k in other.terms), met)
    return MultiPoly.monomial(eq, et, ())


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
        w = max(len(k[2]) for k in rem)
        la = max(rem, key=lambda k: order_key(k, w))
        kq, kt = la[0] - lb[0], la[1] - lb[1]
        if kq < 0 or kt < 0 or la[2]:
            raise ValueError("inexact polynomial division")
        c, r = divmod(rem[la], lbc)
        if r:
            raise ValueError("inexact polynomial division")
        out[(kq, kt, ())] = c
        for (bq, bt, _), bc in b.terms.items():
            key = (bq + kq, bt + kt, ())
            s = rem.get(key, 0) - c * bc
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return MultiPoly(out)
