"""Elements of Q(q,t)[x1..xn]: sparse x-polynomials with rational-function
coefficients, plus their canonical text grammar and JSON form.

Canonical emission is a '+'-joined list of terms, one per x-monomial, in
descending graded-lex x-order; each term is ``(<num>)*x1^a1*...`` or
``(<num>)/(<den>)*x1^a1*...`` with the polynomial strings themselves in
descending graded-lex order (q > t).  ``parse`` accepts the full grammar
(integers, q, t, x1..xn, + - * / ^ and parentheses) and round-trips
canonical output exactly.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from ..errors import ParseError
from .poly import Arithmetic, MultiPoly
from .ratfunc import RatFunc


def _trim(xs: Iterable[int]) -> tuple[int, ...]:
    xs = tuple(xs)
    end = len(xs)
    while end and xs[end - 1] == 0:
        end -= 1
    return xs[:end]


def _mul_xs(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    return (*map(add, a, b), *a[len(b):])


class QtxExpr(Arithmetic):
    """Trimmed x-exponent tuples mapped to nonzero coefficients, ``RatFunc``
    in every public result.  The tableau and trace kernels hold integral
    coefficients as ``MultiPoly`` (Z[q, t]) until their one final division."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, ...], RatFunc] | None = None):
        clean: dict[tuple[int, ...], RatFunc] = {}
        if coeffs:
            for xs, c in coeffs.items():
                key = _trim(xs)
                if key in clean:  # keys equal once trimmed: one monomial
                    c = clean.pop(key) + c
                if not c.is_zero():
                    clean[key] = c
        self.coeffs = clean

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero() -> "QtxExpr":
        return QtxExpr()

    @staticmethod
    def one() -> "QtxExpr":
        return QtxExpr({(): RatFunc.one()})

    @staticmethod
    def from_ratfunc(r: RatFunc) -> "QtxExpr":
        return QtxExpr({(): r})

    @staticmethod
    def x_monomial(xs: Iterable[int], coeff: RatFunc | MultiPoly | None = None) -> "QtxExpr":
        if coeff is None:
            coeff = RatFunc.one()
        return QtxExpr._of({} if coeff.is_zero() else {_trim(xs): coeff})

    @staticmethod
    def _of(coeffs: dict) -> "QtxExpr":
        out = QtxExpr.__new__(QtxExpr)  # coeffs as they are: trimmed keys, nonzero values
        out.coeffs = coeffs
        return out

    # -- structure --------------------------------------------------------

    @property
    def nvars(self) -> int:
        return max((len(xs) for xs in self.coeffs), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, xs: Iterable[int]) -> RatFunc:
        return self.coeffs.get(_trim(xs), RatFunc.zero())

    def total_x_degree(self) -> int:
        return max((sum(xs) for xs in self.coeffs), default=0)

    def as_ratfunc(self) -> RatFunc:
        """The coefficient field element, for expressions constant in x."""
        if not self.coeffs:
            return RatFunc.zero()
        if set(self.coeffs) != {()}:
            raise ValueError("expression involves x variables")
        return self.coeffs[()]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], RatFunc]]:
        """Descending graded lex, x1 > x2 > ...: sort on (degree, exponents
        padded to a common width)."""
        w = self.nvars
        return sorted(
            self.coeffs.items(), key=lambda kv: (sum(kv[0]),) + kv[0] + (0,) * (w - len(kv[0])), reverse=True
        )

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (RatFunc, MultiPoly, int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, QtxExpr):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # free of x: as the RatFunc equal to it
        return hash(self.as_ratfunc() if self.coeffs.keys() <= {()} else frozenset(self.coeffs.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "QtxExpr":
        if type(other) is not QtxExpr:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        coeffs = dict(self.coeffs)
        for xs, c in other.coeffs.items():
            s = coeffs.get(xs)
            s = c if s is None else s + c
            if s.is_zero():
                coeffs.pop(xs, None)
            else:
                coeffs[xs] = s
        return QtxExpr._of(coeffs)

    __radd__ = __add__

    def __neg__(self) -> "QtxExpr":
        return QtxExpr._of({xs: -c for xs, c in self.coeffs.items()})

    def __mul__(self, other) -> "QtxExpr":
        if type(other) is not QtxExpr:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.coeffs or not other.coeffs:
            return QtxExpr()
        # times one monomial: distinct keys stay distinct, and no product of
        # nonzero coefficients is zero
        if len(other.coeffs) == 1:
            ((xb, cb),) = other.coeffs.items()
            return QtxExpr._of({_mul_xs(xa, xb): ca * cb for xa, ca in self.coeffs.items()})
        if len(self.coeffs) == 1:
            ((xa, ca),) = self.coeffs.items()
            return QtxExpr._of({_mul_xs(xa, xb): ca * cb for xb, cb in other.coeffs.items()})
        coeffs: dict[tuple[int, ...], RatFunc] = {}
        for xa, ca in self.coeffs.items():
            for xb, cb in other.coeffs.items():
                key = _mul_xs(xa, xb)
                c = ca * cb
                s = coeffs.get(key)
                s = c if s is None else s + c
                if s.is_zero():
                    coeffs.pop(key, None)
                else:
                    coeffs[key] = s
        return QtxExpr._of(coeffs)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        inv = other.as_ratfunc().inverse()
        return QtxExpr({xs: c * inv for xs, c in self.coeffs.items()})

    # -- evaluation, substitution, symmetry --------------------------------

    def evaluate(self, q0, t0, xs: Iterable = ()) -> Fraction:
        """Exact value at rational (q0, t0, x1..xn).  Raises PoleError when a
        coefficient denominator vanishes at (q0, t0)."""
        xs = tuple(Fraction(v) for v in xs)
        if len(xs) < self.nvars:
            raise ValueError(f"need {self.nvars} x-values, got {len(xs)}")
        total = Fraction(0)
        for xe, c in self.coeffs.items():
            v = c.evaluate(q0, t0)
            for i, e in enumerate(xe):
                if e:
                    v *= xs[i] ** e
            total += v
        return total

    def specialize(self, q_to=None, x_to_one: bool = False) -> "QtxExpr":
        """Substitute q := q_to and/or every x_i := 1; canonical result."""
        out = self
        if q_to is not None:
            out = QtxExpr({xs: c.subs_q(q_to) for xs, c in out.coeffs.items()})
        if x_to_one:
            out = QtxExpr({(): sum(out.coeffs.values(), RatFunc.zero())})
        return out

    def swap_x(self, i: int) -> "QtxExpr":
        """Exchange x_i and x_{i+1} (1-based)."""
        coeffs: dict[tuple[int, ...], RatFunc] = {}
        for xs, c in self.coeffs.items():
            lst = list(xs) + [0] * (i + 1 - len(xs))
            lst[i - 1], lst[i] = lst[i], lst[i - 1]
            coeffs[tuple(lst)] = c  # a swap maps distinct monomials to distinct ones
        return QtxExpr(coeffs)

    def __repr__(self) -> str:
        return f"QtxExpr({canonical_string(self)})"


def _coerce(value):
    if isinstance(value, QtxExpr):
        return value
    if isinstance(value, RatFunc):
        return QtxExpr.from_ratfunc(value)
    if isinstance(value, MultiPoly):
        return QtxExpr.from_ratfunc(RatFunc(value))
    if isinstance(value, (int, Fraction)):
        return QtxExpr.from_ratfunc(RatFunc.const(value))
    return NotImplemented


QtxExpr._coerce = staticmethod(_coerce)


# ----------------------------------------------------------------------
# canonical text
# ----------------------------------------------------------------------


def _monomial_string(eq: int, et: int, xs: tuple[int, ...]) -> str:
    parts = []
    if eq:
        parts.append("q" if eq == 1 else f"q^{eq}")
    if et:
        parts.append("t" if et == 1 else f"t^{et}")
    for i, e in enumerate(xs, start=1):
        if e:
            parts.append(f"x{i}" if e == 1 else f"x{i}^{e}")
    return "*".join(parts)


def poly_string(p: MultiPoly) -> str:
    """Canonical polynomial text: terms in descending graded-lex order."""
    if p.is_zero():
        return "0"
    pieces = []
    for (eq, et), c in p.sorted_terms():
        mon = _monomial_string(eq, et, ())
        mag = abs(c)
        if mag == 1 and mon:
            body = mon
        elif mon:
            body = f"{mag}*{mon}"
        else:
            body = str(mag)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(pieces)


def ratfunc_string(r: RatFunc) -> str:
    if r.den.is_one():
        return f"({poly_string(r.num)})"
    return f"({poly_string(r.num)})/({poly_string(r.den)})"


def canonical_string(e: QtxExpr) -> str:
    if e.is_zero():
        return "0"
    parts = []
    for xs, c in e.sorted_terms():
        mon = _monomial_string(0, 0, xs)
        parts.append(f"{ratfunc_string(c)}*{mon}" if mon else ratfunc_string(c))
    return "+".join(parts)


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([qt])|x(\d+)|([()+\-*/^]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        intval, qt, xidx, op = m.groups()
        start = m.start(1) if intval else m.start(2) if qt else m.start(3) - 1 if xidx else m.start(4)
        if intval is not None:
            tokens.append(("int", int(intval), start))
        elif qt is not None:
            tokens.append(("var", qt, start))
        elif xidx is not None:
            if int(xidx) < 1:
                raise ParseError("x variables are numbered from 1", start)
            tokens.append(("xvar", int(xidx), start))
        else:
            tokens.append(("op", op, start))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> QtxExpr:
        out = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                out = out + rhs if val == "+" else out - rhs
            else:
                return out

    def term(self) -> QtxExpr:
        out = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                if val == "*":
                    out = out * rhs
                else:
                    try:
                        out = out / rhs
                    except ValueError:
                        raise ParseError("division by an expression involving x", pos) from None
                    except ZeroDivisionError:
                        raise ParseError("division by zero", pos) from None
            else:
                return out

    def factor(self) -> QtxExpr:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return -self.factor()
        if kind == "op" and val == "+":
            self.advance()
            return self.factor()
        return self.power()

    def power(self) -> QtxExpr:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos = self.advance()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", pos)
            return base**val
        return base

    def atom(self) -> QtxExpr:
        kind, val, pos = self.advance()
        if kind == "int":
            return QtxExpr.from_ratfunc(RatFunc.const(val))
        if kind == "var":
            p = MultiPoly.q() if val == "q" else MultiPoly.t()
            return QtxExpr.from_ratfunc(RatFunc(p))
        if kind == "xvar":
            return QtxExpr.x_monomial((0,) * (val - 1) + (1,))
        if kind == "op" and val == "(":
            inner = self.expr()
            kind, val, pos = self.advance()
            if not (kind == "op" and val == ")"):
                raise ParseError("expected ')'", pos)
            return inner
        raise ParseError("expected a number, variable or '('", pos)


def parse(text: str) -> QtxExpr:
    """Parse expression text into a canonical QtxExpr.

    Grammar: base-10 integers; variables q, t, x1..xn; operators + - * / ^
    and parentheses.  Division is only defined by subexpressions free of x.
    """
    parser = _Parser(text)
    out = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return out


# ----------------------------------------------------------------------
# JSON form
# ----------------------------------------------------------------------


def _poly_json(p: MultiPoly) -> list:
    return [[str(c), eq, et] for (eq, et), c in p.sorted_terms()]


def _checked(key: tuple[int, ...], seen, what: str) -> tuple[int, ...]:
    """An exponent tuple read from JSON, if nonnegative and new to ``seen``."""
    if any(e < 0 for e in key):
        raise ValueError(f"negative exponent in {what} {list(key)}")
    if key in seen:
        raise ValueError(f"repeated {what} {list(key)}")
    return key


def _poly_from_json(entries) -> MultiPoly:
    coeffs: dict[tuple[int, ...], int] = {}
    for c, eq, et in entries:
        coeffs[_checked((int(eq), int(et)), coeffs, "(q, t) exponents")] = int(c)
    return MultiPoly(coeffs)


def to_json_dict(e: QtxExpr, nvars: int | None = None) -> dict:
    n = e.nvars if nvars is None else nvars
    if n < e.nvars:
        raise ValueError("nvars smaller than the expression's support")
    terms = []
    for xs, c in e.sorted_terms():
        terms.append(
            {
                "x": list(xs) + [0] * (n - len(xs)),
                "num": _poly_json(c.num),
                "den": _poly_json(c.den),
            }
        )
    return {"nvars": n, "terms": terms}


def _field(obj, key: str, kind: type, what: str):
    """obj[key], if obj is a JSON object whose key holds a kind."""
    if not (isinstance(obj, dict) and isinstance(obj.get(key), kind)):
        raise ValueError(f"{what} needs {key!r} ({kind.__name__})")
    return obj[key]


def from_json_dict(doc: dict) -> QtxExpr:
    """Read the JSON form.  A missing or mistyped field, a repeated monomial,
    in x or in one polynomial's (q, t), a negative exponent, an nvars below
    the support or a zero denominator raises ValueError."""
    coeffs = {}
    for term in _field(doc, "terms", list, "document"):
        xs = _checked(_trim(int(a) for a in _field(term, "x", list, "term")), coeffs, "x exponents")
        den = _poly_from_json(_field(term, "den", list, "term"))
        if den.is_zero():
            raise ValueError(f"zero denominator at x exponents {list(xs)}")
        coeffs[xs] = RatFunc(_poly_from_json(_field(term, "num", list, "term")), den)
    out = QtxExpr(coeffs)
    if out.nvars > _field(doc, "nvars", int, "document"):  # as to_json_dict refuses to write
        raise ValueError("nvars smaller than the expression's support")
    return out


def to_json(e: QtxExpr, nvars: int | None = None) -> str:
    return json.dumps(to_json_dict(e, nvars), separators=(",", ":"))


def from_json(text: str) -> QtxExpr:
    return from_json_dict(json.loads(text))
