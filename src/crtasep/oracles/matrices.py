"""Semi-infinite matrix oracle: banded truncations, numeric traces of
matrix products, and entrywise checks of the exchange relations.

Matrices (rows and columns indexed from 0):
  A0(x): 1 on the diagonal, x on the superdiagonal.
  A1(x): diagonal x t^i.
  A2(x): x^2 on the diagonal, x (1 - t^i) on the subdiagonal.
  S:     diagonal q^i.

An N-truncation is stored by its diagonals, ``{d: [entry (i, i + d) for
row i in 0..N-1]}``, with 0 where (i, i + d) is off the matrix.  Every
factor has at most one off-diagonal, so a product adds at most two terms
per entry and the trace is the sum of diagonal 0.  ``product_trace``
applies each factor to the product's diagonals directly.  A0 moves a
diagonal up by 1, A2 down by 1, A1 and S not at all, so after each factor it
computes only the diagonals d with -(A0s left) <= d <= (A2s left), the ones
that can still reach diagonal 0; each gets the terms of the full
``banded_mul`` product, at most two, whose float sum is order-free.

Rows are independent: row i of the product depends on row i alone, and
its column never passes i + #A0, #A0 the number of 0s in the word.  So rows
below N - #A0 are exact, the same values from the same operations as in
every larger truncation, and ``truncated_trace``, doubling N from
``START_SIZE``, carries their running float sum over.

It also stops once later rows provably cannot change that sum.  Entry
(i, i) is a sum over lattice paths from i back to i, which never go below
row i - l (only A2 steps down, l the number of 2s).  Bounding each factor
by its row sum gives |row i's addend| <= C rho^i, with rho = |q| t^r and

  C = t^(-rl) prod_A0 (1 + |x|) prod_A1 max(1, |x|) prod_A2 max(1, x^2 + |x|);

a row at a truncation's boundary sums a subset of the same paths, so the
bound holds there too.  If s, the float sum of the rows below i, has
8 C rho^i < ulp(s), rounding to nearest leaves s unchanged by every later
addend: ulp(s)/4 is the smaller half-gap next to s (the gap below a power
of two is halved), and the other factor 2 covers the rounding of the
entries and of the bound.  Every truncation N with N - #A0 >= i then has
the value s bit for bit, and the doubling comparison reads those values.
The rule needs a float trace that cannot overflow, so it applies only
where |q| <= 1 (else q^i overflows and 0 * inf is a NaN) and C < 2^1000
(every factor of C is at least 1, so no partial product exceeds C), and
only at |s| >= 2^-900 C (an underflowed partial product errs by at most
C 2^-1074 per operation); elsewhere the plain doubling runs.  Exact rows
are summed in chunks, ``FIRST_ROWS`` first and then up to the row where
the bound predicts s settles, re-checked after each chunk; a chunk that
would reach N - #A0 is left to the N-truncation.  Each ``product_trace``
call computes its new exact rows and #A0 boundary rows, so a trace that
ends with rows below i exact after c calls has computed i + #A0 c rows.

A truncation to N rows is exact on entries (i, j) with i, j <= N-2 for a
product of two bands, which is what the relation checks use.  Truncations
are at most ``MAX_SIZE`` rows.

Each exchange relation is one row (name, lhs terms, rhs terms) of a table.
A term (c, (M1, ..., Mk)) stands for c M1...Mk, a coefficient times a
product of truncations; ``_evaluate`` sums a side's terms with
``banded_mul``, and the two sides must agree on the truncation's exact
interior.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice, repeat
from operator import mul

from ..combinatorics import Word
from ..errors import DivergenceError, NoConvergence, RelationViolation

Banded = dict[int, list]


def _powers(base, one, size: int) -> list:
    """one, one * base, (one * base) * base, ...: size terms, each from the last."""
    return list(islice(accumulate(repeat(base), mul, initial=one), size))


def banded_matrix(kind: str, x, size: int, q=None, t=None) -> Banded:
    """Diagonals of the N-truncation of A0/A1/A2/S; the entry type (exact
    Fraction or float) follows the inputs."""
    one = 1 if not isinstance(x if x is not None else q, float) else 1.0
    if kind == "A0":
        return {0: [one] * size, 1: [x if i + 1 < size else 0 for i in range(size)]}
    if kind == "A1":
        return {0: [x * ti for ti in _powers(t, one, size)]}
    if kind == "A2":
        sub = [x * (one - ti) if i else 0 for i, ti in enumerate(_powers(t, one, size))]
        return {0: [x * x] * size, -1: sub}
    if kind == "S":
        return {0: _powers(q, one, size)}
    raise ValueError(f"unknown matrix kind {kind!r}")


def banded_mul(a: Banded, b: Banded) -> Banded:
    """Product of two truncations: entry (i, i + da + db) gains
    a[da][i] * b[db][i + da] wherever row i + da exists."""
    out: Banded = {}
    for da, ra in a.items():
        for db, rb in b.items():
            row = out.setdefault(da + db, [0] * len(ra))
            for i in range(max(0, -da), min(len(ra), len(ra) - da)):
                row[i] += ra[i] * rb[i + da]
    return out


def _add_rows(total, diagonal, qpowers):
    for u, c in zip(diagonal, qpowers):
        v = u * c
        if v:
            total += v  # left to right: sum() of floats compensates from Python 3.12 on
    return total


def product_trace(mu: Word, q0, t0, xs, size: int, *, carry: list | None = None) -> Fraction:
    """Exact trace of the N-truncation of A_{mu_1}(x_1)...A_{mu_n}(x_n) S:
    from the identity, each factor in turn is applied to the product's
    diagonals.  ``carry`` is [k, s, t powers, q powers] from a smaller
    truncation of the same word and point: rows below k are taken as summed
    into s, and on return it holds the rows below size - #A0, which every
    larger truncation shares; the power lists [1, t0, t0^2, ...] grow in
    place, each power from the last, so they are those of a fresh call."""
    one = 1.0 if isinstance(q0, float) else 1
    lo, total, *powers = carry or (0, 0, [one], [one])  # an all-zero trace stays the integer 0
    for grown, base in zip(powers, (t0, q0)):
        grown += islice(accumulate(repeat(base, size - len(grown)), mul, initial=grown[-1]), 1, None)
    # row lo + r is entry r; a factor's weight at row or column j sits at
    # off + j - lo, zero-padded where j < 0 or j >= size, and a kept
    # diagonal has |d| < n and reads j = i + d - 1 to i + d + 1
    off = mu.n + 1
    first, pad = max(0, lo - off), [0] * off
    head, zeros = [0] * (first - lo + off), [0] * (size - lo)  # zeros: a diagonal the product lacks
    tpowers = powers[0][first:size]
    prod = {0: [one] * (size - lo)}
    for j, (a, x) in enumerate(zip(mu.letters, xs)):
        rest = mu.letters[j + 1 :]  # the A0s and A2s still to come
        keep = range(-rest.count(0), rest.count(2) + 1)
        if a == 1:  # p[d][i] x t^(i+d)
            w = head + [x * ti for ti in tpowers] + pad
            prod = {d: [u * c for u, c in zip(p, w[off + d :])] for d, p in prod.items() if d in keep}
        elif a == 0:  # p[d][i] + p[d-1][i] x while column i+d exists
            w = head + [x] * (size - 1 - first) + [0] + pad
            prod = {
                d: [u + v * c for u, v, c in zip(prod.get(d, zeros), prod.get(d - 1, zeros), w[off + d - 1 :])]
                for d in keep
                if d in prod or d - 1 in prod
            }
        else:  # p[d][i] x^2 + p[d+1][i] x (1 - t^(i+d+1))
            m, w = x * x, head + [x * (one - ti) if i else 0 for i, ti in enumerate(tpowers, first)] + pad
            prod = {
                d: [u * m + v * c for u, v, c in zip(prod.get(d, zeros), prod.get(d + 1, zeros), w[off + d + 1 :])]
                for d in keep
                if d in prod or d + 1 in prod
            }
    qpowers = powers[1][lo:size]
    split = max(0, size - mu.k - lo)  # rows from size - #A0 on can reach column size
    total = _add_rows(total, prod[0][:split], qpowers)
    if carry is not None:
        carry[:2] = lo + split, total
    return _add_rows(total, prod[0][split:], qpowers[split:])


REL_TOL = 1e-10  # numeric truncated_trace: agreement of successive truncations
START_SIZE = 64
MAX_SIZE = 1024
FIRST_ROWS = 16  # exact rows summed before the tail bound predicts where the sum stops


def _float(name: str, v: Fraction) -> float:
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{name}={v} is out of float range; an exact truncation takes it") from None


def _tail_bound(mu: Word, q: float, t: float, xs) -> tuple[float, float] | None:
    """(log C, log rho) of the module docstring's bound on row i's addend,
    C rho^i, or None where the float trace may overflow: |q| > 1, or
    C >= 2^1000."""
    if not (0 < t and abs(q) <= 1):
        return None
    log_t = math.log(t)
    log_rho = (math.log(abs(q)) if q else -math.inf) + mu.r * log_t
    log_c = -mu.r * mu.l * log_t
    for a, x in zip(mu.letters, xs):
        log_c += math.log1p(abs(x)) if a == 0 else math.log(max(1.0, x * x + abs(x) if a == 2 else abs(x)))
    return (log_c, log_rho) if log_rho < 0 and log_c < 1000 * math.log(2) else None


def _settled(mu: Word, point: tuple, carry: list, top: int, bound: tuple[float, float]) -> bool:
    """Sum exact rows into ``carry`` in chunks, ``FIRST_ROWS`` and then each
    to the row the bound predicts, while that row is below ``top``.  True
    once no row from i = carry[0] on can change s = carry[1]: |s| >= 2^-900 C
    and 8 C rho^i < ulp(s)."""
    log_c, log_rho = bound
    while True:
        i, s = carry[:2]
        if not i:
            row = FIRST_ROWS
        elif not (math.isfinite(s) and abs(s) >= math.exp(log_c) * 2.0**-900):
            return False
        else:
            log_u = math.log(math.ulp(s) / 8)
            if log_c + i * log_rho < log_u:
                return True
            row = math.floor(min(top, (log_u - log_c) / log_rho)) + 1
        row = max(row, i + 1)  # every chunk advances
        if row >= top:
            return False
        product_trace(mu, *point, row + mu.k, carry=carry)


def truncated_trace(
    mu: Word,
    q0,
    t0,
    xs=None,
    size: int | None = None,
):
    """Trace of the truncated matrix product for a word.

    With ``size`` given (1 to ``MAX_SIZE``), returns the exact rational
    trace of that single truncation (bit-exact debugging mode).  Otherwise
    doubles the truncation from ``START_SIZE`` until two successive values
    agree within ``REL_TOL`` relative and returns a float, giving up above
    ``MAX_SIZE``.  Once later rows provably cannot change the float sum of
    the rows so far (see the module docstring), every larger truncation's
    value is that sum and no more rows are computed.
    """
    if size is not None and not 1 <= size <= MAX_SIZE:
        raise ValueError(f"truncation size must be at least 1 and at most {MAX_SIZE}, got {size}")
    q0, t0 = (v if isinstance(v, Fraction) else Fraction(v) for v in (q0, t0))
    xs = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in xs) if xs is not None else (Fraction(1),) * mu.n
    if len(xs) != mu.n:
        raise ValueError(f"need {mu.n} x-values")
    if not (0 < t0 < 1) or abs(q0 * t0**mu.r) >= 1:
        raise DivergenceError(f"need 0 < t0 < 1 and |q0 t0^r| < 1, got q0={q0}, t0={t0}, r={mu.r}")
    if size is not None:
        return product_trace(mu, q0, t0, xs, size)
    point = (_float("q0", q0), float(t0), tuple(_float(f"x{j}", v) for j, v in enumerate(xs, 1)))
    bound = _tail_bound(mu, *point)
    previous, carry, n, settled = None, [0, 0, [1.0], [1.0]], START_SIZE, False
    while n <= MAX_SIZE:
        settled = settled or (bound is not None and _settled(mu, point, carry, n - mu.k, bound))
        value = carry[1] if settled else product_trace(mu, *point, n, carry=carry)
        if previous is not None and abs(value - previous) <= REL_TOL * max(1.0, abs(value)):
            return value
        previous = value
        n *= 2
    raise NoConvergence(f"trace for {mu} not stable within {REL_TOL} at size {MAX_SIZE}")


# ----------------------------------------------------------------------
# relation checks
# ----------------------------------------------------------------------


def _evaluate(terms: list) -> Banded:
    """The sum of the terms (c, (M1, ..., Mk)), each c M1...Mk."""
    total: Banded = {}
    for c, factors in terms:
        for d, row in reduce(banded_mul, factors).items():
            total[d] = [u + c * v for u, v in zip(total.get(d, repeat(0)), row)]
    return total


def _assert_equal_interior(name: str, lhs: Banded, rhs: Banded, size: int) -> None:
    """Compare entries (i, j) with i, j <= size-2, the exact ones, diagonal
    by diagonal from the lowest and down each diagonal."""
    zero = [0] * size
    for d in sorted(lhs.keys() | rhs.keys()):
        a, b = lhs.get(d, zero), rhs.get(d, zero)
        for i in range(max(0, -d), min(size, size - d) - 1):
            if a[i] != b[i]:
                raise RelationViolation(name, (i, i + d), a[i], b[i])


def _relation_report(relations: list, inputs: dict) -> dict:
    """Assert each (name, lhs terms, rhs terms) on the truncation's interior."""
    for name, lhs, rhs in relations:
        _assert_equal_interior(name, _evaluate(lhs), _evaluate(rhs), inputs["size"])
    return {"checks": [name for name, _, _ in relations], "inputs": inputs, "status": "pass"}


def check_matrix_relations(q0, t0, x0, y0, size: int = 12) -> dict:
    """Verify the four exchange relations entrywise on the interior of the
    truncation; raises RelationViolation naming relation and entry.

      A0(x)A0(y) = A0(y)A0(x)
      A0(x)A2(y) = t A2(y)A0(x) + (1-t) A2(y) + x y (1-t) A0(y)
      A0(x)A1(y) = t A1(y)A0(x) + (1-t) A1(y)
      A0(x)S     = S A0(qx)
    """
    if size < 3:
        raise ValueError("need size >= 3")
    q0, t0, x0, y0 = (Fraction(v) for v in (q0, t0, x0, y0))
    a0x, a0y, a0qx = (banded_matrix("A0", v, size) for v in (x0, y0, q0 * x0))
    a1y = banded_matrix("A1", y0, size, t=t0)
    a2y = banded_matrix("A2", y0, size, t=t0)
    s = banded_matrix("S", None, size, q=q0)
    relations = [
        ("A0(x)A0(y)=A0(y)A0(x)", [(1, (a0x, a0y))], [(1, (a0y, a0x))]),
        (
            "A0(x)A2(y)=t*A2(y)A0(x)+(1-t)*A2(y)+x*y*(1-t)*A0(y)",
            [(1, (a0x, a2y))],
            [(t0, (a2y, a0x)), (1 - t0, (a2y,)), (x0 * y0 * (1 - t0), (a0y,))],
        ),
        ("A0(x)A1(y)=t*A1(y)A0(x)+(1-t)*A1(y)", [(1, (a0x, a1y))], [(t0, (a1y, a0x)), (1 - t0, (a1y,))]),
        ("A0(x)S=S*A0(q*x)", [(1, (a0x, s))], [(1, (s, a0qx))]),
    ]
    inputs = {"q": str(q0), "t": str(t0), "x": str(x0), "y": str(y0), "size": size}
    return _relation_report(relations, inputs)


def check_ansatz_relations(q0, t0, size: int = 12) -> dict:
    """The x = y = 1 specialisation: the quadratic exchange relations of the
    stationary-measure algebra, including the A1 A2 relation."""
    if size < 3:
        raise ValueError("need size >= 3")
    q0, t0 = Fraction(q0), Fraction(t0)
    a0, a1, a2 = (banded_matrix(kind, Fraction(1), size, t=t0) for kind in ("A0", "A1", "A2"))
    relations = [
        ("A0A2=t*A2A0+(1-t)*(A0+A2)", [(1, (a0, a2))], [(t0, (a2, a0)), (1 - t0, (a0,)), (1 - t0, (a2,))]),
        ("A0A1=t*A1A0+(1-t)*A1", [(1, (a0, a1))], [(t0, (a1, a0)), (1 - t0, (a1,))]),
        ("A1A2=t*A2A1+(1-t)*A1", [(1, (a1, a2))], [(t0, (a2, a1)), (1 - t0, (a1,))]),
    ]
    return _relation_report(relations, {"q": str(q0), "t": str(t0), "size": size})
