"""Semi-infinite matrix oracle: banded truncations, numeric traces of
matrix products, and entrywise checks of the exchange relations.

Matrices (rows and columns indexed from 0):
  A0(x): 1 on the diagonal, x on the superdiagonal.
  A1(x): diagonal x t^i.
  A2(x): x^2 on the diagonal, x (1 - t^i) on the subdiagonal.
  S:     diagonal q^i.

A truncation to N rows is exact on entries (i, j) with i, j <= N-2 for a
product of two bands, which is what the relation checks use.
"""

from __future__ import annotations

from fractions import Fraction

from ..combinatorics import Word
from ..errors import DivergenceError, NoConvergence, RelationViolation

Sparse = dict[tuple[int, int], Fraction]


def banded_matrix(kind: str, x, size: int, q=None, t=None) -> Sparse:
    """Sparse N-truncation of A0/A1/A2/S; the entry type (exact Fraction or
    float) follows the inputs."""
    entries: Sparse = {}
    one = 1 if not isinstance(x if x is not None else q, float) else 1.0
    if kind == "A0":
        for i in range(size):
            entries[(i, i)] = one
            if i + 1 < size:
                entries[(i, i + 1)] = x
    elif kind == "A1":
        ti = one
        for i in range(size):
            entries[(i, i)] = x * ti
            ti *= t
    elif kind == "A2":
        ti = one
        for i in range(size):
            entries[(i, i)] = x * x
            if i >= 1:
                v = x * (one - ti)
                if v:
                    entries[(i, i - 1)] = v
            ti *= t
    elif kind == "S":
        qi = one
        for i in range(size):
            if qi:
                entries[(i, i)] = qi
            qi *= q
    else:
        raise ValueError(f"unknown matrix kind {kind!r}")
    return entries


def sparse_mul(a: Sparse, b: Sparse) -> Sparse:
    rows: dict[int, list[tuple[int, Fraction]]] = {}
    for (i, j), v in b.items():
        rows.setdefault(i, []).append((j, v))
    out: Sparse = {}
    for (i, k), va in a.items():
        for j, vb in rows.get(k, ()):
            key = (i, j)
            s = out.get(key, 0) + va * vb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def sparse_trace(a: Sparse):
    return sum(v for (i, j), v in a.items() if i == j)


def _word_matrices(mu: Word, q0, t0, xs, size: int) -> list[Sparse]:
    kinds = {0: "A0", 1: "A1", 2: "A2"}
    mats = [banded_matrix(kinds[a], xs[i], size, q=q0, t=t0) for i, a in enumerate(mu.letters)]
    mats.append(banded_matrix("S", None, size, q=q0, t=t0))
    return mats


def product_trace(mu: Word, q0, t0, xs, size: int) -> Fraction:
    """Exact trace of the N-truncation of A_{mu_1}(x_1)...A_{mu_n}(x_n) S."""
    mats = _word_matrices(mu, q0, t0, xs, size)
    prod = mats[0]
    for m in mats[1:]:
        prod = sparse_mul(prod, m)
    return sparse_trace(prod)


def truncated_trace(
    mu: Word,
    q0,
    t0,
    xs=None,
    size: int | None = None,
    rel_tol: float = 1e-10,
    start: int = 64,
    max_size: int = 1024,
):
    """Trace of the truncated matrix product for a word.

    With ``size`` given, returns the exact rational trace of that single
    truncation (bit-exact debugging mode).  Otherwise doubles the
    truncation from ``start`` until two successive values agree within
    ``rel_tol`` relative and returns a float.
    """
    if size is not None and size < 1:
        raise ValueError(f"truncation size must be at least 1, got {size}")
    q0, t0 = Fraction(q0), Fraction(t0)
    xs = tuple(Fraction(v) for v in xs) if xs is not None else (Fraction(1),) * mu.n
    if len(xs) != mu.n:
        raise ValueError(f"need {mu.n} x-values")
    if not (0 < t0 < 1) or abs(q0 * t0**mu.r) >= 1:
        raise DivergenceError(f"need 0 < t0 < 1 and |q0 t0^r| < 1, got q0={q0}, t0={t0}, r={mu.r}")
    if size is not None:
        return product_trace(mu, q0, t0, xs, size)
    fq, ft = float(q0), float(t0)
    fxs = tuple(float(v) for v in xs)
    previous = None
    n = start
    while n <= max_size:
        value = product_trace(mu, fq, ft, fxs, n)
        if previous is not None and abs(value - previous) <= rel_tol * max(1.0, abs(value)):
            return value
        previous = value
        n *= 2
    raise NoConvergence(f"trace for {mu} not stable within {rel_tol} at size {max_size}")


# ----------------------------------------------------------------------
# relation checks
# ----------------------------------------------------------------------


def _add(a: Sparse, b: Sparse) -> Sparse:
    out = dict(a)
    for key, v in b.items():
        s = out.get(key, 0) + v
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _scale(a: Sparse, c) -> Sparse:
    c = Fraction(c)
    return {k: v * c for k, v in a.items() if v * c}


def _assert_equal_interior(name: str, lhs: Sparse, rhs: Sparse, size: int) -> None:
    bound = size - 1  # entries with i, j <= size-2 are exact
    for key in set(lhs) | set(rhs):
        i, j = key
        if i < bound and j < bound:
            a, b = lhs.get(key, Fraction(0)), rhs.get(key, Fraction(0))
            if a != b:
                raise RelationViolation(name, key, a, b)


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
    a0x = banded_matrix("A0", x0, size)
    a0y = banded_matrix("A0", y0, size)
    a1y = banded_matrix("A1", y0, size, t=t0)
    a2y = banded_matrix("A2", y0, size, t=t0)
    s = banded_matrix("S", None, size, q=q0)

    checks = [
        ("A0(x)A0(y)=A0(y)A0(x)", sparse_mul(a0x, a0y), sparse_mul(a0y, a0x)),
        (
            "A0(x)A2(y)=t*A2(y)A0(x)+(1-t)*A2(y)+x*y*(1-t)*A0(y)",
            sparse_mul(a0x, a2y),
            _add(
                _add(_scale(sparse_mul(a2y, a0x), t0), _scale(a2y, 1 - t0)),
                _scale(a0y, x0 * y0 * (1 - t0)),
            ),
        ),
        (
            "A0(x)A1(y)=t*A1(y)A0(x)+(1-t)*A1(y)",
            sparse_mul(a0x, a1y),
            _add(_scale(sparse_mul(a1y, a0x), t0), _scale(a1y, 1 - t0)),
        ),
        ("A0(x)S=S*A0(q*x)", sparse_mul(a0x, s), sparse_mul(s, banded_matrix("A0", q0 * x0, size))),
    ]
    for name, lhs, rhs in checks:
        _assert_equal_interior(name, lhs, rhs, size)
    return {
        "checks": [name for name, _, _ in checks],
        "inputs": {"q": str(q0), "t": str(t0), "x": str(x0), "y": str(y0), "size": size},
        "status": "pass",
    }


def check_ansatz_relations(q0, t0, size: int = 12) -> dict:
    """The x = y = 1 specialisation: the quadratic exchange relations of the
    stationary-measure algebra, including the A1 A2 relation."""
    if size < 3:
        raise ValueError("need size >= 3")
    q0, t0 = Fraction(q0), Fraction(t0)
    one = Fraction(1)
    a0 = banded_matrix("A0", one, size)
    a1 = banded_matrix("A1", one, size, t=t0)
    a2 = banded_matrix("A2", one, size, t=t0)

    checks = [
        (
            "A0A2=t*A2A0+(1-t)*(A0+A2)",
            sparse_mul(a0, a2),
            _add(_scale(sparse_mul(a2, a0), t0), _scale(_add(a0, a2), 1 - t0)),
        ),
        (
            "A0A1=t*A1A0+(1-t)*A1",
            sparse_mul(a0, a1),
            _add(_scale(sparse_mul(a1, a0), t0), _scale(a1, 1 - t0)),
        ),
        (
            "A1A2=t*A2A1+(1-t)*A1",
            sparse_mul(a1, a2),
            _add(_scale(sparse_mul(a2, a1), t0), _scale(a1, 1 - t0)),
        ),
    ]
    for name, lhs, rhs in checks:
        _assert_equal_interior(name, lhs, rhs, size)
    return {
        "checks": [name for name, _, _ in checks],
        "inputs": {"q": str(q0), "t": str(t0), "size": size},
        "status": "pass",
    }
