"""States of the two-species ring process, cylinder diagrams, arrow
tableaux, row readings and their statistics.

Conventions, fixed once and used by every weight formula:

* Positions in a word are 1-based and double as path-step labels: reading
  the word left to right, step i is a south step (letter 0), a southwest
  step (letter 1) or a west step (letter 2).
* The k rows of the diagram are indexed 1..k bottom to top; the row with
  bottom-to-top index i carries the label of the i-th 0 counted from the
  *right*, so row 1 is labeled by the largest position holding a 0.
* A row's reading lists its tiles by increasing column label (this is the
  right-to-left scan of the drawn strip) with a 0 inserted at the rank the
  row label would occupy among the column labels.  Arrows are recorded by
  their order label, rhombic tiles and free square tiles by a star, and
  empty square tiles with an arrow strictly below are omitted.  One builder,
  ``partial_perms``, makes every reading (``row_reading`` and the tests use
  it).  Both kernels price each row by ``row_step`` from a table G, filled
  once per layout by a placement DP that enumerates no orders.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence

from .algebra.poly import MultiPoly
from .errors import NotAPartition


@dataclass(frozen=True)
class Word:
    """A state: a word over {0,1,2}; 0 = hole, 1 = light, 2 = heavy."""

    letters: tuple[int, ...]

    def __post_init__(self):
        if any(a not in (0, 1, 2) for a in self.letters):
            raise ValueError(f"letters must be 0, 1 or 2: {self.letters}")

    @staticmethod
    def from_string(text: str) -> "Word":
        if not text or any(ch not in "012" for ch in text):
            raise ValueError(f"not a word over 0,1,2: {text!r}")
        return Word(tuple(int(ch) for ch in text))

    def __str__(self) -> str:
        return "".join(str(a) for a in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def k(self) -> int:
        return self.letters.count(0)

    @property
    def r(self) -> int:
        return self.letters.count(1)

    @property
    def l(self) -> int:
        return self.letters.count(2)

    def positions_of(self, letter: int) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.letters, start=1) if a == letter)

    def ea(self) -> tuple[int, ...]:
        """Positions of 1s and 2s (ascending)."""
        return tuple(i for i, a in enumerate(self.letters, start=1) if a != 0)

    def ee(self) -> tuple[int, ...]:
        """Positions of 2s (ascending)."""
        return self.positions_of(2)

    def is_partition(self) -> bool:
        return all(a >= b for a, b in zip(self.letters, self.letters[1:]))

    def sorted_decreasing(self) -> "Word":
        return Word(tuple(sorted(self.letters, reverse=True)))

    def require_partition(self) -> "Word":
        if not self.is_partition():
            raise NotAPartition(f"{self} is not weakly decreasing")
        return self


def complement(mu: Word) -> Word:
    """Swap holes and heavy particles: 0 <-> 2."""
    return Word(tuple(2 - a for a in mu.letters))


def particle_hole(mu: Word) -> Word:
    """The complement of the reversal."""
    return Word(tuple(2 - a for a in reversed(mu.letters)))


def enumerate_states(k: int, r: int, l: int) -> list[Word]:
    """All words with k 0s, r 1s, l 2s, in lexicographic order."""
    if k < 0 or r < 0 or l < 0 or k + r + l < 1:
        raise ValueError("need nonnegative counts summing to at least 1")
    # successive next permutations of the sorted letters: no recursion, so
    # long words work, and the order is lexicographic
    letters = [0] * k + [1] * r + [2] * l
    out = [Word(tuple(letters))]
    while True:
        i = len(letters) - 2
        while i >= 0 and letters[i] >= letters[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(letters) - 1
        while letters[j] <= letters[i]:
            j -= 1
        letters[i], letters[j] = letters[j], letters[i]
        letters[i + 1 :] = letters[:i:-1]
        out.append(Word(tuple(letters)))


def count_states(k: int, r: int, l: int, cap: int) -> int:
    """len(enumerate_states(k, r, l)) = C(n, k) C(n - k, r), or the first
    partial product above ``cap``: the products only grow, so the answer
    exceeds cap exactly when the count does, after few big-int steps."""
    count = 1
    for n, m in ((k + r + l, k), (r + l, r)):
        m = min(m, n - m)
        for i in range(1, m + 1):
            count = count * (n - m + i) // i  # times C(n-m+i, i) / C(n-m+i-1, i-1)
            if count > cap:
                return count
    return count


@dataclass(frozen=True)
class Diagram:
    """The labeled cylinder shape of a word."""

    word: Word
    row_labels: tuple[int, ...]  # bottom to top; row 1 gets the largest 0-position
    square_cols: tuple[int, ...]  # ascending; positions of 2s
    rhombic_cols: tuple[int, ...]  # ascending; positions of 1s

    @property
    def k(self) -> int:
        return len(self.row_labels)

    def row_label(self, i: int) -> int:
        """Label of the row with bottom-to-top index i (1-based)."""
        return self.row_labels[i - 1]


def build_diagram(mu: Word) -> Diagram:
    zeros = mu.positions_of(0)
    return Diagram(
        word=mu,
        row_labels=tuple(reversed(zeros)),
        square_cols=mu.positions_of(2),
        rhombic_cols=mu.positions_of(1),
    )


@dataclass(frozen=True)
class Tableau:
    """An arrow placement: at most one up-arrow per square column."""

    diagram: Diagram
    arrows: tuple[tuple[int, int], ...]  # (column label, row index 1..k), sorted by column

    def __post_init__(self):
        cols = [c for c, _ in self.arrows]
        if len(set(cols)) != len(cols):
            raise ValueError("at most one arrow per column")
        sq = set(self.diagram.square_cols)
        k = self.diagram.k
        for c, i in self.arrows:
            if c not in sq:
                raise ValueError(f"column {c} is not a square column")
            if not 1 <= i <= k:
                raise ValueError(f"row index {i} out of range 1..{k}")

    @property
    def arr(self) -> int:
        return len(self.arrows)

    def arrow_row(self, col: int) -> int | None:
        for c, i in self.arrows:
            if c == col:
                return i
        return None

    def row_arrow_cols(self, i: int) -> tuple[int, ...]:
        return tuple(c for c, j in self.arrows if j == i)

    def to_json_dict(self) -> dict:
        return {
            "word": str(self.diagram.word),
            "arrows": [{"col": c, "row": i} for c, i in self.arrows],
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "Tableau":
        mu = Word.from_string(doc["word"])
        arrows = tuple(sorted((int(a["col"]), int(a["row"])) for a in doc["arrows"]))
        return Tableau(build_diagram(mu), arrows)


def enumerate_tableaux(mu: Word) -> list[Tableau]:
    """All arrow placements, ordered by arrow count, then columns, then rows."""
    diagram = build_diagram(mu)
    k = diagram.k
    out: list[Tableau] = []
    for s in range(0, mu.l + 1):
        if s > 0 and k == 0:
            break
        for cols in itertools.combinations(diagram.square_cols, s):
            for rows in itertools.product(range(1, k + 1), repeat=s):
                out.append(Tableau(diagram, tuple(zip(cols, rows))))
    return out


@dataclass(frozen=True)
class ArrowOrdering:
    """Per-row labeling of arrows: position p in a row's tuple is the
    column holding the arrow labeled p+1."""

    by_row: tuple[tuple[int, tuple[int, ...]], ...]  # ((row index, cols in label order), ...)

    def row_order(self, i: int) -> tuple[int, ...]:
        for j, cols in self.by_row:
            if j == i:
                return cols
        return ()


def enumerate_orderings(tableau: Tableau) -> list[ArrowOrdering]:
    """All products of per-row label permutations."""
    k = tableau.diagram.k
    per_row = []
    for i in range(1, k + 1):
        cols = tableau.row_arrow_cols(i)
        per_row.append([(i, perm) for perm in itertools.permutations(cols)])
    return [ArrowOrdering(tuple(choice)) for choice in itertools.product(*per_row)]


def is_free(tableau: Tableau, row: int, col: int) -> bool:
    """A square tile is free when empty with no arrow strictly below it."""
    arrow = tableau.arrow_row(col)
    return arrow is None or arrow > row


@dataclass(frozen=True)
class PartialPerm:
    """A row reading, left to right: None for a star, 0 for the seam marker
    and 1..s for the arrow labels."""

    values: tuple[int | None, ...]

    def __post_init__(self):
        labels = sorted(v for v in self.values if v is not None)
        if labels != list(range(len(labels))):
            raise ValueError(f"labels must be exactly 0..s: {self.values}")

    @staticmethod
    def from_string(text: str) -> "PartialPerm":
        entries = []
        for ch in text.replace(" ", ""):
            if ch == "*":
                entries.append(None)
            elif ch.isdigit():
                entries.append(int(ch))
            else:
                raise ValueError(f"unexpected character {ch!r}")
        return PartialPerm(tuple(entries))

    def __str__(self) -> str:
        return " ".join("*" if v is None else str(v) for v in self.values)

    @property
    def s(self) -> int:
        """Number of numbered labels (excluding the 0)."""
        return sum(1 for v in self.values if v is not None) - 1


def row_reading(tableau: Tableau, i: int, ordering: ArrowOrdering) -> PartialPerm:
    """Reading of the row with bottom-to-top index i under an ordering."""
    below = {c for c, j in tableau.arrows if j < i}
    universe = [c for c in tableau.diagram.word.ea() if c not in below]
    # itertools.permutations yields its input order first
    return next(partial_perms(ordering.row_order(i), universe, tableau.diagram.row_label(i)))[1]


def disorder(p: PartialPerm) -> int:
    """Sum over labels i of the stars and larger labels passed when walking
    cyclically left to right from entry i-1 (the 0 for i=1) to entry i."""
    values = p.values
    m = len(values)
    pos = {v: idx for idx, v in enumerate(values) if v is not None}
    total = 0
    for i in range(1, p.s + 1):
        j = (pos[i - 1] + 1) % m
        stop = pos[i]
        while j != stop:
            v = values[j]
            if v is None or v > i:
                total += 1
            j = (j + 1) % m
    return total


def recoils(p: PartialPerm) -> int:
    """Pairs (j+1, j) with j+1 left of j; the 0 participates as value 0."""
    pos = {v: idx for idx, v in enumerate(p.values) if v is not None}
    return sum(1 for i in range(1, p.s + 1) if pos[i] < pos[i - 1])


def cycling(p: PartialPerm) -> int:
    """Boundary crossings of the label walk (0 -> 1 -> 2 -> ...); this is
    the geometric count, asserted equal to recoils by the test suite."""
    values = p.values
    m = len(values)
    pos = {v: idx for idx, v in enumerate(values) if v is not None}
    crossings = 0
    for i in range(1, p.s + 1):
        j = pos[i - 1]
        while j != pos[i]:
            j += 1
            if j == m:
                j = 0
                crossings += 1
    return crossings


def partial_perms(labels: Sequence[int], universe: Sequence[int], d: int) -> Iterator[tuple[tuple, PartialPerm]]:
    """Each total order of ``labels`` within ``universe`` (column positions,
    ``universe`` ascending and without d), with its reading: the order's
    positions labeled 1, 2, ..., the rest stars, and the 0 inserted at the
    rank of ``d``.

    The one reading builder.  In a tableau row labeled d, labels are the
    row's arrow columns and universe the particle positions (EA) minus the
    square columns whose arrow sits in a lower row; in the trace recurrence,
    universe is EA of the current word, labels the deleted subset I, d the
    peeled 0-position.
    """
    blank: list[int | None] = [None] * (len(universe) + 1)
    blank[bisect_left(universe, d)] = 0
    slots = {c: bisect_left(universe, c) + (c > d) for c in labels}
    for order in itertools.permutations(labels):
        values = blank.copy()
        for label, col in enumerate(order, start=1):
            values[slots[col]] = label
        yield order, PartialPerm(tuple(values))


# G: a layout (reading length, rank of d, label slots) -> per label ascending,
# the sum of q^rec t^dis over the orders ending in it.  Words of length n have
# at most sum_{m<n} (m+1) 2^m layouts: the cap holds all of ``verify``'s n <= 10.
READING_STATS_CAP = 9 * 2**10 + 1
_READING_STATS: dict[tuple, tuple] = {}
_INTERNED = {MultiPoly.one(): MultiPoly.one()}  # equal polynomials of G share one object
# (tuples here are built from lists, not generators: see the free-list note in ``algebra.poly``)


def reading_table(layout: tuple[int, ...]) -> tuple:
    """G's entry, filled if missing by ``_placements`` in s^2 2^s steps, not s! orders."""
    entry = _READING_STATS.get(layout)
    if entry is None:
        entry = tuple([MultiPoly(g) for g in _placements(*layout)])
        if len(_READING_STATS) < READING_STATS_CAP:
            entry = _READING_STATS[layout] = tuple([_INTERNED.setdefault(p, p) for p in entry])
    return entry


def row_step(states: dict, columns: Sequence[tuple[int, int, bool]], d: int, xd: int, power: int, row) -> dict:
    """A tableau row (power 1) or trace peel (power 2) at the 0 d on {U, the
    x_c of the 2s taken: sum}, ``columns`` (c, x_c, c is a 2) per particle: a
    nonempty S of the 2s outside U sends U to U x_S times row(G's entry, S's
    x_c, x_d x_S^power).  Per U d's rank and each free 2's slot are found once."""
    after = dict(states)
    for used, value in states.items():
        slots, labels, rank, below = [], [], 0, 0
        for c, xc, square in columns:
            if used & xc:
                continue  # a 2 taken below: not in the reading
            if square:
                slots.append(rank + (c > d))
                labels.append(xc)
            below += c < d
            rank += 1
        head = (rank + 1, below)
        for size in range(1, len(slots) + 1):
            for layout, xcs in zip(itertools.combinations(slots, size), itertools.combinations(labels, size)):
                xs, layout = sum(xcs), head + layout
                v = row(_READING_STATS.get(layout) or reading_table(layout), xcs, xd + power * xs)
                v = v if value is None else value * v
                key = used + xs
                after[key] = after[key] + v if key in after else v
    return after


def _placements(m: int, zero: int, *slots: int) -> list[dict[tuple[int, int], int]]:
    """The {(rec, dis): count} of the orders that place labels 1, 2, ... on
    ``slots`` of a reading of length m with the 0 at ``zero``, one map per
    last slot ascending.  A DP over (the slots placed so far and the 0's, as
    a bitmask; the last one): placing label i at p after label i-1 at p0
    adds a recoil when p < p0, and to the disorder the cells strictly
    between them, walking right from p0 cyclically, that are not placed:
    the stars and the slots of the labels above i."""
    full = (1 << m) - 1
    layer = {(1 << zero, zero): {(0, 0): 1}}
    for _ in slots:
        after: dict[tuple[int, int], dict] = {}
        for (placed, p0), stats in layer.items():
            for p in slots:
                if placed >> p & 1:
                    continue
                between = full + (1 << p) - (2 << p0) if p < p0 else (1 << p) - (2 << p0)
                rec, dis = int(p < p0), (between & ~placed).bit_count()
                out = after.setdefault((placed | 1 << p, p), {})
                for (r, e), c in stats.items():
                    key = (r + rec, e + dis)
                    out[key] = out.get(key, 0) + c
        layer = after
    return [stats for _, stats in sorted(layer.items())]
