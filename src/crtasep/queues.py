"""Two-line queues: cylindrical two-row ball configurations with a partial
matching, their weight algorithm, and the weight-preserving correspondence
with (tableau, arrow ordering) pairs.

A valid matching is a chain system: each top ball over an empty bottom
site, at column d, starts the chain of bottom balls reached from d while
the ball reached is a top ball with a non-self edge, and every other top
ball is self-matched or on a chain.  The correspondence reads d as a row
label and its chain as that row's arrow columns in arrow order.
``validate`` rejects a matching with a cycle among restricted balls, which
keeps every local rule but which no chain reaches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra.poly import MultiPoly
from .algebra.qtx import QtxExpr
from .algebra.ratfunc import RatFunc, qt_factor
from .combinatorics import ArrowOrdering, Tableau, Word, build_diagram
from .errors import InvalidQueue


@dataclass(frozen=True)
class TwoLineQueue:
    n: int
    top: frozenset[int]
    bottom: frozenset[int]
    matching: tuple[tuple[int, int], ...]  # (top column, bottom column), sorted

    @staticmethod
    def make(n: int, top, bottom, matching) -> "TwoLineQueue":
        return TwoLineQueue(n, frozenset(top), frozenset(bottom), tuple(sorted(matching)))

    def validate(self) -> None:
        cols = range(1, self.n + 1)
        if not (self.top <= set(cols) and self.bottom <= set(cols)):
            raise InvalidQueue("ball outside the column range")
        match = dict(self.matching)
        if len(match) != len(self.matching):
            raise InvalidQueue("a top ball is matched twice")
        if set(match) != self.top:
            raise InvalidQueue("every top ball must be matched, and only balls match")
        targets = set(match.values())
        if len(targets) != len(match):
            raise InvalidQueue("a bottom ball is matched twice")
        if not targets <= self.bottom:
            raise InvalidQueue("matched to an empty bottom site")
        for b in self.bottom:
            if b not in targets and b in self.top:
                raise InvalidQueue(f"unmatched bottom ball under a top ball at column {b}")
        # distinct targets make every walk of _chains end
        chained = {edge for d, chain in _chains(self).items() for edge in zip((d,) + chain, chain)}
        if chained != {(i, j) for i, j in self.matching if i != j}:
            raise InvalidQueue("matching contains a cycle among restricted balls")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "top": sorted(self.top),
            "bottom": sorted(self.bottom),
            "matching": [list(edge) for edge in self.matching],
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "TwoLineQueue":
        return TwoLineQueue.make(
            int(doc["n"]),
            (int(c) for c in doc["top"]),
            (int(c) for c in doc["bottom"]),
            ((int(i), int(j)) for i, j in doc["matching"]),
        )


def queue_type(queue: TwoLineQueue) -> Word:
    """Bottom row read left to right: empty 0, unmatched ball 1, matched 2."""
    matched = {j for _, j in queue.matching}
    letters = []
    for c in range(1, queue.n + 1):
        if c not in queue.bottom:
            letters.append(0)
        elif c in matched:
            letters.append(2)
        else:
            letters.append(1)
    return Word(tuple(letters))


def _chains(queue: TwoLineQueue) -> dict[int, tuple[int, ...]]:
    """The chain of each unrestricted top ball, keyed by its column, in
    ascending column order: the bottom columns reached by following the
    matching while the ball reached is a top ball with a non-self edge."""
    match = dict(queue.matching)
    chains = {}
    for d in sorted(queue.top - queue.bottom):
        chain = [match[d]]
        while chain[-1] in queue.top and match[chain[-1]] != chain[-1]:
            chain.append(match[chain[-1]])
        chains[d] = tuple(chain)
    return chains


def _from_chains(n: int, bottom, self_matched, chains: dict[int, tuple[int, ...]]) -> TwoLineQueue:
    """The queue with these self-matched columns and these chains, each
    hanging from the column it is keyed by; the inverse of ``_chains``."""
    top = set(self_matched)
    matching = [(c, c) for c in self_matched]
    for d, chain in chains.items():
        if chain:
            top.update((d,) + chain[:-1])
            matching.extend(zip((d,) + chain, chain))
    return TwoLineQueue.make(n, top, bottom, matching)


def _traverse(queue: TwoLineQueue) -> list[tuple[int, int, int]]:
    """Edge records (i, j, skipped) of the weighting traversal.

    Walks the chains from the rightmost unrestricted top ball leftwards;
    ``skipped`` counts free bottom balls passed moving right cyclically
    from i to j.  Each edge's target j stops being free; self-matched
    bottom balls stay free throughout.
    """
    free = set(queue.bottom)
    records = []
    for d, chain in sorted(_chains(queue).items(), reverse=True):
        for i, j in zip((d,) + chain, chain):
            if i < j:
                skipped = sum(1 for u in free if i <= u < j)
            else:
                skipped = sum(1 for u in free if u >= i or u < j)
            records.append((i, j, skipped))
            free.discard(j)
    return records


def queue_weight(queue: TwoLineQueue) -> QtxExpr:
    """x per ball, times q^{wrap} t^{skipped} / [free] per traversal edge."""
    queue.validate()
    total_q = total_t = edges = 0
    for i, j, skipped in _traverse(queue):
        total_q += i > j
        total_t += skipped
        edges += 1
    exps = [0] * queue.n
    for c in itertools.chain(queue.top, queue.bottom):
        exps[c - 1] += 1
    # free is r+l, r+l-1, ... along the E edges, whose targets are distinct bottom balls: the
    # brackets make [r+l-E]!/[r+l]!, and q^a t^b (1-t)^E shares no factor with its denominator
    rl = len(queue.bottom)
    num = MultiPoly.monomial(total_q, total_t) * qt_factor(edges, 0, 0)
    return QtxExpr.x_monomial(exps, RatFunc._reduced(num, qt_factor(0, rl - edges, rl)))


def crt_to_queue(tableau: Tableau, ordering: ArrowOrdering) -> TwoLineQueue:
    """Each row's ordered arrows become the chain hanging from its label;
    the square columns without an arrow are self-matched."""
    diagram = tableau.diagram
    self_matched = [c for c in diagram.square_cols if tableau.arrow_row(c) is None]
    chains = {diagram.row_label(i): ordering.row_order(i) for i in range(1, diagram.k + 1)}
    return _from_chains(diagram.word.n, diagram.word.ea(), self_matched, chains)


def queue_to_crt(queue: TwoLineQueue) -> tuple[Tableau, ArrowOrdering]:
    """Inverse correspondence: the chain hanging from each row label
    becomes the arrows of that row, in chain order."""
    queue.validate()
    diagram = build_diagram(queue_type(queue))
    arrows: list[tuple[int, int]] = []
    orders: dict[int, tuple[int, ...]] = {i: () for i in range(1, diagram.k + 1)}
    for d, chain in _chains(queue).items():
        row = diagram.row_labels.index(d) + 1
        orders[row] = chain
        arrows.extend((c, row) for c in chain)
    tableau = Tableau(diagram, tuple(sorted(arrows)))
    ordering = ArrowOrdering(tuple(sorted(orders.items())))
    return tableau, ordering


def enumerate_queues(mu: Word) -> list[TwoLineQueue]:
    """All valid queues of a type, built directly as chain systems: choose
    the self-matched heavy columns, then distribute the rest into labeled
    chains hanging from hole columns."""
    zeros = mu.positions_of(0)
    ee = mu.ee()
    bottom = mu.ea()
    out: list[TwoLineQueue] = []
    for s in range(0, len(ee) + 1):
        for chained in itertools.combinations(ee, s):
            self_matched = [c for c in ee if c not in chained]
            for owner in itertools.product(zeros, repeat=s):
                groups: dict[int, list[int]] = {d: [] for d in zeros}
                for c, d in zip(chained, owner):
                    groups[d].append(c)
                for chains in itertools.product(
                    *(itertools.permutations(groups[d]) for d in zeros)
                ):
                    out.append(_from_chains(mu.n, bottom, self_matched, dict(zip(zeros, chains))))
    return out
