"""Two-line queues: typing, weights, and the correspondence with tableaux."""

import itertools

import pytest

from crtasep.algebra import QtxExpr, parse, qt_factorial_ratio
from crtasep.combinatorics import (
    Tableau,
    Word,
    build_diagram,
    enumerate_orderings,
    enumerate_tableaux,
)
from crtasep.errors import InvalidQueue
from crtasep.queues import (
    TwoLineQueue,
    _traverse,
    crt_to_queue,
    enumerate_queues,
    queue_to_crt,
    queue_type,
    queue_weight,
)
from crtasep.weights import tab_qtx, wt_qtx_ordered

W = Word.from_string


def paper_queue():
    return TwoLineQueue.make(
        10,
        {2, 4, 6, 8, 10},
        {2, 3, 4, 5, 7, 9, 10},
        [(2, 2), (8, 4), (4, 10), (10, 5), (6, 9)],
    )


def test_queue_type():
    assert str(queue_type(paper_queue())) == "0212201022"
    empty = TwoLineQueue.make(4, (), (), ())
    assert str(queue_type(empty)) == "0000"
    full = TwoLineQueue.make(3, (), {1, 2, 3}, ())
    assert str(queue_type(full)) == "111"


def test_worked_queue_weight():
    den = "*".join(f"((1-q*t^{i})/(1-t))" for i in (7, 6, 5, 4))
    want = parse(f"q^2*t^10*x2^2*x3*x4^2*x5*x6*x7*x8*x9*x10^2/({den})")
    assert queue_weight(paper_queue()) == want


def test_traversal_order_and_skips():
    # chains start at the rightmost unrestricted top ball (column 8 first)
    records = _traverse(paper_queue())
    assert records == [(8, 4, 4), (4, 10, 3), (10, 5, 2), (6, 9, 1)]


def test_trivial_weights():
    no_top = TwoLineQueue.make(3, (), {1, 3}, ())
    assert queue_weight(no_top) == parse("x1*x3")
    self_matched = TwoLineQueue.make(3, {2}, {2}, [(2, 2)])
    assert queue_weight(self_matched) == parse("x2^2")


def test_invalid_queues_rejected():
    with pytest.raises(InvalidQueue):  # unmatched top ball
        queue_weight(TwoLineQueue.make(3, {1}, {2}, ()))
    with pytest.raises(InvalidQueue):  # unmatched bottom ball below a top ball
        queue_weight(TwoLineQueue.make(3, {1}, {1, 2}, [(1, 2)]))
    with pytest.raises(InvalidQueue):  # cycle among restricted balls
        queue_weight(
            TwoLineQueue.make(4, {1, 2}, {1, 2}, [(1, 2), (2, 1)])
        )
    with pytest.raises(InvalidQueue):  # bottom ball matched twice
        queue_weight(TwoLineQueue.make(3, {1, 2}, {1, 2}, [(1, 1), (2, 1)]))


def test_paper_bijection_example():
    queue = paper_queue()
    tableau, ordering = queue_to_crt(queue)
    diagram = build_diagram(W("0212201022"))
    # row labeled 8 is the bottom row: arrows 1,2,3 at columns 4, 10, 5
    assert tableau == Tableau(diagram, ((4, 1), (5, 1), (9, 2), (10, 1)))
    assert ordering.row_order(1) == (4, 10, 5)
    assert ordering.row_order(2) == (9,)
    assert ordering.row_order(3) == ()
    assert crt_to_queue(tableau, ordering) == queue


def test_arrowless_tableau_maps_to_self_matched_queue():
    mu = W("1212")
    tableau = enumerate_tableaux(mu)[0]
    ordering = enumerate_orderings(tableau)[0]
    queue = crt_to_queue(tableau, ordering)
    assert queue.top == frozenset(mu.ee())
    assert all(i == j for i, j in queue.matching)


def test_queue_json_round_trip():
    queue = paper_queue()
    assert TwoLineQueue.from_json_dict(queue.to_json_dict()) == queue


def exhaustive_words(max_n):
    for n in range(1, max_n + 1):
        for letters in itertools.product((0, 1, 2), repeat=n):
            yield Word(letters)


def test_bijection_exhaustive_small():
    for mu in exhaustive_words(4):
        pairs = [
            (tableau, ordering)
            for tableau in enumerate_tableaux(mu)
            for ordering in enumerate_orderings(tableau)
        ]
        queues = enumerate_queues(mu)
        assert len(queues) == len(pairs)
        weights = []
        seen = set()
        for tableau, ordering in pairs:
            queue = crt_to_queue(tableau, ordering)
            assert queue_type(queue) == mu
            assert queue_to_crt(queue) == (tableau, ordering)
            seen.add(queue)
            scalar = qt_factorial_ratio(mu.r + mu.l - tableau.arr, mu.r + mu.l)
            assert queue_weight(queue) == wt_qtx_ordered(tableau, ordering) * scalar
            weights.append(queue_weight(queue))
        assert seen == set(queues)
        assert sum(weights, QtxExpr.zero()) == tab_qtx(mu)


def test_queue_round_trip_from_queue_side():
    for mu in [W("201021"), W("02121")]:
        for queue in enumerate_queues(mu):
            tableau, ordering = queue_to_crt(queue)
            assert crt_to_queue(tableau, ordering) == queue


def test_traversal_denominators_are_consecutive():
    # queue_weight's [r+l-E]!/[r+l]! needs the free count to fall by one per
    # edge from r+l: the bottom row holds r+l balls and the E edge targets,
    # each no longer free once weighted, are distinct bottom balls
    for mu in [W("201021"), W("022222"), W("0212")]:
        for queue in enumerate_queues(mu):
            targets = [j for _, j, _ in _traverse(queue)]
            assert len(queue.bottom) == mu.r + mu.l
            assert len(set(targets)) == len(targets) and set(targets) <= queue.bottom
