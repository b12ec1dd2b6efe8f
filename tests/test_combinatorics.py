"""States, diagrams, tableaux, row readings, and the statistics."""

import itertools
from bisect import bisect_left
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtasep import combinatorics
from crtasep.algebra import MultiPoly
from crtasep.combinatorics import (
    ArrowOrdering,
    PartialPerm,
    Tableau,
    Word,
    build_diagram,
    complement,
    cycling,
    disorder,
    enumerate_orderings,
    enumerate_states,
    enumerate_tableaux,
    is_free,
    partial_perms,
    particle_hole,
    recoils,
    row_reading,
)

words = st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=6).map(
    lambda ls: Word(tuple(ls))
)


# The running example: the tableau of type 0212201022 from the worked
# figures, rows labeled 8, 6, 1 bottom to top, with arrows
#   row 8: column 5 (label 1);  row 6: columns 4, 10, 2 (labels 1, 2, 3).
EXAMPLE_WORD = Word.from_string("0212201022")


def example_tableau():
    diagram = build_diagram(EXAMPLE_WORD)
    tableau = Tableau(diagram, ((2, 2), (4, 2), (5, 1), (10, 2)))
    ordering = ArrowOrdering(((1, (5,)), (2, (4, 10, 2)), (3, ())))
    return tableau, ordering


def test_enumerate_states_lex():
    ws = enumerate_states(1, 1, 1)
    assert [str(w) for w in ws] == ["012", "021", "102", "120", "201", "210"]
    assert len(enumerate_states(2, 2, 2)) == 90
    assert [str(w) for w in enumerate_states(0, 0, 1)] == ["2"]


def test_word_counts_and_validation():
    mu = EXAMPLE_WORD
    assert (mu.k, mu.r, mu.l) == (3, 2, 5)
    assert mu.n == mu.k + mu.r + mu.l
    assert mu.ea() == (2, 3, 4, 5, 7, 9, 10)
    assert mu.ee() == (2, 4, 5, 9, 10)
    with pytest.raises(ValueError):
        Word.from_string("0123")
    with pytest.raises(ValueError):
        Word.from_string("")


def test_build_diagram_labels():
    d = build_diagram(EXAMPLE_WORD)
    assert set(d.row_labels) == {1, 6, 8}
    assert d.row_labels == (8, 6, 1)  # bottom row carries the largest 0-position
    assert d.square_cols == (2, 4, 5, 9, 10)
    assert d.rhombic_cols == (3, 7)


def test_build_diagram_small():
    d = build_diagram(Word.from_string("20"))
    assert d.row_labels == (2,) and d.square_cols == (1,) and d.rhombic_cols == ()
    d = build_diagram(Word.from_string("11"))
    assert d.row_labels == () and d.rhombic_cols == (1, 2)


def test_enumerate_tableaux_counts():
    assert len(enumerate_tableaux(Word.from_string("1212"))) == 1  # k = 0
    assert len(enumerate_tableaux(Word.from_string("201021"))) == 9
    assert len(enumerate_tableaux(Word.from_string("221100"))) == 9


@settings(max_examples=60, deadline=None)
@given(words)
def test_tableau_count_formula(mu):
    got = len(enumerate_tableaux(mu))
    want = sum(comb(mu.l, s) * mu.k**s for s in range(mu.l + 1))
    assert got == want
    # independent recursive count: each square column is empty or holds an
    # arrow in one of the k rows
    assert got == (mu.k + 1) ** mu.l


def test_enumerate_orderings_counts():
    tableau, _ = example_tableau()
    assert len(enumerate_orderings(tableau)) == factorial(1) * factorial(3)
    empty = enumerate_tableaux(Word.from_string("012"))[0]
    assert len(enumerate_orderings(empty)) == 1


def test_is_free():
    tableau, _ = example_tableau()
    # column 9 has no arrow: free everywhere
    for row in (1, 2, 3):
        assert is_free(tableau, row, 9)
    # column 5 holds an arrow in row 1: occupied there, blocked above
    assert not is_free(tableau, 1, 5)
    assert not is_free(tableau, 2, 5)
    assert not is_free(tableau, 3, 5)
    # column 2's arrow sits in row 2: the tile below is free
    assert is_free(tableau, 1, 2)
    assert not is_free(tableau, 3, 2)


def test_row_readings_match_worked_example():
    tableau, ordering = example_tableau()
    assert str(row_reading(tableau, 1, ordering)) == "* * * 1 * 0 * *"
    assert str(row_reading(tableau, 2, ordering)) == "3 * 1 0 * * 2"
    assert str(row_reading(tableau, 3, ordering)) == "0 * * *"
    # the table G holds the same rows' q^rec t^dis, summed by the column
    # labeled last; row 2's disorders are the worked values of its 6 orders
    assert dict(reading_stats((5,), EXAMPLE_WORD.ea(), 8)) == {5: MultiPoly({(1, 5): 1})}
    universe = [c for c in EXAMPLE_WORD.ea() if c != 5]  # column 5's arrow is in row 1
    assert dict(reading_stats((4, 10, 2), universe, 6)) == {
        2: MultiPoly({(2, 6): 1, (2, 7): 1}),
        4: MultiPoly({(1, 3): 1, (2, 8): 1}),
        10: MultiPoly({(1, 6): 1, (2, 11): 1}),
    }


def reference_reading(tableau, i, ordering):
    """The reading rule written out: sort the (column, value) pairs of the
    row label (0), the rhombic columns (star), the labeled arrows and the
    free squares (star); squares with an arrow below are omitted."""
    diagram = tableau.diagram
    order = ordering.row_order(i)
    below = {c for c, j in tableau.arrows if j < i}
    entries = [(diagram.row_label(i), 0)] + [(c, None) for c in diagram.rhombic_cols]
    for c in diagram.square_cols:
        if c in order:
            entries.append((c, order.index(c) + 1))
        elif c not in below:
            entries.append((c, None))
    return PartialPerm(tuple(v for _, v in sorted(entries)))


def test_row_reading_follows_the_rule_on_every_small_word():
    rows = 0
    for n in range(1, 6):
        for letters in itertools.product((0, 1, 2), repeat=n):
            mu = Word(letters)
            for tableau in enumerate_tableaux(mu):
                for ordering in enumerate_orderings(tableau):
                    for i in range(1, mu.k + 1):
                        assert row_reading(tableau, i, ordering) == reference_reading(tableau, i, ordering)
                        rows += 1
    assert rows == 4143


def reading_stats(labels, universe, d):
    """G's entry by labels: (c, the sum of q^rec t^dis over the orders of
    ``partial_perms(labels, universe, d)`` that end in c) per label c
    ascending, its layout found by bisection (``row_step`` counts ranks)."""
    labels = sorted(labels)
    layout = (len(universe) + 1, bisect_left(universe, d), *[bisect_left(universe, c) + (c > d) for c in labels])
    return zip(labels, combinatorics.reading_table(layout))


def _plain_reading_stats(labels, universe, d):
    """G's entry the plain way: every order through ``partial_perms``,
    grouped by its last label, as {label: {(rec, dis): count}}."""
    want: dict = {}
    for order, reading in partial_perms(labels, universe, d):
        group = want.setdefault(order[-1] if order else None, {})
        stat = (recoils(reading), disorder(reading))
        group[stat] = group.get(stat, 0) + 1
    return want


def test_reading_stats_match_the_plain_loop():
    # every layout with at most 8 slots: universe size m <= 7, every rank
    # of d among the m + 1 gaps, every nonempty subset of the universe as
    # labels (a kernel asks for no empty one); the table starts empty, so
    # every entry compared is the placement DP's
    combinatorics._READING_STATS.clear()
    layouts = 0
    for m in range(8):
        universe = [2 * j for j in range(1, m + 1)]
        for d in range(1, 2 * m + 2, 2):
            for size in range(1, m + 1):
                for labels in itertools.combinations(universe, size):
                    want = _plain_reading_stats(labels, universe, d)
                    for labels_in in (labels, labels[::-1]):  # pairs follow the labels, not their order
                        pairs = reading_stats(labels_in, universe, d)
                        got = {c: coeff.terms for c, coeff in pairs}  # (rec, dis) -> count
                        assert got == want, (labels, universe, d)
                    layouts += 1
    assert layouts == sum((m + 1) * (2**m - 1) for m in range(8)) == 1757
    # and s = 8 labels among 11 particle columns, the 0 between two of them:
    # 40,320 orders for the plain loop
    universe = [1, 2, 4, 5, 7, 8, 9, 11, 12, 14, 15]
    labels = (2, 4, 5, 8, 9, 11, 14, 15)
    got = {c: coeff.terms for c, coeff in reading_stats(labels, universe, 10)}
    assert got == _plain_reading_stats(labels, universe, 10)
    assert sum(sum(g.values()) for g in got.values()) == factorial(8)


def test_partial_perms_yields_every_order_once_input_first():
    universe = (2, 3, 4, 5, 7, 9, 10)
    for labels in ((), (5,), (4, 10, 2), (9, 2, 5, 4)):
        out = list(partial_perms(labels, universe, 6))
        orders = [order for order, _ in out]
        assert len(orders) == len(set(orders)) == factorial(len(labels))
        assert orders[0] == labels
        for order, reading in out:
            want = [order.index(c) + 1 if c in order else None for c in universe]
            want.insert(4, 0)  # 6 ranks after 2, 3, 4, 5
            assert reading.values == tuple(want)


def test_worked_disorder_values():
    assert disorder(PartialPerm.from_string("0 2 1 * 3 * *")) == 6
    assert disorder(PartialPerm.from_string("2 * 3 0 * * 1")) == 3
    assert disorder(PartialPerm.from_string("2 * 1 0 * * 3")) == 11
    assert disorder(PartialPerm.from_string("1 * 2 0 * * 3")) == 6
    assert disorder(PartialPerm.from_string("1 * 3 0 * * 2")) == 8
    assert disorder(PartialPerm.from_string("3 * 2 0 * * 1")) == 6
    assert disorder(PartialPerm.from_string("3 * 1 0 * * 2")) == 7
    assert disorder(PartialPerm.from_string("0***")) == 0


def test_worked_recoils():
    p = PartialPerm.from_string("3*10**2")
    assert recoils(p) == 2  # the pairs (1,0) and (3,2)
    assert recoils(PartialPerm.from_string("0123")) == 0
    assert recoils(PartialPerm.from_string("2*30**1")) == 1  # only (2,1)


def test_total_disorder_of_example_is_12():
    tableau, ordering = example_tableau()
    total = sum(disorder(row_reading(tableau, i, ordering)) for i in (1, 2, 3))
    assert total == 12


@settings(max_examples=40, deadline=None)
@given(words)
def test_row_reading_entry_counts(mu):
    for tableau in enumerate_tableaux(mu)[:20]:
        for ordering in enumerate_orderings(tableau)[:6]:
            for i in range(1, mu.k + 1):
                reading = row_reading(tableau, i, ordering)
                below = sum(
                    1 for c, row in tableau.arrows if row < i
                )
                assert len(reading.values) == 1 + mu.r + mu.l - below
                labels = sorted(v for v in reading.values if v is not None)
                s = len(tableau.row_arrow_cols(i))
                assert labels == list(range(s + 1))
                stars = sum(1 for v in reading.values if v is None)
                free_squares = sum(
                    1
                    for c in tableau.diagram.square_cols
                    if tableau.arrow_row(c) != i and is_free(tableau, i, c)
                )
                assert stars == mu.r + free_squares


@settings(max_examples=40, deadline=None)
@given(words)
def test_cycling_equals_recoils(mu):
    for tableau in enumerate_tableaux(mu)[:20]:
        for ordering in enumerate_orderings(tableau)[:8]:
            for i in range(1, mu.k + 1):
                reading = row_reading(tableau, i, ordering)
                assert cycling(reading) == recoils(reading)
                assert recoils(reading) <= reading.s
                assert disorder(reading) <= reading.s * (len(reading.values) - 1)


def test_complement_and_particle_hole():
    assert str(complement(Word.from_string("2210"))) == "0012"
    assert str(particle_hole(Word.from_string("2210"))) == "2100"
    for text in ("0212201022", "012", "2"):
        mu = Word.from_string(text)
        assert complement(complement(mu)) == mu
        assert particle_hole(particle_hole(mu)) == mu


def test_tableau_json_round_trip():
    tableau, _ = example_tableau()
    doc = tableau.to_json_dict()
    assert doc["word"] == "0212201022"
    assert Tableau.from_json_dict(doc) == tableau


def test_partition_helpers():
    assert Word.from_string("221100").is_partition()
    assert not Word.from_string("201021").is_partition()
    assert str(Word.from_string("201021").sorted_decreasing()) == "221100"
