"""Acceptance criteria.

Each criterion is one test that prints a single pass/fail line (visible
with ``pytest -s``) and asserts the stated exact identity or tolerance.
The module also runs standalone: ``python tests/test_acceptance.py``.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb, factorial

from crtasep.algebra import (
    MultiPoly,
    QtxExpr,
    RatFunc,
    parse,
    qt_factorial_ratio,
    t_bracket,
)
from crtasep.combinatorics import (
    Word,
    complement,
    enumerate_orderings,
    enumerate_tableaux,
    particle_hole,
)
from crtasep.oracles.markov import build_transition_matrix, steady_state
from crtasep.oracles.matrices import check_ansatz_relations, check_matrix_relations, truncated_trace
from crtasep.oracles.recurrence import omega, trace_rec_eval, trace_by_recurrence
from crtasep.queues import TwoLineQueue, crt_to_queue, enumerate_queues, queue_to_crt, queue_weight
from crtasep.weights import (
    macdonald_E,
    macdonald_P,
    stationary_prob,
    tab_qtx,
    tab_qtx_eval,
    tab_t,
    wt_qtx_ordered,
)

W = Word.from_string


def report(name: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{name}: {status} ({detail}, {time.perf_counter() - started:.1f}s)")
    assert ok, f"{name} failed: {detail}"


def words_of_length(n):
    for letters in itertools.product((0, 1, 2), repeat=n):
        yield Word(letters)


def all_words(max_n, min_n=1):
    for n in range(min_n, max_n + 1):
        yield from words_of_length(n)


def brackets(*idx):
    return "*".join(f"((1-q*t^{i})/(1-t))" for i in idx)


def test_ac1_tab_t_221100():
    started = time.perf_counter()
    got = tab_t(W("221100")) * RatFunc(t_bracket(4) * t_bracket(3))
    want = parse("(t+1)*(t^4+t^3+6*t^2+t+6)").as_ratfunc()
    report("AC-1", got == want, "tab_t(221100)*[4][3] exact", started)


def test_ac2_tab_t_201021():
    started = time.perf_counter()
    got = tab_t(W("201021")) * RatFunc(t_bracket(4) * t_bracket(3))
    want = parse("(t+1)*(t^2+t+1)*(2*t^2+t+2)").as_ratfunc()
    report("AC-2", got == want, "tab_t(201021)*[4][3] exact", started)


def test_ac3_macdonald_e_221100():
    started = time.perf_counter()
    three, four = brackets(3), brackets(4)
    want = parse(
        "x1^2*x2^2*x3*x4"
        f"+q*(x1+x2)*(x5+x6)*x1*x2*x3*x4/({three})"
        f"+q^2*(1+t)*x1*x2*x3*x4*x5*x6/({three}*{four})"
    )
    report("AC-3", macdonald_E(W("221100")) == want, "three-term E_221100 exact", started)


def test_ac4_tab_qtx_201021():
    started = time.perf_counter()
    four, three = brackets(4), brackets(3)
    want = parse(
        "x1^2*x3*x5^2*x6"
        f"+(x1+q*t^2*x5)*x1*x3*x4*x5*x6/({four})"
        f"+(t*x1+q*t^3*x5)*x1*x2*x3*x5*x6/({four})"
        f"+q*(t^3*x1+t*x5)*x1*x3*x4*x5*x6/({four}*{three})"
        f"+q*(t^4*x1+t^2*x5)*x1*x2*x3*x5*x6/({four}*{three})"
        f"+q*(t^2+t^3)*x1*x2*x3*x4*x5*x6/({four}*{three})"
    )
    report("AC-4", tab_qtx(W("201021")) == want, "six-term Tab_qtx(201021) exact", started)


def test_ac5_markov_oracle():
    started = time.perf_counter()
    checked = 0
    ok = True
    for n in range(1, 7):
        for k in range(0, n + 1):
            for r in range(0, n - k + 1):
                l = n - k - r
                for t0 in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
                    matrix = build_transition_matrix(k, r, l, t0)
                    pi = steady_state(matrix)
                    ok = ok and all(
                        pi[i] == stationary_prob(mu).evaluate(1, t0)
                        for i, mu in enumerate(matrix.states)
                    )
                    checked += len(matrix.states)
    report("AC-5", ok, f"exact steady states, {checked} state evaluations", started)


def test_ac6_trace_recurrence():
    started = time.perf_counter()
    ok = True
    count = 0
    for mu in all_words(7):
        scalar = RatFunc(MultiPoly.one() - MultiPoly.q() * MultiPoly.t(mu.r))
        ok = ok and trace_by_recurrence(mu) * scalar == tab_qtx(mu)
        count += 1
    # the point rings: 20 words of each length 6, 7 at one point each
    rng = random.Random(20260809)
    for n in (6, 7):
        for mu in rng.sample(list(words_of_length(n)), 20):
            q0 = Fraction(rng.randint(1, 8), 9)
            t0 = Fraction(rng.randint(1, 8), 9)
            xs = tuple(Fraction(rng.randint(50, 150), 100) for _ in range(n))
            lhs = (1 - q0 * t0**mu.r) * trace_rec_eval(mu, q0, t0, xs)
            ok = ok and lhs == tab_qtx_eval(mu, q0, t0, xs) == tab_qtx(mu).evaluate(q0, t0, xs)
    report("AC-6", ok, f"(1-q t^r) trace == tab_qtx on {count} words, and at 40 points", started)


def test_ac7_numeric_trace_vs_E():
    started = time.perf_counter()
    q0, t0 = Fraction(3, 10), Fraction(2, 5)
    rng = random.Random(7)
    ok = True
    for text in ("20", "210", "2110", "2210", "221100"):
        lam = W(text)
        xs = tuple(Fraction(rng.randint(50, 150), 100) for _ in range(lam.n))
        lhs = float(omega(lam).evaluate(q0, t0)) * truncated_trace(lam, q0, t0, xs)
        rhs = float(macdonald_E(lam).evaluate(q0, t0, xs))
        ok = ok and abs(lhs - rhs) / abs(rhs) < 1e-8
    report("AC-7", ok, "omega * truncated trace vs E, rel err < 1e-8", started)


def test_ac8_specialization():
    started = time.perf_counter()
    ok = True
    count = 0
    for mu in all_words(6):
        ok = ok and tab_qtx(mu).specialize(q_to=1, x_to_one=True).as_ratfunc() == tab_t(mu)
        count += 1
    report("AC-8", ok, f"q=1, x=1 specialization on {count} words", started)


def test_ac9_symmetries():
    started = time.perf_counter()
    ok = True
    count = 0
    for mu in all_words(6):
        value = tab_t(mu)
        ok = ok and value == tab_t(complement(mu)).subs_t_recip()
        ok = ok and value == tab_t(particle_hole(mu))
        count += 1
    report("AC-9", ok, f"complement and particle-hole identities on {count} words", started)


def test_ac10_t_equal_one_value():
    started = time.perf_counter()
    ok = True
    count = 0
    for mu in all_words(7):
        want = Fraction(
            comb(mu.n, mu.l) * factorial(mu.l) * factorial(mu.r), factorial(mu.r + mu.l)
        )
        ok = ok and tab_t(mu).evaluate(1, 1) == want
        count += 1
    report("AC-10", ok, f"t=1 closed form on {count} words", started)


def test_ac11_p_symmetry():
    started = time.perf_counter()
    ok = True
    for text in ("110", "200", "210", "2110", "21100"):
        poly = macdonald_P(W(text))
        for i in range(1, len(text)):
            ok = ok and poly.swap_x(i) == poly
    report("AC-11", ok, "P invariant under adjacent transpositions", started)


def test_ac12_queue_bijection():
    started = time.perf_counter()
    den = "*".join(f"((1-q*t^{i})/(1-t))" for i in (7, 6, 5, 4))
    worked = TwoLineQueue.make(
        10,
        {2, 4, 6, 8, 10},
        {2, 3, 4, 5, 7, 9, 10},
        [(2, 2), (8, 4), (4, 10), (10, 5), (6, 9)],
    )
    ok = queue_weight(worked) == parse(
        f"q^2*t^10*x2^2*x3*x4^2*x5*x6*x7*x8*x9*x10^2/({den})"
    )
    pairs_checked = 0
    for mu in all_words(6):
        weights = []
        images = set()
        for tableau in enumerate_tableaux(mu):
            scalar = qt_factorial_ratio(mu.r + mu.l - tableau.arr, mu.r + mu.l)
            for ordering in enumerate_orderings(tableau):
                queue = crt_to_queue(tableau, ordering)
                ok = ok and queue_to_crt(queue) == (tableau, ordering)
                weight = queue_weight(queue)
                ok = ok and weight == wt_qtx_ordered(tableau, ordering) * scalar
                weights.append(weight)
                images.add(queue)
                pairs_checked += 1
        ok = ok and images == set(enumerate_queues(mu))
        ok = ok and sum(weights, QtxExpr.zero()) == tab_qtx(mu)
        if not ok:
            break
    report("AC-12", ok, f"round trip + weights on {pairs_checked} pairs", started)


def test_ac13_matrix_relations():
    started = time.perf_counter()
    rng = random.Random(13)
    ok = True
    for _ in range(20):
        q0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        t0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        y0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        ok = ok and check_matrix_relations(q0, t0, x0, y0, size=12)["status"] == "pass"
        ok = ok and check_ansatz_relations(q0, t0, size=12)["status"] == "pass"
    report("AC-13", ok, "relations at 20 random points, N=12, exact", started)


def test_ac14_dominant_coefficient():
    started = time.perf_counter()
    ok = True
    count = 0
    for n in range(1, 7):
        for l in range(0, n + 1):
            for r in range(0, n - l + 1):
                lam = Word((2,) * l + (1,) * r + (0,) * (n - l - r))
                ok = ok and macdonald_E(lam).coefficient(lam.letters) == RatFunc.one()
                count += 1
    report("AC-14", ok, f"coefficient of x^lambda is 1 for {count} partitions", started)


if __name__ == "__main__":
    for name, func in sorted(globals().items()):
        if name.startswith("test_ac"):
            func()
