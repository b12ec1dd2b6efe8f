"""Cross-oracle verification suites.

Every suite expands into a deterministic list of instances (random points
are drawn up front from the seed and embedded in the instance), each
instance is checked by a pure function, and the results are assembled in
instance order into a JSON-ready report.  A check returns None when its
instance passes, and otherwise a dict of what went wrong (its own keys,
such as "error" or "state").  ``_check_one`` alone turns that into a
failure of the report: {"instance": ..., the check's keys, "suite": ...}.
An instance whose check raises is reported the same way, with "error"
naming the exception, and the others still run.  The worker count is
taken from the CRTASEP_WORKERS environment variable, clamped to the CPU
count and the number of instances; above 1 the instances are fanned out
to a process pool.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import time
from fractions import Fraction
from math import comb, factorial

from .algebra.poly import MultiPoly
from .algebra.qtx import QtxExpr
from .algebra.ratfunc import RatFunc, qt_factorial_ratio, t_factorial_ratio
from .combinatorics import (
    Word,
    complement,
    enumerate_orderings,
    enumerate_states,
    enumerate_tableaux,
    particle_hole,
)
from .errors import RelationViolation
from .oracles.markov import build_transition_matrix, steady_state
from .oracles.matrices import check_ansatz_relations, check_matrix_relations, truncated_trace
from .oracles.recurrence import trace_by_recurrence, trace_rec_eval
from .queues import crt_to_queue, enumerate_queues, queue_to_crt, queue_weight
from .weights import (
    macdonald_P,
    partition_function,
    stationary_prob,
    tab_qtx,
    tab_qtx_eval,
    tab_t,
    wt_qtx_ordered,
)

_T_VALUES = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))

# The largest bound a suite takes.  Instance lists grow about 3.2x per step
# (numeric-trace holds 21 MB at N = 8, 69 MB at 9, 222 MB at 10), so N = 14
# would need about 18 GB before the first check.
MAX_BOUND_N = 10


def _words_up_to(bound_n: int):
    for n in range(1, bound_n + 1):
        for letters in itertools.product((0, 1, 2), repeat=n):
            yield Word(letters)


def _instances_words(bound_n: int, seed: int):
    """One instance per word: the bijection and specialization suites."""
    return [(str(mu),) for mu in _words_up_to(bound_n)]


def _sectors_up_to(bound_n: int):
    """(k, r, l) of every sector with 1 <= k + r + l <= bound_n: by n, then k, then r."""
    for n in range(1, bound_n + 1):
        for k in range(0, n + 1):
            for r in range(0, n - k + 1):
                yield k, r, n - k - r


def _rand_fraction(rng: random.Random) -> Fraction:
    den = rng.randint(2, 9)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


def _rand_point(rng: random.Random, n: int) -> tuple[str, str, tuple[str, ...]]:
    q0 = _rand_fraction(rng)
    t0 = _rand_fraction(rng)
    xs = tuple(str(Fraction(rng.randint(50, 150), 100)) for _ in range(n))
    return str(q0), str(t0), xs


# -- suite: markov -----------------------------------------------------------


def _instances_markov(bound_n: int, seed: int):
    return [(k, r, l, str(t0)) for k, r, l in _sectors_up_to(bound_n) for t0 in _T_VALUES]


@functools.lru_cache(maxsize=1)
def _sector_laws(k: int, r: int, l: int) -> dict[Word, RatFunc]:
    """The symbolic stationary law of every state of a sector.  Instances
    come sector first, so one entry serves every t0 of a sector."""
    return {mu: stationary_prob(mu) for mu in enumerate_states(k, r, l)}


def _check_markov(instance):
    k, r, l, t0s = instance
    t0 = Fraction(t0s)
    matrix = build_transition_matrix(k, r, l, t0)
    pi = steady_state(matrix)
    laws = _sector_laws(k, r, l)
    for i, mu in enumerate(matrix.states):
        expected = laws[mu].evaluate(1, t0)
        if pi[i] != expected:
            return {"state": str(mu), "solved": str(pi[i]), "formula": str(expected)}
    if sum(pi) != 1:
        return {"error": "probabilities do not sum to 1"}
    return None


# -- suite: recurrence -------------------------------------------------------


def _instances_recurrence(bound_n: int, seed: int):
    rng = random.Random(seed)
    out = []
    for mu in _words_up_to(min(bound_n, 8)):
        out.append(("sym", str(mu)))
    for mu in _words_up_to(min(bound_n, 4)):
        if mu.k >= 1:
            out.append(("dchoice", str(mu)))
    for n in range(8, bound_n + 1):
        for letters in itertools.product((0, 1, 2), repeat=n):
            mu = Word(letters)
            for _ in range(3):
                q0, t0, xs = _rand_point(rng, n)
                out.append(("num", str(mu), q0, t0, xs))
    return out


def _check_recurrence(instance):
    kind = instance[0]
    mu = Word.from_string(instance[1])
    if kind == "sym":
        scalar = RatFunc(MultiPoly.one() - MultiPoly.q() * MultiPoly.t(mu.r))
        if trace_by_recurrence(mu) * scalar != tab_qtx(mu):
            return {"error": "symbolic trace identity fails"}
    elif kind == "dchoice":
        if trace_by_recurrence(mu, "max") != trace_by_recurrence(mu, "min"):
            return {"error": "trace depends on the peeled position"}
    else:
        _, _, q0s, t0s, xs_s = instance
        q0, t0 = Fraction(q0s), Fraction(t0s)
        xs = tuple(Fraction(v) for v in xs_s)
        lhs = (1 - q0 * t0**mu.r) * trace_rec_eval(mu, q0, t0, xs)
        rhs = tab_qtx_eval(mu, q0, t0, xs)
        if lhs != rhs:
            return {"lhs": str(lhs), "rhs": str(rhs)}
    return None


# -- suite: numeric-trace ----------------------------------------------------


def _instances_numeric_trace(bound_n: int, seed: int):
    rng = random.Random(seed)
    out = []
    for mu in _words_up_to(bound_n):
        for _ in range(3):
            # q0, t0 in (0,1) keeps |q0 t0^r| < 1, inside the convergence region
            out.append((str(mu), *_rand_point(rng, mu.n)))
    return out


def _check_numeric_trace(instance):
    mus, q0s, t0s, xs_s = instance
    mu = Word.from_string(mus)
    q0, t0 = Fraction(q0s), Fraction(t0s)
    xs = tuple(Fraction(v) for v in xs_s)
    trace = truncated_trace(mu, q0, t0, xs)
    lhs = float(1 - q0 * t0**mu.r) * trace
    rhs = float(tab_qtx_eval(mu, q0, t0, xs))
    err = abs(lhs - rhs) / max(1e-300, abs(rhs))
    if err >= 1e-8:
        return {"relative_error": err}
    return None


# -- suite: relations --------------------------------------------------------


def _instances_relations(bound_n: int, seed: int):
    rng = random.Random(seed)
    out = []
    for _ in range(20):
        q0, t0 = _rand_fraction(rng), _rand_fraction(rng)
        x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        y0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        out.append(("general", str(q0), str(t0), str(x0), str(y0)))
        out.append(("ansatz", str(q0), str(t0)))
    return out


def _check_relations(instance):
    try:
        if instance[0] == "general":
            _, q0, t0, x0, y0 = instance
            check_matrix_relations(Fraction(q0), Fraction(t0), Fraction(x0), Fraction(y0), size=12)
        else:
            _, q0, t0 = instance
            check_ansatz_relations(Fraction(q0), Fraction(t0), size=12)
    except RelationViolation as exc:
        return {"relation": exc.relation, "entry": list(exc.entry)}
    return None


# -- suite: bijection --------------------------------------------------------


def _check_bijection(instance):
    mu = Word.from_string(instance[0])
    pairs = [
        (tableau, ordering)
        for tableau in enumerate_tableaux(mu)
        for ordering in enumerate_orderings(tableau)
    ]
    weights = []
    images = []
    for tableau, ordering in pairs:
        queue = crt_to_queue(tableau, ordering)
        back = queue_to_crt(queue)
        if back != (tableau, ordering):
            return {"error": "round trip fails", "tableau": tableau.to_json_dict()}
        weight = queue_weight(queue)
        scalar = qt_factorial_ratio(mu.r + mu.l - tableau.arr, mu.r + mu.l)
        if weight != wt_qtx_ordered(tableau, ordering) * scalar:
            return {"error": "weight not preserved", "tableau": tableau.to_json_dict()}
        weights.append(weight)
        images.append(queue)
    total = sum(weights, QtxExpr.zero())
    queues = enumerate_queues(mu)
    if sorted(q.matching for q in queues) != sorted(q.matching for q in images):
        return {"error": "queue enumeration mismatch"}
    if total != tab_qtx(mu):
        return {"error": "queue weights do not sum to tab_qtx"}
    return None


# -- suite: symmetries -------------------------------------------------------


def _instances_symmetries(bound_n: int, seed: int):
    out = [("word", str(mu)) for mu in _words_up_to(bound_n)]
    out.extend(("psym", "2" * l + "1" * r + "0" * k) for k, r, l in _sectors_up_to(min(bound_n, 5)))
    return out


def _check_symmetries(instance):
    kind, text = instance
    mu = Word.from_string(text)
    if kind == "word":
        value = tab_t(mu)
        if value != tab_t(complement(mu)).subs_t_recip():
            return {"error": "complement symmetry fails"}
        if value != tab_t(particle_hole(mu)):
            return {"error": "particle-hole symmetry fails"}
        normal = t_factorial_ratio(mu.r, mu.r + mu.l).inverse() * value
        if not normal.is_poly():
            return {"error": "normalized weight is not polynomial"}
        if any(c.denominator != 1 or c < 0 for c in normal.as_poly().terms.values()):
            return {"error": "normalized weight has bad coefficients"}
    else:
        poly = macdonald_P(mu)
        for i in range(1, mu.n):
            if poly.swap_x(i) != poly:
                return {"error": f"not symmetric in x{i}, x{i+1}"}
        # P_lambda(x; 1, t) = e_{lambda'}(x), lambda' = (r+l, l) (Macdonald VI §4)
        at_q1 = poly.specialize(q_to=1)
        if at_q1 != _elementary(mu.r + mu.l, mu.n) * _elementary(mu.l, mu.n):
            return {"error": "P at q=1 is not e_{r+l} e_l"}
        if at_q1.specialize(x_to_one=True).as_ratfunc() != partition_function(mu.k, mu.r, mu.l):
            return {"error": "P at q=1, x=1 is not the partition function"}
    return None


def _elementary(j: int, n: int) -> QtxExpr:
    """e_j(x_1, ..., x_n)."""
    one = RatFunc.one()
    return QtxExpr({tuple(int(i in s) for i in range(n)): one for s in itertools.combinations(range(n), j)})


# -- suite: specialization ---------------------------------------------------


def _check_specialization(instance):
    mu = Word.from_string(instance[0])
    direct = tab_t(mu)
    if tab_qtx(mu).specialize(q_to=1, x_to_one=True).as_ratfunc() != direct:
        return {"error": "q=1, x=1 specialization mismatch"}
    uniform = Fraction(comb(mu.n, mu.l) * factorial(mu.l) * factorial(mu.r), factorial(mu.r + mu.l))
    if direct.evaluate(1, 1) != uniform:
        return {"error": "t=1 value differs from closed form"}
    return None


# -- driver ------------------------------------------------------------------

_SUITE_FUNCS = {
    "markov": (_instances_markov, _check_markov),
    "recurrence": (_instances_recurrence, _check_recurrence),
    "numeric-trace": (_instances_numeric_trace, _check_numeric_trace),
    "relations": (_instances_relations, _check_relations),
    "bijection": (_instances_words, _check_bijection),
    "symmetries": (_instances_symmetries, _check_symmetries),
    "specialization": (_instances_words, _check_specialization),
}
SUITES = tuple(_SUITE_FUNCS)


def _check_one(task):
    suite, instance = task
    try:
        failure = _SUITE_FUNCS[suite][1](instance)
    except Exception as exc:  # an instance that raises is that instance's failure
        failure = {"error": f"{type(exc).__name__}: {exc}"}
    return None if failure is None else {"instance": list(instance), **failure, "suite": suite}


def worker_count() -> int:
    raw = os.environ.get("CRTASEP_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_suite(suite: str, bound_n: int, seed: int, workers: int | None = None) -> dict:
    """Run one suite (or 'all'); returns the JSON-ready report."""
    if not 0 <= bound_n <= MAX_BOUND_N:
        raise ValueError(f"bound_n must be at least 0 and at most {MAX_BOUND_N}, not {bound_n}")
    names = list(SUITES) if suite == "all" else [suite]
    for name in names:
        if name not in _SUITE_FUNCS:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    started = time.monotonic()
    tasks: list[tuple[str, tuple]] = []
    for name in names:
        for instance in _SUITE_FUNCS[name][0](bound_n, seed):
            tasks.append((name, instance))
    workers = worker_count() if workers is None else max(1, workers)
    workers = min(workers, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_check_one, tasks, chunksize=8)
    else:
        results = [_check_one(task) for task in tasks]
    return {
        "suite": suite,
        "instances": len(tasks),
        "failures": [failure for failure in results if failure is not None],
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }
