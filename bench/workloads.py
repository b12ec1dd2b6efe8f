"""The four benchmark workloads: seeded inputs, the timed computation of one
instance, and the untimed correctness gate.

Inputs are plain strings and tuples drawn from ``random.Random(seed)`` and
never from crtasep, so the same seed always gives the same instance list.
Each ``compute`` runs one CLI use case through the public library entry
points and returns ``(text, value, failure)``: the canonical text the CLI
would print (digested for the golden check), the value the gate needs, and
a failure message when a check made on the CLI path itself fails.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], list[tuple[str, tuple]]]
    compute: Callable[[tuple], tuple[str, object, str | None]]
    # (instances, values) -> [(check name, failure or None)]; runs untimed
    gate: Callable[[list[tuple[str, tuple]], list[object]], list[tuple[str, str | None]]]


def _rand_fraction(rng: random.Random) -> Fraction:
    """A point in (0, 1) drawn as ``verify numeric-trace`` draws q0 and t0."""
    den = rng.randint(2, 9)
    return Fraction(rng.randint(1, den - 1), den)


def _rand_xs(rng: random.Random, n: int) -> tuple[str, ...]:
    return tuple(str(Fraction(rng.randint(50, 150), 100)) for _ in range(n))


def _sector_states(k: int, r: int, l: int) -> list[str]:
    """Every word with k zeros, r ones and l twos, sorted."""
    n = k + r + l
    out = []
    for twos in itertools.combinations(range(n), l):
        rest = [i for i in range(n) if i not in twos]
        for ones in itertools.combinations(rest, r):
            letters = ["0"] * n
            for i in twos:
                letters[i] = "2"
            for i in ones:
                letters[i] = "1"
            out.append("".join(letters))
    return sorted(out)


def _words(n: int) -> list[str]:
    return ["".join(p) for p in itertools.product("012", repeat=n)]


# -- qtx-symbolic: tab-qtx, macdonald-p and trace on large words ------------
#
# The words are fixed: the cold cost of tab_qtx differs up to 2.5x between
# rearrangements of one word (0.4 s to 0.95 s for 22221000), so seed-chosen
# words made run_s and the per-instance quantiles follow the seed rather
# than the code.  The seed picks the exact point at which the gate checks
# the trace.

QTX_P_WORD = "2211000"
QTX_TAB_WORD = "22221000"  # tab_qtx runs on each of its 8 cyclic rotations
QTX_TRACE_WORD = "202101200"


def _qtx_inputs(seed: int) -> list[tuple[str, tuple]]:
    rng = random.Random(seed)
    out = [(f"macdonald-p:{QTX_P_WORD}", ("macdonald-p", QTX_P_WORD))]
    for i in range(len(QTX_TAB_WORD)):
        word = QTX_TAB_WORD[i:] + QTX_TAB_WORD[:i]
        out.append((f"tab-qtx:{word}", ("tab-qtx", word)))
    point = (str(_rand_fraction(rng)), str(_rand_fraction(rng)), _rand_xs(rng, len(QTX_TRACE_WORD)))
    out.append((f"trace:{QTX_TRACE_WORD}", ("trace", QTX_TRACE_WORD, point)))
    return out


def _qtx_compute(payload: tuple) -> tuple[str, object, str | None]:
    from crtasep import Word, canonical_string, macdonald_P, tab_qtx, trace_by_recurrence

    kind, word = payload[0], Word.from_string(payload[1])
    fn = {"macdonald-p": macdonald_P, "tab-qtx": tab_qtx, "trace": trace_by_recurrence}[kind]
    expr = fn(word)
    return canonical_string(expr), expr, None


def _qtx_gate(instances, values) -> list[tuple[str, str | None]]:
    from crtasep import Word, tab_t
    from crtasep.weights import tab_qtx_eval

    checks = []
    for (key, payload), expr in zip(instances, values):
        if expr is None:
            continue  # the instance itself already failed
        kind, mu = payload[0], Word.from_string(payload[1])
        if kind == "macdonald-p":
            bad = [i for i in range(1, mu.n) if expr.swap_x(i) != expr]
            checks.append((f"swap-x:{mu}", f"not symmetric under swap_x{bad}" if bad else None))
        elif kind == "tab-qtx":
            same = expr.specialize(q_to=1, x_to_one=True).as_ratfunc() == tab_t(mu)
            checks.append((f"q1x1:{mu}", None if same else "q=1, x=1 specialization differs from tab_t"))
        else:
            q0, t0 = Fraction(payload[2][0]), Fraction(payload[2][1])
            xs = tuple(Fraction(v) for v in payload[2][2])
            lhs = (1 - q0 * t0**mu.r) * expr.evaluate(q0, t0, xs)
            same = lhs == tab_qtx_eval(mu, q0, t0, xs)
            checks.append((f"trace-point:{mu}", None if same else "(1 - q t^r) trace != tab_qtx at the point"))
    return checks


# -- law-sweep: prob --at-t over every state of two sectors -----------------

LAW_SECTORS = ((3, 3, 2), (3, 2, 2))


def _law_inputs(seed: int) -> list[tuple[str, tuple]]:
    rng = random.Random(seed)
    out = []
    for k, r, l in LAW_SECTORS:
        t0 = str(_rand_fraction(rng))
        out.extend((word, (word, t0)) for word in _sector_states(k, r, l))
    rng.shuffle(out)
    return out


def _law_compute(payload: tuple) -> tuple[str, object, str | None]:
    from crtasep import Word, stationary_prob

    word, t0 = payload
    value = Fraction(stationary_prob(Word.from_string(word)).evaluate(1, Fraction(t0)))
    return str(value), value, None


def _law_gate(instances, values) -> list[tuple[str, str | None]]:
    sums: dict[tuple[str, str], Fraction] = {}
    for (key, (word, t0)), value in zip(instances, values):
        if value is None:
            continue
        sector = (f"{word.count('0')}{word.count('1')}{word.count('2')}", t0)
        sums[sector] = sums.get(sector, Fraction(0)) + value
    return [
        (f"sum:{krl}@{t0}", None if total == 1 else f"sector sums to {total}")
        for (krl, t0), total in sorted(sums.items())
    ]


# -- point-sweep: verify recurrence / numeric-trace at exact points ----------

POINT_N = 6


def _point_inputs(seed: int) -> list[tuple[str, tuple]]:
    rng = random.Random(seed)
    out = []
    for word in _words(POINT_N):
        q0, t0 = _rand_fraction(rng), _rand_fraction(rng)
        out.append((word, (word, str(q0), str(t0), _rand_xs(rng, POINT_N))))
    return out


def _point_compute(payload: tuple) -> tuple[str, object, str | None]:
    from crtasep import Word, truncated_trace
    from crtasep.oracles import trace_rec_eval
    from crtasep.weights import tab_qtx_eval

    mu = Word.from_string(payload[0])
    q0, t0 = Fraction(payload[1]), Fraction(payload[2])
    xs = tuple(Fraction(v) for v in payload[3])
    scalar = 1 - q0 * t0**mu.r
    rec = trace_rec_eval(mu, q0, t0, xs)
    tab = tab_qtx_eval(mu, q0, t0, xs)
    text = f"{rec} {tab}"
    if scalar * rec != tab:
        return text, None, "(1 - q t^r) trace_rec_eval != tab_qtx_eval"
    approx = float(scalar) * truncated_trace(mu, q0, t0, xs)
    err = abs(approx - float(tab)) / max(1e-300, abs(float(tab)))
    if err >= 1e-8:
        return text, None, f"truncated_trace relative error {err:.3g}"
    return text, None, None


# -- markov-exact: verify markov over every small sector --------------------

MARKOV_MAX_N = 5
MARKOV_POINTS = 3


def _markov_inputs(seed: int) -> list[tuple[str, tuple]]:
    rng = random.Random(seed)
    out = []
    for n in range(1, MARKOV_MAX_N + 1):
        for k in range(n + 1):
            for r in range(n - k + 1):
                for j in range(MARKOV_POINTS):
                    out.append((f"{k}{r}{n - k - r}#{j}", (k, r, n - k - r, str(_rand_fraction(rng)))))
    return out


def _markov_compute(payload: tuple) -> tuple[str, object, str | None]:
    from crtasep import build_transition_matrix, stationary_prob, steady_state

    k, r, l, t0s = payload
    t0 = Fraction(t0s)
    matrix = build_transition_matrix(k, r, l, t0)
    pi = steady_state(matrix)
    text = " ".join(str(p) for p in pi)
    for mu, p in zip(matrix.states, pi):
        if p != stationary_prob(mu).evaluate(1, t0):
            return text, None, f"pi({mu}) differs from stationary_prob"
    if sum(pi) != 1:
        return text, None, "probabilities do not sum to 1"
    return text, None, None


def _no_gate(instances, values) -> list[tuple[str, str | None]]:
    return []


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("qtx-symbolic", _qtx_inputs, _qtx_compute, _qtx_gate),
        Workload("law-sweep", _law_inputs, _law_compute, _law_gate),
        Workload("point-sweep", _point_inputs, _point_compute, _no_gate),
        Workload("markov-exact", _markov_inputs, _markov_compute, _no_gate),
    )
}
