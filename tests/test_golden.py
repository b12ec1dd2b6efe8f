"""Byte-for-byte guard on canonical output: sha256 digests of tab_qtx,
tab_t, the partition function of the word's sector, macdonald_P (for
partitions), both peeling strategies of the trace recurrence, the
two-line queues of a type with their weights, and the numeric truncated
trace (the adaptive float's repr and one exact truncation), on every word
with n <= 5, recorded from a commit whose answers were trusted.
``test_digest_n6`` checks one sha256 over the digests of every word with
n <= 6 against ``DIGEST_N6``.

Re-record (only when the canonical form changes on purpose) from the
repository root with

    PYTHONPATH=src python3 tests/test_golden.py

and, in the same change, set ``DIGEST_N6`` to what this prints; change the
constant only together with such a re-record:

    PYTHONPATH=src python3 tests/test_golden.py --digest 6

The same command with a larger N prints the sha256 for n <= N, to compare two
trees beyond n = 6; it writes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

from crtasep.algebra import canonical_string, ratfunc_string
from crtasep.combinatorics import Word
from crtasep.oracles.matrices import truncated_trace
from crtasep.oracles.recurrence import trace_by_recurrence
from crtasep.queues import enumerate_queues, queue_weight
from crtasep.weights import macdonald_P, partition_function, tab_qtx, tab_t

GOLDEN = Path(__file__).parent / "data" / "golden_n5.json"
DIGEST_N6 = "65cf2d6ecfb6ea5110b77fb9d0bbc830d897a79c9e1fc9ee0270b30f9f22278e"


def words(max_n: int) -> list[str]:
    return ["".join(p) for n in range(1, max_n + 1) for p in itertools.product("012", repeat=n)]


WORDS = words(5)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(word: str) -> dict[str, str]:
    mu = Word.from_string(word)
    q0, t0 = Fraction(1, 3), Fraction(1, 2)
    xs = tuple(Fraction(i + 2, 4) for i in range(mu.n))
    out = {
        "numeric_trace": _sha(
            repr(truncated_trace(mu, q0, t0, xs)) + str(truncated_trace(mu, q0, t0, xs, size=7))
        ),
        "tab_qtx": _sha(canonical_string(tab_qtx(mu))),
        "tab_t": _sha(ratfunc_string(tab_t(mu))),
        "partition": _sha(ratfunc_string(partition_function(mu.k, mu.r, mu.l))),
        "queues": _sha(
            "".join(
                json.dumps(q.to_json_dict(), separators=(",", ":")) + "\n"
                + canonical_string(queue_weight(q)) + "\n"
                for q in enumerate_queues(mu)
            )
        ),
    }
    if mu.is_partition():
        out["macdonald_P"] = _sha(canonical_string(macdonald_P(mu)))
    if mu.k >= 1:
        for s in ("max", "min"):
            out[f"trace_{s}"] = _sha(canonical_string(trace_by_recurrence(mu, s)))
    return out


def digest(max_n: int) -> str:
    """One sha256 over the digests of every word with n <= max_n."""
    return _sha(json.dumps({w: digests(w) for w in words(max_n)}, sort_keys=True))


def test_golden_n5():
    golden = json.loads(GOLDEN.read_text())
    assert len(WORDS) == 363 and sorted(golden) == sorted(WORDS)
    mismatched = [w for w in WORDS if digests(w) != golden[w]]
    assert not mismatched, f"canonical output changed on {mismatched[:10]} ({len(mismatched)} words)"


def test_digest_n6():
    assert digest(6) == DIGEST_N6


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Re-record the golden digests of every word with n <= 5.")
    parser.add_argument(
        "--digest", type=int, metavar="N", help="instead print one sha256 over the digests of every word with n <= N"
    )
    max_n = parser.parse_args().digest
    if max_n is None:
        GOLDEN.write_text(json.dumps({w: digests(w) for w in WORDS}, indent=0, sort_keys=True) + "\n")
    else:
        print(digest(max_n))
