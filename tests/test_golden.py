"""Byte-for-byte guard on canonical output: sha256 digests of tab_qtx,
tab_t and both peeling strategies of the trace recurrence on every word
with n <= 5, recorded from a commit whose answers were trusted.

Re-record (only when the canonical form changes on purpose) from the
repository root with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

from crtasep.algebra import canonical_string, ratfunc_string
from crtasep.combinatorics import Word
from crtasep.oracles.recurrence import trace_by_recurrence
from crtasep.weights import tab_qtx, tab_t

GOLDEN = Path(__file__).parent / "data" / "golden_n5.json"
WORDS = ["".join(p) for n in range(1, 6) for p in itertools.product("012", repeat=n)]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(word: str) -> dict[str, str]:
    mu = Word.from_string(word)
    out = {
        "tab_qtx": _sha(canonical_string(tab_qtx(mu))),
        "tab_t": _sha(ratfunc_string(tab_t(mu))),
    }
    if mu.k >= 1:
        for s in ("max", "min"):
            out[f"trace_{s}"] = _sha(canonical_string(trace_by_recurrence(mu, s)))
    return out


def test_golden_n5():
    golden = json.loads(GOLDEN.read_text())
    assert len(WORDS) == 363 and sorted(golden) == sorted(WORDS)
    mismatched = [w for w in WORDS if digests(w) != golden[w]]
    assert not mismatched, f"canonical output changed on {mismatched[:10]} ({len(mismatched)} words)"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({w: digests(w) for w in WORDS}, indent=0, sort_keys=True) + "\n")
