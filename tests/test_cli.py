"""The command-line front end: formats, determinism, exit codes."""

import json

from crtasep.algebra import canonical_string, from_json, parse
from crtasep.cli import main
from crtasep.combinatorics import Word
from crtasep.queues import TwoLineQueue, queue_type
from crtasep.weights import macdonald_E, tab_qtx


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_states(capsys):
    code, out, _ = run(capsys, "states", "1", "1", "1")
    assert code == 0
    assert out.splitlines() == ["012", "021", "102", "120", "201", "210"]
    code, out, _ = run(capsys, "states", "1", "1", "1", "--json")
    doc = json.loads(out)
    assert doc["count"] == 6 and doc["states"][0] == "012"


def test_macdonald_e_matches_library(capsys):
    code, out, _ = run(capsys, "macdonald-e", "221100")
    assert code == 0
    assert out.strip() == canonical_string(macdonald_E(Word.from_string("221100")))


def test_macdonald_e_json_round_trip(capsys):
    code, text, _ = run(capsys, "macdonald-e", "2100")
    code, blob, _ = run(capsys, "macdonald-e", "2100", "--json")
    assert from_json(blob.strip()) == parse(text.strip())


def test_tab_qtx_json_round_trip(capsys):
    _, text, _ = run(capsys, "tab-qtx", "201021")
    _, blob, _ = run(capsys, "tab-qtx", "201021", "--json")
    assert from_json(blob.strip()) == parse(text.strip()) == tab_qtx(Word.from_string("201021"))


def test_prob_single_state(capsys):
    code, out, _ = run(capsys, "prob", "000", "--at-t", "1/2")
    assert code == 0 and out.strip() == "1"


def test_prob_symbolic_and_pole(capsys):
    code, out, _ = run(capsys, "prob", "201021")
    assert code == 0 and "t" in out
    # the law of 012 keeps a (1+t) factor in its reduced denominator
    code, _, err = run(capsys, "prob", "012", "--at-t", "-1")
    assert code == 3 and "error" in err


def test_partition_function(capsys):
    code, out, _ = run(capsys, "partition", "0", "2", "2")
    assert code == 0 and out.strip() == "(6)"


def test_bad_word_exits_2(capsys):
    code, _, err = run(capsys, "tab-t", "0x2")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "macdonald-e", "2010")
    assert code == 2 and "weakly decreasing" in err


def test_bad_rational_exits_2(capsys):
    for argv in (
        ("prob", "201021", "--at-t", "1/0"),
        ("prob", "201021", "--at-t", "half"),
        ("trace", "0212", "--numeric", "1/3", "1/0"),
        ("trace", "0212", "--numeric", "1/3", "1/2", "--x", "1/0", "1", "1", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "not a rational number" in err and "Traceback" not in err


def test_nonpositive_trunc_exits_2(capsys):
    for size in ("0", "-5"):
        code, out, err = run(capsys, "trace", "0212", "--numeric", "1/3", "1/2", "--trunc", size)
        assert code == 2 and out == ""
        assert "truncation size must be at least 1" in err


def test_queues_output(capsys):
    code, out, _ = run(capsys, "queues", "201021", "--json")
    doc = json.loads(out)
    queues = [TwoLineQueue.from_json_dict(q) for q in doc["queues"]]
    assert doc["count"] == len(queues)
    assert all(str(queue_type(q)) == "201021" for q in queues)
    code, out, _ = run(capsys, "queues", "21")
    lines = out.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["n"] == 2


def test_trace_symbolic_and_numeric(capsys):
    code, out, _ = run(capsys, "trace", "12")
    assert code == 0 and out.strip() == "(-1)/(q*t-1)*x1*x2^2"
    code, out, _ = run(capsys, "trace", "12", "--numeric", "1/3", "1/2")
    assert code == 0 and abs(float(out) - 1.2) < 1e-9
    code, out, _ = run(capsys, "trace", "12", "--numeric", "1/3", "1/2", "--trunc", "8")
    assert code == 0 and "/" in out  # exact rational
    code, _, err = run(capsys, "trace", "12", "--numeric", "3", "1/2")
    assert code == 3


def test_determinism(capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "tab-qtx", "201021")
        outs.add(out)
    assert len(outs) == 1


def test_verify_cli(capsys):
    code, out, _ = run(capsys, "verify", "relations", "0", "42")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "relations"
    assert doc["failures"] == []
    assert set(doc) == {"suite", "instances", "failures", "elapsed_ms"}


def test_verify_small_bounds(capsys):
    for suite in ("markov", "bijection", "symmetries", "specialization", "recurrence"):
        code, out, _ = run(capsys, "verify", suite, "3", "7")
        assert code == 0, suite
        assert json.loads(out)["failures"] == []
