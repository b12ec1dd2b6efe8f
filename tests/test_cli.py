"""The command-line front end: formats, determinism, exit codes."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from crtasep.algebra import canonical_string, from_json, parse
from crtasep.cli import main
from crtasep.combinatorics import Word
from crtasep.queues import TwoLineQueue, queue_type
from crtasep.verify import SUITES
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


def test_partition_negative_count_exits_2(capsys):
    code, out, err = run(capsys, "partition", "-1", "2", "1")
    assert code == 2 and out == ""
    assert "need nonnegative counts summing to at least 1" in err


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


def test_long_states_word_needs_no_recursion(capsys):
    code, out, err = run(capsys, "states", "1100", "0", "0")
    assert code == 0 and out == "0" * 1100 + "\n" and err == ""


def test_word_too_long_for_the_recurrence_exits_3(capsys):
    code, out, err = run(capsys, "trace", "0" * 1100)
    assert code == 3 and out == ""
    assert err.startswith("error:") and "too long" in err and "Traceback" not in err


COMMANDS = (
    "states", "tab-t", "tab-qtx", "prob", "partition",
    "macdonald-e", "macdonald-p", "queues", "trace", "verify",
)
NAMES = st.sampled_from(COMMANDS + SUITES + ("all",))
WORDS = st.text("012", min_size=1, max_size=5) | st.text("012x3- /", max_size=5)
INTS = st.integers(-3, 2).map(str)
RATIONALS = st.tuples(st.integers(-3, 3), st.integers(0, 4)).map(lambda p: f"{p[0]}/{p[1]}")
OPTIONS = {
    "--json": st.just(["--json"]),
    "-h": st.just(["-h"]),
    "--at-t": st.tuples(st.just("--at-t"), RATIONALS).map(list),
    "--numeric": st.tuples(st.just("--numeric"), RATIONALS, RATIONALS).map(list),
    "--trunc": st.tuples(st.just("--trunc"), INTS).map(list),
    "--x": st.lists(RATIONALS, min_size=1, max_size=6).map(lambda xs: ["--x", *xs]),
}
OWN_OPTIONS = {"prob": ("--at-t",), "trace": ("--numeric", "--trunc", "--x")}
JUNK = st.one_of(NAMES, WORDS, INTS, RATIONALS)


@st.composite
def argvs(draw):
    """A command with positionals and options mostly of the right kind,
    and one time in four a stray token of any kind in each place."""
    command = draw(st.sampled_from(COMMANDS))
    stray = st.integers(0, 3).map(lambda i: i == 0)
    if command in ("states", "partition"):
        kinds = [INTS, INTS, INTS]
    elif command == "verify":
        kinds = [st.sampled_from(SUITES + ("all",)), INTS, INTS]
    else:
        kinds = [WORDS]
    argv = [command] + [draw(JUNK if draw(stray) else kind) for kind in kinds]
    for _ in range(draw(st.integers(0, 3))):
        own = ("--json", "-h") + OWN_OPTIONS.get(command, ())
        argv += draw(OPTIONS[draw(st.sampled_from(tuple(OPTIONS) if draw(stray) else own))])
    if draw(stray):
        argv.append(draw(JUNK))
    return _cheap(argv)


def _cheap(argv):
    """States, partition and verify take minutes on counts or a bound
    above 2 (a word such as 12 parses as one); cap them."""
    if argv[0] not in ("states", "partition", "verify"):
        return argv
    out = []
    for token in argv:
        try:
            out.append("2" if int(token) > 2 else token)
        except ValueError:
            out.append(token)
    return out


@settings(max_examples=100, deadline=None)
@given(argvs())
def test_any_argv_exits_with_a_defined_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
