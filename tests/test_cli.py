"""The command-line front end: formats, determinism, exit codes."""

import contextlib
import io
import json
import sys
from fractions import Fraction
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from crtasep.algebra import canonical_string, from_json, parse
from crtasep.cli import main
from crtasep.combinatorics import Word
from crtasep.oracles.matrices import MAX_SIZE, truncated_trace
from crtasep.queues import TwoLineQueue, queue_type
from crtasep.verify import MAX_BOUND_N, SUITES
from crtasep.weights import macdonald_E, stationary_prob, tab_qtx


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
    code, _, err = run(capsys, "prob", "210", "--at-t", "-1")
    assert code == 3 and "denominator vanishes at q=1, t=-1" in err


def test_partition_function(capsys):
    code, out, _ = run(capsys, "partition", "0", "2", "2")
    assert code == 0 and out.strip() == "(6)"


def test_partition_with_more_digits_than_the_int_text_limit(capsys):
    limit = _digit_limit()
    text = _digits(comb(9000, 3000) * comb(9000, 6000))
    assert len(text) > 4300
    code, out, err = run(capsys, "partition", "3000", "3000", "3000")
    assert code == 0 and err == "" and out.strip() == f"({text})"
    code, out, _ = run(capsys, "partition", "3000", "3000", "3000", "--json")
    assert code == 0 and json.loads(out)["terms"][0]["num"] == [[text, 0, 0]]
    assert _digit_limit() == limit


def _digit_limit():
    """The int-to-text digit limit (None on Python 3.10, which has none)."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def _digits(value: int) -> str:
    limit = _digit_limit()
    if limit is None:
        return str(value)
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_oversized_partition_and_states_exit_2(capsys):
    code, out, err = run(capsys, "partition", "100001", "0", "0")
    assert code == 2 and out == "" and "k + r + l <= 100000" in err
    # 17,153,136 words: a build without the bound enumerates them into a list
    code, out, err = run(capsys, "states", "6", "6", "6")
    assert code == 2 and out == "" and "at most 1000000 words" in err


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


def test_oversized_trunc_exits_2(capsys):
    # MAX_SIZE + 1 first: a build without the bound fails there rather than
    # trying to allocate the billion-row truncation
    for size in (str(MAX_SIZE + 1), "1000000000"):
        code, out, err = run(capsys, "trace", "0212", "--numeric", "1/3", "1/2", "--trunc", size)
        assert code == 2 and out == ""
        assert f"at most {MAX_SIZE}" in err and "Traceback" not in err


def test_numeric_trace_past_float_range_exits_2(capsys):
    # the adaptive trace runs in floats; the exact --trunc N takes any rational
    for argv, name in (
        (("trace", "0212", "--numeric", "1/3", "1/2", "--x", "1e400", "1", "1", "1"), "x1="),
        (("trace", "1", "--numeric", "1e400", "1e-401"), "q0="),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert name in err and "out of float range" in err and "Traceback" not in err, argv
        code, out, err = run(capsys, *argv, "--trunc", "8")
        assert code == 0 and "/" in out and err == "", argv


def test_trace_options_without_numeric_exit_2(capsys):
    for option in (["--trunc", "5"], ["--x", "1", "2"]):
        code, out, err = run(capsys, "trace", "201", *option)
        assert code == 2 and out == ""
        assert "--numeric" in err and "Traceback" not in err


def test_json_with_a_point_value_exits_2(capsys):
    for argv, option in (
        (("trace", "0212", "--numeric", "1/3", "1/2", "--json"), "--numeric"),
        (("trace", "0212", "--numeric", "1/3", "1/2", "--trunc", "5", "--json"), "--numeric"),
        (("prob", "201021", "--at-t", "1/2", "--json"), "--at-t"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert option in err and "--json" in err and "Traceback" not in err


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


def test_negative_rationals_are_values(capsys):
    # "-p/q" matches neither of argparse's negative-number forms, "-5" and "-0.5"
    code, out, _ = run(capsys, "prob", "210", "--at-t", "-1/2")
    want = stationary_prob(Word.from_string("210")).evaluate(1, Fraction(-1, 2))
    assert code == 0 and out.strip() == str(want) == "1/3"
    code, out, _ = run(capsys, "trace", "0212", "--numeric", "-1/3", "1/2")
    want = truncated_trace(Word.from_string("0212"), Fraction(-1, 3), Fraction(1, 2))
    assert code == 0 and out.strip() == repr(want) and abs(want - 1.4505) < 1e-4
    code, out, _ = run(capsys, "trace", "12", "--numeric", "1/3", "1/2", "--x", "-1/2", "1")
    want = truncated_trace(Word.from_string("12"), Fraction(1, 3), Fraction(1, 2), [Fraction(-1, 2), Fraction(1)])
    assert code == 0 and out.strip() == repr(want)


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


def test_verify_negative_bound_exits_2(capsys):
    code, out, err = run(capsys, "verify", "markov", "-3", "0")
    assert code == 2 and out == ""
    assert "bound_n must be at least 0" in err


def test_oversized_verify_bound_exits_2(capsys):
    # MAX_BOUND_N + 1 first: a build without the bound would list the
    # instances of every word up to length 11 (about 700 MB) before failing
    for argv in (("numeric-trace", str(MAX_BOUND_N + 1), "0"), ("markov", "1000000000", "0")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert f"at most {MAX_BOUND_N}" in err and "Traceback" not in err


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
    """States and verify take minutes on counts or a bound above 2 (a word
    such as 12 parses as one); cap them."""
    if argv[0] not in ("states", "verify"):
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


def test_numeric_trace_that_never_settles_exits_3(capsys):
    code, out, err = run(capsys, "trace", "22", "--numeric", "99/100", "999/1000")
    assert code == 3 and out == ""
    assert "not stable" in err and str(MAX_SIZE) in err
