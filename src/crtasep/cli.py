"""Command-line front end: compute, serialize, verify.

Words and partitions are digit strings ("201021"); rationals are "p/q"
text.  Output is canonical expression text by default, JSON with --json.
Exit codes: 0 success, 1 verification failure, 2 bad word/partition or
usage, 3 evaluation failure (pole, divergent truncation, or a word too
long for the recurrence).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .algebra.qtx import QtxExpr, canonical_string, ratfunc_string, to_json
from .combinatorics import Word, count_states, enumerate_states
from .errors import DivergenceError, NoConvergence, PoleError
from .oracles.matrices import MAX_SIZE, truncated_trace
from .oracles.recurrence import trace_by_recurrence
from .queues import enumerate_queues
from .verify import SUITES, run_suite
from .weights import (
    macdonald_E,
    macdonald_P,
    partition_function,
    stationary_prob,
    tab_qtx,
    tab_t,
)

# Output bounds: printing Z takes time quadratic in its digits (up to about
# 0.55 n of them), and states prints one line per word.
MAX_PARTITION_N = 100_000
MAX_STATES = 10**6


def _rational(text: str) -> Fraction:
    """argparse type: "p/q" text; anything else is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


# argparse reads "-5" and "-0.5" as values but "-1/2" as an option: add "-p/q"
NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crtasep",
        description="Two-species ring ASEP stationary law and Macdonald polynomials "
        "(parts <= 2) from cylindric rhombic tableaux.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = NEGATIVE_NUMBER
        p.add_argument("--json", action="store_true", help="emit JSON instead of canonical text")
        return p

    p = add("states", "list all words with the given species counts")
    p.add_argument("k", type=int)
    p.add_argument("r", type=int)
    p.add_argument("l", type=int)

    p = add("tab-t", "t-weight generating function of a word")
    p.add_argument("word", type=str)

    p = add("tab-qtx", "qtx-weight generating function of a word")
    p.add_argument("word", type=str)

    p = add("prob", "stationary probability of a state")
    p.add_argument("word", type=str)
    p.add_argument("--at-t", type=_rational, default=None, metavar="T0", help="evaluate at rational t")

    p = add("partition", "partition function for the given species counts")
    p.add_argument("k", type=int)
    p.add_argument("r", type=int)
    p.add_argument("l", type=int)

    p = add("macdonald-e", "nonsymmetric Macdonald polynomial of a partition")
    p.add_argument("word", type=str)

    p = add("macdonald-p", "symmetric Macdonald polynomial of a partition")
    p.add_argument("word", type=str)

    p = add("queues", "all two-line queues of a type")
    p.add_argument("word", type=str)

    p = add("trace", "trace of the matrix product for a word")
    p.add_argument("word", type=str)
    p.add_argument(
        "--numeric",
        nargs=2,
        type=_rational,
        metavar=("Q0", "T0"),
        default=None,
        help="evaluate the truncated trace at rational q, t",
    )
    p.add_argument(
        "--trunc", type=int, default=None, metavar="N", help=f"exact trace of the N-truncation, 1 <= N <= {MAX_SIZE}"
    )
    p.add_argument("--x", nargs="+", type=_rational, default=None, metavar="XI", help="rational x values (default all 1)")

    p = add("verify", "run a cross-oracle invariant suite")
    p.add_argument("suite", choices=SUITES + ("all",))
    p.add_argument("bound_n", type=int)
    p.add_argument("seed", type=int)

    return parser


def _emit_expr(expr: QtxExpr, as_json: bool, nvars: int | None = None) -> None:
    print(to_json(expr, nvars) if as_json else canonical_string(expr))


def _emit_ratfunc(value, as_json: bool) -> None:
    print(to_json(QtxExpr.from_ratfunc(value), 0) if as_json else ratfunc_string(value))


def main(argv=None) -> int:
    # Exact answers may be longer than the digit limit of int-to-text
    # conversion (4300 by default, Python 3.11+); lift it for this call only.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        return _dispatch(args)
    except (PoleError, DivergenceError, NoConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "states":
        if count_states(args.k, args.r, args.l, MAX_STATES) > MAX_STATES:
            raise ValueError(f"states lists at most {MAX_STATES} words")
        states = enumerate_states(args.k, args.r, args.l)
        if args.json:
            print(json.dumps({"count": len(states), "states": [str(mu) for mu in states]}))
        else:
            for mu in states:
                print(mu)
        return 0

    if cmd == "tab-t":
        _emit_ratfunc(tab_t(Word.from_string(args.word)), args.json)
        return 0

    compute = {"tab-qtx": tab_qtx, "macdonald-e": macdonald_E, "macdonald-p": macdonald_P}.get(cmd)
    if compute is not None:  # one x-expression of a word
        mu = Word.from_string(args.word)
        _emit_expr(compute(mu), args.json, mu.n)
        return 0

    if cmd == "prob":
        mu = Word.from_string(args.word)
        if args.at_t is not None and args.json:
            raise ValueError("--at-t prints a plain rational; it takes no --json")
        value = stationary_prob(mu)
        if args.at_t is not None:
            print(Fraction(value.evaluate(1, args.at_t)))
        else:
            _emit_ratfunc(value, args.json)
        return 0

    if cmd == "partition":
        if args.k + args.r + args.l > MAX_PARTITION_N:
            raise ValueError(f"partition takes k + r + l <= {MAX_PARTITION_N}")
        _emit_ratfunc(partition_function(args.k, args.r, args.l), args.json)
        return 0

    if cmd == "queues":
        mu = Word.from_string(args.word)
        queues = enumerate_queues(mu)
        docs = [queue.to_json_dict() for queue in queues]
        if args.json:
            print(json.dumps({"word": str(mu), "count": len(docs), "queues": docs}))
        else:
            for doc in docs:
                print(json.dumps(doc, separators=(",", ":")))
        return 0

    if cmd == "trace":
        mu = Word.from_string(args.word)
        if args.numeric is None:
            if args.trunc is not None or args.x is not None:
                raise ValueError("--trunc and --x need --numeric Q0 T0")
            _emit_expr(trace_by_recurrence(mu), args.json, mu.n)
            return 0
        if args.json:
            raise ValueError("--numeric prints a plain number; it takes no --json")
        q0, t0 = args.numeric
        value = truncated_trace(mu, q0, t0, args.x, size=args.trunc)
        print(value if args.trunc is not None else repr(value))
        return 0

    if cmd == "verify":
        report = run_suite(args.suite, args.bound_n, args.seed)
        print(json.dumps(report))
        return 0 if not report["failures"] else 1

    raise ValueError(f"unhandled command {cmd!r}")


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
