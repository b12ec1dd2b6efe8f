"""Command-line front end: compute, serialize, verify.

Words and partitions are digit strings ("201021"); rationals are "p/q"
text.  Output is canonical expression text by default, JSON with --json.
Exit codes: 0 success, 1 verification failure, 2 bad word/partition or
usage, 3 evaluation failure (pole or divergent truncation).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebra.qtx import QtxExpr, canonical_string, ratfunc_string, to_json_dict
from .combinatorics import Word, enumerate_states
from .errors import DivergenceError, NoConvergence, NotAPartition, PoleError
from .oracles.matrices import truncated_trace
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


def _word(text: str) -> Word:
    return Word.from_string(text)


def _rational(text: str) -> Fraction:
    """argparse type: "p/q" text; anything else is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crtasep",
        description="Two-species ring ASEP stationary law and Macdonald polynomials "
        "(parts <= 2) from cylindric rhombic tableaux.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
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
    p.add_argument("--trunc", type=int, default=None, metavar="N", help="exact trace of the N-truncation")
    p.add_argument("--x", nargs="+", type=_rational, default=None, metavar="XI", help="rational x values (default all 1)")

    p = add("verify", "run a cross-oracle invariant suite")
    p.add_argument("suite", choices=SUITES + ("all",))
    p.add_argument("bound_n", type=int)
    p.add_argument("seed", type=int)

    return parser


def _emit_expr(expr: QtxExpr, as_json: bool, nvars: int | None = None) -> None:
    if as_json:
        print(json.dumps(to_json_dict(expr, nvars), separators=(",", ":")))
    else:
        print(canonical_string(expr))


def _emit_ratfunc(value, as_json: bool) -> None:
    if as_json:
        print(json.dumps(to_json_dict(QtxExpr.from_ratfunc(value), 0), separators=(",", ":")))
    else:
        print(ratfunc_string(value))


def main(argv=None) -> int:
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
    except (NotAPartition, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "states":
        states = enumerate_states(args.k, args.r, args.l)
        if args.json:
            print(json.dumps({"count": len(states), "states": [str(mu) for mu in states]}))
        else:
            for mu in states:
                print(mu)
        return 0

    if cmd == "tab-t":
        _emit_ratfunc(tab_t(_word(args.word)), args.json)
        return 0

    if cmd == "tab-qtx":
        mu = _word(args.word)
        _emit_expr(tab_qtx(mu), args.json, mu.n)
        return 0

    if cmd == "prob":
        mu = _word(args.word)
        value = stationary_prob(mu)
        if args.at_t is not None:
            print(Fraction(value.evaluate(1, args.at_t)))
        else:
            _emit_ratfunc(value, args.json)
        return 0

    if cmd == "partition":
        _emit_ratfunc(partition_function(args.k, args.r, args.l), args.json)
        return 0

    if cmd == "macdonald-e":
        lam = _word(args.word)
        _emit_expr(macdonald_E(lam), args.json, lam.n)
        return 0

    if cmd == "macdonald-p":
        lam = _word(args.word)
        _emit_expr(macdonald_P(lam), args.json, lam.n)
        return 0

    if cmd == "queues":
        mu = _word(args.word)
        queues = enumerate_queues(mu)
        docs = [queue.to_json_dict() for queue in queues]
        if args.json:
            print(json.dumps({"word": str(mu), "count": len(docs), "queues": docs}))
        else:
            for doc in docs:
                print(json.dumps(doc, separators=(",", ":")))
        return 0

    if cmd == "trace":
        mu = _word(args.word)
        if args.numeric is None:
            _emit_expr(trace_by_recurrence(mu), args.json, mu.n)
            return 0
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
