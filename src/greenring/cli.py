"""Command-line front end.

Subcommands: tensor, ubasis, cousins, matrix, trick, rank, verify,
relations.  Text output is pipe-friendly ASCII ('V12 - V8 + V2'); json is
the canonical machine format and is byte-deterministic for fixed inputs.
Each ``cmd_*`` handler returns what it computed: ``matrix`` its rendered
bytes, every other subcommand a ``Result`` that builds its JSON object or
its text line on call, with its exit code.  ``_run`` is the one output
path: it builds only the form --format asks for, writes the bytes to
stdout or --out, and returns the exit code.
Exit codes: 0 success, 1 verification failure, 2 usage error, out of memory,
recursion too deep (a guard: the engine walks digit chains in a loop) or an
I/O error such as an unwritable --out path.

The argument parsers are built once per process, at the first ``main``
call, and shared by every later call; parsing leaves them unchanged.  An
argv whose first word names a subcommand is parsed by that subcommand's
parser alone, and ``command`` is set to the word; every other argv (none,
``--help``, an unknown command, an option before the command) goes to the
top-level parser, as does one the subcommand leaves words over from, so
that parser reports them.  Each subparser carries its ``greenring <cmd>``
prog and its ``cmd_*`` default, so both routes print the same usage, help
and errors and give the same namespace.  Each subcommand's ``cmd_*``
handler is bound into its parser at that first use, so replacing a
``cmd_*`` function afterwards does not reach the parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, NamedTuple

from . import core_ring, digits, ideals, oracle, quantum, ubasis


class Result(NamedTuple):
    """A subcommand's result: its JSON object and its text line, each
    built on call, and its exit code."""

    to_json: Callable[[], object]
    to_text: Callable[[], str]
    code: int = 0


def _group(args) -> core_ring.GroupSpec:
    return core_ring.GroupSpec(args.p, args.alpha)


def _element(element: core_ring.RingElement) -> Result:
    return Result(element.to_json_dict, element.__str__)


def cmd_tensor(args) -> Result:
    return _element(core_ring.tensor(_group(args), args.r, args.s))


def cmd_ubasis(args) -> Result:
    return _element(ubasis.u_element(_group(args), args.r))


def cmd_cousins(args) -> Result:
    values = sorted(ubasis.cousins(args.n, args.base))
    return Result(
        lambda: {"n": args.n, "base": args.base, "cousins": values},
        lambda: " ".join(str(v) for v in values),
    )


def cmd_matrix(args) -> bytes:
    matrix = ubasis.change_of_basis(_group(args), args.direction)
    return ubasis.render_matrix(matrix, args.format)


def cmd_trick(args) -> Result:
    cert = digits.trick_certificate(args.n, args.base)
    return Result(cert.to_json_dict, cert.to_text)


def cmd_rank(args) -> Result:
    report = ideals.rank_report(args.n, args.p)
    return Result(
        lambda: report,
        lambda: f"quotient_rank {report['quotient_rank']}, phi {report['phi_n']}",
    )


def cmd_verify(args) -> Result:
    mismatches = oracle.verify_engine(args.p, args.alpha, budget=args.budget)
    return Result(
        lambda: mismatches, lambda: f"{len(mismatches)} mismatches", 1 if mismatches else 0
    )


def cmd_relations(args) -> Result:
    values = quantum.relations(_group(args))
    vanishes = {f"F{j}": value.is_zero() for j, value in enumerate(values)}
    failed = [name for name, good in vanishes.items() if not good]
    return Result(
        lambda: {"p": args.p, "alpha": args.alpha, "vanishes": vanishes, "all_vanish": not failed},
        lambda: "nonzero: " + " ".join(failed) if failed else " ".join(vanishes) + " all vanish",
        1 if failed else 0,
    )


def _run(args) -> int:
    """Run the subcommand, write its output to --out or stdout, and return
    its exit code.  A ``Result`` is rendered in --format only: compact
    JSON or its text line, each ending in a newline."""
    result = args.func(args)
    data, code = result, 0
    if not isinstance(result, bytes):
        as_json = args.format == "json"
        text = json.dumps(result.to_json(), separators=(",", ":")) if as_json else result.to_text()
        data, code = (text + "\n").encode(), result.code
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return code


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser, shared by every call in the process."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name, built
    once per process."""
    parser = argparse.ArgumentParser(
        prog="greenring",
        description="Exact computations in the representation ring of "
        "cyclic groups in characteristic p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, func, *, group=False, base=False, fmt=("text", "json"), default_fmt="text"):
        if group:
            sp.add_argument("--p", type=int, required=True, help="prime characteristic")
            sp.add_argument("--alpha", type=int, required=True, help="exponent of p")
        if base:
            sp.add_argument("--base", type=int, default=10, help="digit base (default 10)")
        sp.add_argument("--format", choices=fmt, default=default_fmt)
        sp.add_argument("--out", help="write output to this file instead of stdout")
        sp.set_defaults(func=func)

    sp = sub.add_parser("tensor", help="decompose V_r (x) V_s")
    sp.add_argument("r", type=int)
    sp.add_argument("s", type=int)
    common(sp, cmd_tensor, group=True)

    sp = sub.add_parser("ubasis", help="expand U_r in the V-basis")
    sp.add_argument("r", type=int)
    common(sp, cmd_ubasis, group=True)

    sp = sub.add_parser("cousins", help="sign flips of the non-leading digits")
    sp.add_argument("n", type=int)
    common(sp, cmd_cousins, base=True)

    sp = sub.add_parser("matrix", help="change-of-basis matrix")
    sp.add_argument(
        "--direction",
        choices=["v-to-u", "u-to-v"],
        default="v-to-u",
    )
    common(sp, cmd_matrix, group=True, fmt=("text", "csv", "pbm"), default_fmt="csv")

    sp = sub.add_parser("trick", help="pick-a-number digit certificate")
    sp.add_argument("n", type=int)
    common(sp, cmd_trick, base=True)

    sp = sub.add_parser("rank", help="rank of the non-induced quotient vs phi(n)")
    sp.add_argument("n", type=int)
    sp.add_argument("--p", type=int, required=True, help="prime characteristic")
    common(sp, cmd_rank)

    sp = sub.add_parser("verify", help="engine vs oracle sweep")
    sp.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    common(sp, cmd_verify, group=True)

    sp = sub.add_parser("relations", help="check that the presentation relations vanish")
    common(sp, cmd_relations, group=True)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            args = parser.parse_args(argv)  # exits: "unrecognized arguments"
    try:
        return _run(args)
    except digits.VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
