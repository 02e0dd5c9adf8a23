"""Command-line front end.

Subcommands: tensor, ubasis, cousins, matrix, trick, rank, verify,
relations.  Text output is pipe-friendly ASCII ('V12 - V8 + V2'); json is
the canonical machine format and is byte-deterministic for fixed inputs.
Results render themselves where they can: a ring element by ``str`` and
``to_json_dict``, a digit certificate by ``to_text`` and ``to_json_dict``.
Exit codes: 0 success, 1 verification failure, 2 usage error, out of memory,
recursion too deep (a guard: the engine walks digit chains in a loop) or an
I/O error such as an unwritable --out path.

The argument parser is built once per process, at the first ``main`` call,
and reused by every later call; parsing leaves it unchanged.  Each
subcommand's ``cmd_*`` handler is bound into it at that first use, so
replacing a ``cmd_*`` function afterwards does not reach the parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import core_ring, digits, ideals, oracle, quantum, ubasis

_JSON_SEP = (",", ":")


def _emit(payload: bytes | str, out: str | None) -> None:
    data = payload.encode() if isinstance(payload, str) else payload
    if out:
        with open(out, "wb") as handle:
            handle.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _dump(obj) -> str:
    return json.dumps(obj, separators=_JSON_SEP) + "\n"


def _group(args) -> core_ring.GroupSpec:
    return core_ring.GroupSpec(args.p, args.alpha)


def _emit_element(element: core_ring.RingElement, args) -> int:
    if args.format == "json":
        _emit(_dump(element.to_json_dict()), args.out)
    else:
        _emit(str(element) + "\n", args.out)
    return 0


def cmd_tensor(args) -> int:
    return _emit_element(core_ring.tensor(_group(args), args.r, args.s), args)


def cmd_ubasis(args) -> int:
    return _emit_element(ubasis.u_element(_group(args), args.r), args)


def cmd_cousins(args) -> int:
    values = sorted(ubasis.cousins(args.n, args.base))
    if args.format == "json":
        _emit(_dump({"n": args.n, "base": args.base, "cousins": values}), args.out)
    else:
        _emit(" ".join(str(v) for v in values) + "\n", args.out)
    return 0


def cmd_matrix(args) -> int:
    matrix = ubasis.change_of_basis(_group(args), args.direction)
    _emit(ubasis.render_matrix(matrix, args.format), args.out)
    return 0


def cmd_trick(args) -> int:
    cert = digits.trick_certificate(args.n, args.base)
    if args.format == "json":
        _emit(_dump(cert.to_json_dict()), args.out)
    else:
        _emit(cert.to_text() + "\n", args.out)
    return 0


def cmd_rank(args) -> int:
    report = ideals.rank_report(ideals.CyclicGroupSpec(args.n, args.p))
    if args.format == "json":
        _emit(_dump(report), args.out)
    else:
        _emit(
            f"quotient_rank {report['quotient_rank']}, phi {report['phi_n']}\n",
            args.out,
        )
    return 0


def cmd_verify(args) -> int:
    mismatches = oracle.verify_engine(args.p, args.alpha, budget=args.budget)
    if args.format == "json":
        _emit(_dump(mismatches), args.out)
    else:
        _emit(f"{len(mismatches)} mismatches\n", args.out)
    return 1 if mismatches else 0


def cmd_relations(args) -> int:
    group = _group(args)
    vanishes = {
        f"F{j}": value.is_zero() for j, value in enumerate(quantum.relations(group))
    }
    ok = all(vanishes.values())
    if args.format == "json":
        payload = {
            "p": args.p,
            "alpha": args.alpha,
            "vanishes": vanishes,
            "all_vanish": ok,
        }
        _emit(_dump(payload), args.out)
    elif ok:
        _emit(" ".join(vanishes) + " all vanish\n", args.out)
    else:
        failed = [name for name, good in vanishes.items() if not good]
        _emit("nonzero: " + " ".join(failed) + "\n", args.out)
    return 0 if ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenring",
        description="Exact computations in the representation ring of "
        "cyclic groups in characteristic p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, group=False, base=False, fmt=("text", "json"), default_fmt="text"):
        if group:
            sp.add_argument("--p", type=int, required=True, help="prime characteristic")
            sp.add_argument("--alpha", type=int, required=True, help="exponent of p")
        if base:
            sp.add_argument("--base", type=int, default=10, help="digit base (default 10)")
        sp.add_argument("--format", choices=fmt, default=default_fmt)
        sp.add_argument("--out", help="write output to this file instead of stdout")

    sp = sub.add_parser("tensor", help="decompose V_r (x) V_s")
    sp.add_argument("r", type=int)
    sp.add_argument("s", type=int)
    common(sp, group=True)
    sp.set_defaults(func=cmd_tensor)

    sp = sub.add_parser("ubasis", help="expand U_r in the V-basis")
    sp.add_argument("r", type=int)
    common(sp, group=True)
    sp.set_defaults(func=cmd_ubasis)

    sp = sub.add_parser("cousins", help="sign flips of the non-leading digits")
    sp.add_argument("n", type=int)
    common(sp, base=True)
    sp.set_defaults(func=cmd_cousins)

    sp = sub.add_parser("matrix", help="change-of-basis matrix")
    sp.add_argument(
        "--direction",
        choices=["v-to-u", "u-to-v"],
        default="v-to-u",
    )
    common(sp, group=True, fmt=("text", "csv", "pbm"), default_fmt="csv")
    sp.set_defaults(func=cmd_matrix)

    sp = sub.add_parser("trick", help="pick-a-number digit certificate")
    sp.add_argument("n", type=int)
    common(sp, base=True)
    sp.set_defaults(func=cmd_trick)

    sp = sub.add_parser("rank", help="rank of the non-induced quotient vs phi(n)")
    sp.add_argument("n", type=int)
    sp.add_argument("--p", type=int, required=True, help="prime characteristic")
    common(sp)
    sp.set_defaults(func=cmd_rank)

    sp = sub.add_parser("verify", help="engine vs oracle sweep")
    sp.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    common(sp, group=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("relations", help="check that the presentation relations vanish")
    common(sp, group=True)
    sp.set_defaults(func=cmd_relations)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except digits.VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except (OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
