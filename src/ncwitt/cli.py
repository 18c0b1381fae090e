"""Command-line front end.

Subcommands: ghost, omega, rmap, abelianize, hmember, verify.  Each takes
only the flags it reads, so any other flag is a usage error.
Exit codes: 0 success, 1 check/computation failure (a computation refused
by the resource guard included), 2 usage error: exactly an InputError
raised by the library, or an argument argparse rejects.  The command line
checks no input itself.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .freealg import Alphabet, InputError
from .cycquot import NotDivisible, abelianize
from .ghost import CoordinateTuple, WittContext, ghost_map
from .cdwitt import check_h_alphabet, h_membership, omega_map
from .parser import parse_poly
from .rmap import r_map
from .verify import CHECK_IDS, DEFAULT_SEED, run_checks

#: The coordinate-tuple commands, each a map of (polynomials, context)
_TUPLE_MAPS = {
    "ghost": lambda polys, ctx: ghost_map(CoordinateTuple.of(ctx, polys)),
    "omega": lambda polys, ctx: omega_map(CoordinateTuple.of(ctx, polys)),
    "rmap": r_map,
}


def _add_flags(
    sub: argparse.ArgumentParser, witt: bool, level_help: str = "truncation level (default 2)"
) -> None:
    """--p and --level if `witt`, then --alphabet and --format."""
    if witt:
        sub.add_argument("--p", type=int, default=2, help="prime (default 2)")
        sub.add_argument("--level", type=int, default=2, help=level_help)
    sub.add_argument(
        "--alphabet",
        default="X,Y",
        help="comma-separated generator names (default X,Y)",
    )
    sub.add_argument(
        "--format", choices=["text", "json"], default="text", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncwitt",
        description="Exact Witt-vector computations over free non-commutative rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ghost = sub.add_parser("ghost", help="ghost map of a coordinate tuple")
    p_ghost.add_argument("coords", nargs="+", help="coordinate polynomials")
    _add_flags(p_ghost, witt=True)

    p_omega = sub.add_parser("omega", help="Witt-polynomial lift of a coordinate tuple")
    p_omega.add_argument("coords", nargs="+", help="coordinate polynomials")
    _add_flags(p_omega, witt=True)

    p_rmap = sub.add_parser("rmap", help="ghost-vanishing recursion on commutator inputs")
    p_rmap.add_argument("coords", nargs="+", metavar="epsilons", help="commutator polynomials")
    _add_flags(p_rmap, witt=True)

    p_abel = sub.add_parser("abelianize", help="project onto circular-word classes")
    p_abel.add_argument("poly", help="polynomial expression")
    _add_flags(p_abel, witt=False)

    p_hmem = sub.add_parser("hmember", help="obstruction-ideal membership (p=2, two generators)")
    p_hmem.add_argument("poly", help="polynomial expression")
    _add_flags(p_hmem, witt=False)

    p_verify = sub.add_parser("verify", help="run named verification checks")
    p_verify.add_argument("checks", nargs="*", help=f"check ids among {', '.join(CHECK_IDS)}")
    p_verify.add_argument("--all", action="store_true", help="run every check")
    level_help = "level of counterexample, the only check that reads it (default 2)"
    _add_flags(p_verify, witt=True, level_help=level_help)
    p_verify.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="seed for randomized sweeps"
    )

    return parser


def _emit(args, result, text: str, key: str = "result") -> None:
    """Print text, or with --format json the command, its parameters and
    the result under `key`."""
    if args.format == "json":
        payload = {"command": args.command, "params": _params(args), key: result}
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _params(args) -> dict:
    """The command's own values among p, level, alphabet and seed, in that order."""
    values = vars(args)
    return {name: values[name] for name in ("p", "level", "alphabet", "seed") if name in values}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error and 0 after --help
        return exc.code
    try:
        alphabet = Alphabet(n.strip() for n in args.alphabet.split(",") if n.strip())

        if args.command == "verify":
            selection = list(CHECK_IDS) if args.all or not args.checks else args.checks
            report = run_checks(
                selection, alphabet=alphabet, p=args.p, level=args.level, seed=args.seed
            )
            _emit(args, report.as_dict(), str(report), key="report")
            return 0 if report.passed else 1

        if args.command == "hmember":
            check_h_alphabet(alphabet)  # before the text is parsed
            member = h_membership(parse_poly(args.poly, alphabet))
            _emit(args, member, "true" if member else "false")
            return 0

        if args.command == "abelianize":
            text = str(abelianize(parse_poly(args.poly, alphabet)))
        else:
            # a coordinate-tuple command; omega's lift has level+1 entries, 0..level
            level = args.level + 1 if args.command == "omega" else args.level
            ctx = WittContext(alphabet, args.p, level)
            ctx.check_count(len(args.coords))  # before any text is parsed
            polys = [parse_poly(t, alphabet) for t in args.coords]
            text = str(_TUPLE_MAPS[args.command](polys, ctx))
        _emit(args, text, text)
        return 0

    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NotDivisible, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so that the
        # flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
