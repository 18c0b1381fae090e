"""Command-line front end.

Subcommands: ghost, omega, rmap, abelianize, hmember, verify.
Exit codes: 0 success, 1 check/computation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .freealg import Alphabet, AlphabetMismatch
from .cycquot import NotDivisible, abelianize
from .ghost import ContextMismatch, CoordinateTuple, WittContext, check_prime, ghost_map
from .cdwitt import h_membership, omega_map
from .parser import ParseError, UnknownGenerator, parse_poly
from .rmap import DegreeCapExceeded, EpsilonNotCommutator, r_map
from .verify import CHECK_IDS, DEFAULT_SEED, run_checks


class UsageError(ValueError):
    pass


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, default=2, help="prime (default 2)")
    sub.add_argument("--level", type=int, default=2, help="truncation level (default 2)")
    sub.add_argument(
        "--alphabet",
        default="X,Y",
        help="comma-separated generator names (default X,Y)",
    )
    sub.add_argument(
        "--format", choices=["text", "json"], default="text", help="output format"
    )
    sub.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="seed for randomized sweeps"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncwitt",
        description="Exact Witt-vector computations over free non-commutative rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ghost = sub.add_parser("ghost", help="ghost map of a coordinate tuple")
    p_ghost.add_argument("coords", nargs="+", help="coordinate polynomials")
    _add_common_flags(p_ghost)

    p_omega = sub.add_parser("omega", help="Witt-polynomial lift of a coordinate tuple")
    p_omega.add_argument("coords", nargs="+", help="coordinate polynomials")
    _add_common_flags(p_omega)

    p_rmap = sub.add_parser("rmap", help="ghost-vanishing recursion on commutator inputs")
    p_rmap.add_argument("epsilons", nargs="+", help="commutator polynomials")
    _add_common_flags(p_rmap)

    p_abel = sub.add_parser("abelianize", help="project onto circular-word classes")
    p_abel.add_argument("poly", help="polynomial expression")
    _add_common_flags(p_abel)

    p_hmem = sub.add_parser("hmember", help="obstruction-ideal membership (p=2, two generators)")
    p_hmem.add_argument("poly", help="polynomial expression")
    _add_common_flags(p_hmem)

    p_verify = sub.add_parser("verify", help="run named verification checks")
    p_verify.add_argument("checks", nargs="*", help=f"check ids among {', '.join(CHECK_IDS)}")
    p_verify.add_argument("--all", action="store_true", help="run every check")
    _add_common_flags(p_verify)

    return parser


def _alphabet(args) -> Alphabet:
    names = [n.strip() for n in args.alphabet.split(",") if n.strip()]
    if not names:
        raise UsageError("empty alphabet")
    try:
        return Alphabet(names)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_flags(args) -> None:
    try:
        check_prime(args.p)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    # omega's level is the index of its last entry, so 0 is a one-entry lift
    min_level = 0 if args.command == "omega" else 1
    if args.level < min_level:
        raise UsageError(f"--level must be at least {min_level}, got {args.level}")


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _params(args) -> dict:
    return {
        "p": args.p,
        "level": args.level,
        "alphabet": args.alphabet,
        "seed": args.seed,
    }


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error and 0 after --help
        return exc.code
    try:
        _check_flags(args)
        alphabet = _alphabet(args)

        if args.command == "ghost":
            ctx = WittContext(alphabet, args.p, args.level)
            if len(args.coords) > ctx.n:
                raise UsageError(f"expected at most {ctx.n} coordinates")
            coords = CoordinateTuple.of(ctx, [parse_poly(t, alphabet) for t in args.coords])
            result = ghost_map(coords)
            _emit(args, {"command": "ghost", "params": _params(args), "result": str(result)}, str(result))
            return 0

        if args.command == "omega":
            # the lift has level+1 entries, indices 0..level
            ctx = WittContext(alphabet, args.p, args.level + 1)
            if len(args.coords) > ctx.n:
                raise UsageError(f"expected at most {ctx.n} coordinates")
            coords = CoordinateTuple.of(ctx, [parse_poly(t, alphabet) for t in args.coords])
            result = omega_map(coords)
            _emit(args, {"command": "omega", "params": _params(args), "result": str(result)}, str(result))
            return 0

        if args.command == "rmap":
            ctx = WittContext(alphabet, args.p, args.level)
            if len(args.epsilons) > ctx.n:
                raise UsageError(f"expected at most {ctx.n} epsilons")
            eps = [parse_poly(t, alphabet) for t in args.epsilons]
            result = r_map(eps, ctx)
            text = str(result.coords)
            _emit(args, {"command": "rmap", "params": _params(args), "result": text}, text)
            return 0

        if args.command == "abelianize":
            result = abelianize(parse_poly(args.poly, alphabet))
            _emit(args, {"command": "abelianize", "params": _params(args), "result": str(result)}, str(result))
            return 0

        if args.command == "hmember":
            member = h_membership(parse_poly(args.poly, alphabet))
            text = "true" if member else "false"
            _emit(args, {"command": "hmember", "params": _params(args), "result": member}, text)
            return 0

        if args.command == "verify":
            selection = list(CHECK_IDS) if args.all or not args.checks else args.checks
            report = run_checks(
                selection, alphabet=alphabet, p=args.p, level=args.level, seed=args.seed
            )
            _emit(
                args,
                {"command": "verify", "params": _params(args), "report": report.as_dict()},
                str(report),
            )
            return 0 if report.passed else 1

        raise UsageError(f"unknown command {args.command!r}")

    except (UsageError, ParseError, UnknownGenerator, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (
        NotDivisible,
        EpsilonNotCommutator,
        DegreeCapExceeded,
        AlphabetMismatch,
        ContextMismatch,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
