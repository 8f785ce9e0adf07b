"""Command-line front end.

Every subcommand prints one JSON object (or key: value lines with
--format plain) and exits 0 for any computed verdict, including NotMember.
Exit 2 is a usage error, exit 3 a parse error; either is one stderr line
that names the argument (from argparse) or the library check that failed.
Each semigroup command takes exactly one of --gens and --file (dimension
also accepts --monoid), and a value may start with a single '-', as in
--expr -X.  Output is deterministic: fixed key order, sorted lists, and an
explicit seed echoed by the one randomized command.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dimension import (
    dimension_report,
    free_shift_monoid,
    monoid_from_json,
    monoid_from_semigroup,
    monoid_to_json,
    report_to_json,
)
from .dplusm import kplusm_membership
from .egyptian import greedy_egyptian
from .laurent import check_rank, format_poly
from .membership import (
    brute_force_witness,
    decide_membership,
    in_reciprocal_complement,
)
from .parse import ParseError, parse_poly, parse_ratfunc, parse_rational
from .ratfunc import format_ratfunc
from .semigroup import (
    NumericalSemigroup,
    derive_sprime,
    ns_create,
    semigroup_from_json,
    semigroup_to_json,
)
from .valuation import euclid_divide, lex_valuation

USAGE_ERROR = 2
PARSE_ERROR = 3


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, separators=(",", ":")))
    else:
        for key, value in payload.items():
            print(f"{key}: {json.dumps(value, separators=(',', ':'))}")


def _semigroup_from_gens(text: str) -> NumericalSemigroup:
    """The semigroup of a --gens list: comma-separated, blank items skipped."""
    return ns_create([int(g) for g in text.split(",") if g.strip()])


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _semigroup_from_args(args) -> NumericalSemigroup:
    if args.file is not None:
        return semigroup_from_json(_load_json(args.file))
    return _semigroup_from_gens(args.gens)


def _cmd_semigroup(args) -> dict:
    return semigroup_to_json(_semigroup_from_args(args))


def _cmd_sprime(args) -> dict:
    S = _semigroup_from_args(args)
    return {"sprime_generators": list(derive_sprime(S).generators)}


def _cmd_member(args) -> dict:
    S = _semigroup_from_args(args)
    verdict = args.decide(parse_ratfunc(args.expr), S)
    if verdict.is_member:
        return {"status": verdict.status, "certificate": format_poly(verdict.certificate)}
    return {"status": verdict.status, "obstruction": verdict.obstruction}


def _cmd_valuation(args) -> dict:
    r = parse_ratfunc(args.expr, rank=args.rank)
    value = lex_valuation(r)
    return {"valuation": "infinity" if value.is_infinite else list(value.coords)}


def _cmd_divide(args) -> dict:
    q, r = euclid_divide(parse_poly(args.a), parse_poly(args.b))
    return {"q": format_poly(q), "r": format_poly(r)}


def _cmd_dimension(args) -> dict:
    if args.gens is not None:
        monoid = monoid_from_semigroup(_semigroup_from_gens(args.gens))
    elif args.file is not None:
        monoid = monoid_from_json(_load_json(args.file))
    else:
        monoid = monoid_from_json(json.loads(args.monoid))
    return report_to_json(dimension_report(monoid))


def _cmd_thm56(args) -> dict:
    monoid = free_shift_monoid(args.n, args.m)
    return {
        "monoid": monoid_to_json(monoid),
        "report": report_to_json(dimension_report(monoid)),
    }


def _kplusm_names(n: int) -> tuple[str, ...]:
    check_rank(n)
    if n == 2:
        return ("Y", "X")
    return ("Y",) + tuple([f"X{i}" for i in range(2, n + 1)])


def _cmd_kplusm(args) -> dict:
    names = _kplusm_names(args.n)
    r = parse_ratfunc(args.expr, rank=args.n, names=names)
    verdict = kplusm_membership(r, args.n)
    if not verdict.is_member:
        return {"status": verdict.status}
    return {
        "status": verdict.status,
        "constantPart": str(verdict.constant_part),
        "maximalPart": format_ratfunc(verdict.maximal_part, names),
    }


def _cmd_egyptian(args) -> dict:
    return {"denominators": list(greedy_egyptian(parse_rational(args.value)).denominators)}


def _cmd_oracle(args) -> dict:
    S = _semigroup_from_args(args)
    r = parse_ratfunc(args.expr)
    pool = [parse_rational(c) for c in args.coeffs.split(",")]
    witness = brute_force_witness(
        r, S, args.max_terms, args.max_degree, pool, args.seed,
        random_trials=args.trials,
    )
    payload: dict = {"seed": args.seed}
    if witness is None:
        payload["witness"] = None
    else:
        payload["witness"] = [format_poly(d) for d in witness.denominators]
    return payload


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error on one stderr line and
    reads a token starting with a single '-' as a value, such as -X or -1/2,
    unless it is a declared option string such as -h."""

    def error(self, message: str):
        self.exit(USAGE_ERROR, f"usage error: {message}\n")

    def _parse_optional(self, arg_string):
        # argparse reads None as "not an option", so the token becomes a value.
        if arg_string.startswith("--") or arg_string in self._option_string_actions:
            return super()._parse_optional(arg_string)
        return None


def _add_source(p, file_help='JSON file with {"generators": [...]}'):
    """The one required input of a semigroup command: --gens or --file."""
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gens", help="comma-separated generators, e.g. 4,7,9")
    group.add_argument("--file", help=file_help)
    return group


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="recip",
        description="Exact computations around reciprocal complements of semigroup algebras.",
    )
    parser.add_argument("--format", choices=("json", "plain"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, summary, **defaults):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, **defaults)
        return p

    _add_source(add("semigroup", _cmd_semigroup, "semigroup invariants plus derived generators"))
    _add_source(add("sprime", _cmd_sprime, "generators of the derived semigroup"))

    for name, decide in (("member", decide_membership), ("recip-member", in_reciprocal_complement)):
        p = add(name, _cmd_member, f"{name} verdict with certificate or obstruction", decide=decide)
        _add_source(p)
        p.add_argument("--expr", required=True)

    p = add("valuation", _cmd_valuation, "lex valuation of a rational function")
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--expr", required=True)

    p = add("divide", _cmd_divide, "Euclidean division of rank-1 polynomials")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = add("dimension", _cmd_dimension, "stratum flags and dimension report")
    _add_source(p, "monoid JSON file").add_argument("--monoid", help="inline monoid JSON")

    p = add("thm56", _cmd_thm56, "free-shift family monoid and its report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = add("kplusm", _cmd_kplusm, "K + m membership for the m = 1 family")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--expr", required=True)

    p = add("egyptian", _cmd_egyptian, "greedy unit-fraction decomposition")
    p.add_argument("value")

    p = add("oracle", _cmd_oracle, "seeded brute-force reciprocal-sum witness search")
    _add_source(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--max-terms", type=int, default=3, help="summand bound (default 3)")
    p.add_argument("--max-degree", type=int, default=12, help="denominator degree bound (default 12)")
    p.add_argument("--coeffs", default="1,-1", help="comma-separated coefficient pool (default 1,-1)")
    p.add_argument("--seed", type=int, default=0, help="random seed, echoed in the output (default 0)")
    p.add_argument("--trials", type=int, default=400, help="random candidates after enumeration (default 400)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's own exit: help (0) or a usage error (2)
        return exc.code
    try:
        payload = args.handler(args)
    except (ParseError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _emit(payload, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
