"""Command-line front end.

Every subcommand prints one JSON object (or key: value lines with
--format plain) and exits 0 for any computed verdict, including NotMember.
Exit 2 is a usage error, exit 3 a parse error.  Output is deterministic:
fixed key order, sorted lists, and an explicit seed echoed by the one
randomized command.
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
from .dplusm import UndecidableError, kplusm_membership
from .egyptian import greedy_egyptian
from .laurent import format_poly
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


def _semigroup_from_args(args) -> NumericalSemigroup:
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as handle:
            return semigroup_from_json(json.load(handle))
    if args.gens is None:
        raise SystemExit(USAGE_ERROR)
    return _semigroup_from_gens(args.gens)


def _cmd_semigroup(args) -> dict:
    S = _semigroup_from_args(args)
    return semigroup_to_json(S, sprime=derive_sprime(S))


def _cmd_sprime(args) -> dict:
    S = _semigroup_from_args(args)
    return {"sprime_generators": list(derive_sprime(S).generators)}


def _verdict_json(verdict) -> dict:
    if verdict.is_member:
        return {"status": verdict.status, "certificate": format_poly(verdict.certificate)}
    return {"status": verdict.status, "obstruction": verdict.obstruction}


def _cmd_member(args) -> dict:
    S = _semigroup_from_args(args)
    r = parse_ratfunc(args.expr)
    return _verdict_json(decide_membership(r, S))


def _cmd_recip_member(args) -> dict:
    S = _semigroup_from_args(args)
    r = parse_ratfunc(args.expr)
    return _verdict_json(in_reciprocal_complement(r, S))


def _cmd_valuation(args) -> dict:
    r = parse_ratfunc(args.expr, rank=args.rank)
    value = lex_valuation(r)
    return {"valuation": "infinity" if value.is_infinite else list(value.coords)}


def _cmd_divide(args) -> dict:
    a = parse_poly(args.a)
    b = parse_poly(args.b)
    if b.is_zero():
        raise SystemExit(USAGE_ERROR)
    q, r = euclid_divide(a, b)
    return {"q": format_poly(q), "r": format_poly(r)}


def _cmd_dimension(args) -> dict:
    if args.monoid:
        monoid = monoid_from_json(json.loads(args.monoid))
    elif getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as handle:
            monoid = monoid_from_json(json.load(handle))
    elif args.gens:
        monoid = monoid_from_semigroup(_semigroup_from_gens(args.gens))
    else:
        raise SystemExit(USAGE_ERROR)
    return report_to_json(dimension_report(monoid))


def _cmd_thm56(args) -> dict:
    monoid = free_shift_monoid(args.n, args.m)
    return {
        "monoid": monoid_to_json(monoid),
        "report": report_to_json(dimension_report(monoid)),
    }


def _kplusm_names(n: int) -> tuple[str, ...]:
    if n == 2:
        return ("Y", "X")
    return ("Y",) + tuple(f"X{i}" for i in range(2, n + 1))


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
    value = parse_rational(args.value)
    if not 0 < value <= 1:
        raise SystemExit(USAGE_ERROR)
    return {"denominators": list(greedy_egyptian(value).denominators)}


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
    """An argument parser that reports a usage error on one stderr line."""

    def error(self, message: str):
        self.exit(USAGE_ERROR, f"usage error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="recip",
        description="Exact computations around reciprocal complements of semigroup algebras.",
    )
    parser.add_argument("--format", choices=("json", "plain"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add("semigroup", _cmd_semigroup, help="semigroup invariants plus derived generators")
    p.add_argument("--gens", help="comma-separated generators, e.g. 4,7,9")
    p.add_argument("--file", help="JSON file with {\"generators\": [...]}")

    p = add("sprime", _cmd_sprime, help="generators of the derived semigroup")
    p.add_argument("--gens")
    p.add_argument("--file")

    for name, handler in (("member", _cmd_member), ("recip-member", _cmd_recip_member)):
        p = add(name, handler, help=f"{name} verdict with certificate or obstruction")
        p.add_argument("--gens")
        p.add_argument("--file")
        p.add_argument("--expr", required=True)

    p = add("valuation", _cmd_valuation, help="lex valuation of a rational function")
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--expr", required=True)

    p = add("divide", _cmd_divide, help="Euclidean division of rank-1 polynomials")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = add("dimension", _cmd_dimension, help="stratum flags and dimension report")
    p.add_argument("--gens")
    p.add_argument("--monoid", help="inline monoid JSON")
    p.add_argument("--file", help="monoid JSON file")

    p = add("thm56", _cmd_thm56, help="free-shift family monoid and its report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = add("kplusm", _cmd_kplusm, help="K + m membership for the m = 1 family")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--expr", required=True)

    p = add("egyptian", _cmd_egyptian, help="greedy unit-fraction decomposition")
    p.add_argument("value")

    p = add("oracle", _cmd_oracle, help="seeded brute-force reciprocal-sum witness search")
    p.add_argument("--gens")
    p.add_argument("--file")
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
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        payload = args.handler(args)
    except (ParseError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else USAGE_ERROR
        if code == USAGE_ERROR:
            print("usage error: missing or inconsistent arguments", file=sys.stderr)
        return code
    except (ValueError, ZeroDivisionError, OSError, KeyError, UndecidableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _emit(payload, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
