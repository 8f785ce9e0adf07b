"""Write the membership golden corpus, tests/golden/membership.txt.

    python3 tests/golden/make_membership.py > tests/golden/membership.txt

The corpus pins the library's answers so that a change to the decision or
to the semigroup code can be compared with the commit that wrote it.  Each
line is tab-separated:

    semigroup  <gens>  <gaps of S>  <generators of S'>  <gaps of S'>
    decide|recip  <gens>  <numerator>  <denominator>  <status>  <certificate or obstruction>

The numerator and denominator are those of the reduced r, and they and a
certificate are written as ``exponent:coefficient`` terms, ascending.  The
decisions are closure-style sums and products over <4,7,9>, sums
1/(c X^s) + 1/(c1 + c2 X^t) over the S' ladder up to <101,113,127> (decided
as r on the reciprocal side and as r(1/X) by ``decide_membership``), seeded
Laurent fractions p/q, and fixed cases with a pole at the origin.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from recip.membership import decide_membership, in_reciprocal_complement  # noqa: E402
from recip.parse import parse_ratfunc  # noqa: E402
from recip.semigroup import derive_sprime, ns_create  # noqa: E402

COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2))
LADDER = [(4, 7, 9), (11, 13, 17), (23, 29, 31), (43, 47, 53), (101, 113, 127)]
# (multiplicity low, high) of the seeded rungs, and how many of each.
RUNGS = [((4, 6), 6), ((7, 9), 6), ((11, 13), 6), ((17, 19), 5), ((21, 23), 5), ((26, 28), 4), ((39, 41), 2)]
RANDOM_SEMIGROUPS = [(1,), (2, 3), (3, 5), (4, 7, 9), (5, 7, 11), (6, 7, 8, 9, 10, 11), (3, 7)]
POLES = [
    "1/X", "X/X^2", "1/(X^4 - X^5)", "(1 + X)/X^3", "X^2/(1 + X)", "X^5", "X^10 + X^3",
    "(X^30000 + 1)/(X + 2)", "1/(X^-1 + X)", "X^-3", "(2 - X^4)/(X^7 + 3*X^9)",
]


def poly_text(terms: dict[int, Fraction], sign: int = 1) -> str:
    """The terms c*X^e (e negated when sign is -1) in the parse grammar."""
    return " + ".join(f"{c}*X^{sign * e}" for e, c in sorted(terms.items()))


def reciprocal_sum(denominators: list[dict[int, Fraction]], sign: int = 1) -> str:
    return " + ".join(f"1/({poly_text(d, sign)})" for d in denominators)


def members(gens: tuple[int, ...], bound: int) -> list[int]:
    table = [True] + [False] * bound
    for n in range(1, bound + 1):
        table[n] = any(g <= n and table[n - g] for g in gens)
    return [n for n in range(bound + 1) if table[n]]


def rung_gens(rng: random.Random, low: int, high: int) -> tuple[int, int, int]:
    while True:
        m = rng.randint(low, high)
        width = max(2, m // 4)
        a = rng.randint(m + 1, m + width)
        b = rng.randint(a + 1, a + width)
        if math.gcd(m, a, b) == 1:
            return (m, a, b)


def closure_cases(rng: random.Random, count: int) -> list[tuple[str, str]]:
    """Sums a + b and products a*b of two sums of two reciprocals over
    <4,7,9>, each as the text of r and of r(1/X)."""
    small = members((4, 7, 9), 12)
    cases = []
    for _ in range(count):
        a, b = [
            [{m: rng.choice(COEFFS) for m in rng.sample(small, rng.randint(1, 3))} for _ in range(2)]
            for _ in range(2)
        ]
        for template in ("{} + {}", "({})*({})"):
            r, reversed_r = [template.format(reciprocal_sum(a, sign), reciprocal_sum(b, sign)) for sign in (1, -1)]
            cases.append((r, reversed_r))
    return cases


def ladder_sums(rng: random.Random, gens: tuple[int, ...], count: int) -> list[tuple[str, str]]:
    """Each sum as the text of r and of r(1/X)."""
    pool = members(gens, 2 * gens[0])[1:]
    sums = []
    for _ in range(count):
        c1, c2 = rng.sample((1, 2), 2)
        denominators = [
            {rng.choice(pool): Fraction(rng.choice((1, -1, 2, -2)))},
            {0: Fraction(c1 * rng.choice((1, -1))), rng.choice(pool): Fraction(c2 * rng.choice((1, -1)))},
        ]
        sums.append((reciprocal_sum(denominators), reciprocal_sum(denominators, -1)))
    return sums


def random_fraction(rng: random.Random) -> str:
    def poly(allow_zero: bool) -> str:
        terms = {rng.randint(-5, 8): rng.choice(COEFFS) for _ in range(rng.randint(0 if allow_zero else 1, 4))}
        return poly_text(terms) or "0"

    while (den := poly(False)) == "0":
        pass
    return f"({poly(True)})/({den})"


def terms_text(poly) -> str:
    return " ".join(f"{e}:{c}" for (e,), c in poly.terms())


def verdict_text(verdict) -> str:
    if not verdict.is_member:
        return f"{verdict.status}\t{verdict.obstruction}"
    return f"{verdict.status}\t{terms_text(verdict.certificate)}"


def gens_text(gens) -> str:
    return ",".join(map(str, gens))


def main() -> None:
    rng = random.Random(21)
    lines = []
    ladder = LADDER + [rung_gens(rng, low, high) for (low, high), count in RUNGS for _ in range(count)]
    decisions: list[tuple[str, tuple[int, ...], str]] = []
    for gens in ladder:
        S = ns_create(gens)
        sprime = derive_sprime(S)
        lines.append(
            f"semigroup\t{gens_text(gens)}\t{gens_text(S.gaps)}\t{gens_text(sprime.generators)}\t{gens_text(sprime.gaps)}"
        )
        for text, reversed_text in ladder_sums(rng, gens, 6 if gens in LADDER else 3):
            decisions += [("recip", gens, text), ("decide", gens, reversed_text)]
    for text, reversed_text in closure_cases(rng, 220):
        decisions += [("recip", (4, 7, 9), text), ("decide", (4, 7, 9), reversed_text)]
    for _ in range(50):
        for gens in RANDOM_SEMIGROUPS:
            text = random_fraction(rng)
            decisions += [("recip", gens, text), ("decide", gens, text)]
    for gens in RANDOM_SEMIGROUPS[:4]:
        for text in POLES:
            decisions += [("recip", gens, text), ("decide", gens, text)]
    for kind, gens, text in decisions:
        decide = in_reciprocal_complement if kind == "recip" else decide_membership
        r = parse_ratfunc(text)
        verdict = decide(r, ns_create(gens))
        lines.append(f"{kind}\t{gens_text(gens)}\t{terms_text(r.num)}\t{terms_text(r.den)}\t{verdict_text(verdict)}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
