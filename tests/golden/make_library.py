"""Write the library golden corpus, tests/golden/library.txt.

    python3 tests/golden/make_library.py > tests/golden/library.txt

The corpus pins library results that the CLI does not print: the dimension
report and every stratum witness of lex monoids, and the ``str`` of rank-2
and rank-3 rational-function arithmetic.  Each line is tab-separated:

    monoid  <monoid JSON>  <report JSON>  <witness of S_1> ... <witness of S_rank>
    report  <monoid JSON>  <report JSON>
    arith   <rank>  <a>  <b>  <a + b>  <a * b>  <a / b>  <a ** k>  <k>
    sum     <rank>  <value>  <p>/<q>  <f>  <g>  <d_1>  ...  <d_k>

A witness is written as its comma-separated coordinates, or ``-`` for an
empty stratum.  ``monoid`` lines are seeded monoids of rank 1 to 4 with 0
to 8 shift families, the thm56 ladder ``free_shift_monoid(n, m)`` for
n <= 7, and the full cones of rank 1 to 5.  ``report`` lines are the
free-shift near misses for n <= 7: the families shuffled, one family
duplicated, one base doubled (a non-unit base) and one extra unit family;
their shuffled family order makes the witness search costly, so only the
report is kept.

``sum`` lines hold seeded reciprocal sums 1/d_1 + ... + 1/d_k of rank 1 to
3 with one to eight denominators: the ``str`` of the value of
``normalize_reciprocal_sum`` and its integer form (p, q, f, g), each map
written as space-separated ``exponent:coefficient`` terms in ascending
order, an exponent of rank > 1 as comma-separated coordinates.  The
denominators have negative exponents and Fraction coefficients; some share
a factor, and some repeat an earlier one or its negative, so that a sum can
reach zero part-way.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from recip.dimension import (  # noqa: E402
    LexMonoid,
    ShiftFamily,
    dimension_report,
    free_shift_monoid,
    full_cone_monoid,
    monoid_to_json,
    report_to_json,
    si_witness,
)
from recip.laurent import LaurentPolynomial  # noqa: E402
from recip.ratfunc import RationalFunction, normalize_reciprocal_sum  # noqa: E402

COEFFS = [Fraction(c) for c in (-3, -2, -1, 1, 2, 3)] + [Fraction(1, 2), Fraction(-1, 2)]


def compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def lead_vector(rng: random.Random, rank: int, lead: int) -> tuple[int, ...]:
    vector = [0] * rank
    vector[lead] = rng.randint(1, 3)
    for c in range(lead + 1, rank):
        vector[c] = rng.randint(-3, 3)
    return tuple(vector)


def seeded_monoids(seed: int, count: int):
    """Lex monoids of rank 1 to 4 with 0 to 8 families (few of the large
    counts, since the witness search solves up to 2^families cases) and 0 to
    2 generators, leading indices drawn at random."""
    rng = random.Random(seed)
    for _ in range(count):
        rank = rng.randint(1, 4)
        nfam = rng.choices(range(9), weights=(32, 32, 32, 16, 8, 4, 4, 4, 4))[0] if rank > 1 else 0
        families = []
        for _ in range(nfam):
            lead = rng.randrange(rank - 1)
            tail = range(lead + 1, rank)
            free = frozenset(c for c in tail if rng.random() < 0.5) or {rng.choice(tail)}
            families.append(ShiftFamily(lead_vector(rng, rank, lead), free))
        generators = tuple(lead_vector(rng, rank, rng.randrange(rank)) for _ in range(rng.randint(0, 2)))
        yield LexMonoid(rank=rank, generators=generators, families=tuple(families))


def near_misses(rng: random.Random, n: int, m: int):
    """Presentations close to free_shift_monoid(n, m)."""
    families = free_shift_monoid(n, m).families
    unit = [tuple([int(c == j) for c in range(n)]) for j in range(n)]
    extras = [
        ShiftFamily(unit[j], frozenset({i}))
        for j in range(n)
        for i in range(j + 1, n)
        if ShiftFamily(unit[j], frozenset({i})) not in families
    ]
    k = rng.randrange(len(families))
    doubled = ShiftFamily(tuple([2 * v for v in families[k].base]), families[k].free)
    shapes = [
        rng.sample(families, len(families)),
        families + (rng.choice(families),),
        families[:k] + (doubled,) + families[k + 1:],
    ]
    if extras:
        shapes.append(families + (rng.choice(extras),))
    for shape in shapes:
        yield LexMonoid(rank=n, families=tuple(shape))


def witness_text(witness: tuple[int, ...] | None) -> str:
    return "-" if witness is None else ",".join(map(str, witness))


def monoid_line(M: LexMonoid) -> str:
    witnesses = [witness_text(si_witness(M, i)) for i in range(1, M.rank + 1)]
    report = compact(report_to_json(dimension_report(M)))
    return "\t".join(["monoid", compact(monoid_to_json(M)), report] + witnesses)


def report_line(M: LexMonoid) -> str:
    return "\t".join(["report", compact(monoid_to_json(M)), compact(report_to_json(dimension_report(M)))])


def random_poly(rng: random.Random, rank: int, nonzero: bool) -> LaurentPolynomial:
    while True:
        terms = {
            tuple(rng.randint(-3, 3) for _ in range(rank)): rng.choice(COEFFS)
            for _ in range(rng.randint(0, 3))
        }
        p = LaurentPolynomial(rank, terms)
        if not (nonzero and p.is_zero()):
            return p


def random_ratfunc(rng: random.Random, rank: int) -> RationalFunction:
    return RationalFunction(random_poly(rng, rank, False), random_poly(rng, rank, True))


def arith_line(rng: random.Random, rank: int) -> str:
    a = random_ratfunc(rng, rank)
    while True:
        b = random_ratfunc(rng, rank)
        if not b.is_zero():
            break
    k = rng.randint(-2, 3)
    power = a**k if k >= 0 or not a.is_zero() else None
    values = [a, b, a + b, a * b, a / b, power]
    return "\t".join(["arith", str(rank)] + ["-" if v is None else str(v) for v in values] + [str(k)])


def small_poly(rng: random.Random, rank: int, max_terms: int) -> LaurentPolynomial:
    """A polynomial with 1 to max_terms terms (fewer when an exponent
    repeats), exponents in [-3, 3]; the coefficients are nonzero."""
    terms = {
        tuple(rng.randint(-3, 3) for _ in range(rank)): rng.choice(COEFFS)
        for _ in range(rng.randint(1, max_terms))
    }
    return LaurentPolynomial(rank, terms)


def seeded_denominators(rng: random.Random, rank: int) -> list[LaurentPolynomial]:
    """One to eight nonzero denominators of the given rank.  With some
    probability they share a factor, repeat an earlier denominator, or go on
    with the negatives of all the denominators so far, so that the sum
    reaches zero part-way.  Above rank 1 no gcd is divided out, so there
    the product of the term counts is kept near 24, to keep the forms
    small."""
    count = rng.randint(1, 8)
    shared = small_poly(rng, rank, 2) if rng.random() < 0.3 else None
    budget = 24 if rank > 1 else 3**8
    denominators: list[LaurentPolynomial] = []
    while len(denominators) < count:
        roll = rng.random()
        if denominators and roll < 0.15:
            new = [rng.choice(denominators)]
        elif denominators and roll < 0.3 and 2 * len(denominators) <= count:
            new = rng.sample([-d for d in denominators], len(denominators))
        else:
            d = small_poly(rng, rank, 3 if budget >= 3 else 1)
            new = [d * shared if shared is not None and rng.random() < 0.7 else d]
        for d in new:
            budget //= len(d)
        denominators += new
    return denominators


def int_map_text(f: dict) -> str:
    return " ".join(f"{e if type(e) is int else ','.join(map(str, e))}:{c}" for e, c in sorted(f.items()))


def sum_line(rank: int, denominators: list[LaurentPolynomial]) -> str:
    value = normalize_reciprocal_sum(denominators)
    p, q, f, g = value._ints
    fields = [str(value), f"{p}/{q}", int_map_text(f), int_map_text(g)] + [str(d) for d in denominators]
    return "\t".join(["sum", str(rank)] + fields)


def corpus() -> str:
    lines = [monoid_line(M) for M in seeded_monoids(24, 400)]
    lines += [monoid_line(free_shift_monoid(n, m)) for n in range(2, 8) for m in range(1, n)]
    lines += [monoid_line(full_cone_monoid(rank)) for rank in range(1, 6)]
    rng = random.Random(25)
    lines += [report_line(M) for n in range(2, 8) for m in range(1, n) for M in near_misses(rng, n, m)]
    rng = random.Random(26)
    lines += [arith_line(rng, rank) for rank in (2, 3) for _ in range(60)]
    rng = random.Random(27)
    counts = {1: 60, 2: 30, 3: 30}
    lines += [sum_line(rank, seeded_denominators(rng, rank)) for rank, count in counts.items() for _ in range(count)]
    return "".join(line + "\n" for line in lines)


if __name__ == "__main__":
    sys.stdout.write(corpus())
