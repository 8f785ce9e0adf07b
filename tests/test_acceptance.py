"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Golden values are frozen from independent brute-force oracles;
randomized criteria run at their stated trial counts and time limits.
"""

import json
import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from recip.dimension import (
    dimension_report,
    free_shift_monoid,
    monoid_from_semigroup,
    reciprocal_noetherian,
    si_witness,
)
from recip.dplusm import kplusm_membership, uniformizer_order
from recip.egyptian import algebraic_reciprocal, greedy_egyptian
from recip.laurent import LaurentPolynomial, from_dense, poly_divmod
from recip.membership import (
    in_reciprocal_complement,
    monomial_membership,
    random_reciprocal_sum,
    verify_certificate,
)
from recip.parse import parse_ratfunc
from recip.ratfunc import (
    RationalFunction,
    geometric_product,
    normalize_reciprocal_sum,
    sigma_map,
    sigma_of_reciprocal,
)
from recip.semigroup import derive_sprime, ns_create
from recip.valuation import (
    ValuationValue,
    classical_divide,
    euclid_divide,
    in_valuation_ring,
    lex_valuation,
)

from conftest import random_full_cone_poly, random_nonzero_poly, random_ratfunc
from golden.make_cli import argv_text
from golden.make_cli import run as run_cli
from test_semigroup import representable_table

S479 = ns_create([4, 7, 9])
CLI_TRANSCRIPT = Path(__file__).resolve().parent / "golden" / "cli.txt"


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@lru_cache(maxsize=1)
def member_pool():
    """The seeded pool shared by criteria 3 and 4: 200 random reciprocal
    sums over the algebra of <4,7,9> with <=4 terms, degree <= 12, and
    coefficients in {1, -1, 2, -2, 1/2, -1/2}."""
    rng = random.Random(20240479)
    pool = []
    for _ in range(200):
        sample = random_reciprocal_sum(S479, rng, max_terms=4, max_degree=12)
        pool.append(normalize_reciprocal_sum(sample))
    return tuple(pool)


def test_criterion_01_sprime_golden_value():
    start = time.perf_counter()
    generators = derive_sprime(S479).generators
    elapsed = time.perf_counter() - start
    ok = generators == (4, 7, 9, 10) and elapsed < 1.0
    report(1, ok, f"derived generators {list(generators)} in {elapsed:.3f}s")


def test_criterion_02_monomial_membership_table():
    start = time.perf_counter()
    table = representable_table([4, 7, 9, 10], 40)
    gaps = {g for g in range(1, 41) if not table[g]}
    ok = gaps == {1, 2, 3, 5, 6}
    for g in range(41):
        ok = ok and monomial_membership(g, S479) == (g not in gaps)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(2, ok, f"0..40 matches the brute-force gap set {sorted(gaps)} in {elapsed:.3f}s")


def test_criterion_03_oracle_agreement_200_sums():
    start = time.perf_counter()
    hits = 0
    for value in member_pool():
        verdict = in_reciprocal_complement(value, S479)
        if verdict.is_member and verify_certificate(sigma_map(value), S479, verdict.certificate):
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits == 200 and elapsed < 60.0
    report(3, ok, f"{hits}/200 seeded reciprocal sums verified in {elapsed:.2f}s")


def test_criterion_04_ring_closure_100_pairs():
    rng = random.Random(42)
    pool = member_pool()
    hits = 0
    for _ in range(100):
        a = pool[rng.randrange(len(pool))]
        b = pool[rng.randrange(len(pool))]
        if (
            in_reciprocal_complement(a + b, S479).is_member
            and in_reciprocal_complement(a * b, S479).is_member
        ):
            hits += 1
    report(4, hits == 100, f"{hits}/100 sums and products stayed members")


def test_criterion_05_division_500_pairs():
    rng = random.Random(505)
    start = time.perf_counter()
    hits = 0
    for _ in range(500):
        a_coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 9))]
        b_coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 9))]
        a = from_dense(a_coeffs)
        b = from_dense(b_coeffs)
        if b.is_zero():
            b = LaurentPolynomial.one(1)
        q, r = euclid_divide(a, b)
        good = a == b * q + r
        good = good and (r.is_zero() or r.degree() < b.degree())
        good = good and (q, r) == classical_divide(a, b)
        if good:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits == 500 and elapsed < 5.0
    report(5, ok, f"{hits}/500 divisions match the classical oracle in {elapsed:.2f}s")


def geometric_sum(phi, u, e):
    """Independent expansion of the telescoping identity."""
    total = LaurentPolynomial.zero(phi.rank)
    power = LaurentPolynomial.one(phi.rank)
    count = 2**e
    for j in range(count):
        total = total + power.scale(u ** (count - 1 - j))
        if j + 1 < count:
            power = power * phi
    return total


def test_criterion_06_geometric_identity_300_cases():
    rng = random.Random(606)
    coeffs = [Fraction(c) for c in (-2, -1, 1, 2)] + [Fraction(1, 2), Fraction(-1, 2)]
    hits = 0
    for e in range(1, 7):
        for trial in range(50):
            width = rng.randint(1, 3) if (e <= 4 or trial < 5) else rng.randint(1, 2)
            phi = LaurentPolynomial(
                1, {(rng.randint(0, 3),): rng.choice(coeffs) for _ in range(width)}
            )
            if phi.is_zero():
                phi = LaurentPolynomial.monomial(1, (1,))
            u = rng.choice(coeffs)
            if geometric_product(phi, u, e) == geometric_sum(phi, u, e):
                hits += 1
    report(6, hits == 300, f"{hits}/300 product-vs-sum expansions agree for e = 1..6")


def test_criterion_07_sigma_laws_and_reciprocal_identity():
    rng = random.Random(707)
    hits = 0
    for _ in range(200):
        rank = rng.choice((1, 2))
        r = random_ratfunc(rng, rank)
        s = random_ratfunc(rng, rank)
        good = sigma_map(sigma_map(r)) == r
        good = good and sigma_map(r + s) == sigma_map(r) + sigma_map(s)
        good = good and sigma_map(r * s) == sigma_map(r) * sigma_map(s)
        x = random_nonzero_poly(rng, rank)
        y = random_nonzero_poly(rng, rank)
        if not (x + y).is_zero():
            one = LaurentPolynomial.one(rank)
            lhs = RationalFunction(one, x + y) * (
                RationalFunction(one, x) + RationalFunction(one, y)
            )
            good = good and lhs == RationalFunction(one, x * y)
        if good:
            hits += 1
    report(7, hits == 200, f"{hits}/200 automorphism and reciprocal-product identities hold")


def test_criterion_08_full_cone_valuations_100_cases():
    rng = random.Random(808)
    hits = 0
    for _ in range(100):
        f = random_full_cone_poly(rng, 2)
        image = sigma_map(RationalFunction(LaurentPolynomial.one(2), f))
        good = in_valuation_ring(image)
        good = good and lex_valuation(image) == ValuationValue.finite(f.lex_max_exponent())
        good = good and image == sigma_of_reciprocal(f)
        if good:
            hits += 1
    report(8, hits == 100, f"{hits}/100 cone reciprocals valued at the lex-max support")


def test_criterion_09_dimension_golden_values():
    start = time.perf_counter()
    from recip.dimension import LexMonoid

    nn2 = dimension_report(LexMonoid(rank=2, generators=((1, 0), (0, 1))))
    fam21 = dimension_report(free_shift_monoid(2, 1))
    fam42 = dimension_report(free_shift_monoid(4, 2))
    rank1 = dimension_report(monoid_from_semigroup(S479))
    elapsed = time.perf_counter() - start
    ok = nn2.exact == 2
    ok = ok and fam21.exact == 1 and fam21.rank == 2  # algebra dimension 2
    ok = ok and fam42.t == 2 and fam42.exact == 2
    ok = ok and rank1.exact == 1
    ok = ok and elapsed < 2.0
    report(
        9,
        ok,
        "exact dims (NN^2, family(2,1), family(4,2), <4,7,9>) = "
        f"({nn2.exact}, {fam21.exact}, {fam42.exact}, {rank1.exact}) in {elapsed:.3f}s",
    )


def test_criterion_10_stratum_emptiness_with_witness():
    monoid = free_shift_monoid(2, 1)
    empty = si_witness(monoid, 2) is None
    witness = si_witness(monoid, 1)
    ok = empty and witness is not None and witness[0] >= 1
    ok = ok and all(isinstance(v, int) for v in witness)
    report(10, ok, f"stratum 2 empty, stratum 1 witnessed by {witness}")


def test_criterion_11_kplusm_goldens():
    names = ("Y", "X")
    not_member = kplusm_membership(parse_ratfunc("X", rank=2, names=names), 2)
    r = parse_ratfunc("5 + (X/(X^2+1))*Y^-1", rank=2, names=names)
    member = kplusm_membership(r, 2)
    ok = not_member.status == "NotMember"
    ok = ok and member.is_member and member.constant_part == 5
    ok = ok and member.constant_part + member.maximal_part == r
    ok = ok and uniformizer_order(member.maximal_part) >= 1
    report(11, ok, f"X rejected; constant part {member.constant_part} re-sums exactly")


def test_criterion_12_noetherian_flags():
    from recip.dimension import LexMonoid

    rank1 = reciprocal_noetherian(monoid_from_semigroup(S479))
    rank2 = reciprocal_noetherian(LexMonoid(rank=2, generators=((1, 0), (0, 1))))
    ok = rank1 is True and rank2 is False
    report(12, ok, f"<4,7,9> -> {rank1}, NN^2 -> {rank2}")


def test_criterion_13_egyptian_exhaustive_and_reciprocals():
    count = 0
    ok = True
    for q in range(1, 61):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            value = Fraction(p, q)
            rep = greedy_egyptian(value)
            ok = ok and rep.value() == value
            ok = ok and all(a < b for a, b in zip(rep.denominators, rep.denominators[1:]))
            count += 1
    rng = random.Random(1313)
    inverses = 0
    for _ in range(50):
        degree = rng.randint(1, 5)
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(degree + 1)]
        while coeffs[0] == 0:
            coeffs[0] = Fraction(rng.randint(-5, 5))
        while coeffs[-1] == 0:
            coeffs[-1] = Fraction(rng.randint(-5, 5))
        inverse = algebraic_reciprocal(coeffs)
        x_times_p = from_dense([Fraction(0)] + inverse)
        _, remainder = poly_divmod(x_times_p, from_dense(coeffs))
        if remainder == LaurentPolynomial.one(1):
            inverses += 1
    ok = ok and inverses == 50
    report(13, ok, f"{count} greedy decompositions re-sum exactly; {inverses}/50 inverses check")


def test_criterion_14_cli_transcripts_byte_identical():
    # Each command's stdout, stderr and exit code must equal its block in
    # the stored transcript tests/golden/cli.txt, which lists these commands
    # last, in the default format.
    commands = [
        ["sprime", "--gens", "4,7,9"],
        ["semigroup", "--gens", "4,7,9"],
        ["member", "--gens", "4,7,9", "--expr", "X^10"],
        ["member", "--gens", "4,7,9", "--expr", "X^5"],
        ["recip-member", "--gens", "4,7,9", "--expr", "1/(X^4-1) + 1/X^7"],
        ["valuation", "--rank", "2", "--expr", "(X^(1,0) + X^(1,2))/X^(0,1)"],
        ["divide", "--a", "X^3", "--b", "X^2+1"],
        ["dimension", "--gens", "4,7,9"],
        ["thm56", "--n", "2", "--m", "1"],
        ["kplusm", "--n", "2", "--expr", "5 + (X/(X^2+1))*Y^-1"],
        ["egyptian", "4/5"],
        ["oracle", "--gens", "4,7,9", "--expr", "1/X^4 + 1/X^7", "--seed", "11"],
    ]
    transcript = CLI_TRANSCRIPT.read_text(encoding="utf-8")
    stored = {block.split("\n", 1)[0]: block + "\n\n" for block in transcript.split("\n\n")}
    expected = [stored.get(f"$ {argv_text(argv)}") for argv in commands]
    found = [run_cli(argv, "") for argv in commands]
    for block in found:
        assert block.endswith("\nexit 0\n\n") and "\n2> " not in block, block
        for line in block.splitlines()[1:-2]:
            json.loads(line.removeprefix("1> "))  # every line re-parses under the schema
    ok = found == expected
    size = sum(map(len, found))
    report(14, ok, f"{len(commands)} commands, {size} bytes, identical to tests/golden/cli.txt = {ok}")
