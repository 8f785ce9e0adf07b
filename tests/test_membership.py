"""Membership decision, certificates, and the brute-force witness search."""

import itertools
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from recip import laurent, membership, ratfunc
from recip.laurent import MAX_DEGREE, LaurentPolynomial, LimitExceeded, int_form
from recip.membership import (
    LINEAR_SYSTEM_INFEASIBLE,
    MAX_SEARCH_SIZE,
    MEMBER,
    POLE_AT_ORIGIN,
    MembershipVerdict,
    brute_force_witness,
    decide_membership,
    in_reciprocal_complement,
    monomial_membership,
    random_reciprocal_sum,
    verify_certificate,
)
from recip.parse import parse_poly, parse_ratfunc
from recip.ratfunc import (
    RationalFunction,
    normalize_reciprocal_sum,
    sigma_map,
)
from recip.semigroup import derive_sprime, ns_create

from conftest import random_nonzero_poly, random_poly
from test_linsolve import fraction_solve_affine, gauss_jordan
from test_semigroup import representable_table

S479 = ns_create([4, 7, 9])
N = ns_create([1])


def RF(text):
    return parse_ratfunc(text)


# -- decide_membership ---------------------------------------------------------


def test_monomial_in_derived_but_not_original():
    verdict = decide_membership(RF("X^10"), S479)
    assert verdict.is_member
    assert verify_certificate(RF("X^10"), S479, verdict.certificate)


def test_gap_monomial_is_infeasible():
    # 5 is a gap of the derived semigroup <4,7,9,10> by brute force.
    table = representable_table([4, 7, 9, 10], 12)
    assert not table[5]
    verdict = decide_membership(RF("X^5"), S479)
    assert verdict.status == "NotMember"
    assert verdict.obstruction == LINEAR_SYSTEM_INFEASIBLE


def test_pole_at_origin():
    verdict = decide_membership(RF("1/X"), S479)
    assert verdict.obstruction == POLE_AT_ORIGIN


def test_unit_denominator_gets_trivial_certificate():
    verdict = decide_membership(RF("X^4/(X^4-1)"), S479)
    assert verdict.is_member
    assert verdict.certificate == LaurentPolynomial.one(1)
    assert verify_certificate(RF("X^4/(X^4-1)"), S479, LaurentPolynomial.one(1))


def test_zero_is_member():
    assert decide_membership(RationalFunction.zero(1), S479).is_member


def test_rank_restriction():
    r = RationalFunction(LaurentPolynomial.one(2))
    with pytest.raises(ValueError):
        decide_membership(r, S479)


def test_reduction_can_require_nontrivial_certificate():
    # p = X^4 + X^9 and q = 1 - X^8 share the factor 1 + X, so the reduced
    # pair leaves the algebra of S and the solver must reconstruct a
    # multiplier; the unreduced pair itself certifies membership.
    r = RF("(X^4 + X^9)/(1 - X^8)")
    sprime = derive_sprime(S479)
    assert any(not sprime.contains(e[0]) for e in r.num.support())
    verdict = decide_membership(r, S479)
    assert verdict.is_member
    assert verify_certificate(r, S479, verdict.certificate)


def dense_decide(r, S):
    """Reference decision on the dense system: one row of all F' coefficients
    per (polynomial, gap), solved by dense Gauss-Jordan."""
    p, q = r.num, r.den
    if q.constant_term() == 0:
        return MembershipVerdict.not_member(POLE_AT_ORIGIN)
    scale = 1 / q.constant_term()
    p, q = p.scale(scale), q.scale(scale)
    sprime = derive_sprime(S)
    bound = sprime.frobenius
    if bound < 0:
        return MembershipVerdict.member(LaurentPolynomial.one(1))
    rows, rhs = [], []
    for poly in (p, q):
        for gap in sprime.gaps:
            rows.append([poly.coeff((gap - k,)) for k in range(1, bound + 1)])
            rhs.append(-poly.coeff((gap,)))
    solution = gauss_jordan(rows, rhs)
    if solution is None:
        return MembershipVerdict.not_member(LINEAR_SYSTEM_INFEASIBLE)
    h = {(0,): 1, **{(k,): c for k, c in enumerate(solution, 1) if c}}
    return MembershipVerdict.member(LaurentPolynomial(1, h))


def test_sparse_system_matches_dense_oracle():
    rng = random.Random(41)
    seen = {MEMBER: 0, POLE_AT_ORIGIN: 0, LINEAR_SYSTEM_INFEASIBLE: 0, "nontrivial": 0}
    for i in range(1000):
        while math.gcd(*(gens := rng.sample(range(2, 12), rng.randint(2, 3)))) != 1:
            pass
        S = N if i % 50 == 0 else ns_create(gens)
        if i % 2:
            sample = random_reciprocal_sum(S, rng, max_terms=2, max_degree=10)
            r = sigma_map(normalize_reciprocal_sum(sample))
        else:
            r = RationalFunction(
                random_poly(rng, polynomial=True, span=8),
                random_nonzero_poly(rng, polynomial=True, span=8),
            )
        verdict = decide_membership(r, S)
        assert verdict == dense_decide(r, S), (r, S.generators)
        seen[verdict.obstruction or verdict.status] += 1
        seen["nontrivial"] += verdict.is_member and verdict.certificate != 1
    assert min(seen.values()) >= 100, seen


def test_decide_hands_solve_affine_a_list(monkeypatch):
    # bench/tracer.py reads len(rows) of every solve, so both entry points
    # must pass the gap rows of g as a list, not as a generator.
    solve = membership.solve_affine
    seen = []

    def recording(rows, rhs):
        seen.append(type(rows))
        return solve(rows, rhs)

    monkeypatch.setattr(membership, "solve_affine", recording)
    for text in ("1/(1 - X)", "(1 + X^4)/(2 - X^7)", "X^5/(X^9 + 3)", "1/(1 + X - 2*X^9)"):
        decide_membership(RF(text), S479)
        in_reciprocal_complement(RF(text), S479)
    assert len(seen) == 8 and set(seen) == {list}, seen


def test_certificates_match_the_fraction_solve(monkeypatch):
    # The certificate system solved over Z gives the verdicts and the
    # certificates of elimination over Q: on sums and products of two
    # reciprocals over <4,7,9>, on 1/(c X^s) + 1/(c1 + c2 X^t) over seeded
    # three-generator semigroups up to <101,113,127> (all sent through
    # sigma), and on random fractions, many of them non-members.
    rng = random.Random(23)
    coeffs = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))
    small = list(S479.members_up_to(12))[1:]

    def denominator():
        return LaurentPolynomial(1, {(m,): rng.choice(coeffs) for m in rng.sample(small, rng.randint(1, 3))})

    cases = []
    for _ in range(150):
        a, b = (normalize_reciprocal_sum([denominator(), denominator()]) for _ in range(2))
        cases += [(sigma_map(a + b), S479), (sigma_map(a * b), S479)]
    for gens in [(11, 13, 17), (23, 29, 31), (43, 47, 53), (101, 113, 127)] + [
        sorted(rng.sample(range(m, 2 * m), 3)) for m in (5, 8, 12, 18, 27) for _ in range(4)
    ]:
        if math.gcd(*gens) != 1:
            continue
        S = ns_create(gens)
        members = list(S.members_up_to(2 * S.multiplicity))[1:]
        for _ in range(4):
            c1, c2 = rng.sample((1, 2), 2)
            monomial = LaurentPolynomial(1, {(rng.choice(members),): rng.choice((1, -1, 2, -2))})
            binomial = LaurentPolynomial(1, {(0,): c1 * rng.choice((1, -1)), (rng.choice(members),): c2 * rng.choice((1, -1))})
            cases.append((sigma_map(normalize_reciprocal_sum([monomial, binomial])), S))
        for _ in range(4):
            num = random_poly(rng, polynomial=True, span=12)
            cases.append((RationalFunction(num, random_nonzero_poly(rng, polynomial=True, span=12)), S))
    verdicts = [decide_membership(r, S) for r, S in cases]
    monkeypatch.setattr(membership, "solve_affine", fraction_solve_affine)
    assert [decide_membership(r, S) for r, S in cases] == verdicts
    nontrivial = [v for v in verdicts if v.is_member and len(v.certificate) > 1]
    infeasible = [v for v in verdicts if v.obstruction == LINEAR_SYSTEM_INFEASIBLE]
    assert len(nontrivial) >= 200 and len(infeasible) >= 20, (len(nontrivial), len(infeasible))
    assert all(type(c) is Fraction for v in nontrivial for _, c in v.certificate.terms())
    assert (101, 113, 127) in {S.generators for _, S in cases}


def test_wide_system_stays_small():
    # <2,4001> has S' = <2,4001> with F' = 3999: 2,000 gap rows of g in 3,999
    # unknowns, 8 million cells if written densely.  1/(1-X) is not a member
    # (its series is 1 at the gap 1); the other two are, and their series is
    # nonzero at every even degree up to F', where for 10^30 - X^2 it is
    # 10^(-30(k+1)) at degree 2k.  The S' derivation is warmed first (it is
    # cached), so the peak is the decision's own.
    S = ns_create([2, 4001])
    assert derive_sprime(S).frobenius == 3999
    for text, member in (("1/(1-X)", False), ("1/(1-X^2)", True), ("1/(10^30-X^2)", True)):
        r = RF(text)
        tracemalloc.start()
        try:
            verdict = decide_membership(r, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.is_member is member, text
        assert member or verdict.obstruction == LINEAR_SYSTEM_INFEASIBLE
        assert peak < 16 * 2**20, (text, peak)


def full_system_decide(r, S):
    """Reference decision on the full gap system: the rows of f and of g at
    every gap of S', built from r's integer form p*f / (q*g) and solved by
    solve_affine."""
    _, _, f, g = r._ints
    if 0 not in g:
        return MembershipVerdict.not_member(POLE_AT_ORIGIN)
    sprime = derive_sprime(S)
    if sprime.frobenius < 0:
        return MembershipVerdict.member(LaurentPolynomial.one(1))
    rows, rhs = [], []
    for poly in (f, g):
        for gap in sprime.gaps:
            rows.append({gap - e - 1: c for e, c in poly.items() if e < gap})
            rhs.append(-poly.get(gap, 0))
    solution = membership.solve_affine(rows, rhs)
    if solution is None:
        return MembershipVerdict.not_member(LINEAR_SYSTEM_INFEASIBLE)
    numerators, den = solution
    return MembershipVerdict.member(LaurentPolynomial(1, {(0,): 1, **{(k + 1,): Fraction(n, den) for k, n in numerators.items()}}))


def test_g_row_verdicts_and_certificates_match_the_full_system():
    # The verdict and the certificate read from the rows of g alone equal
    # those of the full system, rows of f included:
    # on seeded general p/q, on sums and products of two reciprocals over
    # <4,7,9>, and on 1/(c X^s) + 1/(c1 + c2 X^t) (sent through sigma) over
    # the ladder from <4,7,9> to <101,113,127> and over <2,2001>.
    rng = random.Random(29)
    coeffs = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2))
    small = list(S479.members_up_to(12))[1:]

    def denominator():
        return LaurentPolynomial(1, {(m,): rng.choice(coeffs) for m in rng.sample(small, rng.randint(1, 3))})

    cases = []
    for _ in range(100):
        a, b = (normalize_reciprocal_sum([denominator(), denominator()]) for _ in range(2))
        cases += [(sigma_map(a + b), S479), (sigma_map(a * b), S479)]
    for gens in [(4, 7, 9), (11, 13, 17), (23, 29, 31), (43, 47, 53), (101, 113, 127), (2, 2001)]:
        S = ns_create(gens)
        members = list(S.members_up_to(2 * S.multiplicity))[1:]
        for _ in range(8):
            c1, c2 = rng.sample((1, 2, 3), 2)
            monomial = LaurentPolynomial(1, {(rng.choice(members),): rng.choice((1, -1, 2, -2))})
            binomial = LaurentPolynomial(1, {(0,): c1 * rng.choice((1, -1)), (rng.choice(members),): c2 * rng.choice((1, -1))})
            cases.append((sigma_map(normalize_reciprocal_sum([monomial, binomial])), S))
        for _ in range(40):
            while (den := random_nonzero_poly(rng, polynomial=True, span=3 * S.multiplicity)).constant_term() == 0:
                pass
            cases.append((RationalFunction(random_poly(rng, polynomial=True, span=3 * S.multiplicity), den), S))
    verdicts = [decide_membership(r, S) for r, S in cases]
    assert verdicts == [full_system_decide(r, S) for r, S in cases]
    nontrivial = [v for v in verdicts if v.is_member and len(v.certificate) > 1]
    infeasible = [v for v in verdicts if v.obstruction == LINEAR_SYSTEM_INFEASIBLE]
    assert len(nontrivial) >= 100 and len(infeasible) >= 100, (len(nontrivial), len(infeasible))
    assert {(2, 2001), (101, 113, 127)} <= {S.generators for (_, S), v in zip(cases, verdicts) if v.is_member}


def test_worst_case_at_the_conductor_limit_stays_fast():
    # <2,9999> has S' = S, so F' = 9997 and 4,999 gaps, the largest system
    # MAX_CONDUCTOR allows.  X^10000/g is a member (its series starts above
    # F'), 1/g is not for the first three g (its series is nonzero at the
    # gap 1).  Over g = 10^d - X^2 both are members, and the series of 1/g is
    # nonzero at every even degree up to F' with 3.3*d more bits per degree,
    # so computing that series exactly would take minutes at d = 1000.
    S = ns_create([2, 9999])
    assert derive_sprime(S).frobenius == 9997
    cases = [(f, g, f != "1") for g in ("1-X", "1-X-X^2", "3-X+2*X^3") for f in ("X^10000", "1")]
    cases += [(f, f"10^{d}-X^2", True) for d in (100, 1000) for f in ("X^10000", "1")]
    for f, g, member in cases:
        r = RF(f"({f})/({g})")
        start = time.perf_counter()
        verdict = decide_membership(r, S)
        elapsed = time.perf_counter() - start
        assert verdict.is_member is member, (f, g)
        assert elapsed < 1.0, (f, g, elapsed)
        if member:
            assert verify_certificate(r, S, verdict.certificate)
        tracemalloc.start()
        try:
            decide_membership(r, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, (f, g, peak)


def test_verdicts_match_the_sympy_series():
    # r is a member exactly when the series of f/g to O(X^(F'+1)) has no
    # nonzero coefficient at a gap of S'.
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(31)
    seen = {True: 0, False: 0}
    for gens in [(2, 3), (3, 5), (4, 7, 9), (5, 6, 13)]:
        S = ns_create(gens)
        sprime = derive_sprime(S)
        for _ in range(25):
            r = RationalFunction(
                random_poly(rng, polynomial=True, span=8),
                random_nonzero_poly(rng, polynomial=True, span=8),
            )
            if r.den.constant_term() == 0:
                continue
            num, den = (
                sum((sympy.Rational(c.numerator, c.denominator) * x ** e[0] for e, c in poly.terms()), sympy.Integer(0))
                for poly in (r.num, r.den)
            )
            series = sympy.Poly(sympy.series(num / den, x, 0, sprime.frobenius + 1).removeO(), x)
            expected = all(series.coeff_monomial(x**j) == 0 for j in sprime.gaps)
            assert decide_membership(r, S).is_member is expected, (r, gens)
            seen[expected] += 1
    assert min(seen.values()) >= 10, seen


# -- verify_certificate -----------------------------------------------------------


def test_verify_certificate_examples():
    one = LaurentPolynomial.one(1)
    assert verify_certificate(RF("X^4/(X^4-1)"), S479, one) is True
    assert verify_certificate(RF("X^5"), S479, one) is False
    h0 = parse_poly("X + X^2")  # h(0) = 0 is never acceptable
    assert verify_certificate(RF("X^4"), S479, h0) is False


def test_soundness_member_certificates_always_verify():
    rng = random.Random(17)
    for _ in range(40):
        sample = random_reciprocal_sum(S479, rng)
        r = sigma_map(normalize_reciprocal_sum(sample))
        verdict = decide_membership(r, S479)
        assert verdict.is_member
        assert verify_certificate(r, S479, verdict.certificate)


def test_truncation_completeness():
    # Low-degree product coefficients never involve high multiplier
    # coefficients, so certificates above the Frobenius bound truncate.
    rng = random.Random(19)
    sprime = derive_sprime(S479)
    bound = sprime.frobenius
    for _ in range(30):
        p = parse_poly("X^4 + X^8")
        h = LaurentPolynomial(
            1, {(k,): rng.choice((0, 1, 2)) for k in range(bound + 1, bound + 6)}
        ) + LaurentPolynomial.one(1)
        truncated = LaurentPolynomial(1, {e: c for e, c in h.terms() if e[0] <= bound})
        for j in range(bound + 1):
            assert (p * h).coeff((j,)) == (p * truncated).coeff((j,))


def test_certificates_stay_valid_after_truncation():
    # Multiply a valid certificate by an algebra element of high degree;
    # truncating back below the Frobenius bound must keep it valid.
    rng = random.Random(23)
    sprime = derive_sprime(S479)
    bound = sprime.frobenius
    members = [n for n in range(8, 20) if sprime.contains(n)]
    targets = [RF("(X^4 + X^9)/(1 - X^8)")]
    for _ in range(15):
        targets.append(sigma_map(normalize_reciprocal_sum(random_reciprocal_sum(S479, rng))))
    for r in targets:
        verdict = decide_membership(r, S479)
        assert verdict.is_member
        w = LaurentPolynomial.one(1) + LaurentPolynomial(
            1, {(rng.choice(members),): rng.choice((1, 2)) for _ in range(rng.randint(1, 3))}
        )
        big = verdict.certificate * w
        truncated = LaurentPolynomial(1, {e: c for e, c in big.terms() if e[0] <= bound})
        assert verify_certificate(r, S479, big)
        assert verify_certificate(r, S479, truncated)


# -- monomial membership ------------------------------------------------------------


def test_monomial_membership_examples():
    assert monomial_membership(10, S479) is True
    assert monomial_membership(5, S479) is False
    assert monomial_membership(0, S479) is True
    with pytest.raises(ValueError):
        monomial_membership(-1, S479)


def test_monomial_membership_matches_decision_procedure():
    sprime = derive_sprime(S479)
    for g in range(3 * sprime.conductor + 1):
        monomial = RationalFunction(LaurentPolynomial.monomial(1, (g,)))
        assert monomial_membership(g, S479) == decide_membership(monomial, S479).is_member


def test_monomial_membership_gap_table():
    table = representable_table([4, 7, 9, 10], 40)
    for g in range(41):
        assert monomial_membership(g, S479) == table[g]


# -- reciprocal complement side -------------------------------------------------------


def test_reciprocal_sum_is_member():
    r = RF("1/(X^4-1) + 1/X^7")
    verdict = in_reciprocal_complement(r, S479)
    assert verdict.is_member


def test_polynomial_x_is_not_in_reciprocal_complement_of_nn():
    verdict = in_reciprocal_complement(RF("X"), N)
    assert verdict.status == "NotMember"
    assert verdict.obstruction == POLE_AT_ORIGIN


def test_reciprocal_of_x_is_member_over_nn():
    assert in_reciprocal_complement(RF("1/X"), N).is_member


def test_sigma_side_decision_matches_decide_on_sigma_map():
    # in_reciprocal_complement reads sigma(r)'s low terms off r's top terms
    # and never builds sigma(r); its verdict must be that of deciding
    # sigma_map(r), certificate term for term.  Inputs: sums and products of
    # two reciprocals over <4,7,9>, 1/(c X^s) + 1/(c1 + c2 X^t) over
    # <43,47,53> and <101,113,127>, seeded Laurent fractions, zero,
    # constants, poles on either side, S = N (F' = -1), and a degree far
    # above F'.
    rng = random.Random(47)
    coeffs = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))
    small = list(S479.members_up_to(12))[1:]

    def denominator():
        return LaurentPolynomial(1, {(m,): rng.choice(coeffs) for m in rng.sample(small, rng.randint(1, 3))})

    cases = []
    for _ in range(100):
        a, b = (normalize_reciprocal_sum([denominator(), denominator()]) for _ in range(2))
        cases += [(a + b, S479), (a * b, S479)]
    for gens in [(43, 47, 53), (101, 113, 127)]:
        S = ns_create(gens)
        members = list(S.members_up_to(2 * S.multiplicity))[1:]
        for _ in range(10):
            c1, c2 = rng.sample((1, 2), 2)
            monomial = LaurentPolynomial(1, {(rng.choice(members),): rng.choice((1, -1, 2, -2))})
            binomial = LaurentPolynomial(1, {(0,): c1 * rng.choice((1, -1)), (rng.choice(members),): c2 * rng.choice((1, -1))})
            cases.append((normalize_reciprocal_sum([monomial, binomial]), S))
    for _ in range(200):
        S = rng.choice([S479, N, ns_create([3, 5])])
        cases.append((RationalFunction(random_poly(rng, span=8), random_nonzero_poly(rng, span=8)), S))
    texts = ["0", "1", "-3/7", "X", "1/X", "X^2/(1 + X)", "(1 + X)/X^3", "1/(X^4 - X^5)", "(X^30000 + 1)/(X + 2)", "(X + 2)/(X^30000 + 1)", "X^5/(X^30000 - 3)"]
    cases += [(RF(text), S) for text in texts for S in (S479, N, ns_create([101, 113, 127]))]
    seen = {MEMBER: 0, POLE_AT_ORIGIN: 0, LINEAR_SYSTEM_INFEASIBLE: 0, "nontrivial": 0, "N": 0}
    for r, S in cases:
        expected = decide_membership(sigma_map(r), S)
        verdict = in_reciprocal_complement(r, S)
        assert verdict == expected, (r, S.generators)
        if verdict.is_member:
            terms = [(e, type(c), c) for e, c in verdict.certificate.terms()]
            assert terms == [(e, type(c), c) for e, c in expected.certificate.terms()], (r, S.generators)
        seen[verdict.obstruction or verdict.status] += 1
        seen["nontrivial"] += verdict.is_member and len(verdict.certificate) > 1
        seen["N"] += S is N
    assert min(seen.values()) >= 40, seen
    rank2 = RationalFunction(LaurentPolynomial.one(2), LaurentPolynomial(2, {(0, 0): 1, (1, 1): 1}))
    for decide in (decide_membership, in_reciprocal_complement):
        with pytest.raises(ValueError, match="rank 1"):
            decide(rank2, S479)


def test_oracle_agreement_on_random_sums():
    rng = random.Random(29)
    for _ in range(40):
        sample = random_reciprocal_sum(S479, rng)
        verdict = in_reciprocal_complement(normalize_reciprocal_sum(sample), S479)
        assert verdict.is_member


def test_ring_closure_of_members():
    rng = random.Random(31)
    values = [
        normalize_reciprocal_sum(random_reciprocal_sum(S479, rng)) for _ in range(20)
    ]
    for a, b in zip(values[::2], values[1::2]):
        assert in_reciprocal_complement(a + b, S479).is_member
        assert in_reciprocal_complement(a * b, S479).is_member


def test_localization_fast_path():
    # Fractions with supports in S and invertible constant term are members
    # outright; the unreduced pair is its own certificate.
    rng = random.Random(37)
    members = [n for n in range(13) if S479.contains(n)]
    sprime = derive_sprime(S479)
    for _ in range(30):
        num = LaurentPolynomial(
            1, {(rng.choice(members),): rng.choice((1, 2, -1)) for _ in range(rng.randint(0, 3))}
        )
        den = LaurentPolynomial(1, {(0,): 1}) + LaurentPolynomial(
            1, {(rng.choice(members[1:]),): rng.choice((1, -1)) for _ in range(rng.randint(0, 3))}
        )
        r = RationalFunction(num, den)
        assert decide_membership(r, S479).is_member
        # support conditions hold for the unreduced pair with multiplier 1
        assert all(sprime.contains(e[0]) for e in num.support())
        assert all(sprime.contains(e[0]) for e in den.support())


# -- brute-force witness ----------------------------------------------------------------


def test_witness_for_explicit_sum():
    r = RF("1/X^4 + 1/X^7")
    witness = brute_force_witness(r, S479, 2, 12, [Fraction(1), Fraction(-1)], seed=3)
    assert witness is not None
    assert normalize_reciprocal_sum(witness) == r
    assert witness.denominators == (parse_poly("X^4"), parse_poly("X^7"))


def test_witness_for_binomial_denominator():
    r = RF("1/(X^4 - X^8)")
    witness = brute_force_witness(r, S479, 2, 8, [Fraction(1), Fraction(-1)], seed=3)
    assert witness is not None
    assert normalize_reciprocal_sum(witness) == r


def test_no_witness_for_non_members():
    r = RF("X^5")
    assert decide_membership(r, S479).status == "NotMember"
    witness = brute_force_witness(
        r, S479, 2, 9, [Fraction(1), Fraction(-1)], seed=5, random_trials=50
    )
    assert witness is None


def test_witness_search_is_deterministic():
    r = RF("1/X^4 + 1/(1 - X^4)")
    a = brute_force_witness(r, S479, 3, 8, [Fraction(1), Fraction(-1)], seed=11)
    b = brute_force_witness(r, S479, 3, 8, [Fraction(1), Fraction(-1)], seed=11)
    assert a == b
    assert a is not None and normalize_reciprocal_sum(a) == r


def test_witness_rejects_bad_bounds():
    with pytest.raises(ValueError):
        brute_force_witness(RF("1/X^4"), S479, 0, 5, [Fraction(1)], seed=0)
    with pytest.raises(ValueError):
        brute_force_witness(RF("1/X^4"), S479, 2, 5, [Fraction(0)], seed=0)


def unreduced(num, den):
    """num/den as a rank-1 RationalFunction that keeps any common factor:
    its num and den are num and den times one constant (every public
    constructor reduces)."""
    if num.is_zero():
        return RationalFunction.zero(1)
    (n, f), (d, g) = int_form(num), int_form(den)
    return RationalFunction._from_ints((d, n, f, g), 1)


def test_single_denominator_of_an_unreduced_fraction():
    # r = g/(g*d) keeps the common factor g; num(r) * d = den(r) still fixes
    # d, so stage 1 finds it, as the enumerating search does.
    rng = random.Random(61)
    found = 0
    for k in range(150):
        g = LaurentPolynomial(1, {(0,): 1, (rng.randint(1, 4),): rng.choice((1, -1, 2))})
        d = LaurentPolynomial(1, {(rng.randint(0, 9),): rng.choice((1, -1, 2, 3)) for _ in range(rng.randint(1, 3))})
        r = unreduced(g, g * d)
        assert len(r.num) == 2
        witness = brute_force_witness(r, S479, 1, 9, (1, -1, 2), seed=k, random_trials=0)
        expected = brute_force_witness_oracle(r, S479, 1, 9, (1, -1, 2), seed=k, random_trials=0)
        assert (None if witness is None else witness.denominators) == expected, (r, d)
        if witness is not None:
            assert witness.denominators == (d,)
            found += 1
    assert 20 <= found <= 130, found


def test_enumeration_builds_at_most_its_budget_of_monomials(monkeypatch):
    # The first 60,000 multisets use only the first 60,000 monomials, so a
    # long pool at the degree limit (a million member-coefficient pairs)
    # builds no more of them.  r = 1/(41 X^4) passes the stage-2 screen (4 is
    # in S), and 41 is outside the pool, so there is no witness.  The checks
    # are counted, not run: at about 45 us each they would take most of the
    # time, and this test bounds the enumeration.
    pool = range(1, 41)
    sizes = []

    def count(denominators, r):
        sizes.append(len(denominators))
        return False

    monkeypatch.setattr(membership, "_sums_to", count)
    r = RF("1/(41*X^4)")
    start = time.perf_counter()
    assert brute_force_witness(r, S479, 2, MAX_DEGREE, pool, seed=0, random_trials=0) is None
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        witness = brute_force_witness(r, S479, 2, MAX_DEGREE, pool, seed=0, random_trials=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness is None
    assert sizes == [2] * 120_000
    assert elapsed < 3.0, elapsed
    assert peak < 64 * 2**20, peak


def test_one_term_search_builds_no_monomials():
    # With max_terms = 1 stage 2 tries no multiset, so it builds none of its
    # 60,000 monomials either (a 23.9 MB peak when it did; the members up to
    # MAX_DEGREE take about 1.2 MB).
    tracemalloc.start()
    try:
        witness = brute_force_witness(RF("1/(41*X^4)"), S479, 1, MAX_DEGREE, range(1, 41), seed=0, random_trials=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness is None
    assert peak < 4 * 2**20, peak


def test_witness_search_limits(monkeypatch):
    r = RF("1/X^4")
    assert brute_force_witness(r, S479, 16, MAX_DEGREE, [1], seed=0, random_trials=1).denominators == (
        parse_poly("X^4"),
    )
    assert brute_force_witness(r, S479, 3, 4, [1], seed=0, random_trials=MAX_SEARCH_SIZE // 8) is not None

    def refuse(*args):
        raise AssertionError("no candidate may be checked past a limit")

    monkeypatch.setattr(membership, "_sums_to", refuse)
    for max_terms, max_degree, trials in (
        (1, MAX_DEGREE + 1, 0),
        (17, 4, 0),
        (16, 4, 2),
        (3, 4, MAX_SEARCH_SIZE // 8 + 1),
        (10**12, 4, -1),
    ):
        with pytest.raises(LimitExceeded):
            brute_force_witness(r, S479, max_terms, max_degree, [1], seed=0, random_trials=trials)


# -- the witness search checks sums without the gcd it cross-checks ----------------------


def random_reciprocal_sum_oracle(S, rng, max_terms=4, max_degree=12,
                                 coeff_pool=(1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))):
    """The earlier sampler, kept to pin the order of the random draws."""
    pool = [Fraction(c) for c in coeff_pool]
    members = list(S.members_up_to(max_degree))
    denominators = []
    for _ in range(rng.randint(1, max_terms)):
        width = rng.randint(1, min(3, len(members)))
        support = rng.sample(members, width)
        denominators.append(LaurentPolynomial(1, {(m,): rng.choice(pool) for m in support}))
    return tuple(denominators)


def same_value(a, b):
    """a = b by cross-multiplication, so also for a fraction left unreduced
    (``==`` compares the normal forms of rank-1 fractions)."""
    return a.num * b.den == b.num * a.den


def brute_force_witness_oracle(r, S, max_terms, max_degree, coeff_pool, seed, random_trials=400):
    """The earlier search: every candidate is checked by normalizing its sum
    (a gcd per addition), stage 2 by a Laurent sum of monomial reciprocals."""
    pool = sorted({Fraction(c) for c in coeff_pool})
    members = list(S.members_up_to(max_degree))
    for m in members:
        for c in pool:
            d = LaurentPolynomial(1, {(m,): c})
            if same_value(normalize_reciprocal_sum([d]), r):
                return (d,)
    for m1, m2 in itertools.combinations(members, 2):
        for c1 in pool:
            for c2 in pool:
                d = LaurentPolynomial(1, {(m1,): c1, (m2,): c2})
                if same_value(normalize_reciprocal_sum([d]), r):
                    return (d,)
    monomials = [LaurentPolynomial(1, {(m,): c}) for m in members for c in pool]
    checks = 0
    for size in range(2, max_terms + 1):
        for combo in itertools.combinations_with_replacement(range(len(monomials)), size):
            checks += 1
            if checks > 60000:
                break
            total = LaurentPolynomial.zero(1)
            for idx in combo:
                exponent, coeff = next(monomials[idx].terms())
                total = total + LaurentPolynomial(1, {(-exponent[0],): 1 / coeff})
            if same_value(RationalFunction(total), r):
                return tuple(monomials[idx] for idx in combo)
        if checks > 60000:
            break
    rng = random.Random(seed)
    for _ in range(random_trials):
        count = rng.randint(1, max_terms)
        denominators = []
        for _ in range(count):
            width = rng.randint(1, min(3, len(members)))
            support = rng.sample(members, width)
            denominators.append(LaurentPolynomial(1, {(m,): rng.choice(pool) for m in support}))
        if same_value(normalize_reciprocal_sum(denominators), r):
            return tuple(denominators)
    return None


def test_random_reciprocal_sum_draws_are_unchanged():
    for seed in range(200):
        S = ns_create(random.Random(seed).choice(([4, 7, 9], [3, 5], [5, 6, 7, 8], [1])))
        rng, pinned = random.Random(seed), random.Random(seed)
        for _ in range(3):
            sample = random_reciprocal_sum(S, rng, max_terms=1 + seed % 4, max_degree=6 + seed % 9)
            expected = random_reciprocal_sum_oracle(S, pinned, max_terms=1 + seed % 4,
                                                    max_degree=6 + seed % 9)
            assert sample.denominators == expected
        assert rng.random() == pinned.random()


def _oracle_cases(count):
    rng = random.Random(4093)
    semigroups = [ns_create(g) for g in ([4, 7, 9], [3, 5], [5, 6, 7, 8], [1])]
    for k in range(count):
        S = semigroups[k % len(semigroups)]
        members = list(S.members_up_to(6))[1:]
        kind = k % 5
        if kind == 0:  # a sum of sampled reciprocals: found at some stage or not
            r = normalize_reciprocal_sum(
                random_reciprocal_sum(S, rng, max_terms=2, max_degree=6, coeff_pool=(1, -1))
            )
        elif kind == 1:  # monomial reciprocals, some with a gap exponent
            exps = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
            r = normalize_reciprocal_sum([LaurentPolynomial(1, {(e,): rng.choice((1, -1))}) for e in exps])
        elif kind == 2:  # one binomial denominator
            a, b = rng.sample(members, 2) if len(members) > 1 else (0, members[0])
            r = RationalFunction(LaurentPolynomial.one(1), LaurentPolynomial(1, {(a,): 1, (b,): -1}))
        elif kind == 3:  # a monomial: a sum of these reciprocals only when constant
            r = RationalFunction(LaurentPolynomial.monomial(1, (rng.randint(0, 6),), rng.choice((1, 2))))
        else:  # arbitrary small fraction
            r = RationalFunction(random_poly(rng, polynomial=True, span=4),
                                 random_nonzero_poly(rng, polynomial=True, span=6))
        yield r, S, 1 + k % 3, 6, (1, -1) if k % 4 else (1, -1, 2), k


def test_witness_search_matches_the_gcd_based_search():
    found = missing = 0
    for r, S, max_terms, max_degree, pool, seed in _oracle_cases(300):
        expected = brute_force_witness_oracle(r, S, max_terms, max_degree, pool, seed, random_trials=20)
        witness = brute_force_witness(r, S, max_terms, max_degree, pool, seed, random_trials=20)
        assert (None if witness is None else witness.denominators) == expected, (r, seed)
        found += expected is not None
        missing += expected is None
    assert found >= 50 and missing >= 50, (found, missing)


def plain_sums_to(denominators, r):
    """sum(1/d_i) = r by cross-multiplying in full, with no end-term screen."""
    num, den = LaurentPolynomial.zero(1), LaurentPolynomial.one(1)
    for d in denominators:
        num, den = num * d + den, den * d
    return num * r.den == r.num * den


def test_screened_sum_check_matches_plain_cross_multiplication():
    rng = random.Random(4099)
    outcomes = []
    for k in range(600):
        ds = [random_nonzero_poly(rng, polynomial=True, max_terms=3, span=5)
              for _ in range(rng.randint(1, 3))]
        kind = k % 6
        if kind == 0:  # the exact sum, reached unreduced or reduced
            r = normalize_reciprocal_sum(ds)
        elif kind == 1:  # a cancelling pair: N = 0
            ds += [-ds[0]]
            r = rng.choice((RationalFunction.zero(1), normalize_reciprocal_sum(ds[:1])))
        elif kind == 2:  # r = 0 against a nonzero sum
            r = RationalFunction.zero(1)
        elif kind == 3:  # the exact sum with its numerator perturbed at one end
            value = normalize_reciprocal_sum(ds)
            r = RationalFunction(value.num + LaurentPolynomial.monomial(1, (rng.randint(0, 8),)), value.den)
        elif kind == 4:  # the sum of a second candidate
            r = normalize_reciprocal_sum([random_nonzero_poly(rng, polynomial=True, max_terms=3, span=5)])
        else:  # an arbitrary fraction, unreduced
            c = random_nonzero_poly(rng, polynomial=True, max_terms=2, span=2)
            r = unreduced(random_poly(rng, polynomial=True) * c,
                                          random_nonzero_poly(rng, polynomial=True) * c)
        expected = plain_sums_to(ds, r)
        assert membership._sums_to(ds, r) == expected, (ds, r)
        outcomes.append(expected)
    assert outcomes.count(True) >= 100 and outcomes.count(False) >= 300


def test_witness_search_takes_no_gcd(monkeypatch):
    cases = [
        (RF("1/X^4 + 1/X^7"), 2, 12, (1, -1), 3, (parse_poly("X^4"), parse_poly("X^7"))),
        (RF("1/(X^4 - X^8)"), 2, 8, (1, -1), 3, (parse_poly("X^4 - X^8"),)),
        (RF("1/X^4 + 1/(1 - X^4)"), 3, 8, (1, -1), 11, (parse_poly("X^4 - X^8"),)),
        (RF("-1/(X - X^4 + 2*X^5 - X^8 + X^9)"), 2, 8, (1, -1), 2,  # found in stage 3
         (parse_poly("-X^4 + X^7 - X^8"), parse_poly("X^4 + X^8"))),
        (RF("X^5"), 2, 9, (1, -1), 5, None),
        (RF("1/X^5"), 3, 9, (1, -1, 2), 1, None),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("the witness search must not normalize")

    gcd_paths = (laurent.int_gcd, ratfunc.normalize_reciprocal_sum)
    modules = [m for name, m in sys.modules.items() if name == "recip" or name.startswith("recip.")]
    for module in modules:
        for name, value in list(vars(module).items()):
            if any(value is f for f in gcd_paths):
                monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        RF("(X^2 - 1)/(X - 1)")
    for r, max_terms, max_degree, pool, seed, expected in cases:
        witness = brute_force_witness(r, S479, max_terms, max_degree, pool, seed, random_trials=50)
        assert (None if witness is None else witness.denominators) == expected
