"""K + m membership for the one-Y free-shift family."""

import random
from fractions import Fraction

import pytest

from recip import dplusm
from recip.dplusm import (
    check_dplusm_decomposition,
    kplusm_membership,
    uniformizer_order,
)
from recip.laurent import LaurentPolynomial
from recip.parse import parse_poly, parse_ratfunc
from recip.ratfunc import (
    RationalFunction,
    ReciprocalSum,
    normalize_reciprocal_sum,
    sigma_map,
)

NAMES = ("Y", "X")


def RF2(text):
    return parse_ratfunc(text, rank=2, names=NAMES)


def P2(text):
    return parse_poly(text, rank=2, names=NAMES)


# -- membership ------------------------------------------------------------------


def test_member_with_constant_five():
    r = RF2("5 + (X/(X^2+1))*Y^-1")
    verdict = kplusm_membership(r, 2)
    assert verdict.is_member
    assert verdict.constant_part == 5
    # exact re-summation
    assert verdict.maximal_part + verdict.constant_part == r
    assert uniformizer_order(verdict.maximal_part) >= 1


def test_residual_postcondition_is_an_explicit_check(monkeypatch):
    # A maximal part of order 0 must raise even under python -O.  The decider
    # reads the input's order itself and asks uniformizer_order only about
    # the maximal part.
    calls = []

    def order(r):
        calls.append(r)
        return 0

    monkeypatch.setattr(dplusm, "uniformizer_order", order)
    with pytest.raises(RuntimeError):
        kplusm_membership(RF2("5 + (X/(X^2+1))*Y^-1"), 2)
    assert calls == [RF2("(X/(X^2+1))*Y^-1")]


def test_plain_x_is_not_member():
    verdict = kplusm_membership(RF2("X"), 2)
    assert verdict.status == "NotMember"
    assert verdict.constant_part is None


def test_zero_is_member():
    verdict = kplusm_membership(RationalFunction.zero(2), 2)
    assert verdict.is_member
    assert verdict.constant_part == 0
    assert verdict.maximal_part.is_zero()


def test_pole_in_uniformizer_is_not_member():
    assert kplusm_membership(RF2("Y"), 2).status == "NotMember"
    assert kplusm_membership(RF2("X*Y^2"), 2).status == "NotMember"


def test_pure_maximal_part():
    verdict = kplusm_membership(RF2("Y^-1 + X*Y^-2"), 2)
    assert verdict.is_member
    assert verdict.constant_part == 0
    assert verdict.maximal_part == RF2("Y^-1 + X*Y^-2")


def test_rank_and_n_validation():
    with pytest.raises(ValueError):
        kplusm_membership(RF2("X"), 3)
    with pytest.raises(ValueError):
        kplusm_membership(parse_ratfunc("X"), 1)


def test_split_correctness_random():
    rng = random.Random(83)
    for _ in range(40):
        # random element of K + m: constant plus terms of negative Y-degree
        constant = Fraction(rng.randint(-3, 3))
        terms = {}
        for _ in range(rng.randint(0, 3)):
            terms[(-rng.randint(1, 3), rng.randint(-2, 2))] = Fraction(rng.randint(1, 4))
        r = RationalFunction(LaurentPolynomial(2, terms)) + constant
        verdict = kplusm_membership(r, 2)
        assert verdict.is_member
        assert verdict.constant_part == constant or (not terms and verdict.constant_part == constant)
        assert verdict.constant_part + verdict.maximal_part == r


def y_adic_membership(s, n):
    # The Y-adic test on the sigma side: the T-adic decider composed with sigma.
    return kplusm_membership(sigma_map(s), n)


def test_sigma_consistency():
    # sigma swaps Y^-1 and Y, so members map to members of the Y-adic test
    # with the same constant part and the maximal part's image.
    rng = random.Random(89)
    samples = [
        RF2("5 + (X/(X^2+1))*Y^-1"),
        RF2("Y^-1 + X*Y^-2"),
        RF2("1/2"),
        RF2("3 + Y^-1/(1 + X^2)"),
    ]
    for _ in range(20):
        constant = Fraction(rng.randint(-2, 2))
        terms = {
            (-rng.randint(1, 3), rng.randint(-2, 2)): Fraction(rng.choice((1, 2, -1)))
            for _ in range(rng.randint(1, 3))
        }
        samples.append(RationalFunction(LaurentPolynomial(2, terms)) + constant)
    for r in samples:
        direct = kplusm_membership(r, 2)
        twisted = y_adic_membership(sigma_map(r), 2)
        assert direct.is_member == twisted.is_member
        if direct.is_member:
            assert direct.constant_part == twisted.constant_part
            assert direct.maximal_part == twisted.maximal_part


def test_member_closure_under_sum_and_product():
    rng = random.Random(97)
    members = []
    for _ in range(12):
        constant = Fraction(rng.randint(-2, 2))
        terms = {
            (-rng.randint(1, 2), rng.randint(-1, 1)): Fraction(rng.choice((1, -1, 2)))
            for _ in range(rng.randint(0, 2))
        }
        members.append(RationalFunction(LaurentPolynomial(2, terms)) + constant)
    for a, b in zip(members[::2], members[1::2]):
        assert kplusm_membership(a + b, 2).is_member
        assert kplusm_membership(a * b, 2).is_member


# -- decomposition checks ------------------------------------------------------------


def test_decomposition_monomial_samples():
    samples = [
        ReciprocalSum((P2("Y"),)),
        ReciprocalSum((P2("X*Y"),)),
        ReciprocalSum((P2("X^-1*Y"),)),
    ]
    assert check_dplusm_decomposition(samples, 2) is True


def test_decomposition_two_term_sample():
    sample = ReciprocalSum((P2("Y"), P2("X*Y")))
    assert check_dplusm_decomposition([sample], 2) is True
    value = normalize_reciprocal_sum(sample)
    verdict = kplusm_membership(value, 2)
    assert verdict.constant_part == 0
    # 1/Y + 1/(XY) = (1 + X^-1) * Y^-1
    assert value == RF2("(1 + X^-1)*Y^-1")


def test_decomposition_constant_sample():
    sample = ReciprocalSum((P2("4"),))
    assert check_dplusm_decomposition([sample], 2) is True
    verdict = kplusm_membership(normalize_reciprocal_sum(sample), 2)
    assert verdict.constant_part == Fraction(1, 4)


def test_decomposition_rejects_foreign_denominators():
    with pytest.raises(ValueError):
        check_dplusm_decomposition([ReciprocalSum((P2("X"),))], 2)
    with pytest.raises(ValueError):
        check_dplusm_decomposition([ReciprocalSum((P2("1 + X"),))], 2)


def test_decomposition_mixed_members():
    # 1 + Y*X^-3 lies in the algebra (constant plus Y-positive support).
    samples = [
        ReciprocalSum((P2("1 + Y*X^-3"),)),
        ReciprocalSum((P2("Y"), P2("2"), P2("Y^2*X^5"))),
    ]
    assert check_dplusm_decomposition(samples, 2) is True


# -- differential against the gcd-based decider ----------------------------------------


def _y_extreme(poly, top):
    degrees = [e[0] for e in poly.support()]
    j = max(degrees) if top else min(degrees)
    coeff = LaurentPolynomial(poly.rank - 1, [(e[1:], c) for e, c in poly.terms() if e[0] == j])
    return j, coeff


def _oracle_order(r, sigma_side):
    if r.is_zero():
        return None
    if sigma_side:
        return _y_extreme(r.num, top=False)[0] - _y_extreme(r.den, top=False)[0]
    return _y_extreme(r.den, top=True)[0] - _y_extreme(r.num, top=True)[0]


def kplusm_oracle(r, n, sigma_side=False):
    """The earlier decider: it builds the top (or, sigma_side, bottom)
    Y-coefficient ratio as a normalized RationalFunction, which reduces the
    X block by a gcd, and asks it for a constant value."""
    if r.is_zero():
        return dplusm.KPlusMVerdict("Member", Fraction(0), RationalFunction.zero(n))
    order = _oracle_order(r, sigma_side)
    if order < 0:
        return dplusm.KPlusMVerdict("NotMember")
    if order > 0:
        return dplusm.KPlusMVerdict("Member", Fraction(0), r)
    _, cnum = _y_extreme(r.num, top=not sigma_side)
    _, cden = _y_extreme(r.den, top=not sigma_side)
    value = RationalFunction(cnum, cden).constant_value()
    if value is None:
        return dplusm.KPlusMVerdict("NotMember")
    return dplusm.KPlusMVerdict("Member", value, r - value)


def _random_block_poly(rng, n, ydeg):
    # A polynomial of top Y-degree ydeg (and lower Y terms), small X exponents.
    terms = {}
    for y in (ydeg, ydeg, rng.randint(ydeg - 2, ydeg)):
        for _ in range(rng.randint(1, 2)):
            terms[(y,) + tuple(rng.randint(-2, 2) for _ in range(n - 1))] = rng.choice(
                (1, -1, 2, -3, Fraction(1, 2))
            )
    poly = LaurentPolynomial(n, terms)
    return poly if not poly.is_zero() else LaurentPolynomial.monomial(n, (ydeg,) + (0,) * (n - 1))


def _differential_inputs(count):
    rng = random.Random(20240)
    for k in range(count):
        n = 2 + k % 2
        kind = k % 5
        if kind == 0:  # arbitrary fraction: every order occurs
            yield n, RationalFunction(
                _random_block_poly(rng, n, rng.randint(-2, 2)),
                _random_block_poly(rng, n, rng.randint(-2, 2)),
            )
        elif kind == 1:  # constant plus a part of positive order: a member
            q = _random_block_poly(rng, n, rng.randint(-1, 2))
            p = _random_block_poly(rng, n, q.lex_max_exponent()[0] - rng.randint(1, 2))
            yield n, RationalFunction(p, q) + Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        elif kind == 2:  # order zero with a proportional top slice times a unit
            q = _random_block_poly(rng, n, rng.randint(-1, 2))
            c = Fraction(rng.choice((1, -2, 3)), rng.randint(1, 4))
            low = _random_block_poly(rng, n, q.lex_max_exponent()[0] - 1)
            yield n, RationalFunction(q.scale(c) + low, q)
        elif kind == 3:  # order zero, top slices not proportional: not a member
            q = _random_block_poly(rng, n, 1)
            yield n, RationalFunction(q * LaurentPolynomial.monomial(n, (0, 1) + (0,) * (n - 2)) + 1, q)
        else:  # zero, monomials and a pole
            yield n, rng.choice((
                RationalFunction.zero(n),
                RationalFunction(LaurentPolynomial.monomial(n, (rng.randint(-2, 2),) + (1,) * (n - 1))),
                RationalFunction.from_scalar(n, Fraction(rng.randint(1, 5), 7)),
            ))


def _same_terms(a, b):
    return a.num == b.num and a.den == b.den


def test_kplusm_matches_the_gcd_based_decider():
    statuses = {"constant": 0, "order>0": 0, "NotMember": 0}
    for n, r in _differential_inputs(1200):
        new = kplusm_membership(r, n)
        old = kplusm_oracle(r, n)
        assert (new.status, new.constant_part) == (old.status, old.constant_part), r
        if old.is_member:
            assert _same_terms(new.maximal_part, old.maximal_part), r
            statuses["constant" if old.constant_part else "order>0"] += 1
        else:
            statuses["NotMember"] += 1
        # The Y-adic test on the sigma side is the decider composed with sigma.
        s = sigma_map(r)
        twisted = kplusm_oracle(s, n, sigma_side=True)
        composed = kplusm_membership(sigma_map(s), n)
        assert (composed.status, composed.constant_part) == (twisted.status, twisted.constant_part), s
        if twisted.is_member:
            assert _same_terms(sigma_map(composed.maximal_part), twisted.maximal_part), s
    assert min(statuses.values()) >= 150, statuses
