"""K + m membership for the one-Y free-shift family."""

import random
from fractions import Fraction

import pytest

from recip import dplusm
from recip.dplusm import (
    UndecidableError,
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
    # A maximal part of order 0 must raise even under python -O.
    real_order = dplusm.uniformizer_order
    calls = []

    def order(r, sigma_side=False):
        calls.append(r)
        return real_order(r, sigma_side=sigma_side) if len(calls) == 1 else 0

    monkeypatch.setattr(dplusm, "uniformizer_order", order)
    with pytest.raises(RuntimeError):
        kplusm_membership(RF2("5 + (X/(X^2+1))*Y^-1"), 2)


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


def test_m_other_than_one_fails_loudly():
    with pytest.raises(UndecidableError):
        kplusm_membership(RF2("X"), 2, m=2)


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


def test_sigma_consistency():
    # sigma swaps Y^-1 and Y, so members map to members of the Y-adic test
    # with the same constant part.
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
        twisted = kplusm_membership(sigma_map(r), 2, sigma_side=True)
        assert direct.is_member == twisted.is_member
        if direct.is_member:
            assert direct.constant_part == twisted.constant_part


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
