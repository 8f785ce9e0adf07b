"""Lex valuation axioms and the reversed-coefficient division recursion."""

import random
import time
from fractions import Fraction

import pytest

from recip.laurent import MAX_DEGREE, LaurentPolynomial, LimitExceeded
from recip.parse import parse_poly, parse_ratfunc
from recip.ratfunc import RationalFunction, sigma_map, sigma_of_reciprocal
from recip import valuation
from recip.valuation import (
    ValuationValue,
    classical_divide,
    euclid_divide,
    euclid_f,
    in_valuation_ring,
    lex_valuation,
)

from conftest import random_full_cone_poly, random_poly, random_ratfunc


def RF(text, rank=1):
    return parse_ratfunc(text, rank=rank)


# -- valuation values ---------------------------------------------------------


def test_valuation_of_monomial():
    r = RationalFunction(LaurentPolynomial.monomial(2, (2, 3)))
    assert lex_valuation(r) == ValuationValue.finite((2, 3))


def test_valuation_of_quotient():
    num = LaurentPolynomial(2, {(1, 0): 1, (1, 2): 1})
    den = LaurentPolynomial.monomial(2, (0, 1))
    assert lex_valuation(RationalFunction(num, den)) == ValuationValue.finite((1, -1))


def test_valuation_of_zero_is_infinite():
    value = lex_valuation(RationalFunction.zero(2))
    assert value.is_infinite
    assert str(value) == "infinity"


def test_infinity_absorbs_addition_and_dominates():
    inf = ValuationValue.infinity()
    v = ValuationValue.finite((1, 2))
    assert (inf + v).is_infinite
    assert v < inf
    assert v + v == ValuationValue.finite((2, 4))


def test_value_of_one_is_zero_vector():
    assert lex_valuation(RationalFunction.one(3)) == ValuationValue.finite((0, 0, 0))


def test_representation_independence_by_cross_multiplied_pairs():
    rng = random.Random(53)
    for _ in range(60):
        rank = rng.choice((1, 2))
        r = random_ratfunc(rng, rank)
        scale = random_poly(rng, rank, allow_zero=False)
        if scale.is_zero() or r.is_zero():
            continue
        blown = RationalFunction(r.num * scale, r.den * scale)
        assert lex_valuation(blown) == lex_valuation(r)


def test_valuation_axioms_on_random_pairs():
    rng = random.Random(59)
    checked = 0
    while checked < 300:
        rank = rng.choice((1, 2, 3))
        r = random_ratfunc(rng, rank)
        s = random_ratfunc(rng, rank)
        if r.is_zero() or s.is_zero():
            continue
        checked += 1
        assert lex_valuation(r * s) == lex_valuation(r) + lex_valuation(s)
        vr, vs = lex_valuation(r), lex_valuation(s)
        vsum = lex_valuation(r + s)
        assert min(vr, vs) <= vsum
        if vr != vs:
            assert vsum == min(vr, vs)


# -- valuation ring membership ---------------------------------------------------


def test_full_cone_reciprocal_lands_in_valuation_ring():
    f = LaurentPolynomial(2, {(0, 1): 1, (1, 0): 1})
    image = sigma_map(RationalFunction(LaurentPolynomial.one(2), f))
    assert in_valuation_ring(image)


def test_negative_value_excluded():
    assert not in_valuation_ring(RF("X^(0,-1)", rank=2))
    assert in_valuation_ring(RationalFunction.from_scalar(2, Fraction(7)))
    assert in_valuation_ring(RationalFunction.zero(2))


def test_closure_and_value_formula_for_cone_reciprocals():
    rng = random.Random(61)
    for _ in range(60):
        f = random_full_cone_poly(rng, 2)
        g = random_full_cone_poly(rng, 2)
        rf = sigma_of_reciprocal(f)
        rg = sigma_of_reciprocal(g)
        assert in_valuation_ring(rf)
        assert in_valuation_ring(rg)
        assert in_valuation_ring(rf + rg)
        assert in_valuation_ring(rf * rg)
        assert lex_valuation(rf) == ValuationValue.finite(f.lex_max_exponent())


# -- Euclidean size ---------------------------------------------------------------


def test_euclid_f_examples():
    assert euclid_f(parse_poly("X^2 + 1")) == 2
    assert euclid_f(parse_poly("5")) == 0
    assert euclid_f(parse_poly("X^2 + X")) == 2 >= euclid_f(parse_poly("X"))


def test_euclid_f_rejects_bad_input():
    with pytest.raises(ValueError):
        euclid_f(LaurentPolynomial.zero(1))
    with pytest.raises(ValueError):
        euclid_f(parse_poly("X^-1"))


def test_euclid_f_submultiplicative():
    rng = random.Random(67)
    for _ in range(50):
        a = random_poly(rng, 1, polynomial=True, allow_zero=False)
        b = random_poly(rng, 1, polynomial=True, allow_zero=False)
        if a.is_zero() or b.is_zero():
            continue
        assert euclid_f(a * b) >= euclid_f(a)


# -- division -----------------------------------------------------------------------


def test_divide_examples():
    q, r = euclid_divide(parse_poly("X^2 + 1"), parse_poly("X"))
    assert (q, r) == (parse_poly("X"), parse_poly("1"))
    q, r = euclid_divide(parse_poly("X^3"), parse_poly("X^2 + 1"))
    assert (q, r) == (parse_poly("X"), parse_poly("-X"))


def test_exact_division():
    a = parse_poly("X^2 - 3*X + 2")
    q, r = euclid_divide(a, a)
    assert q == 1 and r.is_zero()
    q, r = euclid_divide(a * parse_poly("X + 5"), a)
    assert q == parse_poly("X + 5") and r.is_zero()


def test_divide_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        euclid_divide(parse_poly("X"), LaurentPolynomial.zero(1))


def test_divide_postcondition_is_an_explicit_check(monkeypatch):
    # A wrong quotient must raise even under python -O, which strips asserts.
    class ZeroQuotient:
        zero = staticmethod(LaurentPolynomial.zero)

        def __new__(cls, rank, terms):
            return LaurentPolynomial.zero(rank)

    monkeypatch.setattr(valuation, "LaurentPolynomial", ZeroQuotient)
    with pytest.raises(RuntimeError):
        euclid_divide(parse_poly("X^3"), parse_poly("X + 1"))


def test_divide_near_the_degree_limit_time_gate():
    # The recursion's tail sum runs over j <= deg b only: O(e * deg b) steps.
    a = parse_poly(f"X^{MAX_DEGREE} + 1")
    b = parse_poly("X^2 + X + 1")
    start = time.perf_counter()
    q, r = euclid_divide(a, b)
    assert time.perf_counter() - start < 3.0  # about 1.4 s, half of it in forming b*q
    assert (q, r) == classical_divide(a, b)


def test_divide_refuses_dividends_above_the_degree_limit():
    with pytest.raises(LimitExceeded):
        euclid_divide(parse_poly(f"X^{MAX_DEGREE + 1}"), parse_poly("X + 1"))
    # A dividend below the divisor's degree is its own remainder at any degree.
    q, r = euclid_divide(parse_poly("X + 1"), parse_poly("X^100000000"))
    assert q.is_zero() and r == parse_poly("X + 1")


def test_divide_contract_and_classical_agreement():
    rng = random.Random(71)
    for _ in range(500):
        a = random_poly(rng, 1, polynomial=True, span=8)
        b = random_poly(rng, 1, polynomial=True, span=8, allow_zero=False)
        if b.is_zero():
            continue
        q, r = euclid_divide(a, b)
        assert a == b * q + r
        assert r.is_zero() or r.degree() < b.degree()
        assert (q, r) == classical_divide(a, b)
