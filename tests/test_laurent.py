"""Core Laurent-polynomial arithmetic: construction, ring axioms, helpers."""

import random
from fractions import Fraction

import pytest

from recip.laurent import (
    MAX_DEGREE,
    LaurentPolynomial,
    LimitExceeded,
    dense_coeffs,
    format_poly,
    from_dense,
    poly_divmod,
    poly_gcd,
)

from recip.parse import parse_poly

from conftest import random_poly


def test_construction_drops_zero_coefficients():
    p = LaurentPolynomial(1, {(0,): 1, (1,): 0, (2,): Fraction(1, 2)})
    assert p.support() == ((0,), (2,))
    assert p.coeff((1,)) == 0


def test_construction_accumulates_duplicate_exponents():
    p = LaurentPolynomial(1, [((1,), 2), ((1,), -2), ((0,), 3)])
    assert p == 3


def test_rank_validation():
    with pytest.raises(ValueError):
        LaurentPolynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        LaurentPolynomial(0, {})


def test_terms_iterate_in_ascending_lex_order():
    p = LaurentPolynomial(2, {(1, 0): 1, (0, 5): 2, (1, -3): 3})
    assert [e for e, _ in p.terms()] == [(0, 5), (1, -3), (1, 0)]


def test_lex_extremes_and_degree():
    p = LaurentPolynomial(1, {(-2,): 1, (3,): 5})
    assert p.lex_min_exponent() == (-2,)
    assert p.lex_max_exponent() == (3,)
    assert p.degree() == 3
    assert p.low_degree() == -2
    with pytest.raises(ValueError):
        LaurentPolynomial.zero(1).degree()


def test_ring_axioms_on_random_triples():
    rng = random.Random(101)
    for _ in range(120):
        rank = rng.choice((1, 2))
        a = random_poly(rng, rank)
        b = random_poly(rng, rank)
        c = random_poly(rng, rank)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + LaurentPolynomial.zero(rank) == a
        assert a * LaurentPolynomial.one(rank) == a


def test_scalar_coercion():
    p = LaurentPolynomial.monomial(1, (1,))
    assert p + 1 == LaurentPolynomial(1, {(0,): 1, (1,): 1})
    assert 2 * p == LaurentPolynomial(1, {(1,): 2})
    assert p - Fraction(1, 2) == LaurentPolynomial(1, {(0,): Fraction(-1, 2), (1,): 1})


def test_pow_matches_repeated_multiplication():
    p = LaurentPolynomial(1, {(0,): 1, (1,): 1})
    by_hand = LaurentPolynomial.one(1)
    for _ in range(5):
        by_hand = by_hand * p
    assert p**5 == by_hand
    assert p**0 == 1


def test_shift_and_sigma():
    p = LaurentPolynomial(2, {(1, 2): 1, (0, -1): 3})
    assert p.shift((1, 1)).support() == ((1, 0), (2, 3))
    assert p.sigma().support() == ((-1, -2), (0, 1))
    assert p.sigma().sigma() == p


def test_content():
    p = LaurentPolynomial(1, {(0,): Fraction(2, 3), (1,): Fraction(4, 9)})
    assert p.content() == Fraction(2, 9)
    assert p.scale(1 / p.content()).content() == 1
    assert LaurentPolynomial.zero(1).content() == 0


def test_dense_round_trip():
    p = from_dense([1, 0, Fraction(3, 2)])
    assert dense_coeffs(p) == [1, 0, Fraction(3, 2)]
    assert p.degree() == 2


def test_dense_path_refuses_degrees_above_the_limit():
    assert len(dense_coeffs(LaurentPolynomial.monomial(1, (MAX_DEGREE,)))) == MAX_DEGREE + 1
    with pytest.raises(LimitExceeded):
        dense_coeffs(LaurentPolynomial.monomial(1, (MAX_DEGREE + 1,)))
    huge = parse_poly("X^100000000 + 1")
    with pytest.raises(LimitExceeded):
        poly_gcd(huge, parse_poly("X + 2"))
    with pytest.raises(LimitExceeded):
        poly_divmod(huge, parse_poly("X + 2"))


def test_poly_divmod_classical():
    rng = random.Random(7)
    for _ in range(60):
        a = random_poly(rng, 1, polynomial=True)
        b = random_poly(rng, 1, polynomial=True)
        if b.is_zero():
            continue
        q, r = poly_divmod(a, b)
        assert a == b * q + r
        assert r.is_zero() or r.degree() < b.degree()


def test_poly_gcd_divides_both_and_is_normalized():
    rng = random.Random(8)
    for _ in range(40):
        g = random_poly(rng, 1, polynomial=True)
        a = random_poly(rng, 1, polynomial=True)
        b = random_poly(rng, 1, polynomial=True)
        d = poly_gcd(g * a, g * b)
        if (g * a).is_zero() and (g * b).is_zero():
            assert d.is_zero()
            continue
        for product in (g * a, g * b):
            _, rem = poly_divmod(product, d)
            assert rem.is_zero()
        if not g.is_zero() and not (a.is_zero() and b.is_zero()):
            _, rem = poly_divmod(d, g)
            assert rem.is_zero()  # g divides the gcd
        assert d.content() == 1
        assert d.coeff(d.lex_max_exponent()) > 0


def test_format_rank1():
    p = LaurentPolynomial(1, {(0,): 1, (3,): 2})
    assert format_poly(p) == "1 + 2*X^3"
    q = LaurentPolynomial(1, {(-2,): Fraction(-1, 2), (1,): 1})
    assert format_poly(q) == "-1/2*X^-2 + X"
    assert format_poly(LaurentPolynomial.zero(1)) == "0"


def test_format_rank2_vector_and_named():
    p = LaurentPolynomial(2, {(1, -2): 1})
    assert format_poly(p) == "X^(1,-2)"
    assert format_poly(p, names=("Y", "X")) == "Y*X^-2"
