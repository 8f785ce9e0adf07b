"""Greedy Egyptian fractions, the Egyptian-element predicate, and algebraic
reciprocals."""

import math
import random
import sys
from fractions import Fraction

import pytest

from recip.egyptian import (
    MAX_DENOMINATOR_DIGITS,
    EgyptianRepresentation,
    algebraic_reciprocal,
    greedy_egyptian,
    is_egyptian_element,
)
from recip.laurent import LaurentPolynomial, LimitExceeded, from_dense, poly_divmod
from recip.membership import decide_membership
from recip.parse import parse_poly
from recip.ratfunc import sigma_of_reciprocal
from recip.semigroup import ns_create


def greedy_steps(r):
    """Mirror of the greedy loop recording the remainder numerators."""
    numerators = [r.numerator]
    denominators = []
    while r:
        d = -(-r.denominator // r.numerator)
        denominators.append(d)
        r -= Fraction(1, d)
        numerators.append(r.numerator)
    return denominators, numerators


def test_unit_fraction():
    assert greedy_egyptian(Fraction(1, 2)).denominators == (2,)


def test_five_sixths():
    rep = greedy_egyptian(Fraction(5, 6))
    assert rep.denominators == (2, 3)
    assert rep.value() == Fraction(5, 6)


def test_four_fifths():
    denominators, numerators = greedy_steps(Fraction(4, 5))
    assert denominators == [2, 4, 20]  # frozen from the mirror run
    assert all(a > b for a, b in zip(numerators, numerators[1:]))
    rep = greedy_egyptian(Fraction(4, 5))
    assert rep.denominators == (2, 4, 20)
    assert rep.value() == Fraction(4, 5)


def test_whole_one():
    assert greedy_egyptian(1).denominators == (1,)


def test_out_of_range_rejected():
    for bad in (Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError):
            greedy_egyptian(bad)


def test_exhaustive_small_denominators():
    for q in range(1, 61):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            rep = greedy_egyptian(Fraction(p, q))
            assert rep.value() == Fraction(p, q)
            assert all(a < b for a, b in zip(rep.denominators, rep.denominators[1:]))
            _, numerators = greedy_steps(Fraction(p, q))
            assert all(a > b for a, b in zip(numerators, numerators[1:]))


def test_denominator_digits_are_limited():
    # The limit is the longest int Python writes as text by default, so every
    # decomposition that printed before still does: 209797802/294325645 ends
    # on a denominator of 4,288 digits.  800963157/803241505 reaches one of
    # 4,305 and 999999999999/1000000000000 one past the limit as well.
    assert MAX_DENOMINATOR_DIGITS == sys.int_info.default_max_str_digits
    rep = greedy_egyptian(Fraction(209797802, 294325645))
    assert rep.value() == Fraction(209797802, 294325645)
    assert len(str(rep.denominators[-1])) == 4288
    for p, q in ((800963157, 803241505), (999999999999, 10**12)):
        with pytest.raises(LimitExceeded, match="4300 digits"):
            greedy_egyptian(Fraction(p, q))


def test_representation_validation():
    with pytest.raises(ValueError):
        EgyptianRepresentation((3, 3))
    with pytest.raises(ValueError):
        EgyptianRepresentation((0, 2))


# -- Egyptian elements -----------------------------------------------------------


def test_egyptian_element_examples():
    assert is_egyptian_element(parse_poly("7")) is True
    assert is_egyptian_element(parse_poly("X^4")) is False
    assert is_egyptian_element(LaurentPolynomial.zero(1)) is False
    with pytest.raises(ValueError):
        is_egyptian_element(parse_poly("X^-1"))


def test_egyptian_element_matches_unit_detection_after_sigma():
    # f is a nonzero constant exactly when sigma(1/f) is a unit in the
    # membership ring: both it and its inverse are members.
    S = ns_create([4, 7, 9])
    candidates = [
        parse_poly("7"),
        parse_poly("1/2"),
        parse_poly("X^4"),
        parse_poly("1 + X^4"),
        parse_poly("X^4 + X^7"),
        parse_poly("2 - X^9"),
    ]
    for f in candidates:
        image = sigma_of_reciprocal(f)
        is_unit = (
            decide_membership(image, S).is_member
            and decide_membership(image.inverse(), S).is_member
        )
        assert is_egyptian_element(f) == is_unit


# -- algebraic reciprocals ----------------------------------------------------------


def reciprocal_check(coeffs, inverse_coeffs):
    """x * p(x) == 1 modulo the relation, by exact polynomial remainder."""
    modulus = from_dense(coeffs)
    x_times_p = from_dense([Fraction(0)] + list(inverse_coeffs))
    _, remainder = poly_divmod(x_times_p, modulus)
    return remainder == LaurentPolynomial.one(1)


def test_sqrt_two():
    # relation t^2 - 2: inverse of x is x/2
    inverse = algebraic_reciprocal([Fraction(-2), Fraction(0), Fraction(1)])
    assert inverse == [Fraction(0), Fraction(1, 2)]
    assert reciprocal_check([-2, 0, 1], inverse)


def test_rational_point():
    inverse = algebraic_reciprocal([Fraction(-3), Fraction(1)])
    assert inverse == [Fraction(1, 3)]
    assert reciprocal_check([-3, 1], inverse)


def test_primitive_cube_root():
    inverse = algebraic_reciprocal([Fraction(1), Fraction(1), Fraction(1)])
    assert inverse == [Fraction(-1), Fraction(-1)]  # 1/x = -(1 + x)
    assert reciprocal_check([1, 1, 1], inverse)


def test_validation():
    with pytest.raises(ValueError):
        algebraic_reciprocal([Fraction(0), Fraction(1)])
    with pytest.raises(ValueError):
        algebraic_reciprocal([Fraction(1)])
    with pytest.raises(ValueError):
        algebraic_reciprocal([Fraction(1), Fraction(0)])


def test_random_relations():
    rng = random.Random(103)
    for _ in range(50):
        degree = rng.randint(1, 5)
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(degree + 1)]
        while coeffs[0] == 0:
            coeffs[0] = Fraction(rng.randint(-5, 5))
        while coeffs[-1] == 0:
            coeffs[-1] = Fraction(rng.randint(-5, 5))
        inverse = algebraic_reciprocal(coeffs)
        assert reciprocal_check(coeffs, inverse)
