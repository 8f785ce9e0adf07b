"""Rational functions, reciprocal sums, the sigma automorphism, and the
telescoping geometric product."""

import random
from fractions import Fraction

import pytest

from recip import ratfunc
from recip.laurent import LaurentPolynomial
from recip.parse import parse_poly, parse_ratfunc
from recip.ratfunc import (
    RationalFunction,
    ReciprocalSum,
    geometric_product,
    normalize_reciprocal_sum,
    sigma_map,
    sigma_of_reciprocal,
)

from conftest import COEFFS, random_nonzero_poly, random_poly, random_ratfunc


def RF(text, rank=1):
    return parse_ratfunc(text, rank=rank)


# -- normalization ---------------------------------------------------------


def test_rank1_form_is_reduced_and_sign_normalized():
    r = RF("(X^2 - 1)/(X^3 - X)")
    # common factor X^2 - 1 over X(X^2 - 1); reduces to 1/X
    assert r.num == 1
    assert r.den == parse_poly("X")
    assert r.den.coeff(r.den.lex_max_exponent()) > 0


def test_common_monomial_extracted():
    r = RationalFunction(parse_poly("X^-3 + X^-2"), parse_poly("X^-3"))
    assert r.num == parse_poly("1 + X")
    assert r.den == 1


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(parse_poly("X"), parse_poly("0"))


def test_equality_by_cross_multiplication():
    assert RF("1/(1 - X)") == RF("-1/(X - 1)")
    a = RationalFunction(
        LaurentPolynomial(2, {(1, 0): 1}), LaurentPolynomial(2, {(0, 1): 1})
    )
    b = RationalFunction(
        LaurentPolynomial(2, {(2, 0): 1}),
        LaurentPolynomial(2, {(1, 1): 1}),
    )
    assert a == b


def test_field_axioms_on_random_inputs():
    rng = random.Random(11)
    for _ in range(80):
        rank = rng.choice((1, 2))
        a = random_ratfunc(rng, rank)
        b = random_ratfunc(rng, rank)
        c = random_ratfunc(rng, rank)
        assert (a + b) * c == a * c + b * c
        assert a - a == RationalFunction.zero(rank)
        if not b.is_zero():
            assert (a / b) * b == a


def test_constant_value():
    assert RF("6/2").constant_value() == 3
    assert RF("(2 + 2*X)/(1 + X)").constant_value() == 2
    assert RF("X").constant_value() is None
    assert RationalFunction.zero(2).constant_value() == 0


# -- reciprocal sums --------------------------------------------------------


def test_normalize_single_term():
    assert normalize_reciprocal_sum([parse_poly("X")]) == RF("1/X")


def test_normalize_two_terms_cross_checked():
    # 1/X + 1/(1-X) computed by hand as 1/(X - X^2); confirm by
    # cross-multiplication instead of trusting the normal form.
    value = normalize_reciprocal_sum([parse_poly("X"), parse_poly("1 - X")])
    expected = RF("1/(X - X^2)")
    assert value == expected
    assert value.num * expected.den == expected.num * value.den


def test_normalize_cancellation():
    value = normalize_reciprocal_sum([parse_poly("X"), parse_poly("-X")])
    assert value.is_zero()
    assert value.num == 0 and value.den == 1


def test_zero_denominator_in_sum_rejected():
    with pytest.raises(ValueError):
        normalize_reciprocal_sum([parse_poly("X"), parse_poly("0")])
    with pytest.raises(ValueError):
        ReciprocalSum(())


def test_normalization_is_permutation_invariant():
    rng = random.Random(23)
    for _ in range(30):
        denominators = [random_nonzero_poly(rng, 1) for _ in range(rng.randint(2, 4))]
        value = normalize_reciprocal_sum(denominators)
        shuffled = denominators[:]
        rng.shuffle(shuffled)
        assert normalize_reciprocal_sum(shuffled) == value


# -- sigma -------------------------------------------------------------------


def test_sigma_on_monomial():
    assert sigma_map(RF("X^2")) == RF("X^-2")


def test_sigma_example_with_cross_check():
    r = RF("(1 + X)/(1 - X)")
    image = sigma_map(r)
    # substitution check: sigma(r) * sigma(1 - X) = sigma(1 + X)
    assert image * sigma_map(RF("1 - X")) == sigma_map(RF("1 + X"))
    assert image == RF("(X + 1)/(X - 1)")


def test_sigma_is_an_involutive_field_automorphism():
    rng = random.Random(31)
    for _ in range(200):
        rank = rng.choice((1, 2))
        r = random_ratfunc(rng, rank)
        s = random_ratfunc(rng, rank)
        assert sigma_map(sigma_map(r)) == r
        assert sigma_map(r + s) == sigma_map(r) + sigma_map(s)
        assert sigma_map(r * s) == sigma_map(r) * sigma_map(s)


def test_reciprocal_product_identity():
    # (1/(x+y)) * (1/x + 1/y) = 1/(xy) for nonzero x, y with x + y != 0.
    rng = random.Random(37)
    checked = 0
    while checked < 200:
        rank = rng.choice((1, 2))
        x = random_nonzero_poly(rng, rank)
        y = random_nonzero_poly(rng, rank)
        if (x + y).is_zero():
            continue
        checked += 1
        one = LaurentPolynomial.one(rank)
        lhs = RationalFunction(one, x + y) * (
            RationalFunction(one, x) + RationalFunction(one, y)
        )
        assert lhs == RationalFunction(one, x * y)


def test_two_variable_reciprocal_identity():
    # (1/Y)(1/X - 1/(X+Y)) = (1/X)(1/(X+Y)) with X = X^(0,1), Y = X^(1,0).
    X = LaurentPolynomial(2, {(0, 1): 1})
    Y = LaurentPolynomial(2, {(1, 0): 1})
    one = LaurentPolynomial.one(2)
    lhs = RationalFunction(one, Y) * (
        RationalFunction(one, X) - RationalFunction(one, X + Y)
    )
    rhs = RationalFunction(one, X) * RationalFunction(one, X + Y)
    assert lhs == rhs


# -- gcd-free paths ------------------------------------------------------------
#
# Negation, inverse, integer powers and sigma_map start from a reduced pair and
# skip the gcd.  Each must give term for term what the reducing constructor
# gives for the same pair times a common factor: any nonzero polynomial in
# rank 1, a monomial times a scalar in rank 2 (where no gcd runs at all).


def _unary_images(r):
    """(name, gcd-free result, unreduced (num, den) pair) for each operation."""
    yield "neg", -r, (-r.num, r.den)
    yield "sigma", sigma_map(r), (r.num.sigma(), r.den.sigma())
    if r.is_zero():
        return
    yield "inverse", r.inverse(), (r.den, r.num)
    for e in (2, 3):
        yield f"pow{e}", r**e, (r.num**e, r.den**e)
    yield "pow-2", r**-2, (r.den**2, r.num**2)


def _common_factor(rng, rank):
    if rank == 1:
        return random_nonzero_poly(rng, 1, max_terms=3, span=3)
    exponent = tuple(rng.randint(-3, 3) for _ in range(rank))
    return LaurentPolynomial.monomial(rank, exponent, rng.choice(COEFFS))


def test_gcd_free_paths_match_the_reducing_constructor():
    rng = random.Random(47)
    for _ in range(150):
        rank = rng.choice((1, 2))
        r = random_ratfunc(rng, rank)
        for name, value, (num, den) in _unary_images(r):
            c = _common_factor(rng, rank)
            expected = RationalFunction(num * c, den * c)
            assert (value.num, value.den) == (expected.num, expected.den), (name, r)
            assert value.num.is_polynomial() or rank > 1


def test_one_term_denominators_are_monic_monomials():
    # format_ratfunc and parse_poly rely on this: in every rank, a one-term
    # denominator is X^e with coefficient 1, so it never prints a sign and
    # folds back into negative exponents without rescaling.
    rng = random.Random(61)
    seen = 0
    for _ in range(300):
        rank = rng.choice((1, 2, 3))
        r = random_ratfunc(rng, rank)
        s = random_ratfunc(rng, rank)
        values = [r, r + s, r * s] + [value for _, value, _ in _unary_images(r)]
        for value in values:
            if len(value.den) == 1:
                seen += 1
                assert [c for _, c in value.den.terms()] == [1], value
    assert seen > 500


def _to_sympy(poly, x):
    import sympy

    return sum(
        (sympy.Rational(c.numerator, c.denominator) * x ** e[0] for e, c in poly.terms()),
        sympy.Integer(0),
    )


def test_gcd_free_paths_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(53)
    for _ in range(50):
        r = random_ratfunc(rng, 1)
        for name, value, (num, den) in _unary_images(r):
            p, q = _to_sympy(value.num, x), _to_sympy(value.den, x)
            unreduced = _to_sympy(num, x) / _to_sympy(den, x)
            assert sympy.cancel(unreduced - p / q) == 0, (name, r)
            assert sympy.gcd(p, q).is_number, (name, r)


def test_gcd_free_paths_never_call_the_gcd(monkeypatch):
    rng = random.Random(59)
    inputs = [random_ratfunc(rng, 1) for _ in range(60)]

    def forbidden(a, b):
        raise AssertionError("poly_gcd called")

    monkeypatch.setattr(ratfunc, "poly_gcd", forbidden)
    for r in inputs:
        list(_unary_images(r))


def test_one_term_sides_never_call_the_gcd(monkeypatch):
    def forbidden(*args):
        raise AssertionError("dense gcd path reached")

    monkeypatch.setattr(ratfunc, "poly_gcd", forbidden)
    monkeypatch.setattr(ratfunc, "poly_divexact", forbidden)
    rng = random.Random(67)
    huge = LaurentPolynomial.monomial(1, (10**8,))
    for _ in range(60):
        poly = random_poly(rng, 1, span=6)
        monomial = LaurentPolynomial.monomial(1, (rng.randint(-6, 6),), rng.choice(COEFFS))
        if not poly.is_zero():
            RationalFunction(monomial, poly)
            RationalFunction(huge, poly)
        RationalFunction(poly, monomial)
        RationalFunction(poly, huge)
    # One term left once the common monomial X^2 is taken out.
    r = RationalFunction(parse_poly("X^3 + X^5"), parse_poly("2*X^2"))
    assert (r.num, r.den) == (parse_poly("X + X^3").scale(Fraction(1, 2)), parse_poly("1"))
    assert sigma_map(RationalFunction(huge)) == RationalFunction(1, huge)


# -- sigma_of_reciprocal ------------------------------------------------------


def test_sigma_of_reciprocal_monomial():
    assert sigma_of_reciprocal(parse_poly("X^4")) == RF("X^4")


def test_sigma_of_reciprocal_binomial():
    f = parse_poly("X + X^2")
    value = sigma_of_reciprocal(f)
    assert value == RF("X^2/(X + 1)")
    assert value == sigma_map(RF("1/(X + X^2)"))


def test_sigma_of_reciprocal_with_unit_check():
    f = parse_poly("1 - X^4")
    value = sigma_of_reciprocal(f)
    assert value == RF("X^4/(X^4 - 1)")
    assert value * sigma_map(RationalFunction(f)) == RationalFunction.one(1)


def test_sigma_of_reciprocal_matches_sigma_map_randomly():
    from conftest import random_full_cone_poly

    rng = random.Random(41)
    for _ in range(50):
        rank = rng.choice((1, 2))
        f = random_full_cone_poly(rng, rank)
        assert sigma_of_reciprocal(f) == sigma_map(RationalFunction(LaurentPolynomial.one(rank), f))


def test_sigma_of_reciprocal_rejects_bad_input():
    with pytest.raises(ValueError):
        sigma_of_reciprocal(LaurentPolynomial.zero(1))
    with pytest.raises(ValueError):
        sigma_of_reciprocal(parse_poly("X^-1 + X"))


# -- geometric product ---------------------------------------------------------


def geometric_sum(phi, u, e):
    """Independent oracle: sum_{j=0}^{2^e - 1} phi^j u^(2^e - 1 - j)."""
    total = LaurentPolynomial.zero(phi.rank)
    power = LaurentPolynomial.one(phi.rank)
    count = 2**e
    for j in range(count):
        total = total + power.scale(u ** (count - 1 - j))
        if j + 1 < count:
            power = power * phi
    return total


def test_geometric_product_single_factor():
    phi = parse_poly("X")
    assert geometric_product(phi, Fraction(3), 1) == phi + 3


def test_geometric_product_expands_exactly():
    phi = parse_poly("X")
    value = geometric_product(phi, Fraction(1), 2)
    assert value == parse_poly("X^3 + X^2 + X + 1")
    assert value == geometric_sum(phi, Fraction(1), 2)


def test_geometric_product_cubes():
    phi = parse_poly("X^3")
    value = geometric_product(phi, Fraction(2), 3)
    expected = LaurentPolynomial(1, {(3 * j,): Fraction(2) ** (7 - j) for j in range(8)})
    assert value == expected
    assert value == geometric_sum(phi, Fraction(2), 3)


def test_geometric_product_identity_random():
    rng = random.Random(43)
    for e in range(1, 7):
        for _ in range(8):
            phi = random_nonzero_poly(rng, 1, max_terms=3 if e <= 4 else 2, span=3)
            u = rng.choice(COEFFS)
            assert geometric_product(phi, u, e) == geometric_sum(phi, u, e)


def test_geometric_product_rejects_bad_args():
    phi = parse_poly("X")
    with pytest.raises(ValueError):
        geometric_product(phi, 0, 2)
    with pytest.raises(ValueError):
        geometric_product(phi, 1, 0)
