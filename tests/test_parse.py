"""Text grammar: round trips, error positions, variable modes."""

import random
import time
from fractions import Fraction

import pytest

from recip import parse
from recip.laurent import LaurentPolynomial, LimitExceeded, format_poly
from recip.parse import (
    MAX_NESTING,
    MAX_POWER_SIZE,
    ParseError,
    parse_poly,
    parse_ratfunc,
    parse_rational,
)
from recip.ratfunc import RationalFunction, format_ratfunc


def test_rationals_and_whitespace():
    assert parse_ratfunc("3/4").constant_value() == Fraction(3, 4)
    assert parse_ratfunc("  1 +  2 ").constant_value() == 3
    assert parse_ratfunc("-5").constant_value() == -5


def test_unicode_minus_accepted():
    assert parse_poly("1 − X") == parse_poly("1 - X")


def test_monomials_rank1():
    assert parse_poly("X^3") == LaurentPolynomial.monomial(1, (3,))
    assert parse_poly("X^-2") == LaurentPolynomial.monomial(1, (-2,))
    assert parse_poly("X") == LaurentPolynomial.monomial(1, (1,))
    assert parse_poly("2*X^3 + 1") == LaurentPolynomial(1, {(3,): 2, (0,): 1})


def test_monomials_vector_mode():
    p = parse_poly("X^(1,-2)", rank=2)
    assert p == LaurentPolynomial.monomial(2, (1, -2))
    with pytest.raises(ParseError):
        parse_ratfunc("X", rank=2)  # bare variable is ambiguous in vector mode
    with pytest.raises(ParseError):
        parse_ratfunc("X^(1,2,3)", rank=2)


def test_named_variables():
    p = parse_poly("Y*X^-1", rank=2, names=("Y", "X"))
    assert p == LaurentPolynomial.monomial(2, (1, -1))
    r = parse_ratfunc("5 + (X/(X^2+1))*Y^-1", rank=2, names=("Y", "X"))
    assert not r.is_zero()


def test_rational_function_expressions():
    r = parse_ratfunc("1/(X^4-1) + 1/X^7")
    assert r.den.degree() == 11
    assert parse_ratfunc("(1+X)/(1-X)") == parse_ratfunc("-(X+1)/(X-1)")


def test_powers_of_parenthesized_expressions():
    assert parse_ratfunc("(1+X)^2") == parse_ratfunc("1 + 2*X + X^2")
    assert parse_ratfunc("(1+X)^-1") == parse_ratfunc("1/(1+X)")
    assert parse_ratfunc("2^3").constant_value() == 8


def test_parenthesised_factors_keep_their_value():
    # Groups pass their sign and power through unforced; the value is the same.
    for bare, grouped in (
        ("(1+X)^2*(1+X)", "((1+X)^2)*((1+X))"),
        ("-(1+X)^2/(1-X)^3", "-((1+X)^2)/((1-X)^3)"),
        ("-(1+X)^-2*X", "(-((1+X)^-2))*(X)"),
        ("(1+X)^2", "((-(1+X)))^2"),
        ("-X", "-(-(-X))"),
        ("2^3*X", "(2^3)*(X)"),
    ):
        assert parse_ratfunc(grouped) == parse_ratfunc(bare), grouped
    with pytest.raises(ParseError) as info:
        parse_ratfunc("((1+X)^2)/(0)")
    assert info.value.position == 9


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as info:
        parse_ratfunc("X^")
    assert info.value.position == 2
    with pytest.raises(ParseError) as info:
        parse_ratfunc("1 + $")
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        parse_ratfunc("(1 + X")
    assert "expected ')'" in str(info.value)
    with pytest.raises(ParseError):
        parse_ratfunc("")
    with pytest.raises(ParseError):
        parse_ratfunc("1/0")
    with pytest.raises(ParseError):
        parse_ratfunc("Z + 1")  # unknown variable


def test_parse_poly_rejects_true_fractions():
    with pytest.raises(ParseError):
        parse_poly("1/(1+X)")


def test_parse_poly_accepts_negative_exponent_sums():
    # values with monomial denominators fold back into Laurent polynomials
    p = parse_poly("X^-3 + X^-2")
    assert p == LaurentPolynomial(1, {(-3,): 1, (-2,): 1})
    assert parse_poly("X^2/X^5") == LaurentPolynomial.monomial(1, (-3,))


def test_format_parse_round_trip_poly():
    import random

    from conftest import random_poly

    rng = random.Random(99)
    for _ in range(60):
        p = random_poly(rng, 1)
        assert parse_poly(format_poly(p)) == p
    for _ in range(40):
        p = random_poly(rng, 2)
        assert parse_poly(format_poly(p), rank=2) == p


def test_format_parse_round_trip_ratfunc():
    import random

    from conftest import random_ratfunc

    rng = random.Random(100)
    for _ in range(60):
        r = random_ratfunc(rng, 1)
        assert parse_ratfunc(format_ratfunc(r)) == r
    for _ in range(30):
        r = random_ratfunc(rng, 2)
        assert parse_ratfunc(format_ratfunc(r), rank=2) == r


def test_parse_rational():
    assert parse_rational("4/5") == Fraction(4, 5)
    assert parse_rational("-1/2") == Fraction(-1, 2)
    with pytest.raises(ParseError):
        parse_rational("x")
    with pytest.raises(ParseError):
        parse_rational("1/0")


def test_nesting_at_the_limit_parses():
    depth = MAX_NESTING
    assert parse_ratfunc("(" * depth + "1 - X" + ")" * depth) == parse_ratfunc("1 - X")
    # vector exponents and unary signs do not nest
    assert parse_poly("-" * 500 + "(" * depth + "X^(2,1)" + ")" * depth, rank=2) == parse_poly(
        "X^(2,1)", rank=2
    )


def test_nesting_past_the_limit_is_a_parse_error():
    for depth in (MAX_NESTING + 1, 200, 3000):
        text = "2*" + "(" * depth + "X" + ")" * depth
        with pytest.raises(ParseError) as info:
            parse_ratfunc(text)
        assert info.value.position == 2 + MAX_NESTING  # the first '(' too deep
        assert "nested" in str(info.value)


def test_power_size_limit_boundaries():
    # 91^k counts 7k bits, (X+1)^k counts k + 1 terms of k bits.
    assert MAX_POWER_SIZE == 1 << 20
    assert parse_ratfunc("91^149796").constant_value() == 91**149796
    with pytest.raises(LimitExceeded, match="position 2"):
        parse_ratfunc("91^149797")
    assert len(parse_poly("((X+1)^-1)^-300")) == 301
    with pytest.raises(LimitExceeded):
        parse_ratfunc("(X+1)^724")
    with pytest.raises(LimitExceeded):
        parse_ratfunc("1/(1 + X)^-724")
    # Unit monomials stay one term at any power; zero stays zero.
    assert parse_poly("(-X)^99999999999999999999") == LaurentPolynomial.monomial(1, (99999999999999999999,), -1)
    assert parse_ratfunc("0^1000000").is_zero()
    assert parse_ratfunc("(1/2)^1000000").constant_value() == Fraction(1, 2**1000000)


def test_product_size_limit_boundaries():
    # A product's estimate adds its factors' widths: 91^149795 counts
    # 1,048,565 bits and 91 seven more, while 91^149796 * 91 counts 1,048,579.
    assert parse_ratfunc("91^149795*91").constant_value() == 91**149796
    for text, position in (
        ("91^149796*91", 9),
        ("91*91^149796", 2),
        ("(X+1)^362*(X+1)^362", 9),
        ("1/(X+1)^362/(X+1)^362", 11),
    ):
        with pytest.raises(LimitExceeded, match=f"product at position {position} "):
            parse_ratfunc(text)
    assert parse_poly("(X+1)^200*(X+1)^-200*(X+1)^3") == parse_poly("X^3 + 3*X^2 + 3*X + 1")
    # Division by zero is still found before the quotient is formed.
    with pytest.raises(ParseError, match="division by zero at position 1"):
        parse_ratfunc("1/0^2")


def test_sum_of_high_powers_is_fast():
    # Each summand is far inside MAX_POWER_SIZE; the cost is the degree-200
    # gcd of the sum, which Euclid over Q took 62.5 s to compute.
    start = time.perf_counter()
    r = parse_ratfunc("1/(X+1)^100 + 1/(X+2)^100")
    assert time.perf_counter() - start < 1.0
    assert (r.num.degree(), r.den.degree()) == (100, 200)


def test_sum_size_limit_boundaries():
    # p/q +- r/s is estimated as (p*s +- r*q)/(q*s); each reciprocal here is
    # within the limit, and their sum is checked before it is formed.
    for op in "+-":
        r = parse_ratfunc(f"1/(X+1)^323 {op} 1/(X-1)^323")
        assert (r.num.degree(), r.den.degree()) == (323 if op == "+" else 322, 646)
        with pytest.raises(LimitExceeded, match="sum at position 12 "):
            parse_ratfunc(f"1/(X+1)^324 {op} 1/(X-1)^324")
    # A sum's terms are bounded by the box around both supports: adding X^723
    # keeps (X+1)^723 at 724 terms, adding X^-1 makes it 725.
    assert len(parse_poly("(X+1)^723 - X^723")) == 723
    for text, position in (("(X+1)^723 + X^-1", 10), ("X^-1 + (X+1)^723", 5), ("1 - X^-1 - (X+1)^723", 9)):
        with pytest.raises(LimitExceeded, match=f"sum at position {position} "):
            parse_ratfunc(text)
    assert parse_ratfunc("91^149796 + 1/2").constant_value() == 91**149796 + Fraction(1, 2)
    # A sum has one bit more than its wider side: 2^k counts k bits.
    assert parse_ratfunc("2^1048573 + 1").constant_value() == 2**1048573 + 1
    with pytest.raises(LimitExceeded, match="sum at position 10 "):
        parse_ratfunc("2^1048574 + 1")


def test_sums_of_high_powers_are_refused_quickly():
    # These took 1.6 s, 8.3 s and 15.9 s to compute with the heuristic gcd.
    for text in (
        "1/(X+1)^400 + 1/(X-1)^400",
        "1/(X+1)^700 + 1/(X-1)^700",
        "1/(X+1)^700 + 1/(X-1)^700 + 1/(X^2+1)^350",
    ):
        start = time.perf_counter()
        with pytest.raises(LimitExceeded, match="sum at position 12 "):
            parse_ratfunc(text)
        assert time.perf_counter() - start < 1.0, text


def test_shapes_from_the_integer_form_match_the_polynomials():
    # A rank-1 operand's shapes are read from its integer form p*f / (q*g);
    # they must equal the ones read from the Fraction polynomials num and
    # den, whose height is max |numerator| times max denominator.
    rng = random.Random(11)
    pool = [Fraction(n, d) for n in range(-12, 13) if n for d in (1, 2, 3, 4, 6, 9)]
    pool += [10**12 + 7, Fraction(-(10**12), 7)]
    checked = 0
    for _ in range(3000):
        num, den = (
            LaurentPolynomial(1, {(e,): rng.choice(pool) for e in rng.sample(range(-4, 9), rng.randint(1, 4))})
            for _ in range(2)
        )
        if rng.random() < 0.05:
            num = LaurentPolynomial.zero(1)
        r = RationalFunction(num, den)
        shapes = parse._height_shapes(r)
        assert r._num is None and r._den is None  # neither side was built
        assert shapes == (parse._height_shape(r.num), parse._height_shape(r.den))
        checked += shapes[0][1] > 1 and r._ints[1] > 1  # a height with a denominator
    assert checked > 500
