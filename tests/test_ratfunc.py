"""Rational functions, reciprocal sums, the sigma automorphism, and the
telescoping geometric product."""

import math
import random
from fractions import Fraction

import pytest

from recip import ratfunc
from recip.laurent import (
    LaurentPolynomial,
    _dense_divmod,
    dense_coeffs,
    from_dense,
    from_int_form,
    int_form,
    int_gcd,
    int_primitive,
    int_product_sum,
    poly_divmod,
)
from recip.membership import decide_membership, in_reciprocal_complement
from recip.parse import parse_poly, parse_ratfunc
from recip.ratfunc import (
    RationalFunction,
    ReciprocalSum,
    geometric_product,
    normalize_reciprocal_sum,
    sigma_map,
    sigma_of_reciprocal,
)
from recip.semigroup import ns_create

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

    def forbidden(f, g):
        raise AssertionError("int_gcd called")

    monkeypatch.setattr(ratfunc, "int_gcd", forbidden)
    for r in inputs:
        list(_unary_images(r))


def test_one_term_sides_never_call_the_gcd(monkeypatch):
    def forbidden(*args):
        raise AssertionError("dense gcd path reached")

    # int_gcd is the only way from ratfunc to a dense coefficient list.
    monkeypatch.setattr(ratfunc, "int_gcd", forbidden)
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


# -- the integer path against the Fraction normalisation -----------------------
#
# A copy of the rank-1 normalisation as it ran on Fractions before the
# integer path: take out the common monomial, divide out Euclid's gcd over Q
# by long division, then scale the denominator to coprime integers with a
# positive leading coefficient.


def _fraction_gcd(a, b):
    x, y = dense_coeffs(a), dense_coeffs(b)
    while y:
        _, x = _dense_divmod(x, y)
        x, y = y, x
    g = from_dense(x)
    return g.scale(1 / g.signed_content())


def _fraction_divexact(a, b):
    q, r = poly_divmod(a, b)
    assert r.is_zero()
    return q


def fraction_normal_form(num, den):
    """The normal-form (num, den) of num/den, all on Fractions: the oracle."""
    if num.is_zero():
        return num, LaurentPolynomial.one(1)
    common = (-min(e for (e,) in num.support() + den.support()),)
    num, den = num.shift(common), den.shift(common)
    if len(num) > 1 and len(den) > 1:
        g = _fraction_gcd(num, den)
        if not g.is_constant():
            num, den = _fraction_divexact(num, g), _fraction_divexact(den, g)
    content = den.content()
    if den.coeff(den.lex_max_exponent()) < 0:
        content = -content
    return num.scale(1 / content), den.scale(1 / content)


HALVES = (Fraction(1, 2), Fraction(-1, 2))


def _differential_poly(rng, max_degree):
    """A seeded rank-1 polynomial: zero, a constant, a monomial or up to six
    terms; exponents from -6 up to max_degree; coefficients small integers,
    +-1/2 or non-primitive multiples."""
    kind = rng.random()
    if kind < 0.05:
        return LaurentPolynomial.zero(1)
    if kind < 0.15:
        return LaurentPolynomial.constant(1, rng.choice(COEFFS))
    terms = 1 if kind < 0.3 else rng.randint(2, 6)
    scale = rng.choice((1, 1, 1, 2, -3, 6, Fraction(1, 2), Fraction(-1, 2)))
    return LaurentPolynomial(1, {
        (rng.randint(-6, max_degree),): scale * rng.choice(COEFFS + list(HALVES))
        for _ in range(terms)
    })


def _differential_pairs(seed, count):
    """Seeded (num, den) pairs, den != 0; every third pair shares a planted
    common factor, and degrees reach about 60."""
    rng = random.Random(seed)
    for k in range(count):
        max_degree = rng.choice((3, 8, 20, 48))
        num, den = _differential_poly(rng, max_degree), _differential_poly(rng, max_degree)
        if den.is_zero():
            den = LaurentPolynomial.monomial(1, (rng.randint(-3, 3),), rng.choice(HALVES))
        if k % 3 == 0:
            factor = _differential_poly(rng, 12)
            if not factor.is_zero():
                num, den = num * factor, den * factor
        yield num, den


def test_integer_path_matches_the_fraction_normalisation():
    cases = list(_differential_pairs(71, 240))
    kinds = {"zero": 0, "constant": 0, "one-term": 0, "negative-lead": 0, "reduced": 0}
    for num, den in cases:
        r = RationalFunction(num, den)
        assert (r.num, r.den) == fraction_normal_form(num, den), (num, den)
        kinds["zero"] += num.is_zero()
        kinds["constant"] += num.is_constant() or den.is_constant()
        kinds["one-term"] += len(num) == 1 or len(den) == 1
        kinds["negative-lead"] += den.coeff(den.lex_max_exponent()) < 0
        kinds["reduced"] += len(r.den) < len(den)
    assert all(n >= 5 for n in kinds.values()), kinds
    assert max(max(abs(e) for (e,) in p.support()) for pair in cases for p in pair if p) >= 55
    values = [RationalFunction(num, den) for num, den in cases[:60]]
    for a, b in zip(values, values[1:] + values[:1]):
        assert ((a + b).num, (a + b).den) == fraction_normal_form(
            a.num * b.den + b.num * a.den, a.den * b.den
        ), (a, b)
        assert ((a * b).num, (a * b).den) == fraction_normal_form(a.num * b.num, a.den * b.den), (a, b)


def _sympy_pair(num, den):
    """num/den as two sympy Polys over QQ, shifted to nonnegative degrees."""
    import sympy

    shift = -min(e for (e,) in num.support() + den.support())
    x = sympy.Symbol("x")
    return tuple(
        sympy.Poly.from_dict(
            {(e + shift,): sympy.Rational(c.numerator, c.denominator) for (e,), c in poly.terms()}
            or {(0,): 0},
            x,
            domain=sympy.QQ,
        )
        for poly in (num, den)
    )


def test_integer_path_against_sympy():
    pytest.importorskip("sympy")
    cases = list(_differential_pairs(73, 120))
    values = [RationalFunction(num, den) for num, den in cases]
    for (num, den), r, s in zip(cases, values, values[1:] + values[:1]):
        unreduced = [
            (r, (num, den)),
            (r + s, (r.num * s.den + s.num * r.den, r.den * s.den)),
            (r * s, (r.num * s.num, r.den * s.den)),
        ]
        for value, pair in unreduced:
            unreduced_num, unreduced_den = _sympy_pair(*pair)
            # sympy's cancel: unreduced = scale * cancelled_num / cancelled_den
            scale, cancelled_num, cancelled_den = unreduced_num.cancel(unreduced_den)
            p, q = _sympy_pair(value.num, value.den)
            assert p * cancelled_den == q * cancelled_num * scale, (num, den)
            assert p.gcd(q).degree() <= 0, (num, den)
            assert value.den.content() == 1 and value.den.coeff(value.den.lex_max_exponent()) > 0


def test_rank1_sigma_map_matches_the_coprime_path():
    # The reversal by the larger degree against the rank-generic path:
    # negate the exponents and normalise the pair, which is coprime.
    for num, den in _differential_pairs(79, 200):
        r = RationalFunction(num, den)
        expected = RationalFunction(r.num.sigma(), r.den.sigma())
        value = sigma_map(r)
        assert (value.num, value.den) == (expected.num, expected.den), r
        assert sigma_map(value) == r


# -- the integer form and lazy num/den -----------------------------------------
#
# A copy of the rank-1 path as it ran before the integer form was kept: every
# result was built as a (num, den) pair of Fraction polynomials at once, and
# each operation read the integer maps back from that pair.


def _eager_parts(pair):
    (n, f), (d, g) = int_form(pair[0]), int_form(pair[1])
    return d, n, f, g


def _eager_normal_form(p, q, f, g):
    if not f:
        return LaurentPolynomial.zero(1), LaurentPolynomial.one(1)
    low = min(min(f), min(g))
    f = {e - low: c for e, c in f.items()}
    g = {e - low: c for e, c in g.items()}
    f_content, f = int_primitive(f)
    g_content, g = int_primitive(g)
    if len(f) > 1 and len(g) > 1:
        _, f, g = int_gcd(f, g)
    scale = Fraction(p * f_content, q * g_content)
    return from_int_form(f, scale.numerator, scale.denominator), from_int_form(g)


def _eager_coprime(num, den):
    if num.is_zero():
        return num, LaurentPolynomial.one(1)
    common = (-min(e for (e,) in num.support() + den.support()),)
    num, den = num.shift(common), den.shift(common)
    scale = 1 / den.signed_content()
    return num.scale(scale), den.scale(scale)


def _eager_add(x, y):
    (p1, q1, a, b), (p2, q2, c, d) = _eager_parts(x), _eager_parts(y)
    num = int_product_sum([(p1 * q2, a, d), (p2 * q1, c, b)])
    return _eager_normal_form(1, q1 * q2, num, int_product_sum([(1, b, d)]))


def _eager_mul(x, y):
    (p1, q1, a, b), (p2, q2, c, d) = _eager_parts(x), _eager_parts(y)
    return _eager_normal_form(p1 * p2, q1 * q2, int_product_sum([(1, a, c)]), int_product_sum([(1, b, d)]))


def _eager_neg(x):
    return _eager_coprime(-x[0], x[1])


def _eager_inverse(x):
    return _eager_coprime(x[1], x[0])


def _eager_pow(x, e):
    if e < 0:
        return _eager_pow(_eager_inverse(x), -e)
    return _eager_coprime(x[0] ** e, x[1] ** e)


def _eager_sigma(x):
    num, den = x
    if num.is_zero():
        return x
    m = max(num.degree(), den.degree())
    sign = 1 if den.coeff(den.lex_min_exponent()) > 0 else -1
    return tuple(
        LaurentPolynomial(1, {(m - e,): sign * c for (e,), c in poly.terms()}) for poly in (num, den)
    )


def _check_int_form(r):
    """The invariants of the rank-1 integer form (p, q, f, g)."""
    p, q, f, g = r._ints
    if not p:
        assert r._ints == (0, 1, {}, {0: 1})
        return
    assert q > 0 and math.gcd(p, q) == 1
    for side in (f, g):
        assert side and all(side.values())
        assert math.gcd(*side.values()) == 1 and side[max(side)] > 0
    assert min(min(f), min(g)) == 0


def _lazy_and_eager(pairs):
    """Fresh (unread) rank-1 values of the (num, den) pairs, and their eager
    (num, den) pairs."""
    return [(RationalFunction(num, den), _eager_normal_form(*_eager_parts((num, den)))) for num, den in pairs]


def test_lazy_num_den_match_the_eager_path():
    pairs = list(_differential_pairs(89, 300))
    kinds = {"zero": 0, "constant": 0, "one-term": 0, "negative-lead": 0}
    for num, den in pairs:
        kinds["zero"] += num.is_zero()
        kinds["constant"] += num.is_constant() or den.is_constant()
        kinds["one-term"] += len(num) == 1 or len(den) == 1
        kinds["negative-lead"] += den.coeff(den.lex_max_exponent()) < 0
    assert all(n >= 10 for n in kinds.values()), kinds
    cases = _lazy_and_eager(pairs)
    for (r, x), (s, y) in zip(cases, cases[1:] + cases[:1]):
        results = [
            ("+", r + s, _eager_add(x, y)),
            ("-", r - s, _eager_add(x, _eager_neg(y))),
            ("*", r * s, _eager_mul(x, y)),
            ("neg", -r, _eager_neg(x)),
            ("sigma", sigma_map(r), _eager_sigma(x)),
            ("pow3", r**3, _eager_pow(x, 3)),
            ("pow0", r**0, _eager_pow(x, 0)),
        ]
        if not s.is_zero():
            results += [
                ("/", r / s, _eager_mul(x, _eager_inverse(y))),
                ("inverse", s.inverse(), _eager_inverse(y)),
                ("pow-2", s**-2, _eager_pow(y, -2)),
            ]
        for name, value, (num, den) in results:
            assert value._num is None and value._den is None, name
            _check_int_form(value)
            assert (dict(value.num.terms()), dict(value.den.terms())) == (
                dict(num.terms()), dict(den.terms())), (name, r, s)
            assert RationalFunction(value.num, value.den)._ints == value._ints, (name, r, s)
        _check_int_form(r)
        assert (r.num, r.den) == x


def test_rank1_paths_build_no_fraction_polynomials(monkeypatch):
    # The arithmetic, sigma, the membership decision and inspection read the
    # integer form; from_int_form is ratfunc's only way to num and den.
    S = ns_create([4, 7, 9])
    values = [value for value, _ in _lazy_and_eager(_differential_pairs(97, 80))]
    one = RationalFunction.one(1)

    def forbidden(*args):
        raise AssertionError("num or den built")

    monkeypatch.setattr(ratfunc, "from_int_form", forbidden)
    decided = 0
    for r, s in zip(values, values[1:] + values[:1]):
        for value in (r + s, r * s, r - s, -r, sigma_map(r), r**2):
            decided += decide_membership(value, S).is_member
            in_reciprocal_complement(value, S)
            assert value.rank == 1
            value.is_zero()
            value.constant_value()
            assert value == value and (value == one) == (value.constant_value() == 1)
        if not s.is_zero():
            decide_membership(r / s, S)
            s.inverse()
    assert 0 < decided < 6 * len(values)
    assert all(value._num is None and value._den is None for value in values)


def test_equality_compares_the_integer_forms():
    assert RF("(X^2 - 1)/(X - 1)")._ints == (1, 1, {0: 1, 1: 1}, {0: 1})
    assert RF("-1/(2*X - 2)")._ints == RF("1/(2 - 2*X)")._ints == (-1, 2, {0: 1}, {0: -1, 1: 1})
    assert RF("1/(2 - 2*X)") == RF("-1/(2*X - 2)")
    assert RF("1/(1 + X)") != RF("2/(2 + X)")
    assert RF("3/X") != RF("3*X")
    assert RationalFunction.zero(1)._ints == (0, 1, {}, {0: 1})
    assert RF("6/4").constant_value() == Fraction(3, 2) and RF("6/4") == Fraction(3, 2)


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
