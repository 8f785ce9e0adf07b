"""Core Laurent-polynomial arithmetic: construction, ring axioms, helpers."""

import math
import random
import time
from fractions import Fraction

import pytest

from recip import laurent
from recip.laurent import (
    MAX_DEGREE,
    LaurentPolynomial,
    LimitExceeded,
    Vector,
    _dense_divmod,
    dense_coeffs,
    format_poly,
    from_dense,
    from_int_form,
    int_form,
    int_gcd,
    int_power,
    int_product_sum,
    poly_divmod,
    poly_gcd,
)

from recip.parse import parse_poly

from conftest import random_poly
from golden.make_cli import crafted_pair


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


def fraction_add_terms(rank, terms=()):
    """The terms LaurentPolynomial(rank, terms) held when its constructor
    added every coefficient to a Fraction zero, new exponent or not."""
    if not isinstance(rank, int) or rank < 1:
        raise ValueError("rank must be a positive integer")
    items = terms.items() if isinstance(terms, dict) else terms
    clean = {}
    for exponent, coeff in items:
        exponent = tuple(exponent)
        if len(exponent) != rank:
            raise ValueError(f"exponent {exponent} does not have rank {rank}")
        if not all(isinstance(e, int) for e in exponent):
            raise ValueError(f"exponent {exponent} has non-integer coordinates")
        value = clean.get(exponent, Fraction(0)) + laurent.as_fraction(coeff)
        if value == 0:
            clean.pop(exponent, None)
        else:
            clean[exponent] = value
    return clean


def outcome(build, *args):
    """(terms as an ordered item list with value types, None), or (None,
    (exception type, message))."""
    try:
        terms = build(*args)
    except Exception as exc:  # noqa: BLE001 - compared with the reference
        return None, (type(exc), str(exc))
    return [(e, c, type(c)) for e, c in terms.items()], None


def test_constructor_matches_the_fraction_add_reference():
    # Seeded term lists with repeated and cancelling exponents, int, bool
    # and Fraction coefficients, and a few wrong ranks, non-int coordinates,
    # inexact coefficients and bad ranks: the same terms in the same order,
    # or the same exception and message.
    rng = random.Random(271)
    coeffs = [0, 1, -1, 2, -3, True, False, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4), Fraction(0)]
    kinds = {"repeat": 0, "cancel": 0, "error": 0, "empty": 0}
    for _ in range(3000):
        rank = rng.choice((1, 1, 2, 3))
        items = []
        for _ in range(rng.randint(0, 8)):
            if items and rng.random() < 0.3:
                exponent, coeff = rng.choice(items)
                items.append((exponent, -coeff if rng.random() < 0.5 else rng.choice(coeffs)))
            else:
                items.append((tuple(rng.randint(-2, 2) for _ in range(rank)), rng.choice(coeffs)))
        roll = rng.random()
        if items and roll < 0.04:
            items.insert(rng.randrange(len(items)), ((0,) * (rank + 1), 1))
        elif items and roll < 0.06:
            items.insert(rng.randrange(len(items)), ((Fraction(1, 2),) * rank, 1))
        elif items and roll < 0.08:
            items.insert(rng.randrange(len(items)), ((0,) * rank, 0.5))
        elif roll < 0.09:
            rank = rng.choice((0, -1, 1.0, "1"))
        terms = dict(items) if rng.random() < 0.3 else items
        expected = outcome(fraction_add_terms, rank, terms)
        found = outcome(lambda r, t: LaurentPolynomial(r, t)._terms, rank, terms)
        assert found == expected, (rank, terms)
        exponents = [e for e, _ in (terms.items() if isinstance(terms, dict) else terms)]
        kinds["repeat"] += len(set(exponents)) < len(exponents)
        kinds["cancel"] += expected[0] is not None and len(expected[0]) < len(set(exponents))
        kinds["error"] += expected[1] is not None
        kinds["empty"] += expected[0] == []
    assert min(kinds.values()) >= 100, kinds


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


def repeated_product(p: LaurentPolynomial, k: int) -> LaurentPolynomial:
    """p**k as k multiplications, the reference for the integer-kernel power."""
    product = LaurentPolynomial.one(p.rank)
    for _ in range(k):
        product = product * p
    return product


def test_pow_in_every_rank_matches_repeated_multiplication():
    rng = random.Random(104)
    for rank in (1, 2, 3):
        for _ in range(40):
            p = random_poly(rng, rank, span=3)
            k = rng.randint(0, 6)
            power = p**k
            assert power == repeated_product(p, k), (p, k)
            assert all(type(e) is tuple for e in power.support())
    for rank in (1, 2):
        zero = LaurentPolynomial.zero(rank)
        assert zero**0 == LaurentPolynomial.one(rank)
        assert (zero**3).is_zero() and (zero**3).rank == rank
    p = parse_poly("1/2*X^-1 + 2/3")
    for bad in (-1, Fraction(2), 2.0):
        with pytest.raises(ValueError):
            p**bad


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


def test_content_takes_no_int_primitive(monkeypatch):
    # content() and signed_content() are the reference that _normal_form's
    # int_primitive is checked against, so they must not call it.
    def refuse(f):
        raise AssertionError("content must not call int_primitive")

    monkeypatch.setattr(laurent, "int_primitive", refuse)
    p = LaurentPolynomial(2, {(0, 1): Fraction(-6, 5), (1, 0): Fraction(-4, 15)})
    assert (p.content(), p.signed_content()) == (Fraction(2, 15), Fraction(-2, 15))
    assert LaurentPolynomial.zero(2).signed_content() == 0


def test_signed_content_contract():
    assert LaurentPolynomial.zero(2).signed_content() == 0
    p = LaurentPolynomial(1, {(0,): Fraction(2, 3), (1,): Fraction(-4, 9)})
    assert p.signed_content() == Fraction(-2, 9)
    assert (-p).signed_content() == Fraction(2, 9)
    rng = random.Random(11)
    for rank in (1, 2, 3):
        for _ in range(40):
            p = random_poly(rng, rank)
            if p.is_zero():
                continue
            unit = p.signed_content()
            primitive = p.scale(1 / unit)
            assert abs(unit) == p.content() and primitive.content() == 1
            assert primitive.coeff(primitive.lex_max_exponent()) > 0


def test_ratio_contract():
    q = LaurentPolynomial(2, {(1, 0): 3, (0, 2): -1})
    assert LaurentPolynomial.zero(2).ratio(q) == 0
    with pytest.raises(ValueError):
        q.ratio(LaurentPolynomial.zero(2))
    assert q.scale(Fraction(-5, 7)).ratio(q) == Fraction(-5, 7)
    assert q.ratio(-q) == -1
    assert q.ratio(LaurentPolynomial(2, {(1, 0): 3, (0, 2): 1})) is None  # same support
    assert q.ratio(LaurentPolynomial(2, {(1, 0): 3})) is None  # fewer terms
    assert q.ratio(LaurentPolynomial(2, {(1, 0): 3, (0, 3): -1})) is None  # other support
    rng = random.Random(12)
    proportional_pairs = 0
    for _ in range(400):
        a, b = random_poly(rng, 2, max_terms=2, span=1), random_poly(rng, 2, max_terms=2, span=1)
        if b.is_zero():
            continue
        # Proportional exactly when a is zero, or the supports agree and
        # every 2x2 minor of the coefficient pairs vanishes.
        support = a.support()
        proportional = a.is_zero() or (support == b.support() and all(
            a.coeff(e) * b.coeff(f) == a.coeff(f) * b.coeff(e) for e in support for f in support
        ))
        c = a.ratio(b)
        assert (c is not None) == proportional, (a, b)
        assert c is None or a == b.scale(c)
        proportional_pairs += proportional
    assert proportional_pairs >= 20


def test_validity_checks_raise_one_message_each():
    with pytest.raises(ValueError, match="negative exponents: not a polynomial"):
        parse_poly("X^-1 + 1").require_polynomial()
    parse_poly("X + 1").require_polynomial()
    LaurentPolynomial.zero(1).require_polynomial()
    with pytest.raises(ValueError, match="support must be lex-nonnegative"):
        LaurentPolynomial(2, {(1, 0): 1, (0, -1): 1}).require_lex_nonnegative()
    LaurentPolynomial(2, {(1, -5): 1, (0, 0): 1}).require_lex_nonnegative()
    LaurentPolynomial.zero(2).require_lex_nonnegative()


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
        poly_gcd(parse_poly("X + 2"), huge)
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


def euclid_gcd(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """The Euclid-over-Q poly_gcd as it was before the heuristic gcd: the oracle."""
    x, y = dense_coeffs(a), dense_coeffs(b)
    while y:
        _, x = _dense_divmod(x, y)
        x, y = y, x
    g = from_dense(x)
    return g.scale(1 / g.signed_content()) if g else g


def planted_pairs(seed: int, count: int):
    """Seeded pairs (g*a, g*b) with a planted common factor g: random dense
    rational coefficients, zero polynomials, constants, powers of X and
    repeated factors all occur."""
    rng = random.Random(seed)

    def dense(max_degree: int, height: int) -> LaurentPolynomial:
        degree = rng.randint(0, max_degree)
        return from_dense(
            [Fraction(rng.randint(-height, height), rng.choice((1, 1, 2, 3, 5))) for _ in range(degree)]
            + [Fraction(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, 4))]
        )

    for k in range(count):
        g = dense(6, 9) * LaurentPolynomial.monomial(1, (rng.randint(0, 2),))
        if k % 5 == 0:
            g = g * g
        a, b = dense(6, 9), dense(6, 9)
        if k % 17 == 0:
            a = LaurentPolynomial.zero(1)
        yield g * a, g * b


def test_poly_gcd_matches_the_euclid_oracle_on_planted_factors():
    for a, b in planted_pairs(21, 300):
        d = poly_gcd(a, b)
        assert d == euclid_gcd(a, b), (a, b)
        assert d == poly_gcd(b, a)
        assert all(c.denominator == 1 for _, c in d.terms())
        assert d.signed_content() == 1  # the one unit; the gcd is never zero here


def test_poly_gcd_normal_form_examples():
    assert poly_gcd(LaurentPolynomial.zero(1), LaurentPolynomial.zero(1)).is_zero()
    assert poly_gcd(parse_poly("-2/3*X - 4/3"), LaurentPolynomial.zero(1)) == parse_poly("X + 2")
    assert poly_gcd(parse_poly("X^2 - 1"), parse_poly("6*X - 6")) == parse_poly("X - 1")
    assert poly_gcd(parse_poly("1 - X^2"), parse_poly("-X - 1")) == parse_poly("X + 1")
    assert poly_gcd(parse_poly("X^3"), parse_poly("X^2 + X")) == parse_poly("X")


def test_poly_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(p: LaurentPolynomial):
        return sympy.Poly(list(reversed(dense_coeffs(p))), x, domain=sympy.QQ)

    for a, b in planted_pairs(23, 60):
        d = poly_gcd(a, b)
        assert to_sympy(d).monic() == to_sympy(a).gcd(to_sympy(b)).monic()


def test_poly_gcd_fallback_gives_the_same_result(monkeypatch):
    pairs = list(planted_pairs(24, 80))
    fast = [poly_gcd(a, b) for a, b in pairs]
    checks = []

    def never_divides(f, d):
        checks.append(len(d))
        return None

    monkeypatch.setattr(laurent, "_quotient", never_divides)
    for (a, b), expected in zip(pairs, fast):
        before = len(checks)
        assert poly_gcd(a, b) == expected
        assert len(checks) - before == (0 if a.is_zero() else 6)  # six values of xi, then Euclid


def _int_product(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += u * v
    return out


def test_poly_gcd_of_degree_1000_polynomials_is_fast():
    # A degree-500 common factor of two degree-1,000 polynomials.  Euclid
    # over Q ran past 300 s already at degree 300.
    rng = random.Random(25)
    common, a, b = ([rng.randint(-5, 5) for _ in range(500)] + [1] for _ in range(3))
    left = from_dense(_int_product(common, a))
    right = from_dense(_int_product(common, b))
    start = time.perf_counter()
    d = poly_gcd(left, right)
    assert time.perf_counter() - start < 1.0
    assert d == from_dense(common)


def _dense_horner(coeffs: list[int], point: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * point + c
    return value


def test_sparse_evaluation_matches_dense_horner():
    rng = random.Random(26)
    for _ in range(300):
        degree = rng.choice((0, 1, 5, 40, 300))
        f = {e: rng.choice((-7, -1, 1, 2, 9)) * rng.randint(1, 10**rng.randint(1, 12))
             for e in rng.sample(range(degree + 1), rng.randint(1, min(degree + 1, 6)))}
        dense = [f.get(i, 0) for i in range(max(f) + 1)]
        point = rng.choice((29, 31, 2 * 10**9 + 29, rng.randint(29, 10**30)))
        assert laurent._evaluate(f, point) == _dense_horner(dense, point), (f, point)


def test_sparse_high_degree_gcd_is_fast():
    # Dense Horner paid a big-integer multiply for each of the 29,999 zero
    # coefficients of X^30000 + 1: 0.26 s a call.
    a, b = parse_poly("X^30000 + 1"), parse_poly("X + 2")
    start = time.perf_counter()
    for _ in range(50):
        d = poly_gcd(a, b)
    assert time.perf_counter() - start < 1.0
    assert d == 1


def test_int_gcd_returns_the_cofactors_on_both_paths(monkeypatch):
    pairs = [(a, b) for a, b in planted_pairs(27, 80) if not a.is_zero()]
    primitive = laurent._gcd_input
    fast = [int_gcd(primitive(a), primitive(b)) for a, b in pairs]
    monkeypatch.setattr(laurent, "_quotient", lambda f, d: None)
    for (a, b), (h, f_h, g_h) in zip(pairs, fast):
        f, g = primitive(a), primitive(b)
        assert laurent._euclid_gcd(f, g) == (h, f_h, g_h) == int_gcd(f, g)
        assert from_int_form(h) == poly_gcd(a, b)
        assert from_int_form(h) * from_int_form(f_h) == from_int_form(f)
        assert from_int_form(h) * from_int_form(g_h) == from_int_form(g)


def rational_euclid_gcd(f, g):
    """int_gcd's fallback as it was before its remainders were made
    primitive: Euclid over Q, whose coefficients grow.  The reference."""
    x, y = dense_coeffs(from_int_form(f)), dense_coeffs(from_int_form(g))
    a, b = x, y
    while b:
        a, b = b, _dense_divmod(a, b)[1]
    _, h = laurent.int_primitive(int_form(from_dense(a))[1])
    if h == {0: 1}:
        return h, f, g
    divisor = dense_coeffs(from_int_form(h))
    return h, *[int_form(from_dense(_dense_divmod(z, divisor)[0]))[1] for z in (x, y)]


CRAFTED_COMMON = (None, {0: 1, 1: -1, 2: 1}, {0: 4, 1: 4, 2: 1})  # 1, X^2 - X + 1, (X + 2)^2


def crafted_pairs(top: int):
    """Crafted pairs of degree up to 25 with three seeds, and of degree 40
    and top with one, each without and with a planted common factor."""
    for k, seeds in ((1, 3), (2, 3), (5, 3), (12, 3), (25, 3), (40, 1), (top, 1)):
        for seed in range(seeds):
            for common in CRAFTED_COMMON:
                yield crafted_pair(k, seed, common)


def test_crafted_pairs_defeat_the_heuristic():
    for f, g in crafted_pairs(100):
        assert laurent._heuristic_gcd(f, g) is None, (f, g)


def test_gcd_fallback_matches_euclid_over_q():
    pairs = [(laurent._gcd_input(a), laurent._gcd_input(b)) for a, b in planted_pairs(28, 120)]
    pairs = [(f, g) for f, g in pairs if f] + list(crafted_pairs(60))
    for f, g in pairs:
        assert laurent._euclid_gcd(f, g) == rational_euclid_gcd(f, g), (f, g)
    assert sum(laurent._euclid_gcd(f, g)[0] != {0: 1} for f, g in pairs) >= 100


def test_gcd_fallback_on_a_crafted_pair_is_fast():
    # Euclid over Q took 7.6 s (2-vCPU VM): its coefficients grow to
    # thousands of bits.  Primitive remainders keep them small.
    for common in CRAFTED_COMMON:
        f, g = crafted_pair(100, 0, common)
        start = time.perf_counter()
        h, f_h, g_h = int_gcd(f, g)
        assert time.perf_counter() - start < 1.0
        assert h == (common or {0: 1})
        assert int_product_sum([(1, h, f_h)]) == f and int_product_sum([(1, h, g_h)]) == g


def test_gcd_fallback_on_a_sparse_high_degree_pair_stays_fast():
    # The one remainder of X^30000 + 1 by X + 2 has 30,000 bits: 0.7-0.8 s
    # (2-vCPU VM) with and without primitive remainders.
    f, g = laurent._gcd_input(parse_poly("X^30000 + 1")), laurent._gcd_input(parse_poly("X + 2"))
    start = time.perf_counter()
    assert laurent._euclid_gcd(f, g) == ({0: 1}, f, g)
    assert time.perf_counter() - start < 2.0


def test_int_form_round_trip():
    p = parse_poly("1/2*X^-3 - 2/3 + 5*X^4")
    d, f = int_form(p)
    assert (d, f) == (6, {-3: 3, 0: -4, 4: 30})
    assert from_int_form(f, 1, d) == p
    assert from_int_form(f, -2, 3) == p.scale(-4)
    assert int_form(LaurentPolynomial.zero(1)) == (1, {})
    q = parse_poly("1/2*X^(-3,1) - 2/3 + 5*X^(0,4)", rank=2)
    d, f = int_form(q)
    assert (d, f) == (6, {(-3, 1): 3, (0, 0): -4, (0, 4): 30})
    assert all(type(e) is Vector for e in f)
    assert from_int_form(f, 1, d, 2) == q
    assert all(type(e) is tuple for e in from_int_form(f, 1, d, 2).support())


def test_int_power_matches_the_polynomial_power():
    rng = random.Random(103)
    for _ in range(60):
        p = random_poly(rng, 1, span=4)
        d, f = int_form(p)
        k = rng.randint(1, 9)
        assert from_int_form(int_power(f, k), 1, d**k) == repeated_product(p, k), (p, k)
    # k = 0 has no map of its own: the constant 1 has an exponent of the
    # rank, which an int map does not carry.  RationalFunction handles it.
    assert int_power({}, 3) == {}
    x, y = Vector((1, 0)), Vector((0, -1))
    assert int_power({x: 1, y: 2}, 2) == {x + x: 1, x + y: 4, y + y: 4}
    assert int_power({0: 1, 1: 1}, 723)[361] == math.comb(723, 361)


def test_scale_by_a_unit():
    p = parse_poly("1/2*X^-3 - 2/3 + 5*X^4")
    assert p.scale(1) is p
    assert p.scale(-1) == -p == p.scale(Fraction(-1))


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
