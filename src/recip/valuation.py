"""Lexicographic valuations and the induced Euclidean division.

``lex_valuation`` sends a nonzero fraction to (lex-min support of the
numerator) - (lex-min support of the denominator) and 0 to infinity.  The
lex-min exponent of a product is the sum of the lex-min exponents, so the
value does not depend on the chosen representation.  Nonnegative value
characterizes membership in the valuation ring of the full positive cone.

``euclid_divide`` divides rank-1 polynomials through the reversed-coefficient
recursion that the valuation structure induces: with e = deg a - deg b,
u = lc(a)/lc(b), and a_i, b_i the coefficients i places below the leading
ones, the quotient coefficients are

    c_i = (a_i - u*b_i - sum_{j+k=i, j,k>=1} b_j c_k) / lc(b),  i = 1..e,

giving q = u*y^e + sum c_i y^(e-i) and r = a - b*q with deg r < deg b or
r = 0.  Only j <= deg b has b_j != 0, so the recursion costs O(e * deg b)
steps; a dividend of degree above ``laurent.MAX_DEGREE`` is refused.  Since
quotient and remainder with deg r < deg b are unique, this agrees with
classical long division (``classical_divide``), which is kept as an
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laurent import MAX_DEGREE, LaurentPolynomial, LimitExceeded, poly_divmod
from .ratfunc import RationalFunction


@dataclass(frozen=True)
class ValuationValue:
    """An exponent vector, or None standing for the value infinity of 0."""

    coords: tuple[int, ...] | None

    @classmethod
    def infinity(cls) -> "ValuationValue":
        return cls(None)

    @classmethod
    def finite(cls, coords) -> "ValuationValue":
        return cls(tuple(coords))

    @property
    def is_infinite(self) -> bool:
        return self.coords is None

    def __add__(self, other: "ValuationValue") -> "ValuationValue":
        if self.is_infinite or other.is_infinite:
            return ValuationValue.infinity()
        return ValuationValue(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def _key(self):
        # Infinity compares above every finite vector.
        return (1,) if self.is_infinite else (0, self.coords)

    def __lt__(self, other: "ValuationValue") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "ValuationValue") -> bool:
        return self._key() <= other._key()

    def is_nonnegative(self) -> bool:
        return self.is_infinite or self.coords >= (0,) * len(self.coords)

    def __str__(self) -> str:
        return "infinity" if self.is_infinite else str(self.coords)


def lex_valuation(r: RationalFunction) -> ValuationValue:
    """The lex valuation of r; infinity exactly for r = 0."""
    if r.is_zero():
        return ValuationValue.infinity()
    nmin = r.num.lex_min_exponent()
    dmin = r.den.lex_min_exponent()
    return ValuationValue(tuple(a - b for a, b in zip(nmin, dmin)))


def in_valuation_ring(r: RationalFunction) -> bool:
    """True when lex_valuation(r) >= 0 in lex order.

    For the full positive cone this decides membership in the reciprocal
    complement of the cone algebra.
    """
    return lex_valuation(r).is_nonnegative()


def euclid_f(a: LaurentPolynomial) -> int:
    """The Euclidean size of a nonzero rank-1 polynomial: its degree.

    Equals the valuation of 1/a in the discrete valuation ring that the
    one-variable polynomial ring's reciprocal complement forms, and satisfies
    f(a*b) >= f(a).
    """
    if a.rank != 1:
        raise ValueError("rank-1 polynomial required")
    if a.is_zero():
        raise ValueError("the zero polynomial has no Euclidean size")
    if a.low_degree() < 0:
        raise ValueError("negative exponents: not a polynomial")
    return a.degree()


def euclid_divide(
    a: LaurentPolynomial, b: LaurentPolynomial
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Quotient and remainder by the reversed-coefficient recursion.

    Returns (q, r) with a = b*q + r and r = 0 or deg r < deg b.  When b
    divides a the recursion yields r = 0 on its own (the pair with
    deg r < deg b is unique), and deg a < deg b short-circuits to (0, a).
    Otherwise a degree of a above ``MAX_DEGREE`` raises LimitExceeded.
    """
    for poly in (a, b):
        if poly.rank != 1:
            raise ValueError("rank-1 polynomials required")
        if not poly.is_zero() and poly.low_degree() < 0:
            raise ValueError("negative exponents: not a polynomial")
    if b.is_zero():
        raise ZeroDivisionError("division by zero")
    if a.is_zero():
        return LaurentPolynomial.zero(1), LaurentPolynomial.zero(1)
    deg_a = a.degree()
    deg_b = b.degree()
    if deg_a < deg_b:
        return LaurentPolynomial.zero(1), a
    if deg_a > MAX_DEGREE:
        raise LimitExceeded(f"polynomial degree exceeds the limit {MAX_DEGREE}")
    e = deg_a - deg_b
    u2 = b.coeff((deg_b,))
    u = a.coeff((deg_a,)) / u2
    c: dict[int, Fraction] = {}
    for i in range(1, e + 1):
        tail = sum(
            (b.coeff((deg_b - j,)) * c[i - j] for j in range(1, min(i, deg_b + 1))), Fraction(0)
        )
        c[i] = (a.coeff((deg_a - i,)) - u * b.coeff((deg_b - i,)) - tail) / u2
    q = LaurentPolynomial(1, {(e,): u, **{(e - i,): c[i] for i in range(1, e + 1) if c[i] != 0}})
    r = a - b * q
    if not (r.is_zero() or r.degree() < deg_b):
        raise RuntimeError("euclid_divide: remainder degree not below the divisor degree")
    return q, r


def classical_divide(
    a: LaurentPolynomial, b: LaurentPolynomial
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Classical long division, kept as the independent oracle."""
    return poly_divmod(a, b)
