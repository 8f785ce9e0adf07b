"""Exact rational functions of Laurent polynomials, reciprocal sums, and the
exponent-negation automorphism.

Every fraction leaves ``RationalFunction`` with the common monomial taken
out and the denominator scaled to coprime integer coefficients with a
positive leading (lex-max) coefficient.  A rank-1 fraction is also reduced
to lowest terms, so it has exactly one such form.  The gcd that does this
runs in one place, the public constructor (and so in ``+`` and ``*``), and
only when both sides still have two or more terms: a one-term side X^k has
no common factor with a side that X does not divide.  Negation, ``inverse``,
integer powers and ``sigma_map`` start from a reduced pair and call no gcd:
the units of the Laurent ring are the monomials, and these maps keep a
coprime pair coprime, so taking out the monomial and rescaling is enough.
Higher ranks skip the gcd (multivariate gcd is out of scope); equality is
decided by cross-multiplication, which is valid in every rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .laurent import (
    LaurentPolynomial,
    Scalar,
    as_fraction,
    format_poly,
    poly_divexact,
    poly_gcd,
)


class RationalFunction:
    """A quotient num/den of Laurent polynomials with den != 0."""

    __slots__ = ("num", "den")

    def __init__(
        self,
        num: int | Fraction | LaurentPolynomial,
        den: int | Fraction | LaurentPolynomial | None = None,
    ):
        if isinstance(num, (int, Fraction)):
            if isinstance(den, LaurentPolynomial):
                num = LaurentPolynomial.constant(den.rank, num)
            else:
                num = LaurentPolynomial.constant(1, num)
        if den is None:
            den = LaurentPolynomial.one(num.rank)
        elif isinstance(den, (int, Fraction)):
            den = LaurentPolynomial.constant(num.rank, den)
        if num.rank != den.rank:
            raise ValueError("numerator and denominator rank mismatch")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = _extract_common_monomial(num, den)
        if num.rank == 1 and len(num) > 1 and len(den) > 1:
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = poly_divexact(num, g)
                den = poly_divexact(den, g)
        self.num, self.den = _primitive(num, den)

    @classmethod
    def _coprime(cls, num: LaurentPolynomial, den: LaurentPolynomial) -> "RationalFunction":
        """num/den for a pair with no common factor but monomials: no gcd."""
        r = object.__new__(cls)
        r.num, r.den = _primitive(*_extract_common_monomial(num, den))
        return r

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "RationalFunction":
        return cls(LaurentPolynomial.zero(rank))

    @classmethod
    def one(cls, rank: int) -> "RationalFunction":
        return cls(LaurentPolynomial.one(rank))

    @classmethod
    def from_scalar(cls, rank: int, value: Scalar) -> "RationalFunction":
        return cls(LaurentPolynomial.constant(rank, value))

    # -- inspection -------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.num.rank

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def constant_value(self) -> Fraction | None:
        """The value as a Fraction if the function is a constant, else None."""
        return self.num.ratio(self.den)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            if other.rank != self.rank:
                raise ValueError("rank mismatch")
            return other
        if isinstance(other, LaurentPolynomial):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_scalar(self.rank, other)
        return None

    def __add__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._coprime(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.num.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        return RationalFunction._coprime(self.den, self.num)

    def __truediv__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> "RationalFunction":
        if not isinstance(exponent, int):
            raise ValueError("rational function powers must be integers")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return RationalFunction._coprime(self.num**exponent, self.den**exponent)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # not canonical in rank > 1

    def __str__(self) -> str:
        return format_ratfunc(self)

    def __repr__(self) -> str:
        return f"RationalFunction({str(self)!r})"


def _extract_common_monomial(
    num: LaurentPolynomial, den: LaurentPolynomial
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Divide num and den by the largest monomial dividing both.

    Afterwards all exponents are componentwise nonnegative and for each pair
    of coordinatewise minima at least one is zero; rank-1 pairs become true
    polynomials not both divisible by X.  A zero numerator gets denominator 1.
    """
    if num.is_zero():
        return num, LaurentPolynomial.one(num.rank)
    common = tuple(-min(column) for column in zip(*num.support(), *den.support()))
    if any(common):
        num = num.shift(common)
        den = den.shift(common)
    return num, den


def _primitive(
    num: LaurentPolynomial, den: LaurentPolynomial
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Scale both sides so that den has coprime integer coefficients and a
    positive lex-max coefficient."""
    scale = 1 / den.signed_content()
    return num.scale(scale), den.scale(scale)


def format_ratfunc(r: RationalFunction, names: tuple[str, ...] = ("X",)) -> str:
    """Render num/den so that the text parses back to an equal value."""
    num = format_poly(r.num, names)
    if r.den == LaurentPolynomial.one(r.rank):
        return num
    den = format_poly(r.den, names)
    if len(r.num) > 1:
        num = f"({num})"
    if len(r.den) > 1 or "*" in den:
        den = f"({den})"
    return f"{num}/{den}"


@dataclass(frozen=True)
class ReciprocalSum:
    """A formal sum of reciprocals 1/d_1 + ... + 1/d_n of nonzero polynomials."""

    denominators: tuple[LaurentPolynomial, ...]

    def __post_init__(self):
        if not self.denominators:
            raise ValueError("a reciprocal sum needs at least one denominator")
        rank = self.denominators[0].rank
        for d in self.denominators:
            if not isinstance(d, LaurentPolynomial):
                raise TypeError("denominators must be Laurent polynomials")
            if d.rank != rank:
                raise ValueError("denominators must share one rank")
            if d.is_zero():
                raise ValueError("zero denominator in reciprocal sum")

    @property
    def rank(self) -> int:
        return self.denominators[0].rank

    def value(self) -> RationalFunction:
        return normalize_reciprocal_sum(self)


def normalize_reciprocal_sum(
    sum_: ReciprocalSum | Iterable[LaurentPolynomial],
) -> RationalFunction:
    """Exact value of sum(1/d_i) as a normalized rational function.

    The value does not depend on the order of the denominators; a zero
    denominator is rejected.
    """
    if not isinstance(sum_, ReciprocalSum):
        sum_ = ReciprocalSum(tuple(sum_))
    one = LaurentPolynomial.one(sum_.rank)
    total = RationalFunction.zero(sum_.rank)
    for d in sum_.denominators:
        total = total + RationalFunction(one, d)
    return total


def sigma_map(r: RationalFunction) -> RationalFunction:
    """The field automorphism sending X^g to X^-g, applied term by term."""
    return RationalFunction._coprime(r.num.sigma(), r.den.sigma())


def sigma_of_reciprocal(f: LaurentPolynomial) -> RationalFunction:
    """sigma(1/f) for f with lex-nonnegative support.

    For f = sum u_i X^(s_i) this is X^s / sum u_i X^(s - s_i), where s is
    the lex-max element of the support.
    """
    if f.is_zero():
        raise ValueError("zero has no reciprocal")
    f.require_lex_nonnegative()
    return sigma_map(RationalFunction(LaurentPolynomial.one(f.rank), f))


def geometric_product(phi: LaurentPolynomial, u: Scalar, e: int) -> LaurentPolynomial:
    """The product (phi+u)(phi^2+u^2)(phi^4+u^4)...(phi^(2^(e-1))+u^(2^(e-1))).

    Telescopes to the geometric sum sum_{j=0}^{2^e-1} phi^j u^(2^e-1-j); the
    identity is exercised by the test suite.
    """
    u = as_fraction(u)
    if u == 0:
        raise ValueError("u must be nonzero")
    if not isinstance(e, int) or e < 1:
        raise ValueError("e must be a positive integer")
    result = phi + u
    power = phi
    upower = u
    for _ in range(e - 1):
        power = power * power
        upower = upower * upower
        result = result * (power + upower)
    return result
