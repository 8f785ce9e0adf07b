"""Exact rational functions of Laurent polynomials, reciprocal sums, and the
exponent-negation automorphism.

Every fraction leaves ``RationalFunction`` with the common monomial taken
out and the denominator scaled to coprime integer coefficients with a
positive leading (lex-max) coefficient.  A rank-1 fraction is also reduced
to lowest terms, so it has exactly one such form.

A rank-1 fraction is held as that one form over Z, the tuple (p, q, f, g)
with value p*f / (q*g): q > 0 and gcd(p, q) = 1, f and g are primitive
sparse int maps {degree: coefficient} with positive leading coefficients,
and min(min f, min g) = 0; zero is (0, 1, {}, {0: 1}).  The constructor,
``+`` and ``*`` end in one normaliser, ``_normal_form``: it takes out the
common X-power, makes both sides primitive, and runs the gcd
``laurent.int_gcd`` only when both sides still have two or more terms (a
one-term side X^k has no common factor with a side that X does not
divide).  Negation, ``inverse``, integer powers (``laurent.int_power``)
and ``sigma_map`` rewrite the tuple directly.  The Fraction polynomials
``num`` = (p/q)*f and ``den`` = g are built from it only when they are
first read, and then kept; equality, ``is_zero`` and ``constant_value``
read the tuple.

Negation, ``inverse``, integer powers and ``sigma_map`` start from a reduced
pair and call no gcd: the units of the Laurent ring are the monomials, and
these maps keep a coprime pair coprime, so taking out the monomial and
rescaling is enough.  A rank-1 ``sigma_map`` is less still: reversing the
exponents by the larger degree leaves no common monomial and the
coefficients, so only the signs of the new leading coefficients move into p.
Higher ranks hold the pair (num, den) itself, and their constructor takes
out the monomial and rescales but runs no gcd (multivariate gcd is out of
scope); their equality is decided by cross-multiplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .laurent import (
    LaurentPolynomial,
    Scalar,
    as_fraction,
    format_poly,
    from_int_form,
    int_form,
    int_gcd,
    int_power,
    int_primitive,
    int_product_sum,
)

IntForm = tuple[int, int, dict[int, int], dict[int, int]]

_ZERO_FORM: IntForm = (0, 1, {}, {0: 1})


class RationalFunction:
    """A quotient num/den of Laurent polynomials with den != 0."""

    # Rank 1 holds _ints and builds _num and _den on first read; a higher
    # rank holds _num and _den, and _ints is None.
    __slots__ = ("_ints", "_num", "_den")

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
        if num.rank == 1:
            (n, f), (d, g) = int_form(num), int_form(den)
            self._ints, self._num, self._den = _normal_form(d, n, f, g), None, None
        else:
            self._ints = None
            self._num, self._den = _primitive(*_extract_common_monomial(num, den))

    @classmethod
    def _from_ints(cls, ints: IntForm) -> "RationalFunction":
        """The rank-1 fraction with the integer form ints."""
        r = object.__new__(cls)
        r._ints, r._num, r._den = ints, None, None
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
    def num(self) -> LaurentPolynomial:
        """The numerator; in rank 1, (p/q)*f, built when first read."""
        if self._num is None:
            p, q, f, _ = self._ints
            self._num = from_int_form(f, p, q)
        return self._num

    @property
    def den(self) -> LaurentPolynomial:
        """The denominator; in rank 1, g, built when first read."""
        if self._den is None:
            self._den = from_int_form(self._ints[3])
        return self._den

    @property
    def rank(self) -> int:
        return 1 if self._ints is not None else self._num.rank

    def is_zero(self) -> bool:
        if self._ints is not None:
            return not self._ints[0]
        return self._num.is_zero()

    def constant_value(self) -> Fraction | None:
        """The value as a Fraction if the function is a constant, else None."""
        if self._ints is None:
            return self._num.ratio(self._den)
        # f and g are primitive with positive leading coefficients, so
        # p*f/(q*g) is constant exactly when f = g or p = 0.
        p, q, f, g = self._ints
        return Fraction(p, q) if not p or f == g else None

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
        if self._ints is not None:
            p1, q1, a, b = self._ints
            p2, q2, c, d = other._ints
            num = int_product_sum([(p1 * q2, a, d), (p2 * q1, c, b)])
            den = int_product_sum([(1, b, d)])
            return RationalFunction._from_ints(_normal_form(1, q1 * q2, num, den))
        return RationalFunction(
            self._num * other._den + other._num * self._den, self._den * other._den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        if self._ints is not None:
            p, q, f, g = self._ints
            return RationalFunction._from_ints((-p, q, f, g))
        return RationalFunction(-self._num, self._den)

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
        if self._ints is not None:
            p1, q1, a, b = self._ints
            p2, q2, c, d = other._ints
            num = int_product_sum([(1, a, c)])
            den = int_product_sum([(1, b, d)])
            return RationalFunction._from_ints(_normal_form(p1 * p2, q1 * q2, num, den))
        return RationalFunction(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        if self._ints is not None:
            p, q, f, g = self._ints
            return RationalFunction._from_ints((q if p > 0 else -q, abs(p), g, f))
        return RationalFunction(self._den, self._num)

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
        if self._ints is not None:
            p, q, f, g = self._ints
            return RationalFunction._from_ints(
                (p**exponent, q**exponent, int_power(f, exponent), int_power(g, exponent))
            )
        return RationalFunction(self._num**exponent, self._den**exponent)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self._ints is not None:
            return self._ints == other._ints
        return self._num * other._den == other._num * self._den

    __hash__ = None  # not canonical in rank > 1

    def __str__(self) -> str:
        return format_ratfunc(self)

    def __repr__(self) -> str:
        return f"RationalFunction({str(self)!r})"


def _normal_form(p: int, q: int, f: dict[int, int], g: dict[int, int]) -> IntForm:
    """The integer form of p*f / (q*g), for nonzero ints p, q and int maps
    f and g != 0 of rank-1 polynomials.

    The common X-power comes out, both sides become primitive with positive
    leading coefficients, the gcd of two sides with two or more terms each
    is divided out, and the signs and contents move into p/q.
    """
    if not f:
        return _ZERO_FORM
    low = min(min(f), min(g))
    if low:
        f = {e - low: c for e, c in f.items()}
        g = {e - low: c for e, c in g.items()}
    f_content, f = int_primitive(f)
    g_content, g = int_primitive(g)
    if len(f) > 1 and len(g) > 1:
        _, f, g = int_gcd(f, g)
    p *= f_content
    q *= g_content
    common = math.gcd(p, q)
    if q < 0:
        common = -common
    return p // common, q // common, f, g


def _extract_common_monomial(
    num: LaurentPolynomial, den: LaurentPolynomial
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Divide num and den by the largest monomial dividing both.

    Afterwards all exponents are componentwise nonnegative and for each pair
    of coordinatewise minima at least one is zero.  A zero numerator gets
    denominator 1.
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
    """The field automorphism sending X^g to X^-g, applied term by term.

    In rank 1, f and g are polynomials not both divisible by X, so
    X^m f(1/X) / X^m g(1/X), m the larger degree, is again such a coprime
    pair with the same coefficients; each new leading coefficient is the
    old lowest one, and its sign moves into p.
    """
    if r._ints is None:
        return RationalFunction(r.num.sigma(), r.den.sigma())
    p, q, f, g = r._ints
    if not p:
        return r
    m = max(max(f), max(g))
    f_sign, f = _reversal(f, m)
    g_sign, g = _reversal(g, m)
    return RationalFunction._from_ints((f_sign * g_sign * p, q, f, g))


def _reversal(f: dict[int, int], m: int) -> tuple[int, dict[int, int]]:
    """(s, s * X^m f(1/X)) for a nonzero int map f of degree at most m, with
    the sign s that makes the new leading coefficient positive."""
    if f[min(f)] > 0:
        return 1, {m - e: c for e, c in f.items()}
    return -1, {m - e: -c for e, c in f.items()}


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
