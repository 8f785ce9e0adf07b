"""Exact rational functions of Laurent polynomials, reciprocal sums, and the
exponent-negation automorphism.

A fraction of every rank is held as one integer form, the tuple
(p, q, f, g) with value p*f / (q*g), beside its rank: q > 0 and
gcd(p, q) = 1, f and g are primitive sparse int maps {exponent:
coefficient} with positive leading (lex-max) coefficients, and their
coordinatewise least exponent is 0; zero is (0, 1, {}, {0: 1}), with the
zero exponent of its rank.  Exponents are ints in rank 1 and
``laurent.Vector``s above, so one body of code serves every rank.

The constructor, ``+`` and ``*`` end in one normaliser, ``_normal_form``:
it takes out the common monomial, makes both sides primitive and, in rank
1 only, divides out the gcd ``laurent.int_gcd`` when both sides still have
two or more terms (a one-term side X^k has no common factor with a side
that X does not divide).  Multivariate gcd is out of scope, so a form of
rank > 1 may keep a common factor, and its value then has more than one
form.  The Fraction polynomials ``num`` = (p/q)*f and ``den`` = g are built
from the form only when they are first read, and then kept.
``normalize_reciprocal_sum`` is one fold over the integer forms of its
denominators, with one ``_normal_form`` per added term and no intermediate
``RationalFunction``; its result is the form that adding the reciprocals
pair by pair gives, in every rank.

Negation, ``inverse``, integer powers (``laurent.int_power``) and
``sigma_map`` rewrite the form and call no gcd: the units of the Laurent
ring are the monomials, and these maps keep a coprime pair coprime and a
primitive side primitive.  ``sigma_map`` reverses the exponents by their
coordinatewise greatest one, which leaves no common monomial and the
coefficients, so only the signs of the new leading coefficients move into
p.  Equality reads the forms: p/q must agree, because the products f*g'
and f'*g are primitive with positive leading coefficients, and then
f*g' = f'*g must hold, which in rank 1 happens only for equal forms.
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
    exponent_corner,
    format_poly,
    from_int_form,
    int_form,
    int_gcd,
    int_power,
    int_primitive,
    int_product_sum,
)

IntForm = tuple[int, int, dict, dict]


class RationalFunction:
    """A quotient num/den of Laurent polynomials with den != 0."""

    # _ints is the integer form; _num and _den are built on first read.
    __slots__ = ("_ints", "rank", "_num", "_den")

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
        (n, f), (d, g) = int_form(num), int_form(den)
        self._ints = _normal_form(d, n, f, g, num.rank)
        self.rank, self._num, self._den = num.rank, None, None

    @classmethod
    def _from_ints(cls, ints: IntForm, rank: int) -> "RationalFunction":
        """The fraction of the given rank with the integer form ints."""
        r = object.__new__(cls)
        r._ints, r.rank, r._num, r._den = ints, rank, None, None
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
        """The numerator (p/q)*f, built when first read."""
        if self._num is None:
            p, q, f, _ = self._ints
            self._num = from_int_form(f, p, q, self.rank)
        return self._num

    @property
    def den(self) -> LaurentPolynomial:
        """The denominator g, built when first read."""
        if self._den is None:
            self._den = from_int_form(self._ints[3], rank=self.rank)
        return self._den

    def is_zero(self) -> bool:
        return not self._ints[0]

    def constant_value(self) -> Fraction | None:
        """The value as a Fraction if the function is a constant, else None."""
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
        p1, q1, a, b = self._ints
        p2, q2, c, d = other._ints
        num = int_product_sum([(p1 * q2, a, d), (p2 * q1, c, b)])
        den = int_product_sum([(1, b, d)])
        return RationalFunction._from_ints(_normal_form(1, q1 * q2, num, den, self.rank), self.rank)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        p, q, f, g = self._ints
        return RationalFunction._from_ints((-p, q, f, g), self.rank)

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
        p1, q1, a, b = self._ints
        p2, q2, c, d = other._ints
        num = int_product_sum([(1, a, c)])
        den = int_product_sum([(1, b, d)])
        return RationalFunction._from_ints(_normal_form(p1 * p2, q1 * q2, num, den, self.rank), self.rank)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        p, q, f, g = self._ints
        return RationalFunction._from_ints((q if p > 0 else -q, abs(p), g, f), self.rank)

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
        if not exponent:
            return RationalFunction.one(self.rank)
        p, q, f, g = self._ints
        return RationalFunction._from_ints(
            (p**exponent, q**exponent, int_power(f, exponent), int_power(g, exponent)), self.rank
        )

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p1, q1, a, b = self._ints
        p2, q2, c, d = other._ints
        if p1 != p2 or q1 != q2:
            return False
        return a == c and b == d or int_product_sum([(1, a, d)]) == int_product_sum([(1, c, b)])

    __hash__ = None  # a value of rank > 1 has more than one form

    def __str__(self) -> str:
        return format_ratfunc(self)

    def __repr__(self) -> str:
        return f"RationalFunction({str(self)!r})"


def _normal_form(p: int, q: int, f: dict, g: dict, rank: int) -> IntForm:
    """The integer form of p*f / (q*g), for nonzero ints p, q and int maps
    f and g != 0 of the given rank.

    The common monomial comes out, both sides become primitive with
    positive leading coefficients, in rank 1 the gcd of two sides with two
    or more terms each is divided out, and the signs and contents move into
    p/q.
    """
    if not f:
        return 0, 1, {}, int_form(LaurentPolynomial.one(rank))[1]
    low = exponent_corner(min, f, g)
    if low:
        f = {e - low: c for e, c in f.items()}
        g = {e - low: c for e, c in g.items()}
    f_content, f = int_primitive(f)
    g_content, g = int_primitive(g)
    if rank == 1 and len(f) > 1 and len(g) > 1:
        _, f, g = int_gcd(f, g)
    p *= f_content
    q *= g_content
    common = math.gcd(p, q)
    if q < 0:
        common = -common
    return p // common, q // common, f, g


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


def normalize_reciprocal_sum(
    sum_: ReciprocalSum | Iterable[LaurentPolynomial],
) -> RationalFunction:
    """Exact value of sum(1/d_i) as a normalized rational function.

    The value does not depend on the order of the denominators; a zero
    denominator is rejected.  The sum is one fold over integer forms: with
    d_i = f_i / c_i, it starts from c_1/f_1 and adds each later c/f to the
    running p*a / (q*b) as (p*a*f + q*c*b) / (q*b*f), normalised once per
    step, so k denominators take k - 1 normal forms (one when k = 1).  Each
    step's pair is the pairwise sum's pair times a constant and a monomial,
    which ``_normal_form`` takes out, so the form is the one that adding the
    reciprocals pair by pair gives, in every rank.  The fold keeps each
    partial sum reduced in rank 1, so the gcd sees pairs of the degree of
    one step, not of the product of every denominator.  A partial sum of
    zero is ``_normal_form``'s zero form, and the fold goes on from it.
    """
    if not isinstance(sum_, ReciprocalSum):
        sum_ = ReciprocalSum(tuple(sum_))
    rank = sum_.rank
    (c, f), *rest = map(int_form, sum_.denominators)
    e = next(iter(f))
    one = {e - e: 1}  # the map 1, with the zero exponent of this rank
    if not rest:
        return RationalFunction._from_ints(_normal_form(c, 1, one, f, rank), rank)
    p, q, a, b = c, 1, one, f
    for c, f in rest:
        num = int_product_sum([(p, a, f), (q * c, one, b)])
        den = int_product_sum([(1, b, f)])
        p, q, a, b = _normal_form(1, q, num, den, rank)
    return RationalFunction._from_ints((p, q, a, b), rank)


def sigma_map(r: RationalFunction) -> RationalFunction:
    """The field automorphism sending X^g to X^-g, applied term by term.

    f and g are polynomials whose exponents have coordinatewise least 0, so
    X^m f(1/X) / X^m g(1/X), m their coordinatewise greatest exponent, is
    again such a pair with the same coefficients, coprime when f and g are;
    each new leading coefficient is the old lowest (lex-min) one, and its
    sign moves into p.
    """
    p, q, f, g = r._ints
    if not p:
        return r
    m = exponent_corner(max, f, g)
    f_sign, f = _reversal(f, m)
    g_sign, g = _reversal(g, m)
    return RationalFunction._from_ints((f_sign * g_sign * p, q, f, g), r.rank)


def _reversal(f: dict, m) -> tuple[int, dict]:
    """(s, s * X^m f(1/X)) for a nonzero int map f with exponents at most m
    coordinatewise, with the sign s that makes the new leading coefficient
    positive."""
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
