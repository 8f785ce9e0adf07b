"""Sparse Laurent polynomials over Q with exponent vectors in Z^N.

Exponent vectors are plain int tuples.  Python compares tuples
lexicographically (first differing coordinate decides), which is exactly the
monomial order used everywhere in this package, so no wrapper type is needed.
Coefficients are ``fractions.Fraction``; all arithmetic is exact.

Instances are immutable by convention: every operation returns a fresh
polynomial and nothing mutates ``_terms`` after construction.  Term iteration
is always in ascending lexicographic order, so formatting and downstream
computations are reproducible.

The rank-1 gcd runs over Z: the heuristic gcd of Char, Geddes and Gonnet
(one integer gcd of two values, read back in base xi and checked by exact
division) answers almost every call, and Euclid's algorithm over Q is the
fallback when it gives up.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]

_ZERO = Fraction(0)

# The dense rank-1 helpers below refuse degrees above this.  On
# (X^30000 + 1)/(X + 2) the heuristic gcd takes about 0.2 s.  Euclid's gcd,
# now only the fallback, takes about 1.3 s and 76 MB end to end there (2-vCPU
# VM), because its remainders carry coefficients up to 2^30000; its time and
# memory grow about quadratically in the degree.
MAX_DEGREE = 30_000


class LimitExceeded(ValueError):
    """The input describes an object beyond a declared size limit."""


def as_fraction(value: Scalar) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject inexact types."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class LaurentPolynomial:
    """A finite map from exponent vectors in Z^rank to nonzero rationals."""

    __slots__ = ("rank", "_terms")

    def __init__(
        self,
        rank: int,
        terms: Mapping[Iterable[int], Scalar] | Iterable[tuple[Iterable[int], Scalar]] = (),
    ):
        if not isinstance(rank, int) or rank < 1:
            raise ValueError("rank must be a positive integer")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Exponent, Fraction] = {}
        for exponent, coeff in items:
            exponent = tuple(exponent)
            if len(exponent) != rank:
                raise ValueError(f"exponent {exponent} does not have rank {rank}")
            if not all(isinstance(e, int) for e in exponent):
                raise ValueError(f"exponent {exponent} has non-integer coordinates")
            value = clean.get(exponent, _ZERO) + as_fraction(coeff)
            if value == 0:
                clean.pop(exponent, None)
            else:
                clean[exponent] = value
        self.rank = rank
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "LaurentPolynomial":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "LaurentPolynomial":
        return cls(rank, {(0,) * rank: 1})

    @classmethod
    def constant(cls, rank: int, value: Scalar) -> "LaurentPolynomial":
        return cls(rank, {(0,) * rank: value})

    @classmethod
    def monomial(cls, rank: int, exponent: Iterable[int], coeff: Scalar = 1) -> "LaurentPolynomial":
        return cls(rank, {tuple(exponent): coeff})

    # -- inspection ----------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponent, Fraction]]:
        """Yield (exponent, coefficient) pairs in ascending lex order."""
        for exponent in sorted(self._terms):
            yield exponent, self._terms[exponent]

    def support(self) -> tuple[Exponent, ...]:
        return tuple(sorted(self._terms))

    def coeff(self, exponent: Iterable[int]) -> Fraction:
        return self._terms.get(tuple(exponent), _ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or set(self._terms) == {(0,) * self.rank}

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.rank, _ZERO)

    def lex_min_exponent(self) -> Exponent:
        if not self._terms:
            raise ValueError("the zero polynomial has no support")
        return min(self._terms)

    def lex_max_exponent(self) -> Exponent:
        if not self._terms:
            raise ValueError("the zero polynomial has no support")
        return max(self._terms)

    def is_polynomial(self) -> bool:
        """True when every exponent is componentwise nonnegative."""
        return all(e >= 0 for exp in self._terms for e in exp)

    def require_polynomial(self) -> None:
        """Raise ValueError unless ``is_polynomial``."""
        if not self.is_polynomial():
            raise ValueError("negative exponents: not a polynomial")

    def require_lex_nonnegative(self) -> None:
        """Raise ValueError unless every exponent is lex >= 0."""
        if self._terms and min(self._terms) < (0,) * self.rank:
            raise ValueError("support must be lex-nonnegative")

    def degree(self) -> int:
        """Largest exponent of a nonzero rank-1 polynomial."""
        self._require_rank1()
        return self.lex_max_exponent()[0]

    def low_degree(self) -> int:
        """Smallest exponent of a nonzero rank-1 polynomial."""
        self._require_rank1()
        return self.lex_min_exponent()[0]

    def _require_rank1(self) -> None:
        if self.rank != 1:
            raise ValueError("operation requires a rank-1 polynomial")

    def content(self) -> Fraction:
        """Positive rational c with (1/c)*self having coprime integer coefficients.

        Returns 0 for the zero polynomial.
        """
        if not self._terms:
            return _ZERO
        # Starred arguments are lists, never generators: CPython builds a
        # generator's argument tuple at a guessed size and then resizes it,
        # so the tuple is freed to another size's free list, and over many
        # calls the free lists of every size fill with idle tuples.
        num = math.gcd(*[c.numerator for c in self._terms.values()])
        den = math.lcm(*[c.denominator for c in self._terms.values()])
        return Fraction(num, den)

    def signed_content(self) -> Fraction:
        """The content signed like the lex-max coefficient, so that
        self / signed_content() has coprime integer coefficients and a
        positive lex-max coefficient.  Returns 0 for the zero polynomial."""
        c = self.content()
        return -c if self._terms and self._terms[max(self._terms)] < 0 else c

    def ratio(self, other: "LaurentPolynomial") -> Fraction | None:
        """The c with self = c * other, or None when there is none.

        Returns 0 for a zero self; a zero other raises ValueError.
        """
        lead = other.lex_max_exponent()
        c = self._terms.get(lead, _ZERO) / other._terms[lead]
        return c if self == other.scale(c) else None

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "LaurentPolynomial | None":
        if isinstance(other, LaurentPolynomial):
            if other.rank != self.rank:
                raise ValueError("rank mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPolynomial.constant(self.rank, other)
        return None

    def __add__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self._terms)
        for exponent, coeff in other._terms.items():
            value = merged.get(exponent, _ZERO) + coeff
            if value == 0:
                merged.pop(exponent, None)
            else:
                merged[exponent] = value
        return self._raw(self.rank, merged)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return self._raw(self.rank, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        product: dict[Exponent, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exponent = tuple(a + b for a, b in zip(e1, e2))
                value = product.get(exponent, _ZERO) + c1 * c2
                if value == 0:
                    product.pop(exponent, None)
                else:
                    product[exponent] = value
        return self._raw(self.rank, product)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "LaurentPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = LaurentPolynomial.one(self.rank)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def scale(self, value: Scalar) -> "LaurentPolynomial":
        value = as_fraction(value)
        if value == 0:
            return LaurentPolynomial.zero(self.rank)
        return self._raw(self.rank, {e: c * value for e, c in self._terms.items()})

    def shift(self, delta: Iterable[int]) -> "LaurentPolynomial":
        """Multiply by the monomial X^delta."""
        delta = tuple(delta)
        if len(delta) != self.rank:
            raise ValueError("shift vector has the wrong rank")
        return self._raw(
            self.rank,
            {tuple(a + b for a, b in zip(e, delta)): c for e, c in self._terms.items()},
        )

    def sigma(self) -> "LaurentPolynomial":
        """Negate every exponent vector (the map X^g -> X^-g)."""
        return self._raw(self.rank, {tuple(-a for a in e): c for e, c in self._terms.items()})

    @classmethod
    def _raw(cls, rank: int, terms: dict[Exponent, Fraction]) -> "LaurentPolynomial":
        # Internal fast path: terms are already canonical (no zeros, right rank).
        poly = object.__new__(cls)
        poly.rank = rank
        poly._terms = terms
        return poly

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(self.rank, other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.rank == other.rank and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.rank, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.rank}, {str(self)!r})"


# -- formatting ---------------------------------------------------------


def format_poly(poly: LaurentPolynomial, names: tuple[str, ...] = ("X",)) -> str:
    """Render a polynomial in the package's text grammar.

    With one name and rank > 1, monomials print as ``X^(1,-2)``; otherwise
    each coordinate gets its own name and an integer power.  Terms appear in
    ascending lex order.
    """
    if poly.is_zero():
        return "0"
    names = tuple(names)
    vector_mode = len(names) == 1 and poly.rank > 1
    if not vector_mode and len(names) != poly.rank:
        raise ValueError("need one variable name per coordinate")
    out = ""
    for exponent, coeff in poly.terms():
        monomial = _format_monomial(exponent, names, vector_mode)
        sign = "+" if coeff > 0 else "-"
        magnitude = abs(coeff)
        if monomial is None:
            body = str(magnitude)
        elif magnitude == 1:
            body = monomial
        else:
            body = f"{magnitude}*{monomial}"
        if not out:
            out = body if sign == "+" else "-" + body
        else:
            out += f" {sign} {body}"
    return out


def _format_monomial(exponent: Exponent, names: tuple[str, ...], vector_mode: bool) -> str | None:
    if all(e == 0 for e in exponent):
        return None
    if vector_mode:
        return f"{names[0]}^({','.join(map(str, exponent))})"
    factors = []
    for name, e in zip(names, exponent):
        if e == 0:
            continue
        factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


# -- dense rank-1 helpers -------------------------------------------------
#
# Classical univariate polynomial division over Q, and the gcd that keeps
# rank-1 rational functions in lowest terms.  Inputs must be true
# polynomials (no negative exponents) of degree at most MAX_DEGREE.


def dense_coeffs(poly: LaurentPolynomial) -> list[Fraction]:
    """Coefficient list of a rank-1 polynomial, index = degree.

    A degree above ``MAX_DEGREE`` raises LimitExceeded.
    """
    poly._require_rank1()
    if poly.is_zero():
        return []
    poly.require_polynomial()
    if poly.degree() > MAX_DEGREE:
        raise LimitExceeded(f"polynomial degree exceeds the limit {MAX_DEGREE}")
    coeffs = [_ZERO] * (poly.degree() + 1)
    for exponent, coeff in poly.terms():
        coeffs[exponent[0]] = coeff
    return coeffs


def from_dense(coeffs: Iterable[Scalar]) -> LaurentPolynomial:
    """Rank-1 polynomial from a coefficient list (index = degree)."""
    return LaurentPolynomial(1, {(i,): c for i, c in enumerate(coeffs) if c != 0})


def _dense_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    remainder = list(a)
    quotient = [_ZERO] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    while len(remainder) >= len(b):
        factor = remainder[-1] / lead
        offset = len(remainder) - len(b)
        if factor != 0:
            quotient[offset] = factor
            for i, bc in enumerate(b):
                remainder[offset + i] -= factor * bc
        remainder.pop()
        while remainder and remainder[-1] == 0:
            remainder.pop()
    return quotient, remainder


def poly_divmod(a: LaurentPolynomial, b: LaurentPolynomial) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Classical long division of rank-1 polynomials: a = b*q + r, deg r < deg b."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q, r = _dense_divmod(dense_coeffs(a), dense_coeffs(b))
    return from_dense(q), from_dense(r)


def poly_divexact(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    q, r = poly_divmod(a, b)
    if not r.is_zero():
        raise ValueError("division is not exact")
    return q


def poly_gcd(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """Monic-normalized gcd of rank-1 polynomials over Q.

    The result has coprime integer coefficients and positive leading
    coefficient; gcd(0, 0) = 0.  The heuristic gcd over Z answers first;
    when it gives up, Euclid's algorithm over Q does.
    """
    x, y = dense_coeffs(a), dense_coeffs(b)
    if x and y:
        h = _heuristic_gcd(_primitive_ints(x), _primitive_ints(y))
        if h is not None:
            return from_dense(h)
    while y:
        _, x = _dense_divmod(x, y)
        x, y = y, x
    g = from_dense(x)
    return g.scale(1 / g.signed_content()) if g else g


def _primitive_ints(coeffs: list[Fraction]) -> list[int]:
    """The coprime integer coefficients of a nonzero dense polynomial, up to sign."""
    den = math.lcm(*[c.denominator for c in coeffs])
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*ints)
    return [v // g for v in ints]


def _heuristic_gcd(f: list[int], g: list[int]) -> list[int] | None:
    """The primitive gcd of two nonzero dense integer polynomials, with a
    positive leading coefficient, or None when the heuristic gives up.

    GCDHEU (Char, Geddes & Gonnet, J. Symb. Comput. 1989): gamma =
    gcd(f(xi), g(xi)) read as balanced base-xi digits gives a candidate h.
    For xi >= 2*min(|f|, |g|) + 2 (max norms), the primitive part of h is
    the gcd exactly when it divides both f and g, which exact integer
    division decides.  Otherwise xi grows, up to six times.
    """
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(6):
        gamma = math.gcd(_evaluate(f, xi), _evaluate(g, xi))
        h = []
        while gamma:
            digit = gamma % xi
            if digit > xi // 2:
                digit -= xi
            h.append(digit)
            gamma = (gamma - digit) // xi
        content = math.gcd(*h)  # gamma > 0, so the leading digit is positive
        h = [v // content for v in h]
        if _divides(h, f) and _divides(h, g):
            return h
        xi = xi * 73794 // 27011
    return None


def _evaluate(coeffs: list[int], point: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * point + c
    return value


def _divides(d: list[int], f: list[int]) -> bool:
    """Whether d divides f in Z[x]; d has a positive leading coefficient."""
    if len(d) == 1:
        return True  # a primitive constant is 1
    remainder = list(f)
    lead, n = d[-1], len(d) - 1
    for top in range(len(remainder) - 1, n - 1, -1):
        q, r = divmod(remainder[top], lead)
        if r:
            return False
        if q:
            offset = top - n
            for i in range(n):
                remainder[offset + i] -= q * d[i]
    return not any(remainder[:n])
