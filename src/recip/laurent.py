"""Sparse Laurent polynomials over Q with exponent vectors in Z^N.

The exponent vectors of a ``LaurentPolynomial`` are plain int tuples.  Python
compares tuples lexicographically (first differing coordinate decides),
which is exactly the monomial order used everywhere in this package, so no
wrapper type is needed.
Coefficients are ``fractions.Fraction``; all arithmetic is exact.  The
constructor adds the coefficients of a repeated exponent and drops the
zeros; it adds Fractions only where an exponent repeats, and keeps any
other coefficient as ``as_fraction`` returns it.

Instances are immutable by convention: every operation returns a fresh
polynomial (or the same one, when scaling by 1) and nothing mutates
``_terms`` after construction.  Term iteration is always in ascending
lexicographic order, so formatting and downstream computations are
reproducible.

Rational-function arithmetic runs over Z, in every rank.  A polynomial over
Z is a sparse map {exponent: int}: the exponent is a plain int in rank 1 and
a ``Vector`` (an int tuple that adds and subtracts by coordinates) above.
``int_form`` turns a polynomial into one (with a common denominator),
``int_product_sum`` multiplies and adds them, ``int_power`` raises one to a
power (``LaurentPolynomial.__pow__`` runs on it too), ``exponent_corner``
reads the coordinatewise least or greatest exponent, and ``from_int_form``
builds the Fractions back.
Their gcd, ``int_gcd``, takes rank-1 maps only.  It is the heuristic gcd of
Char, Geddes and Gonnet (one integer gcd of two values, read back in base
xi and checked by exact division, which also gives the cofactors); it
answers almost every call.  When it gives up, Euclid's algorithm over Q
answers, with each remainder divided by its content (the one Fraction
content routine, which ``LaurentPolynomial.content`` uses too), so that its
coefficients stay coprime integers.  The gcd builds dense coefficient lists
only after its ``MAX_DEGREE`` check, and only to divide by a candidate;
``poly_gcd`` is the same gcd on ``LaurentPolynomial``s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Collection, Iterable, Iterator, Mapping, Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]

_ZERO = Fraction(0)

# The rank-1 gcd and the dense helpers below refuse degrees above this.
# Euclid's gcd, only the fallback of the heuristic gcd, takes about 0.8 s
# and 60 MB on X^30000 + 1 and X + 2 (2-vCPU VM): the one remainder carries
# coefficients up to 2^30000 before it is made primitive, and that cost
# grows about quadratically in the degree.  Primitive remainders keep a
# dense pair cheap: a crafted degree-100 pair that defeats the heuristic
# takes 0.09 s (7.6 s when the remainders kept their Q coefficients).
MAX_DEGREE = 30_000

# The rank of a parsed expression, of kplusm's variables and of a lex
# monoid.  Every exponent vector holds one int per coordinate, so a rank of
# 10^9 ran out of memory before the first term was built.  At this limit, `valuation`,
# `kplusm` and `dimension` answer inputs of a few terms in under 0.03 s
# (2-vCPU VM); the work grows with the terms times the rank.
MAX_RANK = 1_000


class LimitExceeded(ValueError):
    """The input describes an object beyond a declared size limit."""


def check_rank(rank: int) -> None:
    """Raise LimitExceeded for a rank above ``MAX_RANK``."""
    if rank > MAX_RANK:
        raise LimitExceeded(f"rank {rank} exceeds the limit {MAX_RANK}")


def as_fraction(value: Scalar) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject inexact types."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _content(coeffs: Collection[Fraction]) -> Fraction:
    """The gcd of the numerators over the lcm of the denominators: the
    positive c for which the coeffs / c are coprime integers, or 0 when
    every coefficient is 0."""
    # Starred arguments are lists, never generators: CPython builds a
    # generator's argument tuple at a guessed size and then resizes it, so
    # the tuple is freed to another size's free list, and over many calls
    # the free lists of every size fill with idle tuples.
    return Fraction(math.gcd(*[c.numerator for c in coeffs]), math.lcm(*[c.denominator for c in coeffs]))


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
            value = as_fraction(coeff)
            if exponent in clean:
                value += clean[exponent]
            if value:
                clean[exponent] = value
            else:
                clean.pop(exponent, None)
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
        return _content(self._terms.values())

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
                exponent = tuple([a + b for a, b in zip(e1, e2)])
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
        if exponent == 0:
            return LaurentPolynomial.one(self.rank)
        d, f = int_form(self)
        return from_int_form(int_power(f, exponent), 1, d**exponent, self.rank)

    def scale(self, value: Scalar) -> "LaurentPolynomial":
        value = as_fraction(value)
        if value == 0:
            return LaurentPolynomial.zero(self.rank)
        if value == 1:
            return self
        if value == -1:
            return -self
        return self._raw(self.rank, {e: c * value for e, c in self._terms.items()})

    def shift(self, delta: Iterable[int]) -> "LaurentPolynomial":
        """Multiply by the monomial X^delta."""
        delta = tuple(delta)
        if len(delta) != self.rank:
            raise ValueError("shift vector has the wrong rank")
        return self._raw(
            self.rank,
            {tuple([a + b for a, b in zip(e, delta)]): c for e, c in self._terms.items()},
        )

    def sigma(self) -> "LaurentPolynomial":
        """Negate every exponent vector (the map X^g -> X^-g)."""
        return self._raw(self.rank, {tuple([-a for a in e]): c for e, c in self._terms.items()})

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
# Classical univariate polynomial division over Q.  Inputs must be true
# polynomials (no negative exponents) of degree at most MAX_DEGREE.


def dense_coeffs(poly: LaurentPolynomial) -> list[Fraction]:
    """Coefficient list of a rank-1 polynomial, index = degree.

    A degree above ``MAX_DEGREE`` raises LimitExceeded.
    """
    poly._require_rank1()
    if poly.is_zero():
        return []
    poly.require_polynomial()
    _require_degree(poly.degree())
    coeffs = [_ZERO] * (poly.degree() + 1)
    for exponent, coeff in poly.terms():
        coeffs[exponent[0]] = coeff
    return coeffs


def from_dense(coeffs: Iterable[Scalar]) -> LaurentPolynomial:
    """Rank-1 polynomial from a coefficient list (index = degree)."""
    return LaurentPolynomial(1, {(i,): c for i, c in enumerate(coeffs) if c != 0})


def _require_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise LimitExceeded(f"polynomial degree exceeds the limit {MAX_DEGREE}")


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


# -- integer polynomials -----------------------------------------------------
#
# A polynomial over Z is a sparse map {exponent: nonzero int}, with an int
# exponent in rank 1 and a Vector above.  Rational functions of every rank
# are held, added, multiplied and normalised as these maps, and the rank-1
# gcd takes them; Fractions are built only by from_int_form.


class Vector(tuple):
    """An exponent vector of rank > 1 in an int map.  Like an int exponent,
    it adds and subtracts (by coordinates) and is false only when zero;
    it compares lexicographically, as a tuple."""

    __slots__ = ()

    def __add__(self, other: "Vector") -> "Vector":
        return Vector([a + b for a, b in zip(self, other)])

    def __sub__(self, other: "Vector") -> "Vector":
        return Vector([a - b for a, b in zip(self, other)])

    def __bool__(self) -> bool:
        return any(self)


def int_form(poly: LaurentPolynomial) -> tuple[int, dict]:
    """(d, f) with poly = f / d: d is the positive lcm of the coefficient
    denominators and f maps each exponent to an int."""
    terms = poly._terms
    d = math.lcm(*[c.denominator for c in terms.values()])
    if poly.rank == 1:
        return d, {e: c.numerator * (d // c.denominator) for (e,), c in terms.items()}
    return d, {Vector(e): c.numerator * (d // c.denominator) for e, c in terms.items()}


def from_int_form(f: Mapping, p: int = 1, q: int = 1, rank: int = 1) -> LaurentPolynomial:
    """The polynomial (p/q) * f of the given rank, for an int map f with no
    zero values and a nonzero p and positive q."""
    keys = [(e,) for e in f] if rank == 1 else [tuple(e) for e in f]
    if q == 1:
        return LaurentPolynomial._raw(rank, {k: Fraction(p * c) for k, c in zip(keys, f.values())})
    return LaurentPolynomial._raw(rank, {k: Fraction(p * c, q) for k, c in zip(keys, f.values())})


def exponent_corner(pick, f: Mapping, g: Mapping):
    """The coordinatewise least (pick = min) or greatest (pick = max)
    exponent of two nonzero int maps of one rank."""
    e = pick(pick(f), pick(g))
    return e if type(e) is int else Vector([pick(column) for column in zip(*f, *g)])


def int_primitive(f: dict) -> tuple[int, dict]:
    """(c, f / c) for a nonzero int map f, where c is the gcd of its values
    signed like its leading (lex-max) coefficient."""
    content = math.gcd(*f.values())
    if f[max(f)] < 0:
        content = -content
    if content == 1:
        return 1, f
    return content, {e: c // content for e, c in f.items()}


def int_product_sum(products: Iterable[tuple[int, Mapping, Mapping]]) -> dict:
    """The sum of k * f * g over the (k, f, g) given, as an int map."""
    total: dict = {}
    for k, f, g in products:
        for e1, c1 in f.items():
            c1 *= k
            for e2, c2 in g.items():
                e = e1 + e2
                total[e] = total.get(e, 0) + c1 * c2
    return {e: c for e, c in total.items() if c}


def int_power(f: Mapping, k: int) -> dict:
    """f**k for an int map f and an int k >= 1, by repeated squaring from
    the highest bit of k, so that each multiplication is by f itself."""
    result = f
    for bit in bin(k)[3:]:
        result = int_product_sum([(1, result, result)])
        if bit == "1":
            result = int_product_sum([(1, result, f)])
    return result


def poly_gcd(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """Monic-normalized gcd of rank-1 polynomials over Q.

    The result has coprime integer coefficients and positive leading
    coefficient; gcd(0, 0) = 0.  A degree above ``MAX_DEGREE`` raises
    LimitExceeded.  This is ``int_gcd`` on the primitive integer forms.
    """
    f, g = _gcd_input(a), _gcd_input(b)
    if f and g:
        f = int_gcd(f, g)[0]
    return from_int_form(f or g)


def _gcd_input(poly: LaurentPolynomial) -> dict[int, int]:
    """The primitive int map of a rank-1 polynomial, checked as the gcd's input."""
    poly._require_rank1()
    _, f = int_form(poly)
    if not f:
        return f
    poly.require_polynomial()
    _require_degree(max(f))
    return int_primitive(f)[1]


def int_gcd(
    f: dict[int, int], g: dict[int, int]
) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """The gcd h of two nonzero primitive integer polynomials, with the
    cofactors f/h and g/h.

    f and g are int maps with nonnegative degrees; h is primitive with a
    positive leading coefficient.  A degree above ``MAX_DEGREE`` raises
    LimitExceeded.  The heuristic gcd over Z answers first; when it gives
    up, Euclid's algorithm over Q does.
    """
    _require_degree(max(f))
    _require_degree(max(g))
    return _heuristic_gcd(f, g) or _euclid_gcd(f, g)


def _heuristic_gcd(
    f: dict[int, int], g: dict[int, int]
) -> tuple[dict[int, int], dict[int, int], dict[int, int]] | None:
    """``int_gcd``'s (h, f/h, g/h), or None when the heuristic gives up.

    GCDHEU (Char, Geddes & Gonnet, J. Symb. Comput. 1989): gamma =
    gcd(f(xi), g(xi)) read as balanced base-xi digits gives a candidate h.
    For xi >= 2*min(|f|, |g|) + 2 (max norms), the primitive part of h is
    the gcd exactly when it divides both f and g, which exact integer
    division decides; that division leaves the cofactors.  Otherwise xi
    grows, up to six times.
    """
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
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
        f_h = _quotient(f, h)
        if f_h is not None:
            g_h = _quotient(g, h)
            if g_h is not None:
                return {i: v for i, v in enumerate(h) if v}, f_h, g_h
        xi = xi * 73794 // 27011
    return None


def _evaluate(f: Mapping[int, int], point: int) -> int:
    """f(point) by Horner over the nonzero terms only: between two of them
    the value is multiplied by point to the power of the degree gap."""
    degrees = sorted(f, reverse=True)
    value, previous = 0, degrees[0]
    for e in degrees:
        value = value * point ** (previous - e) + f[e]
        previous = e
    return value * point**previous


def _quotient(f: dict[int, int], d: list[int]) -> dict[int, int] | None:
    """f/d when the dense d (positive leading coefficient) divides the int
    map f in Z[x], else None."""
    if len(d) == 1:
        return f  # a primitive constant is 1
    n = len(d) - 1
    top = max(f)
    remainder = [0] * (top + 1)
    for e, c in f.items():
        remainder[e] = c
    lead = d[-1]
    quotient = {}
    for k in range(top, n - 1, -1):
        q, r = divmod(remainder[k], lead)
        if r:
            return None
        if q:
            offset = k - n
            quotient[offset] = q
            for i in range(n):
                remainder[offset + i] -= q * d[i]
    return None if any(remainder[:n]) else quotient


def _euclid_gcd(
    f: dict[int, int], g: dict[int, int]
) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """``int_gcd``'s (h, f/h, g/h) by Euclid's algorithm over Q.  Each
    remainder is divided by its content, so its coefficients stay coprime
    integers instead of growing as Euclid's do over Q."""
    x, y = dense_coeffs(from_int_form(f)), dense_coeffs(from_int_form(g))
    a, b = x, y
    while b:
        remainder = _dense_divmod(a, b)[1]
        content = _content(remainder)
        a, b = b, [c / content for c in remainder]
    _, h = int_primitive(int_form(from_dense(a))[1])
    divisor = dense_coeffs(from_int_form(h))
    return h, *[int_form(from_dense(_dense_divmod(z, divisor)[0]))[1] for z in (x, y)]
