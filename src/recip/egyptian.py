"""Egyptian fraction utilities.

Greedy unit-fraction decomposition over Q, the Egyptian-element predicate
for semigroup-algebra elements (only the nonzero constants qualify), and the
closed-form reciprocal of an algebraic element from its polynomial relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .laurent import LaurentPolynomial, LimitExceeded, as_fraction

# A greedy denominator may have at most this many decimal digits, the most
# that Python writes as text by default, so every answer can be printed.
# Greedy denominators grow doubly exponentially (d_(i+1) > d_i^2 - d_i), so
# the limit also bounds the steps.
MAX_DENOMINATOR_DIGITS = 4_300
_DENOMINATOR_BOUND = 10**MAX_DENOMINATOR_DIGITS


@dataclass(frozen=True)
class EgyptianRepresentation:
    """Distinct unit fractions 1/d_1 + ... + 1/d_n, denominators ascending."""

    denominators: tuple[int, ...]

    def __post_init__(self):
        if any(d < 1 for d in self.denominators):
            raise ValueError("denominators must be positive")
        if any(a >= b for a, b in zip(self.denominators, self.denominators[1:])):
            raise ValueError("denominators must strictly increase")

    def value(self) -> Fraction:
        return sum((Fraction(1, d) for d in self.denominators), Fraction(0))


def greedy_egyptian(r: Fraction | int) -> EgyptianRepresentation:
    """Greedy decomposition of r in (0, 1] into distinct unit fractions.

    Repeatedly subtracts the largest unit fraction not exceeding the
    remainder.  The remainder's numerator drops strictly every step, so this
    terminates, and the output re-sums exactly to r.  A denominator of more
    than ``MAX_DENOMINATOR_DIGITS`` digits raises LimitExceeded as soon as
    it is found.
    """
    remainder = as_fraction(r)
    if not 0 < remainder <= 1:
        raise ValueError("input must lie in (0, 1]")
    denominators = []
    while remainder:
        d = -(-remainder.denominator // remainder.numerator)  # ceil(1/remainder)
        if d >= _DENOMINATOR_BOUND:
            raise LimitExceeded(f"a denominator exceeds the limit of {MAX_DENOMINATOR_DIGITS} digits")
        denominators.append(d)
        remainder -= Fraction(1, d)
    return EgyptianRepresentation(tuple(denominators))


def is_egyptian_element(f: LaurentPolynomial) -> bool:
    """Whether an element of a positive-cone semigroup algebra is a finite
    sum of reciprocals of algebra elements: exactly the nonzero constants."""
    f.require_lex_nonnegative()
    return not f.is_zero() and f.is_constant()


def algebraic_reciprocal(coeffs: Sequence[Fraction | int]) -> list[Fraction]:
    """Coefficients of the polynomial expressing 1/x from a relation on x.

    Given a_0 + a_1 x + ... + a_c x^c = 0 with a_0 != 0 and a_c != 0, the
    inverse is -(1/a_0) * (a_1 + a_2 x + ... + a_c x^(c-1)); the returned
    list satisfies x * p(x) = 1 modulo the relation.
    """
    coeffs = [as_fraction(c) for c in coeffs]
    if len(coeffs) < 2:
        raise ValueError("need a relation of degree at least 1")
    if coeffs[0] == 0:
        raise ValueError("constant term must be nonzero (x would be zero or a zero divisor)")
    if coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    return [-c / coeffs[0] for c in coeffs[1:]]
