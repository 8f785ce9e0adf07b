"""Membership in K + m for the one-base-coordinate free-shift family.

For the rank-n monoid whose algebra is generated by Y X_i^k (one Y
coordinate, free integer shifts along each X_i), the reciprocal complement
is K + T * F[T] localized at (T), where T = Y^(-1) and F is the rational
function field in the X block.  Membership therefore reduces to the T-adic
order of the input: writing r = p/q with p, q polynomial in Y, the order is

    ord_T(r) = (top Y-degree of q) - (top Y-degree of p)

because ord_T is a valuation and the top Y-coefficients are the T-expansion
leaders.  A negative order is a pole at T = 0; order zero evaluates at T = 0
to the ratio of the top Y-coefficients, which must be a plain rational for
membership; positive order means constant part 0.

Only the one-Y case (m = 1) is decidable here; larger m raises membership
questions with no decision procedure, so it fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laurent import LaurentPolynomial
from .ratfunc import RationalFunction, ReciprocalSum, normalize_reciprocal_sum

MEMBER = "Member"
NOT_MEMBER = "NotMember"


class UndecidableError(ValueError):
    """Raised for parameter ranges this artifact cannot decide."""


@dataclass(frozen=True)
class KPlusMVerdict:
    status: str
    constant_part: Fraction | None = None
    maximal_part: RationalFunction | None = None

    @property
    def is_member(self) -> bool:
        return self.status == MEMBER


def _y_extreme(poly: LaurentPolynomial, top: bool) -> tuple[int, LaurentPolynomial]:
    """The extreme Y-degree of a nonzero polynomial and its coefficient,
    projected onto the X block (coordinate 0 is Y)."""
    degrees = [e[0] for e in poly.support()]
    j = max(degrees) if top else min(degrees)
    coeff = LaurentPolynomial(
        poly.rank - 1, [(e[1:], c) for e, c in poly.terms() if e[0] == j]
    )
    return j, coeff


def uniformizer_order(r: RationalFunction, *, sigma_side: bool = False) -> int | None:
    """ord_T(r) with T = Y^(-1) (or ord_Y when sigma_side), None for r = 0."""
    if r.is_zero():
        return None
    if sigma_side:
        jp, _ = _y_extreme(r.num, top=False)
        jq, _ = _y_extreme(r.den, top=False)
        return jp - jq
    jp, _ = _y_extreme(r.num, top=True)
    jq, _ = _y_extreme(r.den, top=True)
    return jq - jp


def kplusm_membership(
    r: RationalFunction, n: int, m: int = 1, *, sigma_side: bool = False
) -> KPlusMVerdict:
    """Decide r in K + m for the free-shift family with m = 1.

    On Member, constant_part + maximal_part re-sums exactly to r and the
    maximal part has uniformizer order >= 1.  ``sigma_side`` runs the test in
    the image coordinates where Y itself is the uniformizer.
    """
    if m != 1:
        raise UndecidableError(
            f"membership for m = {m} is undecidable in this artifact; only m = 1 is supported"
        )
    if n < 2:
        raise ValueError("need n > m = 1 coordinates")
    if r.rank != n:
        raise ValueError(f"expected a rank-{n} rational function")
    if r.is_zero():
        return KPlusMVerdict(MEMBER, Fraction(0), RationalFunction.zero(n))
    order = uniformizer_order(r, sigma_side=sigma_side)
    if order < 0:
        return KPlusMVerdict(NOT_MEMBER)
    if order > 0:
        return KPlusMVerdict(MEMBER, Fraction(0), r)
    _, cnum = _y_extreme(r.num, top=not sigma_side)
    _, cden = _y_extreme(r.den, top=not sigma_side)
    value = RationalFunction(cnum, cden).constant_value()
    if value is None:
        return KPlusMVerdict(NOT_MEMBER)
    maximal = r - value
    residual = uniformizer_order(maximal, sigma_side=sigma_side)
    if residual is not None and residual < 1:
        raise RuntimeError("kplusm_membership: maximal part has uniformizer order below 1")
    return KPlusMVerdict(MEMBER, value, maximal)


def check_dplusm_decomposition(samples: list[ReciprocalSum], n: int) -> bool:
    """Verify that sample reciprocal sums over the m = 1 family algebra all
    land in K + m.

    Denominators must live in the algebra: every support vector is zero or
    has a positive Y coordinate.  Returns True only if every normalized
    sample is a member.
    """
    for sample in samples:
        if not isinstance(sample, ReciprocalSum):
            sample = ReciprocalSum(tuple(sample))
        for d in sample.denominators:
            if d.rank != n:
                raise ValueError(f"denominator rank {d.rank}, expected {n}")
            for exponent in d.support():
                if any(exponent) and exponent[0] < 1:
                    raise ValueError(
                        f"denominator {d} lies outside the Y-positive algebra"
                    )
        verdict = kplusm_membership(normalize_reciprocal_sum(sample), n)
        if not verdict.is_member:
            return False
    return True
