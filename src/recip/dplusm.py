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

The X block enters only through that ratio: the top Y-coefficients are
compared by scaling one onto the other, so no gcd is taken.  The Y-adic
test on the sigma side is this decider composed with ``sigma_map``:
``kplusm_membership(sigma_map(r), n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laurent import LaurentPolynomial
from .ratfunc import RationalFunction, ReciprocalSum, normalize_reciprocal_sum

MEMBER = "Member"
NOT_MEMBER = "NotMember"


@dataclass(frozen=True)
class KPlusMVerdict:
    status: str
    constant_part: Fraction | None = None
    maximal_part: RationalFunction | None = None

    @property
    def is_member(self) -> bool:
        return self.status == MEMBER


def _top_y(poly: LaurentPolynomial) -> tuple[int, LaurentPolynomial]:
    """The top Y-degree of a nonzero polynomial and its terms of top
    Y-degree (coordinate 0 is Y, so the lex-max exponent has the top
    Y-degree)."""
    top = poly.lex_max_exponent()[0]
    return top, LaurentPolynomial(poly.rank, [(e, c) for e, c in poly.terms() if e[0] == top])


def uniformizer_order(r: RationalFunction) -> int | None:
    """ord_T(r) with T = Y^(-1), None for r = 0."""
    if r.is_zero():
        return None
    return r.den.lex_max_exponent()[0] - r.num.lex_max_exponent()[0]


def kplusm_membership(r: RationalFunction, n: int) -> KPlusMVerdict:
    """Decide r in K + m for the free-shift family with m = 1.

    On Member, constant_part + maximal_part re-sums exactly to r and the
    maximal part has uniformizer order >= 1.
    """
    if n < 2:
        raise ValueError("need n > m = 1 coordinates")
    if r.rank != n:
        raise ValueError(f"expected a rank-{n} rational function")
    if r.is_zero():
        return KPlusMVerdict(MEMBER, Fraction(0), RationalFunction.zero(n))
    jp, top_num = _top_y(r.num)
    jq, top_den = _top_y(r.den)
    if jp > jq:
        return KPlusMVerdict(NOT_MEMBER)
    if jp < jq:
        return KPlusMVerdict(MEMBER, Fraction(0), r)
    # Order zero: the value at T = 0 is top_num/top_den, a member exactly
    # when it is a constant c, that is when top_num = c * top_den.
    value = top_num.ratio(top_den)
    if value is None:
        return KPlusMVerdict(NOT_MEMBER)
    maximal = r - value
    residual = uniformizer_order(maximal)
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
