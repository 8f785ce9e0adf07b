"""Exact arithmetic for reciprocal complements of semigroup algebras.

The package computes, over the rationals: sparse Laurent-polynomial and
rational-function arithmetic with lexicographic exponent order, numerical
semigroups and their derived semigroups, membership in reciprocal
complements with certificates, lex valuations and the induced Euclidean
division, Krull-dimension reports for lex-ordered monoids, K + m membership
for the one-coordinate free-shift family, and Egyptian-fraction utilities.
"""

from .laurent import LaurentPolynomial, format_poly
from .ratfunc import (
    RationalFunction,
    ReciprocalSum,
    format_ratfunc,
    geometric_product,
    normalize_reciprocal_sum,
    sigma_map,
    sigma_of_reciprocal,
)
from .parse import ParseError, parse_poly, parse_ratfunc, parse_rational
from .semigroup import (
    NumericalSemigroup,
    derive_sprime,
    ns_create,
    sprime_stability_check,
)
from .membership import (
    MembershipVerdict,
    brute_force_witness,
    decide_membership,
    in_reciprocal_complement,
    monomial_membership,
    verify_certificate,
)
from .valuation import (
    ValuationValue,
    classical_divide,
    euclid_divide,
    euclid_f,
    in_valuation_ring,
    lex_valuation,
)
from .dimension import (
    DimensionReport,
    LexMonoid,
    ShiftFamily,
    dimension_report,
    free_shift_monoid,
    full_cone_monoid,
    monoid_from_semigroup,
    reciprocal_noetherian,
    si_nonempty,
    si_witness,
)
from .dplusm import (
    KPlusMVerdict,
    check_dplusm_decomposition,
    kplusm_membership,
)
from .egyptian import EgyptianRepresentation, algebraic_reciprocal, greedy_egyptian, is_egyptian_element

__all__ = [
    "DimensionReport",
    "EgyptianRepresentation",
    "KPlusMVerdict",
    "LaurentPolynomial",
    "LexMonoid",
    "MembershipVerdict",
    "NumericalSemigroup",
    "ParseError",
    "RationalFunction",
    "ReciprocalSum",
    "ShiftFamily",
    "ValuationValue",
    "algebraic_reciprocal",
    "brute_force_witness",
    "check_dplusm_decomposition",
    "classical_divide",
    "decide_membership",
    "derive_sprime",
    "dimension_report",
    "euclid_divide",
    "euclid_f",
    "format_poly",
    "format_ratfunc",
    "free_shift_monoid",
    "full_cone_monoid",
    "geometric_product",
    "greedy_egyptian",
    "in_reciprocal_complement",
    "in_valuation_ring",
    "is_egyptian_element",
    "kplusm_membership",
    "lex_valuation",
    "monoid_from_semigroup",
    "monomial_membership",
    "normalize_reciprocal_sum",
    "ns_create",
    "parse_poly",
    "parse_ratfunc",
    "parse_rational",
    "reciprocal_noetherian",
    "si_nonempty",
    "si_witness",
    "sigma_map",
    "sigma_of_reciprocal",
    "sprime_stability_check",
    "verify_certificate",
]
