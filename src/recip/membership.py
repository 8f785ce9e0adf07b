"""Membership decision for the local ring attached to a derived semigroup.

The target ring is the semigroup algebra of S' localized at its homogeneous
maximal ideal.  A reduced rank-1 fraction f/g belongs to it exactly when g
does not vanish at the origin and some polynomial multiplier h with h(0) = 1
pushes both supports into S':

    support(f*h) in S'   and   support(g*h) in S'.

Only the coefficients at the gaps of S' matter, the one at gap j involves
only h_k with k <= j, and every gap is at most the Frobenius number F' of
S'; so h is truncated at F', and the search is a finite linear system.

Half of that system decides.  Let rho = f/g as a power series.  Then r is
a member exactly when rho_j = 0 at every gap j of S':

    (<=) h = g_0/g mod X^(F'+1) gives g*h = g_0 and f*h = g_0*rho below F'+1.
    (=>) For any h that clears g*h at every gap, u = g*h is supported on {0}
         and S'.  At the least gap j with rho_j != 0, every j - m (m in S',
         0 < m < j) is a smaller gap, so (f*h)_j = (rho*u)_j = g_0*rho_j != 0.

So the gap rows of g always have a solution (g_0/g mod X^(F'+1)), and any
one of them clears f*h at every gap exactly when r is a member.  The
decision reads only the terms of f and g at degree <= F'.  Only the
|gaps of S'| rows of g are built, each from the terms of g below its gap as
a sparse ``{column: coefficient}`` row of ints; ``solve_affine`` eliminates
over Z and hands back the nonzero h_k as integer numerators over one
common denominator, and the coefficients of f*h at the gaps are then
checked on those ints.  When g has no term at a gap of S', no row is
built and h = 1: every right-hand side is then 0 and stays 0 through the
elimination, so ``solve_affine`` would return h = 1 as well.  Only a
member's certificate is turned into Fractions.  For a member, the rows of
g and the full system have one solution set, so one row space and one set
of pivot columns, and the certificate is that of the full system.  The
series itself is never computed: its coefficients have g_0^(k+1) in their
denominators, log2|g_0| more bits per degree.

The reciprocal complement of the semigroup algebra of S is the image of this
ring under the exponent-negation automorphism, so membership for it is
decided on the sigma side, by the same body: the low terms of sigma(r) are
read off the top terms of r's integer form, and sigma(r) is never built.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .laurent import MAX_DEGREE, LaurentPolynomial, LimitExceeded, as_fraction
from .linsolve import solve_affine
from .ratfunc import RationalFunction, ReciprocalSum
from .semigroup import NumericalSemigroup, derive_sprime

MEMBER = "Member"
NOT_MEMBER = "NotMember"
POLE_AT_ORIGIN = "PoleAtOrigin"
LINEAR_SYSTEM_INFEASIBLE = "LinearSystemInfeasible"

_ONE = Fraction(1)  # h_0, the constant term of every certificate


@dataclass(frozen=True)
class MembershipVerdict:
    status: str
    certificate: LaurentPolynomial | None = None
    obstruction: str | None = None

    @property
    def is_member(self) -> bool:
        return self.status == MEMBER

    @classmethod
    def member(cls, certificate: LaurentPolynomial) -> "MembershipVerdict":
        return cls(status=MEMBER, certificate=certificate)

    @classmethod
    def not_member(cls, obstruction: str) -> "MembershipVerdict":
        return cls(status=NOT_MEMBER, obstruction=obstruction)


def decide_membership(r: RationalFunction, S: NumericalSemigroup) -> MembershipVerdict:
    """Decide whether the rank-1 fraction r lies in the localized S'-algebra.

    Returns Member with a multiplier certificate h (constant term 1) such
    that num(r)*h and den(r)*h have supports in S', or NotMember naming the
    failed check: a pole at the origin, or an infeasible gap-coefficient
    system (the series of r is nonzero at a gap of S').

    Decided by ``_decide`` from the terms of r's integer form p*f / (q*g)
    at degree <= F': the constant p/q changes neither the rows of g nor
    where f*h vanishes, and neither num(r) nor den(r) is built.
    """
    if r.rank != 1:
        raise ValueError("membership decision requires rank 1")
    _, _, f, g = r._ints  # reduced, with nonnegative degrees
    if 0 not in g:
        return MembershipVerdict.not_member(POLE_AT_ORIGIN)
    sprime = derive_sprime(S)
    bound = sprime.frobenius
    return _decide({e: c for e, c in f.items() if e <= bound}, {e: c for e, c in g.items() if e <= bound}, sprime)


def _decide(f: dict[int, int], g: dict[int, int], sprime: NumericalSemigroup) -> MembershipVerdict:
    """The verdict on a reduced f/g with g(0) != 0, from the terms of f and
    g at degree <= F', F' the Frobenius number of sprime, as {exponent:
    coefficient} maps.

    h solves the gap rows of g alone; it is a certificate exactly when f*h
    vanishes at every gap as well, and otherwise no h is.  A sign or a
    constant factor on f or on g changes neither.

    When g has no term at a gap, the rows are not built and h = 1: every
    right-hand side is 0 and stays 0 through the elimination, so
    solve_affine would return ({}, 1).
    """
    bound, members = sprime.frobenius, sprime.members
    numerators, den = {}, 1  # h = 1, unless g has a term at a gap
    for e in g:
        if not members >> e & 1:
            # Unknowns h_1 .. h_F' in columns 0 .. F' - 1; h_0 = 1.  The row
            # of gap j takes the terms c*X^e of g below j:
            # sum_e c * h_(j - e) = -g_j, over 1 <= j - e.
            gaps = sprime.gaps
            rows = [{gap - e - 1: c for e, c in g.items() if e < gap} for gap in gaps]
            solution = solve_affine(rows, [-g.get(gap, 0) for gap in gaps])
            if solution is None:
                raise ArithmeticError("h = g(0)/g mod X^(F'+1) solves the gap rows of g, but solve_affine found none")
            numerators, den = solution
            break

    # h clears f at every gap exactly when r is a member.  Checked on ints:
    # den * h has the integer coefficients den and numerators.
    scaled = [(0, den)] + [(k + 1, n) for k, n in numerators.items()]
    at_gaps: dict[int, int] = {}
    for e, c in f.items():
        for k, d in scaled:
            j = e + k
            if j <= bound and not members >> j & 1:
                at_gaps[j] = at_gaps.get(j, 0) + c * d
    if any(at_gaps.values()):
        return MembershipVerdict.not_member(LINEAR_SYSTEM_INFEASIBLE)
    # solve_affine's numerators are nonzero, so h needs no validation.
    terms = {(0,): _ONE}
    for k, n in numerators.items():
        terms[k + 1,] = Fraction(n, den)
    return MembershipVerdict.member(LaurentPolynomial._raw(1, terms))


def verify_certificate(
    r: RationalFunction, S: NumericalSemigroup, h: LaurentPolynomial
) -> bool:
    """Check a membership certificate against the reduced form of r.

    True when h(0) != 0, the products p*h and q*h have supports inside S',
    and q*h keeps a nonzero constant term.
    """
    if r.rank != 1 or h.rank != 1:
        raise ValueError("certificates are rank-1 polynomials")
    if h.constant_term() == 0:
        return False
    sprime = derive_sprime(S)
    ph = r.num * h
    qh = r.den * h
    if qh.constant_term() == 0:
        return False
    return all(
        sprime.contains(exponent[0])
        for poly in (ph, qh)
        for exponent in poly.support()
    )


def monomial_membership(g: int, S: NumericalSemigroup) -> bool:
    """Whether X^g belongs to the localized S'-algebra, i.e. g is in S'."""
    if g < 0:
        raise ValueError("exponent must be nonnegative")
    return derive_sprime(S).contains(g)


def in_reciprocal_complement(
    r: RationalFunction, S: NumericalSemigroup
) -> MembershipVerdict:
    """Membership of r in the reciprocal complement of the algebra of S.

    The exponent-negation automorphism sigma identifies the reciprocal
    complement with the localized S'-algebra, so this is
    ``decide_membership(sigma_map(r), S)``, read off r's integer form
    p*f / (q*g) without building sigma(r): with m the top degree of f and
    g, sigma(r) is X^m f(1/X) / X^m g(1/X) up to signs, which has a pole at
    the origin exactly when deg g < m, and its terms at degree <= F' are
    (m - e, c) for the terms c*X^e of f and g with e >= m - F'.
    """
    if r.rank != 1:
        raise ValueError("membership decision requires rank 1")
    _, _, f, g = r._ints
    m = max(max(f, default=0), max(g))
    if m not in g:  # deg g < m
        return MembershipVerdict.not_member(POLE_AT_ORIGIN)
    sprime = derive_sprime(S)
    low = m - sprime.frobenius
    return _decide({m - e: c for e, c in f.items() if e >= low}, {m - e: c for e, c in g.items() if e >= low}, sprime)


# Stage 2 of brute_force_witness stops after this many candidate checks.
_ENUMERATION_BUDGET = 60_000

# brute_force_witness refuses max(random_trials, 1) * 2^max_terms above this,
# so max_terms is at most 16.  A random candidate of up to k denominators
# costs about 2^k on average, and at the limit stage 3 takes at most about
# 3 s at degree bound 30,000 (2-vCPU VM).
MAX_SEARCH_SIZE = 2**16


def _end_terms(poly: LaurentPolynomial) -> tuple[tuple[int, Fraction], tuple[int, Fraction]]:
    """The lowest and the highest term of a nonzero rank-1 polynomial, as
    (exponent, coefficient) pairs."""
    low, high = poly.lex_min_exponent(), poly.lex_max_exponent()
    return (low[0], poly.coeff(low)), (high[0], poly.coeff(high))


def _product_end_terms(p: LaurentPolynomial, q: LaurentPolynomial) -> list[tuple[int, Fraction]]:
    """The lowest and the highest term of p*q for nonzero rank-1 p and q: a
    product of nonzero polynomials has no cancellation at its ends."""
    return [(e + f, c * d) for (e, c), (f, d) in zip(_end_terms(p), _end_terms(q))]


def _sums_to(denominators: Iterable[LaurentPolynomial], r: RationalFunction) -> bool:
    """Whether sum(1/d_i) = r, decided by clearing denominators: the sum is
    accumulated as one unreduced fraction N/D and N * den(r) = num(r) * D is
    checked, so no gcd is taken.

    The lowest and the highest terms of the two sides are products of end
    terms, and they are compared first.  That rejects nearly every wrong
    candidate without the full products: with the 60,000 enumeration checks
    against r = 1/(X+1)^100 this takes about 5 s instead of more than 40 s.
    """
    num, den = LaurentPolynomial.zero(1), LaurentPolynomial.one(1)
    for d in denominators:
        num, den = num * d + den, den * d
    if num.is_zero() or r.num.is_zero():
        return num.is_zero() and r.num.is_zero()
    return (
        _product_end_terms(num, r.den) == _product_end_terms(r.num, den)
        and num * r.den == r.num * den
    )


def _random_denominators(
    rng: random.Random, members: list[int], pool: Sequence[Fraction], max_terms: int
) -> tuple[LaurentPolynomial, ...]:
    """1..max_terms seeded random algebra elements with up to three support
    points each, coefficients drawn from the pool."""
    denominators = []
    for _ in range(rng.randint(1, max_terms)):
        width = rng.randint(1, min(3, len(members)))
        support = rng.sample(members, width)
        denominators.append(
            LaurentPolynomial(1, {(m,): rng.choice(pool) for m in support})
        )
    return tuple(denominators)


def brute_force_witness(
    r: RationalFunction,
    S: NumericalSemigroup,
    max_terms: int,
    max_degree: int,
    coeff_pool: Sequence[Fraction | int],
    seed: int,
    *,
    random_trials: int = 400,
) -> ReciprocalSum | None:
    """Search for denominators d_i over the algebra of S with sum(1/d_i) = r.

    The search is one-sided: a returned witness is exact (its sum is checked
    against r with denominators cleared, independently of the gcd that
    normalizes fractions, after a screen on the lowest and highest terms),
    while None only means nothing was found within the bounds, never a
    non-membership proof.

    Candidates are checked in one deterministic order, so the first witness
    found is reproducible:

    1. the one single denominator d with num(r) * d = den(r), when it has one
       or two terms, exponents in S up to max_degree and coefficients in the
       pool.  Its lowest term is low(den)/low(num) and its highest term
       high(den)/high(num), so it is computed, not searched for, and needs
       no gcd even when r is not reduced;
    2. multisets of 2..max_terms monomial denominators in lexicographic
       order, up to 60,000 checks, only when max_terms >= 2 and den(r) is
       a monomial c X^k.
       Such a sum is a Laurent polynomial, and a fraction in lowest terms
       is one only when its denominator is a monomial; r from the public
       constructors is in lowest terms, and this stage assumes it.  Such a
       sum has at most max_terms terms, each at an exponent -m with m in S
       up to max_degree, so the stage runs only when r's terms are so too;
    3. ``random_trials`` seeded random candidates with up to three support
       points per denominator.

    Raises LimitExceeded when max_degree is above MAX_DEGREE or
    max(random_trials, 1) * 2^max_terms is above MAX_SEARCH_SIZE.
    """
    if max_terms < 1 or max_degree < 0:
        raise ValueError("bounds must be positive")
    pool = sorted({as_fraction(c) for c in coeff_pool})
    if not pool or any(c == 0 for c in pool):
        raise ValueError("coefficient pool must be nonzero")
    if max_degree > MAX_DEGREE:
        raise LimitExceeded(f"degree bound {max_degree} exceeds the limit {MAX_DEGREE}")
    if max(random_trials, 1) > MAX_SEARCH_SIZE >> max_terms:
        raise LimitExceeded(f"search size max(trials, 1) * 2^max_terms exceeds the limit {MAX_SEARCH_SIZE}")
    members = list(S.members_up_to(max_degree))

    # Stage 1: num(r) * d = den(r) fixes the lowest and highest terms of the
    # one single denominator d; the exact check rejects a d with more terms.
    single = []
    if not r.num.is_zero():
        ends = {
            (de - ne,): dc / nc for (ne, nc), (de, dc) in zip(_end_terms(r.num), _end_terms(r.den))
        }
        if all(e in members and c in pool for (e,), c in ends.items()):
            single.append((LaurentPolynomial(1, ends),))
    # Stage 2: multisets of 2..max_terms monomial denominators, for a
    # monomial den(r) = c X^k only.  Their sums have terms only at exponents
    # -m, m in S up to max_degree, so the stage runs only when r has at most
    # max_terms terms and k - e is such an m for each term X^e of num(r).
    # The first 60,000 multisets use only the first 60,000 monomials.
    combos = ()
    (k,), _ = next(r.den.terms())
    if max_terms >= 2 and len(r.den) == 1 and len(r.num) <= max_terms and all(
        k - e <= max_degree and S.contains(k - e) for (e,), _ in r.num.terms()
    ):
        pairs = itertools.islice(itertools.product(members, pool), _ENUMERATION_BUDGET)
        monomials = [LaurentPolynomial(1, {(m,): c}) for m, c in pairs]
        combos = itertools.chain.from_iterable(
            itertools.combinations_with_replacement(monomials, size)
            for size in range(2, max_terms + 1)
        )
    # Stage 3: seeded random candidates.
    rng = random.Random(seed)
    draws = (_random_denominators(rng, members, pool, max_terms) for _ in range(random_trials))
    for denominators in itertools.chain(single, itertools.islice(combos, _ENUMERATION_BUDGET), draws):
        if _sums_to(denominators, r):
            return ReciprocalSum(denominators)
    return None


def random_reciprocal_sum(
    S: NumericalSemigroup,
    rng: random.Random,
    max_terms: int = 4,
    max_degree: int = 12,
    coeff_pool: Iterable[Fraction | int] = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)),
) -> ReciprocalSum:
    """A seeded random formal sum of reciprocals of algebra elements of S."""
    pool = [as_fraction(c) for c in coeff_pool]
    members = list(S.members_up_to(max_degree))
    return ReciprocalSum(_random_denominators(rng, members, pool, max_terms))
