"""Exact linear algebra over Q.

Two solvers: sparse elimination for affine systems (used by the membership
certificate search, whose rows hold a handful of nonzeros out of thousands
of columns) and Fourier-Motzkin elimination with witness back-substitution
for linear inequality feasibility (used by the monoid stratum checks), on
Fractions.

Affine systems are sparse in and out, and on ints only: a row is a
``{column: coefficient}`` mapping of nonzero ints whose absent columns are
zero, a right-hand side is an int, and a solution is a
``{column: numerator}`` dict holding only the nonzero values, over one
common denominator.  Elimination and back-substitution run on ints, and
the affine solver builds no Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

Row = tuple[Fraction, ...]
Constraint = tuple[Row, Fraction]  # coefficients a, bound b: a . x <= b


def solve_affine(rows: Sequence[Mapping[int, int]], rhs: Sequence[int]) -> tuple[dict[int, int], int] | None:
    """One exact solution of rows . x = rhs, or None if there is none.

    The solution is (numerators, den): x_c = numerators[c] / den, where
    numerators holds the nonzero values only, den > 0 is their least common
    denominator and gcd(den, *numerators) = 1.

    Each row maps columns to nonzero ints (absent columns are zero), and
    each right-hand side is an int.  The rows are copied, never changed.
    Elimination runs over Z: a row is reduced against a pivot with leading
    entry l by cross-multiplying, l*row - a*pivot (both scaled down by
    gcd(l, a)).  Scaling a row by a nonzero int keeps its zero pattern, so
    the pivot columns and the solution are those of elimination over Q.

    Every row is reduced against the pivots found so far, always on its
    smallest column, and kept primitive with a positive leading entry when
    it becomes a pivot.  Then the pivots are back-substituted with free
    variables set to zero, so the answer is deterministic; it equals
    Gauss-Jordan's, since the pivot columns do not depend on elimination
    order.  Back-substitution keeps every value found so far over one
    common denominator, raised only as far as the next value needs, and
    reads a pivot's other entries only once some value is nonzero.
    """
    pivots: dict[int, tuple[int, dict[int, int], int]] = {}  # column -> (lead, rest of row, rhs)
    for row, b in zip(rows, rhs):
        entries = dict(row)
        while entries and (c := min(entries)) in pivots:
            a = entries.pop(c)
            lead, rest, pivot_b = pivots[c]
            if lead != 1:
                g = math.gcd(lead, a)
                lead, a = lead // g, a // g
                if lead != 1:
                    entries = {k: lead * v for k, v in entries.items()}
                    b *= lead
            for k, v in rest.items():
                if value := entries.get(k, 0) - a * v:
                    entries[k] = value
                else:
                    del entries[k]
            b -= a * pivot_b
        if entries:  # its leading column c is not yet a pivot
            lead = entries.pop(c)
            g = math.gcd(lead, b, *entries.values())
            if lead < 0:
                g = -g
            if g != 1:
                lead, b = lead // g, b // g
                entries = {k: v // g for k, v in entries.items()}
            pivots[c] = (lead, entries, b)
        elif b:
            return None
    numerators: dict[int, int] = {}
    den = 1
    for c in sorted(pivots, reverse=True):
        lead, rest, b = pivots[c]
        num = b * den  # x_c = num / (lead * den)
        if numerators:
            for k, v in rest.items():
                if k in numerators:
                    num -= v * numerators[k]
        if num:  # den grows by the least factor s that makes x_c * den * s an int
            s = lead // math.gcd(num, lead)
            if s != 1:
                den *= s
                numerators = {k: n * s for k, n in numerators.items()}
            numerators[c] = num * s // lead
    return numerators, den


def _normalized(coeffs: tuple[Fraction, ...], bound: Fraction) -> Constraint:
    # Divide by the positive content to keep numbers small and rows canonical.
    values = [c for c in coeffs if c != 0] + ([bound] if bound != 0 else [])
    if not values:
        return coeffs, bound
    g = Fraction(
        math.gcd(*[v.numerator for v in values]),
        math.lcm(*[v.denominator for v in values]),
    )
    return tuple([c / g for c in coeffs]), bound / g


def fm_witness(
    constraints: Sequence[Constraint], nvars: int
) -> list[Fraction] | None:
    """A rational point satisfying every a . x <= b, or None if infeasible.

    Eliminates the last variable, recurses, then back-substitutes a value
    inside the residual interval (midpoint when bounded on both sides), so
    the witness is deterministic.
    """
    if nvars == 0:
        return [] if all(b >= 0 for _, b in constraints) else None
    uppers: list[Constraint] = []
    lowers: list[Constraint] = []
    reduced: dict[Constraint, None] = {}
    for coeffs, bound in constraints:
        c = coeffs[nvars - 1]
        if c > 0:
            uppers.append((coeffs, bound))
        elif c < 0:
            lowers.append((coeffs, bound))
        else:
            reduced.setdefault(_normalized(coeffs[: nvars - 1], bound))
    for up_coeffs, up_bound in uppers:
        cp = up_coeffs[nvars - 1]
        for low_coeffs, low_bound in lowers:
            cn = low_coeffs[nvars - 1]
            combined = tuple([
                -cn * a + cp * b
                for a, b in zip(up_coeffs[: nvars - 1], low_coeffs[: nvars - 1])
            ])
            reduced.setdefault(_normalized(combined, -cn * up_bound + cp * low_bound))
    partial = fm_witness(list(reduced), nvars - 1)
    if partial is None:
        return None
    lo: Fraction | None = None
    hi: Fraction | None = None
    for coeffs, bound in uppers:
        rest = sum((a * x for a, x in zip(coeffs, partial)), Fraction(0))
        candidate = (bound - rest) / coeffs[nvars - 1]
        hi = candidate if hi is None else min(hi, candidate)
    for coeffs, bound in lowers:
        rest = sum((a * x for a, x in zip(coeffs, partial)), Fraction(0))
        candidate = (bound - rest) / coeffs[nvars - 1]  # negative pivot flips the bound
        lo = candidate if lo is None else max(lo, candidate)
    if lo is not None and hi is not None:
        if lo > hi:
            raise RuntimeError("fm_witness: the back-substitution interval is empty")
        value = (lo + hi) / 2
    elif lo is not None:
        value = lo
    elif hi is not None:
        value = hi
    else:
        value = Fraction(0)
    return partial + [value]
