"""Exact linear algebra over Q, on Fractions.

Two solvers: sparse elimination for affine systems (used by the membership
certificate search, whose rows hold a handful of nonzeros out of thousands
of columns) and Fourier-Motzkin elimination with witness back-substitution
for linear inequality feasibility (used by the monoid stratum checks).

Affine systems are sparse in and out: a row is a ``{column: coefficient}``
mapping whose absent columns are zero, and a solution is a
``{column: value}`` dict holding only the nonzero values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

Row = tuple[Fraction, ...]
Constraint = tuple[Row, Fraction]  # coefficients a, bound b: a . x <= b


def solve_affine(
    rows: Sequence[Mapping[int, Fraction]], rhs: Sequence[Fraction]
) -> dict[int, Fraction] | None:
    """One exact solution of rows . x = rhs as {column: nonzero value}, or None.

    Each row maps columns to coefficients (absent columns are zero); None
    means the system is inconsistent.  Every row is reduced against the
    pivots found so far, always on its smallest column, then the pivots are
    back-substituted with free variables set to zero, so the answer is
    deterministic; it equals Gauss-Jordan's, since the pivot columns do not
    depend on elimination order.  Entries may be ints or Fractions; each
    pivot is made a Fraction before it divides, so every value of the
    solution is an exact Fraction.
    """
    pivots: dict[int, tuple[dict[int, Fraction], Fraction]] = {}  # column -> (rest of row, rhs)
    for row, b in zip(rows, rhs):
        entries = {c: v for c, v in row.items() if v}
        while entries and (c := min(entries)) in pivots:
            factor = entries.pop(c)
            rest, pivot_b = pivots[c]
            for k, v in rest.items():
                entries[k] = entries.get(k, 0) - factor * v
                if not entries[k]:
                    del entries[k]
            b -= factor * pivot_b
        if entries:  # its leading column c is not yet a pivot
            factor = Fraction(entries.pop(c))
            pivots[c] = ({k: v / factor for k, v in entries.items()}, b / factor)
        elif b:
            return None
    solution: dict[int, Fraction] = {}
    for c in sorted(pivots, reverse=True):
        rest, b = pivots[c]
        if value := b - sum(v * solution[k] for k, v in rest.items() if k in solution):
            solution[c] = value
    return solution


def _normalized(coeffs: tuple[Fraction, ...], bound: Fraction) -> Constraint:
    # Divide by the positive content to keep numbers small and rows canonical.
    values = [c for c in coeffs if c != 0] + ([bound] if bound != 0 else [])
    if not values:
        return coeffs, bound
    g = Fraction(
        math.gcd(*[v.numerator for v in values]),
        math.lcm(*[v.denominator for v in values]),
    )
    return tuple(c / g for c in coeffs), bound / g


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
            combined = tuple(
                -cn * a + cp * b
                for a, b in zip(up_coeffs[: nvars - 1], low_coeffs[: nvars - 1])
            )
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
