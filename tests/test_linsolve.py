"""Exact affine solving and Fourier-Motzkin feasibility."""

import math
import random
from fractions import Fraction

import pytest

from recip import linsolve
from recip.linsolve import fm_witness, solve_affine

F = Fraction


def gauss_jordan(rows, rhs):
    """Dense Gauss-Jordan elimination with free variables set to zero."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pivot = aug[r][c]
        aug[r] = [v / pivot for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    solution = [Fraction(0)] * n
    for row, col in pivots:
        solution[col] = aug[row][n]
    return solution


def sparse(rows):
    """Dense test rows as the {column: coefficient} rows solve_affine takes."""
    return [dict(enumerate(row)) for row in rows]


def cleared(rows, rhs):
    """A system with Fraction or zero entries as the one solve_affine takes:
    each row and its right-hand side times the lcm of their denominators,
    with the zero entries dropped, so the solutions are the same."""
    int_rows, int_rhs = [], []
    for row, b in zip(rows, rhs):
        entries, b = {c: F(v) for c, v in row.items() if v}, F(b)
        scale = math.lcm(b.denominator, *[v.denominator for v in entries.values()])
        int_rows.append({c: v.numerator * (scale // v.denominator) for c, v in entries.items()})
        int_rhs.append(b.numerator * (scale // b.denominator))
    return int_rows, int_rhs


def nonzero(solution):
    """A dense Gauss-Jordan solution as {column: nonzero value}."""
    return None if solution is None else {c: v for c, v in enumerate(solution) if v}


def as_fractions(result):
    """solve_affine's (numerators, den) as {column: Fraction}, or None,
    after checking its shape: den is a positive int coprime to the
    numerators, and the numerators are nonzero ints."""
    if result is None:
        return None
    numerators, den = result
    assert type(den) is int and den > 0, result
    assert math.gcd(den, *numerators.values()) == 1, result
    assert all(type(n) is int and n for n in numerators.values()), result
    return {c: F(n, den) for c, n in numerators.items()}


def test_solve_affine_unique():
    # x + y = 3, x - y = 1  ->  x = 2, y = 1
    assert solve_affine(*cleared(sparse([[F(1), F(1)], [F(1), F(-1)]]), [F(3), F(1)])) == ({0: 2, 1: 1}, 1)


def test_solve_affine_inconsistent():
    assert solve_affine(*cleared(sparse([[F(1), F(1)], [F(2), F(2)]]), [F(1), F(3)])) is None
    assert solve_affine([{0: 2, 1: 2}, {0: 1, 1: 1}], [1, 1]) is None


def test_solve_affine_free_variables_default_to_zero():
    solution = solve_affine(*cleared(sparse([[F(1), F(1), F(0)]]), [F(5)]))
    assert solution == ({0: 5}, 1)


def test_solve_affine_sparse_rows_and_empty_system():
    # Columns are labels, not positions: nothing is allocated up to 10^9.
    rows = [{10**9: F(2), 3: F(1)}, {3: F(1)}, {}]
    assert solve_affine(*cleared(rows, [F(8), F(2), F(0)])) == ({3: 2, 10**9: 3}, 1)
    assert solve_affine(*cleared([{}], [F(1)])) is None
    assert solve_affine([], []) == ({}, 1)


def test_solve_affine_on_ints_gives_exact_fractions():
    # Back-substitution keeps each value as a reduced pair of ints and
    # brings them to their least common denominator, so a value is an exact
    # numerator over den, never an int quotient or a float.
    rows = [{0: 2, 1: 1}, {0: 1, 1: 3, 2: 1}, {2: 3}]
    solution = solve_affine(rows, [1, 2, 2])
    assert solution == ({2: 2, 1: 1, 0: 1}, 3)
    assert as_fractions(solution) == {0: F(1, 3), 1: F(1, 3), 2: F(2, 3)}
    assert solve_affine([{0: 4}, {1: 1}], [2, 3]) == ({1: 6, 0: 1}, 2)
    assert solve_affine([{0: 6}, {1: 4}], [3, -2]) == ({1: -1, 0: 1}, 2)  # the lcm, not the product
    assert rows == [{0: 2, 1: 1}, {0: 1, 1: 3, 2: 1}, {2: 3}]  # the input is left as it was


def test_solve_affine_leaves_its_rows_unchanged():
    # Elimination pops, scales and reduces its own copy of each row; the
    # caller's rows and right-hand sides stay as they were, also when rows
    # are reduced against earlier pivots, scaled, or found inconsistent.
    rng = random.Random(11)
    reduced = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [
            {c: rng.choice([-3, -2, -1, 1, 2, 3, 10**12]) for c in rng.sample(range(n), rng.randint(1, n))}
            for _ in range(rng.randint(1, 6))
        ]
        rhs = [rng.randint(-5, 5) for _ in rows]
        before = ([dict(row) for row in rows], list(rhs))
        solve_affine(rows, rhs)
        assert (rows, rhs) == before
        reduced += len({min(row) for row in rows}) < len(rows)
    assert reduced >= 100, reduced


def test_solve_affine_random_consistent_systems():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        target = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        rhs = [sum((a * x for a, x in zip(row, target)), F(0)) for row in rows]
        solution = as_fractions(solve_affine(*cleared(sparse(rows), rhs)))
        assert solution is not None
        for row, b in zip(rows, rhs):
            assert sum((a * solution.get(c, 0) for c, a in enumerate(row)), F(0)) == b


def test_solve_affine_matches_gauss_jordan():
    rng = random.Random(7)
    shapes = {"zero rows": 0, "duplicate rows": 0, "free variables": 0, "inconsistent": 0}
    for _ in range(2000):
        m = rng.randint(0, 7)
        n = rng.randint(0, 7) if m else 0
        density = rng.choice([0.2, 0.5, 0.9])
        rows = [
            [F(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < density else F(0) for _ in range(n)]
            for _ in range(m)
        ]
        if m > 1 and rng.random() < 0.3:
            rows[rng.randrange(m)] = list(rows[rng.randrange(m)])
        if m and rng.random() < 0.2:
            rows[rng.randrange(m)] = [F(0)] * n
        target = [F(rng.randint(-3, 3)) for _ in range(n)]
        rhs = [sum((a * x for a, x in zip(row, target)), F(0)) for row in rows]
        if m and rng.random() < 0.4:
            rhs[rng.randrange(m)] += rng.randint(1, 3)
        expected = gauss_jordan(rows, rhs)
        solution = as_fractions(solve_affine(*cleared(sparse(rows), rhs)))
        assert solution == nonzero(expected), (rows, rhs)
        shapes["zero rows"] += any(not any(row) for row in rows)
        shapes["duplicate rows"] += len(set(map(tuple, rows))) < m
        shapes["free variables"] += expected is not None and any(not any(col) for col in zip(*rows))
        shapes["inconsistent"] += expected is None
    assert min(shapes.values()) >= 50, shapes


def fraction_solve_affine(rows, rhs):
    """The sparse elimination over Q that solve_affine replaced: every pivot
    row is divided by its leading entry, so the arithmetic is on Fractions.
    The solution is returned in solve_affine's shape, (numerators, den)."""
    pivots = {}
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
        if entries:
            factor = Fraction(entries.pop(c))
            pivots[c] = ({k: v / factor for k, v in entries.items()}, b / factor)
        elif b:
            return None
    solution = {}
    for c in sorted(pivots, reverse=True):
        rest, b = pivots[c]
        if value := b - sum(v * solution[k] for k, v in rest.items() if k in solution):
            solution[c] = Fraction(value)
    den = math.lcm(*[v.denominator for v in solution.values()])
    return {c: v.numerator * (den // v.denominator) for c, v in solution.items()}, den


def test_solve_affine_matches_the_fraction_elimination():
    # Elimination over Z must give exactly the solution of elimination over
    # Q, on int, Fraction and 10^12-sized entries, with dependent rows
    # (multiples and sums of earlier rows) and inconsistent right-hand sides.
    # The elimination over Q takes the rows as drawn, Fractions and zeros
    # included; solve_affine takes them cleared.
    rng = random.Random(15)
    entries = {
        "int": lambda: rng.randint(-4, 4),
        "fraction": lambda: F(rng.randint(-4, 4), rng.randint(1, 6)),
        "large": lambda: rng.randint(-(10**12), 10**12),
        "mixed": lambda: rng.choice([rng.randint(-3, 3), F(rng.randint(-3, 3), 10**12 + 39)]),
    }
    seen = {"solved": 0, "inconsistent": 0, "dependent": 0, "free": 0}
    for i in range(20_000):
        draw = list(entries.values())[i % len(entries)]
        m, n = rng.randint(0, 7), rng.randint(1, 7)
        density = rng.choice([0.3, 0.6, 1.0])
        rows = [{c: draw() for c in range(n) if rng.random() < density} for _ in range(m)]
        target = {c: draw() for c in range(n)}
        rhs = [sum((v * target[c] for c, v in row.items()), F(0)) for row in rows]
        if m > 1 and rng.random() < 0.4:  # a dependent row
            j, k, a = rng.randrange(m), rng.randrange(m), rng.choice([1, -2, F(3, 5)])
            rows[j] = {c: a * v for c, v in rows[k].items()}
            rhs[j] = a * rhs[k]
            if rng.random() < 0.5:
                rows[j] = {c: rows[j].get(c, 0) + rows[k - 1].get(c, 0) for c in {*rows[j], *rows[k - 1]}}
                rhs[j] = rhs[j] + rhs[k - 1]
            seen["dependent"] += 1
        if m and rng.random() < 0.3:
            rhs[rng.randrange(m)] += draw() or 1
        if rng.random() < 0.5:
            rhs = [int(b) if b.denominator == 1 else b for b in rhs]
        expected = as_fractions(fraction_solve_affine(rows, rhs))
        solution = as_fractions(solve_affine(*cleared(rows, rhs)))
        assert solution == expected, (rows, rhs)
        if solution is None:
            seen["inconsistent"] += 1
        else:
            seen["solved"] += 1
            seen["free"] += len(solution) < n
    assert min(seen.values()) >= 2000, seen


def test_fm_simple_box():
    # 0 <= x <= 1, 0 <= y <= 1, x + y >= 3/2
    constraints = [
        ((F(-1), F(0)), F(0)),
        ((F(1), F(0)), F(1)),
        ((F(0), F(-1)), F(0)),
        ((F(0), F(1)), F(1)),
        ((F(-1), F(-1)), F(-3, 2)),
    ]
    point = fm_witness(constraints, 2)
    assert point is not None
    for coeffs, bound in constraints:
        assert sum((a * x for a, x in zip(coeffs, point)), F(0)) <= bound


def test_fm_infeasible():
    # x <= 0 and x >= 1
    constraints = [((F(1),), F(0)), ((F(-1),), F(-1))]
    assert fm_witness(constraints, 1) is None


def test_fm_equality_encoded_as_two_inequalities():
    # x + y = 0, x >= 1  ->  y = -x <= -1
    constraints = [
        ((F(1), F(1)), F(0)),
        ((F(-1), F(-1)), F(0)),
        ((F(-1), F(0)), F(-1)),
    ]
    point = fm_witness(constraints, 2)
    assert point is not None
    assert point[0] + point[1] == 0
    assert point[0] >= 1


def test_fm_random_feasible_systems_give_valid_points():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, 4)
        center = [F(rng.randint(-3, 3)) for _ in range(n)]
        constraints = []
        for _ in range(rng.randint(1, 6)):
            coeffs = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            slack = F(rng.randint(0, 3))
            bound = sum((a * x for a, x in zip(coeffs, center)), F(0)) + slack
            constraints.append((coeffs, bound))
        point = fm_witness(constraints, n)
        assert point is not None  # center satisfies everything
        for coeffs, bound in constraints:
            assert sum((a * x for a, x in zip(coeffs, point)), F(0)) <= bound


def test_fm_interval_postcondition_is_an_explicit_check(monkeypatch):
    # x1 <= x0 and x1 >= 1 - x0 need x0 >= 1/2; a recursion that hands back
    # x0 = 0 leaves the interval [1, 0], which must raise even under python -O.
    def wrong_recursion(constraints, nvars):
        return fm_witness(constraints, nvars) if nvars == 2 else [F(0)]

    monkeypatch.setattr(linsolve, "fm_witness", wrong_recursion)
    constraints = [((F(-1), F(1)), F(0)), ((F(-1), F(-1)), F(-1))]
    with pytest.raises(RuntimeError, match="interval is empty"):
        linsolve.fm_witness(constraints, 2)
