"""Exact affine solving and Fourier-Motzkin feasibility."""

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


def nonzero(solution):
    """A dense Gauss-Jordan solution as solve_affine's {column: nonzero value}."""
    return None if solution is None else {c: v for c, v in enumerate(solution) if v}


def test_solve_affine_unique():
    # x + y = 3, x - y = 1  ->  x = 2, y = 1
    assert solve_affine(sparse([[F(1), F(1)], [F(1), F(-1)]]), [F(3), F(1)]) == {0: F(2), 1: F(1)}


def test_solve_affine_inconsistent():
    assert solve_affine(sparse([[F(1), F(1)], [F(2), F(2)]]), [F(1), F(3)]) is None


def test_solve_affine_free_variables_default_to_zero():
    solution = solve_affine(sparse([[F(1), F(1), F(0)]]), [F(5)])
    assert solution == {0: F(5)}


def test_solve_affine_sparse_rows_and_empty_system():
    # Columns are labels, not positions: nothing is allocated up to 10^9.
    rows = [{10**9: F(2), 3: F(1)}, {3: F(1)}, {}]
    assert solve_affine(rows, [F(8), F(2), F(0)]) == {3: F(2), 10**9: F(3)}
    assert solve_affine([{}], [F(1)]) is None
    assert solve_affine([], []) == {}


def test_solve_affine_on_ints_gives_exact_fractions():
    # Only pivots become Fractions, and they divide everything else, so
    # int-only input never yields an int quotient or a float.
    rows = [{0: 2, 1: 1}, {0: 1, 1: 3, 2: 1}, {2: 3}]
    solution = solve_affine(rows, [1, 2, 2])
    assert solution == {0: F(1, 3), 1: F(1, 3), 2: F(2, 3)}
    assert all(type(v) is F for v in solution.values())
    assert all(type(v) is F for v in solve_affine([{0: 4}, {1: 1}], [2, 3]).values())
    assert rows == [{0: 2, 1: 1}, {0: 1, 1: 3, 2: 1}, {2: 3}]  # the input is left as it was


def test_solve_affine_random_consistent_systems():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        target = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        rhs = [sum((a * x for a, x in zip(row, target)), F(0)) for row in rows]
        solution = solve_affine(sparse(rows), rhs)
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
        solution = solve_affine(sparse(rows), rhs)
        assert solution == nonzero(expected), (rows, rhs)
        assert all(type(v) is Fraction and v for v in (solution or {}).values())
        shapes["zero rows"] += any(not any(row) for row in rows)
        shapes["duplicate rows"] += len(set(map(tuple, rows))) < m
        shapes["free variables"] += expected is not None and any(not any(col) for col in zip(*rows))
        shapes["inconsistent"] += expected is None
    assert min(shapes.values()) >= 50, shapes


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
