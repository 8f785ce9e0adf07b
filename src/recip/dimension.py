"""Lex-ordered monoids in Z^N, stratum emptiness, and Krull-dimension reports.

A monoid is presented by plain generators (each lex-positive) and by
families: a family (base, free) contributes every element base + shift where
the shift ranges over integer vectors supported on the free coordinates.
Free coordinates must come strictly after the base's leading nonzero
coordinate, so every family element stays lex-positive.

The i-th stratum S_i collects the monoid elements whose first i-1
coordinates vanish and whose i-th coordinate is positive, that is the
elements with leading index i-1 (0-based).  Emptiness is decided by the
leading-index lemma: S_i is nonempty exactly when some generator or family
base has leading index i-1.

1. A family element base + shift has its base's leading index, because
   every shift sits strictly after that coordinate.
2. The leading index of a sum of lex-positive vectors is the smallest
   leading index among the summands: below it all summands vanish, and at
   it every summand is zero or positive, at least one positive.
3. So a monoid element has leading index i-1 exactly when one of its
   summands does, and a generator or family base with that index is itself
   such an element.

``si_witness`` still finds its explicit integer element by the exact
search over subsets of families (Fourier-Motzkin feasibility for each
case), so its witnesses stay as they were; it runs only on strata the
lemma calls nonempty.  A feasible case is made integral by one scale L,
the lcm of the denominators of its multipliers, and summed on ints; the
free shifts then set each covered coordinate before i-1 to 0 and a covered
coordinate i-1 to max(its value, L).

The report derives N - t <= dim <= N from the number t of empty strata and
pins the dimension exactly in the cases the theory settles: all strata
nonempty (dim = N), and the free-shift family below (dim = number of base
coordinates).  A nontrivial rank-1 monoid is the first case: its generators
and family bases are lex-positive, so they lead at index 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .laurent import LimitExceeded, check_rank
from .linsolve import Constraint, fm_witness
from .semigroup import NumericalSemigroup

EXACT_ALL_NONEMPTY = "AllNonempty"
EXACT_FREE_SHIFT = "FreeShiftFamily"

# Rank n of free_shift_monoid(n, m): the monoid has m * (n - m) families of
# n coordinates each, so its JSON grows as n^3.  At n = 100, m = 50 that is
# 0.56 MB, printed by ``thm56`` in under 0.1 s on a 2-vCPU VM.
MAX_FREE_SHIFT_RANK = 100


def _leading_index(vector: tuple[int, ...]) -> int:
    for idx, value in enumerate(vector):
        if value != 0:
            return idx
    raise ValueError("zero vector has no leading coordinate")


@dataclass(frozen=True)
class ShiftFamily:
    """Elements base + sum_{c in free} k_c e_c with arbitrary integers k_c."""

    base: tuple[int, ...]
    free: frozenset[int]  # 0-based coordinate indices

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(self.base))
        object.__setattr__(self, "free", frozenset(self.free))


@dataclass(frozen=True)
class LexMonoid:
    rank: int
    generators: tuple[tuple[int, ...], ...] = ()
    families: tuple[ShiftFamily, ...] = ()

    def __post_init__(self):
        check_rank(self.rank)
        zero = (0,) * self.rank
        for g in self.generators:
            if len(g) != self.rank:
                raise ValueError("generator rank mismatch")
            if not tuple(g) > zero:
                raise ValueError(f"generator {g} is not lex-positive")
        for family in self.families:
            if len(family.base) != self.rank:
                raise ValueError("family base rank mismatch")
            if not family.base > zero:
                raise ValueError(f"family base {family.base} is not lex-positive")
            lead = _leading_index(family.base)
            for c in family.free:
                if not 0 <= c < self.rank:
                    raise ValueError("free coordinate out of range")
                if c <= lead:
                    raise ValueError(
                        "free coordinates must come after the base's leading coordinate"
                    )


@dataclass(frozen=True)
class DimensionReport:
    rank: int
    si_nonempty: tuple[bool, ...]
    t: int  # number of empty strata
    lower: int  # rank - t
    upper: int  # rank
    exact: int | None
    exact_source: str | None


def si_witness(M: LexMonoid, i: int) -> tuple[int, ...] | None:
    """An integer element of the i-th stratum (1-based i), or None if empty.

    Returns None at once when ``si_nonempty`` says the stratum is empty.
    Otherwise iterates over subsets of families in ascending bitmask order
    and solves each case exactly, so the returned witness is deterministic;
    a nonempty stratum whose search finds no case raises RuntimeError.
    """
    if not si_nonempty(M, i):
        return None
    target = i - 1
    gens = M.generators
    for mask in range(1 << len(M.families)):
        used = [f for k, f in enumerate(M.families) if mask >> k & 1]
        covered = set().union(*[f.free for f in used])
        nvars = len(gens) + len(used)
        constraints: list[Constraint] = []
        for v in range(nvars):
            row = [Fraction(0)] * nvars
            row[v] = Fraction(-1)
            constraints.append((tuple(row), Fraction(0)))  # multiplier >= 0
        for c in range(target + 1):
            if c in covered:
                continue  # a free shift absorbs this coordinate
            row = [Fraction(g[c]) for g in gens] + [Fraction(f.base[c]) for f in used]
            offset = sum(f.base[c] for f in used)  # lambda_f = 1 + mu_f
            if c < target:
                constraints.append((tuple(row), Fraction(-offset)))
                constraints.append((tuple([-v for v in row]), Fraction(offset)))
            else:
                constraints.append((tuple([-v for v in row]), Fraction(offset - 1)))
        solution = fm_witness(constraints, nvars)
        if solution is None:
            continue
        return _materialize(M, target, gens, used, covered, solution)
    raise RuntimeError(f"si_witness: no case of the nonempty stratum {i} is feasible")


def _materialize(
    M: LexMonoid,
    target: int,
    gens,
    used,
    covered: set[int],
    solution: list[Fraction],
) -> tuple[int, ...]:
    """Scale a rational case solution to an explicit integer monoid element.

    One scale L, the lcm of the denominators of the generator multipliers
    and of each used family's lambda = 1 + mu, turns every multiplier into
    an integer count, and the witness is the sum of count * vector on ints.
    The free shifts then lift it: a covered coordinate before ``target``
    becomes 0, and a covered ``target`` becomes max(its value, L), that is
    L times the rational sum raised to 1 where it is below 1.  Each
    coordinate of the rational sum is an integer combination of the
    multipliers, so L already clears the denominators of these shifts.
    """
    mults = solution[: len(gens)] + [1 + mu for mu in solution[len(gens):]]
    scale = math.lcm(*[v.denominator for v in mults])
    witness = [0] * M.rank
    for k, (mult, vector) in enumerate(zip(mults, list(gens) + [f.base for f in used])):
        scaled = mult * scale
        if scaled.denominator != 1:
            raise RuntimeError("si_witness: a scaled multiplier is not an integer")
        count = scaled.numerator
        if k < len(gens) and count < 0:
            raise RuntimeError("si_witness: a generator multiplier is negative")
        if k >= len(gens) and count < 1:
            raise RuntimeError("si_witness: a used family's multiplier is below 1")
        for c in range(M.rank):
            witness[c] += count * vector[c]
    for c in covered:
        if c < target:
            witness[c] = 0
        elif c == target:
            witness[c] = max(witness[c], scale)
    if any(witness[c] != 0 for c in range(target)):
        raise RuntimeError("si_witness: the witness is nonzero before the stratum coordinate")
    if witness[target] < 1:
        raise RuntimeError("si_witness: the witness is not positive at the stratum coordinate")
    return tuple(witness)


def _leading_indices(M: LexMonoid) -> set[int]:
    return {_leading_index(g) for g in M.generators} | {_leading_index(f.base) for f in M.families}


def si_nonempty(M: LexMonoid, i: int) -> bool:
    """Whether some monoid element vanishes before coordinate i and is
    positive there (1-based i).

    By the leading-index lemma of the module docstring, this holds exactly
    when some generator or family base has leading index i - 1 (0-based):
    family shifts sit after the base's leading coordinate, and a sum of
    lex-positive vectors leads where its earliest-leading summand does.
    """
    if not 1 <= i <= M.rank:
        raise ValueError(f"stratum index {i} out of range 1..{M.rank}")
    return i - 1 in _leading_indices(M)


def _free_shift_shape(M: LexMonoid) -> int | None:
    """If M is exactly the free-shift family monoid on (n, m), return m."""
    if M.generators or not M.families:
        return None
    pairs = set()
    for f in M.families:
        if len(f.free) != 1:
            return None
        lead = _leading_index(f.base)
        if any(v != (1 if c == lead else 0) for c, v in enumerate(f.base)):
            return None
        pairs.add((lead, next(iter(f.free))))
    m = max(pairs)[0] + 1  # the pairs match only if the leads are 0 .. m - 1
    expected = {(j, i) for j in range(m) for i in range(m, M.rank)}
    return m if pairs == expected else None


def dimension_report(M: LexMonoid) -> DimensionReport:
    """Stratum flags plus the dimension interval and, when settled, the
    exact dimension of the reciprocal complement of the monoid algebra."""
    leads = _leading_indices(M)  # si_nonempty's lemma, read once for every stratum
    flags = tuple([i in leads for i in range(M.rank)])
    t = flags.count(False)
    exact: int | None = None
    source: str | None = None
    if all(flags):
        exact, source = M.rank, EXACT_ALL_NONEMPTY
    elif (m := _free_shift_shape(M)) is not None:
        exact, source = m, EXACT_FREE_SHIFT
    return DimensionReport(
        rank=M.rank,
        si_nonempty=flags,
        t=t,
        lower=M.rank - t,
        upper=M.rank,
        exact=exact,
        exact_source=source,
    )


def free_shift_monoid(n: int, m: int) -> LexMonoid:
    """The rank-n monoid with m base coordinates, each shifted freely along
    every one of the n - m trailing coordinates (one family per pair).

    Its algebra has dimension n while the reciprocal complement has
    dimension m; the trailing n - m strata are empty.  An n above
    ``MAX_FREE_SHIFT_RANK`` raises LimitExceeded.
    """
    if not (isinstance(n, int) and isinstance(m, int) and n > m >= 1):
        raise ValueError("need integers n > m >= 1")
    if n > MAX_FREE_SHIFT_RANK:
        raise LimitExceeded(f"free-shift rank {n} exceeds the limit {MAX_FREE_SHIFT_RANK}")
    families = []
    for j in range(m):
        base = tuple([1 if c == j else 0 for c in range(n)])
        for i in range(m, n):
            families.append(ShiftFamily(base, frozenset({i})))
    return LexMonoid(rank=n, families=tuple(families))


def full_cone_monoid(rank: int) -> LexMonoid:
    """The full positive cone of Z^rank under lex order, presented with one
    family per leading coordinate plus the last unit vector."""
    if rank < 1:
        raise ValueError("rank must be positive")
    families = []
    for i in range(rank - 1):
        base = tuple([1 if c == i else 0 for c in range(rank)])
        families.append(ShiftFamily(base, frozenset(range(i + 1, rank))))
    last = tuple([1 if c == rank - 1 else 0 for c in range(rank)])
    return LexMonoid(rank=rank, generators=(last,), families=tuple(families))


def monoid_from_semigroup(S: NumericalSemigroup) -> LexMonoid:
    return LexMonoid(rank=1, generators=tuple([(g,) for g in S.generators]))


def reciprocal_noetherian(M: LexMonoid) -> bool:
    """Whether the reciprocal complement of the monoid algebra is Noetherian:
    exactly the finitely generated rank-1 (numerical semigroup) case."""
    return M.rank == 1 and bool(M.generators) and not M.families


def monoid_to_json(M: LexMonoid) -> dict:
    out: dict = {"rank": M.rank, "generators": [list(g) for g in M.generators]}
    out["families"] = [
        {"base": list(f.base), "free": sorted(c + 1 for c in f.free)}
        for f in M.families
    ]
    return out


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)


def monoid_from_json(obj: dict) -> LexMonoid:
    """Read the form written by ``monoid_to_json``; ValueError on any other shape."""
    if not isinstance(obj, dict) or not {"rank", "generators", "families"} <= obj.keys():
        raise ValueError('monoid JSON must be an object with "rank", "generators" and "families"')
    rank, generators, families = obj["rank"], obj["generators"], obj["families"]
    if type(rank) is not int or rank < 1:
        raise ValueError("monoid rank must be a positive integer")
    if not isinstance(generators, list) or not all(map(_is_int_list, generators)):
        raise ValueError("monoid generators must be a list of integer lists")
    if not isinstance(families, list) or not all(
        isinstance(f, dict) and _is_int_list(f.get("base")) and _is_int_list(f.get("free"))
        for f in families
    ):
        raise ValueError('monoid families must be a list of objects with integer lists "base" and "free"')
    return LexMonoid(
        rank=rank,
        generators=tuple([tuple(g) for g in generators]),
        families=tuple([
            ShiftFamily(tuple(f["base"]), frozenset(c - 1 for c in f["free"])) for f in families
        ]),
    )


def report_to_json(report: DimensionReport) -> dict:
    return {
        "rank": report.rank,
        "si": list(report.si_nonempty),
        "t": report.t,
        "lower": report.lower,
        "upper": report.upper,
        "exact": report.exact,
        "exactSource": report.exact_source,
    }
