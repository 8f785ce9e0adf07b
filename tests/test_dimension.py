"""Stratum emptiness, witnesses, and dimension reports for lex monoids."""

import random
import sys
import types
from fractions import Fraction

import pytest

from recip import dimension, linsolve
from recip.dimension import (
    EXACT_ALL_NONEMPTY,
    EXACT_FREE_SHIFT,
    LexMonoid,
    ShiftFamily,
    dimension_report,
    free_shift_monoid,
    full_cone_monoid,
    monoid_from_json,
    monoid_from_semigroup,
    monoid_to_json,
    reciprocal_noetherian,
    report_to_json,
    si_nonempty,
    si_witness,
)
from recip.laurent import LimitExceeded
from recip.semigroup import ns_create

NN2 = LexMonoid(rank=2, generators=((1, 0), (0, 1)))
EX_FAMILY = LexMonoid(rank=2, families=(ShiftFamily((1, 0), frozenset({1})),))


def in_monoid_span(M, vector, depth=6):
    """Brute-force check that ``vector`` is a sum of generators and family
    elements (small search, used to re-check materialized witnesses)."""
    from itertools import product

    gens = list(M.generators)
    fams = list(M.families)
    span = max((abs(v) for v in vector), default=0) + 2

    def family_elements(f):
        free = sorted(f.free)
        for shifts in product(range(-span, span + 1), repeat=len(free)):
            element = list(f.base)
            for c, s in zip(free, shifts):
                element[c] += s
            yield tuple(element)

    pool = gens + [e for f in fams for e in family_elements(f)]

    def search(target, k):
        if all(v == 0 for v in target):
            return True
        if k == 0:
            return False
        for e in pool:
            rest = tuple(t - v for t, v in zip(target, e))
            if search(rest, k - 1):
                return True
        return False

    return search(tuple(vector), depth)


def oracle_witness(M, i):
    """The all-subsets search that decided stratum emptiness before the
    leading-index lemma: for each subset of families marked as used, one
    exact feasibility case (multipliers >= 0 on generators, >= 1 on used
    families, free coordinates eliminated), materialized to an integer
    element; None when no case is feasible."""
    target = i - 1
    gens = M.generators
    for mask in range(1 << len(M.families)):
        used = [f for k, f in enumerate(M.families) if mask >> k & 1]
        covered = set().union(*(f.free for f in used)) if used else set()
        nvars = len(gens) + len(used)
        constraints = []
        for v in range(nvars):
            row = [Fraction(0)] * nvars
            row[v] = Fraction(-1)
            constraints.append((tuple(row), Fraction(0)))
        for c in range(target + 1):
            if c in covered:
                continue
            row = [Fraction(g[c]) for g in gens] + [Fraction(f.base[c]) for f in used]
            offset = sum(f.base[c] for f in used)
            if c < target:
                constraints.append((tuple(row), Fraction(-offset)))
                constraints.append((tuple(-v for v in row), Fraction(offset)))
            else:
                constraints.append((tuple(-v for v in row), Fraction(offset - 1)))
        solution = linsolve.fm_witness(constraints, nvars)
        if solution is not None:
            return dimension._materialize(M, target, gens, used, covered, solution)
    return None


def _lead_vector(rng, rank, lead):
    vector = [0] * rank
    vector[lead] = rng.randint(1, 3)
    for c in range(lead + 1, rank):
        vector[c] = rng.randint(-3, 3)
    return tuple(vector)


def seeded_monoids(seed, count):
    """Lex monoids of rank 1 to 4 with 0 to 8 families (few of the costly
    large counts, since the oracle solves 2^families cases per empty
    stratum) and 0 to 2 generators, leading indices drawn at random."""
    rng = random.Random(seed)
    for _ in range(count):
        rank = rng.randint(1, 4)
        nfam = rng.choices(range(9), weights=(32, 32, 32, 16, 8, 4, 2, 1, 1))[0] if rank > 1 else 0
        families = []
        for _ in range(nfam):
            lead = rng.randrange(rank - 1)
            tail = range(lead + 1, rank)
            free = frozenset(c for c in tail if rng.random() < 0.5) or {rng.choice(tail)}
            families.append(ShiftFamily(_lead_vector(rng, rank, lead), free))
        generators = tuple(_lead_vector(rng, rank, rng.randrange(rank)) for _ in range(rng.randint(0, 2)))
        yield LexMonoid(rank=rank, generators=generators, families=tuple(families))


# -- validation -----------------------------------------------------------------


def test_monoid_validation():
    with pytest.raises(ValueError):
        LexMonoid(rank=2, generators=((0, 0),))
    with pytest.raises(ValueError):
        LexMonoid(rank=2, generators=((0, -1),))
    with pytest.raises(ValueError):
        # free coordinate not after the leading coordinate of the base
        LexMonoid(rank=2, families=(ShiftFamily((0, 1), frozenset({0})),))
    with pytest.raises(ValueError):
        LexMonoid(rank=2, families=(ShiftFamily((1, 0), frozenset({0})),))


# -- stratum checks -----------------------------------------------------------------


def test_nn2_strata_nonempty():
    assert si_nonempty(NN2, 1) is True
    assert si_nonempty(NN2, 2) is True


def test_family_monoid_second_stratum_empty():
    assert si_nonempty(EX_FAMILY, 2) is False
    assert si_nonempty(EX_FAMILY, 1) is True


def test_witness_is_integer_monoid_element():
    witness = si_witness(EX_FAMILY, 1)
    assert witness is not None
    assert witness[0] >= 1
    assert all(isinstance(v, int) for v in witness)
    assert in_monoid_span(EX_FAMILY, witness)
    w2 = si_witness(NN2, 2)
    assert w2 is not None and w2[0] == 0 and w2[1] >= 1
    assert in_monoid_span(NN2, w2)


def test_stratum_index_validation():
    with pytest.raises(ValueError):
        si_nonempty(NN2, 0)
    with pytest.raises(ValueError):
        si_nonempty(NN2, 3)


def test_witnesses_scale_from_fractional_solutions():
    # The rational case solution is lambda = 1/2 on the generator (0, 2);
    # scaling by the common denominator must land back inside the monoid.
    M = LexMonoid(rank=2, generators=((1, 0), (0, 2)))
    witness = si_witness(M, 2)
    assert witness is not None
    assert witness[0] == 0 and witness[1] >= 1
    assert in_monoid_span(M, witness)


@pytest.mark.parametrize(
    "monoid, i, solution, broken",
    [
        (NN2, 1, [Fraction(-1), Fraction(0)], "generator multiplier is negative"),
        (EX_FAMILY, 1, [Fraction(-1)], "multiplier is below 1"),
        (NN2, 2, [Fraction(1), Fraction(1)], "nonzero before the stratum coordinate"),
        (NN2, 1, [Fraction(0), Fraction(1)], "not positive at the stratum coordinate"),
        (NN2, 1, [Fraction(1, 2), Fraction(0)], "not an integer"),
    ],
)
def test_witness_postconditions_are_explicit_checks(monkeypatch, monoid, i, solution, broken):
    # A wrong case solution must raise even under python -O, which strips asserts.
    monkeypatch.setattr(
        dimension, "fm_witness", lambda constraints, nvars: solution if nvars == len(solution) else None
    )
    if broken == "not an integer":
        monkeypatch.setattr(dimension, "math", types.SimpleNamespace(lcm=lambda *values: 1))
    with pytest.raises(RuntimeError, match=broken):
        si_witness(monoid, i)


def test_lemma_matches_the_all_subsets_search():
    # Flags, witnesses and every None agree with the search the lemma replaced.
    empty = 0
    families = set()
    for M in seeded_monoids(8, 1000):
        families.add(len(M.families))
        for i in range(1, M.rank + 1):
            expected = oracle_witness(M, i)
            assert si_nonempty(M, i) == (expected is not None), (M, i)
            assert si_witness(M, i) == expected, (M, i)
            empty += expected is None
    assert empty >= 300 and families == set(range(9)), (empty, families)


def test_reports_run_no_fourier_motzkin(monkeypatch):
    def refuse(*args):
        raise AssertionError("fm_witness called")

    for module in [m for name, m in sys.modules.items() if name == "recip" or name.startswith("recip.")]:
        if hasattr(module, "fm_witness"):
            monkeypatch.setattr(module, "fm_witness", refuse)
    ladder = [free_shift_monoid(n, m) for n in range(2, 9) for m in range(1, n)]
    for M in ladder + list(seeded_monoids(9, 200)):
        report = dimension_report(M)
        assert report.si_nonempty == tuple(si_nonempty(M, i) for i in range(1, M.rank + 1))
    assert dimension_report(free_shift_monoid(8, 4)).t == 4


def test_witness_search_failing_on_a_nonempty_stratum_raises(monkeypatch):
    # The lemma says S_1 of NN2 is nonempty, so a search that finds no case is a fault.
    monkeypatch.setattr(dimension, "fm_witness", lambda constraints, nvars: None)
    with pytest.raises(RuntimeError, match="no case of the nonempty stratum 1"):
        si_witness(NN2, 1)
    assert si_witness(EX_FAMILY, 2) is None  # empty: the search does not run


def test_free_shift_rank_limit():
    assert dimension.MAX_FREE_SHIFT_RANK == 100
    assert dimension_report(free_shift_monoid(100, 50)).t == 50
    with pytest.raises(LimitExceeded, match="limit 100"):
        free_shift_monoid(101, 1)


def test_monotonicity_adding_generators_preserves_nonempty_strata():
    rng = random.Random(73)
    for _ in range(25):
        rank = rng.choice((2, 3))
        gens = []
        for _ in range(rng.randint(1, 3)):
            while True:
                g = tuple(rng.randint(-2, 3) for _ in range(rank))
                if g > (0,) * rank:
                    break
            gens.append(g)
        M = LexMonoid(rank=rank, generators=tuple(gens))
        flags = [si_nonempty(M, i) for i in range(1, rank + 1)]
        while True:
            extra = tuple(rng.randint(-2, 3) for _ in range(rank))
            if extra > (0,) * rank:
                break
        bigger = LexMonoid(rank=rank, generators=tuple(gens) + (extra,))
        for i, flag in enumerate(flags, start=1):
            if flag:
                assert si_nonempty(bigger, i)


# -- reports ----------------------------------------------------------------------


def test_report_nn2_exact_two():
    report = dimension_report(NN2)
    assert report.exact == 2
    assert report.exact_source == EXACT_ALL_NONEMPTY
    assert report.lower == report.upper == 2


def test_report_family_exact_one():
    report = dimension_report(EX_FAMILY)
    assert report.si_nonempty == (True, False)
    assert report.t == 1
    assert report.lower == 1 and report.upper == 2
    assert report.exact == 1
    assert report.exact_source == EXACT_FREE_SHIFT
    assert report.rank == 2  # the algebra itself has dimension 2


def test_report_rank1_semigroup():
    report = dimension_report(monoid_from_semigroup(ns_create([4, 7, 9])))
    assert report.exact == 1
    assert report.exact_source == EXACT_ALL_NONEMPTY


def test_every_nontrivial_rank1_monoid_has_all_strata_nonempty():
    # A lex-positive rank-1 vector leads at index 0, so the report of any
    # rank-1 monoid with a generator or family pins dim = 1 by AllNonempty.
    rng = random.Random(29)
    for _ in range(200):
        generators = tuple((rng.randint(1, 50),) for _ in range(rng.randint(0, 3)))
        families = tuple(ShiftFamily((rng.randint(1, 50),), frozenset()) for _ in range(rng.randint(0, 2)))
        if not generators and not families:
            continue
        report = dimension_report(LexMonoid(rank=1, generators=generators, families=families))
        assert (report.exact, report.exact_source) == (1, EXACT_ALL_NONEMPTY)
    assert dimension_report(LexMonoid(rank=1)).exact is None


def test_free_shift_monoid_shapes():
    assert free_shift_monoid(2, 1) == EX_FAMILY
    M42 = free_shift_monoid(4, 2)
    report = dimension_report(M42)
    assert report.t == 2
    assert report.exact == 2
    assert report.exact_source == EXACT_FREE_SHIFT
    M32 = free_shift_monoid(3, 2)
    report = dimension_report(M32)
    assert report.t == 1
    assert report.exact == 2
    with pytest.raises(ValueError):
        free_shift_monoid(2, 2)
    with pytest.raises(ValueError):
        free_shift_monoid(1, 0)


def test_full_cone_reports():
    for rank in range(1, 5):
        report = dimension_report(full_cone_monoid(rank))
        assert all(report.si_nonempty)
        assert report.exact == rank
        assert report.exact_source == EXACT_ALL_NONEMPTY


def test_exact_never_exceeds_rank():
    monoids = [
        NN2,
        EX_FAMILY,
        free_shift_monoid(3, 1),
        free_shift_monoid(4, 3),
        full_cone_monoid(3),
        monoid_from_semigroup(ns_create([2, 3])),
    ]
    for M in monoids:
        report = dimension_report(M)
        assert report.lower <= report.upper
        if report.exact is not None:
            assert report.lower <= report.exact <= report.upper
            assert report.exact <= M.rank


def test_interval_only_when_no_theorem_applies():
    # A family monoid that is not the free-shift shape: empty stratum but no
    # exact value.
    M = LexMonoid(
        rank=3,
        families=(ShiftFamily((1, 0, 0), frozenset({1, 2})),),
    )
    report = dimension_report(M)
    assert report.exact is None
    assert report.exact_source is None
    assert report.lower == 3 - report.t


# -- noetherian flags ----------------------------------------------------------------


def test_noetherian_flags():
    assert reciprocal_noetherian(monoid_from_semigroup(ns_create([4, 7, 9]))) is True
    assert reciprocal_noetherian(NN2) is False
    assert reciprocal_noetherian(monoid_from_semigroup(ns_create([1]))) is True


# -- JSON ------------------------------------------------------------------------------


def test_monoid_json_round_trip():
    obj = monoid_to_json(EX_FAMILY)
    assert obj == {
        "rank": 2,
        "generators": [],
        "families": [{"base": [1, 0], "free": [2]}],
    }
    assert monoid_from_json(obj) == EX_FAMILY
    obj2 = monoid_to_json(NN2)
    assert monoid_from_json(obj2) == NN2


def test_report_json_shape():
    payload = report_to_json(dimension_report(EX_FAMILY))
    assert payload == {
        "rank": 2,
        "si": [True, False],
        "t": 1,
        "lower": 1,
        "upper": 2,
        "exact": 1,
        "exactSource": "FreeShiftFamily",
    }
