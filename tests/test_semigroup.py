"""Numerical semigroups and the derived semigroup, checked against
independent brute-force enumeration."""

import itertools
import math
import random
import time

import pytest

from recip import semigroup
from recip.semigroup import (
    MAX_CONDUCTOR,
    LimitExceeded,
    derive_sprime,
    ns_create,
    semigroup_from_json,
    semigroup_to_json,
    sprime_stability_check,
)

# S' generators of the sprime ladder, from <4,7,9> up to <101,113,127>
# (conductor 1764), as computed by the list-based knapsack below.
LADDER_SPRIME = {
    (4, 7, 9): (4, 7, 9, 10),
    (11, 13, 17): (11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31),
    (23, 29, 31): (
        23, 29, 31, 33, 35, 37, 39, 41, 43, 45, 47, 49, 51, 53, 55, 57, 59, 61, 63, 65, 67,
        71, 73,
    ),
    (43, 47, 53): (
        43, 47, 51, 53, 55, 59, 63, 65, 67, 69, 71, 73, 75, 77, 79, 81, 83, 85, 87, 89, 91,
        93, 95, 97, 99, 101, 103, 105, 107, 109, 111, 113, 115, 117, 119, 121, 123, 125, 127,
        131, 135,
    ),
    (101, 113, 127): (
        101, 113, 125, 127, 137, 141, 149, 153, 155, 161, 167, 169, 173, 179, 181, 183, 185,
        193, 195, 197, 205, 207, 209, 211, 219, 221, 223, 225, 230, 231, 232, 233, 234, 235,
        236, 237, 239, 244, 245, 246, 247, 248, 249, 251, 253, 257, 258, 259, 260, 261, 263,
        265, 267, 269, 271, 272, 273, 275, 277, 279, 281, 283, 285, 287, 289, 291, 293, 295,
        297, 299, 301, 305, 307, 309, 311, 313, 317, 319, 321, 323, 325,
    ),
}


# -- independent oracles -----------------------------------------------------


def representable_table(gens, bound):
    """Brute-force representability of 0..bound as N-combinations of gens."""
    table = [False] * (bound + 1)
    table[0] = True
    for n in range(1, bound + 1):
        table[n] = any(g <= n and table[n - g] for g in gens)
    return table


def sprime_oracle_members(S, bound):
    """Membership table of S' up to ``bound`` by direct enumeration of the
    defining values n*s - sum(s_i), then closure under addition."""
    values = set(S.generators)
    members_of_s = [m for m in range(1, S.conductor) if S.contains(m)]
    for s in members_of_s:
        below = [m for m in members_of_s if m < s]
        for n in range(1, S.conductor - s + 1):
            for combo in itertools.combinations_with_replacement(below, n - 1):
                values.add(n * s - sum(combo))
    closure = [False] * (bound + 1)
    closure[0] = True
    for n in range(1, bound + 1):
        closure[n] = any(v <= n and closure[n - v] for v in values)
    return closure


def sprime_knapsack(S):
    """S' by one unbounded-knapsack reachability list per member s below the
    conductor, over the differences s - m, then ns_create on the union."""
    conductor = S.conductor
    extra = set()
    members_below = [s for s in range(1, conductor) if S.contains(s)]
    for s in members_below:
        limit = conductor - s - 1  # targets s + x with x <= limit stay below the conductor
        diffs = [s - m for m in members_below if 0 < m < s]
        reach = [False] * (limit + 1)
        reach[0] = True
        for x in range(1, limit + 1):
            reach[x] = any(d <= x and reach[x - d] for d in diffs)
        extra.update(s + x for x in range(limit + 1) if reach[x])
    return ns_create(sorted(set(S.generators) | extra))


def table_ns_create(gens):
    """Invariants of the semigroup of ``gens`` by the bool-table DP that
    ``ns_create`` used before the bitsets: (generators, gaps, frobenius,
    conductor, membership table below the conductor)."""
    gens = sorted(set(gens))
    multiplicity = gens[0]
    table = [True]
    run = 1 if multiplicity == 1 else 0
    n = 0
    while run < multiplicity:
        n += 1
        member = any(g <= n and table[n - g] for g in gens)
        table.append(member)
        run = run + 1 if member else 0
    return table_invariants(table)


def table_invariants(table):
    """The invariants of the semigroup holding the members flagged in
    ``table`` and every n >= len(table), by per-candidate scans."""
    gaps = tuple(k for k in range(1, len(table)) if not table[k])
    conductor = gaps[-1] + 1 if gaps else 0

    def is_member(k):
        return k >= conductor or table[k]

    multiplicity = next(k for k in range(1, conductor + 2) if is_member(k))
    minimal = []
    for candidate in range(1, conductor + multiplicity + 1):
        if is_member(candidate) and not any(is_member(candidate - g) for g in minimal):
            minimal.append(candidate)
    return tuple(minimal), gaps, conductor - 1, conductor, tuple(table[:conductor])


def table_derive_sprime(gens):
    """S' of the semigroup of ``gens`` by the per-difference bitset scan that
    ``derive_sprime`` used before ``_close``, as ``table_ns_create`` reports it."""
    table = table_ns_create(gens)[4]
    conductor = len(table)
    sprime = 1
    for s in [m for m in range(1, conductor) if table[m]]:
        limit = conductor - s
        mask = (1 << limit) - 1
        reach = 1
        for d in range(1, min(s, limit)):
            if table[s - d] and not reach >> d & 1:
                step = d
                while step < limit:
                    reach |= (reach << step) & mask
                    step <<= 1
        sprime |= reach << s
    return table_invariants([bit == "1" for bit in reversed(f"{sprime:0{conductor}b}")])


def unpruned_derive_sprime(S):
    """S' by closing every member's reach up to the conductor of S, as
    ``derive_sprime`` did before it tracked the targets still missing."""
    conductor = S.conductor
    mirror = int(f"{S.members:0{conductor}b}"[::-1], 2)
    sprime = 0
    members = S.members
    while members:
        low = members & -members
        members ^= low
        s = low.bit_length() - 1
        limit = conductor - s
        todo = mirror >> (conductor - 1 - s) & ((1 << min(s, limit)) - 1) & ~1
        reach = 1
        while todo := todo & ~reach:
            reach = semigroup._close(reach, (todo & -todo).bit_length() - 1, limit)
        sprime |= reach << s
    return semigroup._from_bits(sprime, conductor)


def fields(S):
    """The invariants of S in the shape the table oracles report them."""
    return S.generators, S.gaps, S.frobenius, S.conductor, tuple(map(S.contains, range(S.conductor)))


# -- construction -------------------------------------------------------------


def test_ns_create_natural_numbers():
    S = ns_create([1])
    assert S.generators == (1,)
    assert S.gaps == ()
    assert S.frobenius == -1
    assert S.conductor == 0


def test_ns_create_479_against_brute_force():
    table = representable_table([4, 7, 9], 22)
    expected_gaps = tuple(n for n in range(1, 23) if not table[n])
    assert expected_gaps == (1, 2, 3, 5, 6, 10)  # frozen from the oracle
    S = ns_create([4, 7, 9])
    assert S.gaps == (1, 2, 3, 5, 6, 10)
    assert S.frobenius == 10
    assert S.conductor == 11


def test_ns_create_23_against_brute_force():
    table = representable_table([2, 3], 10)
    assert tuple(n for n in range(1, 11) if not table[n]) == (1,)
    S = ns_create([2, 3])
    assert S.gaps == (1,)
    assert S.frobenius == 1
    assert S.conductor == 2


def test_ns_create_validation():
    with pytest.raises(ValueError):
        ns_create([])
    with pytest.raises(ValueError):
        ns_create([4, 6])  # gcd 2
    with pytest.raises(ValueError):
        ns_create([0, 3])
    with pytest.raises(ValueError):
        ns_create([-2, 3])


def test_minimal_generators_recomputed():
    assert ns_create([4, 7, 8, 9, 11]).generators == (4, 7, 9)
    assert ns_create([2, 3, 4, 5]).generators == (2, 3)
    assert ns_create([6, 10, 15]).generators == (6, 10, 15)


def test_membership_and_table():
    S = ns_create([4, 7, 9])
    members = [n for n in range(0, 25) if S.contains(n)]
    table = representable_table([4, 7, 9], 24)
    assert members == [n for n in range(0, 25) if table[n]]
    assert not S.contains(-1)
    assert S.multiplicity == 4


def test_gcd1_but_no_coprime_pair():
    # 6, 10, 15 are pairwise non-coprime; the conductor search must still stop.
    S = ns_create([6, 10, 15])
    table = representable_table([6, 10, 15], 60)
    assert S.frobenius == max(n for n in range(61) if not table[n])
    assert S.frobenius == 29


def test_ns_create_generators_match_brute_force():
    # The minimal generators are the members that are not a sum of two
    # nonzero members; every one is at most conductor + multiplicity.
    rng = random.Random(61)
    cases = [[6, 10, 15], [10, 14, 35], [6, 10, 45], [12, 18, 20, 15], [1], [2, 3]]
    while len(cases) < 150:
        gens = [rng.randint(2, 40) for _ in range(rng.randint(1, 4))]
        if math.gcd(*gens) == 1:
            cases.append(gens)
    for gens in cases:
        S = ns_create(gens)
        bound = S.conductor + S.multiplicity
        table = representable_table(gens, bound)
        members = [n for n in range(1, bound + 1) if table[n]]
        sums = {a + b for a in members for b in members}
        assert S.generators == tuple(n for n in members if n not in sums), gens
        assert S.gaps == tuple(n for n in range(1, bound + 1) if not table[n]), gens
        assert S.frobenius == max(S.gaps, default=-1) == S.conductor - 1
        assert [S.contains(n) for n in range(S.conductor)] == table[: S.conductor]


# -- derived semigroup ---------------------------------------------------------


def test_derive_sprime_golden_479():
    S = ns_create([4, 7, 9])
    assert derive_sprime(S).generators == (4, 7, 9, 10)


def test_derive_sprime_stable_cases():
    assert derive_sprime(ns_create([2, 3])).generators == (2, 3)
    assert derive_sprime(ns_create([1])).generators == (1,)


def test_derive_sprime_contains_s_and_keeps_multiplicity():
    for gens in ([4, 7, 9], [5, 7, 9], [3, 7], [6, 10, 15], [5, 6, 13]):
        S = ns_create(gens)
        Sp = derive_sprime(S)
        bound = S.conductor + max(S.generators)
        assert all(Sp.contains(n) for n in S.members_up_to(bound))
        assert S.multiplicity == Sp.multiplicity


def test_derive_sprime_matches_enumeration_oracle():
    for gens in ([4, 7, 9], [2, 3], [5, 7, 9], [3, 7], [5, 6, 13], [6, 10, 15]):
        S = ns_create(gens)
        Sp = derive_sprime(S)
        bound = Sp.conductor + max(Sp.generators)
        oracle = sprime_oracle_members(S, bound)
        assert [Sp.contains(n) for n in range(bound + 1)] == oracle, gens


def test_derive_sprime_matches_knapsack_on_seeded_semigroups():
    rng = random.Random(2024)
    cases = [[1], [2, 3]]
    while len(cases) < 1000:
        gens = [rng.randint(2, 40) for _ in range(rng.randint(1, 5))]
        if math.gcd(*gens) == 1 and ns_create(gens).conductor <= 250:
            cases.append(gens)
    for gens in cases:
        S = ns_create(gens)
        assert fields(derive_sprime.__wrapped__(S)) == fields(sprime_knapsack(S)), gens


def test_derive_sprime_ladder_pinned():
    for gens, expected in LADDER_SPRIME.items():
        if max(gens) < 100:  # the knapsack takes seconds at the top of the ladder
            assert sprime_knapsack(ns_create(gens)).generators == expected
        assert derive_sprime(ns_create(gens)).generators == expected


def test_derive_sprime_top_of_ladder_time_gate():
    start = time.perf_counter()
    sprime = derive_sprime.__wrapped__(ns_create([101, 113, 127]))
    elapsed = time.perf_counter() - start
    assert sprime.generators == LADDER_SPRIME[(101, 113, 127)]
    assert elapsed < 1.0


def test_bitsets_match_table_oracles_on_seeded_semigroups():
    rng = random.Random(5)
    cases = [[1], [2, 3], [6, 10, 15], [2, 2001], [41, 43, 47], [45, 52]]
    while len(cases) < 1000:
        gens = [rng.randint(2, 50) for _ in range(rng.randint(1, 5))]
        if math.gcd(*gens) == 1 and table_ns_create(gens)[3] <= 2000:
            cases.append(gens)
    assert max(table_ns_create(gens)[3] for gens in cases) > 1500
    for gens in cases:
        S = ns_create(gens)
        expected = table_ns_create(gens)
        assert fields(S) == expected, gens
        assert fields(derive_sprime.__wrapped__(S)) == table_derive_sprime(gens), gens
        assert [S.contains(n) for n in range(-2, S.conductor + 3)] == [False, False] + [
            n >= S.conductor or expected[4][n] for n in range(S.conductor + 3)
        ], gens


@pytest.mark.parametrize("gens", [[100, 101], [2, 9999]])
def test_bitsets_match_table_oracles_near_the_conductor_limit(gens):
    S = ns_create(gens)
    assert fields(S) == table_ns_create(gens)
    assert fields(derive_sprime.__wrapped__(S)) == table_derive_sprime(gens)


def test_derive_sprime_near_the_conductor_limit_time_gate():
    # <100, 101> has conductor 9900 and S' holds every n >= 100; <2, 9999>
    # has conductor 9998 and S' = S, so no member's reach can be pruned.
    for gens in ([100, 101], [2, 9999]):
        S = ns_create(gens)
        start = time.perf_counter()
        derive_sprime.__wrapped__(S)
        assert time.perf_counter() - start < 0.5, gens


def test_derive_sprime_matches_the_unpruned_closure():
    rng = random.Random(16)
    cases = [[m, m + 1, m + 2] for m in range(1, 100)] + [[3, 4999], [100, 101], [2, 9999]]
    while len(cases) < 2200:
        gens = [rng.randint(2, 50) for _ in range(rng.randint(1, 5))]
        if math.gcd(*gens) == 1:
            cases.append(gens)
    for gens in cases:
        S = ns_create(gens)
        assert derive_sprime.__wrapped__(S) == unpruned_derive_sprime(S), gens


@pytest.mark.parametrize(
    "gens, most_calls, most_bits", [([101, 113, 127], 32, 20_000), ([43, 47, 53], 32, 5_000)]
)
def test_derive_sprime_closes_only_below_the_missing_targets(monkeypatch, gens, most_calls, most_bits):
    # Closing every member's reach up to the conductor takes 1,229 and 394
    # closures of 800,198 and 80,256 bits in all on these; S' is complete at
    # 256 and 93.  The stub keeps _from_bits's own closures (one per
    # generator of S') out of the count.
    S = ns_create(gens)
    expected = derive_sprime(S)
    close, from_bits = semigroup._close, semigroup._from_bits
    calls = []

    def counted_close(bits, step, size):
        calls.append(size)
        return close(bits, step, size)

    monkeypatch.setattr(semigroup, "_close", counted_close)
    monkeypatch.setattr(semigroup, "_from_bits", lambda bits, size: (bits, size))
    bits, size = derive_sprime.__wrapped__(S)
    monkeypatch.undo()
    assert len(calls) <= most_calls
    assert sum(calls) <= most_bits
    assert from_bits(bits, size) == expected


def test_conductor_limit():
    assert ns_create([2, MAX_CONDUCTOR + 1]).conductor == MAX_CONDUCTOR
    with pytest.raises(LimitExceeded):
        ns_create([2, MAX_CONDUCTOR + 3])
    start = time.perf_counter()
    with pytest.raises(LimitExceeded):
        ns_create([1000003, 1000033])  # conductor about 10^12
    with pytest.raises(LimitExceeded):
        ns_create([10**100 + 1, 10**100 + 2])  # multiplicity far past the limit
    assert time.perf_counter() - start < 1.0


def test_reapplication_is_allowed_without_fixpoint_claims():
    Sp = derive_sprime(ns_create([4, 7, 9]))
    Spp = derive_sprime(Sp)
    assert all(Spp.contains(n) for n in Sp.members_up_to(Sp.conductor + 10))


# -- stability check -------------------------------------------------------------


def test_stability_check_examples():
    assert sprime_stability_check(ns_create([2, 3])) is True
    assert sprime_stability_check(ns_create([4, 7, 9])) is False
    assert sprime_stability_check(ns_create([1])) is True


def test_stability_implies_fixed_sprime():
    for gens in ([2, 3], [1], [3, 4, 5], [2, 5], [4, 5, 6, 7], [4, 7, 9], [5, 7, 9]):
        S = ns_create(gens)
        if sprime_stability_check(S):
            assert derive_sprime(S).generators == S.generators


# -- JSON -------------------------------------------------------------------------


def test_json_round_trip():
    S = ns_create([4, 7, 9])
    obj = semigroup_to_json(S)
    assert obj == {
        "generators": [4, 7, 9],
        "gaps": [1, 2, 3, 5, 6, 10],
        "frobenius": 10,
        "conductor": 11,
        "sprime_generators": [4, 7, 9, 10],
    }
    assert semigroup_from_json(obj) == S
    for bad in ({}, [1], {"generators": "x"}, {"generators": []}, {"generators": [4, 7.0]},
                {"generators": [True, 3]}, {"generators": [4, 6]}):
        with pytest.raises(ValueError):
            semigroup_from_json(bad)
