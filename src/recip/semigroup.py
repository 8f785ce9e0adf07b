"""Numerical semigroups and the derived semigroup S'.

A numerical semigroup is a cofinite additive submonoid of the nonnegative
integers, stored with its minimal generating set, gap set, Frobenius number
(largest gap, -1 when the semigroup is all of N), and conductor
(Frobenius + 1).

The derived semigroup S' is generated by all values

    n*s - (s_1 + ... + s_(n-1)),   s in S,  0 < s_i < s,  s_i in S,  n >= 1.

Writing such a value as t = s + sum(s - s_i) shows t >= s + (n-1) and that
everything at or beyond the conductor of S is already in S, so only targets
below the conductor matter.  They are enumerated by an unbounded-knapsack
reachability table over the difference set {s - m : m in S, 0 < m < s},
which is finite and exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple[int, ...]  # minimal generating set, ascending
    gaps: tuple[int, ...]  # positive integers not in S, ascending
    frobenius: int  # largest gap, -1 for S = N
    conductor: int  # frobenius + 1
    table: tuple[bool, ...]  # membership for 0 <= n < conductor

    def contains(self, n: int) -> bool:
        if n < 0:
            return False
        if n >= self.conductor:
            return True
        return self.table[n]

    @property
    def multiplicity(self) -> int:
        """Smallest nonzero element."""
        return self.generators[0]

    def members_up_to(self, bound: int) -> Iterator[int]:
        """Yield the elements of S in [0, bound]."""
        for n in range(bound + 1):
            if self.contains(n):
                yield n

    def __str__(self) -> str:
        return f"<{', '.join(map(str, self.generators))}>"


def ns_create(gens: Iterable[int]) -> NumericalSemigroup:
    """Build the numerical semigroup generated by ``gens``.

    Requires a nonempty list of positive integers with gcd 1 (otherwise the
    monoid is not cofinite in N).  Redundant generators are dropped; gaps,
    Frobenius number, and conductor are computed by dynamic programming.
    """
    gens = sorted(set(gens))
    if not gens:
        raise ValueError("generator list must be nonempty")
    if any(g < 1 for g in gens):
        raise ValueError("generators must be positive integers")
    if math.gcd(*gens) != 1:
        raise ValueError("generators must have gcd 1")

    multiplicity = gens[0]
    table = [True]  # table[n] says whether n is representable
    run = 1 if multiplicity == 1 else 0
    n = 0
    while run < multiplicity:
        n += 1
        member = any(g <= n and table[n - g] for g in gens)
        table.append(member)
        run = run + 1 if member else 0
    # The loop stops after the first run of `multiplicity` consecutive
    # members; adding multiples of the multiplicity, everything from its
    # start on is a member, and the integer just before it is the largest gap.
    conductor = n - multiplicity + 1
    gaps = tuple(k for k in range(1, conductor) if not table[k])

    def is_member(k: int) -> bool:
        return k >= conductor or table[k]

    # A sum of two nonzero members is a minimal generator plus a nonzero
    # member, so each candidate is tested against the generators found so far.
    minimal: list[int] = []
    for candidate in range(1, conductor + multiplicity + 1):
        if is_member(candidate) and not any(is_member(candidate - g) for g in minimal):
            minimal.append(candidate)

    return NumericalSemigroup(
        generators=tuple(minimal),
        gaps=gaps,
        frobenius=conductor - 1,
        conductor=conductor,
        table=tuple(table[:conductor]),
    )


@lru_cache(maxsize=None)
def derive_sprime(S: NumericalSemigroup) -> NumericalSemigroup:
    """The derived semigroup S' of S (see module docstring).

    S is contained in S' and both share the same smallest nonzero element.
    """
    conductor = S.conductor
    extra: set[int] = set()
    members_below = [s for s in range(1, conductor) if S.contains(s)]
    for s in members_below:
        limit = conductor - s - 1  # targets s + x with x <= limit stay below the conductor
        if limit < 0:
            continue
        diffs = [s - m for m in members_below if 0 < m < s]
        reach = [False] * (limit + 1)
        reach[0] = True
        for x in range(1, limit + 1):
            reach[x] = any(d <= x and reach[x - d] for d in diffs)
        extra.update(s + x for x in range(limit + 1) if reach[x])
    return ns_create(sorted(set(S.generators) | extra))


def sprime_stability_check(S: NumericalSemigroup) -> bool:
    """True when every integer at or above the second-smallest minimal
    generator belongs to S; in that case S' = S."""
    if len(S.generators) == 1:
        return True  # the semigroup is all of N
    g2 = S.generators[1]
    return all(S.contains(n) for n in range(g2, S.conductor))


def semigroup_to_json(S: NumericalSemigroup, sprime: NumericalSemigroup | None = None) -> dict:
    out = {
        "generators": list(S.generators),
        "gaps": list(S.gaps),
        "frobenius": S.frobenius,
        "conductor": S.conductor,
    }
    if sprime is not None:
        out["sprime_generators"] = list(sprime.generators)
    return out


def semigroup_from_json(obj: dict) -> NumericalSemigroup:
    if "generators" not in obj:
        raise ValueError("semigroup JSON must contain \"generators\"")
    return ns_create(obj["generators"])
