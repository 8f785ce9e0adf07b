"""Numerical semigroups and the derived semigroup S'.

A numerical semigroup is a cofinite additive submonoid of the nonnegative
integers, stored with its minimal generating set, gap set, Frobenius number
(largest gap, -1 when the semigroup is all of N), and conductor
(Frobenius + 1).  ``ns_create`` refuses conductors above ``MAX_CONDUCTOR``.

The derived semigroup S' is generated by all values

    n*s - (s_1 + ... + s_(n-1)),   s in S,  0 < s_i < s,  s_i in S,  n >= 1.

Writing such a value as t = s + sum(s - s_i) shows t >= s + (n-1) and that
everything at or beyond the conductor of S is already in S, so only targets
below the conductor matter.  For each member s, the sums x of differences
s - m (m in S, 0 < m < s) with s + x below the conductor are the set bits
of one Python int, closed under each difference d by shifts of d, 2d, 4d, ...
The values s + x are closed under addition (the differences of s1 and of s2
are differences of s1 + s2), so with 0 they are the members of S' there.
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


MAX_CONDUCTOR = 10_000  # derive_sprime takes about 2 s at this conductor (2-vCPU VM)


class LimitExceeded(ValueError):
    """The input describes a semigroup beyond a declared size limit."""


def ns_create(gens: Iterable[int]) -> NumericalSemigroup:
    """Build the numerical semigroup generated by ``gens``.

    Requires a nonempty list of positive integers with gcd 1 (otherwise the
    monoid is not cofinite in N).  Redundant generators are dropped; gaps,
    Frobenius number, and conductor are computed by dynamic programming;
    a conductor above ``MAX_CONDUCTOR`` raises LimitExceeded.
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
    # The loop stops after the first run of `multiplicity` consecutive
    # members; adding multiples of the multiplicity, everything from its
    # start on is a member.  The conductor is at least the current run's start.
    while run < multiplicity:
        n += 1
        member = any(g <= n and table[n - g] for g in gens)
        table.append(member)
        run = run + 1 if member else 0
        if n - run >= MAX_CONDUCTOR:
            raise LimitExceeded(f"semigroup conductor exceeds the limit {MAX_CONDUCTOR}")
    return _from_table(table)


def _from_table(table: list[bool]) -> NumericalSemigroup:
    """The semigroup with the members flagged in ``table`` and all n >= len(table)."""
    gaps = tuple(k for k in range(1, len(table)) if not table[k])
    conductor = gaps[-1] + 1 if gaps else 0

    def is_member(k: int) -> bool:
        return k >= conductor or table[k]

    multiplicity = next(k for k in range(1, conductor + 2) if is_member(k))
    # A sum of two nonzero members is a minimal generator plus a nonzero
    # member, so each candidate is tested against the generators found so far.
    minimal: list[int] = []
    for candidate in range(1, conductor + multiplicity + 1):
        if is_member(candidate) and not any(is_member(candidate - g) for g in minimal):
            minimal.append(candidate)
    return NumericalSemigroup(tuple(minimal), gaps, conductor - 1, conductor, tuple(table[:conductor]))


@lru_cache(maxsize=None)
def derive_sprime(S: NumericalSemigroup) -> NumericalSemigroup:
    """The derived semigroup S' of S (see module docstring).

    S is contained in S' and both share the same smallest nonzero element.
    """
    conductor = S.conductor
    sprime = 1  # bit t says whether t < conductor is in S'
    for s in [m for m in range(1, conductor) if S.table[m]]:
        limit = conductor - s  # targets s + x with x < limit stay below the conductor
        mask = (1 << limit) - 1
        reach = 1
        for d in range(1, min(s, limit)):  # differences s - m, smallest first
            if S.table[s - d] and not reach >> d & 1:  # a reach holding d is closed under d
                step = d
                while step < limit:
                    reach |= (reach << step) & mask
                    step <<= 1
        sprime |= reach << s
    return _from_table([bit == "1" for bit in reversed(f"{sprime:0{conductor}b}")])


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
    """Read ``{"generators": [...]}``; ValueError on any other shape."""
    gens = obj.get("generators") if isinstance(obj, dict) else None
    if not isinstance(gens, list) or not gens or not all(type(g) is int for g in gens):
        raise ValueError('semigroup JSON must be an object whose "generators" is a nonempty list of integers')
    return ns_create(gens)
