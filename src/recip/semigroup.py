"""Numerical semigroups and the derived semigroup S'.

A numerical semigroup is a cofinite additive submonoid of the nonnegative
integers, stored with its minimal generating set, gap set, Frobenius number
(largest gap, -1 when the semigroup is all of N), conductor (Frobenius + 1),
and its members below the conductor as the set bits of one Python int
(bit n set when n is in S).  ``ns_create`` refuses conductors above
``MAX_CONDUCTOR``.

Every semigroup here comes from one routine, ``_close``, which closes a
bitset under adding a step by shifts of step, 2*step, 4*step, ... below a
size: after k shifts each member x has brought in x + j*step for j < 2^k.
``ns_create`` closes {0} under each generator; the Schur bound
F(S) <= (g_1 - 1)(g_k - 1) - 1 on the Frobenius number (Ramirez Alfonsin,
*The Diophantine Frobenius Problem*, 2005) fixes the size in advance.  The
minimal generators are found the same way: the smallest member that the
generators found so far do not reach is the next one.

The derived semigroup S' is generated by all values

    n*s - (s_1 + ... + s_(n-1)),   s in S,  0 < s_i < s,  s_i in S,  n >= 1.

Writing such a value as t = s + sum(s - s_i) shows t >= s + (n-1) and that
everything at or beyond the conductor of S is already in S, so only targets
below the conductor matter.  For each member s, the sums x of differences
s - m (m in S, 0 < m < s) with s + x below the conductor are the set bits
of one Python int, the closure of {0} under each difference.
The values s + x are closed under addition (the differences of s1 and of s2
are differences of s1 + s2), so with 0 they are the members of S' there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .laurent import LimitExceeded


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple[int, ...]  # minimal generating set, ascending
    gaps: tuple[int, ...]  # positive integers not in S, ascending
    frobenius: int  # largest gap, -1 for S = N
    conductor: int  # frobenius + 1
    members: int  # bit n set when n is in S, for 0 <= n < conductor

    def contains(self, n: int) -> bool:
        if n < 0:
            return False
        return n >= self.conductor or bool(self.members >> n & 1)

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


MAX_CONDUCTOR = 10_000  # derive_sprime takes about 0.06 s at this conductor (2-vCPU VM)


def _close(bits: int, step: int, size: int) -> int:
    """Close the set bits of ``bits`` under adding ``step``, below ``size``."""
    mask = (1 << size) - 1
    while step < size:
        bits |= (bits << step) & mask
        step <<= 1
    return bits


def ns_create(gens: Iterable[int]) -> NumericalSemigroup:
    """Build the numerical semigroup generated by ``gens``.

    Requires a nonempty list of positive integers with gcd 1 (otherwise the
    monoid is not cofinite in N).  Redundant generators are dropped; a
    conductor above ``MAX_CONDUCTOR`` raises LimitExceeded.
    """
    gens = sorted(set(gens))
    if not gens:
        raise ValueError("generator list must be nonempty")
    if any(g < 1 for g in gens):
        raise ValueError("generators must be positive integers")
    if math.gcd(*gens) != 1:
        raise ValueError("generators must have gcd 1")

    # The Frobenius number F is below (g_1 - 1)(g_k - 1).  When F >= MAX_CONDUCTOR,
    # a gap at or above MAX_CONDUCTOR shows below 2 * MAX_CONDUCTOR + 1: F itself,
    # or one of the g_1 consecutive integers from MAX_CONDUCTOR on (they are all
    # below F, and g_1 members in a row would leave no gap after them), or, when
    # g_1 > MAX_CONDUCTOR, MAX_CONDUCTOR itself.
    size = min((gens[0] - 1) * (gens[-1] - 1), 2 * MAX_CONDUCTOR) + 1
    bits = 1
    for g in gens:
        bits = _close(bits, g, size)
    if (~bits & ((1 << size) - 1)).bit_length() > MAX_CONDUCTOR:  # the conductor
        raise LimitExceeded(f"semigroup conductor exceeds the limit {MAX_CONDUCTOR}")
    return _from_bits(bits, size)


def _from_bits(bits: int, size: int) -> NumericalSemigroup:
    """The semigroup whose members below ``size`` are the set bits of
    ``bits`` and which holds every n >= size."""
    gap_bits = ~bits & ((1 << size) - 1)
    conductor = gap_bits.bit_length()
    members = bits & ((1 << conductor) - 1)
    # Every minimal generator is below conductor + multiplicity <= 2*conductor + 1.
    window = 2 * conductor + 2
    everything = members | ((1 << window) - (1 << conductor))
    generators: list[int] = []
    reached = 1
    while unreached := everything & ~reached:  # its lowest bit is the next generator
        generators.append((unreached & -unreached).bit_length() - 1)
        reached = _close(reached, generators[-1], window)
    gaps = [n for n in range(conductor) if gap_bits >> n & 1]
    return NumericalSemigroup(tuple(generators), tuple(gaps), conductor - 1, conductor, members)


@lru_cache(maxsize=None)
def derive_sprime(S: NumericalSemigroup) -> NumericalSemigroup:
    """The derived semigroup S' of S (see module docstring).

    S is contained in S' and both share the same smallest nonzero element.
    """
    conductor = S.conductor
    # Bit conductor - 1 - n of the mirror says n is in S, so bit d of
    # mirror >> (conductor - 1 - s) says s - d is in S.
    mirror = int(f"{S.members:0{conductor}b}"[::-1], 2)
    sprime = 0  # bit t says whether t < conductor is in S'
    members = S.members
    while members:  # each member s below the conductor, lowest first
        low = members & -members
        members ^= low
        s = low.bit_length() - 1
        limit = conductor - s  # targets s + x with x < limit stay below the conductor
        todo = mirror >> (conductor - 1 - s) & ((1 << min(s, limit)) - 1) & ~1  # differences d
        reach = 1
        while todo := todo & ~reach:  # a reach holding d is closed under d
            reach = _close(reach, (todo & -todo).bit_length() - 1, limit)
        sprime |= reach << s
    return _from_bits(sprime, conductor)


def sprime_stability_check(S: NumericalSemigroup) -> bool:
    """True when every integer at or above the second-smallest minimal
    generator belongs to S; in that case S' = S."""
    if len(S.generators) == 1:
        return True  # the semigroup is all of N
    g2 = S.generators[1]
    return all(S.contains(n) for n in range(g2, S.conductor))


def semigroup_to_json(S: NumericalSemigroup) -> dict:
    """The invariants of S and the generators of S'."""
    return {
        "generators": list(S.generators),
        "gaps": list(S.gaps),
        "frobenius": S.frobenius,
        "conductor": S.conductor,
        "sprime_generators": list(derive_sprime(S).generators),
    }


def semigroup_from_json(obj: dict) -> NumericalSemigroup:
    """Read ``{"generators": [...]}``; ValueError on any other shape."""
    gens = obj.get("generators") if isinstance(obj, dict) else None
    if not isinstance(gens, list) or not gens or not all(type(g) is int for g in gens):
        raise ValueError('semigroup JSON must be an object whose "generators" is a nonempty list of integers')
    return ns_create(gens)
