"""The four benchmark workloads.

Each workload turns a seed into inputs during set-up, then yields rounds of
operations.  ``run`` is the timed call into the library; ``check`` verifies
its result afterwards, outside the timed region; ``corrupt`` returns a
deliberately wrong result so the self-test can show the checks bite.

The library is reached only through ``lib`` (see ``run.load_library``), by
attribute lookup at call time, so the tracer's patched names are the ones
called.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import math
import random
from fractions import Fraction

COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2))


def _conductor(gens) -> int:
    """Conductor of the numerical semigroup generated by ``gens`` (gcd 1)."""
    m = min(gens)
    table = [True]
    run = 0
    while run < m:
        n = len(table)
        member = any(g <= n and table[n - g] for g in gens)
        table.append(member)
        run = run + 1 if member else 0
    return len(table) - m


def _members(gens, bound: int) -> list[int]:
    table = [True] + [False] * bound
    for n in range(1, bound + 1):
        table[n] = any(g <= n and table[n - g] for g in gens)
    return [n for n in range(bound + 1) if table[n]]


class Closure:
    """Ring closure of the reciprocal complement of k[<4,7,9>].

    The pool holds 270 normalised sums 1/d1 + 1/d2, each d with one to three
    terms X^s (s in <4,7,9>, s <= 12) and coefficients +-1, +-2, +-1/2, as in
    the acceptance pool but with exactly two reciprocals.  One operation is a
    seeded pair: a + b and a * b, each decided by in_reciprocal_complement.

    The draw is balanced, so that a run's cost depends little on the seed.
    An operation's cost grows with the degree spans of its two sums'
    reduced denominators (their total explains some 80 % of the variance of
    its log), and pools drawn freely differ in mean span enough to move
    op_p50_ms by a fifth.  So the pool holds each span as often as
    SPAN_QUOTA says, sorted by span with the seed ordering sums of equal
    span, and block k of ten rounds pairs sum i with sum i + PAIR_OFFSETS[k]
    (mod the pool size), in seeded order: every seed pairs the same spans,
    and only which sums of a span meet, and when, depends on it.

    Two rounds in three end with the fixed ANCHOR pair (about 140 ms, where
    all but a few of the pool's pairs take under 100 ms): with some 30
    rounds a run, the operation holding op_tail_ms (ten slower ones beyond
    it) falls near the middle of the anchor's group rather than among the
    few slowest pool pairs a seed happens to draw.
    """

    name = "closure"
    cache = "S' of <4,7,9> is derived once during set-up; every operation hits the cache"
    pool_size = 270
    # Sums of the pool per denominator span (degree - low degree), spans of
    # 21 and more together: the frequencies of 2700 free draws, scaled.
    SPAN_QUOTA = {
        0: 32, 1: 9, 2: 8, 3: 12, 4: 22, 5: 17, 6: 5, 7: 17, 8: 25, 9: 16, 10: 7,
        11: 18, 12: 27, 13: 11, 14: 6, 15: 8, 16: 9, 17: 4, 18: 3, 19: 5, 20: 4, 21: 5,
    }
    PAIR_OFFSETS = (67, 135, 202, 34, 101, 168, 236, 1)
    # Denominators of the anchor pair 1/d1 + 1/d2 and 1/d3 + 1/d4, as
    # {exponent: coefficient}.
    ANCHOR = (
        {0: Fraction(-1, 2), 8: 1, 12: -2},
        {0: -1, 8: -1, 12: 1},
        {4: 1, 11: -1, 12: -1},
        {0: -2, 4: 1, 7: Fraction(-1, 2)},
    )
    traced_rounds = 6
    round_size = 27

    def setup(self, lib, seed):
        S = lib.semigroup.ns_create([4, 7, 9])
        lib.semigroup.derive_sprime(S)
        rng = random.Random(seed)
        members = _members((4, 7, 9), 12)

        def denominator():
            support = rng.sample(members, rng.randint(1, 3))
            return lib.laurent.LaurentPolynomial(1, {(m,): rng.choice(COEFFS) for m in support})

        left = dict(self.SPAN_QUOTA)
        pool = []
        while len(pool) < self.pool_size:
            r = lib.ratfunc.normalize_reciprocal_sum([denominator(), denominator()])
            span = min(r.den.degree() - r.den.low_degree(), 21)
            if left[span]:
                left[span] -= 1
                pool.append((span, rng.random(), r))
        pool = [r for _, _, r in sorted(pool, key=lambda entry: entry[:2])]
        d1, d2, d3, d4 = (
            lib.laurent.LaurentPolynomial(1, {(e,): c for e, c in d.items()}) for d in self.ANCHOR
        )
        self.anchor = (
            lib.ratfunc.normalize_reciprocal_sum([d1, d2]),
            lib.ratfunc.normalize_reciprocal_sum([d3, d4]),
        )
        self.S = S
        self.pool = pool
        self.pair_seed = seed

    def rounds(self):
        rng = random.Random(self.pair_seed)
        pool, n = self.pool, len(self.pool)
        count = itertools.count()
        for offset in itertools.cycle(self.PAIR_OFFSETS):
            pairs = [(pool[i], pool[(i + offset) % n]) for i in range(n)]
            rng.shuffle(pairs)
            for k in range(0, n, self.round_size):
                anchor = [self.anchor] if next(count) % 3 else []
                yield pairs[k : k + self.round_size] + anchor

    def before(self, lib):
        pass

    def run(self, lib, op):
        a, b = op
        total = a + b
        product = a * b
        recip = lib.membership.in_reciprocal_complement
        return total, product, recip(total, self.S), recip(product, self.S)

    def check(self, lib, op, result):
        total, product, v_total, v_product = result
        for value, verdict in ((total, v_total), (product, v_product)):
            if not verdict.is_member:
                return False
            image = lib.ratfunc.sigma_map(value)
            if not lib.membership.verify_certificate(image, self.S, verdict.certificate):
                return False
        return True

    def corrupt(self, lib, result):
        total, product, v_total, v_product = result
        flipped = lib.membership.MembershipVerdict.not_member("Corrupted")
        return total, product, flipped, v_product


# S' generators of the fixed ladder points, pinned from the library as of
# the commit that introduced this benchmark.  <101,113,127> (conductor 1764)
# is the top of the ladder.
PINNED_SPRIME = {
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

TOP_GENS = (101, 113, 127)

# Seeded rungs, (multiplicity low, high, conductor low, high), log-spaced
# below the pinned top.  A seeded semigroup at the <101,113,127> scale costs
# 2 to 5 s, set largely by its S' Frobenius number, which the benchmark
# cannot control without computing S' itself, so the seeded rungs stop at
# multiplicity 61.  The conductor bands keep the cost of each rung steady
# across seeds.  On a 2-vCPU VM a light rung costs 1 to 50 ms, the
# multiplicity-40 rung 100 to 400 ms and the multiplicity-60 rung 0.5 to 1.5 s.
LIGHT_RUNGS = (
    (4, 6, 1, 20),
    (7, 9, 20, 40),
    (11, 13, 55, 75),
    (17, 19, 100, 145),
    (21, 23, 150, 200),
    (26, 28, 210, 300),
)
RUNG_40 = (39, 41, 430, 560)
RUNG_60 = (59, 61, 850, 1000)

# The pinned point <43,47,53> (conductor 523, about 150 ms) runs in every
# round with the same two sums, drawn once from ANCHOR_SUMS_SEED whatever
# the run's seed.  The heavy seeded rungs run in a few rounds only: with
# some 40 rounds a run, the anchor is the largest group of slow
# operations, and op_tail_ms (ten slower ones beyond it) falls inside it,
# where its value does not depend on which heavy semigroups a seed drew.
ANCHOR_GENS = (43, 47, 53)
ANCHOR_SUMS_SEED = 0
RUNG_40_ROUNDS = (3, 9)  # rounds k with k % 12 in this set
RUNG_60_ROUNDS = (0,)


class SprimeLadder:
    """Numerical semigroups from multiplicity 4 to 101, each with a cold
    derived semigroup S' and two membership decisions.

    A round is the light pinned points, two seeded three-generator
    semigroups per light rung and the anchor <43,47,53>; every sixth round
    adds a seeded semigroup of multiplicity about 40 and every twelfth one
    of multiplicity about 60.  One operation is ns_create, derive_sprime and
    in_reciprocal_complement on two sums.

    The heavy rungs would hold most of a run's time if every round had
    them; as it is, a run has several hundred operations, so the light ones
    around the median are many and op_p50_ms reads the same in runs of one
    seed.
    """

    name = "sprime_ladder"
    cache = "S' cache cleared before every operation: each pays for a cold S', as a CLI call does"
    prepared_rounds = 24
    traced_rounds = 3
    sums_per_op = 2

    def _random_gens(self, rng, rung):
        m_lo, m_hi, c_lo, c_hi = rung
        while True:
            m = rng.randint(m_lo, m_hi)
            width = max(2, m // 4)
            a = rng.randint(m + 1, m + width)
            b = rng.randint(a + 1, a + width)
            if math.gcd(m, a, b) == 1 and c_lo <= _conductor((m, a, b)) <= c_hi:
                return (m, a, b)

    def _op(self, lib, rng, gens):
        # Each sum is 1/(c X^s) + 1/(c1 + c2 X^t) with |c1| != |c2|: the two
        # denominators share no factor, so the reduced value stays sparse and
        # the membership cost is set by S', not by cancellation in the sum.
        members = _members(gens, 2 * gens[0])[1:]
        sums = []
        for _ in range(self.sums_per_op):
            s, t = rng.choice(members), rng.choice(members)
            c1, c2 = rng.sample((1, 2), 2)
            monomial = lib.laurent.LaurentPolynomial(1, {(s,): rng.choice((1, -1, 2, -2))})
            binomial = lib.laurent.LaurentPolynomial(
                1, {(0,): c1 * rng.choice((1, -1)), (t,): c2 * rng.choice((1, -1))}
            )
            sums.append(lib.ratfunc.normalize_reciprocal_sum([monomial, binomial]))
        return gens, _conductor(gens), sums

    def setup(self, lib, seed):
        rng = random.Random(seed)
        self.top = self._op(lib, rng, TOP_GENS)
        anchor = self._op(lib, random.Random(ANCHOR_SUMS_SEED), ANCHOR_GENS)
        light = [gens for gens in PINNED_SPRIME if gens not in (TOP_GENS, ANCHOR_GENS)]
        self.prepared = []
        for k in range(self.prepared_rounds):
            rungs = LIGHT_RUNGS + LIGHT_RUNGS
            rungs += (RUNG_40,) if k % 12 in RUNG_40_ROUNDS else ()
            rungs += (RUNG_60,) if k % 12 in RUNG_60_ROUNDS else ()
            self.prepared.append(
                [self._op(lib, rng, gens) for gens in light]
                + [self._op(lib, rng, self._random_gens(rng, rung)) for rung in rungs]
                + [anchor]
            )

    def rounds(self):
        # The top of the ladder costs as much as several ladder rounds, so
        # it runs once per run, at the end of the first round.
        yield self.prepared[0] + [self.top]
        for k in itertools.count(1):
            yield self.prepared[k % len(self.prepared)]

    def before(self, lib):
        lib.sprime_cache.cache_clear()

    def run(self, lib, op):
        gens, _, sums = op
        S = lib.semigroup.ns_create(gens)
        sprime = lib.semigroup.derive_sprime(S)
        recip = lib.membership.in_reciprocal_complement
        return S, sprime, [recip(r, S) for r in sums]

    def check(self, lib, op, result):
        gens, conductor, sums = op
        S, sprime, verdicts = result
        if S.conductor != conductor or sprime.multiplicity != S.multiplicity:
            return False
        if not all(sprime.contains(n) for n in range(conductor) if S.contains(n)):
            return False
        pinned = PINNED_SPRIME.get(gens)
        if pinned is not None and sprime.generators != pinned:
            return False
        for r, verdict in zip(sums, verdicts):
            if not verdict.is_member:
                return False
            image = lib.ratfunc.sigma_map(r)
            if not lib.membership.verify_certificate(image, S, verdict.certificate):
                return False
        return True

    def corrupt(self, lib, result):
        S, sprime, verdicts = result
        wrong = lib.semigroup.ns_create(sprime.generators + (sprime.multiplicity - 1,))
        return S, wrong, verdicts


def _lead(vector) -> int:
    return next(i for i, v in enumerate(vector) if v)


def _lead_vector(rng, rank, lead):
    vector = [0] * rank
    vector[lead] = rng.randint(1, 3)
    for c in range(lead + 1, rank):
        vector[c] = rng.randint(-3, 3)
    return tuple(vector)


# (rank, families, empty strata) of the seeded monoids in one round.  Cost
# grows as 2^families for every empty stratum, so the round fixes both.
STRATA_CLASSES = (
    (1, 0, 0),
    (2, 0, 0), (2, 2, 1), (2, 4, 1), (2, 6, 1),
    (3, 2, 1), (3, 4, 1), (3, 6, 2),
    (4, 0, 2), (4, 2, 2), (4, 4, 1), (4, 6, 2),
)
# One eight-family monoid per round, its rank cycling through 2, 3 and 4.
EIGHT_FAMILY_CLASSES = ((2, 8, 1), (3, 8, 1), (4, 8, 1))

# The free_shift_monoid(n, m) ladder: every point up to n = 5, then the
# points of n = 6 and 7 that cost under 0.3 s on a 2-vCPU VM.  (6, 4), about
# 240 ms, is the slowest operation of a round, where no other takes 100 ms:
# with some 20 rounds a run, the operation holding op_tail_ms (ten slower
# ones beyond it) falls near the middle of the (6, 4) group.  The points
# that cost 10 to 65 ms, (6, 1), (6, 5), (7, 1) and (7, 6), place the median
# of a round's 28 operations between the fixed points (5, 4) and (4, 2),
# about 4 ms each, rather than between two seeded monoids.  The costliest
# point of n = 6, (6, 3) at about 0.75 s, would leave too few rounds, so it
# runs once per run; (6, 2) costs 0.35 s and (7, 3) some 20 s.
THM56_LADDER = tuple((n, m) for n in range(2, 6) for m in range(1, n)) + (
    (6, 1), (6, 4), (6, 5), (7, 1), (7, 6),
)
THM56_TOP = (6, 3)


class Strata:
    """Stratum flags and dimension reports of lex-ordered monoids.

    A round is the thm56 ladder plus one seeded monoid of rank 1 to 4 per
    class, with generators and 0 to 8 shift families; the first round also
    has the ladder's top.  One operation is one dimension_report.
    """

    name = "strata"
    cache = "no cache on this path"
    prepared_rounds = 24
    traced_rounds = 3

    def _random_monoid(self, lib, rng, rank, nfam, empty):
        dim = lib.dimension
        while True:
            present = rng.sample(range(rank), rank - empty)
            fam_leads = [lead for lead in present if lead < rank - 1]
            if fam_leads or not nfam:
                break
        leads = [rng.choice(fam_leads) for _ in range(nfam)]
        # Generators cover every nonempty stratum no family reaches.
        gen_leads = [lead for lead in present if lead not in leads]
        gen_leads += [rng.choice(present) for _ in range(rng.randint(0, 2))]
        families = []
        for lead in leads:
            tail = range(lead + 1, rank)
            free = frozenset(c for c in tail if rng.random() < 0.5) or {rng.choice(tail)}
            families.append(dim.ShiftFamily(_lead_vector(rng, rank, lead), free))
        generators = tuple(_lead_vector(rng, rank, lead) for lead in gen_leads)
        return dim.LexMonoid(rank=rank, generators=generators, families=tuple(families))

    def setup(self, lib, seed):
        rng = random.Random(seed)
        ladder = [
            (("thm56", n, m), lib.dimension.free_shift_monoid(n, m)) for n, m in THM56_LADDER
        ]
        self.prepared = []
        for k in range(self.prepared_rounds):
            classes = STRATA_CLASSES + (EIGHT_FAMILY_CLASSES[k % 3],)
            seeded = [(("monoid",), self._random_monoid(lib, rng, *cls)) for cls in classes]
            self.prepared.append(ladder + seeded)
        n, m = THM56_TOP
        self.top = (("thm56", n, m), lib.dimension.free_shift_monoid(n, m))

    def rounds(self):
        yield self.prepared[0] + [self.top]
        for k in itertools.count(1):
            yield self.prepared[k % len(self.prepared)]

    def before(self, lib):
        pass

    def run(self, lib, op):
        return lib.dimension.dimension_report(op[1])

    def check(self, lib, op, report):
        kind, M = op
        leads = {_lead(g) for g in M.generators} | {_lead(f.base) for f in M.families}
        if report.si_nonempty != tuple(i in leads for i in range(M.rank)):
            return False
        for i, flag in enumerate(report.si_nonempty, 1):
            if flag:
                witness = lib.dimension.si_witness(M, i)
                if witness is None or any(witness[: i - 1]) or witness[i - 1] < 1:
                    return False
        if kind[0] == "thm56":
            _, n, m = kind
            return report.exact == m and report.t == n - m
        return True

    def corrupt(self, lib, report):
        flags = (not report.si_nonempty[0],) + report.si_nonempty[1:]
        return dataclasses.replace(report, si_nonempty=flags)


# Fixed commands with the exit code and stdout pinned from the CLI as of the
# commit that introduced this benchmark: every subcommand, --format plain, a
# usage error and a parse error.
CLI_FIXED = (
    (("sprime", "--gens", "4,7,9"), 0, '{"sprime_generators":[4,7,9,10]}\n'),
    (
        ("semigroup", "--gens", "4,7,9"),
        0,
        '{"generators":[4,7,9],"gaps":[1,2,3,5,6,10],"frobenius":10,"conductor":11,'
        '"sprime_generators":[4,7,9,10]}\n',
    ),
    (("member", "--gens", "4,7,9", "--expr", "X^5"), 0,
     '{"status":"NotMember","obstruction":"LinearSystemInfeasible"}\n'),
    (("member", "--gens", "4,7,9", "--expr", "X^4/(X^4-1)"), 0,
     '{"status":"Member","certificate":"1"}\n'),
    (("recip-member", "--gens", "4,7,9", "--expr", "1/(X^4-1) + 1/X^7"), 0,
     '{"status":"Member","certificate":"1"}\n'),
    (("valuation", "--rank", "2", "--expr", "(X^(1,0) + X^(1,2))/X^(0,1)"), 0,
     '{"valuation":[1,-1]}\n'),
    (("divide", "--a", "X^3", "--b", "X^2+1"), 0, '{"q":"X","r":"-X"}\n'),
    (("dimension", "--gens", "4,7,9"), 0,
     '{"rank":1,"si":[true],"t":0,"lower":1,"upper":1,"exact":1,"exactSource":"AllNonempty"}\n'),
    (
        ("dimension", "--monoid",
         '{"rank":2,"generators":[],"families":[{"base":[1,0],"free":[2]}]}'),
        0,
        '{"rank":2,"si":[true,false],"t":1,"lower":1,"upper":2,"exact":1,'
        '"exactSource":"FreeShiftFamily"}\n',
    ),
    (
        ("thm56", "--n", "3", "--m", "1"),
        0,
        '{"monoid":{"rank":3,"generators":[],"families":[{"base":[1,0,0],"free":[2]},'
        '{"base":[1,0,0],"free":[3]}]},"report":{"rank":3,"si":[true,false,false],"t":2,'
        '"lower":1,"upper":3,"exact":1,"exactSource":"FreeShiftFamily"}}\n',
    ),
    (("kplusm", "--n", "2", "--expr", "5 + (X/(X^2+1))*Y^-1"), 0,
     '{"status":"Member","constantPart":"5","maximalPart":"X/(Y + Y*X^2)"}\n'),
    (("kplusm", "--n", "3", "--expr", "2 + X2/(X3*Y)"), 0,
     '{"status":"Member","constantPart":"2","maximalPart":"X2/(Y*X3)"}\n'),
    (("egyptian", "4/5"), 0, '{"denominators":[2,4,20]}\n'),
    (("oracle", "--gens", "4,7,9", "--expr", "1/X^4 + 1/X^7", "--max-terms", "2",
      "--max-degree", "8", "--coeffs", "1,-1", "--seed", "7"), 0,
     '{"seed":7,"witness":["X^4","X^7"]}\n'),
    (("--format", "plain", "sprime", "--gens", "5,7,9"), 0,
     "sprime_generators: [5,7,9,11,13]\n"),
    (("egyptian", "5/4"), 2, ""),
    (("member", "--gens", "4,7,9", "--expr", "X^"), 3, ""),
)


# A heavier command (about 100 ms, where the others take under 20 ms) in every
# eighth round: with some 170 rounds a run it runs about 20 times, so the
# operation holding op_tail_ms (ten slower ones beyond it) falls inside its
# group rather than among the few of some 5000 quick commands that a stall
# of the machine happened to hit.
HEAVY_COMMAND = ("sprime", "--gens", "31,35,39")
HEAVY_EVERY = 8


def _poly_text(rng, names, exponents, coeffs=(1, 2, 3)):
    terms = []
    for exponent in exponents:
        coeff = rng.choice(coeffs)
        sign = " - " if terms and rng.random() < 0.4 else " + "
        monomial = names(exponent)
        body = monomial if coeff == 1 else (f"{coeff}*{monomial}" if monomial else str(coeff))
        terms.append((sign if terms else "") + (body or "1"))
    return "".join(terms)


def _rank1(e):
    return "" if e == 0 else f"X^{e}"


def _small_gens(rng):
    while True:
        gens = sorted(rng.sample(range(3, 14), 3))
        if math.gcd(*gens) == 1:
            return gens


class CliMix:
    """A seeded stream of in-process ``recip`` CLI calls over every
    subcommand with small inputs.

    A round is the pinned commands plus 15 seeded ones, shuffled; one
    operation is one ``cli.main`` call with stdout and stderr captured.
    """

    name = "cli_mix"
    cache = "S' cache cleared before every command, as each CLI invocation is a fresh process"
    prepared_rounds = 36
    traced_rounds = 30

    def _generated(self, rng):
        gens = _small_gens(rng)
        gens_arg = ",".join(map(str, gens))
        members = _members(gens, 12)[1:]

        def recip_sum():
            dens = []
            for _ in range(rng.randint(1, 2)):
                support = [0] + rng.sample(members, rng.randint(0, 1))
                dens.append(f"({_poly_text(rng, _rank1, sorted(support))})")
            return " + ".join(f"1/{d}" for d in dens)

        def vector(e):
            return f"X^({e[0]},{e[1]})"

        def rank2():
            exps = [(rng.randint(0, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
            return sorted(set(exps))

        a, b = rng.sample(members[:4], 2)
        n = rng.randint(2, 3)
        names = {2: ("Y", "X"), 3: ("Y", "X2", "X3")}[n]
        low = rng.choice(names[1:])
        q = rng.randint(2, 40)
        p = rng.randint(1, q)
        monoid = {
            "rank": 2,
            "generators": [[0, rng.randint(1, 3)]] if rng.random() < 0.5 else [],
            "families": [{"base": [rng.randint(1, 3), rng.randint(-2, 2)], "free": [2]}],
        }
        return [
            ("sprime", "--gens", gens_arg),
            ("semigroup", "--gens", gens_arg),
            ("member", "--gens", gens_arg, "--expr", f"X^{a}*({recip_sum()})"),
            ("recip-member", "--gens", gens_arg, "--expr", recip_sum()),
            ("recip-member", "--gens", gens_arg, "--expr", recip_sum()),
            ("valuation", "--rank", "2", "--expr",
             f"({_poly_text(rng, vector, rank2())})/({_poly_text(rng, vector, rank2())})"),
            ("divide", "--a", _poly_text(rng, _rank1, sorted(rng.sample(range(9), 3))),
             "--b", _poly_text(rng, _rank1, sorted(rng.sample(range(1, 5), 2)))),
            ("dimension", "--gens", gens_arg),
            ("dimension", "--monoid", json.dumps(monoid)),
            ("thm56", "--n", str(rng.randint(2, 4)), "--m", "1"),
            ("kplusm", "--n", str(n), "--expr",
             f"{rng.randint(0, 5)} + ({low})/(({low})^2 + {rng.randint(1, 3)})*Y^-1"),
            ("kplusm", "--n", str(n), "--expr", f"({low})/Y^{rng.randint(1, 2)} + {low}"),
            ("egyptian", f"{p}/{q}"),
            ("oracle", "--gens", gens_arg, "--expr", f"1/X^{a} + 1/X^{b}", "--max-terms", "2",
             "--max-degree", str(max(a, b)), "--seed", str(rng.randint(0, 99)), "--trials", "20"),
            ("divide", "--a", f"X^{rng.randint(3, 9)} + 1", "--b", f"{rng.randint(2, 5)}*X^2 + X"),
        ]

    def setup(self, lib, seed):
        rng = random.Random(seed)
        fixed = [(list(argv), (code, out)) for argv, code, out in CLI_FIXED]
        self.prepared = []
        for k in range(self.prepared_rounds):
            generated = [(list(argv), None) for argv in self._generated(rng)]
            if k % HEAVY_EVERY == 0:
                generated.append((list(HEAVY_COMMAND), None))
            ops = fixed + generated
            rng.shuffle(ops)
            self.prepared.append(ops)

    def rounds(self):
        while True:
            yield from self.prepared

    def before(self, lib):
        lib.sprime_cache.cache_clear()

    def run(self, lib, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(op[0])
        return code, out.getvalue()

    def check(self, lib, op, result):
        code, stdout = result
        expected = op[1]
        if expected is not None:
            return (code, stdout) == expected
        lines = stdout.splitlines()
        if code != 0 or len(lines) != 1:
            return False
        try:
            return isinstance(json.loads(lines[0]), dict)
        except ValueError:
            return False

    def corrupt(self, lib, result):
        code, stdout = result
        return code + 1, stdout


WORKLOADS = {w.name: w for w in (Closure, SprimeLadder, Strata, CliMix)}
