"""The golden corpus: membership verdicts, certificates and S' gaps as
written by tests/golden/make_membership.py at the commit that added it."""

from fractions import Fraction
from pathlib import Path

from recip.laurent import LaurentPolynomial
from recip.membership import decide_membership, in_reciprocal_complement
from recip.ratfunc import RationalFunction
from recip.semigroup import derive_sprime, ns_create

from golden.make_membership import gens_text, verdict_text

CORPUS = Path(__file__).resolve().parent / "golden" / "membership.txt"


def poly(text):
    """A rank-1 polynomial from its ``exponent:coefficient`` terms."""
    return LaurentPolynomial(1, {(int(e),): Fraction(c) for e, c in (term.split(":") for term in text.split())})


def test_membership_and_sprime_match_the_golden_corpus():
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    counts = {"semigroup": 0, "decide": 0, "recip": 0}
    wrong = []
    for line in lines:
        kind, gens, *fields = line.split("\t")
        counts[kind] += 1
        S = ns_create([int(g) for g in gens.split(",")])
        if kind == "semigroup":
            sprime = derive_sprime(S)
            found = [gens_text(S.gaps), gens_text(sprime.generators), gens_text(sprime.gaps)]
        else:
            decide = in_reciprocal_complement if kind == "recip" else decide_membership
            r = RationalFunction(poly(fields[0]), poly(fields[1]))
            found = verdict_text(decide(r, S)).split("\t")
            fields = fields[2:]
        if found != fields:
            wrong.append((line, found))
    assert not wrong, wrong[:3]
    assert counts["semigroup"] >= 30 and counts["decide"] + counts["recip"] >= 1900, counts
    assert CORPUS.stat().st_size < 300_000
