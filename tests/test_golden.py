"""The golden corpora: membership verdicts, certificates and S' gaps as
written by tests/golden/make_membership.py, the CLI transcript written by
tests/golden/make_cli.py, and the dimension reports, stratum witnesses and
rank-2 and rank-3 arithmetic and seeded reciprocal sums written by
tests/golden/make_library.py, each at the commit that added it."""

import difflib
import time
from fractions import Fraction
from pathlib import Path

from recip.laurent import LaurentPolynomial
from recip.membership import decide_membership, in_reciprocal_complement
from recip.ratfunc import RationalFunction
from recip.semigroup import derive_sprime, ns_create

from golden.make_cli import transcript
from golden.make_library import corpus
from golden.make_membership import gens_text, verdict_text

CORPUS = Path(__file__).resolve().parent / "golden" / "membership.txt"
CLI_TRANSCRIPT = CORPUS.with_name("cli.txt")
LIBRARY = CORPUS.with_name("library.txt")


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


def test_cli_matches_the_golden_transcript():
    expected = CLI_TRANSCRIPT.read_text(encoding="utf-8")
    start = time.perf_counter()
    found = transcript()
    assert time.perf_counter() - start < 5.0
    diff = difflib.unified_diff(expected.splitlines(True), found.splitlines(True), "cli.txt", "now", n=2)
    assert found == expected, "".join(diff)[:4000]
    assert expected.count("\n$ recip ") >= 90 and CLI_TRANSCRIPT.stat().st_size < 300_000


def test_library_matches_the_golden_corpus():
    expected = LIBRARY.read_text(encoding="utf-8")
    start = time.perf_counter()
    found = corpus()
    assert time.perf_counter() - start < 5.0
    diff = difflib.unified_diff(expected.splitlines(True), found.splitlines(True), "library.txt", "now", n=0)
    assert found == expected, "".join(diff)[:4000]
    kinds = [line.split("\t", 1)[0] for line in expected.splitlines()]
    assert kinds.count("monoid") >= 400 and kinds.count("report") >= 80 and kinds.count("arith") >= 100
    assert kinds.count("sum") >= 100
    assert LIBRARY.stat().st_size < 300_000
