"""Seeded fuzzing of the CLI: every input ends with exit 0, 2 or 3, no
traceback, and at most one line on stderr."""

import io
import json
import os
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from recip.cli import main  # noqa: E402
from recip.dimension import MAX_FREE_SHIFT_RANK, monoid_from_semigroup, monoid_to_json  # noqa: E402
from recip.laurent import MAX_DEGREE  # noqa: E402
from recip.membership import MAX_SEARCH_SIZE  # noqa: E402
from recip.semigroup import ns_create  # noqa: E402

FUZZ = hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
JUNK = st.text(alphabet="XY^()+-*/0123456789 ,.", max_size=16)


def expressions(names=("X",), vector_rank=None):
    """Expressions of the text grammar with small numbers and exponents,
    plus junk strings over its alphabet."""
    if vector_rank is None:
        monomials = st.tuples(st.sampled_from(names), st.integers(-4, 9)).map("{0[0]}^{0[1]}".format)
    else:
        monomials = st.lists(st.integers(-3, 4), min_size=vector_rank, max_size=vector_rank).map(
            lambda exps: f"X^({','.join(map(str, exps))})"
        )
    atoms = st.one_of(
        st.integers(0, 12).map(str),
        st.tuples(st.integers(-9, 9), st.integers(-3, 9)).map("{0[0]}/{0[1]}".format),
        st.sampled_from(names),
        monomials,
    )

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map("{0[0]} {0[1]} {0[2]}".format),
            inner.map("({})".format),
            st.tuples(inner, st.integers(-2, 3)).map("({0[0]})^{0[1]}".format),
            inner.map("-{}".format),
        )

    return st.one_of(st.recursive(atoms, extend, max_leaves=6), JUNK)


def values(names=("X",), vector_rank=None):
    """Expressions, half of them behind one more leading '-'.  None starts
    with '--', which stays the prefix of an option."""
    exprs = expressions(names, vector_rank)
    return st.one_of(exprs, exprs.map("-{}".format)).filter(lambda e: not e.startswith("--"))


GENS = st.one_of(
    st.lists(st.integers(-2, 30), max_size=4).map(lambda gens: ",".join(map(str, gens))),
    st.text(alphabet="0123456789,- a", max_size=10),
)

INT_LISTS = st.lists(st.lists(st.integers(-2, 3), max_size=4), max_size=3)
MONOID_JSON = st.one_of(
    st.fixed_dictionaries(
        {
            "rank": st.one_of(st.integers(-1, 3), st.booleans(), st.just("2")),
            "generators": st.one_of(INT_LISTS, st.just("x"), st.lists(st.integers(0, 2), max_size=2)),
            "families": st.lists(
                st.one_of(
                    st.fixed_dictionaries(
                        {"base": st.lists(st.integers(-1, 2), max_size=4), "free": st.lists(st.integers(-1, 4), max_size=3)}
                    ),
                    st.just({"base": [1, 0]}),
                    st.just([1]),
                ),
                max_size=3,
            ),
        }
    ).map(json.dumps),
    st.sampled_from(["", "[]", "{}", "null", '{"rank": 1}', "{"]),
    JUNK,
)


# Semigroup JSON: well-formed generator lists, and malformed files (a string,
# an empty list, nested lists, non-objects, text that is not JSON).
GENERATORS = st.lists(st.integers(-2, 30), min_size=1, max_size=4)
SEMIGROUP_JSON = st.one_of(
    GENERATORS.map(lambda gens: {"generators": gens}).map(json.dumps),
    st.one_of(
        st.fixed_dictionaries({"generators": st.one_of(st.just("4,7,9"), st.just([]), st.lists(GENERATORS, max_size=2))}),
        st.just("4,7,9"),
        st.just([]),
        GENERATORS,
        st.lists(GENERATORS, max_size=2),
        st.none(),
        st.integers(),
    ).map(json.dumps),
    JUNK,
)


@contextmanager
def json_file(text):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        yield path


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check(*argv):
    code, out, err = result = run_cli(*argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in out + err, argv
    assert err.count("\n") <= 1, (argv, err)
    assert (code == 0) == bool(out), (argv, code, out)
    return result


@FUZZ
@hypothesis.given(st.sampled_from(["member", "recip-member"]), GENS, expressions())
def test_membership_commands(command, gens, expr):
    check(command, "--gens", gens, "--expr", expr)


@FUZZ
@hypothesis.given(st.integers(1, 3).flatmap(lambda rank: st.tuples(st.just(rank), expressions(vector_rank=rank))))
def test_valuation(case):
    rank, expr = case
    check("valuation", "--rank", str(rank), "--expr", expr)


@FUZZ
@hypothesis.given(expressions(), expressions())
def test_divide(a, b):
    check("divide", "--a", a, "--b", b)


@FUZZ
@hypothesis.given(st.sampled_from([("Y", "X"), ("Y", "X2", "X3")]).flatmap(
    lambda names: st.tuples(st.just(names), expressions(names))
))
def test_kplusm(case):
    names, expr = case
    check("kplusm", "--n", str(len(names)), "--expr", expr)


@FUZZ
@hypothesis.given(st.one_of(expressions(), st.fractions(max_denominator=40).map(str)))
def test_egyptian(value):
    check("egyptian", value)


@FUZZ
@hypothesis.given(MONOID_JSON)
def test_dimension_monoid(monoid):
    check("dimension", "--monoid", monoid)


@FUZZ
@hypothesis.given(
    st.one_of(st.integers(-2, 12), st.sampled_from([MAX_FREE_SHIFT_RANK, MAX_FREE_SHIFT_RANK + 1, 10**12])),
    st.one_of(st.integers(-2, 12), st.just(MAX_FREE_SHIFT_RANK)),
)
def test_thm56(n, m):
    code, out, err = check("thm56", "--n", str(n), "--m", str(m))
    assert (code == 0) == (MAX_FREE_SHIFT_RANK >= n > m >= 1), (n, m, err)


# (gens, max_degree, max_terms, trials) for oracle: each limit on both sides
# of its cap with the other bounds small, or all bounds small.  Under
# <4,7,9> a degree bound of 3 leaves one member, 0, so a large max_terms
# stays cheap.
ORACLE_CASES = st.one_of(
    st.tuples(
        st.just("4,7,9"), st.sampled_from([MAX_DEGREE, MAX_DEGREE + 1, 10**12]), st.just(1), st.integers(-1, 3)
    ),
    st.integers(8, 18).flatmap(lambda terms: st.tuples(
        st.just("4,7,9"), st.integers(0, 3), st.just(terms),
        st.sampled_from([-1, 0, MAX_SEARCH_SIZE >> terms, (MAX_SEARCH_SIZE >> terms) + 1]),
    )),
    st.tuples(st.one_of(st.sampled_from(["4,7,9", "3,5", "1"]), GENS), st.integers(-1, 9), st.integers(0, 3),
              st.integers(-2, 20)),
)


@FUZZ
@hypothesis.given(
    ORACLE_CASES, expressions(), st.sampled_from(["1", "1,-1", "-1,1/2,2", "1,-1,2", "1,0", "x"]), st.integers(-1, 99)
)
def test_oracle(case, expr, coeffs, seed):
    gens, max_degree, max_terms, trials = case
    code, out, err = check(
        "oracle", "--gens", gens, "--expr", expr, "--max-degree", str(max_degree),
        "--max-terms", str(max_terms), "--coeffs", coeffs, "--seed", str(seed), "--trials", str(trials),
    )
    over = max_degree > MAX_DEGREE or max(trials, 1) > MAX_SEARCH_SIZE >> max(max_terms, 0)
    assert not (over and code == 0), (case, out)
    if err.startswith(("error: degree bound ", "error: search size ")):
        assert over and code == 2, (case, err)


def pairs(*options):
    """[(option, value), ...] with each value drawn from its strategy."""
    return st.tuples(*(st.tuples(st.just(name), strategy) for name, strategy in options)).map(list)


# Every option that takes an expression, with the rest of its command.
DASH_CASES = st.one_of(
    st.tuples(
        st.sampled_from([("member", "--gens", "4,7,9"), ("recip-member", "--gens", "4,7,9")]),
        pairs(("--expr", values())),
    ),
    st.integers(1, 3).flatmap(lambda rank: st.tuples(
        st.just(("valuation", "--rank", str(rank))), pairs(("--expr", values(vector_rank=rank)))
    )),
    st.sampled_from([("Y", "X"), ("Y", "X2", "X3")]).flatmap(lambda names: st.tuples(
        st.just(("kplusm", "--n", str(len(names)))), pairs(("--expr", values(names)))
    )),
    st.tuples(st.just(("divide",)), pairs(("--a", values()), ("--b", values()))),
)


@FUZZ
@hypothesis.given(DASH_CASES)
def test_values_read_alike_with_and_without_equals(case):
    prefix, options = case
    spaced = [token for option, value in options for token in (option, value)]
    joined = [f"{option}={value}" for option, value in options]
    assert run_cli(*prefix, *spaced) == run_cli(*prefix, *joined), (prefix, options)


SEMIGROUP_COMMANDS = st.sampled_from(["semigroup", "sprime", "member", "recip-member"])


def expr_args(command, expr):
    return ("--expr", expr) if command.endswith("member") else ()


@FUZZ
@hypothesis.given(SEMIGROUP_COMMANDS, SEMIGROUP_JSON, expressions())
def test_semigroup_file_input(command, text, expr):
    with json_file(text) as path:
        check(command, "--file", path, *expr_args(command, expr))


@FUZZ
@hypothesis.given(SEMIGROUP_COMMANDS, GENERATORS, expressions())
def test_file_and_gens_agree(command, gens, expr):
    with json_file(json.dumps({"generators": gens})) as path:
        from_file = run_cli(command, "--file", path, *expr_args(command, expr))
    assert from_file == run_cli(command, "--gens", ",".join(map(str, gens)), *expr_args(command, expr))


@FUZZ
@hypothesis.given(MONOID_JSON)
def test_dimension_file_input(monoid):
    with json_file(monoid) as path:
        check("dimension", "--file", path)


# <4,7,9> given as --gens, as a generator file, and (for dimension) as the
# monoid it presents, inline or as a file: each source alone gives one answer.
SEMIGROUP_479 = json.dumps({"generators": [4, 7, 9]})
MONOID_479 = json.dumps(monoid_to_json(monoid_from_semigroup(ns_create([4, 7, 9]))))


@FUZZ
@hypothesis.given(
    st.sampled_from(["semigroup", "sprime", "member", "recip-member", "oracle", "dimension"]),
    st.permutations(["--gens", "--file", "--monoid"]),
    st.integers(0, 3),
)
def test_exactly_one_source(command, order, count):
    dimension = command == "dimension"
    sources = [option for option in order if dimension or option != "--monoid"][:count]
    extra = {
        "member": ("--expr", "X^4"),
        "recip-member": ("--expr", "X^4"),
        "oracle": ("--expr", "1/X^4", "--max-terms", "1", "--max-degree", "4", "--trials", "0"),
    }.get(command, ())
    with json_file(MONOID_479 if dimension else SEMIGROUP_479) as path:
        value = {"--gens": "4,7,9", "--file": path, "--monoid": MONOID_479}
        code, out, err = check(command, *[t for option in sources for t in (option, value[option])], *extra)
    if len(sources) == 1:
        assert (code, out, err) == run_cli(command, "--gens", "4,7,9", *extra), (command, sources)
    else:
        assert (code, out) == (2, ""), (command, sources)
        assert err.startswith("usage error: ") and ("required" if not sources else "not allowed with") in err
