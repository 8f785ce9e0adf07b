"""Seeded fuzzing of the CLI: every input ends with exit 0, 2 or 3, no
traceback, and at most one line on stderr."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from recip.cli import main  # noqa: E402

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


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check(*argv):
    code, out, err = run_cli(*argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in out + err, argv
    assert err.count("\n") <= 1, (argv, err)
    assert (code == 0) == bool(out), (argv, code, out)


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
