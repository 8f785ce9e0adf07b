"""CLI surface: schemas, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from recip.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, _ = run_cli(*argv)
    assert code == 0, out
    return json.loads(out)


def test_sprime_golden():
    code, out, _ = run_cli("sprime", "--gens", "4,7,9")
    assert code == 0
    assert out.strip() == '{"sprime_generators":[4,7,9,10]}'


def test_semigroup_reports_invariants():
    payload = run_json("semigroup", "--gens", "4,7,9")
    assert payload == {
        "generators": [4, 7, 9],
        "gaps": [1, 2, 3, 5, 6, 10],
        "frobenius": 10,
        "conductor": 11,
        "sprime_generators": [4, 7, 9, 10],
    }


def test_member_not_member_exits_zero():
    code, out, _ = run_cli("member", "--gens", "4,7,9", "--expr", "X^5")
    assert code == 0
    assert json.loads(out) == {
        "status": "NotMember",
        "obstruction": "LinearSystemInfeasible",
    }


def test_member_certificate():
    payload = run_json("member", "--gens", "4,7,9", "--expr", "X^4/(X^4-1)")
    assert payload == {"status": "Member", "certificate": "1"}


def test_recip_member():
    payload = run_json("recip-member", "--gens", "4,7,9", "--expr", "1/(X^4-1) + 1/X^7")
    assert payload["status"] == "Member"
    payload = run_json("recip-member", "--gens", "1", "--expr", "X")
    assert payload == {"status": "NotMember", "obstruction": "PoleAtOrigin"}


def test_sparse_monomial_stays_sparse():
    # A one-term side never goes through the dense gcd, so a huge exponent
    # costs no memory.
    code, out, _ = run_cli("member", "--gens", "4,7,9", "--expr", "X^100000000")
    assert (code, out) == (0, '{"status":"Member","certificate":"1"}\n')
    code, out, _ = run_cli("recip-member", "--gens", "4,7,9", "--expr", "X^100000000")
    assert (code, out) == (0, '{"status":"NotMember","obstruction":"PoleAtOrigin"}\n')


def test_valuation():
    assert run_json("valuation", "--rank", "2", "--expr", "X^(2,3)") == {"valuation": [2, 3]}
    assert run_json("valuation", "--expr", "0") == {"valuation": "infinity"}


def test_divide():
    payload = run_json("divide", "--a", "X^2+1", "--b", "X")
    assert payload == {"q": "X", "r": "1"}


def test_dimension_from_gens_and_monoid_json():
    assert run_json("dimension", "--gens", "4,7,9")["exact"] == 1
    monoid = '{"rank":2,"generators":[[1,0],[0,1]],"families":[]}'
    payload = run_json("dimension", "--monoid", monoid)
    assert payload["exact"] == 2
    assert payload["exactSource"] == "AllNonempty"


def test_semigroup_from_file(tmp_path):
    path = tmp_path / "semigroup.json"
    path.write_text('{"generators": [4, 7, 9]}', encoding="utf-8")
    payload = run_json("sprime", "--file", str(path))
    assert payload == {"sprime_generators": [4, 7, 9, 10]}
    payload = run_json("member", "--file", str(path), "--expr", "X^10")
    assert payload["status"] == "Member"


def test_semigroup_file_rejects_malformed_json(tmp_path):
    path = tmp_path / "semigroup.json"
    for text in ('{"generators":"x"}', "[1]", "{}", '{"generators":[]}', '{"generators":[4,7.5]}'):
        path.write_text(text, encoding="utf-8")
        for command in ("sprime", "semigroup"):
            code, out, err = run_cli(command, "--file", str(path))
            assert (code, out) == (2, ""), (command, text)
            assert err.startswith("error: ") and err.count("\n") == 1, (command, text)


def test_sparse_reciprocal_sum_stays_sparse():
    # 1/X^k + 1 = (X^k + 1)/X^k: a one-term denominator, so no gcd and no
    # dense list; sigma maps it to the polynomial X^k + 1.
    for command, expected in (
        ("member", '{"status":"NotMember","obstruction":"PoleAtOrigin"}\n'),
        ("recip-member", '{"status":"Member","certificate":"1"}\n'),
    ):
        start = time.perf_counter()
        code, out, _ = run_cli(command, "--gens", "4,7,9", "--expr", "1/X^1000000000 + 1")
        assert time.perf_counter() - start < 1.0, command
        assert (code, out) == (0, expected), command


def test_conductor_limit_exits_two_quickly():
    start = time.perf_counter()
    code, out, err = run_cli("semigroup", "--gens", "1000003,1000033")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "limit" in err and err.count("\n") == 1


def test_degree_limit_exits_two_quickly():
    for argv in (
        ("member", "--gens", "4,7,9", "--expr", "(X^100000000 + 1)/(X + 2)"),
        ("member", "--gens", "4,7,9", "--expr", "1/(X^3000000+1) + 1/(X^2+1)"),
        ("divide", "--a", "X^100000000 + 1", "--b", "X + 1"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(*argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and "limit" in err and err.count("\n") == 1, argv


def test_power_limit_exits_two_quickly():
    for argv in (
        ("member", "--gens", "4,7,9", "--expr", "91^5497340"),
        ("member", "--gens", "4,7,9", "--expr=91^54973481"),
        ("recip-member", "--gens", "5,16,1", "--expr", "-91^54973481X)"),
        ("member", "--gens", "4,7,9", "--expr", "(X+1)^3000"),
        ("member", "--gens", "4,7,9", "--expr", "1/(2 - X)^-99999999999999999999"),
        ("kplusm", "--n", "3", "--expr", "(Y + X2 + X3)^200"),
        ("valuation", "--rank", "2", "--expr", "(X^(1,0) + X^(0,1))^-100000"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(*argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: power at position ") and "limit" in err and err.count("\n") == 1, argv


def test_product_limit_exits_two_quickly():
    # Each factor is within the power limit; the product is checked before
    # either power is computed.
    for expr in ("(X+1)^700*(X+1)^700", "(X+1)^700*(X+1)^700*(X+1)^700", "(X+1)^700/(X+1)^-700"):
        start = time.perf_counter()
        code, out, err = run_cli("member", "--gens", "4,7,9", "--expr", expr)
        assert time.perf_counter() - start < 1.0, expr
        assert (code, out) == (2, ""), expr
        assert err == "error: product at position 9 exceeds the size limit 1048576\n", expr


def test_sum_limit_exits_two_quickly():
    # Each reciprocal is within the limits; the sum is checked before it is
    # formed (1.6 s and 8.3 s to compute before).
    for expr in ("1/(X+1)^400 + 1/(X-1)^400", "1/(X+1)^700 - 1/(X-1)^700"):
        for command in ("member", "recip-member"):
            start = time.perf_counter()
            code, out, err = run_cli(command, "--gens", "4,7,9", "--expr", expr)
            assert time.perf_counter() - start < 1.0, expr
            assert (code, out) == (2, ""), expr
            assert err == "error: sum at position 12 exceeds the size limit 1048576\n", expr


def test_parenthesised_factor_limit_exits_two_quickly():
    # A parenthesised factor stays deferred, so the product is checked before
    # its power is computed (1.2-1.5 s when the group was forced first).
    for expr, pos in (("(X+1)^700*((X+1)^700)", 9), ("-((X+1)^700)*(X+1)^700", 12),
                      ("(((X+1)^700))/((X+1)^-700)", 13)):
        start = time.perf_counter()
        code, out, err = run_cli("member", "--gens", "4,7,9", "--expr", expr)
        assert time.perf_counter() - start < 1.0, expr
        assert (code, out) == (2, ""), expr
        assert err == f"error: product at position {pos} exceeds the size limit 1048576\n", expr


def test_powers_within_the_limit_still_answer():
    member = '{"status":"Member","certificate":"1"}\n'
    pole = '{"status":"NotMember","obstruction":"PoleAtOrigin"}\n'
    for expr, expected in (
        ("X^100000000", (member, pole)),
        ("(X)^100000000", (member, pole)),
        ("(2*X)^1000000", (member, pole)),
        ("(X+1)^300", ('{"status":"NotMember","obstruction":"LinearSystemInfeasible"}\n', pole)),
    ):
        for command, out in zip(("member", "recip-member"), expected):
            assert run_cli(command, "--gens", "4,7,9", "--expr", expr) == (0, out, ""), (command, expr)


def test_wide_membership_system_is_fast():
    # F(S') = 3999: the certificate system has 4,000 sparse rows.
    start = time.perf_counter()
    code, out, _ = run_cli("member", "--gens", "2,4001", "--expr", "1/(1-X)")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (0, '{"status":"NotMember","obstruction":"LinearSystemInfeasible"}\n')


def test_deep_nesting_is_one_line_parse_error():
    expr = "(" * 3000 + "X" + ")" * 3000
    code, out, err = run_cli("member", "--gens", "4,7,9", "--expr", expr)
    assert (code, out) == (3, "")
    assert err.startswith("parse error: ") and "position 100" in err and err.count("\n") == 1


def test_generator_spellings_agree_across_commands():
    expected = {command: run_cli(command, "--gens", "4,7,9") for command in ("semigroup", "dimension")}
    for gens in ("4,7,9,", " 4, 7 ,9", "4,,7,9", ",4,7,9"):
        for command in ("semigroup", "dimension"):
            assert run_cli(command, "--gens", gens) == expected[command], (command, gens)
    for gens in ("4,x,9", "4;7;9"):
        for command in ("semigroup", "dimension"):
            code, out, err = run_cli(command, "--gens", gens)
            assert (code, out) == (2, "") and err.startswith("error: "), (command, gens)


def test_dimension_from_file(tmp_path):
    path = tmp_path / "monoid.json"
    path.write_text(
        '{"rank":2,"generators":[],"families":[{"base":[1,0],"free":[2]}]}',
        encoding="utf-8",
    )
    payload = run_json("dimension", "--file", str(path))
    assert payload["si"] == [True, False]
    assert payload["exact"] == 1


def test_dimension_rejects_malformed_monoid_json():
    for monoid in (
        "[1]",
        '{"rank":"2"}',
        '{"rank":0}',
        '{"rank":0,"generators":[],"families":[]}',
        '{"rank":true,"generators":[],"families":[]}',
        '{"rank":2,"families":[]}',
        '{"rank":2,"generators":[1,0],"families":[]}',
        '{"rank":2,"generators":[[1,0.5]],"families":[]}',
        '{"rank":2,"generators":[],"families":[[1,0]]}',
        '{"rank":2,"generators":[],"families":[{"base":[1,0]}]}',
        '{"rank":2,"generators":[],"families":[{"base":[1,0],"free":2}]}',
    ):
        code, out, err = run_cli("dimension", "--monoid", monoid)
        assert (code, out) == (2, ""), monoid
        assert err.startswith("error: ") and err.count("\n") == 1, monoid


def test_thm56():
    payload = run_json("thm56", "--n", "4", "--m", "2")
    assert payload["report"]["t"] == 2
    assert payload["report"]["exact"] == 2
    assert len(payload["monoid"]["families"]) == 4


def test_many_family_reports_are_fast(tmp_path):
    # 14 families were 2^14 Fourier-Motzkin cases per empty stratum (43 s);
    # thm56 --n 8 --m 4 ran for more than 120 s.
    path = tmp_path / "monoid.json"
    family = {"base": [1, 0, 0], "free": [3]}
    path.write_text(json.dumps({"rank": 3, "generators": [], "families": [family] * 14}), encoding="utf-8")
    for argv, report in (
        (("dimension", "--file", str(path)), lambda payload: payload),
        (("thm56", "--n", "8", "--m", "4"), lambda payload: payload["report"]),
    ):
        start = time.perf_counter()
        payload = run_json(*argv)
        assert time.perf_counter() - start < 2.0, argv
        assert report(payload)["si"][-1] is False, argv


def test_thm56_rank_limit_exits_two_quickly():
    assert run_json("thm56", "--n", "100", "--m", "1")["report"]["t"] == 99
    for n in ("101", "1000000000000"):
        start = time.perf_counter()
        code, out, err = run_cli("thm56", "--n", n, "--m", "1")
        assert time.perf_counter() - start < 1.0, n
        assert (code, out) == (2, ""), n
        assert err.startswith("error: free-shift rank ") and "limit 100" in err and err.count("\n") == 1, n


RANK_LIMIT_CHILD = """
import resource, sys
cap = 1536 * 2**20  # a missing check then ends in MemoryError, not in swap
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from recip.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_rank_limit_exits_two_quickly():
    # Each ran out of memory before the limit: an exponent vector holds one
    # int per coordinate, and kplusm also names every coordinate.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for argv, rank in (
        (("valuation", "--rank", "1000000000", "--expr", "1"), 1000000000),
        (("valuation", "--rank", "10000000", "--expr", "1"), 10000000),
        (("kplusm", "--n", "1000000000", "--expr", "1"), 1000000000),
        (("dimension", "--monoid", '{"rank":1000000000,"generators":[],"families":[]}'), 1000000000),
        (("kplusm", "--n", "1001", "--expr", "1"), 1001),
    ):
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-c", RANK_LIMIT_CHILD, *argv], capture_output=True, text=True, env=env
        )
        assert time.perf_counter() - start < 5.0, argv
        assert (result.returncode, result.stdout) == (2, ""), (argv, result.stderr)
        assert result.stderr == f"error: rank {rank} exceeds the limit 1000\n", argv
    assert run_json("valuation", "--rank", "1000", "--expr", "1")["valuation"] == [0] * 1000
    assert run_json("kplusm", "--n", "1000", "--expr", "1")["constantPart"] == "1"
    assert run_json("dimension", "--monoid", '{"rank":1000,"generators":[],"families":[]}')["t"] == 1000


def test_kplusm():
    payload = run_json("kplusm", "--n", "2", "--expr", "5 + (X/(X^2+1))*Y^-1")
    assert payload["status"] == "Member"
    assert payload["constantPart"] == "5"
    assert run_json("kplusm", "--n", "2", "--expr", "X") == {"status": "NotMember"}


def test_egyptian():
    assert run_json("egyptian", "1/2") == {"denominators": [2]}
    assert run_json("egyptian", "4/5") == {"denominators": [2, 4, 20]}


def test_egyptian_past_the_digit_limit_exits_two():
    # Each of these reaches a denominator of more than 4,300 digits, which
    # Python will not write as text: the command stops there with one line,
    # where it used to print a traceback from the output step.
    for value in ("999999999999/1000000000000", "800963157/803241505"):
        assert run_cli("egyptian", value) == (2, "", "error: a denominator exceeds the limit of 4300 digits\n")
    # Its last denominator has 4,288 digits and still prints.
    assert len(str(run_json("egyptian", "209797802/294325645")["denominators"][-1])) == 4288


def test_oracle_witness_and_seed_echo():
    payload = run_json(
        "oracle",
        "--gens", "4,7,9",
        "--expr", "1/X^4 + 1/X^7",
        "--max-terms", "2",
        "--max-degree", "8",
        "--coeffs", "1,-1",
        "--seed", "7",
    )
    assert payload["seed"] == 7
    assert payload["witness"] == ["X^4", "X^7"]


def test_oracle_none_within_bounds():
    payload = run_json(
        "oracle",
        "--gens", "4,7,9",
        "--expr", "X^5",
        "--max-terms", "2",
        "--max-degree", "8",
        "--coeffs", "1,-1",
        "--seed", "0",
        "--trials", "20",
    )
    assert payload["witness"] is None


def test_oracle_single_denominator_is_computed():
    # Stage 1 reads the one candidate off r instead of trying every one- and
    # two-term denominator up to the degree bound (22.7 s by enumeration).
    start = time.perf_counter()
    payload = run_json("oracle", "--gens", "4,7,9", "--expr", "1/X^5", "--max-terms", "1",
                       "--max-degree", "300", "--coeffs", "1,-1,2", "--trials", "0")
    assert time.perf_counter() - start < 1.0
    assert payload == {"seed": 0, "witness": None}
    payload = run_json("oracle", "--gens", "4,7,9", "--expr", "1/(X^4 - X^7)", "--max-terms", "1",
                       "--max-degree", "300", "--coeffs", "1,-1,2", "--trials", "0")
    assert payload["witness"] == ["X^4 - X^7"]


def test_oracle_screens_candidates_by_end_terms():
    # Each of the 2,415 enumerated pairs is rejected by its lowest and highest
    # terms before the products with the 101-term den(r) (4.5 s in full).
    start = time.perf_counter()
    payload = run_json("oracle", "--gens", "4,7,9", "--expr", "1/(X+1)^100", "--max-terms", "2",
                       "--max-degree", "30", "--coeffs", "1,-1,2", "--trials", "0")
    assert time.perf_counter() - start < 1.0
    assert payload == {"seed": 0, "witness": None}


def test_oracle_limits_exit_two_quickly():
    for bounds, message in (
        (("--max-degree", "30001"), "error: degree bound 30001 exceeds the limit 30000\n"),
        (("--max-terms", "17", "--trials", "0"), None),
        (("--max-terms", "16", "--trials", "2"), None),
        (("--max-terms", "3", "--trials", "8193"), None),
        (("--max-terms", "1000000000000", "--trials", "-1"), None),
    ):
        start = time.perf_counter()
        code, out, err = run_cli("oracle", "--gens", "4,7,9", "--expr", "1/X^5", *bounds)
        assert time.perf_counter() - start < 1.0, bounds
        assert (code, out) == (2, ""), bounds
        assert err == (message or "error: search size max(trials, 1) * 2^max_terms exceeds the limit 65536\n")
    assert run_json("oracle", "--gens", "4,7,9", "--expr", "1/X^4", "--max-terms", "3",
                    "--trials", "8192")["witness"] == ["X^4"]


def test_usage_errors_exit_two(tmp_path):
    path = tmp_path / "semigroup.json"
    path.write_text('{"generators": [5, 7]}', encoding="utf-8")
    monoid = '{"rank":2,"generators":[[1,0],[0,1]],"families":[]}'
    # Each usage error is one stderr line naming the argument or the check.
    for argv, names in (
        (("unknown-command",), ["invalid choice", "unknown-command"]),
        (("member", "--gens", "4,7,9"), ["--expr", "required"]),
        (("sprime", "--gens", "4,6"), ["gcd"]),
        (("egyptian", "3/2"), ["(0, 1]"]),
        (("egyptian", "5/4"), ["(0, 1]"]),
        (("egyptian", "-1/2"), ["(0, 1]"]),
        (("divide", "--a", "X", "--b", "0"), ["division by zero"]),
        (("semigroup",), ["--gens", "--file", "required"]),
        (("dimension",), ["--gens", "--file", "--monoid", "required"]),
        (("semigroup", "--gens", "4,7", "--file", str(path)), ["--gens", "--file", "not allowed"]),
        (("sprime", "--file", str(path), "--gens", "4,7"), ["--gens", "--file", "not allowed"]),
        (("dimension", "--gens", "4,7,9", "--monoid", monoid), ["--gens", "--monoid", "not allowed"]),
        (("dimension", "--monoid", monoid, "--file", str(path)), ["--file", "--monoid", "not allowed"]),
        (("semigroup", "--file", str(tmp_path / "missing.json")), ["No such file", "missing.json"]),
    ):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert err.count("\n") == 1 and err.startswith(("usage error: ", "error: ")), (argv, err)
        assert all(name in err for name in names), (argv, err)
        assert "missing or inconsistent" not in err, argv


def test_values_may_start_with_a_dash():
    for argv, expected in (
        (("member", "--gens", "4,7,9", "--expr", "-X"),
         '{"status":"NotMember","obstruction":"LinearSystemInfeasible"}\n'),
        (("member", "--gens", "4,7,9", "--expr", "-X^4/(X^4-1)"), '{"status":"Member","certificate":"1"}\n'),
        (("divide", "--a", "-X", "--b", "X"), '{"q":"-1","r":"0"}\n'),
        (("valuation", "--rank", "2", "--expr", "-X^(1,0)"), '{"valuation":[1,0]}\n'),
        (("kplusm", "--n", "2", "--expr", "-5 + (X/(X^2+1))*Y^-1"),
         '{"status":"Member","constantPart":"-5","maximalPart":"X/(Y + Y*X^2)"}\n'),
    ):
        assert run_cli(*argv) == (0, expected, ""), argv
        equals_form = [f"{token}={value}" for token, value in zip(argv[1::2], argv[2::2])]
        assert run_cli(argv[0], *equals_form) == (0, expected, ""), argv
    # A declared option string is still an option: -h prints help.
    code, out, err = run_cli("member", "-h")
    assert (code, err) == (0, "") and out.startswith("usage: recip member")
    code, out, err = run_cli("member", "--gens", "4,7,9", "--expr", "-h")
    assert (code, out) == (2, "") and "--expr" in err and err.count("\n") == 1


def test_parse_errors_exit_three():
    code, _, err = run_cli("member", "--gens", "4,7,9", "--expr", "X^")
    assert code == 3
    assert "position" in err
    code, _, _ = run_cli("egyptian", "abc")
    assert code == 3
    code, _, _ = run_cli("dimension", "--monoid", "{not json")
    assert code == 3


def test_plain_format():
    code, out, _ = run_cli("--format", "plain", "sprime", "--gens", "4,7,9")
    assert code == 0
    assert out.strip() == "sprime_generators: [4,7,9,10]"


def test_round_trip_and_determinism():
    commands = [
        ("sprime", "--gens", "4,7,9"),
        ("semigroup", "--gens", "2,3"),
        ("member", "--gens", "4,7,9", "--expr", "X^10"),
        ("valuation", "--rank", "2", "--expr", "X^(1,-2)/X^(0,1)"),
        ("divide", "--a", "X^3", "--b", "X^2+1"),
        ("egyptian", "4/5"),
        ("oracle", "--gens", "4,7,9", "--expr", "1/X^4", "--seed", "3"),
    ]
    transcripts = []
    for _ in range(2):
        chunks = []
        for argv in commands:
            code, out, _ = run_cli(*argv)
            assert code == 0
            json.loads(out)  # every output re-parses
            chunks.append(out)
        transcripts.append("".join(chunks))
    assert transcripts[0] == transcripts[1]
