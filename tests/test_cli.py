"""End-to-end tests for the command-line harness.

Everything goes through cli.main(argv) so exit codes, stdout/stderr routing,
and the deterministic-output contract are exercised exactly as a shell user
would see them.
"""
import contextlib
import functools
import io
import json
import math
import os
import pathlib
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfperiod import cli, contfrac, polyalg
from cfperiod.errors import (DivisionByZero, ParseError, StepCapExceeded,
                             TooFewPoints)
from cfperiod.polyalg import KPoly
from cfperiod.qfield import quad

from fractions import Fraction as F


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_job(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def pell_power_job(tmp_path, n0, n1):
    # A_n = (1+sqrt(2))^n
    return write_job(tmp_path, "pell.json",
                     {"command": "periods", "d": 2, "coeffs": ["2", "1"],
                      "initials": ["1", ["1", "1"]], "range": [n0, n1]})


def unbounded_job(tmp_path, n0, n1):
    # A_n = (3+sqrt(2))^n
    return write_job(tmp_path, "c1.json",
                     {"command": "periods", "d": 2, "coeffs": ["6", "-7"],
                      "initials": ["1", ["3", "1"]], "range": [n0, n1]})


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------

def test_parse_element_values():
    assert cli.parse_element("sqrt(2)") == quad(0, 1, 2)
    assert cli.parse_element("8+6*sqrt(2)") == quad(8, 6, 2)
    assert cli.parse_element("7/3") == F(7, 3)
    # square factors are pulled out of the radicand
    assert cli.parse_element("sqrt(8)") == quad(0, 2, 2)
    assert cli.parse_element("sqrt(9)") == F(3)
    assert cli.parse_element("sqrt(4/9)") == F(2, 3)
    assert cli.parse_element("sqrt(0)") == 0
    assert cli.parse_element("(1+sqrt(2))^3") == quad(7, 5, 2)
    assert cli.parse_element("(1+sqrt(2))^-1") == quad(-1, 1, 2)
    assert cli.parse_element("2^-2") == F(1, 4)
    assert cli.parse_element("-sqrt(2)+1/2") == quad(F(1, 2), -1, 2)
    assert cli.parse_element("--3") == F(3)


def test_parse_element_errors():
    with pytest.raises(ParseError, match="position 2"):
        cli.parse_element("2+$")
    with pytest.raises(ParseError, match="nested radicals"):
        cli.parse_element("sqrt(1+sqrt(2))")
    with pytest.raises(ParseError, match="negative"):
        cli.parse_element("sqrt(-2)")
    with pytest.raises(ParseError):
        cli.parse_element("2+")
    with pytest.raises(ParseError, match="trailing"):
        cli.parse_element("2 3")
    with pytest.raises(ParseError):
        cli.parse_element("(2")
    with pytest.raises(DivisionByZero):
        cli.parse_element("1/0")
    with pytest.raises(DivisionByZero):
        cli.parse_element("0^-1")
    # str.isdigit() holds for a superscript two, which int() refuses
    with pytest.raises(ParseError, match="unexpected character"):
        cli.parse_element("\u00b2")


def test_parse_int_poly():
    assert cli.parse_int_poly("2x^2+1") == [1, 0, 2]
    assert cli.parse_int_poly("x") == [0, 1]
    assert cli.parse_int_poly("X^3-x") == [0, -1, 0, 1]
    assert cli.parse_int_poly("5") == [5]
    assert cli.parse_int_poly("x^2-x^2") == [0]
    with pytest.raises(ParseError):
        cli.parse_int_poly("")
    with pytest.raises(ParseError):
        cli.parse_int_poly("2y+1")


def test_parse_range():
    assert cli.parse_range("1..60") == (1, 60)
    assert cli.parse_range(" -5 .. -2 ") == (-5, -2)
    with pytest.raises(ParseError, match="empty"):
        cli.parse_range("5..1")
    with pytest.raises(ParseError):
        cli.parse_range("abc")


LONG = "7" * 5000  # past the interpreter's 4300-digit limit on int <-> str


@pytest.mark.parametrize("argv", [
    ["cf", LONG],
    ["schinzel", "--poly", f"{LONG}x+1", "--range", "1..3"],
    ["schinzel", "--poly", "2x^2+1", "--range", f"1..{LONG}"],
    ["periods", "{job}"],
    ["classify", "{job}"],
    ["growth", "{job}"],
], ids=["cf", "schinzel-poly", "schinzel-range", "periods-job", "classify-job", "growth-job"])
def test_long_integer_literal_exits_two(capsys, tmp_path, argv):
    job = tmp_path / "long.json"
    job.write_text('{"d": 2, "coeffs": [' + LONG + '], "initials": [1], "range": [1, 2]}')
    code, _out, err = run(capsys, [a.replace("{job}", str(job)) for a in argv])
    assert code == 2
    assert err.startswith("error:") and "5000 digits" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# cf
# ---------------------------------------------------------------------------

def test_cf_golden_sqrt2(capsys):
    code, out, err = run(capsys, ["cf", "sqrt(2)"])
    assert code == 0 and err == ""
    assert out == (
        "value = sqrt(2)\n"
        "expansion = [1; (2)]\n"
        "preperiod_len = 1\n"
        "ell = 1\n"
        "convergents:\n"
        "  n=0 p=1 q=1 bound_ok=yes\n"
        "  n=1 p=3 q=2 bound_ok=yes\n"
        "  n=2 p=7 q=5 bound_ok=yes\n"
        "  n=3 p=17 q=12 bound_ok=yes\n"
        "  n=4 p=41 q=29 bound_ok=yes\n"
        "  n=5 p=99 q=70 bound_ok=yes\n"
        "  n=6 p=239 q=169 bound_ok=yes\n"
        "  n=7 p=577 q=408 bound_ok=yes\n")


def test_cf_golden_period_two_instance(capsys):
    code, out, err = run(capsys, ["cf", "8+6*sqrt(2)"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "expansion = [16; (2, 16)]"
    assert lines[3] == "ell = 2"
    assert lines[5] == "  n=0 p=16 q=1 bound_ok=yes"
    assert all(l.endswith("bound_ok=yes") for l in lines[5:])


def test_cf_golden_rational(capsys):
    code, out, err = run(capsys, ["cf", "7/3"])
    assert code == 0
    assert out == (
        "value = 7/3\n"
        "expansion = [2; 3]\n"
        "preperiod_len = 2\n"
        "ell = 0\n"
        "convergents:\n"
        "  n=0 p=2 q=1 bound_ok=yes\n"
        "  n=1 p=7 q=3 bound_ok=exact\n")


def test_cf_out_file(capsys, tmp_path):
    dest = tmp_path / "cf.txt"
    code, out, err = run(capsys, ["cf", "sqrt(2)", "--out", str(dest)])
    assert code == 0 and out == ""
    assert dest.read_text().splitlines()[1] == "expansion = [1; (2)]"


def test_cf_parse_error_exit_code(capsys):
    code, out, err = run(capsys, ["cf", "2+$"])
    assert code == 2
    assert err.startswith("error: ")
    assert "position 2" in err


@pytest.mark.parametrize("walk, argv", [
    ("expand", ["cf", "sqrt(2)"]),
    ("period_length", ["schinzel", "--poly", "x^2+2", "--range", "1..3"]),
], ids=["cf", "schinzel"])
def test_step_cap_hit_exits_two_without_traceback(capsys, monkeypatch, walk, argv):
    def capped(x, max_steps=None):
        raise StepCapExceeded(steps=7, preperiod_seen=1)

    monkeypatch.setattr(cli, walk, capped)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: step cap hit after 7 states\n"


def _call(capsys, argv):
    """main(argv) with an argparse rejection (SystemExit) read as its code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call_like_a_fresh_one(capsys, tmp_path, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    calls = [["cf", "sqrt(2)"],
             ["periods", pell_power_job(tmp_path, 1, 4), "--step-cap", "x"],
             ["periods", pell_power_job(tmp_path, 1, 4)]]
    cached = [_call(capsys, argv) for argv in calls]
    assert [c[0] for c in cached] == [0, 2, 0]
    assert "invalid int value: 'x'" in cached[1][2]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [_call(capsys, argv) for argv in calls] == cached


def test_cf_sqrt_of_a_large_squarefree_radicand(capsys):
    # 2^200 + 1 = (2^100)^2 + 1: far past trial division of the radicand
    code, out, err = run(capsys, ["cf", "sqrt(2^200+1)"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == f"value = sqrt({2**200 + 1})"
    assert lines[1:4] == [f"expansion = [{2**100}; ({2**101})]",
                          "preperiod_len = 1", "ell = 1"]


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

def test_periods_pell_powers_stay_short(capsys, tmp_path):
    code, out, err = run(capsys, ["periods", pell_power_job(tmp_path, 1, 30)])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "n,ell,preperiod_len,a1,wall_time_ms,truncated"
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    assert all(int(r[1]) <= 2 for r in rows)
    assert "10,2,1,6725,0,0" in lines  # floor((1+sqrt2)^10) = 6725
    assert lines[-5:] == [
        "# window [1..1] max_ell=1",
        "# window [2..3] max_ell=2",
        "# window [4..7] max_ell=2",
        "# window [8..15] max_ell=2",
        "# window [16..30] max_ell=2",
    ]


def test_periods_output_is_deterministic(capsys, tmp_path):
    job = pell_power_job(tmp_path, 1, 12)
    _, first, _ = run(capsys, ["periods", job])
    _, second, _ = run(capsys, ["periods", job])
    assert first == second
    dest = tmp_path / "scan.csv"
    code, out, _ = run(capsys, ["periods", job, "--out", str(dest)])
    assert code == 0 and out == ""
    assert dest.read_text() == first


def test_periods_rational_rows_have_ell_zero(capsys, tmp_path):
    job = write_job(tmp_path, "fib.json",
                    {"command": "periods", "d": 5, "coeffs": ["1", "1"],
                     "initials": ["0", "1"], "range": [0, 10]})
    code, out, err = run(capsys, ["periods", job])
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "0,0,1,0,0,0"
    assert lines[2] == "1,0,1,1,0,0"
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    assert all(int(r[1]) == 0 for r in rows)
    assert "# window [8..10] max_ell=0" in lines


def test_periods_accepts_a_huge_squarefree_d(capsys, tmp_path):
    # d = 2^200 + 1 is squarefree: factoring decides it, trial division up
    # to sqrt(d) would not finish
    d = 2 ** 200 + 1
    job = write_job(tmp_path, "huge.json",
                    {"command": "periods", "d": d, "coeffs": ["1"],
                     "initials": [["0", "1"]], "range": [1, 2]})
    code, out, err = run(capsys, ["periods", job])
    assert code == 0 and err == ""
    rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
    assert [r[:2] for r in rows] == [["1", "1"], ["2", "1"]]  # sqrt(d) = [2^100; (2^101)]


def test_periods_step_cap_marks_lower_bounds(capsys, tmp_path):
    code, out, err = run(capsys, ["periods", unbounded_job(tmp_path, 1, 10),
                                  "--step-cap", "50"])
    assert code == 0
    lines = out.splitlines()
    truncated = [l.split(",") for l in lines[1:]
                 if not l.startswith("#") and l.endswith(",1")]
    assert truncated, "expected some rows to hit the step cap"
    for row in truncated:
        assert row[2] == "-1"  # preperiod unknown when truncated
        assert 1 <= int(row[1]) <= 50
    assert any(l.startswith("# window") and l.endswith("(lower bound)")
               for l in lines)


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_periods_rejects_step_cap_below_one(capsys, tmp_path, cap):
    code, out, err = run(capsys, ["periods", unbounded_job(tmp_path, 1, 3),
                                  "--step-cap", cap])
    assert code == 2 and out == ""
    assert err == f"error: --step-cap must be at least 1, got {cap}\n"


def test_periods_multiplier_keeps_bounded_summary(capsys, tmp_path):
    """Scanning D*A_n instead of A_n must not change a flat window profile."""
    job = pell_power_job(tmp_path, 1, 16)
    _, plain, _ = run(capsys, ["periods", job])
    _, scaled, _ = run(capsys, ["periods", job, "--mult", "3"])

    def window_maxes(text):
        return [int(l.rsplit("=", 1)[1]) for l in text.splitlines()
                if l.startswith("# window")]

    assert window_maxes(plain)[1:] == [2, 2, 2, 2]
    tail = window_maxes(scaled)[1:]
    assert tail == [tail[0]] * len(tail)  # still flat, just a different level


def test_periods_adding_an_integer_sequence_changes_nothing(capsys, tmp_path):
    # (3+sqrt2)^n + n satisfies (x^2-6x+7)(x-1)^2 = x^4-8x^3+20x^2-20x+7
    shifted = write_job(
        tmp_path, "shifted.json",
        {"command": "periods", "d": 2, "coeffs": ["8", "-20", "20", "-7"],
         "initials": ["1", ["4", "1"], ["13", "6"], ["48", "29"]],
         "range": [1, 9]})
    _, base_out, _ = run(capsys, ["periods", unbounded_job(tmp_path, 1, 9),
                                  "--step-cap", "1500"])
    _, shift_out, _ = run(capsys, ["periods", shifted, "--step-cap", "1500"])
    base_rows = [l.split(",") for l in base_out.splitlines()[1:]
                 if not l.startswith("#")]
    shift_rows = [l.split(",") for l in shift_out.splitlines()[1:]
                  if not l.startswith("#")]
    for b, s in zip(base_rows, shift_rows):
        assert b[0] == s[0] and b[1] == s[1]  # same n, same ell
    assert ([l for l in base_out.splitlines() if l.startswith("# window")]
            == [l for l in shift_out.splitlines() if l.startswith("# window")])


def test_periods_bit_guard_skips_rows(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CFPERIOD_MAX_BITS", "40")
    code, out, err = run(capsys, ["periods", unbounded_job(tmp_path, 15, 25),
                                  "--step-cap", "100"])
    assert code == 0
    assert "skipped (term exceeds 40 bits)" in err
    kept = [l.split(",")[0] for l in out.splitlines()[1:]
            if l and not l.startswith("#")]
    assert kept == [str(n) for n in range(15, 20)]


def test_bad_bit_guard_env_value(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CFPERIOD_MAX_BITS", "abc")
    code, out, err = run(capsys, ["periods", pell_power_job(tmp_path, 1, 2)])
    assert code == 2
    assert "CFPERIOD_MAX_BITS must be an integer" in err


def test_power_beyond_bit_guard_is_refused_before_computing(capsys, monkeypatch):
    code, out, err = run(capsys, ["cf", "3^9999999999999"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "CFPERIOD_MAX_BITS" in err
    assert "Traceback" not in err
    monkeypatch.setenv("CFPERIOD_MAX_BITS", "40")
    for expr in ("2^41", "(1/3)^-26", "(1+sqrt(2))^32", "(1+sqrt(2))^-32",
                 "(2^20)^3"):
        code, out, err = run(capsys, ["cf", expr])
        assert code == 2 and "CFPERIOD_MAX_BITS" in err, expr
        assert "Traceback" not in err
    for expr in ("2^39", "(1/3)^-25", "1^99999999", "(1+sqrt(2))^20"):
        code, _, err = run(capsys, ["cf", expr])
        assert code == 0 and err == "", expr


def test_cf_result_too_long_to_print_exits_two(capsys):
    code, out, err = run(capsys, ["cf", "2^99999"])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot print the result")
    assert "Traceback" not in err


def test_periods_a1_too_long_to_print_exits_two(capsys, tmp_path):
    # a1 = floor((3+sqrt2)^7000) has about 4500 digits, past the int -> str limit
    code, out, err = run(capsys, ["periods", unbounded_job(tmp_path, 7000, 7000),
                                  "--step-cap", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot print a1 at n=7000: ")
    assert "Traceback" not in err


def test_periods_kernel_fault_exits_three(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(contfrac, "_kernel", lambda: lambda state, budget, probe: -2)
    code, out, err = run(capsys, ["periods", unbounded_job(tmp_path, 5, 5)])
    assert code == 3 and out == ""
    assert err.startswith("internal error: CF kernel left the reduced cycle")


def test_job_validation_errors(capsys, tmp_path):
    code, _, err = run(capsys, ["periods", str(tmp_path / "nope.json")])
    assert code == 2 and "cannot read job file" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["periods", str(bad)])
    assert code == 2 and "bad JSON" in err

    missing = write_job(tmp_path, "missing.json", {"d": 2, "coeffs": ["1"]})
    code, _, err = run(capsys, ["periods", missing])
    assert code == 2 and "initials" in err

    badrange = write_job(tmp_path, "badrange.json",
                         {"d": 2, "coeffs": ["2", "1"],
                          "initials": ["1", ["1", "1"]], "range": [5, 1]})
    code, _, err = run(capsys, ["periods", badrange])
    assert code == 2 and "range" in err


@pytest.mark.parametrize("fields, hint", [
    ({"d": 4}, "squarefree"),
    ({"d": 1}, ">= 2"),
    ({"coeffs": "6"}, "JSON array"),
    ({"coeffs": "-7"}, "JSON array"),
    ({"coeffs": ["1", "abc"]}, "bad element spec"),
])
def test_bad_job_fields_exit_two(capsys, tmp_path, fields, hint):
    job = write_job(tmp_path, "job.json",
                    {"command": "classify", "d": 5, "coeffs": ["1", "1"],
                     "initials": ["0", "1"], **fields})
    code, out, err = run(capsys, ["classify", job])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and hint in err
    assert "Traceback" not in err


def test_deeply_nested_input_exits_two(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, ["classify", str(deep)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "nested too deeply" in err
    assert "Traceback" not in err
    code, out, err = run(capsys, ["cf", "(" * 5_000 + "2" + ")" * 5_000])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "nested too deeply" in err


@pytest.mark.parametrize("fields", [
    {"range": [True, 3]},
    {"options": {"place": {"kind": "finite", "p": True}}},
    {"options": {"place": {"kind": "real", "embedding": True}}},
    {"options": {"place": {"kind": "finite", "p": 2, "branch": True}}},
], ids=["range", "p", "embedding", "branch"])
def test_json_booleans_are_not_integers(capsys, tmp_path, fields):
    spec = json.loads(pathlib.Path(twoadic_job(tmp_path, 1, 12)).read_text())
    job = write_job(tmp_path, "bool.json", {**spec, **fields})
    code, out, err = run(capsys, ["growth", job])
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# props
# ---------------------------------------------------------------------------

def test_props_first_family_passes_exactly_on_s_equals_3r(capsys):
    code, out, err = run(capsys,
                         ["props", "--alpha", "1+sqrt(2)", "--family", "p61"])
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
    assert len(rows) == 16
    assert all(r[3] == "ok" for r in rows)  # -1 < A' < 0 holds on every pair
    passes = {(int(r[1]), int(r[2])) for r in rows if r[5] == "pass"}
    assert passes == {(1, 3), (3, 9), (5, 15)}
    assert all(r[4] == "2" for r in rows if r[5] == "pass")
    assert out.splitlines()[-1] == "# summary: 16 rows, 13 failures"


def test_props_first_family_other_norm_minus_one_unit(capsys):
    code, out, err = run(capsys, ["props", "--alpha", "2+sqrt(5)",
                                  "--family", "p61", "--smax", "9"])
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
    passes = {(int(r[1]), int(r[2])) for r in rows if r[5] == "pass"}
    assert passes == {(1, 3), (3, 9)}
    assert out.splitlines()[-1] == "# summary: 6 rows, 4 failures"


@pytest.mark.parametrize("alpha", ["1+sqrt(2)", "2+sqrt(3)"])
def test_props_second_family_all_pass(capsys, alpha):
    code, out, err = run(capsys, ["props", "--alpha", alpha,
                                  "--family", "p62", "--rmax", "12"])
    assert code == 0
    lines = out.splitlines()
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    assert [int(r[1]) for r in rows] == [2, 4, 6, 8, 10, 12]
    assert all(r[4] == "4" and r[5] == "pass" for r in rows)
    assert ("# note: the verified p62 repeating block is "
            "(1, floor(alpha^r)-2, 1, tr-2)") in lines
    assert lines[-1] == "# summary: 6 rows, 0 failures"


def test_props_alpha_validation(capsys):
    code, _, err = run(capsys, ["props", "--alpha", "3+sqrt(2)",
                                "--family", "p61"])
    assert code == 2 and "norm" in err
    code, _, err = run(capsys, ["props", "--alpha", "2", "--family", "p61"])
    assert code == 2 and "quadratic" in err
    # the first family needs norm -1; 2+sqrt(3) has norm +1
    code, _, err = run(capsys, ["props", "--alpha", "2+sqrt(3)",
                                "--family", "p61"])
    assert code == 2 and "norm" in err


# ---------------------------------------------------------------------------
# schinzel
# ---------------------------------------------------------------------------

def test_schinzel_covered_polynomial_running_max(capsys):
    code, out, err = run(capsys, ["schinzel", "--poly", "2x^2+1",
                                  "--range", "1..60"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "# hypothesis: covered"
    running = [l for l in lines if l.startswith("# running_max")]
    assert len(running) >= 4  # the running max strictly increases >= 3 times
    assert running[0] == "# running_max: n=1 ell=2"
    assert running[-1] == "# running_max: n=60 ell=124"


def test_schinzel_squares_and_uncovered_flag(capsys):
    code, out, _ = run(capsys, ["schinzel", "--poly", "x^2", "--range", "1..10"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "# hypothesis: not covered"
    rows = [l.split(",") for l in lines[2:] if not l.startswith("#")]
    assert all(r[1] == "0" and r[2] == "square" for r in rows)

    code, out, _ = run(capsys, ["schinzel", "--poly", "x^2+1",
                                "--range", "1..10"])
    lines = out.splitlines()
    assert lines[1] == "# hypothesis: not covered"
    rows = [l.split(",") for l in lines[2:] if not l.startswith("#")]
    assert all(int(r[1]) >= 1 and r[2] == "" for r in rows)


def test_schinzel_negative_values_skipped(capsys):
    code, out, _ = run(capsys, ["schinzel", "--poly", "x-10",
                                "--range", "5..12"])
    assert code == 0
    assert out == ("n,ell,flag\n"
                   "# hypothesis: covered\n"
                   "5,,negative_skipped\n"
                   "6,,negative_skipped\n"
                   "7,,negative_skipped\n"
                   "8,,negative_skipped\n"
                   "9,,negative_skipped\n"
                   "10,0,square\n"
                   "11,0,square\n"
                   "12,1,\n"
                   "# running_max: n=10 ell=0\n"
                   "# running_max: n=12 ell=1\n")


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------

def twoadic_job(tmp_path, n0, n1):
    # A_n = 2^(-n) + 3^n, carried in Q(sqrt(17)); |A_n|_2 = 2^n exactly
    return write_job(tmp_path, "twoadic.json",
                     {"command": "growth", "d": 17,
                      "coeffs": [["7/2", "0"], ["-3/2", "0"]],
                      "initials": [["2", "0"], ["7/2", "0"]],
                      "range": [n0, n1],
                      "options": {"place": {"kind": "finite", "p": 2,
                                            "branch": 1},
                                  "eps": "1/10"}})


def test_growth_two_adic_profile_is_exact(capsys, tmp_path):
    # |v(N(A_n))| reaches about 3n, so the 2-adic root is lifted to ~600 bits
    code, out, err = run(capsys, ["growth", twoadic_job(tmp_path, 20, 200)])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "n,log_abs,bound"
    assert lines[-1] == "# growth_check: pass"
    for l in lines[1:-1]:
        n, log_abs, _bound = l.split(",")
        assert log_abs == f"{int(n) * math.log(2):.12g}"


def test_growth_archimedean_pass(capsys, tmp_path):
    job = write_job(tmp_path, "fibg.json",
                    {"command": "growth", "d": 5, "coeffs": ["1", "1"],
                     "initials": ["0", "1"], "range": [20, 120],
                     "options": {"place": {"kind": "real", "embedding": 1},
                                 "eps": "1/20"}})
    code, out, err = run(capsys, ["growth", job])
    assert code == 0
    assert out.splitlines()[-1] == "# growth_check: pass"


def test_growth_unit_place_rejected_with_root_table(capsys, tmp_path):
    # tr((1+sqrt2)^n): both roots are units at every finite place
    job = write_job(tmp_path, "trace.json",
                    {"command": "growth", "d": 2, "coeffs": ["2", "1"],
                     "initials": ["2", "2"], "range": [1, 40],
                     "options": {"place": {"kind": "finite", "p": 7,
                                           "branch": 3}}})
    code, out, err = run(capsys, ["growth", job])
    assert code == 2
    assert err.startswith("error: no root with |.|_v > 1")
    assert "(7^1)^(0)" in err  # the surfaced root table shows |root|_v = 1


@pytest.mark.parametrize("place", [{"kind": "real", "embedding": 1},
                                   {"kind": "finite", "p": 2}],
                         ids=["real", "2-adic"])
def test_growth_zero_sequence_reports_once(capsys, tmp_path, place):
    job = write_job(tmp_path, "zero.json",
                    {"command": "growth", "d": 5, "coeffs": ["1", "1"],
                     "initials": [["0", "0"], ["0", "0"]], "range": [1, 10],
                     "options": {"place": place}})
    assert run(capsys, ["growth", job]) == (2, "", "error: sequence has no roots\n")


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("golden, spec, extra", [
    # Fibonacci at the first real place of Q(sqrt(5)); F_0 = 0 leaves a gap
    ("growth_fib_real1.txt",
     {"command": "growth", "d": 5, "coeffs": ["1", "1"], "initials": ["0", "1"],
      "range": [0, 60], "options": {"place": {"kind": "real", "embedding": 1},
                                    "eps": "1/20"}}, []),
    # A_n = (1-sqrt2)^n at the second real place, with the limit estimate
    ("growth_pell_real2_estimate.txt",
     {"command": "growth", "d": 2, "coeffs": ["2", "1"], "initials": ["1", ["1", "-1"]],
      "range": [1, 40], "options": {"place": {"kind": "real", "embedding": 2},
                                    "eps": "1/10"}}, ["--estimate-limit"]),
])
def test_growth_real_place_golden(capsys, tmp_path, monkeypatch, golden, spec, extra):
    job = write_job(tmp_path, "g.json", spec)
    # real-place numerics run at one fixed precision, which no environment
    # variable changes (8 digits used to move 60 of the Fibonacci rows)
    for digits in (None, "8"):
        if digits:
            monkeypatch.setenv("CFPERIOD_PRECISION_DIGITS", digits)
        code, out, err = run(capsys, ["growth", job] + extra)
        assert code == 0 and err == ""
        assert out == (GOLDEN / golden).read_text()


def test_growth_estimate_limit_reports_log_of_dominant_root(capsys, tmp_path):
    job = write_job(tmp_path, "pellg.json",
                    {"command": "growth", "d": 2, "coeffs": ["2", "1"],
                     "initials": ["1", ["1", "1"]], "range": [1, 40],
                     "options": {"place": {"kind": "real", "embedding": 1},
                                 "eps": "1/10"}})
    code, out, err = run(capsys, ["growth", job, "--estimate-limit"])
    assert code == 0
    last = out.splitlines()[-1]
    assert last.startswith("# limit_slope=")
    assert "positive=yes" in last
    assert cli.ESTIMATOR_LABEL in last
    slope = float(last.split("=")[1].split()[0])
    assert abs(slope - math.log(1 + math.sqrt(2))) < 1e-6


@pytest.mark.parametrize("eps", ["abc", "3/2", "1", "0", "-1/10", "1/0", 1.5,
                                 True, None, ["1/10"]])
def test_growth_bad_eps_exits_two_before_any_row(capsys, tmp_path, eps):
    spec = json.loads(pathlib.Path(twoadic_job(tmp_path, 20, 40)).read_text())
    spec["options"]["eps"] = eps
    job = write_job(tmp_path, "badeps.json", spec)
    code, out, err = run(capsys, ["growth", job])
    assert code == 2 and out == ""
    assert err.startswith("error: growth option 'eps' must be a rational")
    assert "Traceback" not in err


@pytest.mark.parametrize("eps", [0.1, "0.1", "1/10"])
def test_growth_eps_accepts_json_numbers(capsys, tmp_path, eps):
    spec = json.loads(pathlib.Path(twoadic_job(tmp_path, 20, 40)).read_text())
    spec["options"]["eps"] = eps
    code, out, err = run(capsys, ["growth", write_job(tmp_path, "eps.json", spec)])
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "# growth_check: pass"


def test_place_spec_errors(capsys, tmp_path):
    job = write_job(tmp_path, "nobranch.json",
                    {"command": "growth", "d": 2, "coeffs": ["2", "1"],
                     "initials": ["2", "2"], "range": [1, 20],
                     "options": {"place": {"kind": "finite", "p": 7}}})
    code, _, err = run(capsys, ["growth", job])
    assert code == 2 and "splits" in err and "[3, 4]" in err


# ---------------------------------------------------------------------------
# estimator as a library function
# ---------------------------------------------------------------------------

def test_estimate_log_limit_behaviour():
    pell = 1 + math.sqrt(2)
    pts = [(n, math.log(pell ** n - (-1 / pell) ** n)) for n in range(1, 41)]
    est = cli.estimate_log_limit(pts)
    assert est.positive
    assert abs(est.slope - math.log(pell)) < 0.01

    flat = cli.estimate_log_limit([(n, math.log(2 * math.sqrt(5)))
                                   for n in range(1, 41)])
    assert not flat.positive
    assert abs(flat.slope) < 1e-9

    with pytest.raises(TooFewPoints):
        cli.estimate_log_limit([(n, 1.0) for n in range(15)])

    assert cli.ESTIMATOR_LABEL == "empirical estimator, not a proof"


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_job_golden(capsys, tmp_path):
    job = write_job(tmp_path, "fib.json",
                    {"command": "classify", "d": 5, "coeffs": ["1", "1"],
                     "initials": ["0", "1"]})
    code, out, err = run(capsys, ["classify", job])
    assert code == 0
    assert out == (
        "verdict: ClassA (rational sequence; bounded period lengths)\n"
        "minimal charpoly: x^2 + (-1)*x + -1\n"
        "difference part P_D: 0 (zero sequence)\n"
        "sum part P_S: x^2 + (-1)*x + -1\n"
        "note: difference sequence vanishes identically: "
        "every A_n is rational\n")


@pytest.mark.parametrize("e", [17, 20])
def test_classify_near_the_unit_circle(capsys, tmp_path, e):
    # A_n = -A_(n-1) - c A_(n-2), c = 1 + 10^-e: both roots of x^2 + x + c lie
    # outside the circle by about 10^-e / 2, which floating point cannot see
    c = f"{10 ** e + 1}/{10 ** e}"
    job = write_job(tmp_path, "near.json",
                    {"command": "classify", "d": 2, "coeffs": ["-1", f"-{c}"],
                     "initials": [["1", "1"], "1"]})
    code, out, err = run(capsys, ["classify", job])
    assert (code, err) == (0, "")
    if e == 20:
        assert out == (GOLDEN / "classify_near_circle.txt").read_text()
    assert out.startswith("verdict: ProvenUnbounded\nstep: B.1\n")
    assert f"P_S factor x^2 + x + {c} (mult 1): roots 0/0/2," in out


def test_classify_refuses_p_d_beyond_the_factor_cap(capsys, tmp_path):
    # charpoly prod (x - k - sqrt 2), k = 1..7: P_D has the 14 roots k +- sqrt 2
    p = KPoly.from_roots([quad(k, 1, 2) for k in range(1, 8)], 2)
    coeffs = [[str(-c.a), str(-c.b)] for c in reversed(p.coeffs[:-1])]
    job = write_job(tmp_path, "order7.json",
                    {"command": "classify", "d": 2, "coeffs": coeffs,
                     "initials": ["1"] * 6 + [["1", "1"]]})
    code, out, err = run(capsys, ["classify", job])
    assert (code, out, err) == (2, "", "error: degree 14 exceeds factor cap 12\n")


def _order_k_sqrt2_job(tmp_path, k):
    # A_n = A_(n-1) + ... + A_(n-k+1) + (1 + sqrt 2) A_(n-k); A_0 = 1 + sqrt 2, the rest 1
    return write_job(tmp_path, f"order{k}.json",
                     {"command": "classify", "d": 2, "coeffs": ["1"] * (k - 1) + [["1", "1"]],
                      "initials": [["1", "1"]] + ["1"] * (k - 1)})


@pytest.mark.parametrize("k, golden", [
    (6, (0, (GOLDEN / "classify_order6_sqrt2.txt").read_text(), "")),
    (7, (2, "", (GOLDEN / "classify_order7_sqrt2.err").read_text())),
    (8, (2, "", "error: degree 16 exceeds factor cap 12\n")),
])
def test_classify_order_k_factors_no_ratio_polynomial(capsys, tmp_path, monkeypatch,
                                                      k, golden):
    # the over-Q pool N = p * conj(p) has degree 2k and is irreducible; its
    # self-ratio polynomial, of degree (2k)^2 - 2k, is searched for cyclotomic
    # factors, never factored.  The largest polynomial factored is N, or at
    # k = 6 the norm (degree 4k) that splits the degree-2k P_D over K.
    factored, searched = [], []
    zz_factor, cyclotomic_orders = polyalg._zz_factor, polyalg._cyclotomic_orders

    def factoring(ints):
        factored.append(len(ints) - 1)
        return zz_factor(ints)

    def searching(r, ones=0):
        searched.append(r.degree - ones)
        return cyclotomic_orders(r, ones)

    monkeypatch.setattr(polyalg, "_zz_factor", factoring)
    monkeypatch.setattr(polyalg, "_cyclotomic_orders", searching)
    assert run(capsys, ["classify", _order_k_sqrt2_job(tmp_path, k)]) == golden
    assert max(searched) == (2 * k) ** 2 - 2 * k
    assert 2 * k in factored and max(factored) <= 4 * k


# ---------------------------------------------------------------------------
# fuzzing: any job file, and any string over the element grammar's alphabet,
# exits 0 or 2 and never raises
# ---------------------------------------------------------------------------

# Every integer in a job and every radicand stays below 10^12: factoring an
# unbounded radicand or d has no budget yet, a known hang rather than a
# traceback.  Ranges stay in [-8, 8], `periods` runs with a step cap of 40,
# `cf` walks at most 2 000 steps (it has no --step-cap) and coordinates are
# capped at 2 000 bits, so that every example is short.
FUZZ_LIMIT = 10**12
FUZZ_ENV = {"CFPERIOD_MAX_BITS": "2000"}


def _json_values(ints):
    scalars = (st.none() | st.booleans() | ints | st.floats() | st.text(max_size=8)
               | st.sampled_from(["0", "1", "-7", "3/2", "1/0", "2/-3"]))
    return st.recursive(scalars, lambda kids: st.lists(kids, max_size=3)
                        | st.dictionaries(st.text(max_size=6), kids, max_size=3),
                        max_leaves=6)


_ANY = _json_values(st.integers(-3, 3) | st.integers(-FUZZ_LIMIT, FUZZ_LIMIT))
_SMALL = _json_values(st.integers(-8, 8))
_BASE_JOBS = [
    ("classify", {"d": 5, "coeffs": ["1", "1"], "initials": ["0", "1"]}),
    ("periods", {"d": 2, "coeffs": ["6", "-7"], "initials": ["1", ["3", "1"]],
                 "range": [0, 4]}),
    ("growth", {"d": 17, "coeffs": ["7/2", "-3/2"], "initials": ["2", "7/2"],
                "range": [1, 12], "options": {"place": {"kind": "finite", "p": 2,
                                                        "branch": 1}}}),
    ("growth", {"d": 5, "coeffs": ["1", "1"], "initials": ["0", "1"], "range": [1, 12],
                "options": {"place": {"kind": "real", "embedding": 2}, "eps": "1/10"}}),
]


def _paths(node, path=()):
    """The path of every value inside a parsed JSON value, node itself first."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def _job_files(draw):
    """(command, text of a job file): a valid job with one or two values
    anywhere in it replaced by arbitrary JSON or dropped, or now and then
    text that is no job at all."""
    command, base = draw(st.sampled_from(_BASE_JOBS))
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return command, draw(st.integers(0, 3_000).map(lambda n: "[" * n + "]" * n))
    if kind == 1:
        return command, draw(st.text(max_size=20))
    job = json.loads(json.dumps(dict(base, command=command)))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(job))[1:]))
        parent = functools.reduce(lambda node, key: node[key], path[:-1], job)
        if draw(st.integers(0, 4)) == 0:
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_SMALL if path[0] == "range" else _ANY)
    return command, json.dumps(job)


def _assert_exit_zero_or_two(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2), (code, err.getvalue())
    assert code == 0 or err.getvalue().startswith("error: "), err.getvalue()


@settings(max_examples=200)
@given(_job_files())
@example(("classify", "[" * 100_000 + "]" * 100_000))
@example(("growth", json.dumps(dict(_BASE_JOBS[2][1], options={
    "place": {"kind": "finite", "p": True}}))))
def test_fuzzed_job_files_exit_zero_or_two(case):
    command, text = case
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, FUZZ_ENV):
        path = os.path.join(tmp, "job.json")
        with open(path, "w") as fh:
            fh.write(text)
        extra = ["--step-cap", "40"] if command == "periods" else []
        _assert_exit_zero_or_two([command, path] + extra)


_LITERAL = st.integers(0, FUZZ_LIMIT - 1).map(str)
_RADICAND = st.tuples(st.sampled_from(["", "-"]), _LITERAL,
                      st.sampled_from(["", "/3", "/4"])).map("".join)
# "sqrt" comes with its literal radicand, or last: "sqrt" followed by "(" and
# an expression could build a radicand of any size
_CF_TOKEN = (_LITERAL | st.sampled_from(list("+-*/^()"))
             | _RADICAND.map(lambda r: f"sqrt({r})"))
_CF_TAIL = st.sampled_from(["", " sqrt", " sqrt(", " sqrt()", " $"])


@settings(max_examples=300)
@given(st.lists(_CF_TOKEN, max_size=12).map(" ".join), _CF_TAIL)
@example("(" * 5_000 + "2" + ")" * 5_000, "")
def test_fuzzed_elements_exit_zero_or_two(text, tail):
    capped = functools.partial(contfrac.expand, max_steps=2_000)
    with mock.patch.object(cli, "expand", capped), mock.patch.dict(os.environ, FUZZ_ENV):
        _assert_exit_zero_or_two(["cf", "--", text + tail])
