"""End-to-end tests for the command-line harness.

Everything goes through cli.main(argv) so exit codes, stdout/stderr routing,
and the deterministic-output contract are exercised exactly as a shell user
would see them.
"""
import json
import math

import pytest

from cfperiod import cli
from cfperiod.errors import (DivisionByZero, ParseError, StepCapExceeded,
                             TooFewPoints)
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
    code, out, err = run(capsys, ["growth", twoadic_job(tmp_path, 10, 25)])
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
