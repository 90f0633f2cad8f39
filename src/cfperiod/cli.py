"""Command-line harness: expansions, classification, and period-length scans.

Subcommands
-----------
cf        expand one element and print its periodic form plus convergents
classify  run the recurrence classifier on a JSON job, print the evidence tree
periods   scan period lengths l(A_n) (optionally of D*A_n) to CSV
props     verify the two closed-form expansion families bit-exactly
schinzel  scan l(sqrt(f(n))) for an integer polynomial f
growth    place-absolute-value growth profile and dominance check

Jobs are JSON objects {"command", "d", "coeffs", "initials", "range",
"options"}; each K-element is a ["a", "b"] pair of rational strings meaning
a + b*sqrt(d) (a bare "a" is shorthand for ["a", "0"]).  CSV output is
deterministic: fixed column order, floats printed to 12 significant digits,
timing columns 0 unless --timing is given.  Summary lines start with '#'.

Exit codes: 0 success, 2 bad input, unmet precondition or a continued-fraction
walk that hit its step cap, 3 internal bug.
Step caps: `periods` walks each row up to --step-cap states (default
DEFAULT_STEP_CAP = 250000) and marks a row that hits it truncated; `cf`,
`props` and `schinzel` walk each expansion up to contfrac.DEFAULT_STEP_CAP =
10^7 states and exit 2 past it.
Environment: CFPERIOD_MAX_BITS (default 2^20) caps the bit size of a
coordinate: `periods` skips a term (A + B*sqrt(d))/m, gcd(A, B, m) = 1, whose
A, B or m is longer; the element grammar refuses a power x^e whose
coordinates could exceed it, `schinzel` a --poly of higher degree or
whose values f(n) on the range could, and `props` an --smax or --rmax whose
largest power of alpha could, each before computing them.
`periods`, `growth` and `schinzel` refuse a range of more than 1000000 rows,
and `props` an --smax or --rmax that gives more, with exit 2, before
computing any term.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from statistics import linear_regression
from typing import NamedTuple

from . import memo
from .classifier import classify, explain
from .contfrac import (convergent_bound_holds, convergents, cycle_lengths, expand,
                       surd_cycle_lengths)
from .errors import (DivisionByZero, HypothesisViolated, InternalError,
                     ParseError, PreconditionViolated, StepCapExceeded,
                     TooFewPoints, UsageError)
from .places import (Place, arch_dominant_log, finite_dominant_slope, fmt_float,
                     growth_rows, log_abs_centre, places_above, real_places,
                     root_abs_table)
from .qfield import QuadElem, check_field_parameter, floor_exact, split_square
from .recurrence import LinRec

DEFAULT_MAX_BITS = 1 << 20
DEFAULT_STEP_CAP = 250_000
MAX_SCAN_ROWS = 1_000_000
SCAN_BLOCK = 4096  # schinzel rows per kernel batch


def max_bits_guard() -> int:
    """CFPERIOD_MAX_BITS, or DEFAULT_MAX_BITS when it is unset or empty."""
    raw = os.environ.get("CFPERIOD_MAX_BITS")
    if raw is None or raw == "":
        return DEFAULT_MAX_BITS
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"CFPERIOD_MAX_BITS must be an integer, got {raw!r}")
    if value <= 0:
        raise UsageError(f"CFPERIOD_MAX_BITS must be positive, got {value}")
    return value


# ---------------------------------------------------------------------------
# element grammar:  expr := term (("+"|"-") term)*
#                   term := unary (("*"|"/") unary)*
#                   unary := ("+"|"-")* power
#                   power := atom ("^" exponent)?
#                   atom := INT | "sqrt" "(" expr ")" | "(" expr ")"
# ---------------------------------------------------------------------------

def _int_literal(digits: str, position: int | None = None) -> int:
    """int(digits), or a ParseError past the interpreter's digit limit."""
    try:
        return int(digits)
    except ValueError:
        n = sum(ch.isdigit() for ch in digits)
        raise ParseError(f"integer literal of {n} digits exceeds the limit of "
                         f"{sys.get_int_max_str_digits()} digits", position) from None


def _tokenize(src: str):
    toks = []
    i = 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if "0" <= c <= "9":
            j = i
            while j < len(src) and "0" <= src[j] <= "9":
                j += 1
            toks.append(("int", _int_literal(src[i:j], i), i))
            i = j
            continue
        if src.startswith("sqrt", i):
            toks.append(("sqrt", None, i))
            i += 4
            continue
        if c in "+-*/^()":
            toks.append((c, None, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("end", None, len(src)))
    return toks


def _log2_height(x) -> float:
    """log2 of a bound H(x) with every coordinate of x^e below H(x)^e in size.

    x = (A + B*sqrt(d))/m: the coordinates of x^e have numerators at most
    (|A| + |B|*sqrt(d))^e and denominators dividing m^e.
    """
    if isinstance(x, QuadElem):
        top = abs(x.A) + abs(x.B) * (math.isqrt(x.d) + 1)
        return math.log2(max(top, x.m))
    return math.log2(max(abs(x.numerator), x.denominator))


class _ElementParser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0

    def _peek(self):
        return self.toks[self.i]

    def _next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _expect(self, kind: str):
        tok = self._next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}", tok[2])
        return tok

    def parse(self):
        value = self._expr()
        tok = self._peek()
        if tok[0] != "end":
            raise ParseError("trailing input", tok[2])
        return value

    def _expr(self):
        value = self._term()
        while self._peek()[0] in ("+", "-"):
            op = self._next()[0]
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self):
        value = self._unary()
        while self._peek()[0] in ("*", "/"):
            op, _v, pos = self._next()
            rhs = self._unary()
            if op == "*":
                value = value * rhs
            else:
                if rhs == 0:
                    raise DivisionByZero(f"division by zero at position {pos}")
                value = value / rhs
        return value

    def _unary(self):
        sign = 1
        while self._peek()[0] in ("+", "-"):
            if self._next()[0] == "-":
                sign = -sign
        value = self._power()
        return value if sign > 0 else -value

    def _power(self):
        value = self._atom()
        if self._peek()[0] == "^":
            pos = self._next()[2]
            e = self._exponent()
            if e < 0 and value == 0:
                raise DivisionByZero("zero raised to a negative power")
            base = value if e >= 0 else 1 / value
            bits = max_bits_guard()
            if abs(e) * _log2_height(base) > bits:
                raise UsageError(f"the power at position {pos} would exceed "
                                 f"CFPERIOD_MAX_BITS = {bits} bits per coordinate")
            value = base ** abs(e)
        return value

    def _exponent(self) -> int:
        parenthesized = self._peek()[0] == "("
        if parenthesized:
            self._next()
        sign = 1
        while self._peek()[0] in ("+", "-"):
            if self._next()[0] == "-":
                sign = -sign
        tok = self._next()
        if tok[0] != "int":
            raise ParseError("expected an integer exponent", tok[2])
        if parenthesized:
            self._expect(")")
        return sign * tok[1]

    def _atom(self):
        tok = self._next()
        if tok[0] == "int":
            return Fraction(tok[1])
        if tok[0] == "(":
            value = self._expr()
            self._expect(")")
            return value
        if tok[0] == "sqrt":
            self._expect("(")
            inner = self._expr()
            self._expect(")")
            if isinstance(inner, QuadElem):
                raise ParseError("nested radicals are not supported", tok[2])
            if inner < 0:
                raise ParseError("sqrt of a negative value", tok[2])
            if inner == 0:
                return Fraction(0)
            s, k = split_square(inner.numerator * inner.denominator)
            if k == 1:
                return Fraction(s, inner.denominator)
            # k is squarefree by construction: no trial division of a large k
            return QuadElem(0, Fraction(s, inner.denominator), k)
        raise ParseError("expected a number, sqrt(...), or '('", tok[2])


def parse_element(src: str):
    """Evaluate the element grammar to a Fraction or a QuadElem, exactly."""
    try:
        return _ElementParser(src).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None


def parse_range(src: str) -> tuple[int, int]:
    m = re.fullmatch(r"\s*(-?\d+)\s*\.\.\s*(-?\d+)\s*", src)
    if not m:
        raise ParseError(f"range must look like 'n0..n1', got {src!r}")
    lo, hi = _int_literal(m.group(1)), _int_literal(m.group(2))
    if hi < lo:
        raise ParseError(f"empty range {src!r}")
    return lo, hi


def _check_scan_rows(rows: int, source: str) -> None:
    """Refuse a scan of more than MAX_SCAN_ROWS rows before any row is computed."""
    if rows > MAX_SCAN_ROWS:
        raise UsageError(f"{source} has {rows} rows, above the limit of {MAX_SCAN_ROWS}")


def parse_int_poly(src: str) -> list[int]:
    """"2x^2+1" -> ascending coefficients [1, 0, 2]; x or X accepted."""
    s = src.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ParseError(f"could not split terms of {src!r}")
    coeffs: dict[int, int] = {}
    for t in terms:
        m = re.fullmatch(r"([+-]?)(\d*)(?:([xX])(?:\^(\d+))?)?", t)
        if not m or (not m.group(2) and not m.group(3)):
            raise ParseError(f"bad term {t!r} in {src!r}")
        sign = -1 if m.group(1) == "-" else 1
        c = _int_literal(m.group(2)) if m.group(2) else 1
        e = 0 if not m.group(3) else (_int_literal(m.group(4)) if m.group(4) else 1)
        coeffs[e] = coeffs.get(e, 0) + sign * c
    deg = max((e for e, c in coeffs.items() if c), default=0)
    bits = max_bits_guard()
    if deg > bits:  # refused before a list of deg + 1 coefficients is built
        raise UsageError(f"polynomial degree {deg} exceeds CFPERIOD_MAX_BITS = {bits}")
    return [coeffs.get(i, 0) for i in range(deg + 1)]


# ---------------------------------------------------------------------------
# JSON jobs
# ---------------------------------------------------------------------------

def _is_int(x) -> bool:
    """A JSON integer: true and false are not (bool is an int subclass)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _job_elem(v, d: int) -> QuadElem:
    if isinstance(v, (int, str)):
        parts = (v, 0)
    elif isinstance(v, (list, tuple)) and len(v) == 2:
        parts = v
    else:
        raise UsageError(f"bad element spec {v!r}: want \"a\" or [\"a\", \"b\"]")
    try:
        a, b = (Fraction(str(x)) for x in parts)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad element spec {v!r}: coordinates must be rationals "
                         f"such as \"-7\" or \"3/2\"") from None
    return QuadElem(a, b, d)


def load_job(path: str) -> dict:
    try:
        with open(path) as fh:
            job = json.load(fh, parse_int=_int_literal)
    except OSError as e:
        raise UsageError(f"cannot read job file: {e}")
    except json.JSONDecodeError as e:
        raise UsageError(f"bad JSON in {path}: {e}")
    except RecursionError:
        raise UsageError(f"JSON in {path} is nested too deeply") from None
    if not isinstance(job, dict):
        raise UsageError("job file must contain a JSON object")
    return job


def rec_from_job(job: dict) -> LinRec:
    for key in ("d", "coeffs", "initials"):
        if key not in job:
            raise UsageError(f"job is missing {key!r}")
    d = job["d"]
    if not _is_int(d):
        raise UsageError("job field 'd' must be an integer")
    check_field_parameter(d)
    for key in ("coeffs", "initials"):
        if not isinstance(job[key], list):
            raise UsageError(f"job field {key!r} must be a JSON array, got {job[key]!r}")
    coeffs = [_job_elem(c, d) for c in job["coeffs"]]
    initials = [_job_elem(c, d) for c in job["initials"]]
    return LinRec(coeffs, initials, d)


def _job_range(job: dict) -> tuple[int, int]:
    rng = job.get("range")
    if (not isinstance(rng, (list, tuple)) or len(rng) != 2
            or not all(_is_int(x) for x in rng) or rng[1] < rng[0]):
        raise UsageError("job field 'range' must be [n0, n1] with n0 <= n1")
    _check_scan_rows(rng[1] - rng[0] + 1, "job field 'range'")
    return rng[0], rng[1]


def place_from_spec(spec, d: int) -> Place:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise UsageError("place spec must be an object with a 'kind' field")
    if spec["kind"] == "real":
        emb = spec.get("embedding")
        if not _is_int(emb) or emb not in (1, 2):
            raise UsageError("real place needs \"embedding\": 1 or 2")
        return real_places(d)[emb - 1]
    if spec["kind"] == "finite":
        p = spec.get("p")
        if not _is_int(p):
            raise UsageError("finite place needs an integer \"p\"")
        ws = places_above(p, d)
        if len(ws) == 1:
            return ws[0]
        branch = spec.get("branch")
        for w in ws:
            if _is_int(branch) and w.branch == branch:
                return w
        raise UsageError(
            f"p = {p} splits; pick \"branch\" from {[w.branch for w in ws]}")
    raise UsageError(f"unknown place kind {spec['kind']!r}")


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_cf(args) -> int:
    x = parse_element(args.expr)
    if isinstance(x, QuadElem) and not x.is_rational():
        # the kernel decides the step cap before expand walks up to it in
        # Python; a rational expansion has no cap
        cycle_lengths(x)
    e = expand(x)
    try:
        lines = [f"value = {x}",
                 f"expansion = {e}",
                 f"preperiod_len = {len(e.preperiod)}",
                 f"ell = {len(e.period)}",
                 "convergents:"]
        total = None if e.period else len(e.preperiod)
        count = 8 if total is None else min(8, total)
        # a_{n+1} for every row but the exact last one of a finite expansion
        qs = e.quotients(count + 1 if total is None else min(count + 1, total))
        for c in convergents(e, count):
            if total is not None and c.n == total - 1:
                mark = "exact"
            else:
                ok = convergent_bound_holds(e.value, c.p, c.q, qs[c.n + 1])
                mark = "yes" if ok else "NO"
            lines.append(f"  n={c.n} p={c.p} q={c.q} bound_ok={mark}")
    except ValueError as exc:  # an integer beyond the int -> str digit limit
        raise UsageError(f"cannot print the result: {exc}") from None
    _emit(lines, args.out)
    return 0


def cmd_classify(args) -> int:
    job = load_job(args.job)
    r = rec_from_job(job)
    c = classify(r)
    _emit(explain(c).splitlines(), args.out)
    return 0


def _term_bits(x: QuadElem) -> int:
    return max(x.A.bit_length(), x.B.bit_length(), x.m.bit_length())


def _doubling_windows(n_lo: int, n_hi: int):
    """Split [n_lo, n_hi] at powers of two: ..0, [1], [2,3], [4,7], ..."""
    if n_lo < 1:
        yield n_lo, min(0, n_hi)
    lo = 1
    while lo <= n_hi:
        hi = 2 * lo - 1
        a, b = max(lo, n_lo), min(hi, n_hi)
        if a <= b:
            yield a, b
        lo *= 2


def cmd_periods(args) -> int:
    job = load_job(args.job)
    r = rec_from_job(job)
    n_lo, n_hi = _job_range(job)
    mult = args.mult
    if mult == 0:
        raise UsageError("--mult must be nonzero")
    if args.step_cap < 1:
        raise UsageError(f"--step-cap must be at least 1, got {args.step_cap}")
    bits = max_bits_guard()
    lines = ["n,ell,preperiod_len,a1,wall_time_ms,truncated"]
    rows = {}
    for n in range(n_lo, n_hi + 1):
        t0 = time.perf_counter()
        a = r.term(n) * mult
        if _term_bits(a) > bits:
            print(f"periods: n={n} skipped (term exceeds {bits} bits)",
                  file=sys.stderr)
            continue
        if a == 0:
            rows[n] = (0, True)
            lines.append(f"{n},0,1,0,0,0")
            continue
        try:
            a1 = str(floor_exact(a))
        except ValueError as exc:  # beyond the int -> str digit limit
            raise UsageError(f"cannot print a1 at n={n}: {exc}") from None
        try:
            pre, ell = cycle_lengths(a, max_steps=args.step_cap)
        except StepCapExceeded as exc:
            # steps since the first reduced state is a certified lower bound
            ell, pre = exc.steps - exc.preperiod_seen, -1
        closed = pre >= 0
        ms = int(round((time.perf_counter() - t0) * 1000)) if args.timing else 0
        rows[n] = (ell, closed)
        lines.append(f"{n},{ell},{pre},{a1},{ms},{0 if closed else 1}")
    for a, b in _doubling_windows(n_lo, n_hi):
        window = [rows[n] for n in range(a, b + 1) if n in rows]
        if not window:
            continue
        best = max(ell for ell, _c in window)
        exact = all(c for _e, c in window)
        lines.append(f"# window [{a}..{b}] max_ell={best}"
                     f"{'' if exact else ' (lower bound)'}")
    _emit(lines, args.out)
    return 0


def _props_alpha(src: str, want_norm: tuple[int, ...]) -> QuadElem:
    alpha = parse_element(src)
    if not isinstance(alpha, QuadElem) or alpha.b == 0:
        raise PreconditionViolated(f"alpha must be quadratic, got {src!r}")
    nrm = alpha.norm()
    if nrm.denominator != 1 or int(nrm) not in want_norm:
        raise PreconditionViolated(
            f"alpha must be a unit with norm in {want_norm}, got norm {nrm}")
    if not alpha > 1:
        raise PreconditionViolated("alpha must exceed 1")
    return alpha


def _trace_int(x: QuadElem) -> int:
    t = 2 * x.a
    if t.denominator != 1:
        raise PreconditionViolated(f"trace of {x} is not an integer")
    return int(t)


def _p61_size(smax: int) -> tuple[int, int]:
    """(rows, largest exponent) of p61 up to smax, counted in closed form:
    r = 2k + 1 pairs with the odd s in [2r + 1, smax], M - 2k of them for
    M = (smax - 1) // 2, while 2k + 1 <= M; the largest s is 2M + 1."""
    m = max(0, (smax - 1) // 2)
    return (m + 1) // 2 * (m - (m - 1) // 2), 2 * m + 1


# per family: the norms alpha may have, the option that bounds the rows, the
# (rows, largest exponent) it allows, the (r, s) rows with A = alpha^r +
# alpha^s, the condition on conj(A), the expected (preperiod, period) from
# tr A and floor(alpha^r), and the lines after the rows
_PROPS_FAMILIES = {
    "p61": ((-1,),
            "smax", _p61_size,
            lambda args: [(r, s) for r in range(1, args.smax + 1, 2)
                          for s in range(r + 2, args.smax + 1, 2) if s - r > r],
            lambda c: -1 < c < 0,
            lambda t, f: ((t,), (f, t)),
            ()),
    "p62": ((-1, 1),
            "rmax", lambda rmax: (max(0, rmax // 2), 4 * max(0, rmax // 2)),
            lambda args: [(r, 2 * r) for r in range(2, args.rmax + 1, 2)],
            lambda c: 0 < c < 1,
            lambda t, f: ((t - 1,), (1, f - 2, 1, t - 2)),
            ("# note: the verified p62 repeating block is (1, floor(alpha^r)-2, 1, tr-2)",)),
}


def cmd_props(args) -> int:
    norms, option, size, rows_of, condition, blocks, notes = _PROPS_FAMILIES[args.family]
    alpha = _props_alpha(args.alpha, norms)
    # refused before the rows are listed or any power of alpha is computed
    bound = getattr(args, option)
    rows, top = size(bound)
    _check_scan_rows(rows, f"--{option} {bound}")
    bits = max_bits_guard()
    if rows and top * _log2_height(alpha) > bits:
        raise UsageError(f"alpha^{top} at --{option} {bound} could exceed "
                         f"CFPERIOD_MAX_BITS = {bits} bits per coordinate")
    lines = ["family,r,s,cond,ell,verdict"]
    fails = 0
    pairs = rows_of(args)
    for rr, ss in pairs:
        a = alpha ** rr + alpha ** ss
        cond = condition(a.conj())
        t = _trace_int(a)
        e = expand(a)
        match = (e.preperiod, e.period) == blocks(t, floor_exact(alpha ** rr))
        verdict = "pass" if (cond and match) else (
            "cond_fail" if not cond else "fail")
        fails += verdict == "fail"
        lines.append(f"{args.family},{rr},{ss},{'ok' if cond else 'no'},"
                     f"{len(e.period)},{verdict}")
    lines.extend(notes)
    lines.append(f"# summary: {len(pairs)} rows, {fails} failures")
    _emit(lines, args.out)
    return 0


def cmd_schinzel(args) -> int:
    coeffs = parse_int_poly(args.poly)
    n_lo, n_hi = parse_range(args.range)
    _check_scan_rows(n_hi - n_lo + 1, "--range")
    deg = len(coeffs) - 1
    # |f(n)| <= sum |c_i| * |n|^deg: refuse before any f(n) is computed
    bits, size = max_bits_guard(), sum(map(abs, coeffs)).bit_length()
    if size + deg * max(abs(n_lo), abs(n_hi), 2).bit_length() > bits:
        raise UsageError(f"f(n) on the range could exceed CFPERIOD_MAX_BITS = {bits} bits")
    lead = coeffs[-1]
    covered = (deg % 2 == 1) or (lead > 0 and math.isqrt(lead) ** 2 != lead)
    lines = ["n,ell,flag", f"# hypothesis: {'covered' if covered else 'not covered'}"]
    running = None
    increases = []
    # sqrt(f(n)) is the canonical surd (0 + sqrt(f(n)))/1, so f(n) is never
    # factored; each block of rows is measured in one batch, and blocks keep
    # the batch's buffers, about half a kB a row, bounded at any range
    for lo in range(n_lo, n_hi + 1, SCAN_BLOCK):
        block = range(lo, min(lo + SCAN_BLOCK, n_hi + 1))
        values = [sum(c * n ** i for i, c in enumerate(coeffs)) for n in block]
        flags = ["negative_skipped" if v < 0 else "square" if math.isqrt(v) ** 2 == v else ""
                 for v in values]
        ells = iter([ell for _j, ell in surd_cycle_lengths(
            [(0, 1, v) for v, flag in zip(values, flags) if not flag])])
        for n, flag in zip(block, flags):
            if flag == "negative_skipped":
                lines.append(f"{n},,{flag}")
                continue
            ell = 0 if flag else next(ells)
            lines.append(f"{n},{ell},{flag}")
            if running is None or ell > running:
                running = ell
                increases.append((n, ell))
    for n, ell in increases:
        lines.append(f"# running_max: n={n} ell={ell}")
    _emit(lines, args.out)
    return 0


class LogLimitEstimate(NamedTuple):
    slope: float
    positive: bool


ESTIMATOR_LABEL = "empirical estimator, not a proof"


def estimate_log_limit(values, margin: float = 0.05) -> LogLimitEstimate:
    """Least-squares slope of the tail half of (n, y) points.

    The verdict (slope > margin) is an empirical estimator, not a proof.
    """
    pts = sorted((int(n), float(y)) for n, y in values)
    if len(pts) < 16:
        raise TooFewPoints(f"need at least 16 points, got {len(pts)}")
    tail = pts[len(pts) // 2:]
    slope, _intercept = linear_regression([n for n, _ in tail],
                                          [y for _, y in tail])
    return LogLimitEstimate(slope, slope > margin)


def _growth_eps(options: dict) -> Fraction:
    raw = options.get("eps", "1/10")
    try:
        eps = Fraction(str(raw))
    except (ValueError, ZeroDivisionError):
        eps = None
    if isinstance(raw, bool) or eps is None or not 0 < eps < 1:
        raise UsageError(f"growth option 'eps' must be a rational strictly between "
                         f"0 and 1 such as \"1/10\", got {raw!r}")
    return eps


def cmd_growth(args) -> int:
    job = load_job(args.job)
    r = rec_from_job(job)
    n_lo, n_hi = _job_range(job)
    options = job.get("options") or {}
    if not isinstance(options, dict):
        raise UsageError(f"job field 'options' must be a JSON object, got {options!r}")
    v = place_from_spec(options.get("place"), r.d)
    eps = _growth_eps(options)
    # one memo per job: the bound column and the verdict share the minimal
    # polynomial, its factors and the dominant-root bounds
    with memo.scope():
        try:
            if v.kind == "finite":
                log_a1 = float(finite_dominant_slope(r, v)) * v.f * math.log(v.p)
            else:
                log_a1 = float(arch_dominant_log(r, v))
        except HypothesisViolated as e:
            table = root_abs_table(r, v)  # raises itself on a sequence with no roots
            print(f"error: {e}", file=sys.stderr)
            for line in table:
                print("  " + line, file=sys.stderr)
            return 2
        rows, passed = growth_rows(r, v, eps, n_lo, n_hi)
        lines = ["n,log_abs,bound"]
        factor = (1 - float(eps)) * log_a1
        for n, shown in rows:
            lines.append(f"{n},{shown},{fmt_float(factor * n)}")
        lines.append(f"# growth_check: {'pass' if passed else 'fail'}")
        if args.estimate_limit:
            w = real_places(r.d)[0]
            pts = [(n, log_abs_centre(diff, w))
                   for n in range(n_lo, n_hi + 1)
                   if (diff := (term := r.term(n)) - term.conj()) != 0]
            est = estimate_log_limit(pts)
            lines.append(f"# limit_slope={fmt_float(est.slope)} "
                         f"positive={'yes' if est.positive else 'no'} "
                         f"({ESTIMATOR_LABEL})")
        _emit(lines, args.out)
        return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    ap = argparse.ArgumentParser(
        prog="cfperiod",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cf", help="expand an element written in the "
                       "grammar: integers, sqrt(k), + - * / ( ) ^")
    p.add_argument("expr")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("classify", help="classify a recurrence from a JSON job")
    p.add_argument("job")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "periods",
        help="CSV columns n,ell,preperiod_len,a1,wall_time_ms,truncated; "
             "preperiod_len is -1 and truncated is 1 when the scan hit "
             "--step-cap (ell is then a certified lower bound)")
    p.add_argument("job")
    p.add_argument("--mult", type=int, default=1,
                   help="scan l(D*A_n) with this integer D")
    p.add_argument("--step-cap", type=int, default=DEFAULT_STEP_CAP,
                   help="per-row budget of expansion steps")
    p.add_argument("--timing", action="store_true",
                   help="fill wall_time_ms (off: column is 0 for determinism)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_periods)

    p = sub.add_parser("props", help="bit-exact closed-form expansion families")
    p.add_argument("--alpha", required=True)
    p.add_argument("--family", required=True, choices=("p61", "p62"))
    p.add_argument("--smax", type=int, default=15,
                   help="p61: odd exponent pairs r < s <= smax with s > 2r")
    p.add_argument("--rmax", type=int, default=12,
                   help="p62: even exponents r = 2..rmax")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("schinzel", help="scan l(sqrt(f(n))) for integer f")
    p.add_argument("--poly", required=True, help="e.g. \"2x^2+1\"")
    p.add_argument("--range", required=True, help="e.g. \"1..60\"")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_schinzel)

    p = sub.add_parser("growth", help="growth profile and dominance check")
    p.add_argument("job")
    p.add_argument("--estimate-limit", action="store_true",
                   help="also report the tail slope of log|A_n - A_n'|")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_growth)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if [] in vars(args).values():  # argparse before 3.12 reads "--opt=--" as []
            raise UsageError("an option was given '--' as its value")
        return args.func(args)
    except (UsageError, StepCapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
