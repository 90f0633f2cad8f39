"""Output checks for benchmark jobs.

``problems(job, code, out, err)`` returns a list of what is wrong with one
job's result, empty when the output is well formed.  It checks structure only,
so it holds for any seed: exit code 0 and an empty stderr, known verdicts and
step tags, well-formed CSV rows, truncated rows carrying preperiod_len = -1,
and summary lines that agree with the rows they summarise.  Where the
generator built a job for a known outcome (``job["expect"]``), that outcome is
checked too.  For the default seed, ``digest`` fingerprints the output for a
byte-for-byte comparison with the recorded reference.
"""
from __future__ import annotations

import hashlib
import re

VERDICT_LABELS = {
    "verdict: ClassA (rational sequence; bounded period lengths)": "ClassA",
    "verdict: ClassB_b (sign-flip irrational offset; bounded period lengths)": "ClassB_b",
    "verdict: ClassC_c (possibly bounded)": "ClassC_c",
    "verdict: ProvenUnbounded": "ProvenUnbounded",
    "verdict: DegenerateInput (split into arithmetic subsequences)": "DegenerateInput",
}
STEP_TAGS = {"B.1", "B.2", "B.3", "B.4", "C.1", "C.2", "C.3", "C.4", "C.5", "C.6"}

INT = r"-?\d+"
FLOAT = r"-?(?:\d+(?:\.\d*)?(?:e[+-]\d+)?|inf|nan)"


def digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\0{out}".encode()).hexdigest()


def problems(job: dict, code: int, out: str, err: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {err.strip()[:200]}"]
    if err:
        return [f"unexpected stderr: {err.strip()[:200]}"]
    lines = out.splitlines()
    if not lines:
        return ["empty output"]
    check = _CHECKS[job["argv"][0]]
    return check(job, lines)


def periods_rows(lines):
    """Parse a periods CSV, header first: ({n: (ell, closed)}, window lines, problems)."""
    bad = []
    rows = {}
    windows = []
    for line in lines[1:]:
        if line.startswith("# window "):
            windows.append(line)
            continue
        m = re.fullmatch(rf"({INT}),(\d+),({INT}),({INT}),0,([01])", line)
        if not m:
            bad.append(f"bad row {line!r}")
            continue
        n, ell, pre, _a1, trunc = (int(g) for g in m.groups())
        if (pre == -1) != (trunc == 1) or pre < -1:
            bad.append(f"row {n}: preperiod_len {pre} with truncated {trunc}")
        if rows and n <= max(rows):
            bad.append(f"row {n} out of order")
        rows[n] = (ell, trunc == 0)
    return rows, windows, bad


def _check_periods(job, lines):
    if lines[0] != "n,ell,preperiod_len,a1,wall_time_ms,truncated":
        return [f"bad header {lines[0]!r}"]
    n0, n1 = job["spec"]["range"]
    rows, windows, bad = periods_rows(lines)
    if sorted(rows) != list(range(n0, n1 + 1)):
        bad.append(f"rows {sorted(rows)[:3]}... do not cover {n0}..{n1}")
    if job["expect"].get("truncated") and any(c for _e, c in rows.values()):
        bad.append("a row built to reach the step cap closed")
    want = []
    lo = 1
    spans = [(n0, min(0, n1))] if n0 < 1 else []
    while lo <= n1:
        a, b = max(lo, n0), min(2 * lo - 1, n1)
        if a <= b:
            spans.append((a, b))
        lo *= 2
    for a, b in spans:
        window = [rows[n] for n in range(a, b + 1) if n in rows]
        if window:
            exact = all(c for _e, c in window)
            want.append(f"# window [{a}..{b}] max_ell={max(e for e, _c in window)}"
                        f"{'' if exact else ' (lower bound)'}")
    if windows != want:
        bad.append(f"window summaries {windows} disagree with rows (want {want})")
    return bad


def _classify_verdicts(lines, indent=""):
    """Verdict lines at one nesting level, with their step tags."""
    found = []
    for i, line in enumerate(lines):
        if not line.startswith(indent + "verdict: ") or line.startswith(indent + " "):
            continue
        label = line[len(indent):]
        if label not in VERDICT_LABELS:
            return None
        verdict = VERDICT_LABELS[label]
        step = None
        nxt = lines[i + 1][len(indent):] if i + 1 < len(lines) else ""
        if nxt.startswith("step: "):
            step = nxt[len("step: "):]
        found.append((verdict, step))
    return found


def _check_classify(job, lines):
    top = _classify_verdicts(lines[:1])
    if not top:
        return [f"bad verdict line {lines[0]!r}"]
    verdict, step = _classify_verdicts(lines[:2])[0]
    bad = []
    if (verdict == "ProvenUnbounded") != (step is not None) or (step and step not in STEP_TAGS):
        bad.append(f"verdict {verdict} with step {step!r}")
    if verdict == "DegenerateInput":
        split = [ln for ln in lines if ln.startswith("split modulus d = ")]
        subs = [ln for ln in lines if re.fullmatch(r"subsequence j=\d+:", ln)]
        parts = _classify_verdicts(lines, "  ")
        if len(split) != 1 or not subs or parts is None or len(parts) != len(subs) \
                or int(split[0].rsplit(" ", 1)[1]) != len(subs):
            bad.append("degenerate split without matching subsequence verdicts")
    expect = job["expect"]
    if "verdict" in expect and (verdict, step) != (expect["verdict"], expect["step"]):
        bad.append(f"verdict {verdict}/{step}, built for {expect['verdict']}/{expect['step']}")
    return bad


def _check_growth(job, lines):
    bad = []
    if lines[0] != "n,log_abs,bound":
        return [f"bad header {lines[0]!r}"]
    n0, n1 = job["spec"]["range"]
    ns = []
    tail = []
    for line in lines[1:]:
        if line.startswith("# "):
            tail.append(line)
            continue
        m = re.fullmatch(rf"({INT}),({FLOAT}),({FLOAT})", line)
        if not m:
            bad.append(f"bad row {line!r}")
            continue
        ns.append(int(m.group(1)))
    if ns != sorted(ns) or not ns or ns[0] < n0 or ns[-1] > n1:
        bad.append("rows out of range or order")
    want = job["expect"].get("growth_check")
    if not tail or tail[0] not in ("# growth_check: pass", "# growth_check: fail"):
        bad.append(f"missing growth_check line, got {tail[:1]}")
    elif want and tail[0] != f"# growth_check: {want}":
        bad.append(f"{tail[0]!r}, built to {want}")
    return bad


def _check_schinzel(job, lines):
    bad = []
    if lines[0] != "n,ell,flag" or lines[1] not in ("# hypothesis: covered",
                                                    "# hypothesis: not covered"):
        return ["bad header"]
    running, increases, got = None, [], []
    for line in lines[2:]:
        if line.startswith("# running_max: "):
            got.append(line)
            continue
        m = re.fullmatch(rf"({INT}),(\d*),(|square|negative_skipped)", line)
        if not m or (m.group(3) == "negative_skipped") != (m.group(2) == ""):
            bad.append(f"bad row {line!r}")
            continue
        if m.group(3) == "negative_skipped":
            continue
        n, ell = int(m.group(1)), int(m.group(2))
        if (m.group(3) == "square") != (ell == 0):
            bad.append(f"row {n}: ell {ell} with flag {m.group(3)!r}")
        if running is None or ell > running:
            running = ell
            increases.append(f"# running_max: n={n} ell={ell}")
    if got != increases:
        bad.append("running_max lines disagree with rows")
    return bad


def _check_cf(job, lines):
    bad = []
    keys = ["value = ", "expansion = ", "preperiod_len = ", "ell = ", "convergents:"]
    if len(lines) < 5 or any(not ln.startswith(k) for ln, k in zip(lines, keys)):
        return ["bad cf header"]
    m = re.fullmatch(r"expansion = \[(-?\d+)(?:; (.*))?\]", lines[1])
    if not m:
        return [f"bad expansion {lines[1]!r}"]
    body = m.group(2) or ""
    cycle = re.search(r"\(([\d, ]+)\)$", body)
    head = body[:cycle.start()].rstrip(", ") if cycle else body
    pre = 1 + (len(head.split(", ")) if head else 0)
    ell = len(cycle.group(1).split(", ")) if cycle else 0
    if lines[2] != f"preperiod_len = {pre}" or lines[3] != f"ell = {ell}":
        bad.append("preperiod_len/ell disagree with the expansion")
    for line in lines[5:]:
        if not re.fullmatch(r"  n=\d+ p=-?\d+ q=\d+ bound_ok=(yes|exact)", line):
            bad.append(f"bad convergent line {line!r}")
    return bad


def _check_props(job, lines):
    """Rows well formed; with ``closed_form`` expected, the family's closed form
    holds exactly where the theory says: p61 on the pairs s = 3r, p62 always."""
    bad = []
    if lines[0] != "family,r,s,cond,ell,verdict":
        return ["bad header"]
    rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    fails = 0
    for line in rows:
        m = re.fullmatch(r"(p61|p62),(\d+),(\d+),(ok|no),(\d+),(pass|cond_fail|fail)", line)
        if not m:
            bad.append(f"bad row {line!r}")
            continue
        family, r, s, cond, verdict = m.group(1), int(m.group(2)), int(m.group(3)), \
            m.group(4), m.group(6)
        fails += verdict == "fail"
        if (cond == "ok") == (verdict == "cond_fail"):
            bad.append(f"row {line!r}: verdict disagrees with cond")
        holds = s == 3 * r if family == "p61" else True
        if job["expect"].get("closed_form") and cond == "ok" and (verdict == "pass") != holds:
            bad.append(f"row {line!r}: closed form should {'' if holds else 'not '}hold")
    summary = f"# summary: {len(rows)} rows, {fails} failures"
    if lines[-1] != summary:
        bad.append(f"summary {lines[-1]!r}, rows say {summary!r}")
    return bad


_CHECKS = {"periods": _check_periods, "classify": _check_classify,
           "growth": _check_growth, "schinzel": _check_schinzel,
           "cf": _check_cf, "props": _check_props}
