"""Seeded job generators for the three benchmark workloads.

Every generator is a pure function of the seed: the same seed gives the same
job list, byte for byte.  A job is a dict with

    id      stable name, unique within the workload
    argv    arguments for ``cfperiod.cli.main``; the string "{job}" stands
            for the path of the job file written from ``spec``
    spec    the JSON job object, or None for commands without a job file
    expect  what the output check may assume beyond the output's structure

Sequences are built from closed forms  A_n = sum c * n^j * alpha^n  with
alpha, c in K = Q(sqrt(d)), so the generator knows each sequence's roots
(and with them the verdict family it was built for) without calling the
program.  Field elements are (a, b) pairs of Fractions meaning a + b*sqrt(d).
"""
from __future__ import annotations

import math
import random
from fractions import Fraction as F

STEP_CAP = 250_000
DEFAULT_SEED = 1
WORKLOADS = ("periods_scan", "classify_mix", "short_jobs")

# squarefree d > 1 used for random fields, and a unit > 1 of each
UNITS = {2: (1, 1), 3: (2, 1), 5: (F(1, 2), F(1, 2)), 6: (5, 2), 7: (8, 3),
         10: (3, 1), 11: (10, 3), 13: (F(3, 2), F(1, 2))}
FIELDS = tuple(UNITS)



# ---------------------------------------------------------------------------
# arithmetic in K, kept apart from the program under test
# ---------------------------------------------------------------------------

def k(a, b=0):
    return (F(a), F(b))


def kadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def kmul(x, y, d):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def kpow(x, n, d):
    out = k(1)
    for _ in range(n):
        out = kmul(out, x, d)
    return out


def kconj(x):
    return (x[0], -x[1])


def kstr(x):
    return [str(x[0]), str(x[1])]


def d_bits(x, d) -> int:
    """Bit length of D in the CF walk's surd (P + sqrt(D))/Q for x (0 if rational)."""
    if x[1] == 0:
        return 0
    w = math.lcm(x[0].denominator, x[1].denominator)
    u, v = int(x[0] * w), int(x[1] * w)
    big = v * v * d
    if (big - u * u) % w:
        big *= w * w
    return big.bit_length()


class Seq:
    """A_n = sum of c * n^j * alpha^n over ``parts`` = [(c, alpha, j)]."""

    def __init__(self, d, parts):
        self.d = d
        self.parts = parts

    def term(self, n):
        acc = k(0)
        for c, alpha, j in self.parts:
            acc = kadd(acc, kmul(c, kmul(k(n ** j), kpow(alpha, n, self.d), self.d),
                                 self.d))
        return acc

    def charpoly(self):
        """Monic prod (x - alpha)^(1 + max j), low-to-high coefficients in K."""
        mult = {}
        for _c, alpha, j in self.parts:
            mult[alpha] = max(mult.get(alpha, 0), j + 1)
        poly = [k(1)]
        for alpha, m in mult.items():
            for _ in range(m):
                neg = (-alpha[0], -alpha[1])
                nxt = [k(0)] * (len(poly) + 1)
                for i, c in enumerate(poly):
                    nxt[i + 1] = kadd(nxt[i + 1], c)
                    nxt[i] = kadd(nxt[i], kmul(neg, c, self.d))
                poly = nxt
        return poly

    def job(self, command, **extra):
        poly = self.charpoly()
        order = len(poly) - 1
        coeffs = [(-poly[order - i][0], -poly[order - i][1]) for i in range(1, order + 1)]
        spec = {"command": command, "d": self.d,
                "coeffs": [kstr(c) for c in coeffs],
                "initials": [kstr(self.term(n)) for n in range(order)]}
        spec.update(extra)
        return spec


def _rand_frac(rng, lo, hi, dens=(1, 1, 1, 2, 3)):
    while True:
        x = F(rng.randint(lo, hi), rng.choice(dens))
        if x:
            return x


def _rand_k(rng, lo=-4, hi=4, irrational=True):
    a = F(rng.randint(lo, hi), rng.choice((1, 1, 2)))
    b = F(rng.randint(1, 3) * rng.choice((-1, 1)), rng.choice((1, 1, 2))) if irrational else F(0)
    return (a, b)


# ---------------------------------------------------------------------------
# curated members
# ---------------------------------------------------------------------------

# name -> (d, coeffs, initials, expected verdict, expected step); the same
# recurrences, in the same form, as the classifier's curated test table
CURATED = {
    "fibonacci": (5, ["1", "1"], ["0", "1"], "ClassA", None),
    "n+sqrt5": (5, ["2", "-1"], [["0", "1"], ["1", "1"]], "ClassB_b", None),
    "(1+sqrt2)^n": (2, ["2", "1"], ["1", ["1", "1"]], "ClassC_c", None),
    "(3+sqrt2)^n": (2, ["6", "-7"], ["1", ["3", "1"]], "ProvenUnbounded", "C.1"),
    "sqrt5*2^n": (5, ["2"], [["0", "1"]], "ProvenUnbounded", "B.1"),
    "n^2*sqrt5": (5, ["3", "-3", "1"], ["0", ["0", "1"], ["0", "4"]],
                  "ProvenUnbounded", "B.4"),
    "sqrt2^n+(1+sqrt2)^n": (2, ["2", "3", "-4", "-2"],
                            ["2", ["1", "2"], ["5", "2"], ["7", "7"]],
                            "DegenerateInput", None),
    "(-1)^n*(2+sqrt2)": (2, ["-1"], [["2", "1"]], "ClassB_b", None),
    "(5/2)^n+(-1)^n*sqrt2": (2, ["3/2", "5/2"], [["1", "1"], ["5/2", "-1"]],
                             "ProvenUnbounded", "B.3"),
    "sqrt2*osc_n": (2, ["1/2", "-1"], [["0", "1"], "0"], "ProvenUnbounded", "B.2"),
}


def _curated_spec(name, command, **extra):
    d, coeffs, initials, _verdict, _step = CURATED[name]
    spec = {"command": command, "d": d, "coeffs": coeffs, "initials": initials}
    spec.update(extra)
    return spec


# ---------------------------------------------------------------------------
# periods_scan
# ---------------------------------------------------------------------------

# (member, n0, n1): short rows, long closed rows (>= 1e4 steps, walked twice
# today) and capped rows; fixed across seeds so every list carries them
CURATED_PERIOD_RANGES = [
    ("(3+sqrt2)^n", 1, 16),
    ("(3+sqrt2)^n", 30, 30),     # closes at 105 440 steps, D of 127 bits
    ("sqrt5*2^n", 1, 18),
    ("n^2*sqrt5", 1, 25),
    ("(5/2)^n+(-1)^n*sqrt2", 1, 9),
    ("sqrt2*osc_n", 1, 16),
]


CAPPED_BITS = (70, 90, 110, 135, 160, 190)
PERIODS_JOBS = 96
SHORT_ROWS = 8


def _growing_seq(rng, order):
    """Order 1-3 sequence whose terms grow (non-unit roots off the circle)."""
    d = rng.choice(FIELDS)
    parts, roots = [], set()
    while len(parts) < order:
        alpha = _rand_k(rng, 1, 4, irrational=rng.random() < 0.7)
        if alpha in roots or alpha[1] == 0 and abs(alpha[0]) <= 1:
            continue
        norm = alpha[0] ** 2 - d * alpha[1] ** 2
        if abs(norm) <= 1:
            continue
        roots.add(alpha)
        parts.append((_rand_k(rng, -3, 3), alpha, 0))
    return Seq(d, parts)


def _first_n_with_bits(seq, lo, hi, n_max=400):
    for n in range(1, n_max):
        bits = d_bits(seq.term(n), seq.d)
        if bits > hi:
            return None
        if bits >= lo:
            return n
    return None


def periods_scan(seed: int) -> list[dict]:
    rng = random.Random(f"periods_scan/{seed}")
    jobs = []
    for name, n0, n1 in CURATED_PERIOD_RANGES:
        jobs.append(dict(id=f"curated:{name}:{n0}..{n1}",
                         argv=["periods", "{job}", "--step-cap", str(STEP_CAP)],
                         spec=_curated_spec(name, "periods", range=[n0, n1]),
                         expect={}))
    # capped rows: one row each at a fixed D size on both sides of 2^126.  A
    # seeded row of 70 bits may close before the cap (and cost a double walk),
    # so these come from a fixed stream: the same rows, all capped, every seed.
    fixed = random.Random("periods_scan/capped")
    for bits in CAPPED_BITS:
        n = None
        while n is None:
            seq = _growing_seq(fixed, fixed.randint(1, 3))
            n = _first_n_with_bits(seq, bits, bits + 8)
        jobs.append(dict(id=f"capped.{bits}",
                         argv=["periods", "{job}", "--step-cap", str(STEP_CAP)],
                         spec=seq.job("periods", range=[n, n]), expect={"truncated": True}))
    # short rows: ranges that end before D passes 24 bits
    while len(jobs) < PERIODS_JOBS:
        seq = _growing_seq(rng, rng.randint(1, 3))
        n_hi = 0
        for n in range(1, 40):
            if d_bits(seq.term(n), seq.d) > 24:
                break
            n_hi = n
        if n_hi < 4:
            continue
        mult = rng.choice((1, 1, 1, 2, 3))
        jobs.append(dict(id=f"short.{len(jobs)}",
                         argv=["periods", "{job}", "--mult", str(mult),
                               "--step-cap", str(STEP_CAP)],
                         spec=seq.job("periods", range=[max(1, n_hi - SHORT_ROWS + 1), n_hi]),
                         expect={}))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# classify_mix
# ---------------------------------------------------------------------------

def _coef(rng, kind, d):
    """A nonzero coefficient: "q" rational, "k" irrational, "r" pure b*sqrt(d)."""
    if kind == "q":
        return k(_rand_frac(rng, -5, 5))
    b = _rand_frac(rng, -3, 3)
    a = F(0) if kind == "r" else F(rng.randint(-4, 4), rng.choice((1, 2)))
    return (a, b)


def _slot_seq(rng, d, parts):
    """parts: [(kind, alpha, j)], kind as in _coef, or "pair" for c*(e^n + e'^n)."""
    out = []
    for kind, alpha, j in parts:
        if kind == "pair":
            c = k(_rand_frac(rng, -3, 3))
            out += [(c, alpha, j), (c, kconj(alpha), j)]
        else:
            out.append((_coef(rng, kind, d), alpha, j))
    return Seq(d, out)


def _eps(d, power=1):
    return kpow(k(*UNITS[d]), power, d)


# (slot name, d, parts, expected verdict, expected step).  Each slot fixes the
# field and the roots, and with them the polynomials the classifier factors,
# so lists from different seeds cost about the same; the seed draws every
# coefficient (hence every initial value) and the job order.
CLASSIFY_SLOTS = [
    ("ClassA.2", 5, [("q", k(2), 0), ("q", k(3), 0)], "ClassA", None),
    ("ClassA.4", 7, [("q", k(2), 0), ("q", k(F(-3, 2)), 0), ("q", k(F(5, 2)), 0),
                     ("q", k(F(1, 2)), 0)], "ClassA", None),
    ("ClassB_b.3", 2, [("r", k(1), 0), ("pair", _eps(2), 0)], "ClassB_b", None),
    ("ClassB_b.2", 6, [("r", k(1), 0), ("q", k(1), 1)], "ClassB_b", None),
    ("ClassB_b.3-", 3, [("r", k(-1), 0), ("pair", _eps(3), 0)], "ClassB_b", None),
    ("ClassC_c.2", 2, [("k", _eps(2), 0), ("k", _eps(2, 2), 0)], "ClassC_c", None),
    ("ClassC_c.3", 5, [("k", _eps(5), 0), ("k", _eps(5, 2), 0), ("k", _eps(5, 3), 0)],
     "ClassC_c", None),
    ("B.1.1", 3, [("r", k(2), 0)], "ProvenUnbounded", "B.1"),
    ("B.1.2", 10, [("r", k(-3), 0), ("q", k(5), 0)], "ProvenUnbounded", "B.1"),
    ("B.3.2", 2, [("q", k(F(5, 2)), 0), ("r", k(-1), 0)], "ProvenUnbounded", "B.3"),
    ("B.3.2+", 11, [("q", k(F(7, 3)), 0), ("r", k(1), 0)], "ProvenUnbounded", "B.3"),
    ("B.4.2", 5, [("r", k(1), 1)], "ProvenUnbounded", "B.4"),
    ("B.4.4", 7, [("r", k(1), 3)], "ProvenUnbounded", "B.4"),
    ("C.1.1", 2, [("k", k(3, 1), 0)], "ProvenUnbounded", "C.1"),
    ("C.1.2", 6, [("k", k(5, 1), 0), ("q", k(F(1, 2)), 0)], "ProvenUnbounded", "C.1"),
    ("C.3.1", 2, [("k", k(F(1, 8), F(1, 8)), 0)], "ProvenUnbounded", "C.3"),
    ("C.3.1b", 3, [("k", k(F(2, 8), F(1, 8)), 0)], "ProvenUnbounded", "C.3"),
    ("C.4.1", 2, [("k", k(2, 1), 0)], "ProvenUnbounded", "C.4"),
    ("C.4.1b", 5, [("k", k(3, 1), 0)], "ProvenUnbounded", "C.4"),
    ("C.5.2", 2, [("k", _eps(2), 0), ("q", k(F(3, 2)), 0)], "ProvenUnbounded", "C.5"),
    ("C.5.2b", 13, [("k", _eps(13), 0), ("q", k(F(3, 2)), 0)], "ProvenUnbounded", "C.5"),
    ("C.6.2", 3, [("k", _eps(3), 0), ("q", k(F(2, 3)), 0)], "ProvenUnbounded", "C.6"),
    ("C.6.2b", 11, [("k", _eps(11), 0), ("q", k(F(2, 3)), 0)], "ProvenUnbounded", "C.6"),
    ("Degenerate.2", 2, [("k", k(0, 1), 0), ("k", k(0, -1), 0)], "DegenerateInput", None),
    ("Degenerate.3", 6, [("k", k(3), 0), ("k", k(-3), 0), ("k", k(5), 0)],
     "DegenerateInput", None),
    # high orders: no verdict predicted, they set the cost of the tail
    ("order4", 2, [("k", _eps(2), 0), ("k", _eps(2, 2), 0), ("k", k(2), 0),
                   ("k", k(F(1, 3)), 0)], None, None),
    ("order4b", 3, [("k", _eps(3), 0), ("k", kconj(_eps(3)), 0), ("k", k(-3), 0),
                    ("k", k(1, 1), 0)], None, None),
    ("order5", 5, [("k", _eps(5), 0), ("k", _eps(5, 2), 0), ("k", kconj(_eps(5)), 0),
                   ("k", k(2), 0), ("k", k(F(1, 3)), 0)], None, None),
    ("order5b", 7, [("k", _eps(7), 0), ("k", kconj(_eps(7)), 0), ("k", k(2), 0),
                    ("k", k(-3), 0), ("k", k(2, 1), 0)], None, None),
    ("order6", 2, [("k", _eps(2), 0), ("k", _eps(2, 2), 0), ("k", kconj(_eps(2)), 0),
                   ("k", k(2), 0), ("k", k(-3), 0), ("k", k(F(1, 3)), 0)], None, None),
    ("order6b", 13, [("k", _eps(13), 0), ("k", kconj(_eps(13)), 0), ("k", k(2), 0),
                     ("k", k(F(1, 3)), 0), ("k", k(-3), 0), ("k", k(F(1, 2), F(1, 2)), 0)],
     None, None),
    ("order4d", 11, [("k", _eps(11), 0), ("k", kconj(_eps(11)), 0), ("k", k(3), 0),
                     ("k", k(F(1, 2)), 0)], None, None),
    ("order5c", 10, [("k", _eps(10), 0), ("k", kconj(_eps(10)), 0), ("k", k(2), 0),
                     ("k", k(F(-1, 2)), 0), ("k", k(3), 0)], None, None),
    ("order5d", 3, [("k", _eps(3), 0), ("k", _eps(3, 2), 0), ("k", k(2), 0),
                    ("k", k(-3), 0), ("k", k(F(1, 3)), 0)], None, None),
    ("order6c", 7, [("k", _eps(7), 0), ("k", _eps(7, 2), 0), ("k", kconj(_eps(7)), 0),
                    ("k", k(2), 0), ("k", k(F(-1, 2)), 0), ("k", k(3), 0)], None, None),
    ("order6d", 5, [("k", _eps(5), 0), ("k", kconj(_eps(5)), 0), ("k", k(2), 0),
                    ("k", k(F(1, 3)), 0), ("k", k(-3), 0), ("k", k(1, 1), 0)], None, None),
    ("order6e", 3, [("k", _eps(3), 0), ("k", _eps(3, 2), 0), ("k", kconj(_eps(3)), 0),
                    ("k", k(2), 0), ("k", k(-3), 0), ("k", k(F(1, 3)), 0)], None, None),
    ("order6f", 6, [("k", _eps(6), 0), ("k", _eps(6, 2), 0), ("k", kconj(_eps(6)), 0),
                    ("k", k(2), 0), ("k", k(-3), 0), ("k", k(F(1, 3)), 0)], None, None),
    ("order6g", 10, [("k", _eps(10), 0), ("k", _eps(10, 2), 0), ("k", kconj(_eps(10)), 0),
                     ("k", k(2), 0), ("k", k(-3), 0), ("k", k(F(1, 3)), 0)], None, None),
    # cheap low orders, so that p50 stays inside the C.3/C.4 group of costs
    ("ClassA.2b", 11, [("q", k(3), 0), ("q", k(-2), 0)], "ClassA", None),
    ("B.1.1b", 7, [("r", k(3), 0)], "ProvenUnbounded", "B.1"),
    ("B.4.2b", 13, [("r", k(1), 1)], "ProvenUnbounded", "B.4"),
]


def classify_mix(seed: int) -> list[dict]:
    rng = random.Random(f"classify_mix/{seed}")
    jobs = []
    for name, (_d, _c, _i, verdict, step) in CURATED.items():
        jobs.append(dict(id=f"curated:{name}", argv=["classify", "{job}"],
                         spec=_curated_spec(name, "classify"),
                         expect={"verdict": verdict, "step": step}))
    for name, d, parts, verdict, step in CLASSIFY_SLOTS:
        expect = {"verdict": verdict, "step": step} if verdict else {}
        jobs.append(dict(id=name, argv=["classify", "{job}"],
                         spec=_slot_seq(rng, d, parts).job("classify"), expect=expect))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# short_jobs
# ---------------------------------------------------------------------------

# growth over n = 20..200: (name, d, parts, place); dominant root 1/2 at the
# 2-adic place (valuations exact), the unit eps at the real places
GROWTH_SLOTS = [
    ("growth.2adic.17", 17, [("q", k(F(1, 2)), 0), ("q", k(3), 0)],
     {"kind": "finite", "p": 2, "branch": 1}),
    ("growth.2adic.41", 41, [("q", k(F(1, 2)), 0), ("q", k(3), 0), ("r", k(1), 0)],
     {"kind": "finite", "p": 2, "branch": 3}),
    ("growth.2adic.65", 65, [("q", k(F(1, 2)), 0), ("q", k(-3), 0)],
     {"kind": "finite", "p": 2, "branch": 1}),
    ("growth.real.2", 2, [("pair", _eps(2), 0), ("q", k(1), 1)],
     {"kind": "real", "embedding": 1}),
    ("growth.real.5", 5, [("pair", _eps(5), 0)], {"kind": "real", "embedding": 1}),
    ("growth.real.3", 3, [("k", _eps(3), 0), ("q", k(1), 0)],
     {"kind": "real", "embedding": 1}),
    # two more of like cost, so that p90 falls inside this group
    ("growth.real.6", 6, [("k", _eps(6), 0), ("q", k(1), 0)],
     {"kind": "real", "embedding": 1}),
    ("growth.real.7", 7, [("k", _eps(7), 0), ("q", k(1), 0)],
     {"kind": "real", "embedding": 1}),
]
# schinzel scans of a*n^2 + b*n + c: (a, n1); the seed draws b and c
SCHINZEL_SLOTS = [(2, 300), (3, 250), (5, 250), (6, 200), (7, 200), (2, 200)]
PROPS_SLOTS = [("1+sqrt(2)", "p61", "--smax", 15), ("2+sqrt(5)", "p61", "--smax", 13),
               ("1+sqrt(2)", "p62", "--rmax", 12), ("2+sqrt(3)", "p62", "--rmax", 10)]


def _cf_expr(rng):
    while True:
        p, q, m, r = (rng.randint(-30, 30), rng.randint(1, 9), rng.randint(2, 400),
                      rng.randint(1, 12))
        if math.isqrt(m) ** 2 != m:
            return f"({p}+{q}*sqrt({m}))/{r}"


def short_jobs(seed: int) -> list[dict]:
    rng = random.Random(f"short_jobs/{seed}")
    jobs = []
    for name, d, parts, place in GROWTH_SLOTS:
        jobs.append(dict(id=name, argv=["growth", "{job}"],
                         spec=_slot_seq(rng, d, parts).job(
                             "growth", range=[20, 200], options={"place": place, "eps": "1/10"}),
                         expect={"growth_check": "pass"}))
    for i, (a, n1) in enumerate(SCHINZEL_SLOTS):
        b, c = rng.randint(0, 4), rng.randint(1, 9)
        jobs.append(dict(id=f"schinzel.{i}",
                         argv=["schinzel", "--poly", f"{a}x^2+{b}x+{c}", "--range", f"1..{n1}"],
                         spec=None, expect={}))
    for i, (alpha, family, flag, size) in enumerate(PROPS_SLOTS):
        jobs.append(dict(id=f"props.{i}",
                         argv=["props", "--alpha", alpha, "--family", family, flag, str(size)],
                         spec=None, expect={"closed_form": True}))
    while len(jobs) < 50:
        jobs.append(dict(id=f"cf.{len(jobs)}", argv=["cf", _cf_expr(rng)],
                         spec=None, expect={}))
    rng.shuffle(jobs)
    return jobs


GENERATORS = {"periods_scan": periods_scan, "classify_mix": classify_mix,
              "short_jobs": short_jobs}
