"""Acceptance suite: the seven end-to-end guarantees this package ships with.

Each test prints one PASS/FAIL summary line (visible through pytest's capture)
and enforces the runtime budget stated in its docstring.  Comparisons are
exact — integer/Fraction equality — except where a numeric enclosure is the
point of the check, and then the tolerance is stated inline.
"""
import math
import random
import time

import mpmath

from fractions import Fraction as F

import oracles
from curated import DEGEN_PART_VERDICTS, members
from oracles import cyclotomic

from cfperiod.classifier import classify
from cfperiod.contfrac import (check_convergent_bound, check_fibonacci_bounds,
                               complete_quotients, expand, is_purely_periodic,
                               is_reduced, period_length, period_lower_bound)
from cfperiod.places import abs_at, growth_check, places_above, real_places, val
from cfperiod.polyalg import KPoly, RatPoly, circle_profile, factor_k, nondegeneracy
from cfperiod.qfield import floor_exact, quad, split_square, to_mpf, trace_norm
from cfperiod.recurrence import LinRec

STEP_CAP = 250_000


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE criterion {num}: {'PASS' if ok else 'FAIL'}"
              f" — {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def trace_int(x) -> int:
    t = 2 * x.a
    assert t.denominator == 1
    return int(t)


# ---------------------------------------------------------------------------
# 1. period-two closed-form family (budget 5 s)
# ---------------------------------------------------------------------------

def test_criterion_1_period_two_closed_form(capsys):
    """alpha^r + alpha^s for norm -1 units: the period-2 closed form holds
    bit-exactly exactly on the pairs with s = 3r, and on no other pair."""
    t0 = time.perf_counter()
    failures = []
    checked = matched = 0
    for alpha in (quad(1, 1, 2), quad(2, 1, 5)):
        pairs = [(r, s) for r in range(1, 16, 2)
                 for s in range(r + 2, 16, 2) if s - r > r]
        for r, s in pairs:
            a = alpha ** r + alpha ** s
            c = a.conj()
            if not (-1 < c < 0):
                continue  # outside the family's largeness condition
            checked += 1
            t = trace_int(a)
            e = expand(a)
            hits = (e.preperiod == (t,)
                    and e.period == (floor_exact(alpha ** r), t))
            if s == 3 * r:
                matched += 1
                if not (hits and len(e.period) == 2):
                    failures.append((str(alpha), r, s, "closed form broken"))
            elif hits:
                failures.append((str(alpha), r, s, "unexpected match"))
    elapsed = time.perf_counter() - t0
    ok = not failures and checked == 32 and matched == 6 and elapsed < 5.0
    report(capsys, 1, ok,
           f"closed form bit-exact with ell=2 on all 6 s=3r pairs, "
           f"no false match among {checked} enumerated pairs "
           f"({elapsed:.2f}s < 5s); failures={failures}")


# ---------------------------------------------------------------------------
# 2. period-four closed-form family (budget 10 s)
# ---------------------------------------------------------------------------

def test_criterion_2_period_four_closed_form(capsys):
    """alpha^r + alpha^(2r) for even r: expansion equals
    [tr-1; (1, floor(alpha^r)-2, 1, tr-2)] bit-exactly, ell = 4."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for alpha in (quad(1, 1, 2), quad(2, 1, 3)):
        for r in range(2, 13, 2):
            a = alpha ** r + alpha ** (2 * r)
            c = a.conj()
            if not (0 < c < 1):
                continue
            checked += 1
            t = trace_int(a)
            e = expand(a)
            want_period = (1, floor_exact(alpha ** r) - 2, 1, t - 2)
            if not (e.preperiod == (t - 1,) and e.period == want_period
                    and len(e.period) == 4):
                failures.append((str(alpha), r))
    elapsed = time.perf_counter() - t0
    ok = not failures and checked == 12 and elapsed < 10.0
    report(capsys, 2, ok,
           f"closed form bit-exact with ell=4 on all {checked} even-r cases "
           f"({elapsed:.2f}s < 10s); failures={failures}")


# ---------------------------------------------------------------------------
# 3. curated classifier suite (budget 30 s)
# ---------------------------------------------------------------------------

def test_criterion_3_curated_suite_verdicts(capsys):
    t0 = time.perf_counter()
    failures = []
    for name, rec, verdict, step in members():
        c = classify(rec)
        if (c.verdict, c.step) != (verdict, step):
            failures.append((name, c.verdict, c.step))
            continue
        if verdict == "DegenerateInput":
            if c.split_modulus != 2:
                failures.append((name, "split_modulus", c.split_modulus))
            subs = dict(c.subresults)
            for j, part_verdict, part_step in DEGEN_PART_VERDICTS:
                got = subs[j]
                if got.verdict != part_verdict or (
                        part_step is not None and got.step != part_step):
                    failures.append((name, j, got.verdict, got.step))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    report(capsys, 3, ok,
           f"all {len(members())} curated verdicts and step tags exact, "
           f"including per-part verdicts after the modulus-2 split "
           f"({elapsed:.2f}s < 30s); failures={failures}")


# ---------------------------------------------------------------------------
# 4. empirical growth echo of the verdicts (budget 2 min)
# ---------------------------------------------------------------------------

def scan_ells(rec, n_hi):
    out = {}
    for n in range(1, n_hi + 1):
        x = rec.term(n)
        if x.b == 0:
            out[n] = 0  # rational term: finite expansion
        else:
            out[n] = period_lower_bound(x, cap=STEP_CAP)[0]
    return out


def window_increases(ells, ends):
    best = -1
    at_ends = []
    for end in ends:
        best = max(best, max(v for n, v in ells.items() if n <= end))
        at_ends.append(best)
    return sum(b > a for a, b in zip(at_ends, at_ends[1:])), at_ends


def test_criterion_4_unbounded_grow_stable_stay_flat(capsys):
    t0 = time.perf_counter()
    failures = []
    rising = 0
    for name, rec, verdict, _step in members():
        if verdict != "ProvenUnbounded":
            continue
        rising += 1
        inc, at_ends = window_increases(scan_ells(rec, 25), [1, 3, 7, 15, 25])
        if inc < 2:
            failures.append((name, at_ends))
    # square-root scan of 2n^2+1, the classical unbounded family
    ells = {}
    for n in range(1, 61):
        s, k = split_square(2 * n * n + 1)
        ells[n] = 0 if k == 1 else period_length(quad(0, s, k))
    inc, at_ends = window_increases(ells, [1, 3, 7, 15, 31, 60])
    if inc < 2:
        failures.append(("sqrt(2n^2+1)", at_ends))
    flat = 0
    for name, rec, verdict, _step in members():
        if verdict not in ("ClassA", "ClassB_b"):
            continue
        flat += 1
        ells = scan_ells(rec, 25)
        if max(ells.values()) != ells[5]:
            failures.append((name, max(ells.values()), ells[5]))
    elapsed = time.perf_counter() - t0
    ok = not failures and rising == 9 and flat == 3 and elapsed < 120.0
    report(capsys, 4, ok,
           f"running max of ell rose >=2 times across doubling windows for "
           f"all {rising} unbounded members (n<=25, cap {STEP_CAP}) and for "
           f"sqrt(2n^2+1) up to n=60; max ell equals its n=5 value for all "
           f"{flat} stable members ({elapsed:.1f}s < 120s); "
           f"failures={failures}")


# ---------------------------------------------------------------------------
# 5. invariant suites (exact / 1e-30 enclosure)
# ---------------------------------------------------------------------------

def test_criterion_5_invariant_suites(capsys):
    failures = []

    # (i) reduced <=> purely periodic, two independent routes, 200 random
    # surds (P + sqrt(D))/Q with |P|, Q <= 1000, D <= 10000
    rng = random.Random(20240815)
    box = []
    both_true = 0
    for _ in range(200):
        while True:
            s, k = split_square(rng.randint(2, 10_000))
            if k != 1:
                break
        qq = rng.randint(1, 1000)
        x = quad(F(rng.randint(-1000, 1000), qq), F(s, qq), k)
        box.append(x)
        r, p = is_reduced(x), is_purely_periodic(x)
        if r != p:
            failures.append(("surd equivalence", x))
        both_true += r and p
    # walk complete quotients of a sample so the reduced side is exercised
    # hundreds of times, not only by lucky draws from the box
    reduced_states = 0
    for x in box[:25]:
        for s in complete_quotients(x, 8):
            r, p = is_reduced(s), is_purely_periodic(s)
            if r != p:
                failures.append(("quotient equivalence", s))
            reduced_states += r and p
    if reduced_states < 50:
        failures.append(("too few reduced states", reduced_states))

    # (ii) denominator/numerator envelopes and the convergent inequality on
    # the expansion corpus, exact integer comparisons throughout
    corpus = [quad(0, 1, 2), quad(F(1, 2), F(1, 2), 5), quad(0, 1, 13),
              quad(8, 6, 2), quad(20, 14, 2), quad(42, 30, 2),
              quad(7, 5, 2), quad(-1, -1, 2), quad(2, 1, 5) ** 3]
    corpus += box[:30]
    for x in corpus:
        for n in range(1, 7):
            if not check_convergent_bound(expand(x), n):
                failures.append(("convergent bound", x, n))
            if not check_fibonacci_bounds(expand(x), n):
                failures.append(("fibonacci bounds", x, n))

    # (iii) product formula on 100 random elements supported on declared
    # primes: exact on the finite part, 1e-30 enclosure including the
    # archimedean embeddings at 100 digits
    gens = {2: [(quad(1, 1, 2), ()), (quad(0, 1, 2), (2,)),
                (quad(3, 1, 2), (7,))],
            5: [(quad(2, 1, 5), ()), (quad(0, 1, 5), (5,)),
                (quad(2, 0, 5), (2,))]}
    for k in range(100):
        d = 2 if k % 2 == 0 else 5
        x = quad(1, 0, d)
        support = set()
        for g, primes in gens[d]:
            e = rng.randint(-4, 4)
            x = x * g ** e
            if e:
                support.update(primes)
        support = sorted(support) or [2]
        finite = F(1)
        for p in support:
            for w in places_above(p, d):
                finite *= abs_at(x, w).as_fraction()
        _t, nrm = trace_norm(x)
        if finite * abs(nrm) != 1:
            failures.append(("product formula exact", d, k))
        with mpmath.workdps(100):
            total = (mpmath.mpmathify(finite)
                     * to_mpf(abs(x), 100) * to_mpf(abs(x.conj()), 100))
            if abs(total - 1) >= mpmath.mpf("1e-30"):
                failures.append(("product formula enclosure", d, k))

    # (iv) factoring over the quadratic field multiplies back exactly on 100
    # random products of verified irreducibles of degree <= 3
    def random_irreducible(d):
        while True:
            deg = rng.choice([1, 2, 2, 3])
            cs = [quad(F(rng.randint(-3, 3)), F(rng.randint(-2, 2)), d)
                  for _ in range(deg)] + [quad(1, 0, d)]
            f = KPoly(cs, d)
            if f.degree != deg:
                continue
            if deg == 1:
                return f
            fac = factor_k(f)
            if len(fac.factors) == 1 and fac.factors[0][1] == 1:
                return f

    for k in range(100):
        d = 2 if k % 2 == 0 else 5
        parts = [random_irreducible(d) for _ in range(rng.choice([2, 2, 3]))]
        p = parts[0]
        for f in parts[1:]:
            p = p * f
        fac = factor_k(p)
        back = KPoly([fac.unit], d)
        for f, mult in fac.factors:
            for _ in range(mult):
                back = back * f
        if back != p:
            failures.append(("factor multiply-back", d, k))

    report(capsys, 5, not failures,
           f"reduced<=>purely-periodic on 200 box surds plus "
           f"{reduced_states} reduced quotient states, envelope/convergent "
           f"inequalities exact on a {len(corpus)}-element corpus, product "
           f"formula exact and within 1e-30 on 100 supported elements, "
           f"factor multiply-back exact on 100 products; failures={failures}")


# ---------------------------------------------------------------------------
# 6. growth dominance examples (budget 10 s)
# ---------------------------------------------------------------------------

def test_criterion_6_growth_examples(capsys):
    t0 = time.perf_counter()
    failures = []
    eps = F(1, 10)

    # 2^(-n) + 3^n carried in Q(sqrt(17)); dominant root 1/2 at the 2-adic
    # place, and the valuation there is exactly -n
    twoadic = LinRec([F(7, 2), F(-3, 2)], [quad(2, 0, 17), F(7, 2)], 17)
    w2 = places_above(2, 17)[0]
    if not growth_check(twoadic, w2, eps, 20, 200):
        failures.append("2-adic check")
    for n in range(20, 201):
        if val(twoadic.term(n), w2) != -n:
            failures.append(("2-adic exact valuation", n))
            break

    # tr((1+sqrt2)^n) + n: integer sequence with dominant root 1+sqrt2
    trace_plus_n = LinRec([4, -4, 0, 1], [2, 3, 8, 17], 2)
    if not growth_check(trace_plus_n, real_places(2)[0], eps, 20, 200):
        failures.append("trace+n archimedean check")

    fib = LinRec([1, 1], [0, 1], 5)
    if not growth_check(fib, real_places(5)[0], eps, 20, 200):
        failures.append("fibonacci archimedean check")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    report(capsys, 6, ok,
           f"all three dominance examples pass at eps=1/10 over n=20..200 "
           f"and |A_n| at the 2-adic place is exactly 2^n "
           f"({elapsed:.2f}s < 10s); failures={failures}")


# ---------------------------------------------------------------------------
# 7. agreement with the brute-force numeric oracles
# ---------------------------------------------------------------------------

def embedded_coeffs(p):
    """KPoly coefficients as 110-digit floats under the real embedding."""
    with mpmath.workdps(110):
        return [oracles.surd_value(c.a, c.b, p.d, 110) for c in p.coeffs]


def test_criterion_7_oracle_agreement(capsys):
    rng = random.Random(6021023)
    failures = []

    # --- circle_profile vs. root-finding at 100 digits, 50 inputs ---
    def random_ratpoly(lo_deg, hi_deg):
        while True:
            deg = rng.randint(lo_deg, hi_deg)
            cs = [rng.randint(-6, 6) for _ in range(deg + 1)]
            if cs[-1] != 0 and cs[0] != 0:
                return RatPoly(cs)

    circle_inputs = []
    for _ in range(15):
        circle_inputs.append(random_ratpoly(3, 6))
    for _ in range(15):
        # keep total degree <= 8 so the oracle's root finder stays accurate
        ks = rng.sample([1, 2, 3, 4, 5, 6], rng.choice([1, 2]))
        p = random_ratpoly(1, 2)
        for k in ks:
            p = p * cyclotomic(k)
        circle_inputs.append(p)
    for _ in range(20):
        d = rng.choice([2, 5])
        factors = []
        # distinct factors only: keeps root multiplicities <= 2 so the
        # oracle's root finder stays far inside its 1e-40 circle band
        seen = set()
        for _ in range(rng.choice([1, 2, 3])):
            if rng.random() < 0.5:
                theta = quad(F(rng.randint(-2, 2)), F(rng.randint(-1, 1)), d)
                key = ("lin", theta.a, theta.b)
                if theta == 0 or key in seen:
                    continue
                seen.add(key)
                factors.append(KPoly([-theta, 1], d))
            else:
                c = quad(F(rng.randint(-1, 1)), F(rng.randint(-1, 1)), d)
                key = ("quad", c.a, c.b)
                if key in seen:
                    continue
                seen.add(key)
                factors.append(KPoly([1, -c, 1], d))
        if not factors:
            factors = [KPoly([quad(-1, -1, d), 1], d)]
        p = factors[0]
        for f in factors[1:]:
            p = p * f
        circle_inputs.append(p)

    for p in circle_inputs:
        if isinstance(p, RatPoly):
            cs = list(p.coeffs)
        else:
            cs = embedded_coeffs(p)
        prof = circle_profile(p)
        if (prof.inside, prof.on, prof.outside) != oracles.circle_counts(cs):
            failures.append(("circle", str(p)))

    # --- nondegeneracy vs. numeric ratio-of-roots scan, 50 inputs ---
    ratio_inputs = []  # (poly, over)
    for _ in range(6):
        a = rng.randint(1, 5)
        ratio_inputs.append((RatPoly([-a * a, 0, 1]), "baseK"))
        ratio_inputs.append(
            (RatPoly([-a, 1]) * RatPoly([a * a, a, 1]), "baseK"))
    for _ in range(6):
        d = rng.choice([2, 5])
        theta = quad(F(rng.randint(1, 2)), F(rng.randint(0, 1)), d)
        ratio_inputs.append((KPoly([-theta, 1], d)
                             * KPoly([theta, 1], d), "baseK"))
        ratio_inputs.append((KPoly([-theta, 1], d)
                             * KPoly([theta * theta, theta, 1], d), "baseK"))
    for _ in range(16):
        ratio_inputs.append((random_ratpoly(2, 4), "baseK"))
    for _ in range(10):
        d = rng.choice([2, 5])
        deg = rng.randint(2, 3)
        cs = [quad(F(rng.randint(-3, 3)), F(rng.randint(-2, 2)), d)
              for _ in range(deg)] + [quad(1, 0, d)]
        p = KPoly(cs, d)
        if p.degree != deg:
            continue
        ratio_inputs.append((p, rng.choice(["baseK", "Q"])))

    for p, over in ratio_inputs:
        mine = nondegeneracy(p, over=over)[0]
        if isinstance(p, RatPoly):
            pairs = [(c, F(0)) for c in p.coeffs]
            d = 2
        else:
            pairs = [(c.a, c.b) for c in p.coeffs]
            d = p.d
        brute = oracles.degenerate_ratio_numeric(pairs, d, over == "Q", 60)
        if mine != (not brute):
            failures.append(("ratio", str(p), over, mine, brute))

    report(capsys, 7, not failures,
           f"circle profiles match the 100-digit root finder on "
           f"{len(circle_inputs)} inputs and root-ratio degeneracy matches "
           f"the numeric scan on {len(ratio_inputs)} inputs; "
           f"failures={failures}")
