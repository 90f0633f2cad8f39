"""Continued fractions of rationals and quadratic irrationals."""
import ctypes
import functools
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import zlib
from dataclasses import astuple
from fractions import Fraction as F
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cfperiod import contfrac
from cfperiod.contfrac import (
    DEFAULT_STEP_CAP,
    check_convergent_bound,
    convergent_bound_holds,
    convergents,
    cycle_lengths,
    expand,
    surd_cycle_lengths,
)
from cfperiod.errors import InternalInvariantError, RationalInput, StepCapExceeded
from cfperiod.qfield import Surd, floor_exact, quad, to_surd

from oracles import (cf_quotients, check_fibonacci_bounds, complete_quotients,
                     convergent_bound_by_field_ops, cycle_centres, period_lower_bound,
                     purely_periodic, sqrt_int, surd_value, surd_walk_first_repeat)

R2 = sqrt_int(2)
GOLDEN = quad(F(1, 2), F(1, 2), 5)


def _reduced(x) -> bool:
    """The package's reducedness test, the one expand and cycle_lengths use."""
    s = to_surd(x)
    return contfrac._surd_reduced(s.P, s.Q, math.isqrt(s.D))


def _rand_surd(rng, pmax=1000, qmax=1000, dmax=10000):
    while True:
        D = rng.randrange(2, dmax)
        s = int(D**0.5)
        if s * s == D:
            continue
        P = rng.randrange(-pmax, pmax + 1)
        Q = rng.randrange(1, qmax) * rng.choice([1, -1])
        if (D - P * P) % Q != 0:
            # scale into the canonical lattice instead of rejecting
            P, Q, D = P * abs(Q), Q * abs(Q), D * Q * Q
        return (P + sqrt_int(D)) / Q


# ---------------------------------------------------------------------------
# pinned expansions
# ---------------------------------------------------------------------------

def test_expand_pinned_values():
    assert str(expand(R2)) == "[1; (2)]"
    assert str(expand(GOLDEN)) == "[1; (1)]"
    assert str(expand(sqrt_int(13))) == "[3; (1, 1, 1, 1, 6)]"
    assert str(expand(8 + 6 * R2)) == "[16; (2, 16)]"
    assert str(expand(20 + 14 * R2)) == "[39; (1, 3, 1, 38)]"
    assert str(expand(-1 - R2)) == "[-3; 1, 1, (2)]"


def test_expand_rational_terminates():
    e = expand(F(10, 7))
    assert e.preperiod == (1, 2, 3)
    assert e.period == ()
    # canonical form: final quotient >= 2 so the expansion is unique
    assert expand(F(1, 2)).preperiod == (0, 2)
    assert expand(F(-10, 7)).preperiod[0] == -2
    assert cycle_lengths(F(10, 7))[1] == 0


def test_leading_quotient_lives_in_preperiod():
    # even purely periodic values keep a_0 in the preperiod slot
    e = expand(GOLDEN)
    assert e.preperiod == (1,)
    assert e.period == (1,)
    assert purely_periodic(GOLDEN)


def test_sqrt_of_square_plus_one_has_period_one():
    for k in range(1, 11):
        e = expand(sqrt_int(k * k + 1))
        assert e.preperiod == (k,)
        assert e.period == (2 * k,)


def test_period_invariant_under_integer_shift():
    rng = random.Random(515)
    for _ in range(40):
        x = _rand_surd(rng, pmax=50, qmax=50, dmax=500)
        k = rng.randrange(-20, 21)
        a = expand(x)
        b = expand(x + k)
        # the repeating block is a rotation-invariant of the tail
        assert len(a.period) == len(b.period)
        assert sorted(a.period) == sorted(b.period)


def test_value_field_roundtrips_input():
    x = 20 + 14 * R2
    assert expand(x).value == x
    assert expand(F(10, 7)).value == F(10, 7)


# ---------------------------------------------------------------------------
# reduced <-> purely periodic
# ---------------------------------------------------------------------------

def test_reduced_iff_purely_periodic_random():
    rng = random.Random(616)
    seen_true = seen_false = 0
    for _ in range(100):
        x = _rand_surd(rng)
        # raw samples are almost never reduced; tails of the expansion are,
        # so test both the sample and one of its complete quotients
        for y in (x, complete_quotients(x, 3)[3]):
            r = _reduced(y)
            p = purely_periodic(y)
            assert r == p, to_surd(y)
            seen_true += r
            seen_false += not r
    assert seen_true > 20 and seen_false > 20


def test_reduced_textbook_cases():
    assert _reduced(GOLDEN)
    assert _reduced(1 + R2)
    assert not _reduced(R2)  # conjugate -sqrt(2) < -1
    assert not _reduced(R2 - 1)  # value < 1
    with pytest.raises(RationalInput):
        _reduced(quad(3, 0, 2))


def test_complete_quotients_are_eventually_reduced():
    rng = random.Random(617)
    for _ in range(30):
        x = _rand_surd(rng, pmax=100, qmax=100, dmax=2000)
        e = expand(x)
        n = len(e.preperiod) + len(e.period) + 2
        cq = complete_quotients(x, n)
        # the field step and the (P, Q) walk read the same quotients
        assert [y.floor() for y in cq] == e.quotients(n + 1)
        # x_j, j = len(preperiod), is the first reduced state after x_0
        for k, y in enumerate(cq[1:], 1):
            assert _reduced(y) == (k >= len(e.preperiod)), (to_surd(x), k)


def test_complete_quotients_sqrt2():
    cq = complete_quotients(R2, 3)
    s = to_surd(cq[0])
    assert (s.P, s.Q, s.D) == (0, 1, 2)
    assert all(y == 1 + R2 for y in cq[1:])


# ---------------------------------------------------------------------------
# convergents and the classical inequalities
# ---------------------------------------------------------------------------

def test_convergents_recurrence_and_quality():
    e = expand(sqrt_int(13))
    cs = convergents(e, 8)
    qs = list(e.preperiod) + list(e.period) * 3
    p2, p1 = 1, qs[0]
    q2, q1 = 0, 1
    assert (cs[0].p, cs[0].q) == (p1, q1)
    for n in range(1, 8):
        p1, p2 = qs[n] * p1 + p2, p1
        q1, q2 = qs[n] * q1 + q2, q1
        assert (cs[n].p, cs[n].q) == (p1, q1)
    # |x - p/q| < 1/q^2, exactly (cross-multiplied)
    for c in cs:
        diff = sqrt_int(13) - F(c.p, c.q)
        assert abs(diff) * c.q * c.q < 1


def test_convergent_bound_holds_on_sample():
    rng = random.Random(808)
    for _ in range(25):
        x = _rand_surd(rng, pmax=30, qmax=30, dmax=300)
        for n in range(6):
            assert check_convergent_bound(expand(x), n)
    # rational input: the bound needs a next quotient, so stop one short
    for n in range(len(expand(F(355, 113)).preperiod) - 1):
        assert check_convergent_bound(expand(F(355, 113)), n)


@settings(max_examples=300, derandomize=True)
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(1, 10**4),
       st.sampled_from([2, 3, 5, 6, 7, 10, 13, 991]), st.integers(1, 10**5),
       st.integers(-3, 3), st.integers(1, 10**9), st.booleans())
def test_convergent_bound_on_integers_matches_field_ops(A, B, m, d, q, shift, a, rational):
    # p next to q x, so the bound both holds and fails; a rational x = p/q
    # + 1/(a q^2) (shift 0) meets it with equality
    x = F(A, m) if rational else quad(F(A, m), F(B, m), d)
    p = floor_exact(x * q) + shift
    if rational and shift == 0:
        x = F(p, q) + F(1, a * q * q)
    assert convergent_bound_holds(x, p, q, a) == convergent_bound_by_field_ops(x, p, q, a)


@settings(max_examples=100, derandomize=True)
@given(st.integers(-60, 60), st.integers(-9, 9), st.integers(1, 12),
       st.sampled_from([2, 3, 5, 6, 7, 10, 13, 991]))
def test_check_convergent_bound_matches_field_ops(A, B, m, d):
    x = quad(F(A, m), F(B, m), d)
    e = expand(x)
    total = len(e.preperiod) if B == 0 else 8
    for n in range(min(6, total - 1)):
        c = convergents(e, n + 1)[n]
        a_next = e.quotients(n + 2)[n + 1]
        assert check_convergent_bound(e, n) == convergent_bound_by_field_ops(
            e.value, c.p, c.q, a_next) is True


def test_fibonacci_denominator_bounds():
    rng = random.Random(809)
    for _ in range(25):
        x = _rand_surd(rng, pmax=30, qmax=30, dmax=300)
        for n in range(2, 8):
            assert check_fibonacci_bounds(expand(x), n)


# ---------------------------------------------------------------------------
# step caps and lower bounds
# ---------------------------------------------------------------------------

def test_default_step_cap_value():
    assert DEFAULT_STEP_CAP == 10_000_000


def test_step_cap_exception_carries_progress():
    with pytest.raises(StepCapExceeded) as ei:
        expand(R2, max_steps=1)
    assert ei.value.steps == 1
    assert ei.value.preperiod_seen == 1


def test_period_lower_bound_exact_when_cap_suffices():
    assert period_lower_bound(R2, cap=100) == (1, False)
    assert period_lower_bound(sqrt_int(13), cap=100) == (5, False)


def test_period_lower_bound_truncation_is_a_lower_bound():
    x = sqrt_int(9949)
    true_ell = len(expand(x).period)
    assert true_ell == 217
    ell, truncated = period_lower_bound(x, cap=40)
    assert truncated
    assert 0 < ell <= true_ell
    ell2, truncated2 = period_lower_bound(x, cap=5000)
    assert (ell2, truncated2) == (217, False)


# ---------------------------------------------------------------------------
# differential: reduced-state anchor vs the first-repeat hash map
# ---------------------------------------------------------------------------

@st.composite
def surd_states(draw):
    """(kind, P, Q, D) with Q | D - P^2; kind is raw, negative_q or reduced."""
    kind = draw(st.sampled_from(["raw", "negative_q", "reduced"]))
    D = draw(st.integers(2, 3000).filter(lambda d: math.isqrt(d) ** 2 != d))
    t = math.isqrt(D)
    if kind == "reduced":
        # reduced iff 0 < P <= t and t - P < Q <= t + P (so Q > 0); at P = t,
        # Q = D - t^2 always qualifies, so the search below ends
        P = draw(st.integers(1, t))
        while not (divisors := [q for q in range(t - P + 1, t + P + 1)
                                if (D - P * P) % q == 0]):
            P += 1
        return kind, P, draw(st.sampled_from(divisors)), D
    P = draw(st.integers(-60, 60))
    Q = draw(st.integers(1, 60))
    if kind == "negative_q" or draw(st.booleans()):
        Q = -Q
    if (D - P * P) % Q:
        P, Q, D = P * abs(Q), Q * abs(Q), D * Q * Q
    return kind, P, Q, D


def _walk(P, Q, D, cap):
    try:
        e = expand(Surd(P, Q, D), max_steps=cap)
    except StepCapExceeded as exc:
        return "capped", exc.steps, exc.preperiod_seen
    return "closed", e.preperiod, e.period


@settings(max_examples=150)
@given(surd_states())
def test_expand_matches_first_repeat_reference(state):
    kind, P, Q, D = state
    want = surd_walk_first_repeat(P, Q, D, max_steps=10**7)
    assert want[0] == "closed"
    _, pre, per = want
    if kind == "reduced":
        # purely periodic: the quotients of x_0 repeat from a_0 on
        assert len(pre) == 1 and per[-1] == pre[0]
    if kind == "negative_q":
        assert Q < 0
    assert _walk(P, Q, D, 10**7) == want
    # capped at x_j, the reference reports the first reduced index (0 or j)
    first_reduced = surd_walk_first_repeat(P, Q, D, max_steps=len(pre))[2]
    closing = len(pre) + len(per)
    for cap in {0, 1, first_reduced, len(pre), closing - 1, closing, closing + 1}:
        got, ref = _walk(P, Q, D, cap), surd_walk_first_repeat(P, Q, D, cap)
        assert got == ref, (cap, got, ref)
        if got[0] == "capped":
            # the certified lower bound never exceeds the true period
            assert got[1] - got[2] <= len(per)


# ---------------------------------------------------------------------------
# cycle_lengths: the native kernel vs the reference walk and the Python route
# ---------------------------------------------------------------------------

T_LIMIT = 1 << 124  # the kernel runs for t = isqrt(D) below this


@st.composite
def wide_surd_states(draw):
    """(P, Q, D) with D = m^2 + r and r | 4m, whose cycles are short at any
    size of D; t = isqrt(D) is drawn near 2^63, where the kernel's 64-bit
    division stops applying, and near 2^124, where the kernel hands over."""
    g = draw(st.integers(1, 60))
    center = draw(st.sampled_from([None, 1 << 63, T_LIMIT]))
    m = draw(st.integers(1, 1 << 130)) if center is None else center + draw(st.integers(-64, 64))
    m = max(g, m // g * g)
    divisors = [1, 2, 4, g, 2 * g, 4 * g, m, 2 * m]
    r = draw(st.sampled_from(divisors)) * draw(st.sampled_from([1, -1]))
    D = m * m + r
    assume(D >= 2 and math.isqrt(D) ** 2 != D)
    # P = +-m + kq with q | r keeps Q = +-q a divisor of D - P^2
    q = draw(st.sampled_from([d for d in divisors if r % d == 0]))
    P = draw(st.sampled_from([m, -m])) + draw(st.integers(-1000, 1000)) * q
    return P, q * draw(st.sampled_from([1, -1])), D


@st.composite
def quotient_surd_states(draw):
    """(P, Q, D) with D = m^2 + 2h and m = hk, so that the cycle of x_1 =
    (m + sqrt(D))/2h has the partial quotients k and 2m.  t = m is drawn
    from 2^63 to 2^124 and k log-uniformly up to 2^40, so the kernel's wide
    steps take both their 64-bit estimate and their 128-bit division, and
    the estimate meets quotients from 1 to about 2^32."""
    k = draw(st.integers(1, 1 << draw(st.integers(0, 40))))
    m = draw(st.integers(1 << 63, T_LIMIT - 1)) // k * k
    assume(m >= 1 << 63)
    h = m // k
    q = draw(st.sampled_from([1, 2, h, 2 * h]))
    P = draw(st.sampled_from([m, -m])) + draw(st.integers(-1000, 1000)) * q
    return P, q * draw(st.sampled_from([1, -1])), m * m + 2 * h


def _lengths(P, Q, D, cap):
    try:
        return ("closed", *cycle_lengths(Surd(P, Q, D), max_steps=cap))
    except StepCapExceeded as exc:
        return "capped", exc.steps, exc.preperiod_seen


def _caps(j, period):
    """Caps around closing (j + l) and around each centre u of the cycle of
    x_j, read both in half-steps (u) and in steps (u // 2)."""
    closing = j + len(period)
    caps = {0, 1, j, closing - 1, closing, closing + 1}
    for u in cycle_centres(period):
        for v in (u, u // 2):
            caps |= {j + v - 1, j + v, j + v + 1}
    return sorted(cap for cap in caps if cap >= 0)


def _examples(cases):
    """Decorator adding each case as an explicit Hypothesis example."""
    return lambda test: functools.reduce(lambda f, case: example(case)(f), cases, test)


# cycles the mirror-centre walk must get right: D = 229 has reduced cycles of
# length 9 and 3 with no centre; l = 1 and l = 2; and (5/2)^6 + sqrt(2)
# (l = 3 064), whose centre behind x_1 lies past the backward probe, so the
# forward walk measures l between its first two centres
MIRROR_CASES = [(5, 12, 229), (7, 10, 229), (0, 1, 229), (15, 2, 229), (0, 1, 2),
                (1, 1, 2), (1, 2, 3), (0, 1, 3), (1, 2, 5), (1000000, 4096, 33554432)]


def _near_word_limits():
    """States (P, Q, D) with D = m^2 + r, r | 4m (periods of at most 4) and
    t = isqrt(D) next to 2^63, where P + t crosses 2^64, and just below
    2^124, where the kernel hands over to expand."""
    out = []
    for m in ((1 << 63) - 2, (1 << 63) + 1, T_LIMIT - 3):
        for r in (1, -1, 2, 2 * m, -2 * m, 4 * m):
            D = m * m + r
            out += [(P, Q, D) for P, Q in ((0, 1), (m, 2), (-m, 1), (m + 5, -1), (3 * m, 4))
                    if (D - P * P) % Q == 0]
    return out


def _wide_quotients():
    """States (0, 1, m^2 + 2h) of sqrt(m^2 + 2h), m = hk: the cycle steps
    (P, Q) = (m, 2h) with quotient k and (m, 1) with quotient 2m > 2^64.
    n = P + t = 2m, and s is the bit length of its high word; t is just
    above 2^64, near 2^96 and just below 2^124.  Each width takes Q = n
    (a = 1, with Q >> s = 2^64 - 1, where (Q >> s) + 1 would wrap), Q >> s
    just below 2^32 (the 128-bit division) and at 2^32 (the 64-bit estimate,
    corrected upward when k is near 2^32), and a quotient k > 2^32 at
    Q >> s = 2^30.  At the narrow boundary, n = Q = 2^64 - 2 and 2^64."""
    out = [(0, 1, m * m + 2 * m) for m in ((1 << 63) - 1, 1 << 63)]
    for s in (2, 34, 61):
        m = (1 << 63 + s) - 1
        out.append((0, 1, m * m + 2 * m))
        for h, k in [((1 << 31 + s) + e, k) for e in (-1, 1)
                     for k in ((3 << 30) + 1, (1 << 32) - 5)] + [(1 << 29 + s, (1 << 33) + 3)]:
            assert (2 * h * k) >> 64 + s == 0 and (2 * h * k) >> 63 + s == 1
            out.append((0, 1, (h * k) ** 2 + 2 * h))
    return out


KERNEL_CASES = MIRROR_CASES + _near_word_limits() + _wide_quotients()


@settings(max_examples=200)
@given(st.one_of(surd_states().map(lambda s: s[1:]), wide_surd_states(),
                 quotient_surd_states()))
@_examples(KERNEL_CASES)
def test_cycle_lengths_match_reference_and_python_route(state):
    P, Q, D = state
    want = surd_walk_first_repeat(P, Q, D, max_steps=10**7)
    assert want[0] == "closed"
    _, pre, per = want
    first_reduced = surd_walk_first_repeat(P, Q, D, max_steps=len(pre))[2]
    kernel, budgets = contfrac._kernel(), []

    def counted(buf, count):
        budgets.append(buf[8])
        return kernel(buf, count)

    for cap in {first_reduced, *_caps(len(pre), per)}:
        ref = surd_walk_first_repeat(P, Q, D, cap)
        if ref[0] == "closed":
            ref = ("closed", len(ref[1]), len(ref[2]))
        with patch.object(contfrac, "_kernel", lambda: counted if kernel else None):
            assert _lengths(P, Q, D, cap) == ref, cap
        with patch.object(contfrac, "_kernel", lambda: None):
            assert _lengths(P, Q, D, cap) == ref, cap
    if kernel is not None:
        assert bool(budgets) == (math.isqrt(D) < T_LIMIT)


def test_cycle_lengths_match_expand_on_long_cycles():
    # (3 + sqrt 2)^n: periods up to 105 440, D up to 127 bits at n = 30, so
    # P + t crosses 2^64 and the kernel mixes its 64- and 128-bit divisions
    x = quad(3, 1, 2)
    for n in (7, 11, 15, 20, 30):
        e = expand(x ** n)
        closing = len(e.preperiod) + len(e.period)
        assert cycle_lengths(x ** n) == (len(e.preperiod), len(e.period))
        with pytest.raises(StepCapExceeded) as ei:
            cycle_lengths(x ** n, max_steps=closing - 1)
        assert (ei.value.steps, ei.value.preperiod_seen) == (closing - 1, len(e.preperiod))
    assert len(e.period) == 105_440
    assert cycle_lengths(F(10, 7)) == (3, 0)
    assert cycle_lengths(quad(3, 0, 2)) == (1, 0)


def test_kernel_half_walk_stops_on_a_centre():
    # (3 + sqrt 2)^30 (l = 105 440) is measured between two centres, so the
    # kernel stops on a centre about l/2 steps from x_j, not back at x_j
    kernel = contfrac._kernel()
    if kernel is None:
        pytest.skip("no CF kernel")
    states = []

    def spy(buf, count):
        [start] = contfrac._kernel_rows(buf)
        done = kernel(buf, count)
        states.append((start, *contfrac._kernel_rows(buf)))
        return done

    with patch.object(contfrac, "_kernel", lambda: spy):
        assert cycle_lengths(quad(3, 1, 2) ** 30) == (1, 105_440)
    [((Pj, Qj, _, _), (P, Q, R, _))] = states
    assert (P, Q) != (Pj, Qj)
    assert Q == R or 2 * P % R == 0


def _child_env():
    """The environment of a child interpreter that imports cfperiod from
    this checkout and the test modules from this directory."""
    here = os.path.dirname(os.path.abspath(__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(contfrac.__file__)), here]))


def _kernel_row(state, budget, probe):
    """The 10 words of a kernel row: P, Q, Q_prev and t as (low, high) word
    pairs, then max_steps and probe."""
    return [w for v in state for w in (v % 2 ** 64, v >> 64)] + [budget, probe]


def _kernel_steps_past_64_bit_q(kernel):
    """One forward step (budget 1, no probe) from in-bound states with
    n = P + t < 2^64 <= Q.  No reduced state has Q > n, so the step leaves
    the bounds; the kernel takes a = 1 there, as n < 2Q, and never divides
    by Q's low word, which is 0 at Q = 2^64."""
    P, R = 1, 3
    for t in ((1 << 63) + 5, (1 << 64) - 2):
        for Q in (1 << 64, (1 << 64) + 1, 2 * t + 1):
            state = (ctypes.c_uint64 * 10)(*_kernel_row((P, Q, R, t), 1, 0))
            assert kernel(state, 1) == 1
            assert contfrac._kernel_rows(state) == [(Q - P, R + 2 * P - Q, Q, -2)]


def test_kernel_step_reads_q_past_64_bits():
    # in a child process: a division by a zero low word would kill it, not
    # the test run
    if contfrac._kernel() is None:
        pytest.skip("no CF kernel")
    script = ("import test_contfrac as T\n"
              "from cfperiod import contfrac\n"
              "T._kernel_steps_past_64_bit_q(contfrac._kernel())\n")
    got = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=_child_env(), timeout=300)
    assert got.returncode == 0, got.stderr[-2000:]


@pytest.mark.parametrize("mangle", ["breach", "bad_state", "off_centre"])
def test_kernel_fault_is_an_internal_error(mangle):
    def faulty(row, count):
        if mangle == "breach":
            row[8] = -2
        elif mangle == "off_centre":
            # x_2 = (1 + sqrt 13)/3 follows x_j = x_1 = (3 + sqrt 13)/4: on
            # the cycle, but neither x_j nor a centre
            row[0], row[2], row[4], row[8] = 1, 3, 4, 3
        else:
            row[2] += 1  # Q no longer satisfies Q * Q_prev = D - P^2
            row[8] = 1
        return 1

    with patch.object(contfrac, "_kernel", lambda: faulty):
        with pytest.raises(InternalInvariantError):
            cycle_lengths(sqrt_int(13))


# ---------------------------------------------------------------------------
# surd_cycle_lengths: one kernel call per batch
# ---------------------------------------------------------------------------

WIDE = (1 << 250) + (1 << 126)  # t = 2^125: past the kernel, period 2


def _batch(states, cap):
    try:
        return surd_cycle_lengths(states, max_steps=cap)
    except StepCapExceeded as exc:
        return "capped", exc.steps, exc.preperiod_seen


def _batch_by_expand(states, cap):
    """_batch by expand row by row: the lengths, or the first capped row."""
    out = []
    for P, Q, D in states:
        try:
            e = expand(Surd(P, Q, D), max_steps=cap)
        except StepCapExceeded as exc:
            return "capped", exc.steps, exc.preperiod_seen
        out.append((len(e.preperiod), len(e.period)))
    return out


@settings(max_examples=150, derandomize=True)
@given(st.lists(st.one_of(surd_states().map(lambda s: s[1:]), wide_surd_states()), max_size=8),
       st.one_of(st.integers(0, 12), st.just(DEFAULT_STEP_CAP)))
# a capped row (l = 217) between rows that close, before and after it a row
# past the kernel; the capped row is the first in order; and the empty batch
@example([(0, 1, 2), (0, 1, WIDE), (0, 1, 9949), (0, 1, 13), (0, 1, WIDE)], 100)
@example([(0, 1, WIDE), (0, 1, 9949), (0, 1, 94)], 10)
@example([], DEFAULT_STEP_CAP)
def test_batch_matches_expand_row_by_row(states, cap):
    want = _batch_by_expand(states, cap)
    kernel, calls = contfrac._kernel(), []

    def counted(buf, count):
        calls.append(count)
        return kernel(buf, count)

    with patch.object(contfrac, "_kernel", lambda: counted if kernel else None):
        assert _batch(states, cap) == want
    assert len(calls) <= 1
    if kernel is not None and want and want[0] != "capped":
        in_range = [D for _P, _Q, D in states if math.isqrt(D) < T_LIMIT]
        assert calls == ([len(in_range)] if in_range else [])
    with patch.object(contfrac, "_kernel", lambda: None):
        assert _batch(states, cap) == want


def _kernel_batch_stops_at_its_first_capped_row(kernel):
    """x_1 = (t + sqrt(D))/(D - t^2) of sqrt(D) for D = 2, 9949, 13 (periods
    1, 217, 5) under a budget of 100 and a probe of 3: the batch stops after
    the second row, and the third is left as it was given."""
    given = [(t, D - t * t, 1, t) for D in (2, 9949, 13) for t in [math.isqrt(D)]]
    buf = (ctypes.c_uint64 * 30)(*(w for row in given for w in _kernel_row(row, 100, 3)))
    assert kernel(buf, 3) == 2
    assert [rc for *_state, rc in contfrac._kernel_rows(buf)] == [1, -1, 100]
    assert contfrac._kernel_rows(buf)[2][:3] == given[2][:3]


def test_kernel_batch_stops_at_its_first_capped_row():
    if contfrac._kernel() is None:
        pytest.skip("no CF kernel")
    _kernel_batch_stops_at_its_first_capped_row(contfrac._kernel())


def test_batch_scans_in_two_threads_match_one_thread():
    # the kernel call releases the GIL, so the two scans run in it at once
    scans = [[(0, 1, v) for v in (2 * n * n + 1 for n in range(1, 300))
              if math.isqrt(v) ** 2 != v],
             [astuple(to_surd(quad(3, 1, 2) ** k)) for k in range(1, 16)]]
    want = [surd_cycle_lengths(states) for states in scans]
    got, start = [None, None], threading.Barrier(2)

    def scan(i):
        start.wait()
        got[i] = [surd_cycle_lengths(states) for _ in range(3) for states in scans]

    threads = [threading.Thread(target=scan, args=(i,)) for i in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert got == [want * 3, want * 3]


# ---------------------------------------------------------------------------
# building and loading the kernel
# ---------------------------------------------------------------------------

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def _lengths_with(kernel):
    # D = m^2 + 2m has period 2 at any size; t = 2^125 is past the kernel
    xs = [sqrt_int(9949), quad(3, 1, 2) ** 16, Surd(5, 1, (1 << 120) + (1 << 61)),
          Surd(0, 1, (1 << 250) + (1 << 126))]
    with patch.object(contfrac, "_kernel", lambda: kernel):
        return [cycle_lengths(x) for x in xs]


def test_loader_without_compiler_falls_back(tmp_path, monkeypatch):
    usual = _lengths_with(contfrac._kernel())
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    cache = tmp_path / "cache"
    kernel = contfrac._load_kernel(str(cache))
    assert kernel is None
    assert list(cache.iterdir()) == []
    assert _lengths_with(kernel) == usual


def test_loader_failures_leave_nothing_behind(tmp_path, monkeypatch):
    # a compiler that fails (as one without __int128 would), and a cache
    # directory that cannot be created
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "cc").write_text("#!/bin/sh\nexit 1\n")
    (bin_dir / "cc").chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    cache = tmp_path / "cache"
    assert contfrac._load_kernel(str(cache)) is None
    assert list(cache.iterdir()) == []
    (tmp_path / "file").write_text("")
    assert contfrac._load_kernel(str(tmp_path / "file" / "cache")) is None


@needs_cc
def test_loader_builds_once_then_reuses_the_library(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    kernel = contfrac._load_kernel(str(cache))
    assert kernel is not None
    built = list(cache.iterdir())
    assert len(built) == 1 and built[0].name.startswith("_cfwalk-")
    assert _lengths_with(kernel) == _lengths_with(None)
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))  # no compiler now
    assert contfrac._load_kernel(str(cache)) is not None
    assert list(cache.iterdir()) == built


@needs_cc
def test_loader_builds_again_when_the_source_changes(tmp_path, monkeypatch):
    # the library is named by the CRC-32 of the source, so a one-byte edit
    # builds a second library beside the first
    cache = tmp_path / "cache"
    assert contfrac._load_kernel(str(cache)) is not None
    with open(contfrac._KERNEL_SOURCE, "rb") as fh:
        source = fh.read()
    [first] = cache.iterdir()
    assert first.name == f"_cfwalk-{zlib.crc32(source):08x}.so"
    edited = source.replace(b"Period length", b"period length", 1)
    assert sum(x != y for x, y in zip(source, edited)) == 1
    (tmp_path / "_cfwalk.c").write_bytes(edited)
    monkeypatch.setattr(contfrac, "_KERNEL_SOURCE", str(tmp_path / "_cfwalk.c"))
    kernel = contfrac._load_kernel(str(cache))
    assert kernel is not None
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [first.name, f"_cfwalk-{zlib.crc32(edited):08x}.so"])
    assert _lengths_with(kernel) == _lengths_with(None)


@needs_cc
def test_kernel_loads_without_hashlib():
    # a fresh process that runs the CLI's imports and loads the kernel
    # imports no hashlib (about 2 ms)
    script = ("import sys\n"
              "if 'hashlib' in sys.modules: sys.exit(5)\n"
              "import cfperiod.cli\n"
              "from cfperiod import contfrac\n"
              "assert contfrac._kernel() is not None\n"
              "print('hashlib' in sys.modules)\n")
    got = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=_child_env(), timeout=300)
    if got.returncode == 5:
        pytest.skip("the interpreter imports hashlib at start-up")
    assert got.returncode == 0, got.stderr[-2000:]
    assert got.stdout == "False\n"


def _kernel_agrees_with_python_route(kernel, states):
    for P, Q, D in states:
        assert math.isqrt(D) < T_LIMIT
        e = expand(Surd(P, Q, D))
        for cap in _caps(len(e.preperiod), e.period):
            with patch.object(contfrac, "_kernel", lambda: kernel):
                got = _lengths(P, Q, D, cap)
            with patch.object(contfrac, "_kernel", lambda: None):
                assert got == _lengths(P, Q, D, cap), (P, Q, D, cap)


def _cc(tmp_path, *flags):
    lib = tmp_path / "_cfwalk.so"
    got = subprocess.run(["cc", "-O2", "-shared", "-fPIC", *flags, "-o", str(lib),
                          contfrac._KERNEL_SOURCE], capture_output=True, text=True, timeout=300)
    assert got.returncode == 0, got.stderr
    return lib


@needs_cc
def test_kernel_builds_without_warnings(tmp_path):
    _cc(tmp_path, "-Wall", "-Wextra", "-Werror")


@needs_cc
def test_kernel_has_no_undefined_behaviour_on_the_mirror_cases(tmp_path):
    # in a child process: a UBSan report aborts it, not the test run
    lib = _cc(tmp_path, "-fsanitize=undefined", "-fno-sanitize-recover=all")
    script = ("import test_contfrac as T\n"
              "from cfperiod import contfrac\n"
              f"kernel = contfrac._bind({str(lib)!r})\n"
              "T._kernel_agrees_with_python_route(kernel, T.KERNEL_CASES)\n"
              "T._kernel_steps_past_64_bit_q(kernel)\n"
              "T._kernel_batch_stops_at_its_first_capped_row(kernel)\n")
    got = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=_child_env(), timeout=600)
    assert got.returncode == 0, got.stderr[-2000:]
    assert "runtime error" not in got.stderr


def test_default_kernel_cache_is_ignored_by_git():
    root = os.path.dirname(os.path.dirname(os.path.abspath(contfrac.__file__)))
    probe = os.path.join(root, "cfperiod", "__pycache__", "_cfwalk-0.so")
    try:
        got = subprocess.run(["git", "check-ignore", "-q", probe], cwd=root,
                             capture_output=True)
    except OSError:
        pytest.skip("git is not available")
    if got.returncode == 128:
        pytest.skip("not a git checkout")
    assert got.returncode == 0


# ---------------------------------------------------------------------------
# the step as a Mobius move
# ---------------------------------------------------------------------------

def test_cf_step_is_a_mobius_move():
    x = sqrt_int(7)
    e = expand(x)
    y = x
    for a in list(e.preperiod) + list(e.period):
        y = 1 / (y - a)  # the Mobius move ((0, 1), (1, -a))
        s = to_surd(y)
        assert (s.D - s.P * s.P) % s.Q == 0


# ---------------------------------------------------------------------------
# agreement with the float-free oracle
# ---------------------------------------------------------------------------

def test_quotients_match_numeric_oracle():
    rng = random.Random(1021)
    for _ in range(60):
        x = _rand_surd(rng, pmax=200, qmax=200, dmax=5000)
        e = expand(x)
        mine = (list(e.preperiod) + list(e.period) * 12)[:12]
        ref = cf_quotients(surd_value(x.a, x.b, x.d, dps=200), 12)
        assert mine == ref, to_surd(x)


def test_conjugate_period_is_reversal():
    # classic: for reduced x the cycle of -1/conj(x) is the reversed cycle
    rng = random.Random(1022)
    checked = 0
    for _ in range(200):
        z = _rand_surd(rng, pmax=50, qmax=50, dmax=800)
        x = complete_quotients(z, 3)[3]  # tails are reduced
        if not _reduced(x):
            continue
        y = -1 / x.conj()
        a = expand(x)
        b = expand(y)
        n = len(a.period)
        assert len(b.period) == n
        rev = tuple(reversed(a.period))
        rots = {rev[i:] + rev[:i] for i in range(n)}
        assert b.period in rots
        checked += 1
        if checked >= 25:
            break
    assert checked >= 25
