"""Continued fractions of rationals and quadratic irrationals."""
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfperiod.contfrac import (
    DEFAULT_STEP_CAP,
    check_convergent_bound,
    check_fibonacci_bounds,
    complete_quotients,
    convergents,
    expand,
    is_purely_periodic,
    is_reduced,
    mobius_apply,
    period_length,
    period_lower_bound,
)
from cfperiod.errors import RationalInput, StepCapExceeded
from cfperiod.qfield import Surd, conj, quad, sqrt_int, to_surd

from oracles import cf_quotients, surd_value, surd_walk_first_repeat

R2 = sqrt_int(2)
GOLDEN = quad(F(1, 2), F(1, 2), 5)


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
    assert period_length(F(10, 7)) == 0


def test_leading_quotient_lives_in_preperiod():
    # even purely periodic values keep a_0 in the preperiod slot
    e = expand(GOLDEN)
    assert e.preperiod == (1,)
    assert e.period == (1,)
    assert is_purely_periodic(GOLDEN)


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
        s = complete_quotients(x, 4)[3]
        for y in (x, (s.P + sqrt_int(s.D)) / s.Q):
            r = is_reduced(y)
            p = is_purely_periodic(y)
            assert r == p, to_surd(y)
            seen_true += r
            seen_false += not r
    assert seen_true > 20 and seen_false > 20


def test_reduced_textbook_cases():
    assert is_reduced(GOLDEN)
    assert is_reduced(1 + R2)
    assert not is_reduced(R2)  # conjugate -sqrt(2) < -1
    assert not is_reduced(R2 - 1)  # value < 1
    with pytest.raises(RationalInput):
        is_reduced(quad(3, 0, 2))


def test_complete_quotients_are_eventually_reduced():
    rng = random.Random(617)
    for _ in range(30):
        x = _rand_surd(rng, pmax=100, qmax=100, dmax=2000)
        e = expand(x)
        cq = complete_quotients(x, len(e.preperiod) + len(e.period) + 2)
        for s in cq:
            assert s.Q != 0 and (s.D - s.P * s.P) % s.Q == 0
        for s in cq[len(e.preperiod):]:
            assert is_reduced((s.P + sqrt_int(s.D)) / s.Q)


def test_complete_quotients_sqrt2():
    cq = complete_quotients(R2, 3)
    assert (cq[0].P, cq[0].Q, cq[0].D) == (0, 1, 2)
    assert all((s.P, s.Q, s.D) == (1, 1, 2) for s in cq[1:])


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
            assert check_convergent_bound(x, n)
    # rational input: the bound needs a next quotient, so stop one short
    for n in range(len(expand(F(355, 113)).preperiod) - 1):
        assert check_convergent_bound(F(355, 113), n)


def test_fibonacci_denominator_bounds():
    rng = random.Random(809)
    for _ in range(25):
        x = _rand_surd(rng, pmax=30, qmax=30, dmax=300)
        for n in range(2, 8):
            assert check_fibonacci_bounds(x, n)


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


@settings(max_examples=150, deadline=None, derandomize=True)
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
# Mobius action
# ---------------------------------------------------------------------------

def test_mobius_apply_basic():
    assert mobius_apply(((1, 1), (0, 1)), R2) == 1 + R2
    assert mobius_apply(((0, 1), (1, 0)), 1 + R2) == (1 + R2) ** -1
    x = mobius_apply(((2, 3), (1, 4)), R2)
    assert x == (2 * R2 + 3) / (R2 + 4)


def test_mobius_composition():
    rng = random.Random(919)
    for _ in range(50):
        M = ((rng.randrange(-9, 10), rng.randrange(-9, 10)),
             (rng.randrange(-9, 10), rng.randrange(-9, 10)))
        N = ((rng.randrange(-9, 10), rng.randrange(-9, 10)),
             (rng.randrange(-9, 10), rng.randrange(-9, 10)))
        if M[0][0] * M[1][1] - M[0][1] * M[1][0] == 0:
            continue
        if N[0][0] * N[1][1] - N[0][1] * N[1][0] == 0:
            continue
        MN = (
            (M[0][0] * N[0][0] + M[0][1] * N[1][0],
             M[0][0] * N[0][1] + M[0][1] * N[1][1]),
            (M[1][0] * N[0][0] + M[1][1] * N[1][0],
             M[1][0] * N[0][1] + M[1][1] * N[1][1]),
        )
        x = _rand_surd(rng, pmax=20, qmax=20, dmax=200)
        assert mobius_apply(M, mobius_apply(N, x)) == mobius_apply(MN, x)


def test_cf_step_is_a_mobius_move():
    x = sqrt_int(7)
    e = expand(x)
    y = x
    for a in list(e.preperiod) + list(e.period):
        y = mobius_apply(((0, 1), (1, -a)), y)  # 1/(y - a)
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
        s = complete_quotients(z, 4)[3]  # tails are reduced
        x = (s.P + sqrt_int(s.D)) / s.Q
        if not is_reduced(x):
            continue
        y = -1 / conj(x)
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
