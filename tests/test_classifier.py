"""Boundedness classification of recurrences over Q(sqrt(d))."""
import pathlib
from fractions import Fraction as F

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cfperiod import polyalg
from cfperiod.classifier import classify, explain
from cfperiod.contfrac import period_lower_bound
from cfperiod.polyalg import KPoly, RatPoly, circle_profile, factor_k
from cfperiod.qfield import quad, sqrt_int
from cfperiod.recurrence import LinRec

from curated import DEGEN_PART_VERDICTS, members

R2 = sqrt_int(2)
R5 = sqrt_int(5)


# ---------------------------------------------------------------------------
# curated table
# ---------------------------------------------------------------------------

def test_curated_verdicts_and_steps():
    for name, rec, verdict, step in members():
        c = classify(rec)
        assert (c.verdict, c.step) == (verdict, step), name


def curated_report() -> str:
    """explain() of every curated member, each under a `== name ==` header."""
    return "".join(f"== {name} ==\n{explain(classify(rec))}\n\n"
                   for name, rec, _verdict, _step in members())


def test_curated_explanations_golden():
    golden = pathlib.Path(__file__).parent / "golden" / "classify_curated.txt"
    assert curated_report() == golden.read_text()


def test_degenerate_member_subresults():
    rec = [m for m in members() if m[0] == "sqrt2^n+(1+sqrt2)^n"][0][1]
    c = classify(rec)
    assert c.verdict == "DegenerateInput"
    assert c.split_modulus == 2
    assert [(j, s.verdict, s.step) for j, s in c.subresults] == DEGEN_PART_VERDICTS
    # the odd part keeps the rational exponential 2 in its difference part
    j1 = c.subresults[1][1]
    assert j1.evidence.conj_fixed == KPoly([-2, 1], 2)
    assert j1.evidence.fixed_profile.outside == 1


def test_class_b_b_evidence_carries_beta_and_sign():
    table = {m[0]: m[1] for m in members()}
    c = classify(table["n+sqrt5"])
    assert c.beta == 2 * R5
    assert c.sign == 1
    c = classify(table["(-1)^n*(2+sqrt2)"])
    assert c.beta == 2 * R2
    assert c.sign == -1


def test_purely_rational_sequences_are_class_a():
    assert classify(LinRec([F(2, 3)], [quad(1, 0, 5)], 5)).verdict == "ClassA"
    assert classify(LinRec([5, -6], [quad(1, 0, 2), quad(2, 0, 2)], 2)).verdict == "ClassA"


def test_explain_fibonacci_golden():
    c = classify([m for m in members() if m[0] == "fibonacci"][0][1])
    assert explain(c) == (
        "verdict: ClassA (rational sequence; bounded period lengths)\n"
        "minimal charpoly: x^2 + (-1)*x + -1\n"
        "difference part P_D: 0 (zero sequence)\n"
        "sum part P_S: x^2 + (-1)*x + -1\n"
        "note: difference sequence vanishes identically: every A_n is rational"
    )


def test_explain_degenerate_mentions_both_parts():
    rec = [m for m in members() if m[0] == "sqrt2^n+(1+sqrt2)^n"][0][1]
    text = explain(classify(rec))
    assert "split modulus d = 2" in text
    assert "subsequence j=0:" in text and "subsequence j=1:" in text
    assert "step: B.1" in text
    assert "unital(P_S): False" in text and "unital(P_S): True" in text


# ---------------------------------------------------------------------------
# invariants every verdict must satisfy, whatever route produced it
# ---------------------------------------------------------------------------

def test_integer_scaling_does_not_change_verdicts():
    for D in (2, 3, 6):
        for name, rec, verdict, step in members():
            scaled = LinRec(rec.coeffs, [D * t for t in rec.initials], rec.d)
            c = classify(scaled)
            assert (c.verdict, c.step) == (verdict, step), (name, D)


def test_unbounded_verdicts_show_empirical_growth():
    # light echo of the acceptance scan: one cheap member per B/C branch
    table = {m[0]: m[1] for m in members()}
    for name in ("n^2*sqrt5", "sqrt5*2^n"):
        ells = []
        rec = table[name]
        for n in range(1, 14):
            ell, _ = period_lower_bound(rec.term(n), cap=100_000)
            ells.append(ell)
        wins = [max(ells[0:1]), max(ells[1:3]), max(ells[3:7]), max(ells[7:13])]
        assert all(b >= a for a, b in zip(wins, wins[1:]))
        assert sum(b > a for a, b in zip(wins, wins[1:])) >= 2, name


def test_b3_growth_can_live_on_the_negative_side():
    # constant irrational part plus an integer exponential: flat for n > 0,
    # exploding denominators for n < 0; still a proven-unbounded shape
    rec = LinRec([4, 5], [1 + R2, quad(5, 0, 2) - R2], 2)
    c = classify(rec)
    assert (c.verdict, c.step) == ("ProvenUnbounded", "B.3")
    pos = [period_lower_bound(rec.term(n), cap=100_000)[0] for n in range(1, 26)]
    assert max(pos) == 1  # nothing happens forward
    neg = [period_lower_bound(rec.term(-n), cap=100_000)[0] for n in range(1, 26)]
    wins = [max(neg[0:1]), max(neg[1:3]), max(neg[3:7]), max(neg[7:15]), max(neg[15:25])]
    assert sum(b > a for a, b in zip(wins, wins[1:])) >= 2


def test_verdict_stability_under_defining_order_inflation():
    # writing Fibonacci with an inflated recurrence must not change anything
    inflated = LinRec([3, -1, -2], [quad(0, 0, 5), quad(1, 0, 5), quad(1, 0, 5)], 5)
    c = classify(inflated)
    assert (c.verdict, c.step) == ("ClassA", None)
    assert c.evidence.p_a_min == KPoly([-1, -1, 1], 5)


def test_c_branch_unital_pisot_distinction():
    # unit of norm -1 with unital Pisot shape -> c; norm 7 -> C.1
    c = classify(LinRec([2, 1], [quad(1, 0, 2), 1 + R2], 2))
    assert c.verdict == "ClassC_c"
    c = classify(LinRec([6, -7], [quad(1, 0, 2), 3 + R2], 2))
    assert (c.verdict, c.step) == ("ProvenUnbounded", "C.1")
    assert c.evidence.s_unital is False
    assert c.evidence.p_s == RatPoly([7, -6, 1])


# ---------------------------------------------------------------------------
# metamorphic: an index shift of the initial terms changes nothing
# ---------------------------------------------------------------------------

SHIFTS = (1, 2, -1, -3)


def _shifted(rec, k):
    """The same recurrence started at A_k: its n-th term is A_(n+k)."""
    return LinRec(rec.coeffs, [rec.term(k + i) for i in range(rec.order)], rec.d)


def _assert_shift_invariant(rec, k):
    base, moved = classify(rec), classify(_shifted(rec, k))
    assert (moved.verdict, moved.step) == (base.verdict, base.step)
    assert moved.evidence.p_a_min == base.evidence.p_a_min
    assert moved.evidence.p_d == base.evidence.p_d
    assert moved.evidence.p_s == base.evidence.p_s
    assert moved.split_modulus == base.split_modulus
    if base.verdict == "DegenerateInput":
        # the shifted j-th part runs over A_(dn+j+k): a shift of part (j + k) mod d
        m = base.split_modulus
        subs = dict(base.subresults)
        for j, sub in moved.subresults:
            want = subs[(j + k) % m]
            assert (sub.verdict, sub.step) == (want.verdict, want.step), j


@pytest.mark.parametrize("k", SHIFTS)
def test_index_shift_keeps_curated_verdicts(k):
    for name, rec, _verdict, _step in members():
        _assert_shift_invariant(rec, k)


@st.composite
def small_recurrences(draw):
    """Order 1-3 over Q(sqrt(d)) with small coefficients and initials."""
    d = draw(st.sampled_from((2, 3, 5)))
    small = st.integers(-3, 3)
    order = draw(st.integers(1, 3))
    coeffs = [quad(draw(small), draw(small), d) for _ in range(order - 1)]
    coeffs.append(quad(draw(small), draw(small), d) or quad(1, 0, d))
    initials = [quad(draw(small), draw(small), d) for _ in range(order)]
    return LinRec(coeffs, initials, d)


@settings(max_examples=30)
@given(small_recurrences(), st.sampled_from(SHIFTS))
def test_index_shift_keeps_verdicts(rec, k):
    _assert_shift_invariant(rec, k)


# ---------------------------------------------------------------------------
# the factor table: fixed and moved parts, integrality flags, Pisot pairs
# ---------------------------------------------------------------------------

def test_fixed_and_moved_parts_are_products_of_factors():
    # sqrt2 * 2^n + (1+sqrt2)^n: P_D = (x - 2)(x^2 - 2x - 1), the root 2 fixed
    c = classify(LinRec([3 + R2, -(2 + 2 * R2)], [1 + R2, 1 + 3 * R2], 2))
    assert (c.verdict, c.step) == ("ProvenUnbounded", "B.1")
    assert c.evidence.conj_fixed == KPoly([-2, 1], 2)
    assert c.evidence.conj_moved == KPoly([-1, -2, 1], 2)
    assert (c.evidence.fixed_profile.inside, c.evidence.fixed_profile.on,
            c.evidence.fixed_profile.outside) == (0, 0, 1)
    # rational coefficients do not make a factor fixed: x^2 - 2x - 1 splits
    # over Q(sqrt 2) into two factors that conjugation swaps
    c = classify(LinRec([2, 1], [quad(1, 0, 2), 1 + R2], 2))
    assert c.evidence.conj_fixed == KPoly([1], 2)
    assert c.evidence.conj_moved == c.evidence.p_d == KPoly([-1, -2, 1], 2)
    pi = KPoly([-(1 + R2), 1], 2)
    assert pi.conj() == KPoly([-(1 - R2), 1], 2)
    assert {f for f, *_ in c.evidence.moved_factors} == {pi, pi.conj()}
    # P_D is the minimal polynomial of the root over Q: x^2 - 6x + 1 for 3 + 2 sqrt2
    c = classify(LinRec([3 + 2 * R2], [quad(1, 0, 2)], 2))
    assert c.verdict == "ClassC_c"  # unit of norm 1, Pisot pair
    assert c.evidence.p_d == KPoly([1, -6, 1], 2)


@settings(max_examples=30)
@given(small_recurrences())
def test_fixed_part_is_rational_and_parts_multiply_back(rec):
    ev = classify(rec).evidence
    if ev.conj_fixed is not None:
        assert ev.conj_fixed.is_rational()
        assert ev.conj_fixed * ev.conj_moved == ev.p_d
        assert all(pi.conj() != pi for pi, *_ in ev.moved_factors)


def test_unital_flags_of_the_sum_part():
    # F_n + sqrt5: P_S = x^2 - x - 1, every root a unit
    c = classify(LinRec([2, 0, -1], [R5, 1 + R5, 1 + R5], 5))
    assert c.verdict == "ClassB_b"
    assert c.evidence.s_unital is True
    # 2^n + sqrt2 (P_S = x - 2) and 2^n + 1 + sqrt2 (P_S = (x - 1)(x - 2))
    for a0 in (1 + R2, 2 + R2):
        c = classify(LinRec([3, -2], [a0, a0 + 1], 2))
        assert (c.verdict, c.step) == ("ProvenUnbounded", "B.3")
        assert c.evidence.s_unital is False
    c = classify(LinRec([3 + 2 * R2], [quad(1, 0, 2)], 2))  # P_S = x^2 - 6x + 1
    assert c.evidence.s_unital is True


def test_moved_factor_on_the_circle_is_c1():
    # x^2 - (1+sqrt2)/2 x + 1 and its conjugate both have their roots on the
    # circle (the C.2 shape); (1+sqrt2)/2 is no algebraic integer, so no
    # root is a root of unity and the input is not degenerate
    c = classify(LinRec([(1 + R2) / 2, -1], [quad(1, 0, 2), R2], 2))
    assert (c.verdict, c.step) == ("ProvenUnbounded", "C.1")
    assert [(pr.on, pc.on) for _pi, _m, pr, pc in c.evidence.moved_factors] == [(2, 2), (2, 2)]
    # x^2 - (1+sqrt2) x + 1: roots off the circle, its conjugate's on it
    c = classify(LinRec([1 + R2, -1], [quad(1, 0, 2), R2], 2))
    assert (c.verdict, c.step) == ("ProvenUnbounded", "C.1")


@st.composite
def self_reciprocal_irreducibles(draw):
    """Monic palindromes of degree 2 or 4 over Q(sqrt(d)), irreducible over K."""
    d = draw(st.sampled_from((2, 3, 5)))
    elem = st.builds(lambda a, b, m: quad(F(a, m), F(b, m), d),
                     st.integers(-6, 6), st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    if draw(st.booleans()):
        a = draw(elem)
        pi = KPoly([1, a, 1], d)
    else:
        a, b = draw(elem), draw(elem)
        pi = KPoly([1, a, b, a, 1], d)
    fac = factor_k(pi).factors
    if len(fac) != 1 or fac[0][1] != 1:
        reject()
    return pi


@settings(max_examples=60)
@given(self_reciprocal_irreducibles())
def test_conjugate_of_a_self_reciprocal_factor_reaches_the_circle(pi):
    # why C.2 has no branch: a moved factor with a root on the circle is
    # self-reciprocal, so is its conjugate, and neither has every root inside
    pc = pi.conj()
    assert polyalg._self_reciprocal(pc)
    for prof in (circle_profile(pi), circle_profile(pc)):
        assert prof.on + prof.outside > 0
        assert prof.inside == prof.outside
