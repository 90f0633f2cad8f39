"""Places of Q(sqrt(d)): valuations, product formula, growth."""
import random
from fractions import Fraction as F

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cfperiod.errors import (
    HypothesisViolated,
    PreconditionViolated,
    ZeroInput,
)
from cfperiod.places import (
    _branch_root,
    arch_dominant_bounds,
    finite_dominant_slope,
    growth_check,
    growth_profile,
    places_above,
    real_places,
    root_abs_table,
    val,
)
from cfperiod.qfield import quad, to_mpf
from cfperiod.recurrence import LinRec

from oracles import sqrt_int, surd_value, two_adic_sqrt_bitwise

R2 = sqrt_int(2)
R5 = sqrt_int(5)

# the 2-adic showcase: A_n = 2^(-n) + 3^n inside Q(sqrt17), where 2 splits
TWOADIC = LinRec([F(7, 2), F(-3, 2)], [quad(2, 0, 17), F(7, 2)], 17)
FIB = LinRec([1, 1], [quad(0, 0, 5), quad(1, 0, 5)], 5)
# A_n = (1+sqrt2)^n: at the second embedding A_n' = (1-sqrt2)^n is tiny, the
# difference of two coordinates of about (1+sqrt2)^n / 2
PELL = LinRec([2, 1], [quad(1, 0, 2), 1 + R2], 2)


def _vp(n, p):
    n = abs(n)
    k = 0
    while n and n % p == 0:
        n //= p
        k += 1
    return k


# ---------------------------------------------------------------------------
# splitting behaviour
# ---------------------------------------------------------------------------

def test_splitting_pinned():
    ws = places_above(7, 2)
    assert [w.splitting for w in ws] == ["split", "split"]
    assert sorted(w.branch for w in ws) == [3, 4]
    (w5,) = places_above(5, 2)
    assert (w5.splitting, w5.f) == ("inert", 2)
    (w2,) = places_above(2, 2)
    assert (w2.splitting, w2.f) == ("ramified", 1)
    assert sorted(w.branch for w in places_above(2, 17)) == [1, 7]
    assert places_above(2, 5)[0].splitting == "inert"
    assert places_above(5, 5)[0].splitting == "ramified"


def test_splitting_matches_legendre_symbol():
    rng = random.Random(2025)
    primes = [p for p in range(3, 100) if sympy.isprime(p)]
    for _ in range(80):
        p = rng.choice(primes)
        d = rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 21, 23, 29, 33])
        ws = places_above(p, d)
        if d % p == 0:
            assert [w.splitting for w in ws] == ["ramified"]
        elif sympy.legendre_symbol(d, p) == 1:
            assert [w.splitting for w in ws] == ["split", "split"]
            # the two branches carry distinct square roots of d mod p
            r1, r2 = (w.branch % p for w in ws)
            assert (r1 * r1 - d) % p == 0 and (r2 * r2 - d) % p == 0
            assert (r1 + r2) % p == 0 and r1 != r2
        else:
            assert [(w.splitting, w.f) for w in ws] == [("inert", 2)]


def test_splitting_at_two_by_residue():
    assert [w.splitting for w in places_above(2, 17)] == ["split", "split"]  # 17 = 1 mod 8
    assert [w.splitting for w in places_above(2, 5)] == ["inert"]  # 5 mod 8
    assert [w.splitting for w in places_above(2, 3)] == ["ramified"]
    assert [w.splitting for w in places_above(2, 2)] == ["ramified"]
    with pytest.raises(PreconditionViolated):
        places_above(6, 5)


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------

def test_val_pinned():
    w1, w2 = places_above(7, 2)
    assert sorted([val(3 + R2, w1), val(3 + R2, w2)]) == [0, 1]
    assert sorted([val((3 + R2) ** -1, w1), val((3 + R2) ** -1, w2)]) == [-1, 0]
    (w5,) = places_above(5, 2)
    assert val(quad(5, 0, 2), w5) == 1  # |5|_w = 1/25 through f = 2
    (w2r,) = places_above(2, 2)
    assert val(R2, w2r) == 1  # |sqrt2|_2 = 1/2
    assert val(quad(2, 0, 2), w2r) == 2
    with pytest.raises(ZeroInput):
        val(quad(0, 0, 2), w2r)


def test_val_additive_random():
    rng = random.Random(77)
    w1, w2 = places_above(7, 2)
    for _ in range(60):
        x = quad(rng.randrange(-50, 51), rng.randrange(-50, 51), 2)
        y = quad(rng.randrange(-50, 51), rng.randrange(-50, 51), 2)
        if x == 0 or y == 0:
            continue
        for w in (w1, w2):
            assert val(x * y, w) == val(x, w) + val(y, w)


def test_val_consistency_with_norm_random():
    # sum of f * ord over the places above p recovers v_p(Norm)
    rng = random.Random(78)
    primes = [2, 3, 5, 7, 11, 13, 17, 23, 31, 41, 73, 89, 97]
    for _ in range(120):
        d = rng.choice([2, 3, 5, 13, 17])
        p = rng.choice(primes)
        x = quad(
            F(rng.randrange(-40, 41), rng.randrange(1, 9)),
            F(rng.randrange(-40, 41), rng.randrange(1, 9)),
            d,
        )
        if x == 0:
            continue
        nrm = x.norm()
        want = _vp(nrm.numerator, p) - _vp(nrm.denominator, p)
        got = sum(w.f * val(x, w) for w in places_above(p, d))
        assert got == want, (d, p, x)


# squarefree d = 1 mod 8, where 2 splits in Q(sqrt(d))
SPLIT_AT_2 = st.integers(2, 10**5).map(lambda n: 8 * n + 1).filter(
    lambda d: all(e == 1 for e in sympy.factorint(d).values()))


@settings(max_examples=120)
@given(SPLIT_AT_2, st.integers(0, 1), st.integers(3, 2000))
def test_two_adic_branch_root_matches_bitwise_lift(d, side, k):
    w = places_above(2, d)[side]
    t = _branch_root(w, k)
    assert (t * t - d) % 2 ** k == 0
    want = two_adic_sqrt_bitwise(d, w.branch, k)
    assert (t - want) % 2 ** (k - 1) == 0


def _deep_at(w, depth, rng):
    """x = (A + B sqrt(d)) / 2^s with A + B t = 0 mod 2^depth on w's branch."""
    B = rng.randrange(1, 2 ** 20, 2) * rng.choice([1, -1])
    t = two_adic_sqrt_bitwise(w.d, w.branch, depth)
    A = -B * t % 2 ** depth + 2 ** depth * rng.randrange(-50, 51)
    s = rng.randrange(0, 40)
    return quad(F(A, 2 ** s), F(B, 2 ** s), w.d), s


@settings(max_examples=60)
@given(SPLIT_AT_2, st.integers(50, 700), st.integers(50, 700),
       st.randoms(use_true_random=False))
def test_two_adic_split_valuations_deep(d, m1, m2, rng):
    w, wbar = places_above(2, d)
    x, sx = _deep_at(w, m1, rng)
    y, sy = _deep_at(wbar, m2, rng)
    assert val(x, w) >= m1 - 1 - sx
    assert val(y, wbar) >= m2 - 1 - sy
    for z in (x, y, x * y):
        nrm = z.norm()
        assert val(z, w) + val(z, wbar) == _vp(nrm.numerator, 2) - _vp(nrm.denominator, 2)
    for place in (w, wbar):
        assert val(x * y, place) == val(x, place) + val(y, place)
        assert val(x / y, place) == val(x, place) - val(y, place)


def _abs_at(x, w):
    """|x|_w = (p^f)^(-ord_w(x)) at a finite place, exactly."""
    return F(w.p ** w.f) ** -val(x, w)


def test_abs_at_exact_forms():
    w1, w2 = places_above(7, 2)
    assert (val(3 + R2, w1), val(3 + R2, w2)) == (0, 1)  # N(3 + sqrt2) = 7
    assert _abs_at(3 + R2, w2) == F(1, 7)
    # at the real places |sigma(x)| is exact in K: abs of x and of its conjugate
    assert abs(1 - R2) == -1 + R2
    assert abs((1 - R2).conj()) == 1 + R2
    (w5,) = places_above(5, 2)  # inert: f = 2
    assert _abs_at(quad(5, 0, 2), w5) == F(1, 25)


def test_product_formula_exact():
    # finite product over the support, times both archimedean factors, is 1
    rng = random.Random(79)
    for _ in range(40):
        x = (1 + R2) ** rng.randrange(-3, 4)
        # 5 is inert in Q(sqrt(2)): its place carries the f = 2 normalization
        for p in (2, 5, 7, 17):
            x = x * quad(p, 0, 2) ** rng.randrange(-2, 3)
        x = x * (3 + R2) ** rng.randrange(-2, 3)
        finite = F(1)
        for p in (2, 5, 7, 17):
            for w in places_above(p, 2):
                finite *= _abs_at(x, w)
        nrm = x.norm()
        assert finite * abs(nrm) == 1  # |N(x)| is the archimedean product


# ---------------------------------------------------------------------------
# growth along a place
# ---------------------------------------------------------------------------

def test_two_adic_profile_is_exactly_n():
    w = [p for p in places_above(2, 17) if val(TWOADIC.term(5), p) == -5][0]
    prof = growth_profile(TWOADIC, w, 20, 40)
    for row in prof:
        assert (row.base, row.coeff) == (2, row.n)
        assert row.enclosure is None


@pytest.mark.parametrize("r, v", [(FIB, real_places(5)[0]), (FIB, real_places(5)[1]),
                                  (PELL, real_places(2)[0]), (PELL, real_places(2)[1])])
def test_real_profile_encloses_the_log(r, v):
    rows = growth_profile(r, v, 1, 120)
    assert [row.n for row in rows] == list(range(1, 121))
    with mpmath.workdps(180):
        for row in rows:
            a = r.term(row.n)
            ref = mpmath.log(abs(surd_value(a.a, a.b if v.embedding == 1 else -a.b,
                                            r.d, 180)))
            lo, hi = row.enclosure
            assert lo < ref < hi, row.n


def test_growth_check_fails_on_a_zero_tail_term():
    # A_n = 2^n - 2^10 vanishes at n = 10, inside the tail of 5..30
    r = LinRec([3, -2], [quad(-1023, 0, 2), quad(-1022, 0, 2)], 2)
    assert r.term(10) == 0
    assert not growth_check(r, real_places(2)[0], F(1, 10), 5, 30)
    # A_n = 2^-n - 2^-10 at the inert place above 2 of Q(sqrt5): |1/2|_2 = 2^2
    r = LinRec([F(3, 2), F(-1, 2)], [1 - F(1, 1024), F(1, 2) - F(1, 1024)], 5)
    (w,) = places_above(2, 5)
    assert r.term(10) == 0
    assert not growth_check(r, w, F(1, 10), 5, 30)


def test_finite_dominant_slope():
    w = places_above(2, 17)[0]
    assert finite_dominant_slope(TWOADIC, w) == 1
    with pytest.raises(HypothesisViolated):
        finite_dominant_slope(FIB, places_above(3, 5)[0])


def test_arch_dominant_bounds_bracket_golden_ratio():
    lo, hi = arch_dominant_bounds(FIB, real_places(5)[0])
    phi = to_mpf(quad(F(1, 2), F(1, 2), 5), 80)
    with mpmath.workdps(100):
        slack = mpmath.mpf("1e-35")
        assert lo - slack <= phi <= hi + slack
        assert hi - lo < mpmath.mpf("1e-30")


def test_growth_check_operational_parameters():
    w = [p for p in places_above(2, 17) if val(TWOADIC.term(5), p) == -5][0]
    assert growth_check(TWOADIC, w, F(1, 10), 10, 200)
    assert growth_check(FIB, real_places(5)[0], F(1, 20), 20, 300)


def test_growth_check_rejects_bad_epsilon():
    with pytest.raises(PreconditionViolated):
        growth_check(FIB, real_places(5)[0], F(0), 20, 100)
    with pytest.raises(PreconditionViolated):
        growth_check(FIB, real_places(5)[0], F(2), 20, 100)


def test_growth_check_hypothesis_violations():
    pell = LinRec([2, 1], [quad(1, 0, 2), 1 + R2], 2)
    # conjugate embedding: |1 - sqrt2| < 1, no dominant root
    with pytest.raises(HypothesisViolated):
        growth_check(pell, real_places(2)[1], F(1, 10), 20, 60)
    # unit at a finite place: all slopes are zero
    with pytest.raises(HypothesisViolated):
        growth_check(pell, places_above(7, 2)[0], F(1, 10), 20, 60)


def test_root_abs_table_lists_all_factors():
    w = places_above(2, 17)[0]
    lines = root_abs_table(TWOADIC, w)
    assert len(lines) == 2
    assert any("(2^1)^(1)" in line for line in lines)
    assert any("(2^1)^(0)" in line for line in lines)
