"""Places of Q(sqrt(d)): valuations, product formula, growth."""
import json
import math
import pathlib
import random
from fractions import Fraction as F

import mpmath
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cfperiod import cli, memo, places
from cfperiod.errors import (
    HypothesisViolated,
    InternalInvariantError,
    PreconditionViolated,
    ZeroInput,
)
from cfperiod.places import (
    Place,
    arch_dominant_bounds,
    finite_dominant_slope,
    growth_profile,
    growth_rows,
    places_above,
    real_places,
    root_abs_table,
    val,
)
from cfperiod.qfield import quad, to_mpf
from cfperiod.recurrence import LinRec

from oracles import (branch_root_newton, enclosure_centre, growth_rows_at_arch_dps,
                     quad_to_mpf, sqrt_int, surd_value, two_adic_sqrt_bitwise,
                     val_by_branch_lift)

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
    t = branch_root_newton(d, 2, w.branch, k)
    assert (t * t - d) % 2 ** k == 0
    want = two_adic_sqrt_bitwise(d, w.branch, k)
    assert (t - want) % 2 ** (k - 1) == 0


SQUAREFREE = st.integers(2, 10**4).filter(
    lambda d: all(e == 1 for e in sympy.factorint(d).values()))

# the split places above 2 of Q(sqrt(d)), d = 1 mod 8, and above 7, 17, 23 and 31
SPLIT_PLACES = st.one_of(
    st.tuples(SPLIT_AT_2, st.integers(0, 1)).map(lambda dt: places_above(2, dt[0])[dt[1]]),
    st.tuples(st.sampled_from([7, 17, 23, 31]), SQUAREFREE, st.integers(0, 1))
    .filter(lambda pds: sympy.legendre_symbol(pds[1], pds[0]) == 1)
    .map(lambda pds: places_above(pds[0], pds[1])[pds[2]]))


def _deep_at(w, depth, rng):
    """x = (A + B sqrt(d)) / p^s with A + B t = 0 mod p^depth on w's branch."""
    p = w.p
    B = rng.randrange(1, 2 ** 20, 2) * rng.choice([1, -1])
    if p == 2:
        t = two_adic_sqrt_bitwise(w.d, w.branch, depth)
    else:
        t = branch_root_newton(w.d, p, w.branch, depth)
    A = -B * t % p ** depth + p ** depth * rng.randrange(-50, 51)
    s = rng.randrange(0, 40)
    return quad(F(A, p ** s), F(B, p ** s), w.d), s


@settings(max_examples=300)
@given(SPLIT_PLACES, st.integers(0, 1), st.integers(0, 700), st.integers(0, 30),
       st.randoms(use_true_random=False))
def test_val_matches_the_branch_lift_route(w, side, depth, g, rng):
    # x cancels to depth (at most 300 at odd p) on one of the two branches
    # above p (w's or its conjugate's), has a power of p in m, and p^g
    # divides both A and B
    p = w.p
    depth = depth if p == 2 else depth % 301
    x, _s = _deep_at(places_above(p, w.d)[side], depth, rng)
    x = x * F(p ** g * rng.randrange(1, 100), rng.randrange(1, 100))
    assume(x != 0)
    assert val(x, w) == val_by_branch_lift(x, w)


@pytest.mark.parametrize("p, d, branch", [(2, 17, 3), (2, 17, 5), (7, 2, 2), (17, 2, 5)])
def test_val_refuses_a_branch_that_is_no_root_of_d(p, d, branch):
    w = Place(d, "finite", p=p, splitting="split", branch=branch)
    with pytest.raises(InternalInvariantError):
        val(quad(1, 1, d), w)


def test_two_adic_places_and_growth_call_no_sqrt_mod(monkeypatch, capsys, tmp_path):
    # the branches above 2 are read off the odd residues mod 16, so sympy's
    # sqrt_mod is never reached at p = 2; they are the classes mod 8 of its
    # roots mod 16, the former route.  At an odd split p the branches are the
    # two roots of modp.sqrt_mod (Tonelli-Shanks), sorted as sympy's were
    sqrt_mod = sympy.ntheory.residue_ntheory.sqrt_mod
    want = {(2, d): sorted({int(t) % 8 for t in sqrt_mod(d, 16, all_roots=True)})
            for d in (17, 33, 41, 57, 65, 73, 89, 105)}
    want.update({(p, d): sorted(int(t) for t in sqrt_mod(d, p, all_roots=True))
                 for p, d in ((7, 2), (17, 2), (97, 3), (257, 2), (65537, 13),
                                 (998244353, 7))})

    def refuse(*args, **kwargs):
        raise AssertionError("sqrt_mod called")

    monkeypatch.setattr(sympy.ntheory.residue_ntheory, "sqrt_mod", refuse)
    monkeypatch.setattr(sympy, "sqrt_mod", refuse)
    for (p, d), branches in want.items():
        assert len(branches) == 2
        assert places_above(p, d) == [Place(d, "finite", p=p, splitting="split", branch=b)
                                      for b in branches]
    job = tmp_path / "g.json"
    job.write_text(json.dumps({"command": "growth", "d": 17, "coeffs": ["7/2", "-3/2"],
                               "initials": ["2", "7/2"], "range": [1, 60],
                               "options": {"place": {"kind": "finite", "p": 2,
                                                     "branch": 7}}}))
    assert cli.main(["growth", str(job)]) == 0
    assert capsys.readouterr().out.endswith("# growth_check: pass\n")
    # the split place above 7 in Q(sqrt2): the golden scan, byte for byte
    job.write_text(json.dumps({"command": "growth", "d": 2,
                               "coeffs": [["10/7", "6/7"], ["-1/7", "-2/7"]],
                               "initials": ["1", ["0", "1"]], "range": [1, 400],
                               "options": {"place": {"kind": "finite", "p": 7,
                                                     "branch": 4}}}))
    assert cli.main(["growth", str(job)]) == 0
    golden = pathlib.Path(__file__).parent / "golden" / "growth_split7_sqrt2.txt"
    assert capsys.readouterr().out == golden.read_text()


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


def _cancellation_bits(x) -> int:
    """Bits that A + B*sqrt(d) loses to cancellation when A*B < 0, about
    log2 of max(|A|, |B| sqrt(d)) / |A + B sqrt(d)|."""
    if x.A * x.B >= 0:
        return 0
    big = max(x.A * x.A, x.d * x.B * x.B)
    return big.bit_length() - abs(x.A * x.A - x.d * x.B * x.B).bit_length() + 2


COORD = st.one_of(st.integers(-2 ** 20, 2 ** 20), st.integers(-2 ** 2000, 2 ** 2000))
# (d, k): x * (1+sqrt2)^-k in Q(sqrt2), x alone in the other fields
FIELD_SHIFT = st.one_of(st.tuples(st.just(2), st.integers(10, 55)),
                        st.tuples(st.sampled_from([3, 5, 7, 13, 9973]), st.just(0)))


@settings(max_examples=200)
@given(FIELD_SHIFT, COORD, COORD, st.integers(1, 2 ** 64), st.sampled_from([1, 2]))
def test_log_abs_real_encloses_the_oracle_log(dk, A, B, m, embedding):
    # (1+sqrt2)^-k puts A*B < 0 with 2.5 k bits of cancellation at the first
    # embedding, and none at the second
    (d, k) = dk
    x = quad(F(A, m), F(B, m), d) * (1 + R2) ** -k if d == 2 else quad(F(A, m), F(B, m), d)
    assume(x != 0)
    y = x if embedding == 1 else x.conj()
    # the oracle adds two terms at 3 * ARCH_DPS digits: it keeps over 130 of
    # them while A + B*sqrt(d) cancels fewer than 160 bits
    assume(_cancellation_bits(y) < 160)
    v = places.real_places(d)[embedding - 1]
    lo, hi = places.log_abs(x, v)
    # the oracle centre, formed on the tuples, is the mpf centre's float
    assert enclosure_centre(lo, hi) == float((lo + hi) / 2)
    # an enclosure at fewer digits holds this one, which growth_rows relies on
    for dps in (2, places.ROW_DPS):
        row_lo, row_hi = places.log_abs(x, v, dps)
        assert row_lo < lo and hi < row_hi
    # and so the centre decided at ROW_DPS is the ARCH_DPS one
    assert places.log_abs_centre(x, v) == enclosure_centre(lo, hi)
    dps = 3 * places.ARCH_DPS
    with mpmath.workdps(dps):
        ref = quad_to_mpf(y, dps)
        assert lo < mpmath.log(abs(ref)) < hi
        for digits in (30, 60, 120):
            assert abs(to_mpf(y, digits) - ref) <= abs(ref) * mpmath.mpf(10) ** -digits


def _exact(v) -> F:
    return F(*mpmath.libmp.to_rational(v._mpf_))


def _ends(x, embedding: int, dps: int = places.ARCH_DPS) -> list[F]:
    """The integer ends of places._log_abs_real over 2^F, as Fractions."""
    scale = 2 ** places._enclosure_scale(dps)[0]
    return [F(e, scale) for e in places._log_abs_real(x, embedding, dps)]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3, 5, 13, 9973]), COORD, COORD, st.integers(1, 2 ** 64),
       st.integers(-400, 400), st.sampled_from(["term", "near_one"]), st.sampled_from([1, 2]))
@example(2, 2 ** 14, 2 ** 14, 1, 0, "near_one", 1)  # x = 1, log 0
def test_row_enclosures_hold_the_arch_dps_one(d, A, B, m, k, kind, embedding):
    # terms x (t + sqrt d)^k: A*B < 0 at one embedding, a cancellation of
    # up to about 1 000 bits, and logs of either sign up to about 1 400 in
    # size; or 1 + (a + b sqrt d)/2^62, within 2^-40 of 1, and 1 itself
    if kind == "term":
        x = quad(F(A, m), F(B, m), d) * quad(math.isqrt(d) + 1, 1, d) ** k
    else:
        x = quad(1 + F(A % 2 ** 15 - 2 ** 14, 2 ** 62), F(B % 2 ** 15 - 2 ** 14, 2 ** 62), d)
    assume(x != 0)
    y = x if embedding == 1 else x.conj()
    ref_dps = 3 * places.ARCH_DPS + _cancellation_bits(y) // 3 + 10
    with mpmath.workdps(ref_dps):
        ref = _exact(mpmath.log(abs(quad_to_mpf(y, ref_dps))))
    lo, hi = _ends(x, embedding)
    assert lo < ref < hi
    # at every other dps the ends are a power of two apart from their
    # centre, at least (|log| + 1) 10^-dps, and hold the ARCH_DPS enclosure
    for dps in (1, 2, 5, places.ROW_DPS, 30):
        row_lo, row_hi = _ends(x, embedding, dps)
        centre = (row_lo + row_hi) / 2
        assert row_hi - centre >= (abs(centre) + 1) / F(10) ** dps
        assert row_lo < lo and hi < row_hi


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3, 5, 13, 9973]), COORD, COORD, st.integers(1, 2 ** 64),
       st.integers(-400, 400), st.sampled_from(["term", "near_one", "power_of_two"]),
       st.sampled_from([1, 2]), st.sampled_from([places.ROW_DPS, places.ARCH_DPS]))
@example(2, 1, 0, 1, 0, "power_of_two", 1, places.ROW_DPS)       # x = 1
@example(5, -1, 0, 1, 0, "power_of_two", 2, places.ARCH_DPS)     # x = -1
@example(9973, 1, 0, 1, 400, "term", 2, places.ARCH_DPS)         # about 1 150 bits cancel
def test_integer_log_brackets_the_log(d, A, B, m, k, kind, embedding, dps):
    # the integer routine against mpmath at 220 digits past the
    # cancellation: terms x (t + sqrt d)^k with coordinates up to 2^2000,
    # whose image at one embedding cancels up to about 1 150 bits; values
    # 1 + (a + b sqrt d) / 2^90, within 2^-60 of 1; and +-2^k, whose image
    # and log bracket are exact at k = 0
    if kind == "term":
        x = quad(F(A, m), F(B, m), d) * quad(math.isqrt(d) + 1, 1, d) ** k
    elif kind == "near_one":
        x = quad(1 + F(A % 2 ** 20 - 2 ** 19, 2 ** 90), F(B % 2 ** 20 - 2 ** 19, 2 ** 90), d)
    else:
        x = quad(F(2) ** k * (1 if A >= 0 else -1), 0, d)
    assume(x != 0)
    y = x if embedding == 1 else x.conj()
    scale = places._enclosure_scale(dps)[0]
    lo, hi, K = places._abs_image(y.A, y.B, y.m, d, scale)
    assert 2 ** scale <= lo <= hi <= lo + 16
    assert quad(F(lo) / F(2) ** K, 0, d) <= abs(y) <= quad(F(hi) / F(2) ** K, 0, d)
    a, b = places._log_ints(lo, hi, K, scale)
    with mpmath.workdps(220 + _cancellation_bits(y) // 3):
        ref = _exact(mpmath.log(abs(quad_to_mpf(y, mpmath.mp.dps)))) * 2 ** scale
    assert a <= ref <= b
    assert b - a <= 128 * (2 + abs(a) // 2 ** scale)
    if kind == "power_of_two" and k == 0:
        assert a == b == 0
        lo, hi = places._log_abs_real(x, embedding, dps)
        assert lo == -hi < 0
        assert places.log_abs_centre(x, places.real_places(d)[embedding - 1]) == 0


def test_integer_log_holds_every_point_of_its_interval():
    # _log_ints(lo, hi, K, F) brackets log(s / 2^K) for every s in [lo, hi],
    # intervals up to a factor 2 wide included
    scale = places._enclosure_scale(places.ROW_DPS)[0]
    rng = random.Random(35)
    with mpmath.workdps(120):
        for _ in range(300):
            lo = rng.randrange(64, 2 ** rng.randrange(7, 400))
            hi = lo + rng.choice([0, 1, rng.randrange(lo)])
            K = rng.randrange(-600, 600)
            a, b = places._log_ints(lo, hi, K, scale)
            for s in (lo, hi):
                ref = _exact(mpmath.log(s) - K * mpmath.ln2) * 2 ** scale
                assert a <= ref <= b, (lo, hi, K)


@pytest.mark.parametrize("dps, extra", [(1, 0), (2, 0), (places.ROW_DPS, 0),
                                        (places.ARCH_DPS, 0), (places.ARCH_DPS, 77)])
def test_log_table_and_ln2_match_mpmath(dps, extra):
    # every entry 2^F log(1 + j/64), ln 2 at j = 64, at the scales the rows
    # use and at one that arch_dominant_log takes for a bound near 1
    scale = places._enclosure_scale(dps)[0] + extra
    with mpmath.workdps(300):
        for j in range(65):
            lo, hi = places._log_step(j, scale)
            ref = _exact(mpmath.log(1 + mpmath.mpf(j) / 64)) * 2 ** scale
            assert lo <= ref <= hi and hi - lo <= 2, j
    assert places._log_step(0, scale) == (0, 0)


@pytest.mark.parametrize("x, escalated", [(quad(1, 1, 2), 0), (quad(3, -2, 2), 0),
                                          (quad(1, 0, 2), 1), (quad(-1, 0, 2), 1)])
def test_log_abs_centre_escalates_only_ends_that_round_apart(monkeypatch, x, escalated):
    # log|1| = 0 has ROW_DPS ends -2^-65 and 2^-65, two floats apart; the
    # ends of log|1 + sqrt2| and of log|3 - 2 sqrt2| round to one float
    calls = []

    def counted(x, embedding, dps=places.ARCH_DPS, _real=places._log_abs_real):
        calls.append(dps)
        return _real(x, embedding, dps)

    monkeypatch.setattr(places, "_log_abs_real", counted)
    v = places.real_places(2)[0]
    got = places.log_abs_centre(x, v)
    assert calls == [places.ROW_DPS] + [places.ARCH_DPS] * escalated
    assert got == enclosure_centre(*places.log_abs(x, v))


def _count_precision_contexts(monkeypatch) -> list[str]:
    """Names of the mpmath.workdps / workprec contexts entered from now on."""
    entered = []
    for name in ("workdps", "workprec"):
        def counted(*args, _name=name, _real=getattr(mpmath, name), **kwargs):
            entered.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(mpmath, name, counted)
    return entered


@pytest.mark.parametrize("embedding", [1, 2])
def test_real_growth_rows_enter_no_precision_context(monkeypatch, tmp_path, capsys,
                                                     embedding):
    # A_n = (1 + sqrt2)^n at embedding 1 and (1 - sqrt2)^n at embedding 2, so
    # |A_n|_v grows and is never 0: the root boxes enter a fixed number of
    # contexts per job, the rows and their verdict none
    entered = _count_precision_contexts(monkeypatch)
    prec = mpmath.mp.prec
    counts = []
    for n_hi in (60, 180):
        job = tmp_path / "pell.json"
        job.write_text(json.dumps(
            {"command": "growth", "d": 2, "coeffs": ["2", "1"],
             "initials": ["1", ["1", "1" if embedding == 1 else "-1"]],
             "range": [0, n_hi],
             "options": {"place": {"kind": "real", "embedding": embedding}}}))
        entered.clear()
        assert cli.main(["growth", str(job)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == n_hi + 3 and out[-1] == "# growth_check: pass"
        counts.append(len(entered))
        assert mpmath.mp.prec == prec
    assert counts[0] == counts[1]
    with pytest.raises(ZeroInput):
        places._log_abs_real(quad(0, 0, 2), embedding)
    assert mpmath.mp.prec == prec


def test_enclosure_centre_rounds_at_53_bits_in_any_context():
    # lo + hi = 2 + 2^-52 + 2^-352 lies just above the midpoint of two floats:
    # at 53 bits it rounds up, while at 200 bits the halved sum would keep
    # only 1 + 2^-53 and round to even, down to 1.0
    libmp = mpmath.libmp
    x = mpmath.mp.make_mpf(libmp.from_man_exp(2 ** 353 + 2 ** 300 + 1, -353))
    assert enclosure_centre(x, x) == 1.0000000000000002
    with mpmath.workprec(200):
        assert enclosure_centre(x, x) == 1.0000000000000002


ROW_F = places._enclosure_scale(places.ROW_DPS)[0]


@st.composite
def end_pairs(draw):
    """(F, lo, hi) with lo <= hi integers over 2^F: small, up to 2^900 in
    size, of either sign, equal, or with a centre (lo + hi) / 2^(F + 1) at,
    or 2^-(F + 1) from, the midpoint (man + 1/2) 2^exp of two 53-bit floats."""
    F_ = draw(st.sampled_from([places._enclosure_scale(dps)[0]
                               for dps in (1, places.ROW_DPS, places.ARCH_DPS)]))
    kind = draw(st.sampled_from(["any", "equal", "halfway"]))
    if kind == "halfway":
        man = draw(st.integers(2 ** 52, 2 ** 53 - 1))
        exp = draw(st.integers(-F_, -F_ + 8) | st.integers(-F_, 900 - 53))
        total = draw(st.sampled_from([-1, 1])) * (2 * man + 1) << (F_ + exp)
        total += draw(st.sampled_from([-1, 0, 0, 1]))
        lo = (total - draw(st.integers(0, 2 ** (F_ + 4)))) // 2
        return F_, lo, total - lo
    lo = draw(st.integers(-2 ** 40, 2 ** 40) | st.integers(-2 ** (F_ + 900), 2 ** (F_ + 900)))
    if kind == "equal":
        return F_, lo, lo
    return F_, lo, lo + draw(st.integers(0, 2 ** 40) | st.integers(0, 2 ** (F_ + 900)))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(end_pairs())
@example((ROW_F, -2 ** ROW_F, 2 ** ROW_F))        # ends of either sign, centre 0
@example((ROW_F, 1, 1))                            # lo = hi = 1
@example((ROW_F, 2 ** ROW_F + 2 ** (ROW_F - 53), 2 ** ROW_F + 2 ** (ROW_F - 53)))
@example((ROW_F, -2 ** ROW_F - 3 * 2 ** (ROW_F - 53), -2 ** ROW_F - 3 * 2 ** (ROW_F - 53)))
def test_integer_centre_is_the_oracle_centre(ends):
    # places prints an enclosure's centre as (lo + hi) / 2^(F + 1), one int /
    # int division: CPython rounds it correctly, half to even, as the oracle
    # rounds lo + hi to 53 bits on the mpf pair and halves it exactly
    # (the last two examples: 1 + 2^-53 ties down to 1, -(1 + 3 2^-53) up
    # to -(1 + 2^-51))
    F_, lo, hi = ends
    pair = [mpmath.mp.make_mpf(mpmath.libmp.from_man_exp(e, -F_)) for e in (lo, hi)]
    assert (lo + hi) / (2 << F_) == enclosure_centre(*pair)


@pytest.mark.parametrize("p", [3, 7, 9973])
def test_vp_int_strips_powers_by_squaring(p):
    for v in (0, 1, 2, 3, 7, 8, 63, 64, 65, 1000):
        for unit in (1, -1, p + 1, 2 * p - 1):
            assert places._vp_int(unit * p ** v, p) == v
    with pytest.raises(ZeroInput):
        places._vp_int(0, p)


@st.composite
def growth_jobs(draw):
    """(r, v, eps, n_lo, n_hi) at a real place: a recurrence of order 1-3 over
    Q(sqrt(d)) with small coefficients, and either eps = 1/10 or an eps that
    puts the threshold of the first tail row within 10^-30 of its log."""
    d = draw(st.sampled_from((2, 3, 5, 6, 7)))
    k = draw(st.integers(1, 3))
    small, den = st.integers(-3, 3), draw(st.integers(1, 4))
    coeffs = [quad(draw(small), draw(st.integers(-1, 1)), d) for _ in range(k)]
    coeffs[-1] = coeffs[-1] or quad(1, 1, d)
    r = LinRec(coeffs, [quad(F(draw(small), den), F(draw(small), den), d) for _ in range(k)], d)
    v = real_places(d)[draw(st.sampled_from((0, 1)))]
    n_lo = draw(st.integers(-4, 10))
    n_hi = n_lo + draw(st.integers(10, 50))
    eps = F(1, 10)
    offset = draw(st.one_of(st.none(), st.integers(-10 ** 6, 10 ** 6)))
    tail = n_lo + (n_hi - n_lo) // 5
    if offset is not None and tail != 0 and r.term(tail) != 0:
        try:
            log_a1 = places.arch_dominant_log(r, v)
        except HypothesisViolated:
            return r, v, eps, n_lo, n_hi
        a = r.term(tail)
        with mpmath.workdps(150):
            log_a = mpmath.log(abs(quad_to_mpf(a if v.embedding == 1 else a.conj(), 150)))
            ratio = (log_a + offset * mpmath.mpf(10) ** -36) / (tail * log_a1)
            if 0 < ratio < 1:
                man, exp = ratio.man_exp
                eps = 1 - F(man) * F(2) ** exp
    return r, v, eps, n_lo, n_hi


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (HypothesisViolated, PreconditionViolated) as exc:
        return type(exc).__name__


@settings(max_examples=40, derandomize=True, deadline=None)
@given(growth_jobs())
def test_growth_rows_match_the_arch_dps_oracle(job):
    # the printed strings and the verdict are those of an ARCH_DPS enclosure
    # on every row, a threshold a hair from a row's log included
    with memo.scope():
        assert _outcome(growth_rows, *job) == _outcome(growth_rows_at_arch_dps, *job)


@pytest.mark.parametrize("spec, verdict, escalated", [
    # Fibonacci at the first real place of Q(sqrt5)
    ({"d": 5, "coeffs": ["1", "1"], "initials": ["0", "1"], "range": [20, 200],
      "options": {"place": {"kind": "real", "embedding": 1}}}, "pass", 0),
    # A_n = 2^(-n) + 3^n in Q(sqrt17) at the 2-adic place where |A_n|_2 = 2^n
    ({"d": 17, "coeffs": [["7/2", "0"], ["-3/2", "0"]],
      "initials": [["2", "0"], ["7/2", "0"]], "range": [20, 200],
      "options": {"place": {"kind": "finite", "p": 2, "branch": 1}}}, "pass", 0),
    # A_n = 2^n - 2^10: a zero tail term gets no row and no log
    ({"d": 2, "coeffs": ["3", "-2"], "initials": ["-1023", "-1022"], "range": [5, 30],
      "options": {"place": {"kind": "real", "embedding": 1}}}, "fail", 0),
], ids=["fibonacci-real", "2-adic", "zero-tail-term"])
def test_each_growth_row_is_computed_once(monkeypatch, tmp_path, capsys, spec, verdict,
                                          escalated):
    # the rows and the verdict read one log_abs (finite place) or integer
    # enclosure _log_abs_real (real place) at ROW_DPS per nonzero term of the
    # range, and one more at ARCH_DPS for each row that leaves its printed
    # digits or its verdict undecided
    calls = []

    def count(name):
        def counted(x, v, dps=places.ARCH_DPS, _real=getattr(places, name)):
            calls.append((x, dps))
            return _real(x, v, dps)
        monkeypatch.setattr(places, name, counted)

    count("log_abs")
    count("_log_abs_real")
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "growth", **spec}))
    assert cli.main(["growth", str(job)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"# growth_check: {verdict}"
    r = cli.rec_from_job(spec)
    n_lo, n_hi = spec["range"]
    nonzero = [r.term(n) for n in range(n_lo, n_hi + 1) if r.term(n) != 0]
    assert [x for x, dps in calls if dps == places.ROW_DPS] == nonzero
    assert len([x for x, dps in calls if dps == places.ARCH_DPS]) == escalated
    assert len(calls) == len(nonzero) + escalated and len(out) == len(nonzero) + 2


def test_growth_check_fails_on_a_zero_tail_term():
    # A_n = 2^n - 2^10 vanishes at n = 10, inside the tail of 5..30
    r = LinRec([3, -2], [quad(-1023, 0, 2), quad(-1022, 0, 2)], 2)
    assert r.term(10) == 0
    assert not growth_rows(r, real_places(2)[0], F(1, 10), 5, 30)[1]
    # A_n = 2^-n - 2^-10 at the inert place above 2 of Q(sqrt5): |1/2|_2 = 2^2
    r = LinRec([F(3, 2), F(-1, 2)], [1 - F(1, 1024), F(1, 2) - F(1, 1024)], 5)
    (w,) = places_above(2, 5)
    assert r.term(10) == 0
    assert not growth_rows(r, w, F(1, 10), 5, 30)[1]


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


@pytest.mark.parametrize("k", [40, 60, 80])
def test_arch_dominant_bounds_bracket_a_root_just_above_one(k):
    # alpha = 1 + (sqrt2-1)^k is a linear factor: the computed root is an exact
    # zero of the rounded coefficients, off alpha by their rounding, so a radius
    # that leaves the rounding out misses alpha
    alpha = 1 + (R2 - 1) ** k
    lo, hi = arch_dominant_bounds(LinRec([alpha], [quad(1, 0, 2)], 2), real_places(2)[0])
    with mpmath.workdps(300):
        ref = 1 + (mpmath.sqrt(2) - 1) ** k
        assert lo < ref < hi
        assert hi - lo < mpmath.mpf("1e-55")


def test_root_boxes_against_the_exact_count_are_an_internal_error(
        monkeypatch, tmp_path, capsys):
    # boxes inside the unit disk, where the exact circle profile has a root outside
    monkeypatch.setattr(places, "certified_root_boxes",
                        lambda p: [(mpmath.mpc("0.5"), mpmath.mpf("0.1"))])
    with pytest.raises(InternalInvariantError, match="exact count"):
        arch_dominant_bounds(FIB, real_places(5)[0])
    job = tmp_path / "fib.json"
    job.write_text(json.dumps({"command": "growth", "d": 5, "coeffs": ["1", "1"],
                               "initials": ["0", "1"], "range": [20, 40],
                               "options": {"place": {"kind": "real", "embedding": 1}}}))
    assert cli.main(["growth", str(job)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("internal error: root boxes")


def test_growth_check_operational_parameters():
    w = [p for p in places_above(2, 17) if val(TWOADIC.term(5), p) == -5][0]
    assert growth_rows(TWOADIC, w, F(1, 10), 10, 200)[1]
    assert growth_rows(FIB, real_places(5)[0], F(1, 20), 20, 300)[1]


def test_growth_check_rejects_bad_epsilon():
    with pytest.raises(PreconditionViolated):
        growth_rows(FIB, real_places(5)[0], F(0), 20, 100)
    with pytest.raises(PreconditionViolated):
        growth_rows(FIB, real_places(5)[0], F(2), 20, 100)


def test_growth_check_hypothesis_violations():
    pell = LinRec([2, 1], [quad(1, 0, 2), 1 + R2], 2)
    # conjugate embedding: |1 - sqrt2| < 1, no dominant root
    with pytest.raises(HypothesisViolated):
        growth_rows(pell, real_places(2)[1], F(1, 10), 20, 60)
    # unit at a finite place: all slopes are zero
    with pytest.raises(HypothesisViolated):
        growth_rows(pell, places_above(7, 2)[0], F(1, 10), 20, 60)


def test_root_abs_table_lists_all_factors():
    w = places_above(2, 17)[0]
    lines = root_abs_table(TWOADIC, w)
    assert len(lines) == 2
    assert any("(2^1)^(1)" in line for line in lines)
    assert any("(2^1)^(0)" in line for line in lines)
