"""Exact arithmetic in Q(sqrt(d)): the layer everything else stands on."""
import math
import random
from fractions import Fraction as F

import pickle
import sys

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from cfperiod.errors import (
    DivisionByZero,
    MixedFieldError,
    NegativeInput,
    RationalInput,
)
from cfperiod.qfield import (
    QuadElem,
    Surd,
    floor_exact,
    quad,
    split_square,
    to_mpf,
    to_surd,
)

import oracles
from oracles import sqrt_int, surd_value

R2 = sqrt_int(2)
R5 = sqrt_int(5)


# ---------------------------------------------------------------------------
# construction and normalization
# ---------------------------------------------------------------------------

def test_sqrt_int_splits_square_part():
    assert sqrt_int(9) == 3
    assert sqrt_int(12) == quad(0, 2, 3)
    assert sqrt_int(72) == quad(0, 6, 2)
    assert sqrt_int(1) == 1
    assert sqrt_int(0) == 0


def test_sqrt_int_negative_rejected():
    with pytest.raises(NegativeInput):
        sqrt_int(-3)


def test_field_parameter_must_be_squarefree():
    with pytest.raises(ValueError):
        quad(1, 1, 12)
    with pytest.raises(ValueError):
        quad(1, 1, 1)


def test_split_square():
    assert split_square(72) == (6, 2)
    assert split_square(1) == (1, 1)
    assert split_square(17) == (1, 17)
    assert split_square(400) == (20, 1)
    rng = random.Random(20240)
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        s, r = split_square(n)
        assert s * s * r == n
        # r squarefree: no prime square divides it
        for p in (2, 3, 5, 7, 11, 13):
            assert r % (p * p) != 0


# ---------------------------------------------------------------------------
# ring/field axioms under random exercise
# ---------------------------------------------------------------------------

def _rand_elem(rng, d):
    a = F(rng.randrange(-60, 61), rng.randrange(1, 13))
    b = F(rng.randrange(-60, 61), rng.randrange(1, 13))
    return quad(a, b, d)


def test_field_axioms_random():
    rng = random.Random(97)
    for d in (2, 3, 5, 17):
        for _ in range(80):
            x = _rand_elem(rng, d)
            y = _rand_elem(rng, d)
            z = _rand_elem(rng, d)
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            assert x - x == 0
            if y != 0:
                assert (x / y) * y == x
            if x != 0:
                assert x * x**-1 == 1


def test_pow_negative_is_inverse_power():
    u = 1 + R2
    assert u**-1 == quad(-1, 1, 2)
    assert u**-2 == quad(3, -2, 2)
    assert u**5 * u**-5 == 1
    with pytest.raises(DivisionByZero):
        quad(0, 0, 2) ** -1


def test_mixed_fields_rejected():
    with pytest.raises(MixedFieldError):
        R2 + sqrt_int(3)
    with pytest.raises(MixedFieldError):
        R2 * R5


def test_rationals_interoperate():
    x = 1 + R2
    assert x + F(1, 2) == quad(F(3, 2), 1, 2)
    assert 2 * x == quad(2, 2, 2)
    assert x / 2 == quad(F(1, 2), F(1, 2), 2)
    assert quad(3, 0, 5) == 3
    assert quad(F(7, 3), 0, 5) == F(7, 3)


# ---------------------------------------------------------------------------
# conjugation, trace, norm
# ---------------------------------------------------------------------------

def test_conj_is_involutive_ring_hom():
    rng = random.Random(411)
    for _ in range(100):
        x = _rand_elem(rng, 2)
        y = _rand_elem(rng, 2)
        assert x.conj().conj() == x
        assert (x + y).conj() == x.conj() + y.conj()
        assert (x * y).conj() == x.conj() * y.conj()


def test_trace_norm_values():
    assert ((3 + R2).trace(), (3 + R2).norm()) == (6, 7)
    assert ((1 + R2).trace(), (1 + R2).norm()) == (2, -1)
    golden = quad(F(1, 2), F(1, 2), 5)
    assert (golden.trace(), golden.norm()) == (1, -1)
    rng = random.Random(412)
    for _ in range(100):
        x = _rand_elem(rng, 5)
        assert x + x.conj() == x.trace()
        assert x * x.conj() == x.norm()


# ---------------------------------------------------------------------------
# order: sign, floor, comparisons (exact, no floats)
# ---------------------------------------------------------------------------

def test_sign_exact_near_cancellation():
    # 1393/985 is a convergent of sqrt(2); the difference is ~5e-7
    assert (R2 - F(1393, 985)).sign() == 1
    assert (R2 - F(1393, 985) - F(1, 10**6)).sign() == -1
    assert quad(0, 0, 2).sign() == 0
    big = F(10**40 + 1, 10**40)
    assert (quad(big, -1, 2) * quad(big, 1, 2)).sign() == -1  # big^2 - 2 < 0


def test_floor_matches_mpmath_oracle():
    rng = random.Random(733)
    for _ in range(200):
        d = rng.choice([2, 3, 5, 7, 11, 13])
        x = _rand_elem(rng, d)
        got = floor_exact(x)
        want = int(mpmath.floor(surd_value(x.a, x.b, d, dps=80)))
        assert got == want, (x, got, want)


def test_floor_negative_irrational():
    assert floor_exact(-(1 + R2)) == -3
    assert floor_exact(-R2) == -2
    assert floor_exact(quad(-3, 0, 2)) == -3
    assert floor_exact(quad(F(-7, 2), 0, 2)) == -4


def test_total_order_consistent_with_embedding():
    rng = random.Random(734)
    for _ in range(150):
        x = _rand_elem(rng, 3)
        y = _rand_elem(rng, 3)
        lt = x < y
        num = surd_value(x.a, x.b, 3, dps=60) < surd_value(y.a, y.b, 3, dps=60)
        if x != y:
            assert lt == num


# ---------------------------------------------------------------------------
# surd form (P + sqrt(D))/Q
# ---------------------------------------------------------------------------

def test_to_surd_examples():
    s = to_surd(1 + R2)
    assert (s.P, s.Q, s.D) == (1, 1, 2)
    s = to_surd(quad(F(1, 2), F(1, 2), 5))  # golden ratio
    assert (s.P, s.Q, s.D) == (1, 2, 5)
    s = to_surd(quad(F(-2, 3), F(1, 3), 7))
    assert (s.P, s.Q, s.D) == (-2, 3, 7)


def test_to_surd_divisibility_invariant():
    # Q must divide D - P^2 so the CF recursion stays integral
    rng = random.Random(905)
    for _ in range(300):
        d = rng.choice([2, 3, 5, 13, 17])
        x = _rand_elem(rng, d)
        if x.b == 0:
            continue
        s = to_surd(x)
        assert s.Q != 0
        assert (s.D - s.P * s.P) % s.Q == 0
        # and the surd really is the element
        back = (s.P + sqrt_int(s.D)) / s.Q
        assert back == x or back == quad(x.a, x.b, d)


def test_to_surd_negative_b_flips_representation():
    x = quad(1, -1, 2)  # 1 - sqrt(2) < 0
    s = to_surd(x)
    assert (s.P + surd_value(0, 1, s.D, dps=40)) / s.Q == pytest.approx(
        float(1 - math.sqrt(2)), abs=1e-12
    )


def test_to_surd_rational_rejected():
    with pytest.raises(RationalInput):
        to_surd(quad(F(3, 2), 0, 2))


# ---------------------------------------------------------------------------
# numeric export
# ---------------------------------------------------------------------------

def test_to_mpf_tracks_precision():
    x = 1 + R2
    lo = to_mpf(x, 30)
    hi = to_mpf(x, 120)
    with mpmath.workdps(130):
        ref = 1 + mpmath.sqrt(2)
        assert abs(mpmath.mpf(hi) - ref) < mpmath.mpf(10) ** -115
        assert abs(mpmath.mpf(lo) - ref) < mpmath.mpf(10) ** -25


def test_to_mpf_does_not_cancel():
    # (1+sqrt2)^-60 = A - B*sqrt(2), 1.1e-23, with A and B*sqrt(2) near 4.6e22:
    # the plain sum loses every one of 30 digits to cancellation
    x = (1 + R2) ** -60
    assert x.A * x.B < 0
    got = to_mpf(x, 30)
    with mpmath.workdps(100):
        ref = (mpmath.sqrt(2) - 1) ** 60
        assert abs(got - ref) < ref * mpmath.mpf(10) ** -28
        assert to_mpf(-x, 30) == -got


def test_hash_eq_contract():
    assert hash(quad(3, 0, 5)) == hash(3)
    assert hash(quad(F(1, 2), 0, 7)) == hash(F(1, 2))
    seen = {quad(1, 1, 2), quad(1, 1, 2), 1 + R2}
    assert len(seen) == 1


# ---------------------------------------------------------------------------
# the integer representation against the Fraction-backed reference
# ---------------------------------------------------------------------------

SQUAREFREE_D = [2, 3, 5, 6, 7, 10, 13, 17, 41, 65]
BIG = 1 << 200

integers = st.one_of(st.sampled_from([0, 1, -1, 2, -2]), st.integers(-BIG, BIG))
denominators = st.one_of(st.sampled_from([1, -1, 2, -3, 6]),
                         st.integers(1, BIG), st.integers(-BIG, -1))
rationals = st.builds(F, integers, denominators)


@st.composite
def element_pairs(draw):
    """(new, reference) pairs of one element; b = 0 about a third of the time."""
    d = draw(st.sampled_from(SQUAREFREE_D))
    a = draw(rationals)
    b = draw(st.one_of(st.just(F(0)), rationals, rationals))
    return QuadElem(a, b, d), oracles.QuadElem(a, b, d)


def _agree(new, old):
    """new is in normal form and is the element old, printed and hashed alike."""
    assert type(new) is QuadElem
    assert new.m > 0 and math.gcd(new.A, new.B, new.m) == 1
    assert (new.a, new.b, new.d) == (old.a, old.b, old.d)
    assert str(new) == str(old) and repr(new) == repr(old)
    assert hash(new) == hash(old)
    if old.b == 0:
        assert new == old.a and hash(new) == hash(old.a)


HASH_PRIME = sys.hash_info.modulus


@settings(max_examples=200)
@given(st.sampled_from(SQUAREFREE_D), rationals, st.one_of(st.just(F(0)), rationals),
       st.integers(1, BIG), rationals)
@example(2, F(1, 2), F(1, HASH_PRIME), 3, F(5, HASH_PRIME))  # no inverse modulo the prime
@example(3, F(HASH_PRIME, 7), F(0), HASH_PRIME, F(-1, 2 * HASH_PRIME))
def test_hash_from_the_integers_agrees_with_equality(d, a, b, k, q):
    x = QuadElem(a, b, d)
    y = QuadElem(a * k, b * k, d) / k  # the same element by another route
    assert x == y and hash(x) == hash(y)
    assert hash(x) == hash(oracles.QuadElem(a, b, d))
    assert hash(QuadElem(q, 0, d)) == hash(F(q)) == hash(quad(q, 0, d))
    if b == 0:
        assert hash(x) == hash(a)


def _both(op, *args):
    """op on the new elements and on the reference ones: same value or same error."""
    new = [x[0] if isinstance(x, tuple) else x for x in args]
    old = [x[1] if isinstance(x, tuple) else x for x in args]
    try:
        want = op(*old)
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            op(*new)
        return None
    got = op(*new)
    if isinstance(want, oracles.QuadElem):
        _agree(got, want)
    else:
        assert type(got) is type(want) and got == want
    return got


@settings(max_examples=300)
@given(element_pairs(), st.data())
def test_integer_elements_match_the_fraction_reference(xp, data):
    d = xp[0].d
    a = data.draw(rationals)
    b = data.draw(st.one_of(st.just(F(0)), rationals))
    yp = (QuadElem(a, b, d), oracles.QuadElem(a, b, d))
    r = data.draw(st.one_of(integers, rationals))
    e = data.draw(st.integers(-4, 4))
    _agree(*xp)
    _agree(*yp)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
               lambda x, y: x / y, lambda x, y: x < y, lambda x, y: x == y,
               lambda x, y: x >= y):
        _both(op, xp, yp)
        _both(op, xp, r)
        _both(op, r, xp)
    _both(lambda x: x ** e, xp)
    _both(lambda x: x.inverse(), xp)
    for unary in (lambda x: -x, abs, lambda x: x.conj(), lambda x: x.norm(),
                  lambda x: x.trace(), lambda x: x.floor(), lambda x: x.sign(),
                  lambda x: x.is_rational(), bool):
        _both(unary, xp)
    new, old = xp
    if old.b != 0:
        s = to_surd(new)
        assert (s.P, s.Q, s.D) == oracles.quad_to_surd(old)
        _agree(s.value(), old)
    with mpmath.workdps(120):
        exact = surd_value(old.a, old.b, d, 120)
        scale = abs(old.a) + abs(old.b) * mpmath.sqrt(d)
        for got in (to_mpf(new, 50), oracles.quad_to_mpf(old, 50)):
            assert abs(got - exact) <= scale * mpmath.mpf(10) ** -45


def test_elements_are_immutable_and_pickle():
    x = quad(F(1, 2), F(-3, 4), 5)
    for name in ("a", "b", "d", "A", "B", "m", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    with pytest.raises(AttributeError):
        del x.A
    assert (x.A, x.B, x.m, x.d) == (2, -3, 4, 5)
    y = pickle.loads(pickle.dumps(x))
    assert y == x and (y.A, y.B, y.m) == (2, -3, 4)
