"""Polynomials over Q and over Q(sqrt(d)): factoring, circles, degeneracy."""
import random
from fractions import Fraction as F

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfperiod import polyalg
from cfperiod.errors import InternalInvariantError, NotIrreducible, PreconditionViolated
from cfperiod.polyalg import (
    KPoly,
    RatPoly,
    _rational_roots,
    certified_root_boxes,
    circle_profile,
    factor_k,
    factor_q,
    nondegeneracy,
    power_poly,
    ratio_poly,
    root_integrality_flags,
)
from cfperiod.qfield import quad, sqrt_int
from cfperiod.recurrence import seq_min_charpoly

from curated import members
from oracles import (circle_counts, cyclotomic, cyclotomic_orders_by_factoring, factor_k_norm,
                     factor_q_qq, is_root_of_unity, offcircle_counts_numeric,
                     orders_with_totient_at_most_sieved, poly_roots, power_map_charpoly,
                     ratio_poly_zz, ratio_resultant_field, ratio_witness_orders_numeric,
                     rational_roots_divisors, resultant)

R2 = sqrt_int(2)
R5 = sqrt_int(5)
FIB = RatPoly([-1, -1, 1])  # x^2 - x - 1


def _prof(c):
    return (c.inside, c.on, c.outside)


def _rand_ratpoly(rng, deg, cmax=9):
    cs = [F(rng.randrange(-cmax, cmax + 1), rng.randrange(1, 4)) for _ in range(deg)]
    cs.append(F(rng.choice([1, -1]) * rng.randrange(1, cmax)))
    return RatPoly(cs)


def _rand_kpoly(rng, deg, d, cmax=6):
    cs = [quad(rng.randrange(-cmax, cmax + 1), rng.randrange(-2, 3), d) for _ in range(deg)]
    cs.append(quad(rng.choice([1, -1]), 0, d))
    return KPoly(cs, d)


# ---------------------------------------------------------------------------
# exact polynomial kernel
# ---------------------------------------------------------------------------

def test_ring_axioms_random():
    rng = random.Random(31)
    for _ in range(60):
        p = _rand_ratpoly(rng, rng.randrange(0, 5))
        q = _rand_ratpoly(rng, rng.randrange(0, 5))
        r = _rand_ratpoly(rng, rng.randrange(0, 5))
        assert p + q == q + p
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)
    for _ in range(40):
        p = _rand_kpoly(rng, rng.randrange(0, 4), 2)
        q = _rand_kpoly(rng, rng.randrange(0, 4), 2)
        assert p * q == q * p
        assert (p - q) + q == p


def test_divmod_invariant():
    rng = random.Random(32)
    for _ in range(80):
        p = _rand_ratpoly(rng, rng.randrange(0, 7))
        q = _rand_ratpoly(rng, rng.randrange(1, 4))
        quo, rem = divmod(p, q)
        assert quo * q + rem == p
        assert rem.is_zero or rem.degree < q.degree


def test_gcd_divides_both():
    rng = random.Random(33)
    for _ in range(50):
        g = _rand_ratpoly(rng, rng.randrange(1, 3))
        p = g * _rand_ratpoly(rng, rng.randrange(0, 3))
        q = g * _rand_ratpoly(rng, rng.randrange(0, 3))
        h = p.gcd(q)
        assert (p % h).is_zero and (q % h).is_zero
        assert h.degree >= g.degree


def test_resultant_magnitude_against_sympy():
    # the reference resultant behind the ratio and power oracles;
    # |Res(p, q)| is convention-free, the sign is pinned separately below
    rng = random.Random(34)
    x = sympy.symbols("x")
    for _ in range(40):
        p = _rand_ratpoly(rng, rng.randrange(1, 5))
        q = _rand_ratpoly(rng, rng.randrange(1, 5))
        mine = resultant(p, q)
        sp = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(p.coeffs))
        sq = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(q.coeffs))
        ref = F(*sympy.resultant(sympy.Poly(sp, x), sympy.Poly(sq, x)).as_numer_denom())
        assert abs(mine) == abs(ref)
        assert (mine == 0) == (p.gcd(q).degree > 0)


def test_resultant_root_product_convention():
    # Res(p, q) = lc(p)^deg(q) * prod q(alpha) over the roots alpha of p
    rng = random.Random(36)
    for _ in range(25):
        p = _rand_ratpoly(rng, rng.randrange(1, 4))
        q = _rand_ratpoly(rng, rng.randrange(1, 4))
        mine = resultant(p, q)
        with mpmath.workdps(80):
            acc = mpmath.mpmathify(p.lc) ** q.degree
            for alpha in poly_roots(p.coeffs, dps=80):
                acc *= sum(mpmath.mpmathify(c) * alpha**i for i, c in enumerate(q.coeffs))
            assert abs(acc - mpmath.mpmathify(mine)) < mpmath.mpf("1e-40") * (1 + abs(acc))


def test_eval_compose_consistency():
    rng = random.Random(35)
    for _ in range(40):
        p = _rand_ratpoly(rng, 3)
        q = _rand_ratpoly(rng, 2)
        t = F(rng.randrange(-5, 6), rng.randrange(1, 4))
        assert p.compose(q).eval(t) == p.eval(q.eval(t))


def test_sturm_count_real_roots():
    # (x-1)(x-2)(x-3) has exactly 3 real roots, 2 of them below 2.5
    p = RatPoly.from_roots([F(1), F(2), F(3)])
    assert p.sturm_count(F(0), F(4)) == 3
    assert p.sturm_count(F(0), F(5, 2)) == 2
    assert RatPoly([1, 0, 1]).sturm_count(F(-10), F(10)) == 0


# ---------------------------------------------------------------------------
# factoring over Q
# ---------------------------------------------------------------------------

def test_factor_q_pinned():
    f = factor_q(FIB)
    assert f.unit == 1 and f.factors == ((FIB, 1),)
    f = factor_q(RatPoly([-1, 0, 4, -4, 1]))
    assert f.factors == ((RatPoly([-1, 1]), 2), (RatPoly([-1, -2, 1]), 1))
    f = factor_q(RatPoly([6, 0, -5, 0, 1]))  # (x^2-2)(x^2-3)
    got = {p for p, _ in f.factors}
    assert got == {RatPoly([-2, 0, 1]), RatPoly([-3, 0, 1])}


def test_factor_q_multiply_back_random():
    rng = random.Random(41)
    for _ in range(40):
        parts = [_rand_ratpoly(rng, rng.randrange(1, 4)) for _ in range(rng.randrange(1, 4))]
        p = parts[0]
        for q in parts[1:]:
            p = p * q
        f = factor_q(p)
        back = RatPoly([f.unit])
        for q, m in f.factors:
            assert q.lc == 1
            back = back * q**m
        assert back == p


# ---------------------------------------------------------------------------
# factoring over K
# ---------------------------------------------------------------------------

def test_factor_k_pinned():
    f = factor_k(KPoly([-2, 0, 1], 2))
    assert f.factors == ((KPoly([-R2, 1], 2), 1), (KPoly([R2, 1], 2), 1))
    f = factor_k(KPoly([-1, -1, 1], 5))
    phi = quad(F(1, 2), F(1, 2), 5)
    assert {p for p, _ in f.factors} == {KPoly([-phi, 1], 5), KPoly([-conj_root(phi), 1], 5)}
    # stays irreducible when sqrt(3) is not in Q(sqrt(2))
    f = factor_k(KPoly([-3, 0, 1], 2))
    assert f.factors == ((KPoly([-3, 0, 1], 2), 1),)


def conj_root(x):
    from cfperiod.qfield import conj

    return conj(x)


def test_factor_k_multiply_back_random():
    rng = random.Random(42)
    for d in (2, 5):
        for _ in range(30):
            parts = [_rand_kpoly(rng, rng.randrange(1, 4), d) for _ in range(rng.randrange(1, 4))]
            p = parts[0]
            for q in parts[1:]:
                p = p * q
            f = factor_k(p)
            back = KPoly([f.unit], d)
            for q, m in f.factors:
                assert q.lc == 1
                back = back * q**m
            assert back == p


def test_factoring_has_no_degree_cap():
    # the degree budget belongs to classify; the factoring routines take any
    # degree and certify the result by multiplying back
    p = RatPoly([1] + [0] * 24 + [1])  # x^25 + 1
    f = factor_q(p)
    back = RatPoly([f.unit])
    for q, m in f.factors:
        back = back * q**m
    assert back == p and len(f.factors) == 3  # Phi_2 Phi_10 Phi_50
    p = KPoly([1] + [0] * 12 + [1], 2)  # x^13 + 1 over Q(sqrt 2)
    f = factor_k(p)
    back = KPoly([f.unit], 2)
    for q, m in f.factors:
        back = back * q**m
    assert back == p and f.distinct() == [KPoly([1, 1], 2), cyclotomic(26).lift(2)]


def test_rational_roots_in_lowest_terms():
    p = RatPoly.from_roots([F(2, 3), F(-1, 2), F(4), F(0)]) * RatPoly([1, 0, 3])
    assert sorted(_rational_roots(p)) == [F(-1, 2), F(0), F(2, 3), F(4)]
    assert _rational_roots(RatPoly([-2, 0, 9])) == []  # +-sqrt(2)/3


@st.composite
def rational_root_polys(draw):
    """Products of linear factors with rational roots (some repeated, some
    zero) and an integer cofactor, scaled by a rational content."""
    p = RatPoly([draw(st.fractions(min_value=F(1, 4), max_value=6, max_denominator=4))])
    for _ in range(draw(st.integers(0, 3))):
        root = F(draw(st.integers(-60, 60)), draw(st.integers(1, 6)))
        p = p * RatPoly([-root, 1]) ** draw(st.integers(1, 2))
    deg = draw(st.integers(0, 3))
    cofactor = [draw(st.integers(-20, 20)) for _ in range(deg)] + [draw(st.integers(1, 5))]
    return p * RatPoly(cofactor)


@settings(max_examples=150, deadline=None)
@given(rational_root_polys())
@example(RatPoly([-1, 0, 1]) ** 2 * RatPoly([0, 0, 1]))  # repeated roots +-1, 0
@example(RatPoly([F(-1, 3), F(1, 6), F(1, 2)]))  # (3x - 2)(x + 1)/6
def test_rational_roots_match_divisor_enumeration(p):
    assert sorted(_rational_roots(p)) == sorted(set(rational_roots_divisors(p)))


def test_rational_roots_factor_no_integer(monkeypatch):
    def refuse(n, *args, **kwargs):
        raise AssertionError(f"divisors({n}) called")

    monkeypatch.setattr(sympy, "divisors", refuse)
    p, q = sympy.nextprime(10**18), sympy.nextprime(2 * 10**18)
    f = RatPoly([p * q, 1, 0, 0, 1])  # x^4 + x + pq, irreducible over Q
    assert factor_q(f).factors == ((f, 1),)
    g = RatPoly.from_roots([F(10**20 + 3, 7), F(-5, 6), F(-5, 6)]) * RatPoly([1, 0, 1])
    assert sorted(_rational_roots(g)) == [F(-5, 6), F(10**20 + 3, 7)]


def test_factor_q_certifies_the_integer_route(monkeypatch):
    p = RatPoly([F(-1, 3), F(1, 6), F(1, 2)])  # (3x - 2)(x + 1)/6: roots 2/3, -1
    assert factor_q(p).factors == ((RatPoly([F(-2, 3), 1]), 1), (RatPoly([1, 1]), 1))
    prim = RatPoly.primitive_integer_coeffs
    with monkeypatch.context() as m:  # a primitive form that is not p's
        m.setattr(RatPoly, "primitive_integer_coeffs", lambda q: (1,) + prim(q)[1:])
        with pytest.raises(InternalInvariantError, match="scale-back"):
            factor_q(p)
    with monkeypatch.context() as m:  # factors that do not multiply back
        m.setattr(polyalg, "_zz_factor", lambda ints: (1, [([3, -2], 1), ([1, 2], 1)]))
        with pytest.raises(InternalInvariantError, match="multiply-back"):
            factor_q(p)
    with monkeypatch.context() as m:  # a reducible quadratic returned whole
        m.setattr(polyalg, "_zz_factor", lambda ints: (1, [(ints, 1)]))
        with pytest.raises(NotIrreducible):
            factor_q(p)


@st.composite
def rational_products(draw):
    """Products of rational polynomials with repeated factors, non-monic
    rational coefficients and zero roots."""
    small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    p = RatPoly([draw(st.fractions(min_value=F(1, 3), max_value=5, max_denominator=3))
                 * draw(st.sampled_from([1, -1]))])
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(1, 4))
        f = RatPoly([draw(small) for _ in range(deg)] + [draw(st.sampled_from([1, 2, F(1, 2), -3]))])
        p = p * f ** draw(st.integers(1, 3))
    return p * RatPoly([0, 1]) ** draw(st.integers(0, 2))


@settings(max_examples=80, deadline=None)
@given(rational_products())
@example(RatPoly([0, 0, -2, 0, 1]) * RatPoly([F(1, 2), 3]) ** 2)
def test_factor_q_matches_sympy_over_qq(p):
    assert factor_q(p) == factor_q_qq(p)


SPLITTING_D = (2, 3, 5, 6, 7, 10)


@st.composite
def rational_k_products(draw):
    """Rational KPolys over Q(sqrt(d)): products that include quadratics
    (x-a)^2 - d b^2, which split over Q(sqrt(d)), and quartics
    (x^2 + a)^2 - 4 d b^2 x^2, the norms of x^2 - 2 b sqrt(d) x + a, mostly
    irreducible over Q."""
    d = draw(st.sampled_from(SPLITTING_D))
    small = st.integers(-3, 3)
    p = RatPoly([draw(st.sampled_from([1, -2, F(3, 2)]))])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["split2", "any", "split4"]))
        a, b = draw(small), draw(st.integers(1, 2))
        if kind == "split2":
            f = RatPoly([a * a - d * b * b, -2 * a, 1])
        elif kind == "split4":
            f = RatPoly([a * a, 0, 2 * a - 4 * d * b * b, 0, 1])
        else:
            f = RatPoly([draw(small) for _ in range(draw(st.integers(1, 5)))] + [1])
        p = p * f ** draw(st.integers(1, 2))
    return p.lift(d)


@settings(max_examples=60, deadline=None)
@given(rational_k_products())
@example(RatPoly([-2, 0, 1]).lift(3) ** 2 * KPoly([3, 1], 3))
@example(RatPoly([1, 0, -10, 0, 1]).lift(2))
@example(KPoly([-2, 0, 1], 2).scale(R2))  # irrational unit, rational monic part
def test_factor_k_rational_route_matches_the_norm_descent(p):
    assert factor_k(p) == factor_k_norm(p)


X4 = RatPoly([1, 0, -10, 0, 1])  # x^4 - 10 x^2 + 1, roots +-sqrt(2) +-sqrt(3)


@pytest.mark.parametrize("p, d, degrees", [
    (X4, 2, [2, 2]), (X4, 3, [2, 2]), (X4, 6, [2, 2]), (X4, 5, [4]),
    (RatPoly([-1, -2, 1]), 2, [1, 1]), (RatPoly([-1, -2, 1]), 3, [2]),
    (RatPoly([-2, 0, 0, 1]), 2, [3]), (RatPoly([-2, 0, 0, 1]), 5, [3]),
])
def test_factor_k_of_rational_pinned(p, d, degrees):
    f = factor_k(p.lift(d))
    assert [g.degree for g in f.distinct()] == degrees
    assert all(m == 1 for _g, m in f.factors)
    if len(degrees) == 2:  # the two factors are conjugate
        g, h = f.distinct()
        assert g.conj() == h and g != h


def test_factor_k_of_rational_keeps_multiplicities():
    # (x^2 - 2)^2 (x + 3) over Q(sqrt 2)
    f = factor_k(RatPoly([-2, 0, 1]).lift(2) ** 2 * KPoly([3, 1], 2))
    assert f.unit == 1
    assert f.factors == ((KPoly([-R2, 1], 2), 2), (KPoly([R2, 1], 2), 2),
                         (KPoly([3, 1], 2), 1))


# ---------------------------------------------------------------------------
# integrality flags
# ---------------------------------------------------------------------------

def test_root_integrality_flags():
    assert root_integrality_flags(RatPoly([1, -6, 1])) == (True, True, True)
    assert root_integrality_flags(RatPoly([-2, 1])) == (True, False, False)
    assert root_integrality_flags(RatPoly([-1, 2])) == (False, True, False)
    assert root_integrality_flags(FIB) == (True, True, True)
    # read off the primitive integer form x^2 - 6x + 1, not the monic one
    assert root_integrality_flags(RatPoly([F(1, 3), -2, F(1, 3)])) == (True, True, True)


# ---------------------------------------------------------------------------
# roots of unity and cyclotomics
# ---------------------------------------------------------------------------

def test_cyclotomic_product_identity():
    for n in (1, 2, 6, 12, 15, 20):
        prod = RatPoly([1])
        for k in range(1, n + 1):
            if n % k == 0:
                prod = prod * cyclotomic(k)
        want = RatPoly([-1] + [0] * (n - 1) + [1])
        assert prod == want


def test_totient_sieve_matches_sympy():
    from cfperiod.polyalg import _orders_with_totient_at_most
    from oracles import totient_sieve

    phi = totient_sieve(5000)
    assert phi[1:] == [int(sympy.totient(n)) for n in range(1, 5001)]
    for bound in (1, 2, 6, 12):
        want = [(n, int(sympy.totient(n))) for n in range(1, 2 * bound * bound + 3)
                if sympy.totient(n) <= bound]
        assert list(_orders_with_totient_at_most(bound)) == want


def test_totient_orders_match_the_sieve():
    # the prime-power enumeration against one sieve up to 2 * 300^2 + 2
    sieved = orders_with_totient_at_most_sieved(300)
    for bound in range(1, 301):
        want = [(n, t) for n, t in sieved if t <= bound]
        assert list(polyalg._orders_with_totient_at_most(bound)) == want, bound


def test_is_root_of_unity_rejects_non_integral_candidates():
    # not monic over Z, or constant term other than +-1: no Phi_n at all
    assert is_root_of_unity(RatPoly([1, 0, 2])) == (False, None)
    assert is_root_of_unity(RatPoly([F(1, 2), 1])) == (False, None)
    assert is_root_of_unity(RatPoly([2, 1, 1])) == (False, None)
    assert is_root_of_unity(RatPoly([2, 2, 2])) == (True, 3)  # 2 * Phi_3


def test_is_root_of_unity():
    assert is_root_of_unity(RatPoly([-1, 1])) == (True, 1)
    assert is_root_of_unity(RatPoly([1, 1])) == (True, 2)
    assert is_root_of_unity(RatPoly([1, 0, 1])) == (True, 4)
    assert is_root_of_unity(cyclotomic(12)) == (True, 12)
    assert is_root_of_unity(FIB) == (False, None)
    assert is_root_of_unity(RatPoly([-1, 0, 0, 1])) == (False, None)  # reducible
    assert is_root_of_unity(RatPoly([1, -1, 1]))[0]  # Phi_6


def test_integer_cyclotomics_match_the_fraction_recursion():
    for n in range(1, 201):
        assert RatPoly(polyalg._cyclotomic_ints(n)) == cyclotomic(n), n


def test_order_n_residues_modulo_primes():
    for n in range(1, 301):
        p, w = polyalg._root_of_unity_mod_prime(n)
        assert sympy.isprime(p) and (p - 1) % n == 0
        assert sympy.n_order(w, p) == n


# Lehmer's polynomial: self-reciprocal, constant term 1, no root of unity
LEHMER = RatPoly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])


@st.composite
def cyclotomic_products(draw):
    """scale * prod Phi_n^mult * prod g: orders n <= 60 (cyclotomic degree at
    most 64, so the factoring oracle stays quick), some repeated, and factors
    g that are random over Z (with end coefficients +-1 or not) or Lehmer's."""
    r = RatPoly([F(draw(st.sampled_from([1, -1, 2, -3, 5])), draw(st.integers(1, 12)))])
    budget = 64
    for n in draw(st.lists(st.integers(1, 60), max_size=4)):
        mult = draw(st.integers(1, 2))
        if int(sympy.totient(n)) * mult <= budget:
            budget -= int(sympy.totient(n)) * mult
            r = r * cyclotomic(n) ** mult
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["unit", "any", "lehmer"]))
        if kind == "lehmer":
            r = r * LEHMER
            continue
        ends = st.sampled_from([1, -1]) if kind == "unit" else st.integers(-9, 9).filter(bool)
        deg = draw(st.integers(1, 6))
        r = r * RatPoly([draw(ends)] + [draw(st.integers(-4, 4)) for _ in range(deg - 1)]
                        + [draw(ends)])
    return r


@settings(max_examples=60, deadline=None)
@given(cyclotomic_products())
@example(cyclotomic(7))                                  # phi(n) = deg r exactly
@example(cyclotomic(59).scale(F(-3, 4)))
@example(LEHMER * cyclotomic(1) * cyclotomic(12) ** 2)
@example(LEHMER * RatPoly([1, 1, 1, 1, 1, 1]))           # 1 + x + ... + x^5 = Phi_2 Phi_3 Phi_6
@example(RatPoly([-1, 0, 1]) * RatPoly([2, 0, 1]))
def test_cyclotomic_orders_match_factoring(r):
    if r.degree < 1:
        return
    assert polyalg._cyclotomic_orders(r) == cyclotomic_orders_by_factoring(r)


def test_witness_orders_refuse_a_shared_root(monkeypatch):
    # a broken factorization whose two "irreducible" factors share sqrt(2):
    # their ratio polynomial has the root 1
    f1 = RatPoly([-2, 0, 1])
    f2 = f1 * RatPoly([-3, 1])
    monkeypatch.setattr(polyalg, "factor_q",
                        lambda p: polyalg.Factorization(F(1), ((f1, 1), (f2, 1))))
    with pytest.raises(InternalInvariantError, match="share a root"):
        nondegeneracy(f1 * f2, over="Q")


def test_ratio_poly_contains_all_ratios():
    rng = random.Random(55)
    for _ in range(20):
        p = _rand_ratpoly(rng, rng.randrange(1, 4))
        q = _rand_ratpoly(rng, rng.randrange(1, 3))
        p = p.squarefree_part()
        q = q.squarefree_part()
        if abs(q.constant_term()) < F(1, 1000) or abs(p.constant_term()) < F(1, 1000):
            continue
        r = ratio_poly(p, q)
        with mpmath.workdps(60):
            rroots = poly_roots(r.coeffs, dps=60)
            for za in poly_roots(p.coeffs, dps=60):
                for zb in poly_roots(q.coeffs, dps=60):
                    ratio = za / zb
                    err = min(abs(ratio - w) for w in rroots)
                    assert err < mpmath.mpf("1e-20") * (1 + abs(ratio))


@st.composite
def rational_ratio_pairs(draw):
    """(p, q) over Q of degrees 1-5 with integer coefficients, q without a
    zero root; a third of the time p is q itself."""
    nonzero = st.sampled_from([-3, -2, -1, 1, 2, 3])

    def poly(constant):
        deg = draw(st.integers(1, 5))
        return RatPoly([draw(constant)] + [draw(st.integers(-3, 3)) for _ in range(deg - 1)]
                       + [draw(nonzero)])

    q = poly(nonzero)
    if draw(st.integers(0, 2)) == 0:
        return q, q
    return poly(st.integers(-3, 3)), q


@settings(max_examples=80)
@given(rational_ratio_pairs())
@example((FIB, FIB))
@example((cyclotomic(12), cyclotomic(12)))
@example((RatPoly([0, 1]), RatPoly([2, 1])))
def test_ratio_poly_matches_the_integer_resultant(pair):
    p, q = pair
    r = ratio_poly(p, q)
    assert r.lc == 1 and r.degree == p.degree * q.degree
    assert RatPoly(r.primitive_integer_coeffs()) == ratio_poly_zz(p, q)


# ---------------------------------------------------------------------------
# circle profiles, root boxes, degeneracy
# ---------------------------------------------------------------------------

def test_circle_profile_pinned():
    assert _prof(circle_profile(FIB)) == (1, 0, 1)
    assert _prof(circle_profile(cyclotomic(12))) == (0, 4, 0)
    assert _prof(circle_profile(KPoly([1, -R2, 1], 2))) == (0, 2, 0)
    assert _prof(circle_profile(KPoly([-(3 + 2 * R2), 1], 2))) == (0, 0, 1)
    assert _prof(circle_profile(RatPoly([-2, 1]) * RatPoly([-1, 2]))) == (1, 0, 1)


NEAR = F(1, 10 ** 20)


@pytest.mark.parametrize("p, profile", [
    (RatPoly([-1, 3, 1]), (1, 0, 1)),                 # Schur-Cohn matrix [[0, -6], [-6, 0]]
    (RatPoly([-1, -1, 0, 1]), (2, 0, 1)),             # x^3 - x - 1: the plastic number outside
    (RatPoly([-1 - F(1, 10 ** 60), 0, 0, 1]), (0, 0, 3)),  # |roots| - 1 is about 3e-61
    (RatPoly([1 + NEAR, 1, 1]), (0, 0, 2)),            # x^2 + x + 1 + 1e-20
    (RatPoly([1 - NEAR, 1, 1]), (2, 0, 0)),
    (FIB, (1, 0, 1)),                                 # unit polynomials: constant term +-1
    (RatPoly([-1, -2, 1]), (1, 0, 1)),
    (RatPoly([1, 1, 0, 0, 1]), (2, 0, 2)),            # x^4 + x + 1
    (RatPoly([-1, 0, 1, 1]), (1, 0, 2)),              # x^3 + x^2 - 1, reverse of x^3 - x - 1
    (RatPoly([-1, 0, 0, 0, -1, 1]), (2, 2, 1)),       # x^5 - x^4 - 1 = Phi_6 (x^3 - x - 1)
    (RatPoly([-1, -1, 1]).lift(2), (1, 0, 1)),
    (KPoly([-1, -R2, 1], 2), (1, 0, 1)),              # roots (sqrt 2 +- sqrt 6) / 2
    (KPoly([1 + R2, 1, 1], 2), (0, 0, 2)),
    (KPoly([1 - R2, 1, 1], 2), (1, 0, 1)),            # its conjugate
])
def test_offcircle_counts_pinned(p, profile):
    assert _prof(circle_profile(p)) == profile


def test_schur_cohn_zero_diagonal_takes_a_two_by_two_pivot():
    assert polyalg._inertia([[F(0), F(-6)], [F(-6), F(0)]]) == (1, 1)
    assert polyalg._inertia([[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(-2)]]) == (2, 1)


@pytest.mark.parametrize("p", [RatPoly([1, -3, 1]), RatPoly([1, 1, 1]), KPoly([1, -R2, 1], 2)])
def test_schur_cohn_refuses_a_self_reciprocal_factor(p):
    # p and its reverse share every root, so the matrix is singular
    with pytest.raises(InternalInvariantError, match="singular"):
        polyalg._offcircle_counts(p)


@st.composite
def offcircle_factors(draw):
    """An irreducible, non-self-reciprocal factor over Q (degree 2-8, half of
    them with end coefficients +-1) or over K = Q(sqrt(d)), d in {2, 3, 5}
    (degree 1-4), with its conjugate, the factor in the other embedding."""
    field = draw(st.sampled_from([None, 2, 3, 5]))
    while True:
        if field is None:
            deg = draw(st.integers(2, 8))
            ends = (st.sampled_from([1, -1]) if draw(st.booleans())
                    else st.integers(-9, 9).filter(bool))
            p = RatPoly([draw(ends)] + [draw(st.integers(-5, 5)) for _ in range(deg - 1)]
                        + [draw(ends)])
            factors = factor_q(p).distinct()
        else:
            deg = draw(st.integers(1, 4))
            p = KPoly([quad(draw(st.integers(-4, 4)), draw(st.integers(-2, 2)), field)
                       for _ in range(deg)] + [1], field)
            factors = factor_k(p).distinct()
        factors = [f for f in factors if not polyalg._self_reciprocal(f)]
        if factors:
            f = draw(st.sampled_from(factors))
            return [f] if field is None else [f, f.conj()]


@settings(max_examples=80, deadline=None)
@given(offcircle_factors())
@example([RatPoly([-1, 3, 1])])
@example([RatPoly([1 + NEAR, 1, 1])])
@example([KPoly([1 + R2, 1, 1], 2), KPoly([1 - R2, 1, 1], 2)])
def test_schur_cohn_matches_the_numeric_route(factors):
    for f in factors:
        assert polyalg._offcircle_counts(f) == offcircle_counts_numeric(f)


def test_certified_root_boxes_contain_true_roots():
    p = FIB * RatPoly([-2, 1]) * cyclotomic(4)
    boxes = certified_root_boxes(p)
    refs = poly_roots(p.coeffs, dps=80)
    assert len(boxes) == p.degree
    with mpmath.workdps(100):
        for ref in refs:
            hit = any(
                abs(mpmath.mpc(z) - mpmath.mpc(ref)) <= mpmath.mpf(r) + mpmath.mpf("1e-30")
                for z, r in boxes
            )
            assert hit


def test_nondegeneracy_pinned():
    assert nondegeneracy(FIB) == (True, [])
    ok, wit = nondegeneracy(RatPoly([-1, 1, -1, 1]))  # (x^2+1)(x-1)
    assert not ok and wit == [2, 4]
    ok, wit = nondegeneracy(KPoly([-R2, 1], 2), over="Q")
    assert not ok and wit == [2]
    assert nondegeneracy(KPoly([-R2, 1], 2))[0]  # single root, base level
    assert nondegeneracy(RatPoly([2, -3, 1]))[0]  # ratio 2 not a root of unity
    with pytest.raises(PreconditionViolated):
        nondegeneracy(FIB, over="galois")


def test_nondegeneracy_ignores_zero_roots():
    # x(x + sqrt2): the zero root forms no ratio at all
    assert nondegeneracy(KPoly([0, R2, 1], 2)) == (True, [])
    # x(x-1)(x+1): the +-1 pair still witnesses order 2
    ok, wit = nondegeneracy(RatPoly([0, -1, 0, 1]))
    assert not ok and wit == [2]
    assert nondegeneracy(RatPoly([0, 0, 1])) == (True, [])  # x^2 alone


# over-Q witness orders of the curated members' minimal polynomials, pinned
CURATED_WITNESSES = {
    "fibonacci": [], "n+sqrt5": [], "(1+sqrt2)^n": [], "(3+sqrt2)^n": [],
    "sqrt5*2^n": [], "n^2*sqrt5": [], "sqrt2^n+(1+sqrt2)^n": [2],
    "(-1)^n*(2+sqrt2)": [], "(5/2)^n+(-1)^n*sqrt2": [], "sqrt2*osc_n": [],
    "((1+sqrt2)/8)^n": [], "(2+sqrt2)^n": [], "(1+sqrt2)^n+(3/2)^n": [],
    "(2+sqrt3)^n+(2/3)^n": [],
}


def test_nondegeneracy_curated_witnesses_pinned():
    got = {}
    for name, r, _verdict, _step in members():
        p = seq_min_charpoly(r)
        got[name] = nondegeneracy(p, over="Q")[1]
        assert nondegeneracy(p, over="baseK") == (True, [])
    assert got == CURATED_WITNESSES


@st.composite
def chosen_root_polys(draw):
    """Squarefree K- or Q-polynomials assembled from chosen roots.

    Blocks: one root alpha; a forced pair alpha, -alpha; alpha with
    zeta_3 * alpha and zeta_3^2 * alpha (x^2 + alpha x + alpha^2); over K
    only, alpha with zeta * alpha and alpha / zeta, where zeta + 1/zeta = t
    lies in K and zeta has order n = 8, 12 or 5 for d = 2, 3 or 5 (Phi_n
    splits over K, so the ratio polynomial has irrational coefficients); the
    conjugates +-c*sqrt(d) (over K the root c*sqrt(d) alone, its conjugate
    joins at the Q level); a zero root.  Every root is a real number times a
    root of unity, so a ratio of modulus 1 is a root of unity and the
    numeric oracle's angle test is exact on it.
    """
    d = draw(st.sampled_from([2, 3, 5]))
    rational = draw(st.booleans())
    x = KPoly.x(d)
    sqrt_d = quad(0, 1, d)

    def elem():
        a = draw(st.integers(-3, 3))
        return quad(a, 0 if rational else draw(st.integers(-2, 2)), d)

    p = KPoly([1], d)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["root", "neg", "zeta3", "conj", "zero"]
                                    + ([] if rational else ["split"])))
        if kind == "root":
            p = p * (x - elem())
        elif kind == "neg":
            a = elem()
            p = p * (x - a) * (x + a)
        elif kind == "zeta3":
            a = elem()
            p = p * (x - a) * (x * x + x.scale(a) + a * a)
        elif kind == "split":
            a = elem()
            t = {2: sqrt_d, 3: sqrt_d, 5: (sqrt_d - 1) / 2}[d]
            p = p * (x - a) * (x * x - x.scale(t * a) + a * a)
        elif kind == "conj":
            c = draw(st.sampled_from([1, -1, 2]))
            p = p * (x * x - c * c * d if rational else x - sqrt_d * c)
        else:
            p = p * x
    p = p.squarefree_part()
    return p.to_ratpoly() if rational else p


def _coeff_pairs(p):
    if isinstance(p, RatPoly):
        return 2, [(c, F(0)) for c in p.coeffs]
    return p.d, [(c.a, c.b) for c in p.coeffs]


@settings(max_examples=100)
@given(chosen_root_polys())
@example(KPoly([-(1 + R2), 1], 2) * KPoly([1 + R2, 1], 2))          # alpha, -alpha
@example(KPoly([-R5, 1], 5) * KPoly([5, R5, 1], 5))                  # alpha, zeta_3 alpha
@example(KPoly([-R2, 1], 2))                                         # +-sqrt(2) over Q
@example(RatPoly([-3, 0, 1]))                                        # +-sqrt(3)
@example(KPoly([0, -R5, 1], 5) * KPoly([2, 1], 5))                   # zero root
@example(RatPoly([0, 1, 1, 1]))                                      # x(x^2 + x + 1)
@example(KPoly([-1, 1], 2) * KPoly([1, -R2, 1], 2))                  # 1, zeta_8^(+-1)
@example(KPoly([-1, 1], 5) * KPoly([1, (1 - R5) / 2, 1], 5))         # 1, zeta_5^(+-1)
def test_nondegeneracy_over_q_matches_numeric_witnesses(p):
    d, pairs = _coeff_pairs(p)
    ok, orders = nondegeneracy(p, over="Q")
    assert orders == ratio_witness_orders_numeric(pairs, d, True, 60)
    assert ok == (not orders)
    if isinstance(p, KPoly):
        # base level: the pool holds the roots of p only
        ok, orders = nondegeneracy(p, over="baseK")
        assert orders == ratio_witness_orders_numeric(pairs, d, False, 60)
        assert ok == (not orders)


@st.composite
def resultant_pairs(draw):
    """(f, g) over Q(sqrt d), d in {2, 3, 5}, of degrees 1-4: f monic, g with
    no zero root; half the time both are rational polynomials lifted to K."""
    d = draw(st.sampled_from([2, 3, 5]))
    rational = draw(st.booleans())
    nonzero = st.sampled_from([-3, -2, -1, 1, 2, 3])

    def poly(monic):
        deg = draw(st.integers(1, 4))
        a = ([draw(nonzero)] + [draw(st.integers(-3, 3)) for _ in range(deg - 1)]
             + [1 if monic else draw(nonzero)])
        if rational:
            return RatPoly(a).lift(d)
        b = [draw(st.integers(-2, 2)) for _ in range(deg)] + [0 if monic else draw(nonzero)]
        return KPoly([quad(x, y, d) for x, y in zip(a, b)], d)

    return poly(True), poly(False)


@settings(max_examples=60)
@given(resultant_pairs(), st.integers(1, 6))
def test_ratio_and_power_poly_match_the_separate_loops(pair, power):
    f, g = pair
    # root ratios: Res_y(g(y), f(x*y)) over K, made monic
    assert ratio_poly(f, g) == ratio_resultant_field(f, g).monic()
    # power map: Res_y(f(y), y^power - x) for monic f
    assert power_poly(f, power) == power_map_charpoly(f, power)
