"""Polynomials over Q and over Q(sqrt(d)): factoring, circles, degeneracy."""
import math
import random
from fractions import Fraction as F

import mpmath
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cfperiod import memo, modp, polyalg, qfield
from cfperiod.errors import InternalInvariantError, NotIrreducible, PreconditionViolated
from cfperiod.polyalg import (
    KPoly,
    _rational_roots,
    circle_profile,
    factor_k,
    factor_q,
    root_integrality_flags,
    witness_orders,
)
from cfperiod.places import certified_root_boxes
from cfperiod.qfield import quad
from cfperiod.recurrence import seq_min_charpoly

from curated import members
from oracles import (ElemKPoly, RatPoly, certify_irreducible_q_fraction, circle_counts, cyclotomic,
                     cyclotomic_orders_by_factoring, euclid_gcd, factor_k_norm,
                     factor_q_monic, factor_q_qq, from_roots, is_root_of_unity,
                     newton_power_poly, newton_ratio_poly, offcircle_counts_numeric,
                     orders_with_totient_at_most_sieved, poly_roots,
                     power_map_charpoly, power_poly, ratio_poly, ratio_poly_zz,
                     ratio_resultant_field, ratio_witness_orders_numeric,
                     rational_roots_divisors, resultant, sqrt_int, squarefree_part,
                     to_ratpoly, witness_orders_by_ratio_poly)

R2 = sqrt_int(2)
R5 = sqrt_int(5)
FIB = RatPoly([-1, -1, 1])  # x^2 - x - 1


def _prof(c):
    return (c.inside, c.on, c.outside)


def _ratio_over_q(p, q):
    """The degeneracy test's integer ratio polynomial of two RatPolys, read
    back monic."""
    r = polyalg._zz_ratio_poly(p.primitive_integer_coeffs(), q.primitive_integer_coeffs())
    return RatPoly([F(c, r[-1]) for c in r])


def _ratio_over_k(f, g):
    """The degeneracy test's integer ratio polynomial of two KPolys: the
    numerator and the denominator forms witness_orders builds."""
    den = polyalg._zz_sqrt_d_form(g.reverse())
    return polyalg._zz_ratio_poly(polyalg._zz_sqrt_d_form(f), (den[0][::-1], den[1][::-1]), f.d)


def _power_over_q(q, f):
    """The power polynomial q of f read over Q as the integer route builds
    it, on N = f * conj(f): the form of q * conj(q) when f is irrational."""
    return list(polyalg._over_q(q if f.is_rational() else q * q.conj()))


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


def test_power_forms_only_the_products_it_uses(monkeypatch):
    # square and multiply from the top bit: f ** e squares once per bit below
    # the leading one and multiplies once per set bit among them, with no
    # product by the unit and no square after the last bit
    f = KPoly([quad(1, 1, 2), 3, quad(0, -1, 2)], 2)
    products, mul = [], KPoly.__mul__
    monkeypatch.setattr(KPoly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    for e, count in [(0, 0), (1, 0), (2, 1), (5, 3), (8, 3), (13, 5)]:
        products.clear()
        got = f ** e
        assert len(products) == count, e
        want = KPoly([1], 2)
        for _ in range(e):
            want = mul(want, f)
        assert got == want, e
    assert f ** 0 == KPoly([1], 2) and f ** 1 == f
    with pytest.raises(ValueError, match="negative"):
        f ** -1


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
        h = RatPoly(polyalg._zz_gcd_certified(p.primitive_integer_coeffs(),
                                              q.primitive_integer_coeffs())[0])
        assert (p % h).is_zero and (q % h).is_zero
        assert h.degree >= g.degree


def _zz_times(*polys):
    out = [1]
    for p in polys:
        out = [sum(out[j] * p[i - j] for j in range(len(out)) if 0 <= i - j < len(p))
               for i in range(len(out) + len(p) - 1)]
    return out


@st.composite
def integer_gcd_pairs(draw):
    """(f, g) over Z, low-to-high: a shared factor (1 for a coprime pair),
    possibly squared, times two cofactors with non-monic leading
    coefficients up to 2^200 and contents up to 12 or 2^100, f possibly
    times x (a zero constant term) and either possibly with zero top
    coefficients."""
    coeff = st.integers(-9, 9) | st.integers(-2**200, 2**200)
    content = st.integers(1, 12) | st.integers(1, 2**100)

    def poly(max_deg):
        lead = draw(st.integers(1, 9) | st.integers(1, 2**200)) * draw(st.sampled_from([1, -1]))
        return draw(st.lists(coeff, max_size=max_deg)) + [lead]

    shared = poly(2)
    f = _zz_times(*[shared] * draw(st.integers(1, 2)), poly(3), [draw(content)])
    g = _zz_times(shared, poly(3), [draw(content)])
    if draw(st.booleans()):
        f = [0] + f
    return tuple(c + [0] * draw(st.integers(0, 2)) for c in (f, g))


@settings(max_examples=120)
@given(integer_gcd_pairs())
@example(([-1, 0, 1], [2, 3]))                                # coprime
@example(([0, 1, 2, 1], [3, 6, 3]))                           # x (x + 1)^2, 3 (x + 1)^2
@example(([4, -12, 9], [2**200 * -2, 2**200 * 3]))            # (3x - 2)^2, 2^200 (3x - 2)
@example(([-12, 6, 0, 0], [-18, 9, 0]))                       # contents 6 and 9, zero tops
@example(([-6, 0, -6], [-4, 4]))                              # negative leads, coprime: h = 2
def test_integer_gcd_matches_euclid_over_q(pair):
    f, g = ([c for i, c in enumerate(p) if any(p[i:])] for p in pair)  # without zero tops
    h, cf, cg = polyalg._zz_gcd_certified(*pair)
    content = math.gcd(math.gcd(*f), math.gcd(*g))
    want = euclid_gcd(RatPoly(f), RatPoly(g)).primitive_integer_coeffs()
    assert h == [content * c for c in want]
    assert _zz_times(h, cf) == f and _zz_times(h, cg) == g
    for p in (p for p in (f, g) if len(p) > 1):
        assert RatPoly(polyalg._zz_squarefree_part(p)).monic() == squarefree_part(RatPoly(p))


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
        assert (mine == 0) == (euclid_gcd(p, q).degree > 0)


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
    p = from_roots([F(1), F(2), F(3)])
    assert p.sturm_count(F(0), F(4)) == 3
    assert p.sturm_count(F(0), F(5, 2)) == 2
    assert RatPoly([1, 0, 1]).sturm_count(F(-10), F(10)) == 0


# ---------------------------------------------------------------------------
# factoring over Q
# ---------------------------------------------------------------------------

def test_factor_q_pinned():
    f = factor_q_monic(FIB)
    assert f.unit == 1 and f.factors == ((FIB, 1),)
    f = factor_q_monic(RatPoly([-1, 0, 4, -4, 1]))
    assert f.factors == ((RatPoly([-1, 1]), 2), (RatPoly([-1, -2, 1]), 1))
    f = factor_q_monic(RatPoly([6, 0, -5, 0, 1]))  # (x^2-2)(x^2-3)
    got = {p for p, _ in f.factors}
    assert got == {RatPoly([-2, 0, 1]), RatPoly([-3, 0, 1])}


def test_factor_q_multiply_back_random():
    rng = random.Random(41)
    for _ in range(40):
        parts = [_rand_ratpoly(rng, rng.randrange(1, 4)) for _ in range(rng.randrange(1, 4))]
        p = parts[0]
        for q in parts[1:]:
            p = p * q
        f = factor_q_monic(p)
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
    assert f == ((KPoly([-R2, 1], 2), 1), (KPoly([R2, 1], 2), 1))
    f = factor_k(KPoly([-1, -1, 1], 5))
    phi = quad(F(1, 2), F(1, 2), 5)
    assert {p for p, _ in f} == {KPoly([-phi, 1], 5), KPoly([-phi.conj(), 1], 5)}
    # stays irreducible when sqrt(3) is not in Q(sqrt(2))
    f = factor_k(KPoly([-3, 0, 1], 2))
    assert f == ((KPoly([-3, 0, 1], 2), 1),)


def test_factor_k_multiply_back_random():
    rng = random.Random(42)
    for d in (2, 5):
        for _ in range(30):
            parts = [_rand_kpoly(rng, rng.randrange(1, 4), d) for _ in range(rng.randrange(1, 4))]
            p = parts[0]
            for q in parts[1:]:
                p = p * q
            f = factor_k(p)
            back = KPoly([p.lc], d)
            for q, m in f:
                assert q.lc == 1
                back = back * q**m
            assert back == p


def test_factoring_has_no_degree_cap():
    # the degree budget belongs to classify; the factoring routines take any
    # degree and certify the result by multiplying back
    p = RatPoly([1] + [0] * 24 + [1])  # x^25 + 1
    f = factor_q_monic(p)
    back = RatPoly([f.unit])
    for q, m in f.factors:
        back = back * q**m
    assert back == p and len(f.factors) == 3  # Phi_2 Phi_10 Phi_50
    p = KPoly([1] + [0] * 12 + [1], 2)  # x^13 + 1 over Q(sqrt 2)
    f = factor_k(p)
    back = KPoly([p.lc], 2)
    for q, m in f:
        back = back * q**m
    assert back == p and [q for q, _m in f] == [KPoly([1, 1], 2), cyclotomic(26).lift(2)]


def test_rational_roots_in_lowest_terms():
    p = from_roots([F(2, 3), F(-1, 2), F(4), F(0)]) * RatPoly([1, 0, 3])
    assert sorted(_rational_roots(p.primitive_integer_coeffs())) == [F(-1, 2), F(0), F(2, 3), F(4)]
    assert _rational_roots([-2, 0, 9]) == []  # +-sqrt(2)/3


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
@example(RatPoly([-2, 3]) ** 2 * RatPoly([1, 5]) * RatPoly([1, 0, 2]))  # 2/3 twice, lc 90
def test_rational_roots_match_divisor_enumeration(p):
    assert (sorted(_rational_roots(p.primitive_integer_coeffs()))
            == sorted(set(rational_roots_divisors(p))))


def test_rational_roots_factor_no_integer(monkeypatch):
    def refuse(n, *args, **kwargs):
        raise AssertionError(f"divisors({n}) called")

    monkeypatch.setattr(sympy, "divisors", refuse)
    p, q = sympy.nextprime(10**18), sympy.nextprime(2 * 10**18)
    f = RatPoly([p * q, 1, 0, 0, 1])  # x^4 + x + pq, irreducible over Q
    assert factor_q_monic(f).factors == ((f, 1),)
    g = from_roots([F(10**20 + 3, 7), F(-5, 6), F(-5, 6)]) * RatPoly([1, 0, 1])
    assert sorted(_rational_roots(g.primitive_integer_coeffs())) == [F(-5, 6), F(10**20 + 3, 7)]


def test_factor_q_certifies_the_integer_route(monkeypatch):
    p = RatPoly([F(-1, 3), F(1, 6), F(1, 2)])  # (3x - 2)(x + 1)/6: roots 2/3, -1
    assert factor_q_monic(p).factors == ((RatPoly([F(-2, 3), 1]), 1), (RatPoly([1, 1]), 1))
    form, lifted = polyalg._primitive_form, p.lift(2)
    with monkeypatch.context() as m:  # a top coefficient doubled: a form that is not p's
        m.setattr(polyalg, "_primitive_form", lambda f: form(f)[:-1] + (2 * form(f)[-1],))
        with pytest.raises(InternalInvariantError, match="scale-back"):
            polyalg._over_q(lifted)
    # p's rational roots never reach sympy; (x^2 - 2)(x^3 - x - 1) has none
    # and is squarefree of degree 5, so sympy factors it whole, and a wrong
    # answer must not pass
    q = RatPoly([-2, 0, 1]) * RatPoly([-1, -1, 0, 1])
    with monkeypatch.context() as m:  # factors that do not multiply back
        m.setattr(polyalg, "_zz_factor", lambda ints: (1, [([1, 0, -2], 1), ([1, 0, -2], 1)]))
        with pytest.raises(InternalInvariantError, match="multiply-back"):
            factor_q_monic(q)
    # (x^2 - 2)(x^2 - 3)(x^2 - 5) has degree 6, so sympy gets it too
    r = RatPoly([6, 0, -5, 0, 1]) * RatPoly([-5, 0, 1])
    with monkeypatch.context() as m:  # a reducible quartic returned as a factor
        m.setattr(polyalg, "_zz_factor",
                  lambda ints: (1, [([1, 0, -5, 0, 6], 1), ([1, 0, -5], 1)]))
        with pytest.raises(NotIrreducible):
            factor_q_monic(r)


def test_factor_q_takes_and_returns_primitive_forms():
    # (2x - 3)(x - 2): the factors are ordered by their monic coefficients,
    # x - 2 before x - 3/2, not by the forms themselves
    assert factor_q((6, -7, 2)) == (((-2, 1), 1), ((-3, 2), 1))
    assert factor_q((-1, 0, 4, -4, 1)) == (((-1, 1), 2), ((-1, -2, 1), 1))
    assert factor_q((1,)) == ()
    # content 2, a negative leading coefficient, the zero polynomial
    for f in ((2, 4), (4, 0, 2), (1, -1), (-2, 0, -1), ()):
        with pytest.raises(InternalInvariantError, match="primitive"):
            factor_q(f)


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


@settings(max_examples=140, deadline=None)
@given(rational_products() | rational_root_polys())
@example(RatPoly([0, 0, -2, 0, 1]) * RatPoly([F(1, 2), 3]) ** 2)
@example(RatPoly([F(-1, 3), 1]) ** 2 * RatPoly([0, 1]) ** 3 * RatPoly([F(-10**20 - 3, 7), 1])
         * RatPoly([-2, 0, 1]))
@example(RatPoly([-1, 3]) * RatPoly([1, 1, 0, 0, 0, 1]))  # x^5 + x + 1 splits, no root
@example(RatPoly([6, 0, -5, 0, 1]))                        # no rational root at all
def test_factor_q_matches_sympy_over_qq(p):
    assert factor_q_monic(p) == factor_q_qq(p)


def test_factor_q_checks_the_rational_roots(monkeypatch):
    p = RatPoly([-1, 3]) ** 2 * RatPoly([2, 1]) * RatPoly([-2, 0, 1])  # (3x-1)^2 (x+2)(x^2-2)
    roots = polyalg._rational_roots
    with monkeypatch.context() as m:  # a non-root must not be divided out
        m.setattr(polyalg, "_rational_roots", lambda f: roots(f) + [F(2)])
        with pytest.raises(InternalInvariantError, match="does not divide"):
            factor_q_monic(p)
    for drop in (0, 1):  # a dropped root reaches sympy, which finds it
        with monkeypatch.context() as m:
            m.setattr(polyalg, "_rational_roots",
                      lambda f: [r for i, r in enumerate(roots(f)) if i != drop])
            assert factor_q_monic(p) == factor_q_qq(p)


def _primitive(f) -> tuple[int, ...]:
    g = math.gcd(*f) * (1 if f[-1] > 0 else -1)
    return tuple(c // g for c in f)


@st.composite
def quadratic_products(draw):
    """(f, pieces): a primitive integer form f, the product of its pieces,
    each a primitive form (x -> k x + t substituted into some) raised to a
    multiplicity of 1 to 3.  The pieces are quadratics with square and
    non-square discriminants, x^4 + 4 shapes, biquadratics, cubics and
    quintics, with coefficients of 1 or 30 digits; several quadratics make
    q^2, q1 q2^2 and q1 q2 q3."""
    coeff = draw(st.sampled_from([st.integers(-9, 9), st.integers(-10**30, 10**30)]))
    lead = coeff.filter(lambda c: c > 0)
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["quadratic", "quadratic", "split", "x^4+4", "biquadratic",
                                     "cubic", "quintic"]))
        if kind == "quadratic":
            g = [draw(coeff), draw(coeff), draw(lead)]
        elif kind == "split":  # a square discriminant: two linear factors
            g = polyalg._zz_mul([draw(coeff), draw(lead)], [draw(coeff), draw(lead)])
        elif kind == "x^4+4":  # (x^2 + 2bx + 2b^2)(x^2 - 2bx + 2b^2)
            b = draw(coeff.filter(bool))
            g = _substituted([4 * b ** 4, 0, 0, 0, 1], draw(st.sampled_from([1, 2, -3])),
                             draw(st.integers(-3, 3)))
        elif kind == "biquadratic":
            g = [draw(coeff), 0, draw(coeff), 0, draw(lead)]
        else:
            g = [draw(coeff) for _ in range(3 if kind == "cubic" else 5)] + [draw(lead)]
        assume(any(g[:-1]))
        pieces.append((_primitive(g), draw(st.integers(1, 3))))
    f = [1]
    for g, m in pieces:
        for _ in range(m):
            f = polyalg._zz_mul(f, list(g))
    return _primitive(f), pieces


@settings(max_examples=150, deadline=None, derandomize=True)
@given(quadratic_products())
@example(((4, 0, 0, 0, 1), [((4, 0, 0, 0, 1), 1)]))                # x^4 + 4
@example((_primitive(polyalg._zz_mul([-2, 0, 1], [-3, 0, 1])),     # (x^2 - 2)(x^2 - 3)
          [((-2, 0, 1), 1), ((-3, 0, 1), 1)]))
@example((_primitive(polyalg._zz_mul([-2, 0, 1], polyalg._zz_mul([1, 1, 1], [1, 1, 1]))),
          [((-2, 0, 1), 1), ((1, 1, 1), 2)]))                       # q1 q2^2
def test_factor_q_matches_sympy_on_products_of_quadratics(case):
    f, pieces = case
    p = RatPoly(list(f))
    zz_factor, inputs = polyalg._zz_factor, []

    def recording(ints):
        inputs.append(ints)
        return zz_factor(ints)

    expected = factor_q_qq(p)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(polyalg, "_zz_factor", recording)
        assert factor_q_monic(p) == expected
        quadratics = {g for g, _m in pieces if len(g) == 3}
        if len(quadratics) <= 2 and len(quadratics) == len(pieces):
            assert inputs == []  # at most two distinct quadratics: no Zassenhaus call
        with memo.scope():  # the same with a piece pooled first
            polyalg.factor_q(pieces[0][0])
            assert factor_q_monic(p) == expected


def _factored_by_sympy(ints):
    raise AssertionError(f"sympy's factorer called on {ints}")


@pytest.mark.parametrize("p", [
    RatPoly([-1, 2]) * RatPoly([3, 1]),                   # (2x - 1)(x + 3)
    RatPoly([-1, 3]) ** 2,                                # (3x - 1)^2: discriminant 0
    RatPoly([-1, 0, 1]) * RatPoly([-2, 0, 1]),            # a biquadratic quartic part
    RatPoly([-1, 1]) ** 2 * RatPoly([5, 1]) ** 2 * RatPoly([1, 1, 1]) ** 3,
], ids=["quadratic", "square", "quartic", "parts"])
def test_roots_the_search_misses_are_found_by_the_discriminant(monkeypatch, p):
    # with no rational root found, every linear factor is read off a square
    # discriminant, and sympy is not called (a quartic part here has Q = 0:
    # the resolvent cubic's roots come from the same root search)
    monkeypatch.setattr(polyalg, "_rational_roots", lambda f: [])
    monkeypatch.setattr(polyalg, "_zz_factor", _factored_by_sympy)
    assert factor_q_monic(p) == factor_q_qq(p)


def test_a_wrong_quartic_split_is_refused(monkeypatch):
    q = RatPoly([-2, 0, 1]) * RatPoly([-3, 0, 1])  # (x^2 - 2)(x^2 - 3), no sympy call
    monkeypatch.setattr(polyalg, "_quartic_split", lambda f: ((-2, 0, 1), (-2, 0, 1)))
    with pytest.raises(InternalInvariantError, match="multiply-back"):
        factor_q_monic(q)


def test_wrong_squarefree_multiplicities_are_refused(monkeypatch):
    q = RatPoly([-2, 0, 1]) * RatPoly([1, 1, 1]) ** 2  # q1 q2^2, no sympy call
    parts = polyalg._zz_squarefree_parts
    monkeypatch.setattr(polyalg, "_zz_squarefree_parts",
                        lambda f: [(a, i % 2 + 1) for a, i in parts(f)])
    with pytest.raises(InternalInvariantError, match="multiply-back"):
        factor_q_monic(q)


def _substituted(f, k: int, t: int) -> list[int]:
    """f(k x + t) over Z, low-to-high."""
    out, power = [0] * len(f), [1]
    for c in f:
        for i, b in enumerate(power):
            out[i] += c * b
        power = polyalg._zz_mul(power, [t, k])
    return out


@st.composite
def quartic_forms(draw):
    """Primitive integer quartics: random ones (mostly irreducible), products
    of two quadratics (splits found by the resolvent cubic), g(x^2) (the
    biquadratic test) and x^4 + (2g - h) x^2 + g^2 (the R = g^2 test, a
    split when h is a square), each non-monic or 30 digits now and then, and
    substituted x -> k x + t, which keeps reducibility and moves Q = 0 off
    a3 = 0."""
    coeff = draw(st.sampled_from([st.integers(-6, 6), st.integers(-10**30, 10**30)]))
    lead = coeff.filter(bool)
    kind = draw(st.sampled_from(["random", "product", "biquadratic", "square"]))
    if kind == "random":
        f = [draw(coeff) for _ in range(4)] + [draw(lead)]
    elif kind == "product":
        f = polyalg._zz_mul([draw(coeff), draw(coeff), draw(lead)],
                            [draw(coeff), draw(coeff), draw(lead)])
    elif kind == "biquadratic":
        f = [draw(coeff), 0, draw(coeff), 0, draw(lead)]
    else:
        g, s = draw(st.integers(-6, 6)), draw(st.integers(0, 6))
        h = s * s if draw(st.booleans()) else draw(st.integers(-6, 40))
        f = [g * g, 0, 2 * g - h, 0, 1]
    f = _substituted(f, draw(st.sampled_from([1, 1, 2, -3])), draw(st.integers(-3, 3)))
    assume(any(f[:-1]))
    return _primitive(f)


def _irreducible_by(check, f) -> bool:
    try:
        check(f)
    except NotIrreducible:
        return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(quartic_forms())
@example((1, 0, 0, 0, 1))            # x^4 + 1: irreducible, Q = 0
@example((4, 0, 0, 0, 1))            # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2): R = g^2
@example((6, 0, -5, 0, 1))           # (x^2 - 2)(x^2 - 3): biquadratic
@example((1, 0, -10, 0, 1))          # x^4 - 10x^2 + 1: irreducible, Q = 0
@example((1, -2, 3, 4, 5))           # irreducible, non-monic
@example((6, -2, 7, -1, 2))          # (2x^2 - x + 3)(x^2 + 2): a resolvent root
@example((1, -6, 2, 16, 8))          # (x^2 - 2)(x^2 - 3) at x -> 2x + 1, halved
@example((5, 4, 6, 4, 1))            # x^4 + 4 at x -> x + 1
def test_integer_quartic_recheck_matches_the_fraction_route(f):
    # the integer depression u = 4 a4 x + a3 gives the Fraction route's
    # verdict, and both agree with sympy on irreducibility over Q
    got = _irreducible_by(polyalg._certify_irreducible_q, f)
    assert got == _irreducible_by(certify_irreducible_q_fraction, f)
    x = sympy.Symbol("x")
    assert got == sympy.Poly(list(reversed(f)), x).is_irreducible


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


NORM_DESCENT_EXAMPLES = (
    RatPoly([-2, 0, 1]).lift(3) ** 2 * KPoly([3, 1], 3),
    RatPoly([1, 0, -10, 0, 1]).lift(2),
    KPoly([-2, 0, 1], 2).scale(R2),  # irrational unit, rational monic part
)


@settings(max_examples=60, deadline=None)
@given(rational_k_products())
@example(NORM_DESCENT_EXAMPLES[0])
@example(NORM_DESCENT_EXAMPLES[1])
@example(NORM_DESCENT_EXAMPLES[2])
def test_factor_k_rational_route_matches_the_norm_descent(p):
    assert factor_k(p) == factor_k_norm(p).factors


def test_the_norm_descent_reference_reaches_no_factoring_over_k(monkeypatch):
    # the reference must stay a second route, not call the code it checks
    expected = [factor_k(p) for p in NORM_DESCENT_EXAMPLES]

    def refuse(*_args):
        raise AssertionError("the reference reached polyalg's factoring over K")

    monkeypatch.setattr(polyalg, "factor_k", refuse)
    monkeypatch.setattr(polyalg, "_factor_k_squarefree", refuse)
    assert [factor_k_norm(p).factors for p in NORM_DESCENT_EXAMPLES] == expected


X4 = RatPoly([1, 0, -10, 0, 1])  # x^4 - 10 x^2 + 1, roots +-sqrt(2) +-sqrt(3)


@pytest.mark.parametrize("p, d, degrees", [
    (X4, 2, [2, 2]), (X4, 3, [2, 2]), (X4, 6, [2, 2]), (X4, 5, [4]),
    (RatPoly([-1, -2, 1]), 2, [1, 1]), (RatPoly([-1, -2, 1]), 3, [2]),
    (RatPoly([-2, 0, 0, 1]), 2, [3]), (RatPoly([-2, 0, 0, 1]), 5, [3]),
])
def test_factor_k_of_rational_pinned(p, d, degrees):
    f = factor_k(p.lift(d))
    assert [g.degree for g, _m in f] == degrees
    assert all(m == 1 for _g, m in f)
    if len(degrees) == 2:  # the two factors are conjugate
        (g, _m), (h, _n) = f
        assert g.conj() == h and g != h


def test_factor_k_of_rational_keeps_multiplicities():
    # (x^2 - 2)^2 (x + 3) over Q(sqrt 2)
    f = factor_k(RatPoly([-2, 0, 1]).lift(2) ** 2 * KPoly([3, 1], 2))
    assert f == ((KPoly([-R2, 1], 2), 2), (KPoly([R2, 1], 2), 2), (KPoly([3, 1], 2), 1))


def test_wrong_integer_gcd_cofactors_are_refused_in_the_shift_search(monkeypatch):
    # x^4 - 10x^2 + 1, whose roots are +-sqrt2 +- sqrt3, splits over Q(sqrt 2)
    # into two quadratics through the squarefree test of a shifted norm;
    # with a wrong gcd from the modular route, or a wrong cofactor of it,
    # the integer gcd's multiply-back refuses
    p = RatPoly([1, 0, -10, 0, 1]).lift(2)
    assert [f.degree for f, _m in factor_k(p)] == [2, 2]
    gcd_k, exact_div = polyalg._gcd_k, polyalg._zz_exact_div

    def wrong_h(f, g):
        return gcd_k(f, g) * KPoly([1, 1], f.d)

    def wrong_cofactor(f, g):
        q = exact_div(f, g)
        return q and q[:-1] + [q[-1] + 1]

    for name, mutant in (("_gcd_k", wrong_h), ("_zz_exact_div", wrong_cofactor)):
        with monkeypatch.context() as m:
            m.setattr(polyalg, name, mutant)
            with pytest.raises(InternalInvariantError, match="multiply back"):
                factor_k(p)


@st.composite
def quadratic_forms(draw):
    """(f, d): primitive integer quadratics, half of them c ((e x - a)^2 -
    d b^2), which split over Q(sqrt(d)) into conjugates, with coefficients of
    up to 30 digits now and then."""
    d = draw(st.sampled_from(SPLITTING_D + (13,)))
    coeff = draw(st.sampled_from([st.integers(-9, 9), st.integers(-10**30, 10**30)]))
    if draw(st.booleans()):
        a, b, e = draw(coeff), draw(coeff.filter(bool)), draw(coeff.filter(bool))
        c = draw(st.sampled_from([1, 2, -3]))
        f = [c * (a * a - d * b * b), -2 * c * a * e, c * e * e]
    else:
        f = [draw(coeff), draw(coeff), draw(coeff.filter(bool))]
    return _primitive(f), d


@settings(max_examples=150, deadline=None, derandomize=True)
@given(quadratic_forms())
@example(((-2, 0, 1), 2))            # +-sqrt(2)
@example(((-3, 0, 1), 2))            # sqrt(3) is not in Q(sqrt(2))
@example(((-1, -2, 1), 2))           # 1 +- sqrt(2)
@example(((-1, -1, 1), 5))           # the golden ratio and its conjugate
@example(((-5, 0, 2), 10))           # +-sqrt(10) / 2, non-monic
def test_integer_quadratic_split_matches_the_norm_descent(case):
    # c2 x^2 + c1 x + c0 splits over K iff (c1^2 - 4 c0 c2) d is a square
    f, d = case
    p = KPoly(f, d)
    assert factor_k(p) == factor_k_norm(p).factors
    disc = (f[1] ** 2 - 4 * f[0] * f[2]) * d
    if not polyalg._rational_roots(f):
        split = len(factor_k(p)) == 2
        assert split == (disc >= 0 and math.isqrt(disc) ** 2 == disc)


# ---------------------------------------------------------------------------
# integrality flags
# ---------------------------------------------------------------------------

def test_root_integrality_flags():
    def flags(p):
        return root_integrality_flags(p.primitive_integer_coeffs())

    assert flags(RatPoly([1, -6, 1])) == (True, True, True)
    assert flags(RatPoly([-2, 1])) == (True, False, False)
    assert flags(RatPoly([-1, 2])) == (False, True, False)
    assert flags(FIB) == (True, True, True)
    # read off the primitive integer form x^2 - 6x + 1, not the monic one
    assert flags(RatPoly([F(1, 3), -2, F(1, 3)])) == (True, True, True)
    # the form must be irreducible: x^2 - 3x + 2 = (x - 1)(x - 2), x^2, 1
    for f in ((2, -3, 1), (0, 0, 1), (1,)):
        with pytest.raises(NotIrreducible):
            root_integrality_flags(f)


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


def test_polyalg_primality_matches_sympy():
    # every prime polyalg picks (the l of _rational_roots, the p = 1 (mod n)
    # of _root_of_unity_mod_prime, the primes of the totient enumeration)
    # comes from modp.is_prime, the one primality test in src/
    assert [n for n in range(-5, 200_001) if polyalg.is_prime(n) != sympy.isprime(n)] == []


def test_totient_orders_match_the_sieve():
    # the prime-power enumeration against one sieve up to 2 * 300^2 + 2
    sieved = orders_with_totient_at_most_sieved(300)
    for bound in range(0, 301):
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
    assert (polyalg._cyclotomic_orders(r.primitive_integer_coeffs())
            == cyclotomic_orders_by_factoring(r))


def test_witness_orders_refuse_a_shared_root(monkeypatch):
    # a broken factorization whose two "irreducible" factors share sqrt(2):
    # their ratio polynomial has the root 1
    f1 = (-2, 0, 1)
    f2 = (6, -2, -3, 1)  # (x^2 - 2)(x - 3)
    monkeypatch.setattr(polyalg, "factor_q", lambda f: ((f1, 1), (f2, 1)))
    with pytest.raises(InternalInvariantError, match="share a root"):
        witness_orders((RatPoly(f1) * RatPoly(f2)).primitive_integer_coeffs())


def test_ratio_poly_contains_all_ratios():
    rng = random.Random(55)
    for _ in range(20):
        p = _rand_ratpoly(rng, rng.randrange(1, 4))
        q = _rand_ratpoly(rng, rng.randrange(1, 3))
        p = squarefree_part(p)
        q = squarefree_part(q)
        if abs(q.constant_term()) < F(1, 1000) or abs(p.constant_term()) < F(1, 1000):
            continue
        r = _ratio_over_q(p, q)
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
    r = _ratio_over_q(p, q)
    assert r.lc == 1 and r.degree == p.degree * q.degree
    assert RatPoly(r.primitive_integer_coeffs()) == ratio_poly_zz(p, q)


@st.composite
def power_sum_cases(draw):
    """(p, q, k) over Q: p and q products of factors of degree 1-3 with
    rational, non-monic and sometimes 30-digit coefficients, some repeated,
    p with zero roots now and then, q without; a quarter of the time q is p
    (self-ratios), when p has no zero root."""
    small = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    large = st.integers(-10**30, 10**30)
    lead = st.sampled_from([1, -1, 2, F(1, 3), -5, 10**20 + 1])

    def product(max_factors):
        out = RatPoly([draw(lead)])
        for _ in range(draw(st.integers(1, max_factors))):
            deg = draw(st.integers(1, 3))
            cs = draw(st.lists(small | large, min_size=deg, max_size=deg))
            if not cs[0]:
                cs[0] = draw(st.sampled_from([1, -7, F(2, 5)]))
            out = out * RatPoly(cs + [draw(lead)]) ** draw(st.integers(1, 2))
        return out

    p, k = product(2), draw(st.integers(1, 4))
    if draw(st.integers(0, 3)) == 0:
        return p, p, k
    return p * RatPoly([0, 1]) ** draw(st.integers(0, 2)), product(1), k


@st.composite
def k_power_sum_cases(draw):
    """(f, g, k) over K = Q(sqrt(d)), d in {2, 3, 5, 13}: f and g products of
    one or two factors of degree 1-2 with fractional, 30-digit or irrational
    coefficients, a lifted rational factor now and then, f with a zero root
    now and then, g without; a quarter of the time g is f (self-ratios),
    when f has no zero root."""
    d = draw(st.sampled_from([2, 3, 5, 13]))
    small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    coord = small | st.integers(-10**30, 10**30)
    lead = st.sampled_from([1, -1, 2, F(1, 3), 10**20 + 1])

    def product():
        out = KPoly([1], d)
        for _ in range(draw(st.integers(1, 2))):
            deg, rational = draw(st.integers(1, 2)), draw(st.integers(0, 3)) == 0
            cs = [quad(draw(coord), 0 if rational else draw(small), d) for _ in range(deg)]
            if not cs[0]:
                cs[0] = quad(1, 0 if rational else 1, d)
            out = out * KPoly(cs + [draw(lead)], d)
        return out

    f, k = product(), draw(st.integers(1, 4))
    if draw(st.integers(0, 3)) == 0:
        return f, f, k
    return f * KPoly([0, 1], d) ** draw(st.integers(0, 1)), product(), k


@settings(max_examples=60, deadline=None, derandomize=True)
@given(power_sum_cases())
@example((FIB, FIB, 3))
@example((RatPoly([0, 0, -1, 3]), RatPoly([-1, 3]) ** 2, 2))       # zero and repeated roots
@example((RatPoly([10**25 + 7, -3, 2 * 10**24]), RatPoly([F(1, 7), 5]), 4))
def test_integer_power_sums_match_the_fraction_route(case):
    p, q, k = case
    assert _ratio_over_q(p, q) == newton_ratio_poly(p, q)
    # the power polynomial of a form; over K, on lifted inputs, the former route
    assert (polyalg._zz_power_poly(p.primitive_integer_coeffs(), k)
            == list(newton_power_poly(p, k).primitive_integer_coeffs()))
    assert power_poly(p.lift(2), k) == newton_power_poly(p, k).lift(2)
    # the degeneracy test reads the primitive integer form directly
    assert (polyalg._zz_ratio_poly(p.primitive_integer_coeffs(), q.primitive_integer_coeffs())
            == list(newton_ratio_poly(p, q).primitive_integer_coeffs()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k_power_sum_cases())
@example((KPoly([-R2, 1], 2), KPoly([-R2, 1], 2), 2))             # rational ratio: 1
@example((KPoly([-R2, 1], 2), KPoly([1 + R2, 1], 2), 3))          # irrational ratio
@example((KPoly([1, -R2, 1], 2), KPoly([1, -R2, 1], 2), 8))       # zeta_8^(+-1)
def test_integer_power_sums_match_the_route_over_k(case):
    f, g, k = case
    # ratio polynomials over K read over Q: r, or r * conj(r) when r is irrational
    assert _ratio_over_k(f, g) == list(polyalg._over_q(ratio_poly(f, g)))
    # power polynomials of N = f * conj(f): roots alpha^k over both embeddings
    assert polyalg._zz_power_poly(polyalg._over_q(f), k) == _power_over_q(power_poly(f, k), f)


def test_integer_newton_is_certified(monkeypatch):
    newton, power_sums = polyalg._zz_from_power_sums, polyalg._power_sums
    ratio = polyalg._zz_ratio_poly
    p, q = (1, -3, 1), (-2, 3, 5)
    # a K pair in the trace case: (x - 1 - sqrt2)(x - 3) and 2x^2 - sqrt2 x - 1,
    # whose ratio polynomial is irrational, so Newton runs on 2N traces
    f, g = KPoly([3 + 3 * R2, -4 - R2, 1], 2), KPoly([-1, -R2, 2], 2)
    assert len(_ratio_over_k(f, g)) - 1 == 2 * f.degree * g.degree
    with monkeypatch.context() as m:  # a constant term off by one
        m.setattr(polyalg, "_zz_from_power_sums", lambda sums: [newton(sums)[0] + 1]
                  + newton(sums)[1:])
        with pytest.raises(InternalInvariantError, match="constant term"):
            ratio(p, q)
        with pytest.raises(InternalInvariantError, match="constant term"):
            ratio(q, q)
        with pytest.raises(InternalInvariantError, match="constant term"):
            _ratio_over_k(f, g)
        with pytest.raises(InternalInvariantError, match="constant term"):
            polyalg._zz_power_poly(p, 3)
    with monkeypatch.context() as m:  # the last power sum off by its index
        m.setattr(polyalg, "_zz_from_power_sums",
                  lambda sums: newton(sums[:-1] + [sums[-1] + len(sums)]))
        with pytest.raises(InternalInvariantError, match="constant term"):
            ratio(p, q)
        with pytest.raises(InternalInvariantError, match="constant term"):
            _ratio_over_k(f, g)
        with pytest.raises(InternalInvariantError, match="constant term"):
            polyalg._zz_power_poly(q, 2)
    with monkeypatch.context() as m:  # s_1 of x^2 - 3x + 1 read as 4 and of
        # y^2 + 3y - 10 (5x^2 + 3x - 2 reversed, scaled) as -2: 2 c_2 = -139
        m.setattr(polyalg, "_power_sums",
                  lambda c, count: [s + (i == 0) for i, s in enumerate(power_sums(c, count))])
        with pytest.raises(InternalInvariantError, match="remainder"):
            ratio(p, q)


# ---------------------------------------------------------------------------
# circle profiles, root boxes, degeneracy
# ---------------------------------------------------------------------------

def _lifted(p):
    """p as a KPoly over Q(sqrt2), the one type circle_profile takes."""
    return p.lift(2) if isinstance(p, RatPoly) else p


def test_circle_profile_pinned():
    assert _prof(circle_profile(_lifted(FIB))) == (1, 0, 1)
    assert _prof(circle_profile(_lifted(cyclotomic(12)))) == (0, 4, 0)
    assert _prof(circle_profile(KPoly([1, -R2, 1], 2))) == (0, 2, 0)
    assert _prof(circle_profile(KPoly([-(3 + 2 * R2), 1], 2))) == (0, 0, 1)
    assert _prof(circle_profile(_lifted(RatPoly([-2, 1]) * RatPoly([-1, 2])))) == (1, 0, 1)


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
    assert _prof(circle_profile(_lifted(p))) == profile


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
            factors = factor_q_monic(p).distinct()
        else:
            deg = draw(st.integers(1, 4))
            p = KPoly([quad(draw(st.integers(-4, 4)), draw(st.integers(-2, 2)), field)
                       for _ in range(deg)] + [1], field)
            factors = [f for f, _m in factor_k(p)]
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
    assert witness_orders(FIB.primitive_integer_coeffs()) == ()
    assert witness_orders((-1, 1, -1, 1)) == (2, 4)  # (x^2+1)(x-1)
    assert witness_orders(polyalg._over_q(KPoly([-R2, 1], 2))) == (2,)
    assert witness_orders(KPoly([-R2, 1], 2)) == ()  # single root, base level
    assert witness_orders((2, -3, 1)) == ()  # ratio 2 not a root of unity
    # 0 and 3 over Q as forms, sqrt(2) over K
    for constant in ((), (1,), KPoly([R2], 2)):
        with pytest.raises(PreconditionViolated):
            witness_orders(constant)


def test_nondegeneracy_ignores_zero_roots():
    # x(x + sqrt2): the zero root forms no ratio at all
    assert witness_orders(KPoly([0, R2, 1], 2)) == ()
    # x(x-1)(x+1): the +-1 pair still witnesses order 2
    assert witness_orders((0, -1, 0, 1)) == (2,)
    assert witness_orders((0, 0, 1)) == ()  # x^2 alone


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
        got[name] = list(witness_orders(polyalg._over_q(p)))
        assert witness_orders(p) == ()
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
    x = KPoly([0, 1], d)
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
    p = squarefree_part(p)
    return to_ratpoly(p) if rational else p


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
    pool = polyalg._over_q(p) if isinstance(p, KPoly) else p.primitive_integer_coeffs()
    assert list(witness_orders(pool)) == ratio_witness_orders_numeric(pairs, d, True, 60)
    if isinstance(p, KPoly):
        # base level: the pool holds the roots of p only
        assert list(witness_orders(p)) == ratio_witness_orders_numeric(pairs, d, False, 60)


@st.composite
def k_pools(draw):
    """A K-polynomial for the base-level witness test: half the time an
    irrational one from the chosen-root generator (with its K-only zeta_8,
    zeta_12 and zeta_5 blocks), otherwise x - c with c irrational times up
    to two factors of degree 1-3 over Q(sqrt(d)) with fractional, non-monic
    coefficients, some of them rational or repeated."""
    if draw(st.booleans()):
        return draw(chosen_root_polys().filter(
            lambda p: isinstance(p, KPoly) and not p.is_rational()))
    d = draw(st.sampled_from([2, 3, 5, 13]))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    lead = st.sampled_from([1, -1, 2, F(1, 3)])
    out = KPoly([-quad(draw(coord), draw(coord.filter(bool)), d), 1], d)
    for _ in range(draw(st.integers(0, 2))):
        cs = [quad(draw(coord), draw(coord), d) for _ in range(draw(st.integers(1, 3)))]
        out = out * KPoly(cs + [draw(lead)], d) ** draw(st.sampled_from([1, 1, 2]))
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(k_pools())
@example(KPoly([-1, 1], 2) * KPoly([1, -R2, 1], 2))                  # 1, zeta_8^(+-1)
@example(KPoly([-1, 1], 3) * KPoly([1, -sqrt_int(3), 1], 3))         # 1, zeta_12^(+-1)
@example(KPoly([-R2, 1], 2) * KPoly([R2, 1], 2))                     # sqrt2, -sqrt2
@example(KPoly([0, -R2, 1], 2) * KPoly([2, 1], 2))                   # zero root
def test_base_level_witnesses_match_the_former_route(p):
    # the integer route equals the ratio polynomials over K read over Q; a
    # rational p (a conjugate pair multiplied out) is read over Q instead
    assume(not p.is_rational())
    assert witness_orders(p) == witness_orders_by_ratio_poly(p)


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
    # root ratios: Res_y(g(y), f(x*y)) over K, made monic; the package reads
    # them over Q on integers
    ratios = ratio_resultant_field(f, g).monic()
    assert ratio_poly(f, g) == ratios
    assert _ratio_over_k(f, g) == list(polyalg._over_q(ratios))
    # power map: Res_y(f(y), y^power - x) for monic f; the package takes it
    # on N = f * conj(f), on integers
    powers = power_map_charpoly(f, power)
    assert power_poly(f, power) == powers
    assert polyalg._zz_power_poly(polyalg._over_q(f), power) == _power_over_q(powers, f)


# ---------------------------------------------------------------------------
# KPoly on integer coordinates, and the modular gcd over K
# ---------------------------------------------------------------------------

@st.composite
def k_elements(draw, d, rational=False, big=False):
    """(a + b sqrt(d)) / m, m = 2 with a and b odd giving (1 + sqrt(d)) / 2
    shapes when d = 1 (mod 4)."""
    coord = st.integers(-10**20, 10**20) if big else st.integers(-40, 40)
    m = draw(st.sampled_from([1, 1, 2, 3, 4, 7]))
    return quad(F(draw(coord), m), F(0 if rational else draw(coord), m), d)


@st.composite
def k_coeff_lists(draw, d, lo=0, hi=6, rational=False, big=False, nonzero=False):
    cs = [draw(k_elements(d, rational, big)) for _ in range(draw(st.integers(lo, hi)))]
    if nonzero and not any(cs):
        cs.append(quad(1, 0, d))
    return cs


def _same_kpoly(mine, ref) -> bool:
    """mine (a KPoly) and ref (an ElemKPoly) agree coefficient by coefficient,
    print alike, hash alike, and mine is in its normal form."""
    normal = mine.m > 0 and math.gcd(mine.m, *mine.A, *mine.B) == 1 and (
        not mine.A or mine.A[-1] or mine.B[-1])
    return (normal and mine.coeffs == ref.coeffs and str(mine) == str(ref)
            and repr(mine) == repr(ref) and hash(mine) == hash(ref))


@st.composite
def kpoly_cases(draw):
    d = draw(st.sampled_from([2, 3, 5, 13]))
    rational = draw(st.integers(0, 3)) == 0
    cs, ds = (draw(k_coeff_lists(d, rational=rational)) for _ in range(2))
    return d, cs, ds, draw(k_elements(d)), draw(st.integers(0, 5))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kpoly_cases())
@example((2, [], [quad(1, 1, 2)], quad(3, 0, 2), 0))                  # zero polynomial
@example((5, [quad(F(1, 2), F(1, 2), 5), 0, 1], [0, quad(F(-1, 2), F(1, 2), 5)],
          quad(F(1, 2), F(1, 2), 5), 3))                             # (1 + sqrt5)/2, x | q
def test_kpoly_matches_the_quad_elem_reference(case):
    d, cs, ds, x, e = case
    p, q, rp, rq = KPoly(cs, d), KPoly(ds, d), ElemKPoly(cs, d), ElemKPoly(ds, d)
    assert _same_kpoly(p, rp) and _same_kpoly(q, rq)
    assert (p == q) == (rp == rq) and (p == p.conj()) == (rp == rp.conj())
    assert p.is_rational() == rp.is_rational() and p.degree == rp.degree
    pairs = [(p + q, rp + rq), (p - q, rp - rq), (-p, -rp), (p * q, rp * rq), (p ** e, rp ** e),
             (p.conj(), rp.conj()), (p.monic(), rp.monic()), (p.derivative(), rp.derivative()),
             (p.reverse(), rp.reverse()), (p.compose(q), rp.compose(rq)),
             (p.scale(x), rp.scale(x)), (p + x, rp + x), (x - p, x - rp), (p * x, rp * x)]
    if not q.is_zero:
        pairs += list(zip(divmod(p, q), divmod(rp, rq)))
        pairs.append(((p * q).exact_div(q), rp))
        assert (p * q).exact_div(q) == p and (p * q + p) % q == p % q
    for mine, ref in pairs:
        assert _same_kpoly(mine, ref)
    assert p.eval(x) == rp.eval(x) and p + q - q == p
    if not p.is_zero:
        assert p.lc == rp.lc and p.constant_term() == rp.constant_term()


D_LUCKLESS = 2
P0, T0 = next(modp.split_primes(D_LUCKLESS))  # the first prime _gcd_k tries over Q(sqrt2)
P1, _ = next(modp.split_primes(1))  # the first prime it tries for a rational pair, in any K


def _k(*roots, lead=1, d=D_LUCKLESS):
    """lead * prod (x - r) over Q(sqrt(d))."""
    out = KPoly([lead], d)
    for r in roots:
        out = out * KPoly([-r, 1], d)
    return out


@st.composite
def k_gcd_pairs(draw):
    d = draw(st.sampled_from([2, 3, 5, 13]))
    big, rational = draw(st.booleans()), draw(st.integers(0, 3)) == 0
    h = KPoly(draw(k_coeff_lists(d, 1, 9 if big else 4, rational, big, nonzero=True)), d)
    u = KPoly(draw(k_coeff_lists(d, 1, 4, rational, nonzero=True)), d)
    v = KPoly(draw(k_coeff_lists(d, 1, 4, rational, nonzero=True)), d)
    x = KPoly([0, 1], d)
    return h * u * x ** draw(st.integers(0, 2)), h * v * x ** draw(st.integers(0, 2))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(k_gcd_pairs())
@example((_k(R2, 1 - R2), _k(-R2, 3)))                                  # coprime
@example((_k(F(1, P0), 2, lead=P0), _k(F(1, P0), 3, lead=P0)))          # P0 | lc
@example((_k(2, lead=T0 - R2) * KPoly([1, T0 - R2], 2),                 # P0 | N(lc), one
          _k(5) * KPoly([1, T0 - R2], 2)))                              # image loses a degree
@example((_k(R2, 1), _k(R2, 1 + P0)))                                   # P0 | a resultant
@example((_k(R2, 1, 2, 1 - R2, F(1, 3)) * _k(7, 8, 9), _k(R2, 1, 2, 1 - R2, F(1, 3)) * _k(10)))
@example((_k(0, 0, R2), _k(0, R2, -1)))                                 # zero constant terms
@example((_k(quad(F(1, 2), F(1, 2), 5), 1, d=5) ** 2,                   # (1 + sqrt5)/2
          _k(quad(F(1, 2), F(1, 2), 5), quad(F(1, 2), F(-1, 2), 5), d=5)))
@example((KPoly([quad(10**30 + 1, 3, 2), quad(F(1, 10**9 + 7), 10**25, 2), 1], 2) ** 3,
          KPoly([quad(10**30 + 1, 3, 2), quad(F(1, 10**9 + 7), 10**25, 2), 1], 2) ** 2 * _k(1)))
@example((_k(F(-1, P1), 2, lead=P1), _k(F(-1, P1), 2 - P1, lead=P1)))   # rational, P1 | lc
@example((_k(F(1, 3), 7, 7, d=13), _k(7, F(-2, 9), d=13) * 10**40))     # rational
def test_gcd_over_k_matches_euclid(pair):
    f, g = pair
    want = ElemKPoly.of(f).gcd(ElemKPoly.of(g))
    assert _same_kpoly(f.gcd(g), want) and _same_kpoly(g.gcd(f), want)


def test_gcd_over_k_skips_the_primes_of_a_leading_norm(monkeypatch):
    # P0 divides lc(f) and the norm of lc(g): f mod P0 loses x - 1/P0, and at
    # one embedding g loses its root 1/(sqrt2 - T0), so no image is taken there
    seen, gcd = [], modp.gcd
    monkeypatch.setattr(modp, "gcd", lambda f, g, p: seen.append(p) or gcd(f, g, p))
    f = _k(F(1, P0), 2, lead=P0)
    assert f.gcd(_k(F(1, P0), 3, lead=P0)) == _k(F(1, P0))
    assert P0 not in seen and seen
    seen.clear()
    g = KPoly([1, T0 - R2], 2) * _k(5)
    assert g.gcd(KPoly([1, T0 - R2], 2) * _k(R2)) == KPoly([1, T0 - R2], 2).monic()
    assert P0 not in seen and seen


def test_gcd_over_k_stops_at_its_prime_budget(monkeypatch):
    # a mutant of _gcd_k that takes images at a prime dividing a leading
    # norm, stripped of their vanished top: in the P0 | N(lc) example the
    # image of f at t vanishes, its x - 5 is kept as an image of the gcd,
    # and no candidate ever certifies; in the rational pair (P1 x + 1) (x - 2)
    # and (P1 x + 1) (x + P1 - 2) both images at P1 lose P1 x + 1 and keep
    # x - 2.  The prime budget ends the loop
    import inspect
    import textwrap

    from cfperiod import kpoly

    skip = "if any((a + b * t) % p == 0 or (a - b * t) % p == 0 for a, b in lcs):"
    source = textwrap.dedent(inspect.getsource(kpoly._gcd_k))
    assert skip in source
    scope = dict(vars(kpoly), _image=lambda f, t, p: modp._strip(
        [(a + b * t) % p for a, b in zip(f.A, f.B)]))
    exec(source.replace(skip, "if False:"), scope)
    monkeypatch.setattr(kpoly, "_gcd_k", scope["_gcd_k"])
    tried = []

    def spy(a, b, p, _gcd=modp.gcd):
        tried.append(p)
        if len(tried) > 1000:  # without a budget the loop would not end
            raise RuntimeError("no prime budget")
        return _gcd(a, b, p)

    monkeypatch.setattr(modp, "gcd", spy)
    pairs = [(_k(2, lead=T0 - R2) * KPoly([1, T0 - R2], 2), _k(5) * KPoly([1, T0 - R2], 2), P0, 2),
             (_k(F(-1, P1), 2, lead=P1), _k(F(-1, P1), 2 - P1, lead=P1), P1, 1)]
    for f, g, first, images in pairs:
        tried.clear()
        with pytest.raises(InternalInvariantError, match="no certified gcd"):
            f.gcd(g)
        assert first in tried and len(tried) == images * len(set(tried))
        assert len(set(tried)) == kpoly._prime_budget(f, g)


def test_kpoly_hash_reads_the_integers():
    # equal polynomials hash alike however they were built, and hashing
    # builds no QuadElem view
    d = 5
    built = [KPoly([F(1, 2), 3, 0], d), KPoly([quad(F(1, 2), 0, d), quad(3, 0, d)], d),
             KPoly([1, 6], d) * KPoly([F(1, 2)], d)]
    assert all(p._view is None for p in built)
    assert len({hash(p) for p in built}) == 1 and all(p == built[0] for p in built)
    assert all(p._view is None for p in built)
    q = KPoly([quad(1, 1, d), 2], d)
    assert hash(q) == hash(KPoly([quad(1, 1, d), quad(2, 0, d)], d)) != hash(q.conj())
    assert q._view is None


def test_kpoly_arithmetic_and_gcd_build_no_quad_elem(monkeypatch):
    # products, divisions and gcds run on integer coordinates: not one QuadElem
    # is made (the reference, one QuadElem per coefficient operation, makes many)
    f = _k(R2, F(1, 3), 1 - R2, lead=quad(2, 1, 2))
    g = _k(R2, F(-1, 3), 5, lead=7)
    h = _k(F(2, 7), quad(1, 1, 2))
    ref_f, ref_g, common, one = ElemKPoly.of(f), ElemKPoly.of(g), _k(R2), KPoly([1], 2)
    made, new = [], qfield._new
    monkeypatch.setattr(qfield, "_new", lambda *a: made.append(a) or new(*a))
    fg = f * g
    quo, rem = divmod(fg + h, g)
    assert fg.exact_div(f) == g and (fg * h).exact_div(h * g) == f and quo == f and rem == h
    assert f.gcd(g) == common and (f * h).gcd(g * h) == common * h and f.gcd(h) == one
    assert made == []
    ref_f * ref_g
    assert made
