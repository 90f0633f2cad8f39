"""Linear recurrences over Q(sqrt(d)) and their minimal characteristic data."""
import math
import random
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfperiod import polyalg, recurrence
from cfperiod.errors import (
    InternalInvariantError,
    MixedFieldError,
    PreconditionViolated,
)
from cfperiod.polyalg import KPoly
from cfperiod.qfield import quad
from cfperiod.recurrence import (
    ZERO_SEQUENCE,
    LinRec,
    diff_sum_parts,
    seq_min_charpoly,
    split_degenerate,
)

from oracles import (BM_MARGIN, SeqWindow, VerificationFailed, WindowTooShort,
                     diff_sum_parts_bm, min_charpoly, sqrt_int, term_by_field_steps)

R2 = sqrt_int(2)
R5 = sqrt_int(5)
FIB = LinRec([1, 1], [quad(0, 0, 5), quad(1, 0, 5)], 5)
PELL_POW = LinRec([2, 1], [quad(1, 0, 2), 1 + R2], 2)  # (1+sqrt2)^n
DEGEN = LinRec(
    [2, 3, -4, -2],
    [quad(2, 0, 2), 1 + 2 * R2, 5 + 2 * R2, 7 + 7 * R2],
    2,
)  # sqrt2^n + (1+sqrt2)^n, interleaved mod 2


# ---------------------------------------------------------------------------
# two-sided term evaluation
# ---------------------------------------------------------------------------

def test_fibonacci_terms_both_directions():
    want = {10: 55, 1: 1, 0: 0, -1: 1, -2: -1, -8: -21}
    for n, v in want.items():
        assert FIB.term(n) == v
        assert FIB.term(n) == v
    for n in range(-10, 11):
        cassini = FIB.term(n - 1) * FIB.term(n + 1) - FIB.term(n) ** 2
        assert cassini == (1 if n % 2 == 0 else -1)


def test_term_closed_form_agreement():
    for n in range(-6, 12):
        assert PELL_POW.term(n) == (1 + R2) ** n


def test_term_cache_is_thread_safe():
    rec = LinRec([6, -7], [quad(1, 0, 2), 3 + R2], 2)
    expected = {n: rec.term(n) for n in range(-30, 60)}
    fresh = LinRec([6, -7], [quad(1, 0, 2), 3 + R2], 2)
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(200):
            n = rng.randrange(-30, 60)
            if fresh.term(n) != expected[n]:
                errors.append(n)

    # eight threads, switched often: several of them may build the
    # reversed sequence of the first n < 0, and each must read equal terms
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_rational_coefficients_supported():
    r = LinRec([F(3, 2), F(5, 2)], [1 + R2, F(5, 2) - R2], 2)
    for n in range(8):
        assert r.term(n) == quad(F(5, 2) ** n, (-1) ** n, 2)


@st.composite
def recurrences_with_denominators(draw):
    """(d, coeffs, initials) of order 1-4: coefficients with denominators
    dividing 1 (M = 1) or drawn up to 6 (M > 1), seeds rational or
    irrational, with or without denominators."""
    d = draw(st.sampled_from((2, 3, 5, 17)))
    k = draw(st.integers(1, 4))
    small = st.integers(-5, 5)
    coeff_den = st.just(1) if draw(st.booleans()) else st.integers(1, 6)
    seed_den = st.just(1) if draw(st.booleans()) else st.integers(1, 9)
    seed_irr = draw(st.booleans())

    def elem(dens, irrational=True):
        den = draw(dens)
        return quad(F(draw(small), den), F(draw(small), den) if irrational else 0, d)

    coeffs = [elem(coeff_den) for _ in range(k)]
    coeffs[-1] = coeffs[-1] or quad(1, 1, d)
    return d, coeffs, [elem(seed_den, seed_irr) for _ in range(k)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(recurrences_with_denominators(), st.lists(st.integers(-300, 80), min_size=1, max_size=4))
@example((2, [quad(F(3, 2), 0, 2), quad(F(5, 2), 0, 2)], [1 + R2, F(5, 2) - R2]), [-300, 60])
@example((5, [quad(1, 0, 5), quad(1, 0, 5)], [quad(0, 0, 5), quad(1, 0, 5)]), [60, -300])
def test_integer_steps_match_the_field_loop(case, calls):
    # the stored terms are the normal forms (A, B, m) of the QuadElem loop,
    # forward and backward (the reversed recurrence's forward steps), down to
    # n = -300 and whatever order the calls come in: backward calls run both
    # before and after forward ones
    d, coeffs, initials = case
    r = LinRec(coeffs, initials, d)
    for n in [-40] + calls + [60, -15, 80, -300]:
        got, want = r.term(n), term_by_field_steps(r, n)
        assert (got.A, got.B, got.m) == (want.A, want.B, want.m), n
    for n in range(-300, 81, 19):
        got, want = r.term(n), term_by_field_steps(r, n)
        assert (got.A, got.B, got.m) == (want.A, want.B, want.m), n


def test_constructor_validation():
    with pytest.raises(PreconditionViolated):
        LinRec([1, 0], [quad(0, 0, 5), quad(1, 0, 5)], 5)  # c_k = 0
    with pytest.raises(PreconditionViolated):
        LinRec([1, 1], [quad(0, 0, 5)], 5)  # wrong initial count
    with pytest.raises(MixedFieldError):
        LinRec([1], [1 + R2], 5)


# ---------------------------------------------------------------------------
# minimal characteristic polynomials: the Berlekamp-Massey oracle, and the
# gcd route of the package
# ---------------------------------------------------------------------------

def test_min_charpoly_fibonacci_window():
    w = SeqWindow(0, tuple(FIB.term(i) for i in range(12)))
    p = min_charpoly(w, 2)
    assert p == KPoly([-1, -1, 1], 5)


def test_min_charpoly_needs_margin():
    assert BM_MARGIN == 8
    with pytest.raises(WindowTooShort):
        min_charpoly(SeqWindow(0, tuple(FIB.term(i) for i in range(3))), 2)


def test_min_charpoly_rejects_non_recurrent_window():
    w = SeqWindow(0, tuple(quad(i * i, 0, 5) for i in range(12)))
    with pytest.raises(VerificationFailed):
        min_charpoly(w, 1)


def test_redundant_order_is_reduced():
    # Fibonacci written with the inflated charpoly (x^2-x-1)(x-2)
    r = LinRec([3, -1, -2], [quad(0, 0, 5), quad(1, 0, 5), quad(1, 0, 5)], 5)
    assert seq_min_charpoly(r) == KPoly([-1, -1, 1], 5)
    for n in range(20):
        assert r.term(n) == FIB.term(n)


def test_min_charpoly_divides_defining_random():
    rng = random.Random(1200)
    for _ in range(30):
        k = rng.randrange(1, 4)
        coeffs = [F(rng.randrange(-4, 5)) for _ in range(k - 1)]
        coeffs.append(F(rng.choice([c for c in range(-4, 5) if c])))
        initials = [quad(rng.randrange(-5, 6), rng.randrange(-3, 4), 2) for _ in range(k)]
        r = LinRec(coeffs, initials, 2)
        m = seq_min_charpoly(r)
        if m is ZERO_SEQUENCE:
            assert all(r.term(i) == 0 for i in range(6))
            continue
        defining = KPoly([quad(-c, 0, 2) for c in reversed(coeffs)] + [quad(1, 0, 2)], 2)
        quo, rem = divmod(defining, m)
        assert rem.is_zero
        # minimality: terms satisfy m but no lower order works
        d = m.degree
        cs = [-c for c in m.coeffs[:-1]]
        for n in range(d, d + 10):
            acc = quad(0, 0, 2)
            for i, c in enumerate(cs):
                acc = acc + c * r.term(n - d + i)
            assert r.term(n) == acc


# ---------------------------------------------------------------------------
# conjugate difference / sum decomposition
# ---------------------------------------------------------------------------

def test_diff_sum_parts_pinned():
    pd, ps = diff_sum_parts(FIB)
    assert pd is ZERO_SEQUENCE
    assert ps == KPoly([-1, -1, 1], 5)

    shifted = LinRec([2, -1], [R5, 1 + R5], 5)  # n + sqrt5
    pd, ps = diff_sum_parts(shifted)
    assert pd == KPoly([-1, 1], 5)
    assert ps == KPoly([1, -2, 1], 5)

    pd, ps = diff_sum_parts(PELL_POW)
    assert pd == KPoly([-1, -2, 1], 2)
    assert ps == KPoly([-1, -2, 1], 2)


def test_diff_sum_parts_pure_k_component():
    r = LinRec([F(1, 2), -1], [R2, quad(0, 0, 2)], 2)
    pd, ps = diff_sum_parts(r)
    assert ps is ZERO_SEQUENCE
    assert pd == KPoly([1, F(-1, 2), 1], 2)


# ---------------------------------------------------------------------------
# degeneracy handling
# ---------------------------------------------------------------------------

def test_nondegenerate_rec_pinned():
    assert polyalg.witness_orders(seq_min_charpoly(FIB)) == ()
    assert polyalg.witness_orders(seq_min_charpoly(LinRec([-1], [quad(1, 0, 2)], 2))) == ()
    assert polyalg.witness_orders(polyalg._over_q(seq_min_charpoly(DEGEN))) == (2,)
    assert polyalg.witness_orders(polyalg._over_q(seq_min_charpoly(PELL_POW))) == ()


def test_split_degenerate_terms_interleave():
    modulus, parts = split_degenerate(DEGEN)
    assert modulus == 2
    assert len(parts) == 2
    for j, part in enumerate(parts):
        for m in range(8):
            assert part.term(m) == DEGEN.term(2 * m + j)
    # both parts share the exponentials {2, 3+2sqrt2}
    for part in parts:
        assert seq_min_charpoly(part) == KPoly([6 + 4 * R2, -(5 + 2 * R2), 1], 2)


def test_split_degenerate_allows_a_zero_part():
    # 1 + (-1)^n: the odd-index part is the zero sequence, which has no roots
    modulus, parts = split_degenerate(LinRec([0, 1], [quad(2, 0, 2), quad(0, 0, 2)], 2))
    assert modulus == 2
    assert seq_min_charpoly(parts[0]) == KPoly([-1, 1], 2)
    assert seq_min_charpoly(parts[1]) is ZERO_SEQUENCE


def test_split_degenerate_on_nondegenerate_is_identity():
    zero = LinRec([1, 1], [quad(0, 0, 5), quad(0, 0, 5)], 5)
    for r in (FIB, zero):
        modulus, parts = split_degenerate(r)
        assert modulus == 1
        assert parts == [r]
        for n in range(6):
            assert parts[0].term(n) == r.term(n)


# ---------------------------------------------------------------------------
# the gcd route against the Berlekamp-Massey oracle
# ---------------------------------------------------------------------------

def _sequence(q, initials, count):
    """The first count terms of the sequence of monic q with these initials."""
    k, cs = q.degree, [-c for c in q.coeffs[:-1]]
    terms = list(initials)
    while len(terms) < count:
        terms.append(sum(c * terms[len(terms) - k + i] for i, c in enumerate(cs)))
    return terms[:count]


@st.composite
def satisfied_recurrences(draw):
    """(d, coeffs, initials): a recurrence of order 1-6 over Q(sqrt(d)) whose
    initials come from the recurrence of a sub-product of its charpoly.

    The charpoly multiplies linear factors x - alpha (alpha != 0), root
    pairs (x - alpha)(x - conj(alpha)), monic quadratics with a nonzero
    constant term, and repeats of earlier factors.  With rational_only every
    factor is rational, so rational initials give D = 0 and initials in
    sqrt(d) * Q give S = 0.
    """
    d = draw(st.sampled_from((2, 3, 5, 6, 7, 13)))
    rational_only = draw(st.booleans())
    small = st.integers(-3, 3)

    def elem(nonzero=False):
        e = quad(draw(small), 0 if rational_only else draw(small), d)
        return e if e or not nonzero else quad(1, 0, d)

    factors = []
    order = draw(st.integers(1, 6))
    while sum(f.degree for f in factors) < order:
        kind = draw(st.sampled_from(("root", "pair", "quadratic", "repeat")))
        if kind == "repeat" and factors:
            f = draw(st.sampled_from(factors))
        elif kind == "pair":
            alpha = quad(draw(small), draw(small), d) or quad(1, 0, d)
            f = KPoly([-alpha, 1], d) * KPoly([-alpha.conj(), 1], d)
        elif kind == "quadratic":
            f = KPoly([elem(nonzero=True), elem(), 1], d)
        else:
            f = KPoly([-elem(nonzero=True), 1], d)
        if sum(g.degree for g in factors) + f.degree <= 6:
            factors.append(f)
    q = math.prod(factors, start=KPoly([1], d))
    kept = draw(st.sets(st.sampled_from(range(len(factors))), min_size=1))
    sub = math.prod((factors[i] for i in sorted(kept)), start=KPoly([1], d))
    kind = draw(st.sampled_from(("any", "rational", "irrational", "zero")))
    if kind == "zero":
        initials = [quad(0, 0, d)] * q.degree
    else:
        ra, rb = {"any": (1, 1), "rational": (1, 0), "irrational": (0, 1)}[kind]
        seed = [quad(ra * draw(small), rb * draw(small), d) for _ in range(sub.degree)]
        seed[0] = seed[0] or quad(ra, rb, d)  # a nonzero first term: a nonzero sequence
        initials = _sequence(sub, seed, q.degree)
    return d, [-c for c in reversed(q.coeffs[:-1])], initials


def _bm_min_charpoly(r):
    return min_charpoly(SeqWindow(0, tuple(r.term(n) for n in range(2 * r.order + BM_MARGIN))),
                        r.order)


@settings(max_examples=300)
@given(satisfied_recurrences())
@example((5, [quad(1, 0, 5), quad(1, 0, 5)], [quad(0, 0, 5), quad(0, 0, 5)]))  # zero
@example((2, [quad(3, 0, 2), quad(-2, 0, 2)], [quad(1, 0, 2), quad(2, 0, 2)]))  # D = 0
@example((2, [quad(3, 0, 2), quad(-2, 0, 2)], [R2, 2 * R2]))                    # S = 0
@example((2, [quad(2, 0, 2), quad(1, 0, 2)], [quad(1, 0, 2), 1 + R2]))          # alpha, conj
@example((5, [quad(3, 0, 5), quad(-3, 0, 5), quad(1, 0, 5)],                   # (x - 1)^3
          [quad(0, 0, 5), R5, 4 * R5]))
@example((3, [quad(3, 0, 3), quad(-1, 0, 3), quad(-2, 0, 3)],                  # inflated
          [quad(0, 0, 3), quad(1, 0, 3), quad(1, 0, 3)]))
# N = (x - 2)^2 (x^2 - 2x - 1): D takes x - 2 once, S none of it
@example((2, [quad(3, 1, 2), quad(-2, -2, 2)], [quad(1, 1, 2), quad(1, 3, 2)]))
@example((2, [quad(4, 0, 2), quad(-4, 0, 2)],                                  # N = (x - 2)^2,
          [quad(1, 0, 2), quad(2, 2, 2)]))                                     # S takes it once
@example((2, [quad(5, 0, 2), quad(-6, 0, 2)],                                  # N = (x-2)(x-3):
          [quad(1, 1, 2), quad(2, 3, 2)]))                                     # D x-3, S x-2
def test_min_charpolys_match_berlekamp_massey(case):
    d, coeffs, initials = case
    r = LinRec(coeffs, initials, d)
    assert seq_min_charpoly(r) == _bm_min_charpoly(r)
    assert diff_sum_parts(r) == diff_sum_parts_bm(r)


def test_wrong_peel_of_n_is_refused(monkeypatch):
    # two mutants of the peel that builds P_D and P_S from N's factors: an
    # annihilation test that always says yes, and one that says yes once
    # where the answer is no, so one factor is divided out once too often;
    # the certificate, which checks the peel's result on its own, refuses both
    annihilates = recurrence._annihilates
    for rec in (PELL_POW, DEGEN):  # N irreducible; N = (x^2 - 2)(x^2 - 2x - 1)
        lied = []

        def once_too_often(p, terms):
            if annihilates(p, terms) or lied:
                return annihilates(p, terms)
            lied.append(p)
            return True

        for mutant in (lambda p, terms: True, once_too_often):
            monkeypatch.setattr(recurrence, "_annihilates", mutant)
            with pytest.raises(InternalInvariantError, match="fails the recurrence"):
                diff_sum_parts(rec)
        assert lied
