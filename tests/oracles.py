"""Independent numeric oracles used to cross-check the exact implementations.

Everything here works from plain integers/floats through mpmath at high
precision and deliberately shares no code with the package: continued
fractions are run by floor/reciprocal on an mpf, root locations come from
polyroots, and root-of-unity detection is done by angle rationalization.
The reference quadratic walk works on plain integers and finds its cycle with
a first-repeat hash map on (P, Q), not with the reduced-state anchor that
contfrac.expand uses.
The tolerances are calibrated for the test generators in this tree (integer
coefficients of modest height), where on-circle roots are exact and
off-circle roots stay far from the unit circle at 100 digits.
"""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath


def surd_value(a: Fraction, b: Fraction, d: int, dps: int) -> mpmath.mpf:
    """a + b*sqrt(d) as an mpf, no package code involved."""
    with mpmath.workdps(dps):
        return (mpmath.mpf(a.numerator) / a.denominator
                + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(d))


def cf_quotients(x, count: int, dps: int = 200) -> list[int]:
    """First `count` partial quotients of x by floor/reciprocal on an mpf.

    Trustworthy as long as the partial quotients stay far from the precision
    horizon; 200 digits covers a few dozen steps of every fixture used here.
    """
    with mpmath.workdps(dps):
        v = mpmath.mpf(x) if not isinstance(x, mpmath.mpf) else x
        out = []
        for _ in range(count):
            a = int(mpmath.floor(v))
            out.append(a)
            frac = v - a
            if frac < mpmath.mpf(10) ** (-dps + 20):
                break
            v = 1 / frac
        return out


def surd_walk_first_repeat(P: int, Q: int, D: int, max_steps: int):
    """Reference walk of the state (P + sqrt(D))/Q, with Q | D - P^2.

    Returns ("closed", preperiod, period) with a_0 always in the preperiod,
    or ("capped", steps, preperiod_seen) when more than max_steps states
    would be visited; preperiod_seen is the index of the first reduced state
    (index 0 included), or steps if none was seen.  The cycle is found by
    remembering every state from x_1 on.  Floors and the reducedness test
    compare squares of integers with D instead of taking an integer root.
    """
    def sqrt_above(m):  # sqrt(D) > m
        return m < 0 or m * m < D

    def sqrt_below(m):  # sqrt(D) < m
        return m > 0 and m * m > D

    def exceeds(P, Q, a):  # (P + sqrt(D))/Q > a
        return sqrt_above(a * Q - P) if Q > 0 else sqrt_below(a * Q - P)

    def floor_surd(P, Q):
        a = math.floor((P + math.sqrt(D)) / Q)  # estimate, corrected below
        while not exceeds(P, Q, a):
            a -= 1
        while exceeds(P, Q, a + 1):
            a += 1
        return a

    def reduced(P, Q):  # x > 1 and -1 < conj(x) < 0
        return (Q > 0 and exceeds(P, Q, 1)
                and sqrt_above(P) and sqrt_below(P + Q))

    seen: dict[tuple[int, int], int] = {}
    quotients: list[int] = []
    first_reduced = -1
    while True:
        idx = len(quotients)
        if idx >= 1 and (P, Q) in seen:
            j = seen[(P, Q)]
            return "closed", tuple(quotients[:j]), tuple(quotients[j:])
        if idx >= max_steps:
            return "capped", idx, first_reduced if first_reduced >= 0 else idx
        if idx >= 1:
            seen[(P, Q)] = idx
        if first_reduced < 0 and reduced(P, Q):
            first_reduced = idx
        a = floor_surd(P, Q)
        quotients.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q


def poly_roots(coeffs, dps: int = 100):
    """Roots of sum(coeffs[i] * x^i) via polyroots; coeffs are numbers."""
    with mpmath.workdps(dps):
        cs = [mpmath.mpmathify(c) for c in reversed(list(coeffs))]
        while cs and cs[0] == 0:
            cs.pop(0)
        if len(cs) <= 1:
            return []
        return mpmath.polyroots(cs, maxsteps=1000, extraprec=200)


def circle_counts(coeffs, dps: int = 100, band: float = 1e-40):
    """(inside, on, outside) counts of the unit-circle location of all roots.

    A root counts as "on" when ||z| - 1| < band; the generators guarantee
    that genuine on-circle roots are exact (cyclotomic factors) and genuine
    off-circle roots are separated by far more than the band.
    """
    inside = on = outside = 0
    with mpmath.workdps(dps):
        for z in poly_roots(coeffs, dps):
            m = abs(z)
            if abs(m - 1) < band:
                on += 1
            elif m < 1:
                inside += 1
            else:
                outside += 1
    return inside, on, outside


def is_root_of_unity_numeric(z, max_order: int, dps: int = 100) -> bool:
    """Angle-rationalization check that z is an exact root of unity.

    |z| must be within the band of 1; the angle divided by 2*pi is
    rationalized with denominator <= max_order and the candidate order is
    confirmed by direct powering.
    """
    with mpmath.workdps(dps):
        if abs(abs(z) - 1) > mpmath.mpf("1e-40"):
            return False
        theta = mpmath.arg(z) / (2 * mpmath.pi)
        cand = Fraction(float(theta)).limit_denominator(max_order)
        n = cand.denominator
        return abs(z ** n - 1) < mpmath.mpf("1e-30")


def degenerate_ratio_numeric(coeff_pairs, d: int, over_q: bool,
                             max_order: int, dps: int = 100) -> bool:
    """True iff some ratio of distinct roots is a root of unity, numerically.

    coeff_pairs are (a: Fraction, b: Fraction) coordinates of coefficients in
    Q(sqrt(d)), ascending.  over_q additionally throws the conjugate
    polynomial's roots into the pool, mirroring ratios of Galois conjugates.
    """
    with mpmath.workdps(dps):
        emb = [surd_value(a, b, d, dps) for a, b in coeff_pairs]
        pool = list(poly_roots(emb, dps))
        if over_q:
            conj = [surd_value(a, -b, d, dps) for a, b in coeff_pairs]
            pool += list(poly_roots(conj, dps))
        pool = [z for z in pool if abs(z) > mpmath.mpf("1e-40")]
        for i, zi in enumerate(pool):
            for j, zj in enumerate(pool):
                if i == j or abs(zi - zj) < mpmath.mpf("1e-40"):
                    continue
                if is_root_of_unity_numeric(zi / zj, max_order, dps):
                    return True
        return False
