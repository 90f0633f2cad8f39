"""Places of K = Q(sqrt(d)): valuations, log absolute values, and growth checks.

Finite places are identified by a rational prime together with its splitting
behavior; a split place carries its branch, the residue of one p-adic root t
of d (t mod p, or t mod 8 at p = 2).  Valuations are read off the integers
of x = (A + B sqrt(d)) / m: v_p(N(x)) = v_p(A^2 - d B^2) - 2 v_p(m), with
v_p by repeated squaring of p.  At a split place no root is lifted: ord_w is
read off the norm and that one residue, which is checked exactly against
d mod p (mod 16 at p = 2).
Normalization: |x|_w = (p^f)^(-ord_w(x)) with residue degree f, so the product
formula over the two real embeddings and all finite places holds with no
exponent weights.  Ramified places use ord_w(x) = v_p(N(x)) with f = 1, which
keeps sum-over-p consistency and gives |sqrt(2)|_2 = 1/2.

Growth of |A_n|_v along a recurrence is compared against the dominant root.
At a finite place log|x|_v is the exact exponent -ord_w(x); at a real one it
is an integer bracket (lo, hi) over 2^F with proven ends, from
_log_abs_real.  ``growth_rows`` walks a growth job's range once and returns
the CLI's rows, each n with its printed log, together with the verdict it
reads off the same values; ``log_abs_centre`` gives a point of the CLI's
limit estimate.  Only the library API (``log_abs`` at a real place, and
``growth_profile``'s ``LogAbs``) turns the bracket into an mpf pair.  The
dominant root is exact at finite places (Newton polygon slopes) and
certified at the real ones, where strict >1 facts come from the exact
circle profile and arch_dominant_log forms its log once, as a Fraction, for
the verdict and the CLI.  All real-place numerics live here.
A log at a real place is one routine on integers (Brent and Zimmermann,
*Modern Computer Arithmetic*, ch. 4): |sigma_v(x)| 2^K is bracketed from
x's integers with math.isqrt and no cancellation (_abs_image), and its log
by argument reduction to [1, 2), a table of log(1 + j/64) and an atanh
series with a bounded tail, each term floored or ceiled over 2^F
(_log_ints); ln 2 and the table come from the same series, per scale on
first use.  A row's enclosure at dps digits widens that bracket by
(|c| + 1) * 10^-dps on either side at ARCH_DPS, and by a power of two no
closer at any other dps; arch_dominant_log is the same routine on the root
boxes' exact dyadic high bound.  No row imports mpmath, enters a precision
context or builds an mpf.  Every printed log and verdict is that of an
enclosure at ARCH_DPS = 60 digits, its centre the int / int float
(lo + hi) / 2^(F + 1); growth_rows computes one only for a row that its
enclosure at ROW_DPS = 20 digits leaves undecided, and log_abs_centre only
when the ROW_DPS ends round to different floats.  Root boxes read their
coefficients through qfield.to_mpf and run in mpmath.workdps at ARCH_DPS
digits, escalated up to 16 times that until certified.  One growth job runs
in one ``memo.scope()``, which keeps the minimal polynomial, its factors and
the dominant-root bounds, but no term's valuation or enclosure.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    HypothesisViolated,
    InternalInvariantError,
    PrecisionExhausted,
    PreconditionViolated,
    ZeroInput,
)
from .kpoly import KPoly
from .memo import memoized
from .modp import is_prime, sqrt_mod
from .polyalg import circle_profile, factor_k, witness_orders
from .qfield import QuadElem, to_mpf
from .recurrence import LinRec, ZeroSequence, seq_min_charpoly

ARCH_DPS = 60
ROW_DPS = 20  # below ARCH_DPS, so that a row's enclosure holds its ARCH_DPS one


@dataclass(frozen=True)
class Place:
    """A place of K; real embeddings are kind="real" with embedding 1 or 2."""

    d: int
    kind: str                    # "real" | "finite"
    embedding: int | None = None  # 1: sqrt(d) -> +sqrt(d), 2: -> -sqrt(d)
    p: int | None = None
    splitting: str | None = None  # "split" | "inert" | "ramified"
    branch: int | None = None     # split only: t mod 8 (p=2) or t mod p
    f: int = 1                    # residue degree

    def __str__(self):
        if self.kind == "real":
            return f"real embedding {self.embedding} of Q(sqrt({self.d}))"
        extra = f", branch t={self.branch}" if self.branch is not None else ""
        return f"{self.splitting} place above {self.p} in Q(sqrt({self.d})){extra}"


def real_places(d: int) -> list[Place]:
    return [Place(d, "real", embedding=1), Place(d, "real", embedding=2)]


def places_above(p: int, d: int) -> list[Place]:
    """The finite places of Q(sqrt(d)) lying above the rational prime p,
    which modp.is_prime decides: PreconditionViolated for a p it cannot
    test, at or above its deterministic range."""
    try:
        prime = is_prime(p)
    except ValueError as exc:
        raise PreconditionViolated(str(exc)) from None
    if not prime:
        raise PreconditionViolated(f"{p} is not prime")
    if p == 2:
        if d % 4 in (2, 3):
            return [Place(d, "finite", p=2, splitting="ramified", f=1)]
        if d % 8 == 5:
            return [Place(d, "finite", p=2, splitting="inert", f=2)]
        # d = 1 mod 8: split; the two branches are the residues mod 8 of the
        # two 2-adic square roots, the odd b with b^2 = d mod 16
        return [Place(d, "finite", p=2, splitting="split", branch=b, f=1)
                for b in (1, 3, 5, 7) if (b * b - d) % 16 == 0]
    if d % p == 0:
        return [Place(d, "finite", p=p, splitting="ramified", f=1)]
    ls = pow(d % p, (p - 1) // 2, p)
    if ls == p - 1:
        return [Place(d, "finite", p=p, splitting="inert", f=2)]
    t = sqrt_mod(d, p)
    return [Place(d, "finite", p=p, splitting="split", branch=b, f=1) for b in sorted((t, p - t))]


def _vp_int(n: int, p: int) -> int:
    """v_p(n) for n != 0: at p = 2 off the lowest set bit, at odd p by
    stripping p, p^2, p^4, ... while they divide, then the same powers back
    down, so v_p(n) = v costs about 2 log2(v) divisions, not v."""
    if n == 0:
        raise ZeroInput("valuation of 0")
    if p == 2:
        return (n & -n).bit_length() - 1
    v, powers, q = 0, [], p
    while n % q == 0:
        n //= q
        v += 1 << len(powers)
        powers.append(q)
        q *= q
    for i in range(len(powers) - 1, -1, -1):  # what is left is below p^(2^len(powers))
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


def val(x: QuadElem, w: Place) -> int:
    """ord_w(x) for a finite place, in the f-normalization described above."""
    if w.kind != "finite":
        raise PreconditionViolated("val is defined for finite places only")
    if x == 0:
        raise ZeroInput("valuation of 0")
    # x = (A + B sqrt(d)) / m has v_p(N(x)) = v_p(A^2 - d B^2) - 2 v_p(m)
    p, A, B = w.p, x.A, x.B
    vm, vn = _vp_int(x.m, p), _vp_int(A * A - x.d * B * B, p)
    if w.splitting == "inert":
        if vn % 2:
            raise InternalInvariantError("odd norm valuation at an inert place")
        return vn // 2 - vm
    if w.splitting == "ramified":
        return vn - 2 * vm
    # split: with p^g the highest power of p that divides both A and B,
    # y = p^-g (A + B sqrt(d)) = A' + B' sqrt(d) maps to (A' + B' t, A' - B' t)
    # in Z_p x Z_p, t the root of d on w's branch, and the ords of the two sum
    # to s = v_p(A'^2 - d B'^2).  At odd p at most one is divisible by p
    # (else p | 2A' and 2B't), so ord_w(y) is s or 0 by A' + B' t mod p.  At
    # p = 2, s = 0 when A' + B' is odd; otherwise A' and B' are odd, s >= 3,
    # and the two differ by 2B't of ord 1: one has ord 1 and the other s - 1,
    # told apart by A' + B' t mod 4
    b = w.branch
    if (b * b - x.d) % (16 if p == 2 else p):
        raise InternalInvariantError(f"branch {b} at {w} is not a root of {x.d}")
    g = min(_vp_int(c, p) for c in (A, B) if c)
    A, B = A // p ** g, B // p ** g
    s = vn - 2 * g
    if p != 2:
        vy = s if (A + B * b) % p == 0 else 0
    elif (A + B) % 2:
        vy = 0
    elif s in (1, 2):
        raise InternalInvariantError(f"v_2 of the norm of {x} is {s} at a split place")
    else:
        vy = s - 1 if (A + B * b) % 4 == 0 else 1
    return g + vy - vm


# ---------------------------------------------------------------------------
# growth along recurrences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogAbs:
    """log|A_n|_v: exact (coeff * log base) at finite places, an enclosure
    with proven mpf ends at real ones."""

    n: int
    base: int | None           # p^f at finite places, None at real embeddings
    coeff: int | None          # -ord_w(A_n)
    enclosure: tuple | None    # (lo, hi) mpf log bounds at real embeddings


def log_abs(x: QuadElem, v: Place, dps: int = ARCH_DPS):
    """log|x|_v for x != 0: at a finite place the exact exponent
    -ord_w(x) (log|x|_v = -ord_w(x) * log(p^f)), at a real place mpf ends
    (lo, hi) that provably hold log|sigma_v(x)|: the integer ends of
    _log_abs_real at dps digits over 2^F, exactly (dps has no effect at a
    finite place).  The library API's form; no row reads it.
    """
    if v.kind == "finite":
        return -val(x, v)
    import mpmath

    F = _enclosure_scale(dps)[0]
    make, from_man_exp = mpmath.mp.make_mpf, mpmath.libmp.from_man_exp
    return tuple(make(from_man_exp(e, -F)) for e in _log_abs_real(x, v.embedding, dps))


_GUARD = 32  # bits of an enclosure's integer scale beyond 10^dps


@functools.cache
def _enclosure_scale(dps: int) -> tuple[int, int, int]:
    """(F, k, 10^dps) for an enclosure at dps digits: 2^k <= 10^dps <
    2^(k + 1), and its ends are integers over 2^F, F = k + _GUARD."""
    ten = 10 ** dps
    k = ten.bit_length() - 1
    return k + _GUARD, k, ten


def _two_atanh(p: int, q: int, F: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^F * 2 atanh(p/q) <= hi, for 0 <= p/q <= 1/3.

    With t = p/q, T = floor(2^F t), Q = floor(T^2 / 2^F), the powers P_0 = T,
    P_(i+1) = floor(P_i Q / 2^F) and s the sum of floor(P_i / (2i + 1)) over
    the n terms before the first P_n = 0: every step floors a nonnegative
    value, so s <= 2^F atanh(t).  With 2^F t^2 - Q < 2t + 1, the shortfall
    d_i of P_i against 2^F t^(2i+1) obeys d_0 < 1 and d_(i+1) < t^(2i+1)
    (2t + 1) + t^2 d_i + 1 <= 14/9 + d_i / 9, so d_i < 7/4; each term is
    short by less than d_i + 1 < 3, and the tail from P_n = 0 on is at most
    d_n / (1 - t^2) < 2.  So 2^F atanh(t) < s + 3n + 2."""
    if not p:
        return 0, 0
    t = (p << F) // q
    t2 = (t * t) >> F
    s, u, i = 0, t, 1
    while u:
        s += u // i
        u = (u * t2) >> F
        i += 2
    return 2 * s, 2 * s + 3 * (i - 1) + 4  # n = (i - 1) / 2


@functools.cache
def _log_step(j: int, F: int) -> tuple[int, int]:
    """Outward integer bounds on 2^F log(1 + j/64) for 0 <= j <= 64, so
    ln 2 at j = 64: 2 atanh(j / (128 + j)) by _two_atanh at F + 16 bits,
    rounded outward to F.  A constant like qfield's sqrt(d): each entry is
    formed on first use and kept."""
    lo, hi = _two_atanh(j, 128 + j, F + 16)
    return lo >> 16, -(-hi >> 16)


def _abs_image(A: int, B: int, m: int, d: int, W: int) -> tuple[int, int, int]:
    """(lo, hi, K) with 2^W <= lo <= |A + B sqrt(d)| / m * 2^K <= hi for
    m > 0 and A + B sqrt(d) != 0, from the integers and math.isqrt.

    E = (|A| + |B| sqrt(d)) 2^j, floored and ceiled, has about W + 2 bits:
    h is chosen so that |A| + |B| sqrt(d) >= 2^(h - 1), and j = W + 2 - h.
    When A and B sqrt(d) have one sign the image is E / (m 2^j); when they
    differ it is |A^2 - d B^2| 2^j / (m E), in which nothing cancels, so a
    value near 2^-1000 keeps its bits.  Each division is floored for lo and
    ceiled for hi, on a numerator shifted to keep lo >= 2^W."""
    a, b2d = abs(A), B * B * d
    h = max(a.bit_length(), (b2d.bit_length() + 1) // 2)
    j = W + 2 - h
    if j >= 0:
        e_lo = (a << j) + math.isqrt(b2d << 2 * j)
        e_hi = e_lo + (B != 0)  # sqrt(B^2 d) is irrational unless B = 0
    else:
        e_lo = (a >> -j) + math.isqrt(b2d >> -2 * j)
        e_hi = e_lo + 2
    if A * B >= 0:
        g = m.bit_length()
        return (e_lo << g) // m, -(-(e_hi << g) // m), j + g
    n = abs(A * A - b2d)
    c = W + 2 + (m * e_hi).bit_length() - n.bit_length()
    n_lo, n_hi = (n << c, n << c) if c >= 0 else (n >> -c, (n >> -c) + 1)
    return n_lo // (m * e_hi), -(-n_hi // (m * e_lo)), c - j


def _log_ints(lo: int, hi: int, K: int, F: int) -> tuple[int, int]:
    """(a, b) with a <= 2^F log(s / 2^K) <= b for every real s in [lo, hi],
    2^6 <= lo <= hi.

    With 2^e <= lo < 2^(e + 1) and j = floor(64 lo / 2^e) - 64, lo = 2^e
    (1 + j/64)(1 + y) with 0 <= y < 1/64, and 1 + y = (1 + t) / (1 - t) for
    t = (64 lo - 2^e (64 + j)) / (64 lo + 2^e (64 + j)), an exact ratio of
    integers below 1/129.  So log(lo / 2^K) = (e - K) ln 2 + log(1 + j/64)
    + 2 atanh(t), each term bounded outward (ln 2 and the table by
    _log_step, the series by _two_atanh), and log(s / lo) <= (hi - lo) / lo
    < (hi - lo) / 2^e adds at most ceil((hi - lo) 2^(F - e)) to b."""
    e = lo.bit_length() - 1
    j = (lo >> (e - 6)) - 64
    base = (64 + j) << e
    a, b = _two_atanh(64 * lo - base, 64 * lo + base, F)
    n = e - K
    l2_lo, l2_hi = _log_step(64, F)
    if n < 0:
        l2_lo, l2_hi = l2_hi, l2_lo
    t_lo, t_hi = _log_step(j, F)
    widen = (((hi - lo) << F) >> e) + 1 if hi != lo else 0
    return n * l2_lo + t_lo + a, n * l2_hi + t_hi + b + widen


def _log_abs_real(x: QuadElem, embedding: int, dps: int = ARCH_DPS) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= 2^F log|sigma(x)| <= hi, F =
    _enclosure_scale(dps)[0]: the one form of an enclosure inside places.

    _abs_image brackets |sigma(x)| 2^K (B negated at the second embedding)
    and _log_ints brackets its log minus K ln 2 by integers a <= b over 2^F,
    F = _enclosure_scale(dps)[0].  The ends are a - r and b + r over 2^F:
    at ARCH_DPS, r = ceil((|c| + 1) 10^-dps 2^F) with c = (a + b) / 2^(F + 1)
    the centre; at any other dps, the filter growth_rows reads first,
    r = 2^(e - k) with 2^e >= |c| + 1 read off the bit length of max(|a|,
    |b|) and 2^k <= 10^dps.  Both radii are nonnegative, so the ends hold
    [a, b], which holds the log.  When |sigma(x)| = 1, a = b = 0 exactly and
    the centre is 0.  Only integer arithmetic runs."""
    if x == 0:
        raise ZeroInput("log of 0")
    F, k, ten = _enclosure_scale(dps)
    lo, hi = _log_ints(*_abs_image(x.A, x.B if embedding == 1 else -x.B, x.m, x.d, F), F)
    if dps == ARCH_DPS:
        r = -(-(abs(lo + hi) + (2 << F)) // (2 * ten))
    else:
        r = 1 << (max(max(-lo, hi).bit_length() - F, 0) + 1 + F - k)
    return lo - r, hi + r


def log_abs_centre(x: QuadElem, v: Place) -> float:
    """The float of the centre of the ARCH_DPS enclosure of log|x|_v at a
    real place v, (lo + hi) / 2^(F + 1) on its integer ends: CPython's
    int / int division rounds correctly, half to even, as lo + hi rounded
    to nearest at 53 bits and then halved exactly would.

    The ROW_DPS enclosure holds the ARCH_DPS one, and rounding to a float is
    monotone: when its two ends round to one float, that float is the
    ARCH_DPS centre, and _log_abs_real runs at ARCH_DPS only otherwise."""
    F = _enclosure_scale(ROW_DPS)[0]
    lo, hi = (e / (1 << F) for e in _log_abs_real(x, v.embedding, ROW_DPS))
    if lo == hi:
        return lo
    lo, hi = _log_abs_real(x, v.embedding)
    return (lo + hi) / (2 << _enclosure_scale(ARCH_DPS)[0])


def fmt_float(x) -> str:
    """The printed form of a float: the nearest float of x to 12 significant
    digits.  A growth row's log is printed so, and growth_rows decides it."""
    return f"{float(x):.12g}"


def growth_profile(r: LinRec, v: Place, n_lo: int, n_hi: int) -> list[LogAbs]:
    """log|A_n|_v for n in [n_lo, n_hi] from log_abs; zero terms are skipped (gaps)."""
    out = []
    for n in range(n_lo, n_hi + 1):
        a = r.term(n)
        if a == 0:
            continue
        e = log_abs(a, v)
        if v.kind == "finite":
            out.append(LogAbs(n, v.p ** v.f, e, None))
        else:
            out.append(LogAbs(n, None, None, e))
    return out


def _newton_polygon_max_slope(p: KPoly, w: Place) -> Fraction | None:
    """Largest lower-hull slope of the w-adic Newton polygon (None if p constant).

    A slope m contributes roots alpha with ord_w(alpha) = -m, so the dominant
    root satisfies |alpha_1|_w = (p^f)^m for the maximum slope m.
    """
    pts = [(i, Fraction(val(c, w))) for i, c in enumerate(p.coeffs) if c != 0]
    if len(pts) < 2:
        return None
    # lower convex hull, left to right
    hull: list[tuple[int, Fraction]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    slopes = [Fraction(y2 - y1, x2 - x1)
              for (x1, y1), (x2, y2) in zip(hull, hull[1:])]
    return max(slopes)


def _charpoly_or_raise(r: LinRec) -> KPoly:
    p = seq_min_charpoly(r)
    if isinstance(p, ZeroSequence) or p.degree < 1:
        raise HypothesisViolated("sequence has no roots")
    return p


def finite_dominant_slope(r: LinRec, w: Place) -> Fraction:
    """max_alpha (-ord_w(alpha)) over charpoly roots, as an exact rational.

    |alpha_1|_w = (p^f)^slope; raises HypothesisViolated when the slope is
    not positive (no root exceeds 1 in absolute value at w).
    """
    slope = _newton_polygon_max_slope(_charpoly_or_raise(r), w)
    if slope is None or slope <= 0:
        raise HypothesisViolated(f"no root with |.|_v > 1 at {w}")
    return slope


def _certified_roots(p, dps: int):
    """(root, radius) pairs for a squarefree p at dps digits, or None when the
    solver fails or two disks meet.  The disk of radius deg * |p(z)/p'(z)|
    holds a root of p; a root z of mpmath's polyroots gets four times that,
    with |p(z)| raised and |p'(z)| lowered by (2 deg + 4) 10^(1 - dps) *
    sum |c_i| |z|^i for the rounding of the coefficients and of Horner's rule
    (else a linear factor, its root a zero of the rounded p, gets radius 0)."""
    import mpmath

    with mpmath.workdps(dps):
        coeffs = [mpmath.mpc(to_mpf(c, dps)) for c in reversed(p.coeffs)]
        deg = len(coeffs) - 1
        try:
            roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=dps * 2)
        except Exception:  # treat any solver failure as "retry with more digits"
            return None
        dcoeffs = [c * (deg - i) for i, c in enumerate(coeffs[:-1])]
        unit = (2 * deg + 4) * mpmath.mpf(10) ** (1 - dps)

        def _eval(cs, z):
            """(|value|, rounding bound) of the polynomial cs at z, by Horner."""
            acc, mag, az = mpmath.mpc(0), mpmath.mpf(0), abs(z)
            for c in cs:
                acc, mag = acc * z + c, mag * az + abs(c)
            return abs(acc), unit * mag

        boxes = []
        for z in roots:
            (pv, pe), (dv, de) = _eval(coeffs, z), _eval(dcoeffs, z)
            if dv <= de:
                return None
            boxes.append((z, 4 * deg * (pv + pe) / (dv - de)))
        for (z1, r1), (z2, r2) in itertools.combinations(boxes, 2):
            if abs(z1 - z2) <= r1 + r2:
                return None
        return boxes


def certified_root_boxes(p):
    """Certified (root, radius) pairs for a squarefree p, at ARCH_DPS digits,
    escalated to 2, 4, 8 and 16 times that until the disks are disjoint."""
    for scale in (1, 2, 4, 8, 16):
        got = _certified_roots(p, scale * ARCH_DPS)
        if got is not None:
            return got
    raise PrecisionExhausted(f"could not certify roots of {p}")


@memoized
def arch_dominant_bounds(r: LinRec, v: Place):
    """(lo, hi) certified bounds on max |sigma_v(alpha)| over charpoly roots.

    Strict dominance (|alpha_1|_v > 1) is certified through the exact circle
    profile before any numerics; HypothesisViolated otherwise.  Per factor,
    lo and hi are the largest |z| - r and |z| + r over its root disks; the
    factor with the largest hi gives the bounds.  Boxes that put every root
    in the closed unit disk contradict the exact count: InternalInvariantError.
    """
    import mpmath

    p = _charpoly_or_raise(r)
    prof_poly = p if v.embedding == 1 else p.conj()
    if circle_profile(prof_poly).outside == 0:
        raise HypothesisViolated(f"no root with |.|_v > 1 at {v}")
    best_lo = best_hi = None
    with mpmath.workdps(ARCH_DPS):
        for pi, _m in factor_k(prof_poly):
            boxes = certified_root_boxes(pi)
            lo = max(abs(z) - rad for z, rad in boxes)
            hi = max(abs(z) + rad for z, rad in boxes)
            if best_hi is None or hi > best_hi:
                best_lo, best_hi = lo, hi
    if best_hi is None or best_hi <= 1:
        raise InternalInvariantError(
            f"root boxes at {v} lie in the unit disk, but the exact count has a root outside")
    return best_lo, best_hi


@memoized
def arch_dominant_log(r: LinRec, v: Place) -> Fraction:
    """log|alpha_1|_v at a real place: the high end of _log_ints on the
    exact dyadic high bound hi of arch_dominant_bounds, an exact Fraction
    over 2^F, so an upper bound on log hi.  growth_rows compares against
    it, and the CLI's bound column prints its float.  F is the ARCH_DPS
    scale plus -z bits when hi - 1 < 2^z for a z < 0, so the log keeps its
    relative precision when hi lies within 2^-53 of 1."""
    _s, man, exp, _bc = arch_dominant_bounds(r, v)[1]._mpf_  # hi = man 2^exp > 1
    F = _enclosure_scale(ARCH_DPS)[0]
    if exp < 0:
        F += max(0, -((man - (1 << -exp)).bit_length() + exp))
    shift = max(0, F + 1 - man.bit_length())
    hi = _log_ints(man << shift, man << shift, shift - exp, F)[1]
    return Fraction(hi, 1 << F)


def root_abs_table(r: LinRec, v: Place) -> list[str]:
    """Human-readable |root|_v lines per irreducible charpoly factor."""
    import mpmath

    p = _charpoly_or_raise(r)
    lines = []
    if v.kind == "finite":
        for pi, m in factor_k(p):
            slope = _newton_polygon_max_slope(pi, v)
            if slope is None:
                continue
            lines.append(f"factor {pi} (mult {m}): max |root|_v = "
                         f"({v.p}^{v.f})^({slope})")
        return lines
    prof = p if v.embedding == 1 else p.conj()
    with mpmath.workdps(ARCH_DPS):
        for pi, m in factor_k(prof):
            mags = sorted(abs(z) for z, _rad in certified_root_boxes(pi))
            shown = ", ".join(mpmath.nstr(x, 8) for x in mags)
            lines.append(f"factor {pi} (mult {m}): |roots|_v = {shown}")
    return lines


def growth_rows(r: LinRec, v: Place, eps: Fraction, n_lo: int, n_hi: int):
    """(rows, passed): the rows (n, printed log|A_n|_v) of the nonzero terms
    of [n_lo, n_hi], and whether |A_n|_v >= |alpha_1|_v^(n(1-eps)) held on
    the range tail.

    One pass computes each row once, and the verdict reads the same values.
    alpha_1 is a dominant root of the minimal charpoly at v; the first 20%
    of the range is discarded as burn-in, and a zero term in the tail fails
    the check.  A row's log prints as fmt_float of -ord_w(A_n) * f * log(p)
    at a finite place, of the centre of an ARCH_DPS enclosure at a real one.
    At finite places the comparison is an exact rational inequality on
    valuations.  At the real embeddings a row is read off the integer ends
    of _log_abs_real at ROW_DPS digits, and again at ARCH_DPS only when
    those leave undecided the printed digits (their floats print
    differently) or, in the tail, the exact comparison of the ARCH_DPS
    enclosure's low end with (1 - eps) n log|alpha_1|_v: the printed string
    and the verdict are those of an ARCH_DPS enclosure on every row.
    """
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise PreconditionViolated("eps must lie strictly between 0 and 1")
    if witness_orders(_charpoly_or_raise(r)):
        raise PreconditionViolated("growth check needs a non-degenerate sequence")

    tail = n_lo + (n_hi - n_lo) // 5
    rows, passed = [], True
    if v.kind == "finite":
        # e >= (1 - eps) n log_a1, compared on integers as e den >= num n
        bound = (1 - eps) * finite_dominant_slope(r, v)
        num, den = bound.numerator, bound.denominator
        log_p = math.log(v.p)
        for n in range(n_lo, n_hi + 1):
            a = r.term(n)
            if a == 0:
                passed = passed and n < tail
                continue
            e = log_abs(a, v, ROW_DPS)
            rows.append((n, fmt_float(e * v.f * log_p)))
            if passed and n >= tail:
                passed = e * den >= num * n
        return rows, passed

    # The verdict compares the low end of each row's ARCH_DPS enclosure with
    # threshold(n) = slope * n, slope = (1 - eps) log|alpha_1|_v, exactly: the
    # log|alpha_1|_v is a dyadic Fraction.  A row's ROW_DPS ends are
    # integers lo <= hi over 2^f_row and hold its ARCH_DPS ones: the radii
    # differ by at least a factor 10^(ARCH_DPS - ROW_DPS), and by far more
    # than the widths of the two proven brackets.  With c_dn <= 2^f_row
    # slope <= c_up, n c_dn and n c_up bracket 2^f_row threshold(n) (the
    # other way round for n < 0).  So a row passes when lo is not below the
    # bracket, fails when hi is below it, and is computed again otherwise.
    # Each float is an integer over a power of two, correctly rounded by
    # int / int.
    f_row, f_arch = _enclosure_scale(ROW_DPS)[0], _enclosure_scale(ARCH_DPS)[0]
    slope = (1 - eps) * arch_dominant_log(r, v)
    c_dn = (slope.numerator << f_row) // slope.denominator
    c_up = -(-(slope.numerator << f_row) // slope.denominator)
    unit = 1 << f_row
    for n in range(n_lo, n_hi + 1):
        a = r.term(n)
        if a == 0:
            passed = passed and n < tail
            continue
        lo, hi = _log_abs_real(a, v.embedding, ROW_DPS)
        # rounding to a float and printing 12 digits are monotone: ends that
        # print alike print every value between them alike, the centre of
        # the ARCH_DPS enclosure included
        f_lo, f_hi = lo / unit, hi / unit
        shown = fmt_float(f_lo)
        decided = f_lo == f_hi or shown == fmt_float(f_hi)
        if decided and passed and n >= tail:
            t_lo, t_hi = (n * c_dn, n * c_up) if n >= 0 else (n * c_up, n * c_dn)
            if lo < t_hi:
                if hi < t_lo:
                    passed = False
                else:
                    decided = False
        if not decided:
            lo, hi = _log_abs_real(a, v.embedding)
            shown = fmt_float((lo + hi) / (2 << f_arch))
            if passed and n >= tail:
                passed = lo * slope.denominator >= n * (slope.numerator << f_arch)
        rows.append((n, shown))
    return rows, passed
