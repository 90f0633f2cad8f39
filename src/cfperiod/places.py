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
Every log|x|_v comes from ``log_abs``: the exact exponent -ord_w(x) at a
finite place, a certified enclosure at a real one.  ``growth_rows`` walks a
growth job's range once and returns the CLI's rows, each n with its printed
log, together with the verdict it reads off the same values;
``growth_profile`` reads log_abs too.  The dominant root is exact at finite
places (Newton polygon slopes) and certified at the real ones, where strict
>1 facts come from the exact circle profile and arch_dominant_log forms its
log once for the verdict and the CLI.  All real-place numerics live here and
read elements through qfield: a row's sigma_v(x) is image_tuple of x's
integers, the root boxes' coefficients to_mpf.  A log enclosure at dps digits
is mpf_log of that tuple at 2 * dps digits, with ends (|log| + 1) * 10^-dps on
either side at ARCH_DPS, and a power of two no closer at any other dps, each
an mpmath.libmp operation rounded to nearest: no row enters a precision
context.  Every printed log and verdict is that of an
enclosure at ARCH_DPS = 60 digits; growth_rows computes one only for a row
that its enclosure at ROW_DPS = 20 digits leaves undecided, and
log_abs_centre, the float of each point of the CLI's limit estimate, only
when the ROW_DPS ends round to different floats.  Root boxes run
in mpmath.workdps at ARCH_DPS digits, escalated up to 16 times that until
certified.  One growth job runs
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
from .modp import sqrt_mod
from .polyalg import circle_profile, factor_k, witness_orders
from .qfield import QuadElem, image_tuple, to_mpf
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
    """The finite places of Q(sqrt(d)) lying above the rational prime p."""
    from sympy import isprime

    if not isprime(p):
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
    """log|A_n|_v: exact (coeff * log base) at finite places, enclosure at real."""

    n: int
    base: int | None           # p^f at finite places, None at real embeddings
    coeff: int | None          # -ord_w(A_n)
    enclosure: tuple | None    # (lo, hi) mpf log bounds at real embeddings


def log_abs(x: QuadElem, v: Place, dps: int = ARCH_DPS):
    """log|x|_v for x != 0: at a finite place the exact exponent
    -ord_w(x) (log|x|_v = -ord_w(x) * log(p^f)), at a real place a certified
    enclosure (lo, hi) of log|sigma_v(x)| with both ends formed at 2 * dps
    digits (dps has no effect at a finite place).
    """
    if v.kind == "finite":
        return -val(x, v)
    return _log_abs_real(x, v.embedding, dps)


@functools.cache
def _enclosure_scale(dps: int) -> tuple[int, int, tuple]:
    """(prec, k, ten) for an enclosure at dps digits: its working precision
    dps_to_prec(2 * dps), k with 2^k <= 10^dps < 2^(k + 1), and 10^dps as an
    exact mpmath.libmp tuple, formed once per dps."""
    import mpmath

    libmp = mpmath.libmp
    return (libmp.dps_to_prec(2 * dps), (10 ** dps).bit_length() - 1,
            libmp.from_int(10 ** dps))


def _log_abs_real(x: QuadElem, embedding: int, dps: int = ARCH_DPS):
    """sigma(x) is qfield.image_tuple of x's integers (B negated at the second
    embedding) at 2 * dps digits, free of cancellation, so its log, mpf_log
    of that tuple at the same precision, is good to about that many digits.
    At ARCH_DPS the ends sit (|log| + 1) * 10^-dps on either side of it; at
    any other dps, the filter growth_rows reads first, they sit a power of
    two 2^(e - k) no closer, with 2^e >= |log| + 1 read off the log's
    exponent and 2^k <= 10^dps.  No precision context is entered."""
    if x == 0:
        raise ZeroInput("log of 0")
    import mpmath

    libmp = mpmath.libmp
    prec, k, ten = _enclosure_scale(dps)
    rnd = libmp.round_nearest
    sigma = image_tuple(x.A, x.B if embedding == 1 else -x.B, x.m, x.d, prec)
    lg = libmp.mpf_log(libmp.mpf_abs(sigma), prec, rnd)
    if dps == ARCH_DPS:
        eps = libmp.mpf_div(libmp.mpf_add(libmp.mpf_abs(lg), libmp.fone, prec, rnd),
                            ten, prec, rnd)
    else:
        # |log| < 2^(exp + bc), so |log| + 1 <= 2^e
        eps = (0, 1, max(lg[2] + lg[3], 0) + 1 - k, 1)
    make = mpmath.mp.make_mpf
    return make(libmp.mpf_sub(lg, eps, prec, rnd)), make(libmp.mpf_add(lg, eps, prec, rnd))


def enclosure_centre(lo, hi) -> float:
    """float((lo + hi) / 2) for the ends of a log_abs enclosure, formed on
    their tuples: lo + hi rounded to nearest at 53 bits, then halved exactly,
    with no mpf arithmetic and whatever the caller's mpmath precision."""
    import mpmath

    libmp = mpmath.libmp
    total = libmp.mpf_add(lo._mpf_, hi._mpf_, 53, libmp.round_nearest)
    return libmp.to_float(libmp.mpf_shift(total, -1), rnd=libmp.round_nearest)


def log_abs_centre(x: QuadElem, v: Place) -> float:
    """enclosure_centre of log_abs(x, v) at ARCH_DPS for a real place v.

    The ROW_DPS enclosure holds the ARCH_DPS one, and rounding to a float is
    monotone: when its two ends round to one float, that float is the
    ARCH_DPS centre, and log_abs runs at ARCH_DPS only otherwise."""
    import mpmath

    libmp = mpmath.libmp
    lo, hi = (libmp.to_float(e._mpf_, rnd=libmp.round_nearest)
              for e in log_abs(x, v, ROW_DPS))
    return lo if lo == hi else enclosure_centre(*log_abs(x, v))


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
def arch_dominant_log(r: LinRec, v: Place):
    """log|alpha_1|_v at a real place, mpf_log at 2 * ARCH_DPS digits of the
    high bound of arch_dominant_bounds: growth_rows compares against it, and
    the CLI's bound column prints its float, which keeps its relative
    precision when hi lies within 2^-53 of 1."""
    import mpmath

    libmp = mpmath.libmp
    hi = arch_dominant_bounds(r, v)[1]._mpf_
    return mpmath.mp.make_mpf(
        libmp.mpf_log(hi, libmp.dps_to_prec(2 * ARCH_DPS), libmp.round_nearest))


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
    valuations.  At the real embeddings a row is read off a log_abs
    enclosure at ROW_DPS digits, and again at ARCH_DPS only when that one
    leaves undecided the printed digits (its ends' floats print differently)
    or, in the tail, the comparison of the ARCH_DPS enclosure's low end with
    (1 - eps) n log|alpha_1|_v: the printed string and the verdict are those
    of an ARCH_DPS enclosure on every row.
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
    # threshold(n) = (1 - eps) n log|alpha_1|_v, the high root bound's log,
    # on libmp tuples at 2 * ARCH_DPS digits with each product rounded to
    # nearest.  A row's ROW_DPS enclosure holds its ARCH_DPS one: the radii
    # differ by at least a factor 10^(ARCH_DPS - ROW_DPS), and by far more
    # than the two logs' errors.  n c_dn and n c_up, rounded outward at 128
    # bits, bracket threshold(n), which its roundings move by far less than
    # 2^-120 of itself.
    # So a row passes when its low end is not below the bracket, fails when
    # its high end is below the bracket, and is computed again otherwise.
    import mpmath

    libmp = mpmath.libmp
    prec, rnd = libmp.dps_to_prec(2 * ARCH_DPS), libmp.round_nearest
    up, down = libmp.round_ceiling, libmp.round_floor
    lt, mul, mul_int, to_float = libmp.mpf_lt, libmp.mpf_mul, libmp.mpf_mul_int, libmp.to_float
    frac = libmp.mpf_sub(libmp.fone, libmp.mpf_div(
        libmp.from_int(eps.numerator, prec, rnd), libmp.from_int(eps.denominator),
        prec, rnd), prec, rnd)
    log_a1 = arch_dominant_log(r, v)._mpf_
    slope = mul(frac, log_a1)  # exact, and > 0
    c_dn = mul(slope, libmp.from_man_exp(2 ** 120 - 1, -120), 128, down)
    c_up = mul(slope, libmp.from_man_exp(2 ** 120 + 1, -120), 128, up)
    for n in range(n_lo, n_hi + 1):
        a = r.term(n)
        if a == 0:
            passed = passed and n < tail
            continue
        lo, hi = (t._mpf_ for t in log_abs(a, v, ROW_DPS))
        # rounding to a float and printing 12 digits are monotone: ends that
        # print alike print every value between them alike, the centre of
        # the ARCH_DPS enclosure included
        f_lo, f_hi = to_float(lo, rnd=rnd), to_float(hi, rnd=rnd)
        shown = fmt_float(f_lo)
        decided = f_lo == f_hi or shown == fmt_float(f_hi)
        if decided and passed and n >= tail:
            c_lo, c_hi = (c_dn, c_up) if n >= 0 else (c_up, c_dn)
            if lt(lo, mul_int(c_hi, n, 128, up)):
                if lt(hi, mul_int(c_lo, n, 128, down)):
                    passed = False
                else:
                    decided = False
        if not decided:
            lo, hi = log_abs(a, v)
            shown = fmt_float(enclosure_centre(lo, hi))
            if passed and n >= tail:
                passed = not lt(lo._mpf_, mul(mul_int(frac, n, prec, rnd), log_a1, prec, rnd))
        rows.append((n, shown))
    return rows, passed
