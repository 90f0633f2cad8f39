"""Places of K = Q(sqrt(d)): valuations, log absolute values, and growth checks.

Finite places are identified by a rational prime together with its splitting
behavior; a split place carries its branch, the residue of one p-adic root t
of d (t mod p, or t mod 8 at p = 2).  At a split place no root is lifted:
ord_w is read off the norm and that one residue, which is checked exactly
against d mod p (mod 16 at p = 2).
Normalization: |x|_w = (p^f)^(-ord_w(x)) with residue degree f, so the product
formula over the two real embeddings and all finite places holds with no
exponent weights.  Ramified places use ord_w(x) = v_p(N(x)) with f = 1, which
keeps sum-over-p consistency and gives |sqrt(2)|_2 = 1/2.

Growth of |A_n|_v along a recurrence is compared against the dominant root.
Every log|x|_v comes from ``log_abs``: the exact exponent -ord_w(x) at a
finite place, a certified enclosure at a real one.  ``growth_rows`` walks a
growth job's range once, calls log_abs once per nonzero term, and returns
the CLI's rows together with the verdict it reads off the same values;
``growth_profile`` reads log_abs too.  The dominant root is exact at finite
places (Newton polygon slopes) and certified at the real ones, where strict
>1 facts come from the exact circle profile and arch_dominant_log forms its
log once for the verdict and the CLI.  All real-place numerics live here and
read elements through qfield.to_mpf.  A log enclosure is mpf_log of
to_mpf's tuple, its ends and the verdict's per-row comparison are
mpmath.libmp operations, each rounded to nearest at 2 * ARCH_DPS digits: no
row enters a precision context.  Root boxes run in mpmath.workdps at
ARCH_DPS = 60 digits, escalated up to 16 times that until certified.  One
growth job runs in one ``memo.scope()``, which keeps the minimal
polynomial, its factors and the dominant-root bounds, but no term's
valuation or enclosure.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    HypothesisViolated,
    InternalInvariantError,
    PrecisionExhausted,
    PreconditionViolated,
    ZeroInput,
)
from .memo import memoized
from .polyalg import KPoly, circle_profile, factor_k, witness_orders
from .qfield import QuadElem, to_mpf
from .recurrence import LinRec, ZeroSequence, seq_min_charpoly

ARCH_DPS = 60


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
    from sympy.ntheory.residue_ntheory import sqrt_mod

    return [Place(d, "finite", p=p, splitting="split", branch=int(t), f=1)
            for t in sorted(sqrt_mod(d % p, p, all_roots=True))]


def _vp_int(n: int, p: int) -> int:
    if n == 0:
        raise ZeroInput("valuation of 0")
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _vp_fraction(q: Fraction, p: int) -> int:
    return _vp_int(q.numerator, p) - _vp_int(q.denominator, p)


def val(x: QuadElem, w: Place) -> int:
    """ord_w(x) for a finite place, in the f-normalization described above."""
    if w.kind != "finite":
        raise PreconditionViolated("val is defined for finite places only")
    if x == 0:
        raise ZeroInput("valuation of 0")
    p = w.p
    nrm = x.norm()
    vn = _vp_fraction(nrm, p)
    if w.splitting == "inert":
        if vn % 2:
            raise InternalInvariantError("odd norm valuation at an inert place")
        return vn // 2
    if w.splitting == "ramified":
        return vn
    # split: x = (A + B sqrt(d)) / m.  With p^g the highest power of p that
    # divides both A and B, y = p^-g (A + B sqrt(d)) = A' + B' sqrt(d) maps to
    # (A' + B' t, A' - B' t) in Z_p x Z_p, t the root of d on w's branch, and
    # the ords of the two sum to s = v_p(A'^2 - d B'^2).  At odd p at most one
    # is divisible by p (else p | 2A' and 2B't), so ord_w(y) is s or 0 by
    # A' + B' t mod p.  At p = 2, s = 0 when A' + B' is odd; otherwise A' and
    # B' are odd, s >= 3, and the two differ by 2B't of ord 1: one has ord 1
    # and the other s - 1, told apart by A' + B' t mod 4
    A, B, m, b = x.A, x.B, x.m, w.branch
    if (b * b - x.d) % (16 if p == 2 else p):
        raise InternalInvariantError(f"branch {b} at {w} is not a root of {x.d}")
    vm = _vp_int(m, p)
    g = min(_vp_int(c, p) for c in (A, B) if c)
    A, B = A // p ** g, B // p ** g
    s = vn + 2 * vm - 2 * g
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


def log_abs(x: QuadElem, v: Place):
    """log|x|_v for x != 0: at a finite place the exact exponent
    -ord_w(x) (log|x|_v = -ord_w(x) * log(p^f)), at a real place a certified
    enclosure (lo, hi) of log|sigma_v(x)| with both ends formed at
    2 * ARCH_DPS digits.
    """
    if v.kind == "finite":
        return -val(x, v)
    return _log_abs_real(x, v.embedding)


@functools.cache
def _ten_to_arch_dps():
    """10^ARCH_DPS as an exact mpmath.libmp tuple, built once."""
    import mpmath

    return mpmath.libmp.from_int(10 ** ARCH_DPS)


def _log_abs_real(x: QuadElem, embedding: int):
    """sigma(x) is to_mpf of x (or of its conjugate) at 2 * ARCH_DPS digits,
    free of cancellation, so its log, mpf_log of that tuple at the same
    precision, is good to about that many digits; the ends of the enclosure
    sit (|log| + 1) * 10^-ARCH_DPS on either side of it.  No precision
    context is entered."""
    if x == 0:
        raise ZeroInput("log of 0")
    import mpmath

    libmp = mpmath.libmp
    prec, rnd = libmp.dps_to_prec(2 * ARCH_DPS), libmp.round_nearest
    sigma = to_mpf(x if embedding == 1 else x.conj(), 2 * ARCH_DPS)._mpf_
    lg = libmp.mpf_log(libmp.mpf_abs(sigma), prec, rnd)
    eps = libmp.mpf_div(libmp.mpf_add(libmp.mpf_abs(lg), libmp.fone, prec, rnd),
                        _ten_to_arch_dps(), prec, rnd)
    make = mpmath.mp.make_mpf
    return make(libmp.mpf_sub(lg, eps, prec, rnd)), make(libmp.mpf_add(lg, eps, prec, rnd))


def enclosure_centre(lo, hi) -> float:
    """float((lo + hi) / 2) for the ends of a log_abs enclosure, formed on
    their tuples: lo + hi rounded to nearest at the context precision, then
    halved exactly, with no mpf arithmetic."""
    import mpmath

    libmp = mpmath.libmp
    total = libmp.mpf_add(lo._mpf_, hi._mpf_, mpmath.mp.prec, libmp.round_nearest)
    return libmp.to_float(libmp.mpf_shift(total, -1), rnd=libmp.round_nearest)


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
    """(rows, passed): the rows (n, log_abs(A_n, v)) of the nonzero terms of
    [n_lo, n_hi], and whether |A_n|_v >= |alpha_1|_v^(n(1-eps)) held on the
    range tail.

    One pass computes each row's log_abs once, and the verdict reads that
    value.  alpha_1 is a dominant root of the minimal charpoly at v; the
    first 20% of the range is discarded as burn-in, and a zero term in the
    tail fails the check.  At finite places the comparison is an exact
    rational inequality on valuations; at the real embeddings certified
    enclosures are compared conservatively.
    """
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise PreconditionViolated("eps must lie strictly between 0 and 1")
    if witness_orders(_charpoly_or_raise(r)):
        raise PreconditionViolated("growth check needs a non-degenerate sequence")

    # log|A_n|_v >= (1 - eps) n log|alpha_1|_v: exact at a finite place; at a
    # real one the low end of each enclosure against the high root bound, on
    # libmp tuples at 2 * ARCH_DPS digits with each product rounded to nearest
    finite = v.kind == "finite"
    if finite:
        frac, log_a1 = 1 - eps, finite_dominant_slope(r, v)
    else:
        import mpmath

        libmp = mpmath.libmp
        prec, rnd = libmp.dps_to_prec(2 * ARCH_DPS), libmp.round_nearest
        frac = libmp.mpf_sub(libmp.fone, libmp.mpf_div(
            libmp.from_int(eps.numerator, prec, rnd), libmp.from_int(eps.denominator),
            prec, rnd), prec, rnd)
        log_a1 = arch_dominant_log(r, v)._mpf_
    tail = n_lo + (n_hi - n_lo) // 5
    rows, passed = [], True
    for n in range(n_lo, n_hi + 1):
        a = r.term(n)
        if a == 0:
            passed = passed and n < tail
            continue
        e = log_abs(a, v)
        rows.append((n, e))
        if not passed or n < tail:
            continue
        if finite:
            passed = e >= frac * n * log_a1
        else:
            passed = not libmp.mpf_lt(e[0]._mpf_, libmp.mpf_mul(
                libmp.mpf_mul_int(frac, n, prec, rnd), log_a1, prec, rnd))
    return rows, passed
