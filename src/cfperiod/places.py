"""Places of K = Q(sqrt(d)): valuations, log absolute values, and growth checks.

Finite places are identified by a rational prime together with its splitting
behavior; split places carry a Hensel branch (a root t of x^2 = d mod p^k).
At a split place the branch root is Newton-lifted to the precision a valuation
needs (about log k steps, not k one-bit steps at p = 2) and checked exactly
against d mod p^k.
Normalization: |x|_w = (p^f)^(-ord_w(x)) with residue degree f, so the product
formula over the two real embeddings and all finite places holds with no
exponent weights.  Ramified places use ord_w(x) = v_p(N(x)) with f = 1, which
keeps sum-over-p consistency and gives |sqrt(2)|_2 = 1/2.

Growth of |A_n|_v along a recurrence is compared against the dominant root.
Every log|x|_v comes from ``log_abs``: the exact exponent -ord_w(x) at a
finite place, a certified enclosure at a real one; the CLI's rows,
``growth_profile`` and ``growth_check`` all read it.  The dominant root is
exact at finite places (Newton polygon slopes) and certified at the real
ones, where strict >1 facts come from the exact circle profile.  Real-place
numerics run at one fixed precision, ARCH_DPS = 60 digits; log enclosures
are formed at twice that.  One growth job runs in one ``memo.scope()``,
which computes each of these facts once.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    HypothesisViolated,
    InternalInvariantError,
    PreconditionViolated,
    ZeroInput,
)
from .memo import memoized
from .polyalg import KPoly, certified_root_boxes, circle_profile, factor_k
from .qfield import QuadElem
from .recurrence import LinRec, ZeroSequence, nondegenerate_rec, seq_min_charpoly

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


def _sqrt_mod_prime_power(d: int, p: int, k: int) -> list[int]:
    from sympy.ntheory.residue_ntheory import sqrt_mod

    roots = sqrt_mod(d % p ** k, p ** k, all_roots=True)
    return sorted(int(t) for t in roots)


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
        # two 2-adic square roots (read off roots mod 16 to kill ghost roots)
        reps = sorted({t % 8 for t in _sqrt_mod_prime_power(d, 2, 4)})
        if len(reps) != 2:
            raise InternalInvariantError(f"expected 2 branch classes mod 8, got {reps}")
        return [Place(d, "finite", p=2, splitting="split", branch=t, f=1)
                for t in reps]
    if d % p == 0:
        return [Place(d, "finite", p=p, splitting="ramified", f=1)]
    ls = pow(d % p, (p - 1) // 2, p)
    if ls == p - 1:
        return [Place(d, "finite", p=p, splitting="inert", f=2)]
    roots = _sqrt_mod_prime_power(d, p, 1)
    return [Place(d, "finite", p=p, splitting="split", branch=t, f=1)
            for t in sorted(roots)]


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


def _branch_root(w: Place, k: int) -> int:
    """t with t^2 = d mod p^k on w's branch (split places only).

    Newton lifting: at p = 2 a root t mod 2^j (j >= 3) goes to
    t - ((t^2 - d)/2) / t, a root mod 2^(2j-2) in the same class mod 2^(j-1)
    (the division needs 1/t mod 2^(j-1) only);
    at odd p a root mod p^j goes to t - (t^2 - d) / (2t), a root mod p^(2j).
    The result is checked exactly against d mod p^k.
    """
    p, d = w.p, w.d
    pk = p ** k
    if p == 2:
        # the branch rep is a root mod 16 (places_above reads it off those);
        # u = 1/t mod 2^(j-1) is lifted alongside by u <- u (2 - t u), and an
        # odd t is its own inverse mod 8
        t = u = w.branch
        j = 4
        while j < k:
            j = 2 * j - 2
            mod = 1 << j
            t = (t - ((t * t - d) >> 1) * u) % mod
            u = u * (2 - t * u) % mod
    else:
        t, mod = w.branch % p, p
        while mod < pk:
            mod = min(mod * mod, pk)
            t = (t - (t * t - d) * pow(2 * t, -1, mod)) % mod
    t %= pk
    if (t * t - d) % pk:
        raise InternalInvariantError(f"branch lift at {w} failed mod {p}^{k}")
    return t


@memoized
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
    # split: ord = v_p(A + B t) - v_p(m) for x = (A + B sqrt(d)) / m.  A + B
    # sqrt(d) is integral at both places above p, so its ord here is at most
    # v_p(A^2 - d B^2) = vn + 2 vm < k - 2: one root mod p^k settles it (at
    # p = 2 that root is the branch's only mod 2^(k-1), hence slack 2)
    A, B, m = x.A, x.B, x.m
    vm = _vp_int(m, p)
    k = max(abs(vn) + 2 * vm + 4, 8)
    s = (A + B * _branch_root(w, k)) % p ** k
    v = _vp_int(s, p) if s else k
    if v >= k - (2 if p == 2 else 1):
        raise InternalInvariantError(f"ord at {w} for {x} not settled mod {p}^{k}")
    return v - vm


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
    """log|x|_v for x != 0, memoized: at a finite place the exact exponent
    -ord_w(x) (log|x|_v = -ord_w(x) * log(p^f)), at a real place a certified
    enclosure (lo, hi) of log|sigma_v(x)| with both ends formed at
    2 * ARCH_DPS digits.
    """
    if v.kind == "finite":
        return -val(x, v)
    return _log_abs_real(x, v.embedding)


@memoized
def _log_abs_real(x: QuadElem, embedding: int):
    """|sigma(x)| = |A + B*sqrt(d)|/m is evaluated without cancellation (when A
    and B*sqrt(d) differ in sign, as |A^2 - d*B^2| / (|A| + |B|*sqrt(d))), so
    its log is good to about 2 * ARCH_DPS digits; the ends of the enclosure
    sit (|log| + 1) * 10^-ARCH_DPS on either side of it."""
    if x == 0:
        raise ZeroInput("log of 0")
    import mpmath

    A, B = x.A, (x.B if embedding == 1 else -x.B)
    with mpmath.workdps(2 * ARCH_DPS):
        top = abs(A) + abs(B) * mpmath.sqrt(x.d)
        mag = abs(A * A - x.d * B * B) / (top * x.m) if A * B < 0 else top / x.m
        lg = mpmath.log(mag)
        eps = (abs(lg) + 1) * mpmath.mpf(10) ** (-ARCH_DPS)
        return lg - eps, lg + eps


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


@memoized
def arch_dominant_bounds(r: LinRec, v: Place):
    """(lo, hi) certified bounds on max |sigma_v(alpha)| over charpoly roots.

    Strict dominance (|alpha_1|_v > 1) is certified through the exact circle
    profile before any numerics; HypothesisViolated otherwise.  Per factor,
    lo and hi are the largest |z| - r and |z| + r over its root disks; the
    factor with the largest hi gives the bounds.
    """
    import mpmath

    p = _charpoly_or_raise(r)
    prof_poly = p if v.embedding == 1 else p.conj()
    if circle_profile(prof_poly).outside == 0:
        raise HypothesisViolated(f"no root with |.|_v > 1 at {v}")
    best_lo = best_hi = None
    with mpmath.workdps(ARCH_DPS):
        for pi, _m in factor_k(prof_poly).factors:
            boxes = certified_root_boxes(pi, ARCH_DPS)
            lo = max(abs(z) - rad for z, rad in boxes)
            hi = max(abs(z) + rad for z, rad in boxes)
            if best_hi is None or hi > best_hi:
                best_lo, best_hi = lo, hi
    if best_hi is None or best_hi <= 1:
        raise HypothesisViolated(f"no root with |.|_v > 1 at {v}")
    return best_lo, best_hi


def root_abs_table(r: LinRec, v: Place) -> list[str]:
    """Human-readable |root|_v lines per irreducible charpoly factor."""
    import mpmath

    p = _charpoly_or_raise(r)
    lines = []
    if v.kind == "finite":
        for pi, m in factor_k(p).factors:
            slope = _newton_polygon_max_slope(pi, v)
            if slope is None:
                continue
            lines.append(f"factor {pi} (mult {m}): max |root|_v = "
                         f"({v.p}^{v.f})^({slope})")
        return lines
    prof = p if v.embedding == 1 else p.conj()
    with mpmath.workdps(ARCH_DPS):
        for pi, m in factor_k(prof).factors:
            mags = sorted(abs(z) for z, _rad in certified_root_boxes(pi, ARCH_DPS))
            shown = ", ".join(mpmath.nstr(x, 8) for x in mags)
            lines.append(f"factor {pi} (mult {m}): |roots|_v = {shown}")
    return lines


def growth_check(r: LinRec, v: Place, eps: Fraction, n_lo: int, n_hi: int) -> bool:
    """Empirical check of |A_n|_v >= |alpha_1|_v^(n(1-eps)) on the range tail.

    alpha_1 is a dominant root of the minimal charpoly at v; the first 20% of
    the range is discarded as burn-in.  At finite places the comparison is an
    exact rational inequality on valuations; at the real embeddings certified
    enclosures are compared conservatively.
    """
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise PreconditionViolated("eps must lie strictly between 0 and 1")
    ok, _w = nondegenerate_rec(r, "baseK")
    if not ok:
        raise PreconditionViolated("growth check needs a non-degenerate sequence")

    burn = (n_hi - n_lo) // 5
    import mpmath

    # log|A_n|_v >= (1 - eps) n log|alpha_1|_v: exact at a finite place, the low
    # end of each enclosure against the high root bound at a real one
    with mpmath.workdps(2 * ARCH_DPS):
        if v.kind == "finite":
            frac, log_a1 = 1 - eps, finite_dominant_slope(r, v)
        else:
            frac = mpmath.mpf(1) - mpmath.mpf(eps.numerator) / eps.denominator
            log_a1 = mpmath.log(arch_dominant_bounds(r, v)[1])
        for n in range(n_lo + burn, n_hi + 1):
            a = r.term(n)
            if a == 0:
                return False
            e = log_abs(a, v)
            if (e if v.kind == "finite" else e[0]) < frac * n * log_a1:
                return False
        return True
