"""Exact polynomial algebra over Q and over a real quadratic field K = Q(sqrt(d)).

Dense coefficient lists, low degree, everything exact.  Highlights:

* one form over K: KPoly (``kpoly``) keeps integer coordinates, and its
  products, divisions and gcds run on the ints; the gcd over K is modular.
  _over_q, _zz_sqrt_d_form and the Z[sqrt(d)] power sums read the ints;
* one form over Q: a polynomial over Q passes between functions as its
  primitive integer form, a low-to-high tuple of ints with content 1 and a
  positive leading coefficient, and KPoly is the one polynomial class.
  _over_q is the one way from field coefficients to a form, certified by
  the content scale-back, and _monic_from_ints(f, d) the one way back, a
  rational KPoly, taken only where field arithmetic or a report needs it:
  splitting a Q-factor over K and the factors a report profiles and prints;
* factorization over Q of a form, by one route: inside a scope a form
  already certified there is answered at once, and those irreducibles are
  divided out first; then the rational roots, found without factoring an
  integer, are divided out as linear factors to their full multiplicity;
  a cofactor of degree >= 3 is split into squarefree parts (Yun), a
  quadratic part decided by its discriminant and a quartic one split off
  its resolvent; sympy's factorer over Z sees only the other parts.
  Certified by refusing an input that is not a primitive form, an exact
  multiply-back over Z and an independent irreducibility re-check on
  integers of sympy's factors of degree <= 4.  Over K, too, by one route: the
  Q-factors of p (p rational) or of its norm p * conj(p) are split over K,
  by a gcd with p or each on its own (c2 x^2 + c1 x + c0 splits iff
  (c1^2 - 4 c0 c2) d is a square, an even degree >= 4 as the shifted copy
  h whose norm h * conj(h) is squarefree, an irrational polynomial that
  factor_k splits by the same gcd), with the multiplicities of the
  Q-factors, or for an irrational p by exact division.  Any degree: the
  degree budget is the classifier's;
* one gcd over Q, _zz_gcd_certified, behind every squarefree test and
  factor_q's squarefree parts: kpoly's modular gcd, the one over K too, at
  one image per prime, certified by both cofactors multiplying back;
* unit-circle root profiles, exact throughout: on-circle roots through
  self-reciprocal factors and Sturm chains on the x + 1/x transform, roots
  off the circle counted by the inertia of the Schur-Cohn matrix;
* the integrality flags of a Q-irreducible factor (roots, reciprocals and
  both algebraic integers), read off its form;
* ratio and power polynomials (roots alpha/beta and alpha^k), built from
  Newton power sums with no resultant, by one route over Z for both fields,
  each certified by its constant term: the roots are scaled to algebraic
  integers, whose power sums lie in Z or Z[sqrt(d)] and whose Newton
  identities divide exactly by k (_zz_from_power_sums).  _zz_ratio_poly
  serves the degeneracy test on both pools, a K pair read over Q through
  the traces of its power sums, and _zz_power_poly the split of a
  degenerate sequence, on N = p * conj(p);
* the root-ratio non-degeneracy test with exact root-of-unity witnesses,
  witness_orders(p), whose pool of roots is the polynomial given: the form
  of N = p * conj(p), _over_q(p), for the test over Q, p itself at the
  base level of K.  Each unordered pair of irreducible factors of the
  pool gives one ratio polynomial r, read over Q (r * conj(r) when r is
  irrational), which is not factored: the witness orders are the n with
  Phi_n | r, each candidate with phi(n) <= deg r ruled out by one residue
  modulo a prime p = 1 (mod n) or certified by exact division by Phi_n,
  built over Z.  The base level cannot go through the over-Q norm: that
  pool also holds ratios across conjugates, such as sqrt(2) / (-sqrt(2)) = -1.

factor_q, factor_k, the degeneracy witnesses, the circle profile of an
irreducible factor and the form of N = p * conj(p) of a K-polynomial are
memoized inside a ``memo.scope()`` (one classification or one growth
job), so each fact is computed once there.  Every irreducible factor_q
certifies joins the scope's pool (memo.pool), the scope's one record of
certified irreducibles, so a pooled polynomial is not certified again and
one whose roots lie among those already factored is factored without
sympy: in a classification, P_D and P_S, whose roots are among those of
N = P_A * conj(P_A).
No floating point is used here: mpmath is not imported, and the numeric
root boxes of growth live in ``places``.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InternalInvariantError,
    NotIrreducible,
    PreconditionViolated,
)
from . import memo
from .kpoly import KPoly, _gcd_k, _kpoly, _make, _sign_of, _zz_mul
from .memo import memoized
from .modp import _strip, is_prime
from .qfield import QuadElem


# ---------------------------------------------------------------------------
# factorization over Q (on integers up to degree 4, then sympy; certified here)
# ---------------------------------------------------------------------------

def _zz_factor(ints: list[int]):
    """sympy's factorer over Z (Zassenhaus) on high-to-low coefficients:
    (content, [(primitive factor with positive leading coefficient, mult)])."""
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_zz_factor

    return dup_zz_factor(ints, ZZ)


def _zz_gcd_certified(f, g) -> tuple[list[int], list[int], list[int]]:
    """(h, f / h, g / h) with h = gcd(f, g) over Z, for nonzero integer f and g
    low-to-high (zero top coefficients are dropped): the gcd of the contents
    times the primitive form of the monic gcd over Q, the modular one
    (kpoly._gcd_k).  Every gcd over Q runs here.  Certified: both cofactors
    multiply back to f and g exactly."""
    f, g = _strip(list(f)), _strip(list(g))
    monic = _gcd_k(*(_make(tuple(c), (0,) * len(c), 1, 1) for c in (f, g)))
    h = [math.gcd(*f, *g) * a for a in monic.A]
    cf, cg = _zz_exact_div(f, h), _zz_exact_div(g, h)
    if cf is None or cg is None or _zz_mul(h, cf) != f or _zz_mul(h, cg) != g:
        raise InternalInvariantError("integer gcd cofactors do not multiply back")
    return h, cf, cg


def _zz_derivative(f) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]


def _zz_squarefree_part(f) -> list[int]:
    """f / gcd(f, f') over Z for a nonconstant integer f, low-to-high."""
    return _zz_gcd_certified(f, _zz_derivative(f))[1]


def _zz_squarefree_parts(f) -> list[tuple[list[int], int]]:
    """Yun's squarefree decomposition of a primitive form f of degree >= 1:
    [(a, i), ...] with f the product of the a^i, the parts a nonconstant
    primitive forms, squarefree and pairwise coprime.  One certified gcd
    per step: with y = gcd(f, f'), w = f / y and z = f' / y, a = gcd(w,
    z - w') is the part of multiplicity i, and its cofactors are the next w
    and z.  Not certified here: factor_q multiplies every factor back."""
    _y, w, z = _zz_gcd_certified(f, _zz_derivative(f))
    parts, i = [], 1
    while len(w) > 1:
        z = [a - b for a, b in itertools.zip_longest(z, _zz_derivative(w), fillvalue=0)]
        if not any(z):  # w is the last part
            parts.append((w, i))
            break
        a, w, z = _zz_gcd_certified(w, z)
        if len(a) > 1:
            parts.append((a, i))
        i += 1
    return parts


def _primitive_form(f) -> tuple[int, ...]:
    """The primitive form of a nonzero integer f (low-to-high, nonzero top
    coefficient): f over its content, its top coefficient made positive."""
    g = math.gcd(*f) * (1 if f[-1] > 0 else -1)
    return tuple(c // g for c in f)


def _zz_exact_div(f, g) -> list[int] | None:
    """f / g over Z when g divides f there, else None (both low-to-high)."""
    dg = len(g) - 1
    if len(f) <= dg:
        return None
    rem, lc = list(f), g[-1]
    quo = [0] * (len(f) - dg)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[k + dg], lc)
        if r:
            return None
        if c:
            quo[k] = c
            for j in range(dg):
                rem[k + j] -= c * g[j]
    return None if any(rem[:dg]) else quo


def _divides(a: int, b: int) -> bool:
    return b % a == 0 if a else b == 0


def _zz_eval(g: list[int], y: int) -> int:
    """g(y) by Horner over Z; g low-to-high."""
    acc = 0
    for c in reversed(g):
        acc = acc * y + c
    return acc


def _zz_monic_scaled(f) -> list[int]:
    """g(y) = lc^(n-1) f(y/lc) for an integer f of degree n >= 1 with leading
    coefficient lc (low-to-high): monic over Z, its roots lc times f's."""
    n, lc = len(f) - 1, f[-1]
    return [c * lc ** (n - 1 - i) for i, c in enumerate(f[:-1])] + [1]


def _rational_roots(f) -> list[Fraction]:
    """The distinct rational roots of an integer f (low-to-high, nonzero top
    coefficient), exactly, without factoring an integer.

    y = lc * x turns f (degree n, leading coefficient lc) into the monic
    g = _zz_monic_scaled(f) over Z, whose integer roots are lc times the
    rational roots of f, and |y| < 2^(k+1) when |g_(n-j)| < 2^(kj) for all j
    (Fujiwara).  Modulo the first prime l at which every root of g is simple,
    each integer root y reduces to one of them, which Newton steps lift
    uniquely to l^e > 2^(k+2), whose symmetric residue is y; each lifted
    candidate is tested exactly by Horner over Z.
    """
    zeros = next(i for i, c in enumerate(f) if c)  # x^zeros divides f
    roots, ints = [Fraction(0)] if zeros else [], list(f[zeros:])
    n, lc = len(ints) - 1, ints[-1]
    if n == 0:
        return roots
    g = _zz_monic_scaled(ints)
    k = max(-(-abs(c).bit_length() // (n - i)) for i, c in enumerate(g[:-1]))
    primes = (q for q in itertools.count(2) if is_prime(q))
    for tried, ell in enumerate(primes, 1):
        if tried == 8:  # a repeated root is simple modulo no prime: drop repeats
            s = _zz_squarefree_part(ints)  # g's part, monic over Z, is lc^deg s s(y/lc) / lc(s)
            g = [c * lc ** (len(s) - 1 - i) // s[-1] for i, c in enumerate(s)]
        dg = _zz_derivative(g)
        mod_roots = [r for r in range(ell) if _zz_eval(g, r) % ell == 0]
        if all(_zz_eval(dg, r) % ell for r in mod_roots):
            break
    for y in mod_roots:
        mod = ell
        while mod < 1 << (k + 2):
            mod *= mod
            y = (y - _zz_eval(g, y) * pow(_zz_eval(dg, y), -1, mod)) % mod
        if y > mod // 2:
            y -= mod
        if _zz_eval(g, y) == 0:
            roots.append(Fraction(y, lc))
    return roots


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _monic_from_ints(f, d: int) -> KPoly:
    """The monic rational KPoly over Q(sqrt(d)) of an integer form f
    (low-to-high): the one way from a form over Q back to field
    coefficients, taken where field arithmetic or a report needs them."""
    return _kpoly(list(f), [0] * len(f), f[-1], d)


def _quadratic_split(f) -> list[tuple[tuple[int, ...], int]]:
    """[(g, mult), ...] over Q of a primitive form f of degree 1, or of
    degree 2, f = c2 x^2 + c1 x + c0, by its discriminant: irreducible unless
    c1^2 - 4 c0 c2 = t^2, then the linear forms 2 c2 x + c1 -+ t (one,
    squared, when t = 0)."""
    if len(f) == 2:
        return [(tuple(f), 1)]
    c0, c1, c2 = f
    disc = c1 * c1 - 4 * c0 * c2
    if not _is_square(disc):
        return [(tuple(f), 1)]
    t = math.isqrt(disc)
    if not t:
        return [(_primitive_form((c1, 2 * c2)), 2)]
    return [(_primitive_form((c1 - t, 2 * c2)), 1), (_primitive_form((c1 + t, 2 * c2)), 1)]


def _quartic_split(f) -> tuple | None:
    """Two primitive quadratic forms whose product is the integer quartic f
    (low-to-high, positive leading coefficient), or None when f has no
    quadratic factor over Q.

    u = 4 a4 x + a3 depresses f over Z: 256 a4^3 f = u^4 + P u^2 + Q u + R,
    monic over Z, so by Gauss it splits over Q iff it splits over Z as
    (u^2 + s u + t1)(u^2 - s u + t2), with t1 + t2 = P + s^2,
    s (t2 - t1) = Q and t1 t2 = R.  For Q = 0 that is s = 0 when
    P^2 - 4R is a square (a biquadratic), or t1 = t2 = +-g with R = g^2
    and s^2 = +-2g - P; otherwise z = s^2 is a positive root of the
    resolvent cubic z^3 + 2P z^2 + (P^2 - 4R) z - Q^2, monic over Z, whose
    rational roots are integers.  Each u-quadratic is read back in x and
    made primitive.  Not certified here: the caller multiplies back.
    """
    a0, a1, a2, a3, a4 = f
    P = 16 * a4 * a2 - 6 * a3 * a3
    Q = 64 * a4 * a4 * a1 - 32 * a4 * a3 * a2 + 8 * a3 ** 3
    R = 256 * a4 ** 3 * a0 - 64 * a4 * a4 * a3 * a1 + 16 * a4 * a3 * a3 * a2 - 3 * a3 ** 4
    if Q == 0:
        g = math.isqrt(max(R, 0))
        if _is_square(P * P - 4 * R):
            t = math.isqrt(P * P - 4 * R)
            s, t1, t2 = 0, (P - t) // 2, (P + t) // 2
        elif g * g == R and _is_square(2 * g - P):
            s, t1, t2 = math.isqrt(2 * g - P), g, g
        elif g * g == R and _is_square(-2 * g - P):
            s, t1, t2 = math.isqrt(-2 * g - P), -g, -g
        else:
            return None
    else:
        z = next((z for z in _rational_roots([-Q * Q, P * P - 4 * R, 2 * P, 1])
                  if z > 0 and _is_square(z.numerator)), None)
        if z is None:
            return None
        s = math.isqrt(z.numerator)
        t1, t2 = (P + s * s - Q // s) // 2, (P + s * s + Q // s) // 2
    return tuple(_primitive_form((a3 * a3 + e * a3 + t, 4 * a4 * (2 * a3 + e), 16 * a4 * a4))
                 for e, t in ((s, t1), (-s, t2)))


def _certify_irreducible_q(f) -> None:
    """Independent irreducibility re-check of a primitive integer form f of
    degree <= 4 (raises on failure), on integers throughout: no rational
    root, and for a quartic no split into quadratics (_quartic_split)."""
    deg = len(f) - 1
    if deg <= 1:
        return
    if _rational_roots(f):
        raise NotIrreducible(f"{list(f)} has a rational root")
    if deg == 4 and (pair := _quartic_split(f)) is not None:
        raise NotIrreducible(f"{list(f)} splits into quadratics {[list(q) for q in pair]}")
    # degree >= 5: no independent certificate here (ROADMAP item 10)


@memoized
def factor_q(f: tuple[int, ...]) -> tuple:
    """Complete factorization over Q of a primitive integer form f:
    ((g, mult), ...), each g an irreducible primitive integer form, sorted
    by degree and then by the coefficients of the monic g; () for f = (1,).

    Four steps.  Inside a ``memo.scope()`` the irreducibles certified
    earlier in the scope (the pool) are divided out first, exactly over Z;
    Gauss's lemma lets a pooled g divide only when lc(g) | lc and g(0) | the
    constant term, which skips most candidates without a division.  Then
    each rational root a/b of the cofactor (_rational_roots) is divided out
    as b x - a, exactly over Z and to its full multiplicity; a root that
    does not divide raises.  A cofactor of degree >= 3 is split into
    squarefree parts (_zz_squarefree_parts), whose factors take the part's
    multiplicity.  A quadratic part is decided by its discriminant (a
    square one gives two linear forms, so a root the search missed is
    still found), a quartic one by the quadratics _quartic_split reads off
    it.  sympy's factorer gets the rest: squarefree parts with no rational
    root that are cubics, quartics with no quadratic factor or of degree
    >= 5.  Certified on every call: f must be a primitive form (content 1,
    positive leading coefficient), all integer factors multiply back to f
    exactly, and sympy's factors of degree <= 4 pass an independent
    irreducibility re-check, once per scope as they enter the pool.  A
    pooled f is its own factorization.
    """
    if not f or f[-1] <= 0 or math.gcd(*f) != 1:
        raise InternalInvariantError(f"factor_q of {list(f)}, not a primitive integer form")
    if len(f) == 1:
        return ()
    pool = memo.pool()  # primitive irreducibles, low-to-high, as dict keys
    if pool and f in pool:  # certified when it entered the pool
        return ((f, 1),)
    found, rest = [], list(f)
    for g in pool or ():
        mult = 0
        while _divides(g[-1], rest[-1]) and _divides(g[0], rest[0]):
            quo = _zz_exact_div(rest, g)
            if quo is None:
                break
            rest, mult = quo, mult + 1
        if mult:
            found.append((g, mult))
    for root in _rational_roots(rest) if len(rest) > 1 else ():
        g, mult = (-root.numerator, root.denominator), 0
        while (quo := _zz_exact_div(rest, g)) is not None:
            rest, mult = quo, mult + 1
        if not mult:
            raise InternalInvariantError(f"rational root {root} does not divide {list(f)}")
        found.append((g, mult))
    check, zz_found = [1], []
    parts = _zz_squarefree_parts(rest) if len(rest) > 3 else [(rest, 1)] if len(rest) > 1 else []
    for part, i in parts:
        pair = _quartic_split(part) if len(part) == 5 else (part,)
        if pair is not None and len(part) in (2, 3, 5):
            found += [(g, i * m) for q in pair for g, m in _quadratic_split(q)]
        else:  # a cubic, an irreducible quartic or a degree >= 5
            zz_unit, zz_factors = _zz_factor(part[::-1])
            check = [c * zz_unit for c in check]
            zz_found += [tuple(g[::-1]) for g, _m in zz_factors]
            found += [(tuple(g[::-1]), i * m) for g, m in zz_factors]
    for g, mult in found:
        for _ in range(mult):
            check = _zz_mul(check, g)
    if tuple(check) != f:
        raise InternalInvariantError(f"factor_q multiply-back failed for {list(f)}")
    found.sort(key=lambda gm: (len(gm[0]), tuple(Fraction(c, gm[0][-1]) for c in gm[0])))
    for g in zz_found:  # the other factors are irreducible by construction
        _certify_irreducible_q(g)
    if pool is not None:
        pool.update(dict.fromkeys(g for g, _m in found))
    return tuple(found)


# ---------------------------------------------------------------------------
# factorization over K (one gcd route)
# ---------------------------------------------------------------------------

def _factor_k_squarefree(g: KPoly) -> list[KPoly]:
    """Monic K-factors of a rational squarefree g (Trager): factor_k's gcd route
    on the first shift h(x) = g(x - s sqrt(d)) with squarefree norm, shifted back."""
    d = g.d
    sqrt_d = QuadElem(0, 1, d)
    for s in range(1, 65):
        h = g.compose(KPoly([-(s * sqrt_d), 1], d))
        norm = _over_q(h)
        if len(_zz_squarefree_part(norm)) < len(norm):
            continue
        unshift = KPoly([s * sqrt_d, 1], d)
        factors = [c.compose(unshift).monic() for c, _m in factor_k(h)]
        prod = KPoly([1], d)
        for f in factors:
            prod = prod * f
        if prod != g.monic():
            raise InternalInvariantError(f"factor_k multiply-back failed for {g}")
        return factors
    raise InternalInvariantError(f"no squarefree shift found for {g}")


def _split_over_k(f, d: int) -> list[KPoly]:
    """Monic irreducible factors over K of a Q-irreducible primitive form f.

    Gal(K/Q) permutes them transitively, so f stays irreducible or splits
    into two conjugates of half its degree: an odd degree never splits, and
    c2 x^2 + c1 x + c0 splits iff (c1^2 - 4 c0 c2) d = t^2 is a square, into
    the roots (-c1 d +- t sqrt(d)) / (2 c2 d).  An even degree >= 4 is split
    by factor_k's gcd route on a shifted copy (_factor_k_squarefree).
    """
    if len(f) % 2 == 0:
        return [_monic_from_ints(f, d)]
    if len(f) == 3:
        c0, c1, c2 = f
        disc = (c1 * c1 - 4 * c0 * c2) * d
        if not _is_square(disc):
            return [_monic_from_ints(f, d)]
        t = math.isqrt(disc)
        return [KPoly([QuadElem(Fraction(c1, 2 * c2), Fraction(s * t, 2 * c2 * d), d), 1], d)
                for s in (1, -1)]
    return _factor_k_squarefree(_monic_from_ints(f, d))


@memoized
def factor_k(p: KPoly) -> tuple:
    """Complete factorization over K = Q(sqrt(d)) of a nonzero p:
    ((g, mult), ...), each g a monic irreducible KPoly, sorted by degree and
    then by the coefficients of g; p is p.lc times the product.

    The roots of monic p are among those of q = p over Q when p is rational,
    and of its norm q = p * conj(p) otherwise; q is factored with factor_q.
    Each Q-irreducible f of q is split over K: when p is irrational and
    c = gcd(p, f) is a proper factor of f, f = c * conj(c) with c
    irreducible (f has at most two K-factors, and they are conjugate);
    otherwise f is split on its own (_split_over_k).  A K-factor of a
    rational p has the multiplicity of its Q-factor; in an irrational p it
    is read by exact division.  The result is certified by multiplying back.
    """
    if p.is_zero:
        raise ValueError("factor_k of zero polynomial")
    if p.degree == 0:
        return ()
    rest = monic = p.monic()
    rational, items = monic.is_rational(), []
    for f, m in factor_q(_over_q(monic)):
        if rational:  # f^m divides p exactly, and so does each K-factor of f to the m
            items += [(g, m) for g in _split_over_k(f, p.d)]
            continue
        c = monic.gcd(_monic_from_ints(f, p.d))
        for g in ([c, c.conj()] if 0 < c.degree < len(f) - 1 else _split_over_k(f, p.d)):
            mult = 0
            while not (quo_rem := divmod(rest, g))[1]:
                rest, mult = quo_rem[0], mult + 1
            if mult:
                items.append((g, mult))
    items.sort(key=lambda fm: (fm[0].degree, tuple((Fraction(a, fm[0].m), Fraction(b, fm[0].m))
                                                   for a, b in zip(fm[0].A, fm[0].B))))
    check = KPoly([p.lc], p.d)
    for f, m in items:
        check = check * f ** m
    if check != p:
        raise InternalInvariantError(f"factor_k multiply-back failed for {p}")
    return tuple(items)


def root_integrality_flags(f) -> tuple[bool, bool, bool]:
    """(roots are algebraic integers, reciprocals are too, both = units).

    f is the primitive integer form of a polynomial irreducible over Q, and
    the flags are read off its end coefficients.
    """
    if len(f) < 2:
        raise NotIrreducible(f"{list(f)} is constant")
    if factor_q(f) != ((f, 1),):
        raise NotIrreducible(f"{list(f)} is not irreducible over Q")
    is_int, is_recip = f[-1] == 1, abs(f[0]) == 1
    return is_int, is_recip, is_int and is_recip


# ---------------------------------------------------------------------------
# unit-circle profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircleProfile:
    inside: int
    on: int
    outside: int


def _self_reciprocal(pi) -> bool:
    c0 = pi.constant_term()
    if not c0:
        return False
    return pi.reverse().monic() == pi.monic()


def _chebyshev_like_transform(pi):
    """g with pi(x) = x^(deg/2) * g(x + 1/x); pi palindromic of even degree."""
    h, d = pi.degree // 2, pi.d
    coeffs = pi.coeffs
    # V_k(y) represents x^k + x^-k:  V_0 = 2, V_1 = y, V_k = y V_{k-1} - V_{k-2}
    y = KPoly([0, 1], d)
    v_prev = KPoly([2], d)
    v_cur = y
    g = KPoly([coeffs[h]], d)
    for k in range(1, h + 1):
        g = g + v_cur.scale(coeffs[h + k])
        v_prev, v_cur = v_cur, y * v_cur - v_prev
    return g


def _offcircle_counts(pi) -> tuple[int, int]:
    """(inside, outside) for an irreducible factor that is not self-reciprocal.

    With a_0, ..., a_n the coefficients, L1 and L2 the lower-triangular
    Toeplitz matrices with first columns (a_0, ..., a_(n-1)) and
    (a_n, ..., a_1), the Schur-Cohn matrix M = L1 L1^T - L2 L2^T has as many
    negative eigenvalues as pi has roots inside the unit circle and as many
    positive ones as roots outside, provided pi and its reverse are coprime
    (Marden, Geometry of Polynomials, 1966, sections 42-43).  They are for
    pi: a root alpha with 1/alpha also a root would make the irreducible pi
    divide its reverse, that is, self-reciprocal.  Entrywise,
    M[i][j] = M[i-1][j-1] + a_i a_j - a_(n-i) a_(n-j), and its inertia is
    read by exact symmetric elimination, so no precision is involved.
    """
    a, n = pi.coeffs, pi.degree
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = a[i] * a[j] - a[n - i] * a[n - j]
            m[i][j] = m[j][i] = v + m[i - 1][j - 1] if i else v
    return _inertia(m)


def _inertia(m) -> tuple[int, int]:
    """(negative, positive) eigenvalue counts of a nonsingular symmetric
    matrix over Q or K (signs in the first real embedding).

    Sylvester's law of inertia: a congruence keeps the counts, so each step
    eliminates a pivot block and counts its signs.  A nonzero diagonal entry
    is a 1x1 pivot.  When every diagonal entry is zero, a nonzero m[i][j]
    gives the 2x2 pivot [[0, b], [b, 0]], with one eigenvalue of each sign.
    A zero remaining block means m is singular, which raises.
    """
    neg = pos = 0
    while m:
        size = len(m)
        k = next((i for i in range(size) if m[i][i]), None)
        if k is not None:
            order = [k] + [i for i in range(size) if i != k]
        else:
            pair = next(((i, j) for i in range(size) for j in range(i + 1, size) if m[i][j]),
                        None)
            if pair is None:
                raise InternalInvariantError("singular Schur-Cohn matrix")
            order = list(pair) + [i for i in range(size) if i not in pair]
        m = [[m[i][j] for j in order] for i in order]
        if k is not None:  # m <- m[1:, 1:] - m[1:, 0] m[0, 1:] / m[0][0]
            s = _sign_of(m[0][0])
            neg, pos = neg + (s < 0), pos + (s > 0)
            head = m[0][1:]
            inv = 1 / m[0][0]
            rows = []
            for r in m[1:]:
                c = r[0] * inv
                rows.append([x - c * y for x, y in zip(r[1:], head)])
        else:  # m <- m[2:, 2:] - (m[2:, 0] m[1, 2:] + m[2:, 1] m[0, 2:]) / m[0][1]
            neg, pos = neg + 1, pos + 1
            h0, h1 = m[0][2:], m[1][2:]
            inv = 1 / m[0][1]
            rows = []
            for r in m[2:]:
                c0, c1 = r[0] * inv, r[1] * inv
                rows.append([x - c0 * y1 - c1 * y0 for x, y0, y1 in zip(r[2:], h0, h1)])
        m = rows
    return neg, pos


@memoized
def _profile_irreducible(pi) -> CircleProfile:
    deg = pi.degree
    if deg == 1:
        r = -pi.coeffs[0] / pi.coeffs[1]
        s = _sign_of(r * r - 1)
        if s == 0:
            return CircleProfile(0, 1, 0)
        return CircleProfile(1, 0, 0) if s < 0 else CircleProfile(0, 0, 1)
    if _self_reciprocal(pi):
        if deg % 2:
            raise InternalInvariantError(f"odd self-reciprocal irreducible {pi}")
        g = _chebyshev_like_transform(pi.monic())
        on = 2 * g.sturm_count(-2, 2)
        if (deg - on) % 2:
            raise InternalInvariantError("off-circle roots of self-reciprocal not paired")
        half = (deg - on) // 2
        return CircleProfile(half, on, half)
    inside, outside = _offcircle_counts(pi)
    return CircleProfile(inside, 0, outside)


def circle_profile(p: KPoly) -> CircleProfile:
    """Counts of roots inside / on / outside the unit circle, with multiplicity.

    Every count is exact, summed over p's irreducible factors over K
    (factor_k), rational p included.  An irreducible factor has roots on the
    circle iff it is self-reciprocal, and then the count is 2 * (real roots
    of the x + 1/x transform in (-2, 2)), a Sturm computation over the
    coefficient field, with the other roots split evenly between inside and
    outside.  Any other factor has no root on the circle, and its roots
    inside and outside are the negative and positive inertia of its
    Schur-Cohn matrix.
    """
    if p.is_zero:
        raise ValueError("circle_profile of zero polynomial")
    inside = on = outside = 0
    for f, m in factor_k(p):
        prof = _profile_irreducible(f)
        inside += m * prof.inside
        on += m * prof.on
        outside += m * prof.outside
    return CircleProfile(inside, on, outside)


# ---------------------------------------------------------------------------
# cyclotomic factors
# ---------------------------------------------------------------------------

def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _cyclotomic_ints(n: int) -> list[int]:
    """Phi_n over Z, low-to-high, as prod_{e | n} (x^e - 1)^mu(n/e).

    mu(n/e) is nonzero only for e = n / (a product of k distinct primes of n),
    where it is (-1)^k.  The factors with mu = +1 are multiplied in by
    shift-and-subtract, and then those with mu = -1 are divided out by exact
    synthetic division, so every quotient stays over Z.
    """
    primes = _prime_divisors(n)
    up, down = [], []
    for k in range(len(primes) + 1):
        for sub in itertools.combinations(primes, k):
            (down if k % 2 else up).append(n // math.prod(sub))
    phi = [1]
    for e in up:  # phi * (x^e - 1)
        nxt = [0] * e + phi
        for i, c in enumerate(phi):
            nxt[i] -= c
        phi = nxt
    for e in down:  # phi / (x^e - 1): q_k = phi_(k+e) + q_(k+e), from the top
        q = phi[e:]
        for k in range(len(q) - 1 - e, -1, -1):
            q[k] += q[k + e]
        if any(phi[i] + (q[i] if i < len(q) else 0) for i in range(e)):
            raise InternalInvariantError(f"x^{e} - 1 does not divide the product for Phi_{n}")
        phi = q
    return phi


@functools.lru_cache(maxsize=None)
def _root_of_unity_mod_prime(n: int) -> tuple[int, int]:
    """(p, w): the least prime p = 1 (mod n), and w = a^((p-1)/n) mod p for
    the least a >= 1 that gives w exact multiplicative order n modulo p."""
    p = n + 1
    while not is_prime(p):
        p += n
    primes = _prime_divisors(n)
    for a in range(1, p):
        w = pow(a, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in primes):
            return p, w
    raise InternalInvariantError(f"no element of order {n} modulo the prime {p}")


def _cyclotomic_orders(f, ones: int = 0) -> list[int]:
    """Every n >= 1 with Phi_n | f / (x - 1)^ones, for a nonzero integer f
    (low-to-high; over Q, its primitive integer form), without factoring.

    The quotient is formed by ones synthetic divisions by x - 1 (running sums
    from the top), each of which must leave no remainder.  The candidates are
    the n with phi(n) <= its degree.  If w has exact order n modulo a prime
    p = 1 (mod n), then Phi_n(w) = 0 (mod p), so Phi_n | f forces
    f(w) = 0 (mod p), and a nonzero residue rules n out.  A candidate that
    survives is an order only if the exact division by Phi_n over Z leaves
    no remainder.
    """
    for _ in range(ones):
        sums = list(itertools.accumulate(reversed(f)))  # the last one is f(1)
        if sums.pop():
            raise InternalInvariantError(f"(x - 1)^{ones} does not divide {list(f)}")
        f = sums[::-1]
    orders = []
    for n, _t in _orders_with_totient_at_most(len(f) - 1):
        p, w = _root_of_unity_mod_prime(n)
        acc = 0
        for c in reversed(f):
            acc = (acc * w + c) % p
        if acc == 0 and _zz_exact_div(f, _cyclotomic_ints(n)) is not None:
            orders.append(n)
    return orders


@functools.lru_cache(maxsize=None)
def _orders_with_totient_at_most(bound: int) -> tuple[tuple[int, int], ...]:
    """(n, phi(n)) for every n >= 1 with phi(n) <= bound, in increasing n.

    phi is multiplicative with phi(p^k) = (p - 1) p^(k-1), so the n are the
    products of prime powers with coprime bases whose phis multiply to at
    most bound; they are enumerated over the primes p <= bound + 1 in
    increasing order, each taken to every power whose phi still fits.
    """
    primes = [p for p in range(2, bound + 2) if is_prime(p)]
    out = []

    def extend(n, t, start):
        out.append((n, t))
        for i in range(start, len(primes)):
            p = primes[i]
            if t * (p - 1) > bound:
                break
            pk, tk = p, t * (p - 1)
            while tk <= bound:
                extend(n * pk, tk, i + 1)
                pk, tk = pk * p, tk * p

    if bound >= 1:
        extend(1, 1, 0)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# ratio and power polynomials, non-degeneracy
# ---------------------------------------------------------------------------

def _power_sums(c, count: int) -> list:
    """[s_1, ..., s_count], s_k the k-th power sum of the roots of the monic
    polynomial with coefficients c (low-to-high; ints, or any ring), by
    Newton's identities s_k = -(k c_k + c_1 s_(k-1) + ... + c_(k-1) s_1),
    c_j the coefficient of x^(n-j) and c_k = 0 past n.  They need no
    division, so a monic integer polynomial, whose roots are algebraic
    integers, has integer power sums."""
    n = len(c) - 1
    c = c[::-1]
    sums = []
    for k in range(1, count + 1):
        acc = sum(map(operator.mul, c[1:min(k, n + 1)], reversed(sums)))
        sums.append(-(acc + (k * c[k] if k <= n else 0)))
    return sums


def _sqrt_d_power_sums(f, d: int, count: int) -> tuple[list[int], list[int]]:
    """_power_sums over Z[sqrt(d)] on integer coordinates: f = (A, B) is the
    monic A + B sqrt(d) (low-to-high), and the k-th power sum of its roots is
    SA[k-1] + SB[k-1] sqrt(d)."""
    A, B = f[0][::-1], f[1][::-1]
    n, SA, SB = len(A) - 1, [], []
    for k in range(1, count + 1):
        acc_a, acc_b = (k * A[k], k * B[k]) if k <= n else (0, 0)
        for j in range(1, min(k, n + 1)):
            a, b, x, y = A[j], B[j], SA[k - 1 - j], SB[k - 1 - j]
            acc_a += a * x + d * b * y
            acc_b += a * y + b * x
        SA.append(-acc_a)
        SB.append(-acc_b)
    return SA, SB


def _sqrt_d_monic_scaled(f) -> tuple[list[int], list[int]]:
    """_zz_monic_scaled over Z[sqrt(d)]: f = (A, B), of degree n >= 1 with
    the leading coefficient lc = A[-1] an int, becomes lc^(n-1) f(y/lc)."""
    A, B = f
    n, lc = len(A) - 1, A[-1]
    return _zz_monic_scaled(A), [c * lc ** (n - 1 - i) for i, c in enumerate(B[:-1])] + [0]


def _zz_from_power_sums(sums: list[int]) -> list[int]:
    """The monic integer polynomial (low-to-high) whose N = len(sums) roots,
    algebraic integers, have the power sums s_1, ..., s_N, by Newton's
    identities k c_k = -(s_k + c_1 s_(k-1) + ... + c_(k-1) s_1): the
    coefficients are integers, so each division by k must be exact, and a
    remainder raises."""
    c = [1]
    for k in range(1, len(sums) + 1):
        acc = sums[k - 1] + sum(map(operator.mul, c[1:k], reversed(sums[:k - 1])))
        q, rem = divmod(-acc, k)
        if rem:
            raise InternalInvariantError(f"Newton step {k} leaves the remainder {rem}")
        c.append(q)
    return c[::-1]


def _zz_unscaled(sums: list[int], end: int, scale: int) -> list[int]:
    """The primitive integer form of R(scale * x), R the monic integer
    polynomial whose roots have the power sums `sums`.  Certified: R(0) must
    be end, which the caller reads off its inputs' end coefficients."""
    big = _zz_from_power_sums(sums)
    if big[0] != end:
        raise InternalInvariantError(
            f"power-sum polynomial has the constant term {big[0]}, expected {end}")
    out, power = [], 1
    for c in big:
        out.append(c * power)
        power *= scale
    return list(_primitive_form(out))


def _zz_ratio_poly(f, g, d: int = 0) -> list[int]:
    """The primitive integer form (low-to-high) of the polynomial r whose
    roots are the ratios alpha/beta, alpha a root of f and beta one of g
    (g(0) != 0), with multiplicity; of r * conj(r) when r is irrational.

    f and g lie over Z (d = 0), or over Z[sqrt(d)] as pairs (A, B) of
    integer lists (_zz_sqrt_d_form), with lc(f) = a and g(0) = c ints.
    The monic forms F and G of a*alpha and c/beta (_zz_monic_scaled of f
    and of g reversed) have power sums over the same
    ring, whose products are those of the N = deg f * deg g algebraic
    integers a*c*alpha/beta.  Rational products are integers, and Newton's
    identities over Z give the monic R of those roots, R(a*c*x) being r up
    to content; otherwise the traces of 2N products are the power sums of
    R * conj(R), taken in its place.  Certified: R(0) = (-1)^N *
    F(0)^deg g * G(0)^deg f, or its norm for R * conj(R).
    """
    if not d:
        n, m = len(f) - 1, len(g) - 1
        fs, gs = _zz_monic_scaled(f), _zz_monic_scaled(g[::-1])
        count, end = n * m, (-1) ** (n * m) * fs[0] ** m * gs[0] ** n
        sums = list(map(operator.mul, _power_sums(fs, count), _power_sums(gs, count)))
        return _zz_unscaled(sums, end, f[-1] * g[0])
    # a pair over K: the products lie in Z[sqrt(d)]
    n, m = len(f[0]) - 1, len(g[0]) - 1
    fs, gs = _sqrt_d_monic_scaled(f), _sqrt_d_monic_scaled((g[0][::-1], g[1][::-1]))
    count = n * m
    (fa, fb), (ga, gb) = (_sqrt_d_power_sums(fs, d, 2 * count),
                          _sqrt_d_power_sums(gs, d, 2 * count))
    sa = [x * u + d * y * v for x, y, u, v in zip(fa, fb, ga, gb)]
    sb = [x * v + y * u for x, y, u, v in zip(fa, fb, ga, gb)]
    ea, eb = (-1) ** count, 0  # (-1)^N F(0)^deg g G(0)^deg f
    for (x, y), k in (((fs[0][0], fs[1][0]), m), ((gs[0][0], gs[1][0]), n)):
        for _ in range(k):
            ea, eb = ea * x + d * eb * y, ea * y + eb * x
    if not any(sb[:count]):
        if eb:
            raise InternalInvariantError("power-sum polynomial is rational, its constant term not")
        sums, end = sa[:count], ea
    else:
        count, end = 2 * count, ea * ea - d * eb * eb
        sums = [2 * x for x in sa]
    return _zz_unscaled(sums, end, f[0][-1] * g[0][0])


def _zz_power_poly(f, k: int) -> list[int]:
    """The primitive integer form (low-to-high) of the polynomial whose roots
    are alpha^k for the roots alpha of the integer f, with multiplicity.

    With a = lc(f), the roots a*alpha of F = _zz_monic_scaled(f) are
    algebraic integers, and s_j((a*alpha)^k) = s_(jk)(a*alpha), so Newton's
    identities over Z give the monic integer R with the roots (a*alpha)^k,
    and R(a^k x) is the result up to its content.  Certified: R(0) =
    (-1)^n * ((-1)^n * F(0))^k, n = deg f.
    """
    n = len(f) - 1
    fs = _zz_monic_scaled(f)
    sums = _power_sums(fs, k * n)[k - 1::k]
    return _zz_unscaled(sums, (-1) ** n * ((-1) ** n * fs[0]) ** k, f[-1] ** k)


def _zz_sqrt_d_form(p: KPoly) -> tuple[list[int], list[int]]:
    """p scaled to the least multiple with coefficients in Z[sqrt(d)] whose
    leading coefficient is a positive int: the numerator (A, B) of monic p,
    low-to-high, whose top is (m, 0); the roots are p's."""
    monic = p.monic()
    return list(monic.A), list(monic.B)


@memoized
def _over_q(p: KPoly) -> tuple[int, ...]:
    """The primitive integer form of a nonzero p when p is rational, and of
    p * conj(p) otherwise: the one way from field coefficients to a form,
    read off p's integer coordinates A / m.  Certified by the content
    scale-back: lc(p) / form[-1] times the form is p's coefficients."""
    if not p.is_rational():
        p = p * p.conj()
        if not p.is_rational():
            raise InternalInvariantError("p * conj(p) not rational")
    if p.is_zero:
        raise ValueError("primitive form of zero polynomial")
    form = _primitive_form(p.A)
    lc, top = p.A[-1], form[-1]  # A_i / m = (lc / m) f_i / top, cross-multiplied
    if any(a * top != lc * f for a, f in zip(p.A, form)):
        raise InternalInvariantError(f"content scale-back failed for {p}")
    return form


@memoized
def witness_orders(p) -> tuple[int, ...]:
    """Sorted root-of-unity witness orders of the roots of p; () when p is
    non-degenerate.

    The pool is the roots of p over its own field: pass the primitive
    integer form _over_q(p) for the ratios among the roots of p * conj(p),
    conjugate orbits included, and the KPoly p for the base level of K.  A
    rational KPoly is read as its form.  Roots at zero are ignored: they
    cannot take part in a unit-modulus ratio.  Each unordered pair of the
    pool's distinct irreducible factors gives one ratio polynomial, read
    over Q as a primitive integer form by _zz_ratio_poly (a K-factor scaled
    into Z[sqrt(d)] to an int leading coefficient as the numerator, to an
    int constant term as the denominator): an irrational ratio polynomial
    r comes back as r * conj(r), whose extra roots are conjugates of r's,
    and conjugation maps a primitive n-th root of unity to another one of
    order n.  An order 1 left in a ratio polynomial is a root shared by two
    distinct factors, which raises.
    """
    rational = not isinstance(p, KPoly)
    if not rational and p.is_rational():
        return witness_orders(_over_q(p))
    coeffs = p if rational else [a or b for a, b in zip(p.A, p.B)]  # nonzero as p's are
    if len(coeffs) < 2:
        raise PreconditionViolated("witness_orders needs a nonconstant polynomial")
    zeros = next(i for i, c in enumerate(coeffs) if c)
    if zeros == len(coeffs) - 1:
        return ()
    d = 0 if rational else p.d
    if rational:  # (numerator, denominator, degree) of each factor
        base = [(f, f, len(f) - 1) for f, _m in factor_q(p[zeros:])]
    else:
        base = []
        for g, _m in factor_k(_make(p.A[zeros:], p.B[zeros:], p.m, d)):
            den = _zz_sqrt_d_form(g.reverse())
            base.append((_zz_sqrt_d_form(g), (den[0][::-1], den[1][::-1]), g.degree))
    witnesses: set[int] = set()
    for i, (fi, _gi, deg) in enumerate(base):
        for j in range(i, len(base)):
            r = _zz_ratio_poly(fi, base[j][1], d)
            # a self-ratio polynomial holds (x - 1)^deg f once, and twice in
            # r * conj(r), of twice the degree; it is stripped on the form
            for n in _cyclotomic_orders(r, (len(r) - 1) // deg if i == j else 0):
                if n == 1:
                    raise InternalInvariantError("distinct irreducible factors share a root")
                witnesses.add(n)
    return tuple(sorted(witnesses))
