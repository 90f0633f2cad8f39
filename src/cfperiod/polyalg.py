"""Exact polynomial algebra over Q and over a real quadratic field K = Q(sqrt(d)).

Dense coefficient lists, low degree, everything exact.  Highlights:

* factorization over Q on the primitive integer form (sympy's factorer over
  Z, certified by the content scale-back, an exact multiply-back over Z and
  independent small-degree irreducibility re-checks), which inside a scope
  first divides out the irreducibles already certified there; and over K by
  one route: the Q-factors of p (p rational) or of its norm p * conj(p)
  are split over K, by a gcd with p or each on its own (a quadratic by its
  discriminant, even degree >= 4 by the norm descent: a shifted copy with
  squarefree norm h * conj(h), factors recovered by gcd), with the
  multiplicities of the Q-factors, or for an irrational p by exact
  division.  Any degree: the degree budget is the classifier's;
* unit-circle root profiles, exact throughout: on-circle roots through
  self-reciprocal factors and Sturm chains on the x + 1/x transform, roots
  off the circle counted by the inertia of the Schur-Cohn matrix;
* the integrality flags of a Q-irreducible factor (roots, reciprocals and
  both algebraic integers), read off its primitive integer form;
* ratio and power polynomials (roots alpha/beta and alpha^k) over Q and K
  alike, built from Newton power sums with no resultant, each certified by
  its constant term;
* the root-ratio non-degeneracy test with exact root-of-unity witnesses, at
  two levels.  The pool of roots is that of a rational polynomial N = p or
  p * conj(p) over Q, or of p itself at the base level of K.  Each unordered
  pair of irreducible factors of the pool gives one ratio polynomial r, read
  over Q (r * conj(r) when r is irrational), which is not factored: the
  witness orders are the n with Phi_n | r, each candidate with phi(n) <= deg r
  ruled out by one residue modulo a prime p = 1 (mod n) or certified by exact
  division by Phi_n, built over Z.  The base level cannot go through the
  over-Q norm: that pool also holds ratios across conjugates, such as
  sqrt(2) / (-sqrt(2)) = -1.

factor_q, factor_k, the degeneracy witnesses, the circle profile of an
irreducible factor and the rational form N = p * conj(p) of a K-polynomial
are memoized inside a ``memo.scope()`` (one classification or one growth
job), so each fact is computed once there; every irreducible factor a factorization returns is
stored as its own factorization, so it is never factored again, and joins
the scope's pool of irreducibles, so a polynomial whose roots lie among
those already factored is factored without sympy: in a classification,
P_D and P_S, whose roots are among those of N = P_A * conj(P_A).
Floating point (mpmath) serves only certified_root_boxes, for the numeric
profiles of growth.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InternalInvariantError,
    NotIrreducible,
    PrecisionExhausted,
    PreconditionViolated,
    ZeroRootInDenominator,
)
from . import memo
from .memo import memoized, remember
from .qfield import QuadElem, to_mpf


def _sign_of(c) -> int:
    if isinstance(c, QuadElem):
        return c.sign()
    return (c > 0) - (c < 0)


# ---------------------------------------------------------------------------
# dense polynomials
# ---------------------------------------------------------------------------

class _PolyBase:
    """Shared exact algorithms; subclasses fix the coefficient field."""

    __slots__ = ("coeffs",)

    # subclasses: _zero(), _one(), _coerce_coeff(c), _make(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if self.is_zero:
            raise ValueError("leading coefficient of zero polynomial")
        return self.coeffs[-1]

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else self._zero()

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @staticmethod
    def _strip(coeffs: list) -> tuple:
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return tuple(coeffs)

    def _same(self, other):
        if isinstance(other, type(self)):
            return other
        c = self._try_coeff(other)
        if c is None:
            return None
        return self._make([c] if c else [])

    def __add__(self, other):
        o = self._same(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        z = self._zero()
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        for i, c in enumerate(o.coeffs):
            a[i] = a[i] + c
        return self._make(a)

    __radd__ = __add__

    def __neg__(self):
        return self._make([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._same(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._same(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._same(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return self._make([])
        z = self._zero()
        out = [z] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return self._make(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = self._make([self._one()])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        o = self._same(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            from .errors import DivisionByZero
            raise DivisionByZero("polynomial division by zero")
        if self.degree < o.degree:
            return self._make([]), self
        rem = list(self.coeffs)
        quo = [self._zero()] * (len(rem) - len(o.coeffs) + 1)
        inv_lc = self._one() / o.lc
        for k in range(len(quo) - 1, -1, -1):
            c = rem[k + o.degree] * inv_lc
            if c:
                quo[k] = c
                for j, b in enumerate(o.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return self._make(quo), self._make(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero:
            raise InternalInvariantError(f"exact division had remainder {r}")
        return q

    def monic(self):
        if self.is_zero:
            return self
        if self.lc == self._one():
            return self
        inv = self._one() / self.lc
        return self._make([c * inv for c in self.coeffs])

    def scale(self, s):
        c = self._try_coeff(s)
        return self._make([a * c for a in self.coeffs])

    def gcd(self, other):
        a, b = self, self._same(other)
        while not b.is_zero:
            a, b = b, a % b
        if a.is_zero:
            return a
        return a.monic()

    def derivative(self):
        return self._make([i * c for i, c in enumerate(self.coeffs)][1:])

    def squarefree_part(self):
        if self.degree <= 0:
            return self.monic()
        g = self.gcd(self.derivative())
        return self.exact_div(g).monic()

    def is_squarefree(self) -> bool:
        return self.degree <= 0 or self.gcd(self.derivative()).degree == 0

    def eval(self, x):
        acc = self._zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, other):
        o = self._same(other)
        acc = self._make([])
        for c in reversed(self.coeffs):
            acc = acc * o + self._make([c] if c else [])
        return acc

    def reverse(self):
        """x^deg * p(1/x); trailing zero coefficients of p drop out."""
        return self._make(list(reversed(self.coeffs)))

    def _coerce(self, c):
        v = self._try_coeff(c)
        if v is None:
            raise TypeError(f"cannot coerce {c!r} into {type(self).__name__} coefficient")
        return v

    def sturm_count(self, lo, hi) -> int:
        """Number of distinct real roots in (lo, hi]; needs squarefree self."""
        chain = [self, self.derivative()]
        while chain[-1].degree > 0:
            r = chain[-2] % chain[-1]
            if r.is_zero:
                break
            chain.append(-r)

        def variations(x):
            signs = [_sign_of(p.eval(x)) for p in chain]
            signs = [s for s in signs if s != 0]
            return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

        return variations(lo) - variations(hi)

    def __eq__(self, other):
        o = self._same(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def _format(self, var="x") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            else:
                xs = var if i == 1 else f"{var}^{i}"
                cs = "" if c == self._one() else f"({c})*"
                parts.append(f"{cs}{xs}")
        return " + ".join(parts)

    def __str__(self):
        return self._format()


class RatPoly(_PolyBase):
    """Dense polynomial with Fraction coefficients, low-to-high order."""

    __slots__ = ()

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs",
                           self._strip([self._coerce(c) for c in coeffs]))

    def __setattr__(self, *a):
        raise AttributeError("RatPoly is immutable")

    @staticmethod
    def _zero() -> Fraction:
        return Fraction(0)

    @staticmethod
    def _one() -> Fraction:
        return Fraction(1)

    @staticmethod
    def _try_coeff(c):
        if isinstance(c, Fraction):
            return c
        if isinstance(c, int):
            return Fraction(c)
        if isinstance(c, str):
            return Fraction(c)
        return None

    def _make(self, coeffs) -> "RatPoly":
        p = RatPoly.__new__(RatPoly)
        object.__setattr__(p, "coeffs", self._strip(list(coeffs)))
        return p

    @classmethod
    def from_roots(cls, roots) -> "RatPoly":
        p = cls([1])
        for r in roots:
            p = p * cls([-Fraction(r), 1])
        return p

    def primitive_integer_coeffs(self) -> tuple[int, ...]:
        """Integer coefficients, content 1, positive leading; low-to-high."""
        if self.is_zero:
            raise ValueError("primitive form of zero polynomial")
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*ints)
        ints = [c // g for c in ints]
        if ints[-1] < 0:
            ints = [-c for c in ints]
        return tuple(ints)

    def lift(self, d: int) -> "KPoly":
        return KPoly([QuadElem(c, 0, d) for c in self.coeffs], d)

    def __repr__(self):
        return f"RatPoly({self._format()})"


class KPoly(_PolyBase):
    """Dense polynomial with QuadElem coefficients over a fixed Q(sqrt(d))."""

    __slots__ = ("d",)

    def __init__(self, coeffs, d: int):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coeffs",
                           self._strip([self._coerce(c) for c in coeffs]))

    def __setattr__(self, *a):
        raise AttributeError("KPoly is immutable")

    def _zero(self) -> QuadElem:
        return QuadElem(0, 0, self.d)

    def _one(self) -> QuadElem:
        return QuadElem(1, 0, self.d)

    def _try_coeff(self, c):
        if isinstance(c, QuadElem):
            if c.d != self.d:
                from .errors import MixedFieldError
                raise MixedFieldError(f"coefficient field d={c.d}, polynomial d={self.d}")
            return c
        if isinstance(c, (int, Fraction)):
            return QuadElem(c, 0, self.d)
        return None

    def _same(self, other):
        if isinstance(other, KPoly):
            if other.d != self.d:
                from .errors import MixedFieldError
                raise MixedFieldError(f"mixed polynomial fields d={self.d}, d={other.d}")
            return other
        if isinstance(other, RatPoly):
            return other.lift(self.d)
        c = self._try_coeff(other)
        if c is None:
            return None
        return self._make([c] if c else [])

    def _make(self, coeffs) -> "KPoly":
        p = KPoly.__new__(KPoly)
        object.__setattr__(p, "d", self.d)
        object.__setattr__(p, "coeffs", self._strip(list(coeffs)))
        return p

    @classmethod
    def x(cls, d: int) -> "KPoly":
        return cls([0, 1], d)

    @classmethod
    def from_roots(cls, roots, d: int) -> "KPoly":
        p = cls([1], d)
        for r in roots:
            p = p * cls([-r, 1], d)
        return p

    def conj(self) -> "KPoly":
        return self._make([c.conj() for c in self.coeffs])

    def is_rational(self) -> bool:
        return all(c.is_rational() for c in self.coeffs)

    def to_ratpoly(self) -> RatPoly:
        if not self.is_rational():
            raise ValueError(f"{self} has irrational coefficients")
        return RatPoly([c.a for c in self.coeffs])

    def __repr__(self):
        return f"KPoly({self._format()}; d={self.d})"


# ---------------------------------------------------------------------------
# factorization over Q (sympy-backed, certified here)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor^mult) with monic irreducible factors."""

    unit: object
    factors: tuple  # ((poly, mult), ...)

    def distinct(self) -> list:
        return [f for f, _m in self.factors]


def _zz_factor(ints: list[int]):
    """sympy's factorer over Z (Zassenhaus) on high-to-low coefficients:
    (content, [(primitive factor with positive leading coefficient, mult)])."""
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_zz_factor

    return dup_zz_factor(ints, ZZ)


def _zz_gcd(f: list[int], g: list[int]):
    """sympy's gcd over Z on high-to-low coefficients: (h, f / h, g / h)."""
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dup_inner_gcd

    return dup_inner_gcd(f, g, ZZ)


def _zz_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


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


def _rational_roots(p: RatPoly) -> list[Fraction]:
    """The distinct rational roots of p, exactly, without factoring an integer.

    y = lc * x turns the primitive integer form f (degree n, leading
    coefficient lc) into the monic g(y) = lc^(n-1) f(y/lc) over Z, whose
    integer roots are lc times the rational roots of f, and |y| < 2^(k+1) when
    |g_(n-j)| < 2^(kj) for all j (Fujiwara).  Modulo the first prime l at
    which every root of g is simple, each integer root y reduces to one of
    them, which Newton steps lift uniquely to l^e > 2^(k+2), whose symmetric
    residue is y; each lifted candidate is tested exactly by Horner over Z.
    """
    from sympy import nextprime

    ints = list(p.primitive_integer_coeffs())
    zeros = next(i for i, c in enumerate(ints) if c)  # x^zeros divides f
    roots, ints = [Fraction(0)] if zeros else [], ints[zeros:]
    n, lc = len(ints) - 1, ints[-1]
    if n == 0:
        return roots
    g = [c * lc ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    k = max(-(-abs(c).bit_length() // (n - i)) for i, c in enumerate(g[:-1]))
    ell = 1
    for tried in itertools.count(1):
        ell = nextprime(ell)
        if tried == 8:  # a repeated root is simple modulo no prime: drop repeats
            g = [int(c) for c in RatPoly(g).squarefree_part().coeffs]
        dg = [i * c for i, c in enumerate(g)][1:]
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


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    root = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
    return root if root * root == q else None


def _certify_irreducible_q(p: RatPoly) -> None:
    """Independent irreducibility re-check for degree <= 4 (raises on failure)."""
    deg = p.degree
    if deg <= 1:
        return
    if _rational_roots(p):
        raise NotIrreducible(f"{p} has a rational root")
    if deg <= 3:
        return
    if deg == 4:
        # depress: x -> y - a3/4, then quadratic splits come from the
        # resolvent cubic z^3 + 2Pz^2 + (P^2-4R)z - Q^2 having a positive
        # rational square root z0 = u^2 (Q != 0), or the biquadratic cases.
        m = p.monic()
        a3 = m.coeffs[2 + 1]
        dep = m.compose(RatPoly([-a3 / 4, 1]))
        P, Q, R = dep.coeffs[2], dep.coeffs[1], dep.coeffs[0]
        if Q == 0:
            if _rational_sqrt(P * P - 4 * R) is not None:
                raise NotIrreducible(f"{p} splits as a biquadratic")
            g = _rational_sqrt(R)
            if g is not None and (_rational_sqrt(2 * g - P) is not None
                                  or _rational_sqrt(-2 * g - P) is not None):
                raise NotIrreducible(f"{p} splits into quadratics")
            return
        resolvent = RatPoly([-Q * Q, P * P - 4 * R, 2 * P, 1])
        for z0 in _rational_roots(resolvent):
            if z0 > 0 and _rational_sqrt(z0) is not None:
                raise NotIrreducible(f"{p} splits into quadratics (resolvent root {z0})")
        return
    # degree >= 5: no independent certificate here (see decision ledger)


@memoized
def factor_q(p: RatPoly) -> Factorization:
    """Complete factorization over Q into monic irreducibles.

    Runs on the primitive integer form of p.  Inside a ``memo.scope()`` the
    primitive irreducibles certified earlier in the scope (the pool) are
    divided out first, exactly over Z, and sympy's factorer runs only on a
    nonconstant cofactor.  Gauss's lemma lets a pooled f divide only when
    lc(f) | lc and f(0) | the constant term, which skips most candidates
    without a division.  Certified on every call: the content times the
    primitive form is p, all integer factors multiply back to the primitive
    form exactly, and factors of degree <= 4 pass an independent
    irreducibility re-check.
    """
    if p.is_zero:
        raise ValueError("factor_q of zero polynomial")
    if p.degree == 0:
        return Factorization(p.coeffs[0], ())
    prim = p.primitive_integer_coeffs()
    content = p.lc / prim[-1]
    if [content * c for c in prim] != list(p.coeffs):
        raise InternalInvariantError(f"factor_q content scale-back failed for {p}")
    pool = memo.pool()  # primitive irreducibles, low-to-high, as dict keys
    found, rest = [], list(prim)
    for f in pool or ():
        mult = 0
        while _divides(f[-1], rest[-1]) and _divides(f[0], rest[0]):
            quo = _zz_exact_div(rest, f)
            if quo is None:
                break
            rest, mult = quo, mult + 1
        if mult:
            found.append((f, mult))
    zz_unit = rest[0]
    if len(rest) > 1:
        zz_unit, zz_factors = _zz_factor(rest[::-1])
        found += [(tuple(f[::-1]), mult) for f, mult in zz_factors]
    check = [zz_unit]
    unit = content * zz_unit
    factors = []
    for f, mult in found:
        for _ in range(mult):
            check = _zz_mul(check, f)
        unit *= f[-1] ** mult
        factors.append((RatPoly([Fraction(c, f[-1]) for c in f]), mult))
    if tuple(check) != prim:
        raise InternalInvariantError(f"factor_q multiply-back failed for {p}")
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    for f, _m in factors:
        _certify_irreducible_q(f)
    for f, _m in factors:  # each factor is its own factorization
        remember(factor_q, Factorization(Fraction(1), ((f, 1),)), f)
    if pool is not None:
        pool.update(dict.fromkeys(f for f, _m in found))
    return Factorization(unit, tuple(factors))


# ---------------------------------------------------------------------------
# factorization over K (norm descent)
# ---------------------------------------------------------------------------

def _factor_k_squarefree(g: KPoly) -> list[KPoly]:
    if g.degree == 1:
        return [g.monic()]
    d = g.d
    sqrt_d = QuadElem(0, 1, d)
    for s in range(1, 65):
        # shift so that the norm N(x) = h(x) * conj(h)(x) becomes squarefree
        shift = KPoly([-(s * sqrt_d), 1], d)
        h = g.compose(shift)
        norm = h * h.conj()
        if not norm.is_rational():
            raise InternalInvariantError("norm polynomial not rational")
        nq = norm.to_ratpoly()
        if not nq.is_squarefree():
            continue
        pieces = []
        for f, _m in factor_q(nq).factors:
            c = h.gcd(f.lift(d))
            if c.degree >= 1:
                pieces.append(c.monic())
        unshift = KPoly([s * sqrt_d, 1], d)
        factors = [c.compose(unshift).monic() for c in pieces]
        prod = KPoly([1], d)
        for f in factors:
            prod = prod * f
        if prod != g.monic():
            raise InternalInvariantError(f"factor_k multiply-back failed for {g}")
        return factors
    raise InternalInvariantError(f"no squarefree shift found for {g}")


def _split_over_k(f: RatPoly, d: int) -> list[KPoly]:
    """Monic irreducible factors over K of a monic Q-irreducible f.

    Gal(K/Q) permutes them transitively, so f stays irreducible or splits
    into two conjugates of half its degree: an odd degree never splits, and
    x^2 + c1 x + c0 splits iff (c1^2 - 4 c0)/d = q^2 is a rational square,
    into the roots (-c1 +- q sqrt(d))/2.
    """
    if f.degree % 2:
        return [f.lift(d)]
    if f.degree == 2:
        c0, c1 = f.coeffs[0], f.coeffs[1]
        q = _rational_sqrt((c1 * c1 - 4 * c0) / d)
        if q is None:
            return [f.lift(d)]
        return [KPoly([QuadElem(c1 / 2, s * q / 2, d), 1], d) for s in (1, -1)]
    return _factor_k_squarefree(f.lift(d))


@memoized
def factor_k(p: KPoly) -> Factorization:
    """Factorization into monic irreducibles over K = Q(sqrt(d)).

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
    unit = p.lc
    if p.degree == 0:
        return Factorization(unit, ())
    rest = monic = p.monic()
    rational, items = monic.is_rational(), []
    for f, m in factor_q(_over_q(monic)).factors:
        if rational:  # f^m divides p exactly, and so does each K-factor of f to the m
            items += [(g, m) for g in _split_over_k(f, p.d)]
            continue
        c = monic.gcd(f.lift(p.d))
        for g in ([c, c.conj()] if 0 < c.degree < f.degree else _split_over_k(f, p.d)):
            mult = 0
            while not (quo_rem := divmod(rest, g))[1]:
                rest, mult = quo_rem[0], mult + 1
            if mult:
                items.append((g, mult))
    items.sort(key=lambda fm: (fm[0].degree, tuple((c.a, c.b) for c in fm[0].coeffs)))
    check = KPoly([unit], p.d)
    for f, m in items:
        check = check * f ** m
    if check != p:
        raise InternalInvariantError(f"factor_k multiply-back failed for {p}")
    for f, _m in items:  # each factor is its own factorization
        remember(factor_k, Factorization(f.lc, ((f, 1),)), f)
    return Factorization(unit, tuple(items))


def root_integrality_flags(q: RatPoly) -> tuple[bool, bool, bool]:
    """(roots are algebraic integers, reciprocals are too, both = units).

    q must be irreducible over Q; read off the primitive integer form.
    """
    if q.degree < 1:
        raise NotIrreducible(f"{q} is constant")
    fac = factor_q(q)
    if len(fac.factors) != 1 or fac.factors[0][1] != 1:
        raise NotIrreducible(f"{q} is not irreducible over Q")
    ints = q.primitive_integer_coeffs()
    is_int = abs(ints[-1]) == 1
    is_recip = ints[0] != 0 and abs(ints[0]) == 1
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
    m = pi.degree
    h = m // 2
    coeffs = pi.coeffs
    # V_k(y) represents x^k + x^-k:  V_0 = 2, V_1 = y, V_k = y V_{k-1} - V_{k-2}
    y = pi._make([pi._zero(), pi._one()])
    v_prev = pi._make([pi._one() + pi._one()])
    v_cur = y
    g = pi._make([coeffs[h]])
    for k in range(1, h + 1):
        g = g + v_cur.scale(coeffs[h + k])
        v_prev, v_cur = v_cur, y * v_cur - v_prev
    return g


def _certified_roots(coeffs_mpc, dps: int):
    """(roots, radii) with pairwise-one-root disk certification, or None."""
    import mpmath

    with mpmath.workdps(dps):
        deg = len(coeffs_mpc) - 1
        try:
            roots = mpmath.polyroots(coeffs_mpc, maxsteps=200, extraprec=dps * 2)
        except Exception:  # treat any solver failure as "retry with more digits"
            return None

        def _eval(cs, z):
            acc = mpmath.mpc(0)
            for c in cs:
                acc = acc * z + c
            return acc

        dcoeffs = [c * (deg - i) for i, c in enumerate(coeffs_mpc[:-1])]
        radii = []
        for z in roots:
            dv = _eval(dcoeffs, z)
            if dv == 0:
                return None
            # disk of radius deg*|p(z)/p'(z)| contains a root; 4x safety margin
            radii.append(4 * deg * abs(_eval(coeffs_mpc, z) / dv))
        for (z1, r1), (z2, r2) in itertools.combinations(zip(roots, radii), 2):
            if abs(z1 - z2) <= r1 + r2:
                return None
        return list(zip(roots, radii))


def _poly_to_mpc_coeffs(p, dps: int):
    import mpmath

    with mpmath.workdps(dps):
        out = []
        for c in reversed(p.coeffs):
            if isinstance(c, QuadElem):
                out.append(mpmath.mpc(to_mpf(c, dps)))
            else:
                out.append(mpmath.mpc(mpmath.mpf(c.numerator) / c.denominator))
        return out


def certified_root_boxes(p, dps: int = 60):
    """Certified (root, radius) pairs at adaptive precision (squarefree p)."""
    for trial_dps in (dps, 2 * dps, 4 * dps, 8 * dps, 16 * dps):
        got = _certified_roots(_poly_to_mpc_coeffs(p, trial_dps), trial_dps)
        if got is not None:
            return got
    raise PrecisionExhausted(f"could not certify roots of {p}")


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
        two = Fraction(2)
        on = 2 * g.sturm_count(-two, two)
        if (deg - on) % 2:
            raise InternalInvariantError("off-circle roots of self-reciprocal not paired")
        half = (deg - on) // 2
        return CircleProfile(half, on, half)
    inside, outside = _offcircle_counts(pi)
    return CircleProfile(inside, 0, outside)


def circle_profile(p) -> CircleProfile:
    """Counts of roots inside / on / outside the unit circle, with multiplicity.

    Every count is exact.  An irreducible factor has roots on the circle iff
    it is self-reciprocal, and then the count is 2 * (real roots of the
    x + 1/x transform in (-2, 2)), a Sturm computation over the coefficient
    field, with the other roots split evenly between inside and outside.
    Any other factor has no root on the circle, and its roots inside and
    outside are the negative and positive inertia of its Schur-Cohn matrix.
    """
    if p.is_zero:
        raise ValueError("circle_profile of zero polynomial")
    if isinstance(p, KPoly) and p.is_rational():
        p = p.to_ratpoly()
    if isinstance(p, KPoly):
        items = factor_k(p).factors
    else:
        items = factor_q(p).factors
    inside = on = outside = 0
    for f, m in items:
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
    from sympy import isprime

    p = n + 1
    while not isprime(p):
        p += n
    primes = _prime_divisors(n)
    for a in range(1, p):
        w = pow(a, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in primes):
            return p, w
    raise InternalInvariantError(f"no element of order {n} modulo the prime {p}")


def _cyclotomic_orders(r: RatPoly, ones: int = 0) -> list[int]:
    """Every n >= 1 with Phi_n | f = r / (x - 1)^ones, for r over Q, without
    factoring f.

    f is formed on the primitive integer form of r by ones synthetic
    divisions by x - 1 (running sums from the top), each of which must leave
    no remainder.  The candidates are the n with phi(n) <= deg f.  If w has
    exact order n modulo a prime p = 1 (mod n), then Phi_n(w) = 0 (mod p), so
    Phi_n | f forces f(w) = 0 (mod p), and a nonzero residue rules n out.  A
    candidate that survives is an order only if the exact division of f by
    Phi_n over Z leaves no remainder.
    """
    f = r.primitive_integer_coeffs()
    for _ in range(ones):
        sums = list(itertools.accumulate(reversed(f)))  # the last one is f(1)
        if sums.pop():
            raise InternalInvariantError(f"(x - 1)^{ones} does not divide {r}")
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
    primes = [p for p in range(2, bound + 2) if all(p % q for q in range(2, math.isqrt(p) + 1))]
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

    extend(1, 1, 0)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# ratio and power polynomials, non-degeneracy
# ---------------------------------------------------------------------------

def _power_sums(p, count: int) -> list:
    """[s_1, ..., s_count], s_k the k-th power sum of the roots of p."""
    m = p.monic()
    n = m.degree
    c = m.coeffs[::-1]  # c[j] is the coefficient of x^(n-j); c[0] = 1
    sums = []
    for k in range(1, count + 1):
        # Newton: s_k + c_1 s_(k-1) + ... + c_(k-1) s_1 + k c_k = 0, c_k = 0 past n
        acc = k * c[k] if k <= n else m._zero()
        for j in range(1, min(k, n + 1)):
            acc = acc + c[j] * sums[k - j - 1]
        sums.append(-acc)
    return sums


def _from_power_sums(sums: list, like, root_product):
    """Monic polynomial over the field of `like` whose N = len(sums) roots have
    the power sums s_1, ..., s_N, by Newton's identities (k is invertible in
    characteristic 0).

    Certified: the constant term must be (-1)^N times root_product, the
    product of the roots as the caller computes it from its inputs' end
    coefficients.
    """
    c = [like._one()]
    for k in range(1, len(sums) + 1):
        acc = sums[k - 1]
        for j in range(1, k):
            acc = acc + c[j] * sums[k - j - 1]
        c.append(-acc / k)
    out = like._make(c[::-1])
    if out.constant_term() != (-1) ** len(sums) * root_product:
        raise InternalInvariantError(
            f"power-sum polynomial {out} has the wrong root product")
    return out


def _root_product(p):
    return (-1) ** p.degree * p.coeffs[0] / p.lc


def ratio_poly(p, q):
    """Monic polynomial whose roots are the ratios alpha/beta, alpha a root of
    p and beta a root of q, with multiplicity; over the field of p and q.

    Built from power sums, s_k(alpha/beta) = s_k(alpha) * s_k(1/beta), where
    1/beta runs over the roots of q.reverse() (Bostan, Flajolet, Salvy and
    Schost, "Fast computation of special resultants", 2006).
    """
    if p.degree < 1 or q.degree < 1:
        raise PreconditionViolated("ratio_poly needs two nonconstant polynomials")
    if q.constant_term() == 0:
        raise ZeroRootInDenominator("denominator polynomial has root 0")
    n = p.degree * q.degree
    sums = [a * b for a, b in zip(_power_sums(p, n), _power_sums(q.reverse(), n))]
    return _from_power_sums(
        sums, p, _root_product(p) ** q.degree / _root_product(q) ** p.degree)


def power_poly(p, k: int):
    """Monic polynomial whose roots are the k-th powers of p's roots, with
    multiplicity: s_j(alpha^k) = s_(jk)(alpha)."""
    if p.degree < 1 or k < 1:
        raise PreconditionViolated("power_poly needs a nonconstant polynomial and k >= 1")
    sums = _power_sums(p, k * p.degree)
    return _from_power_sums(sums[k - 1::k], p, _root_product(p) ** k)


@memoized
def _over_q(p: KPoly) -> RatPoly:
    """p as a rational polynomial, or p * conj(p) when p is irrational."""
    if not p.is_rational():
        p = p * p.conj()
        if not p.is_rational():
            raise InternalInvariantError("p * conj(p) not rational")
    return p.to_ratpoly()


def nondegeneracy(p, over: str = "baseK") -> tuple[bool, list[int]]:
    """Root-ratio degeneracy test.

    over="baseK": ratios among the roots of p itself.  over="Q": ratios among
    the roots of p * p.conj() (conjugate orbits).  A rational p has the
    same pool at both levels.  Roots at zero are ignored: they cannot take
    part in a unit-modulus ratio.
    Returns (non_degenerate, sorted root-of-unity witness orders).
    """
    if over not in ("baseK", "Q"):
        raise PreconditionViolated(f"unknown Galois level {over!r}")
    if p.is_zero or p.degree < 1:
        raise PreconditionViolated("nondegeneracy needs a nonconstant polynomial")
    if isinstance(p, KPoly) and p.is_rational():
        p = p.to_ratpoly()
    witnesses = _witness_orders(p, "Q" if isinstance(p, RatPoly) else over)
    return (not witnesses), list(witnesses)


@memoized
def _witness_orders(p, over: str) -> tuple[int, ...]:
    """Sorted witness orders; p is a RatPoly (over="Q") or an irrational KPoly.

    The pool is the roots of p over its own field: those of p * conj(p) over
    Q for a KPoly at over="Q".  Each unordered pair of its distinct
    irreducible factors gives one ratio polynomial, read over Q: a ratio
    polynomial r with irrational coefficients is replaced by r * conj(r),
    whose extra roots are conjugates of r's, and conjugation maps a primitive
    n-th root of unity to another one of order n.
    """
    while p.degree >= 1 and p.coeffs[0] == 0:
        p = p._make(list(p.coeffs[1:]))
    if p.degree < 1:
        return ()
    if isinstance(p, KPoly) and over == "Q":
        p = _over_q(p)
    base = (factor_k(p) if isinstance(p, KPoly) else factor_q(p)).distinct()
    witnesses: set[int] = set()
    for i, fi in enumerate(base):
        for fj in base[i:]:
            if fi.degree == 1 and fj.degree == 1:
                if fi == fj:
                    continue  # a single root forms no ratio
                a, b = -fi.coeffs[0], -fj.coeffs[0]
                if a == b:
                    raise InternalInvariantError("distinct irreducible factors share a root")
                # a real ratio is a root of unity only as -1 (1 would be a shared root)
                if a == -b:
                    witnesses.add(2)
                continue
            r = ratio_poly(fi, fj)
            # self-ratios contribute (x-1)^deg exactly once per root, twice
            # to r * conj(r); they are stripped on the integer form
            ones = fi.degree if fi == fj else 0
            if isinstance(r, KPoly):
                if not r.is_rational():
                    ones *= 2
                r = _over_q(r)
            for n in _cyclotomic_orders(r, ones):
                if n == 1:
                    raise InternalInvariantError("distinct irreducible factors share a root")
                witnesses.add(n)
    return tuple(sorted(witnesses))
