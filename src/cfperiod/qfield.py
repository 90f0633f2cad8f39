"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

Elements are a + b*sqrt(d) with rational a, b and a fixed squarefree d >= 2
per field context.  Everything here is exact integer/rational arithmetic; no
floating point ever enters a comparison, floor, or sign decision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadFieldParameter,
    DivisionByZero,
    MixedFieldError,
    NegativeInput,
    RationalInput,
)

Rational = Fraction  # contract alias: reduced, positive denominator by construction

_SQUAREFREE_OK: set[int] = set()


def check_field_parameter(d: int) -> None:
    """Raise BadFieldParameter unless d is a squarefree integer >= 2."""
    if d in _SQUAREFREE_OK:
        return
    if d < 2:
        raise BadFieldParameter(f"field parameter d must be >= 2, got {d}")
    n, p = d, 2
    while p * p <= n:
        if n % (p * p) == 0:
            raise BadFieldParameter(f"field parameter d must be squarefree, got {d}")
        if n % p == 0:
            n //= p
        p += 1 if p == 2 else 2
    _SQUAREFREE_OK.add(d)


def integer_sqrt_floor(n: int) -> int:
    """floor(sqrt(n)) for n >= 0, exactly."""
    if n < 0:
        raise NegativeInput(f"integer_sqrt_floor of negative {n}")
    return math.isqrt(n)


def split_square(k: int) -> tuple[int, int]:
    """Write k > 0 as s^2 * d0 with d0 squarefree; returns (s, d0)."""
    if k <= 0:
        raise NegativeInput(f"split_square needs k > 0, got {k}")
    from sympy import factorint  # local: keep base module import light

    s, d0 = 1, 1
    for p, e in factorint(k).items():
        s *= p ** (e // 2)
        if e % 2:
            d0 *= p
    return s, d0


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class QuadElem:
    """a + b*sqrt(d), exact.  b may be zero (rational embedding)."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", _as_fraction(self.a))
        object.__setattr__(self, "b", _as_fraction(self.b))
        check_field_parameter(self.d)

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other) -> "QuadElem | None":
        if isinstance(other, QuadElem):
            if other.d != self.d:
                raise MixedFieldError(
                    f"mixed field parameters d={self.d} and d={other.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElem(_as_fraction(other), Fraction(0), self.d)
        return None

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.a * o.a + self.b * o.b * self.d,
                        self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadElem":
        n = self.norm()
        if n == 0:
            raise DivisionByZero(f"inverse of zero element {self!r}")
        return QuadElem(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.a == 0 and o.b == 0:
            raise DivisionByZero(f"division of {self!r} by zero")
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        base = self if e >= 0 else self.inverse()
        result = QuadElem(Fraction(1), Fraction(0), self.d)
        k = abs(e)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- field-theoretic maps ------------------------------------------------

    def conj(self) -> "QuadElem":
        return QuadElem(self.a, -self.b, self.d)

    def trace(self) -> Fraction:
        return 2 * self.a

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.d

    def is_rational(self) -> bool:
        return self.b == 0

    # -- exact order structure -----------------------------------------------

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        sa = 1 if a > 0 else -1
        sb = 1 if b > 0 else -1
        if sa == sb:
            return sa
        # opposite signs: |a| vs |b|*sqrt(d); equality impossible (d squarefree)
        return sa if a * a > b * b * self.d else sb

    def floor(self) -> int:
        w = math.lcm(self.a.denominator, self.b.denominator)
        u = int(self.a * w)
        v = int(self.b * w)
        if v == 0:
            t = 0
        elif v > 0:
            t = math.isqrt(v * v * self.d)
        else:
            # v*sqrt(d) is irrational, so floor = -isqrt(v^2 d) - 1
            t = -math.isqrt(v * v * self.d) - 1
        # u + t <= u + v*sqrt(d) < u + t + 1 pins floor((u + v sqrt d)/w)
        return (u + t) // w

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except MixedFieldError:
            raise
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare QuadElem with {type(other).__name__}")
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        bs = "" if self.b == 1 else ("-" if self.b == -1 else f"{self.b}*")
        tail = f"{bs}sqrt({self.d})"
        if self.a == 0:
            return tail
        op = "+" if self.b > 0 else "-"
        mag = abs(self.b)
        ms = "" if mag == 1 else f"{mag}*"
        return f"{self.a} {op} {ms}sqrt({self.d})"

    def __repr__(self):
        return f"QuadElem({self.a!r}, {self.b!r}, {self.d})"


def quad(a, b, d: int) -> QuadElem:
    """Convenience constructor accepting ints, Fractions, or 'p/q' strings."""
    def conv(x):
        if isinstance(x, str):
            return Fraction(x)
        return _as_fraction(x)
    return QuadElem(conv(a), conv(b), d)


def sqrt_int(k: int) -> QuadElem:
    """sqrt(k) for integer k >= 0 as an exact element (rational if square)."""
    if k < 0:
        raise NegativeInput(f"sqrt of negative integer {k}")
    if k == 0:
        return QuadElem(Fraction(0), Fraction(0), 2)
    s, d0 = split_square(k)
    if d0 == 1:
        return QuadElem(Fraction(s), Fraction(0), 2)
    return QuadElem(Fraction(0), Fraction(s), d0)


# Free-function aliases for the element maps (mirrors the module contract).

def conj(x: QuadElem) -> QuadElem:
    return x.conj()


def trace_norm(x: QuadElem) -> tuple[Fraction, Fraction]:
    return x.trace(), x.norm()


def floor_exact(x) -> int:
    if isinstance(x, (int, Fraction)):
        return math.floor(x)
    return x.floor()


def sign(x) -> int:
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    return x.sign()


@dataclass(frozen=True)
class Surd:
    """(P + sqrt(D)) / Q with integer P, Q != 0, D > 0 not a perfect square.

    Canonical invariant: Q divides D - P^2 (keeps the continued-fraction
    recursion in integers).
    """

    P: int
    Q: int
    D: int

    def __post_init__(self):
        if self.Q == 0:
            raise ValueError("Surd with Q = 0")
        if self.D <= 0 or math.isqrt(self.D) ** 2 == self.D:
            raise ValueError(f"Surd needs nonsquare D > 0, got D={self.D}")
        if (self.D - self.P * self.P) % self.Q != 0:
            raise ValueError(
                f"Surd invariant Q | D - P^2 violated: P={self.P} Q={self.Q} D={self.D}")

    def value(self) -> QuadElem:
        s, d0 = split_square(self.D)
        return QuadElem(Fraction(self.P, self.Q), Fraction(s, self.Q), d0)

    def __str__(self):
        return f"({self.P} + sqrt({self.D}))/{self.Q}"


def to_surd(x: QuadElem) -> Surd:
    """Canonical (P + sqrt(D))/Q form of an irrational element."""
    if x.b == 0:
        raise RationalInput(f"to_surd of rational element {x}")
    w = math.lcm(x.a.denominator, x.b.denominator)
    u = int(x.a * w)
    v = int(x.b * w)
    d0 = v * v * x.d
    if v > 0:
        p0, q0 = u, w
    else:
        p0, q0 = -u, -w
    if (d0 - p0 * p0) % q0 == 0:
        return Surd(p0, q0, d0)
    s = abs(q0)
    return Surd(p0 * s, q0 * s, d0 * s * s)


def to_mpf(x, dps: int):
    """Certified-precision float image of x under the b > 0 embedding."""
    import mpmath

    with mpmath.workdps(dps):
        if isinstance(x, (int, Fraction)):
            f = _as_fraction(x)
            return mpmath.mpf(f.numerator) / f.denominator
        return (mpmath.mpf(x.a.numerator) / x.a.denominator
                + (mpmath.mpf(x.b.numerator) / x.b.denominator) * mpmath.sqrt(x.d))
