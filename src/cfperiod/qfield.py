"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

An element is stored as integers: (A + B*sqrt(d))/m with gcd(A, B, m) = 1 and
m > 0, so each element has exactly one representation and equality is
equality of the integers.  Every arithmetic result is brought to that form by
one gcd.  (Cohen, *A Course in Computational Algebraic Number Theory*, ch. 4,
keeps number-field elements the same way: an integer vector over one common
denominator.)  The rational coordinates a = A/m and b = B/m are read-only
Fraction properties.

The field parameter d, a squarefree integer >= 2, is checked where it comes
in from outside: by quad() and by the CLI's job parsing.  QuadElem(a, b, d),
the arithmetic and the constructors fed by split_square trust it.
Everything here is exact integer/rational arithmetic; no floating point ever
enters a comparison, floor, or sign decision.  The one float image of an
element, image_tuple, is free of cancellation, and to_mpf wraps it into an
mpf for the root boxes of ``places``; a log at a real place is formed there
from the integers, with no float image.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadFieldParameter,
    DivisionByZero,
    MixedFieldError,
    NegativeInput,
    RationalInput,
)


_SQUAREFREE_OK: set[int] = set()
_HASH_MODULUS = sys.hash_info.modulus


def check_field_parameter(d: int) -> None:
    """Raise BadFieldParameter unless d is a squarefree integer >= 2."""
    if d in _SQUAREFREE_OK:
        return
    if d < 2:
        raise BadFieldParameter(f"field parameter d must be >= 2, got {d}")
    if split_square(d)[1] != d:
        raise BadFieldParameter(f"field parameter d must be squarefree, got {d}")
    _SQUAREFREE_OK.add(d)


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


class QuadElem:
    """(A + B*sqrt(d))/m, exact and immutable; B may be zero (rational embedding).

    QuadElem(a, b, d) takes int or Fraction coordinates and means a + b*sqrt(d).
    """

    __slots__ = ("A", "B", "m", "d")

    def __new__(cls, a, b, d: int):
        if type(a) is int and type(b) is int:
            return _new(a, b, 1, d)
        a, b = _as_fraction(a), _as_fraction(b)
        qa, qb = a.denominator, b.denominator
        m = math.lcm(qa, qb)  # of reduced denominators: gcd(A, B, m) = 1 already
        return _new(a.numerator * (m // qa), b.numerator * (m // qb), m, d)

    def __setattr__(self, name, value):
        raise AttributeError(f"QuadElem is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QuadElem is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return QuadElem, (self.a, self.b, self.d)

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.m)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.m)

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other) -> "QuadElem | None":
        if type(other) is QuadElem:
            if other.d != self.d:
                raise MixedFieldError(
                    f"mixed field parameters d={self.d} and d={other.d}")
            return other
        if isinstance(other, int):
            return _new(int(other), 0, 1, self.d)
        if isinstance(other, Fraction):
            return _new(other.numerator, 0, other.denominator, self.d)
        return None

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m, om = self.m, o.m
        if m == om:
            A, B = self.A + o.A, self.B + o.B
            if m == 1:
                return _new(A, B, 1, self.d)
        else:
            A, B, m = self.A * om + o.A * m, self.B * om + o.B * m, m * om
        return _reduced(A, B, m, self.d)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.A, -self.B, self.m, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m, om = self.m, o.m
        if m == om:
            A, B = self.A - o.A, self.B - o.B
            if m == 1:
                return _new(A, B, 1, self.d)
        else:
            A, B, m = self.A * om - o.A * m, self.B * om - o.B * m, m * om
        return _reduced(A, B, m, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        A1, B1, A2, B2, d = self.A, self.B, o.A, o.B, self.d
        A, B, m = A1 * A2 + d * B1 * B2, A1 * B2 + B1 * A2, self.m * o.m
        if m == 1:
            return _new(A, B, 1, d)
        return _reduced(A, B, m, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadElem":
        A, B, m, d = self.A, self.B, self.m, self.d
        n = A * A - d * B * B
        if n == 0:
            raise DivisionByZero(f"inverse of zero element {self!r}")
        # 1/x = m (A - B sqrt d) / (A^2 - d B^2)
        return _reduced(m * A, -m * B, n, d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        A1, B1, A2, B2, d = self.A, self.B, o.A, o.B, self.d
        if B2 == 0:
            if A2 == 0:
                raise DivisionByZero(f"division of {self!r} by zero")
            return _reduced(A1 * o.m, B1 * o.m, self.m * A2, d)
        # x/y = x * m_y (A2 - B2 sqrt d) / (A2^2 - d B2^2), one gcd in all
        n = A2 * A2 - d * B2 * B2
        return _reduced(o.m * (A1 * A2 - d * B1 * B2), o.m * (B1 * A2 - A1 * B2),
                        self.m * n, d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        base = self if e >= 0 else self.inverse()
        result = _new(1, 0, 1, self.d)
        k = abs(e)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- field-theoretic maps ------------------------------------------------

    def conj(self) -> "QuadElem":
        return _new(self.A, -self.B, self.m, self.d)

    def trace(self) -> Fraction:
        return Fraction(2 * self.A, self.m)

    def norm(self) -> Fraction:
        return Fraction(self.A * self.A - self.d * self.B * self.B, self.m * self.m)

    def is_rational(self) -> bool:
        return self.B == 0

    # -- exact order structure -----------------------------------------------

    def sign(self) -> int:
        A, B = self.A, self.B  # m > 0: the signs of a and b
        if B == 0:
            return (A > 0) - (A < 0)
        if A == 0:
            return 1 if B > 0 else -1
        sa = 1 if A > 0 else -1
        sb = 1 if B > 0 else -1
        if sa == sb:
            return sa
        # opposite signs: |A| vs |B|*sqrt(d); equality impossible (d squarefree)
        return sa if A * A > B * B * self.d else sb

    def floor(self) -> int:
        u, v, w = self.A, self.B, self.m
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
        if isinstance(other, int):  # the common test against 0
            return self.B == 0 and self.m == 1 and self.A == other
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.A == o.A and self.B == o.B and self.m == o.m

    def __hash__(self):
        # that of the Fraction a (rational) or of (a, b, d), from the integers
        A, B, m = self.A, self.B, self.m
        if B == 0:
            return hash(A) if m == 1 else _fraction_hash(A, m)
        if m == 1:
            return hash((A, B, self.d))
        return hash((_fraction_hash(A, m), _fraction_hash(B, m), self.d))

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
        return self.A != 0 or self.B != 0

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        bs = "" if b == 1 else ("-" if b == -1 else f"{b}*")
        tail = f"{bs}sqrt({self.d})"
        if a == 0:
            return tail
        op = "+" if b > 0 else "-"
        mag = abs(b)
        ms = "" if mag == 1 else f"{mag}*"
        return f"{a} {op} {ms}sqrt({self.d})"

    def __repr__(self):
        return f"QuadElem({self.a!r}, {self.b!r}, {self.d})"


_object_new = object.__new__
_set_A = QuadElem.A.__set__
_set_B = QuadElem.B.__set__
_set_m = QuadElem.m.__set__
_set_d = QuadElem.d.__set__


def _fraction_hash(n: int, m: int) -> int:
    """hash(Fraction(n, m)) for m > 0, n/m in lowest terms or not, without
    building the Fraction: Python's numeric hash |n| / m modulo the prime
    sys.hash_info.modulus, with the sign of n."""
    if m % _HASH_MODULUS == 0:  # no inverse: only the reduced form can say
        return hash(Fraction(n, m))
    h = hash(hash(abs(n)) * pow(m, -1, _HASH_MODULUS))
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


def _new(A: int, B: int, m: int, d: int) -> QuadElem:
    """The element (A + B*sqrt(d))/m; the caller guarantees the normal form."""
    x = _object_new(QuadElem)
    _set_A(x, A)
    _set_B(x, B)
    _set_m(x, m)
    _set_d(x, d)
    return x


def _reduced(A: int, B: int, m: int, d: int) -> QuadElem:
    """(A + B*sqrt(d))/m for any m != 0, brought to gcd(A, B, m) = 1, m > 0."""
    if m < 0:
        A, B, m = -A, -B, -m
    g = math.gcd(A, B, m)
    if g != 1:
        A, B, m = A // g, B // g, m // g
    return _new(A, B, m, d)


def quad(a, b, d: int) -> QuadElem:
    """Checked constructor accepting ints, Fractions, or 'p/q' strings.

    Raises BadFieldParameter unless d is a squarefree integer >= 2.
    """
    def conv(x):
        if isinstance(x, str):
            return Fraction(x)
        return _as_fraction(x)
    a, b = conv(a), conv(b)
    check_field_parameter(d)
    return QuadElem(a, b, d)


def floor_exact(x) -> int:
    if isinstance(x, (int, Fraction)):
        return math.floor(x)
    return x.floor()


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
        return _reduced(self.P, s, self.Q, d0)

    def __str__(self):
        return f"({self.P} + sqrt({self.D}))/{self.Q}"


def to_surd(x: QuadElem) -> Surd:
    """Canonical (P + sqrt(D))/Q form of an irrational element."""
    if x.B == 0:
        raise RationalInput(f"to_surd of rational element {x}")
    u, v, w = x.A, x.B, x.m
    d0 = v * v * x.d
    if v > 0:
        p0, q0 = u, w
    else:
        p0, q0 = -u, -w
    if (d0 - p0 * p0) % q0 == 0:
        return Surd(p0, q0, d0)
    s = abs(q0)
    return Surd(p0 * s, q0 * s, d0 * s * s)


@functools.cache
def _sqrt_tuple(d: int, prec: int) -> tuple:
    """sqrt(d) to nearest at prec bits, an mpmath.libmp tuple: a constant of
    the field, computed on first use and kept, like mpmath's own ln 2."""
    import mpmath

    libmp = mpmath.libmp
    return libmp.mpf_sqrt(libmp.from_int(d), prec, libmp.round_nearest)


def image_tuple(A: int, B: int, m: int, d: int, prec: int) -> tuple:
    """(A + B*sqrt(d))/m for m > 0 as an mpmath.libmp tuple, good to a few
    units in the last of prec bits: when A and B*sqrt(d) differ in sign it
    is (A^2 - d*B^2) / (m*(A - B*sqrt(d))), in which nothing cancels.  Each
    step is one libmp operation rounded to nearest at prec bits, on exact
    integers and the field's cached sqrt(d); x's image under the second
    embedding is that of (A, -B, m).  to_mpf is its one caller."""
    import mpmath

    libmp = mpmath.libmp
    from_int, rnd = libmp.from_int, libmp.round_nearest
    bt = libmp.mpf_mul(from_int(B), _sqrt_tuple(d, prec), prec, rnd)
    if A * B < 0:
        den = libmp.mpf_mul(from_int(m), libmp.mpf_sub(from_int(A), bt, prec, rnd), prec, rnd)
        return libmp.mpf_div(from_int(A * A - d * B * B), den, prec, rnd)
    return libmp.mpf_div(libmp.mpf_add(from_int(A), bt, prec, rnd), from_int(m), prec, rnd)


def to_mpf(x, dps: int):
    """The float image of x under the b > 0 embedding at dps_to_prec(dps)
    bits, image_tuple's for a QuadElem, wrapped into an mpf once; no
    precision context is entered."""
    import mpmath

    libmp = mpmath.libmp
    from_int, rnd = libmp.from_int, libmp.round_nearest
    prec = libmp.dps_to_prec(dps)
    if isinstance(x, (int, Fraction)):
        f = _as_fraction(x)
        v = libmp.mpf_div(from_int(f.numerator, prec, rnd), from_int(f.denominator), prec, rnd)
    else:
        v = image_tuple(x.A, x.B, x.m, x.d, prec)
    return mpmath.mp.make_mpf(v)
