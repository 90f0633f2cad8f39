"""Polynomials over a real quadratic field K = Q(sqrt(d)) on integer coordinates.

KPoly, the one polynomial class, keeps the coefficient of x^i as
(A_i + B_i sqrt(d)) / m: an A-list and a B-list of ints over one
denominator m > 0, with gcd 1 over all of them, so equality is equality of
the integers (qfield.QuadElem keeps one element the same way).  Products,
divisions, monic, conj, compose, eval and powers run on the integers with
one gcd per result; coeffs is a read-only view of QuadElems, built on first
use, for reports and for callers that need one element.

The gcd is modular (_gcd_k; Langemyr and McCallum, J. Symbolic Comput. 8,
1989; Encarnacion, J. Symbolic Comput. 20, 1995), the one gcd algorithm of
the package, over K and over Q: images at split primes, where sqrt(d) maps
to +-t (one image per prime for a rational pair), gcds modulo p on modp's
layer, CRT and rational reconstruction, certified by exact division of
both inputs and by the degree of an image gcd at a prime of good reduction.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import DivisionByZero, InternalInvariantError, MixedFieldError
from . import modp
from .qfield import QuadElem, _reduced


def _sign_of(c) -> int:
    if isinstance(c, QuadElem):
        return c.sign()
    return (c > 0) - (c < 0)


def _zz_mul(a: list[int], b: list[int]) -> list[int]:
    """The product of two nonempty integer polynomials (low-to-high)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _coords(c, d: int) -> tuple[int, int, int]:
    """(A, B, m) with c = (A + B sqrt(d)) / m and m > 0, for an int, a
    Fraction or a QuadElem over Q(sqrt(d))."""
    if isinstance(c, QuadElem):
        if c.d != d:
            raise MixedFieldError(f"coefficient field d={c.d}, polynomial d={d}")
        return c.A, c.B, c.m
    if isinstance(c, int):
        return c, 0, 1
    if isinstance(c, Fraction):
        return c.numerator, 0, c.denominator
    raise TypeError(f"cannot coerce {c!r} into a KPoly coefficient")


def _kmul(A1, B1, A2, B2, d: int) -> tuple[list[int], list[int]]:
    """(A, B) with A + B sqrt(d) = (A1 + B1 sqrt(d)) (A2 + B2 sqrt(d)), all
    nonempty integer polynomials (low-to-high, each pair of one length):
    three products over Z when both factors are irrational, one or two
    otherwise."""
    AA = _zz_mul(A1, A2)
    if not any(B1):
        return AA, _zz_mul(A1, B2) if any(B2) else [0] * len(AA)
    if not any(B2):
        return AA, _zz_mul(B1, A2)
    BB = _zz_mul(B1, B2)
    S = _zz_mul(list(map(operator.add, A1, B1)), list(map(operator.add, A2, B2)))
    return ([x + d * y for x, y in zip(AA, BB)],
            [s - x - y for s, x, y in zip(S, AA, BB)])


def _times(A, B, a: int, b: int, d: int) -> tuple[list[int], list[int]]:
    """(A', B') with A' + B' sqrt(d) = (a + b sqrt(d)) (A + B sqrt(d)),
    coefficient by coefficient."""
    if not b:
        return [a * x for x in A], [a * y for y in B]
    return [a * x + d * b * y for x, y in zip(A, B)], [a * y + b * x for x, y in zip(A, B)]


class KPoly:
    """Dense polynomial over a fixed K = Q(sqrt(d)) on integer coordinates.

    The coefficient of x^i is (A[i] + B[i] sqrt(d)) / m: two tuples of ints
    over one denominator m > 0, with gcd 1 over all of them and m and a
    nonzero top coefficient, so each polynomial has exactly one
    representation and equality is equality of the integers.  Each operation
    works on the integers and brings its result to that form with one gcd.
    coeffs is a read-only view of QuadElems, built on first use, for reports
    and for callers that need one element.

    KPoly(coeffs, d) takes ints, Fractions or QuadElems, low to high.
    """

    __slots__ = ("d", "A", "B", "m", "_view")

    def __new__(cls, coeffs, d: int):
        cs = [_coords(c, d) for c in coeffs]
        m = math.lcm(*(k for _a, _b, k in cs)) if cs else 1
        return _kpoly([a * (m // k) for a, _b, k in cs], [b * (m // k) for _a, b, k in cs], m, d)

    def __setattr__(self, *a):
        raise AttributeError("KPoly is immutable")

    @property
    def coeffs(self) -> tuple:
        view = self._view
        if view is None:
            m, d = self.m, self.d
            view = tuple(_reduced(a, b, m, d) for a, b in zip(self.A, self.B))
            _set_view(self, view)
        return view

    @property
    def degree(self) -> int:
        return len(self.A) - 1

    @property
    def is_zero(self) -> bool:
        return not self.A

    @property
    def lc(self) -> QuadElem:
        if not self.A:
            raise ValueError("leading coefficient of zero polynomial")
        return _reduced(self.A[-1], self.B[-1], self.m, self.d)

    def constant_term(self) -> QuadElem:
        return _reduced(self.A[0], self.B[0], self.m, self.d) if self.A else QuadElem(0, 0, self.d)

    def _same(self, other):
        if type(other) is KPoly:
            if other.d != self.d:
                raise MixedFieldError(f"mixed polynomial fields d={self.d}, d={other.d}")
            return other
        try:
            a, b, m = _coords(other, self.d)
        except TypeError:
            return None
        return _kpoly([a], [b], m, self.d)

    def _plus(self, o, sign: int):
        A1, B1, A2, B2, m = self.A, self.B, o.A, o.B, self.m
        if m != o.m:
            g = math.gcd(m, o.m)
            s1, s2 = o.m // g, m // g
            A1, B1 = [a * s1 for a in A1], [b * s1 for b in B1]
            A2, B2 = [a * s2 for a in A2], [b * s2 for b in B2]
            m *= s1
        n = max(len(A1), len(A2))
        A, B = list(A1) + [0] * (n - len(A1)), list(B1) + [0] * (n - len(B1))
        for i, (a, b) in enumerate(zip(A2, B2)):
            A[i] += sign * a
            B[i] += sign * b
        return _kpoly(A, B, m, self.d)

    def __add__(self, other):
        o = self._same(other)
        return NotImplemented if o is None else self._plus(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._same(other)
        return NotImplemented if o is None else self._plus(o, -1)

    def __rsub__(self, other):
        o = self._same(other)
        return NotImplemented if o is None else o._plus(self, -1)

    def __neg__(self):
        return _make(tuple(-a for a in self.A), tuple(-b for b in self.B), self.m, self.d)

    def __mul__(self, other):
        o = self._same(other)
        if o is None:
            return NotImplemented
        if not self.A or not o.A:
            return _make((), (), 1, self.d)
        return _kpoly(*_kmul(self.A, self.B, o.A, o.B, self.d), self.m * o.m, self.d)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = self if e else _make((1,), (0,), 1, self.d)
        for bit in bin(e)[3:]:  # the bits below the leading one, high to low
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __divmod__(self, other):
        """(q, r) with self = q other + r and deg r < deg other.

        The divisor's numerator Q is first made to lead with a positive
        integer n: Q' = c Q, with c = +-(a - b sqrt(d)) and n = |a^2 - d b^2|
        for an irrational leading a + b sqrt(d), c = +-1 and n = |a| for a
        rational one.  Long division by Q' then runs over
        Z[sqrt(d)], and whenever n does not divide the top of the remainder,
        the remainder and the quotient so far are scaled by the least factor
        that makes it divide: s P = q Q' + r over Z[sqrt(d)] at the end,
        with P self's numerator, so self = (q c m_Q / (s m)) other + r / (s m).
        """
        o = self._same(other)
        if o is None:
            return NotImplemented
        if not o.A:
            raise DivisionByZero("polynomial division by zero")
        d, dq = self.d, len(o.A) - 1
        if len(self.A) <= dq:
            return _make((), (), 1, d), self
        a, b = o.A[-1], o.B[-1]
        ca, cb, n = (a, -b, a * a - d * b * b) if b else (1, 0, a)
        if n < 0:
            ca, cb, n = -ca, -cb, -n
        QA, QB = _times(o.A, o.B, ca, cb, d)
        rational = not any(QB)
        rA, rB = list(self.A), list(self.B)
        qA, qB = [0] * (len(rA) - dq), [0] * (len(rA) - dq)
        s = 1
        for k in range(len(qA) - 1, -1, -1):
            ta, tb = rA[k + dq], rB[k + dq]
            if not (ta or tb):
                continue
            if ta % n or tb % n:
                f = n // math.gcd(ta, tb, n)
                s *= f
                ta, tb = ta * f, tb * f
                for i in range(k + dq):
                    rA[i] *= f
                    rB[i] *= f
                for i in range(k + 1, len(qA)):
                    qA[i] *= f
                    qB[i] *= f
            qa, qb = qA[k], qB[k] = ta // n, tb // n
            if rational:
                for j in range(dq):
                    if y := QA[j]:
                        rA[k + j] -= qa * y
                        rB[k + j] -= qb * y
            else:
                for j in range(dq):
                    x, y = QA[j], QB[j]
                    rA[k + j] -= qa * x + d * qb * y
                    rB[k + j] -= qa * y + qb * x
        return (_kpoly(*_times(qA, qB, ca * o.m, cb * o.m, d), s * self.m, d),
                _kpoly(rA[:dq], rB[:dq], s * self.m, d))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if r:
            raise InternalInvariantError(f"exact division had remainder {r}")
        return q

    def monic(self):
        """self / lc: over the integer lc when it is rational, else times
        (a - b sqrt(d)) over a^2 - d b^2 for the leading a + b sqrt(d)."""
        A, B, m, d = self.A, self.B, self.m, self.d
        if not A:
            return self
        a, b = A[-1], B[-1]
        if not b:
            return self if a == m else _kpoly(list(A), list(B), a, d)
        return _kpoly(*_times(A, B, a, -b, d), a * a - d * b * b, d)

    def scale(self, s):
        a, b, k = _coords(s, self.d)
        return _kpoly(*_times(self.A, self.B, a, b, self.d), self.m * k, self.d)

    def derivative(self):
        return _kpoly([i * a for i, a in enumerate(self.A)][1:],
                      [i * b for i, b in enumerate(self.B)][1:], self.m, self.d)

    def eval(self, x) -> QuadElem:
        """self(x) for an int, Fraction or QuadElem x, by Horner on the
        integers: with x = (u + v sqrt(d)) / w, the numerator steps
        h <- h (u + v sqrt(d)) + (A_i + B_i sqrt(d)) w^(deg - i)."""
        u, v, w = _coords(x, self.d)
        A, B, d = self.A, self.B, self.d
        if not A:
            return QuadElem(0, 0, d)
        ha, hb, wk = A[-1], B[-1], 1
        for a, b in zip(A[-2::-1], B[-2::-1]):
            wk *= w
            ha, hb = ha * u + d * hb * v + a * wk, ha * v + hb * u + b * wk
        return _reduced(ha, hb, self.m * wk, d)

    def compose(self, other):
        """self(other), by Horner on the numerators as in eval."""
        o = self._same(other)
        A, B, d = self.A, self.B, self.d
        if len(A) <= 1 or not o.A:
            return _kpoly(list(A[:1]), list(B[:1]), self.m, d)
        hA, hB, wk = [A[-1]], [B[-1]], 1
        for a, b in zip(A[-2::-1], B[-2::-1]):
            wk *= o.m
            hA, hB = _kmul(hA, hB, o.A, o.B, d)
            hA[0] += a * wk
            hB[0] += b * wk
        return _kpoly(hA, hB, self.m * wk, d)

    def reverse(self):
        """x^deg * p(1/x); trailing zero coefficients of p drop out."""
        return _kpoly(list(self.A[::-1]), list(self.B[::-1]), self.m, self.d)

    def conj(self) -> "KPoly":
        if not any(self.B):
            return self
        return _make(self.A, tuple(-b for b in self.B), self.m, self.d)

    def is_rational(self) -> bool:
        return not any(self.B)

    def gcd(self, other) -> "KPoly":
        """Monic gcd over K, by the modular method (_gcd_k)."""
        return _gcd_k(self, self._same(other))

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
        return self.A == o.A and self.B == o.B and self.m == o.m

    def __hash__(self):
        return hash((self.A, self.B, self.m, self.d))  # the normal form: no view is built

    def __bool__(self):
        return bool(self.A)

    def _format(self, var="x") -> str:
        if not self.A:
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
                cs = "" if c == 1 else f"({c})*"
                parts.append(f"{cs}{xs}")
        return " + ".join(parts)

    def __str__(self):
        return self._format()

    def __repr__(self):
        return f"KPoly({self._format()}; d={self.d})"


_set_d, _set_A, _set_B, _set_m, _set_view = (getattr(KPoly, n).__set__ for n in KPoly.__slots__)


def _make(A: tuple, B: tuple, m: int, d: int) -> KPoly:
    """The KPoly (A + B sqrt(d)) / m; the caller guarantees the normal form."""
    p = object.__new__(KPoly)
    _set_d(p, d)
    _set_A(p, A)
    _set_B(p, B)
    _set_m(p, m)
    _set_view(p, None)
    return p


def _kpoly(A: list, B: list, m: int, d: int) -> KPoly:
    """(A + B sqrt(d)) / m for integer lists A and B of one length and any
    m != 0, brought to the normal form: zero top coefficients dropped, m > 0
    and the gcd of all the integers 1."""
    n = len(A)
    while n and not A[n - 1] and not B[n - 1]:
        n -= 1
    if not n:
        return _make((), (), 1, d)
    A, B = A[:n], B[:n]
    if m < 0:
        A, B, m = [-a for a in A], [-b for b in B], -m
    g = math.gcd(m, *A, *B)
    if g != 1:
        A, B, m = [a // g for a in A], [b // g for b in B], m // g
    return _make(tuple(A), tuple(B), m, d)


def _image(f: KPoly, t: int, p: int) -> list[int]:
    """f's numerator A + B sqrt(d) modulo p, with sqrt(d) mapped to t; its top
    coefficient is nonzero at the primes _gcd_k keeps."""
    return [(a + b * t) % p for a, b in zip(f.A, f.B)]


def _rational_reconstruction(u: int, mod: int, bound: int) -> tuple[int, int] | None:
    """(r, s) with r = s u (mod mod), |r| <= bound and 0 < s <= bound, r/s in
    lowest terms, or None when there is none (Wang: the remainders of the
    extended Euclid on mod and u, stopped at the first one <= bound); unique
    when 2 bound^2 < mod."""
    r0, r1, s0, s1 = mod, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if s1 > bound or math.gcd(r1, s1) != 1:
        return None
    return r1, s1


def _prime_budget(f: KPoly, g: KPoly) -> int:
    """An upper bound on the primes _gcd_k tries for nonzero f and g.

    Write F and G for the numerators (coefficients A_i + B_i sqrt(d) in
    Z[sqrt(d)]), c for a leading coefficient, N(c) = a^2 - d b^2 for its
    norm, e = min(deg f, deg g), and s(F) = 2 sum (A_i^2 + d B_i^2), at least
    1 and at least the squared 2-norm of F at either real embedding, since
    (|A| + |B| sqrt(d))^2 <= 2 (A^2 + d B^2).  Every prime tried exceeds
    2^61, so an integer M has fewer than bits(M) / 61 of them as divisors.
    A prime is tried for one of three reasons.

    * It divides N(c_F) N(c_G) (a skip).
    * It is unlucky: the image gcd at t or at -t has a degree above that of
      the monic gcd h over K.  Then the prime ideal (p, sqrt(d) - t) or its
      conjugate divides the principal subresultant coefficient S of F and G
      of order deg h, a nonzero minor of their Sylvester matrix with entries
      in Z[sqrt(d)], so p divides the integer N(S).  By Hadamard's bound at
      each embedding, |N(S)| <= s(F)^deg G s(G)^deg F.
    * It is good, and kept.  With c = c_F, c alpha is an algebraic integer
      for every root alpha of F, so c^e h_i and then N(c)^e h_i are
      integers of K, and 2 N(c)^e h_i lies in Z[sqrt(d)]: each coordinate of
      h has a denominator of at most 2 |N(c)|^e.  Mignotte's bound gives
      |sigma(h_i)| <= 2^e |sigma(F)|_2 / |sigma(c)| at each embedding sigma,
      with 1 / |sigma(c)| = |sigma'(c)| / |N(c)| <= (2 (a^2 + d b^2))^(1/2),
      and both coordinates of h_i are at most max |sigma(h_i)|.  So numerators
      and denominators are below 2^H, with H read off bit lengths below, and
      once the product of the good primes exceeds 2^(2H + 2), rational
      reconstruction returns h, which then certifies.  The same holds with G
      for F; the smaller count is used.

    The budget is the sum of the three counts.  It holds for a rational
    pair (B = 0) too, at one image per prime: N(c) = c^2, and an unlucky
    prime divides the integer S, so N(S) = S^2."""
    d, e = f.d, min(f.degree, g.degree)

    def square_norm(p):
        return 2 * sum(a * a + d * b * b for a, b in zip(p.A, p.B))

    def lc_norm(p):
        return abs(p.A[-1] ** 2 - d * p.B[-1] ** 2)

    def height_bits(p):
        a, b = p.A[-1], p.B[-1]
        return (2 + e * (lc_norm(p).bit_length() + 1) + (square_norm(p).bit_length() + 1) // 2
                + ((2 * (a * a + d * b * b)).bit_length() + 1) // 2)

    bad = ((lc_norm(f) * lc_norm(g)).bit_length() + g.degree * square_norm(f).bit_length()
           + f.degree * square_norm(g).bit_length())
    good = -(-(2 * min(height_bits(f), height_bits(g)) + 2) // 61)
    return bad // 61 + good


def _gcd_k(f: KPoly, g: KPoly) -> KPoly:
    """The monic gcd over K of f and g, by the modular method (Langemyr and
    McCallum, J. Symbolic Comput. 8, 1989; Encarnacion, J. Symbolic Comput.
    20, 1995).

    The split primes p = 3 (mod 4) of modp.split_primes map sqrt(d) to t and
    to -t.  A prime at which the norm of either leading coefficient vanishes
    is skipped.  At any other (a good) prime the monic gcd h of f and g over
    K has the images h(t) and h(-t), which divide the gcds of the images, so
    a gcd of the images of degree e bounds deg h <= e; e = 0 proves f and g
    coprime.  Images of the least degree seen are kept (a larger degree
    means that p divides a resultant), and their coordinates
    a = (h(t) + h(-t)) / 2 and b = (h(t) - h(-t)) / (2t) are combined by CRT
    over the kept primes and read back as fractions by rational
    reconstruction.  A rational pair (B = 0) takes every prime p = 3 (mod 4),
    the split primes of d = 1 with t = 1, and one image per prime: h(t) =
    h(-t) is h's A-list, the one list reconstructed.  The candidate H is
    certified: it divides f and g exactly, so deg H <= deg h, and its degree
    is e, the degree at a good prime, so deg H >= deg h and H = h.  No more
    primes than _prime_budget are tried: past it, a fault (say, an image
    that lost a degree) raises InternalInvariantError instead of trying
    primes without end.
    """
    d = f.d
    if not f.A or not g.A:
        return (f if f.A else g).monic()
    rational = not any(f.B) and not any(g.B)
    lcs = ((f.A[-1], f.B[-1]), (g.A[-1], g.B[-1]))
    e, kept, mod, budget = None, None, 1, _prime_budget(f, g)
    for tried, (p, t) in enumerate(modp.split_primes(1 if rational else d)):
        if tried == budget:
            raise InternalInvariantError(f"gcd over K: no certified gcd after {budget} primes")
        if any((a + b * t) % p == 0 or (a - b * t) % p == 0 for a, b in lcs):
            continue
        plus = modp.gcd(_image(f, t, p), _image(g, t, p), p)
        if len(plus) == 1:
            return _make((1,), (0,), 1, d)
        minus = plus if rational else modp.gcd(_image(f, p - t, p), _image(g, p - t, p), p)
        k = min(len(plus), len(minus)) - 1
        if k == 0:
            return _make((1,), (0,), 1, d)
        if e is None or k < e:
            e, kept, mod = k, None, 1
        if len(plus) != len(minus) or k > e:
            continue
        half, inv = (p + 1) // 2, pow(2 * t, -1, p)
        vals = plus if rational else ([(x + y) * half % p for x, y in zip(plus, minus)]
                                      + [(x - y) * inv % p for x, y in zip(plus, minus)])
        if kept is None:
            kept = vals
        else:
            u = pow(mod, -1, p)
            kept = [x + mod * ((v - x) * u % p) for x, v in zip(kept, vals)]
        mod *= p
        bound = math.isqrt(mod // 2)
        if any(_rational_reconstruction(v, mod, bound) is None for v in kept):
            continue  # stopped at the first coefficient that does not reconstruct
        fracs = [_rational_reconstruction(v, mod, bound) for v in kept]
        m = math.lcm(*(s for _r, s in fracs))
        ints = [r * (m // s) for r, s in fracs]
        h = _kpoly(ints[:e + 1], ints[e + 1:] or [0] * (e + 1), m, d)
        if h.degree == e and not f % h and not g % h:
            return h
