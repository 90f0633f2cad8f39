"""Linear recurrence sequences over K = Q(sqrt(d)), indexed by all of Z.

A sequence is given by its defining data (order-k recurrence with c_k != 0
plus k initial terms); closed forms are never materialized.  The classifier
reads the minimal characteristic polynomials of the sequence itself, of its
conjugate-difference and of its conjugate-sum.  Each of them comes from a
recurrence the sequence is known to satisfy (the defining one for A, and
N = P_A * conj(P_A) for the other two) by one exact gcd: the minimal
polynomial is the reverse of the reduced denominator of the sequence's
rational generating function.  No recurrence is fitted to a window.
Over Q the recurrence is N's primitive integer form (polyalg._over_q), the
one form in which a polynomial over Q passes between polyalg, recurrence
and classifier, and the gcd runs on integers; the minimal polynomials come
back as forms, read as monic rational KPolys over the sequence's field
(polyalg._monic_from_ints), which the report prints.
A sequence whose N has two roots with a root-of-unity ratio is degenerate;
split_degenerate reads the orders of those ratios (polyalg.witness_orders
on N) and splits it into arithmetic subsequences that are not.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import InternalInvariantError, MixedFieldError, PreconditionViolated
from .memo import memoized
from .kpoly import KPoly, _kmul, _kpoly
from .polyalg import (_monic_from_ints, _over_q, _zz_exact_div, _zz_gcd_certified,
                      _zz_power_poly, witness_orders)
from .qfield import QuadElem, _new, _reduced


class ZeroSequence:
    """Sentinel for the identically-zero sequence (no characteristic polynomial)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ZeroSequence"


ZERO_SEQUENCE = ZeroSequence()


class LinRec:
    """A_n = c_1 A_{n-1} + ... + c_k A_{n-k}, c_k != 0; defined for all n in Z.

    Term evaluation is exact and memoized per instance.  Forward steps run on
    integers: with M the lcm of the coefficients' denominators and L that of
    the seeds', A_n = (X_n + Y_n sqrt(d)) / (L M^n) for n >= 0, and
    X_n + Y_n sqrt(d) = sum_i M^i (M c_(i+1)) (X_(n-1-i) + Y_(n-1-i) sqrt(d))
    has integer coefficients, so a stored term costs one gcd (none when
    L M^n = 1).  A_n for n < 0 is B_(k-1-n), a forward term of the reversed
    sequence B_j = A_(k-1-j), whose coefficients are (-c_(k-1), ..., -c_1, 1)/c_k.
    """

    __slots__ = ("d", "order", "coeffs", "initials", "_memo", "_hi", "_ints", "_back")

    def __init__(self, coeffs, initials, d: int):
        coeffs = tuple(self._coerce(c, d) for c in coeffs)
        initials = tuple(self._coerce(a, d) for a in initials)
        if not coeffs:
            raise PreconditionViolated("recurrence order must be >= 1")
        if len(initials) != len(coeffs):
            raise PreconditionViolated(
                f"need {len(coeffs)} initial terms, got {len(initials)}")
        if coeffs[-1] == 0:
            raise PreconditionViolated("last coefficient must be nonzero "
                                       "(two-sided evaluation)")
        self.d = d
        self.order = len(coeffs)
        self.coeffs = coeffs
        self.initials = initials
        self._memo = {n: a for n, a in enumerate(initials)}
        self._hi = len(initials) - 1
        self._ints = None  # the forward integer state, built on the first step
        self._back = None  # the reversed sequence, built on the first n < 0

    @staticmethod
    def _coerce(c, d: int) -> QuadElem:
        if isinstance(c, QuadElem):
            if c.d != d:
                raise MixedFieldError(f"coefficient field d={c.d}, recurrence d={d}")
            return c
        return QuadElem(Fraction(c), 0, d)

    def _integer_state(self):
        """(top, steps, M, xs, ys, den) at top = k - 1: steps[i] = (P, dQ, Q)
        with P + Q sqrt(d) = M^(i+1) c_(i+1), xs[j] + ys[j] sqrt(d) =
        L M^(top-j) A_(top-j), and den = L M^top, the top term's."""
        c, a, k = self.coeffs, self.initials, self.order
        M = math.lcm(*(x.m for x in c))
        L = math.lcm(*(x.m for x in a))
        steps = []
        for i, x in enumerate(c):
            s = M ** (i + 1) // x.m
            steps.append((x.A * s, self.d * x.B * s, x.B * s))
        xs, ys = [], []
        for j in range(k):
            s = L * M ** (k - 1 - j) // a[k - 1 - j].m
            xs.append(a[k - 1 - j].A * s)
            ys.append(a[k - 1 - j].B * s)
        return k - 1, steps, M, xs, ys, L * M ** (k - 1)

    def term(self, n: int) -> QuadElem:
        if n < 0:  # _back is set once (twice in a race, to equal sequences), never reset
            if self._back is None:
                c, inv = self.coeffs[-2::-1], self.coeffs[-1].inverse()
                self._back = LinRec([-x * inv for x in c] + [inv], self.initials[::-1], self.d)
            return self._back.term(self.order - 1 - n)
        memo = self._memo
        if self._hi < n:
            # the state is one tuple, replaced whole: a thread that reads it
            # gets a window and the index it stands at
            top, steps, M, xs, ys, den = self._ints or self._integer_state()
            d = self.d
            for m in range(top + 1, n + 1):
                X = Y = 0
                for (p, dq, q), x, y in zip(steps, xs, ys):
                    X += p * x + dq * y
                    Y += p * y + q * x
                xs = [X, *xs[:-1]]
                ys = [Y, *ys[:-1]]
                den *= M
                memo[m] = _new(X, Y, 1, d) if den == 1 else _reduced(X, Y, den, d)
            if n > top:
                self._ints = n, steps, M, xs, ys, den
            self._hi = n
        return memo[n]

    def __repr__(self):
        cs = ", ".join(str(c) for c in self.coeffs)
        ins = ", ".join(str(a) for a in self.initials)
        return f"LinRec(order={self.order}, d={self.d}, coeffs=[{cs}], initials=[{ins}])"


# ---------------------------------------------------------------------------
# minimal polynomials from a recurrence the sequence satisfies
# ---------------------------------------------------------------------------

def _minpoly_from_recurrence(q, terms):
    """Minimal polynomial of a sequence that satisfies q, from its first deg q terms.

    q has q(0) != 0: a monic KPoly with QuadElem terms, whose minimal
    polynomial is returned as a monic KPoly, or a primitive integer form (a
    low-to-high tuple of ints) with rational terms (ints or Fractions),
    whose minimal polynomial is returned as a primitive integer form.  With
    k = deg q and
    rev(q) of degree k, the generating function sum_n t_n x^n is G / rev(q),
    where G = rev(q) * sum_(n<k) t_n x^n mod x^k, and the minimal polynomial
    is the reverse of the reduced denominator rev(q) / gcd(rev(q), G), made
    monic over K and primitive over Q (Everest, van der Poorten, Shparlinski
    and Ward, Recurrence Sequences, 2003, section 1.1); G = 0 is the zero
    sequence.  Both run on integers, after the terms are scaled to one
    denominator, which changes no minimal polynomial.  Over K the gcd is the
    modular one (``KPoly.gcd``), on integer coordinates A + B sqrt(d).  Over
    Q it is the certified integer gcd (``polyalg._zz_gcd_certified``, whose
    cofactors multiply back exactly) on integer lists.
    Certified: P divides q exactly, and P's recurrence holds at positions
    deg P .. k - 1 of the terms, which with P | q makes P annihilate the
    whole two-sided sequence.  Minimality rests on the exact gcd.
    """
    if isinstance(q, tuple):
        rev, k = q[::-1], len(q) - 1
        scale = math.lcm(*(t.denominator for t in terms))
        terms = [t.numerator * (scale // t.denominator) for t in terms]
        num = [sum(rev[i] * terms[n - i] for i in range(n + 1)) for n in range(k)]
        if not any(num):
            return ZERO_SEQUENCE
        # the reduced denominator from the top is P's form up to sign
        cs = _zz_gcd_certified(rev, num)[1][::-1]
        p = cs = tuple(cs) if cs[-1] > 0 else tuple(-c for c in cs)
        divides, order = _zz_exact_div(q, cs) is not None, len(cs) - 1
        fails = (n for n in range(order, k)
                 if sum(map(operator.mul, cs, terms[n - order:n + 1])))
    else:  # on integer coordinates: the terms are (ta + tb sqrt(d)) / scale
        rev, k, d = q.reverse(), q.degree, q.d
        scale = math.lcm(*(t.m for t in terms))
        ta = [t.A * (scale // t.m) for t in terms]
        tb = [t.B * (scale // t.m) for t in terms]
        num = _kpoly(*(c[:k] for c in _kmul(rev.A, rev.B, ta, tb, d)), rev.m * scale, d)
        if not num:
            return ZERO_SEQUENCE
        g = rev.gcd(num)
        num.exact_div(g)  # raises unless g divides G as well
        p = rev.exact_div(g).reverse().monic()
        divides, order = not q % p, p.degree

        def residue(n):  # sum_i P_i t_(n-order+i), its A and B coordinates
            w = list(zip(p.A, p.B, ta[n - order:n + 1], tb[n - order:n + 1]))
            return (sum(a * x + d * b * y for a, b, x, y in w),
                    sum(a * y + b * x for a, b, x, y in w))
        fails = (n for n in range(order, k) if any(residue(n)))
    if not divides:
        raise InternalInvariantError(f"minimal polynomial {p} does not divide {q}")
    if (n := next(fails, None)) is not None:
        raise InternalInvariantError(
            f"minimal polynomial {p} fails the recurrence at position {n}")
    return p


def diff_sum_parts(r: LinRec):
    """Minimal charpolys of D_n = A_n - conj(A_n) and S_n = A_n + conj(A_n).

    Both satisfy the rational N = P_A * conj(P_A) (P_A itself when it is
    rational), and so do the rational sequences D_n / sqrt(d) and S_n: both
    are read over Q from N's primitive integer form, as forms, on their
    terms' integers B_n and A_n over one common denominator L (the sequences
    times L / 2, with the same minimal polynomials), and returned as monic
    rational KPolys over the sequence's field.
    Returns (P_D: KPoly | ZERO_SEQUENCE, P_S: KPoly | ZERO_SEQUENCE).
    """
    p_a = seq_min_charpoly(r)
    if isinstance(p_a, ZeroSequence):
        return ZERO_SEQUENCE, ZERO_SEQUENCE
    n_poly = _over_q(p_a)
    terms = [r.term(n) for n in range(len(n_poly) - 1)]
    den = math.lcm(*(a.m for a in terms))
    return tuple(p if isinstance(p, ZeroSequence) else _monic_from_ints(p, r.d)
                 for p in (_minpoly_from_recurrence(n_poly, [a.B * (den // a.m) for a in terms]),
                           _minpoly_from_recurrence(n_poly, [a.A * (den // a.m) for a in terms])))


@memoized
def seq_min_charpoly(r: LinRec):
    """Minimal characteristic polynomial of the sequence itself."""
    q = KPoly([-c for c in reversed(r.coeffs)] + [1], r.d)
    return _minpoly_from_recurrence(q, r.initials)


def split_degenerate(r: LinRec):
    """(d, parts): parts[j] generates (A_{dn+j})_n, each non-degenerate over Q.

    d is the lcm of the root-of-unity witness orders of the over-Q test, on
    the roots of N = P_A * conj(P_A) (d = 1 and parts = [r] when the
    sequence is already non-degenerate or is the zero sequence, which has no
    roots).  Each part is built on N's power polynomial over Z, with roots
    alpha^d for the roots alpha of N (polyalg._zz_power_poly).
    """
    p = seq_min_charpoly(r)
    witnesses = () if isinstance(p, ZeroSequence) else witness_orders(_over_q(p))
    if not witnesses:
        return 1, [r]
    d_step = math.lcm(*witnesses)
    q = _monic_from_ints(_zz_power_poly(_over_q(p), d_step), r.d)
    order = q.degree
    coeffs = [-q.coeffs[order - 1 - i] for i in range(order)]
    parts = []
    for j in range(d_step):
        initials = [r.term(d_step * i + j) for i in range(order)]
        part = LinRec(coeffs, initials, r.d)
        p_part = seq_min_charpoly(part)  # a part may be the zero sequence
        wit = () if isinstance(p_part, ZeroSequence) else witness_orders(_over_q(p_part))
        if wit:
            raise InternalInvariantError(
                f"subsequence j={j} still degenerate (witness orders {list(wit)})")
        parts.append(part)
    return d_step, parts
