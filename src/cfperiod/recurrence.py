"""Linear recurrence sequences over K = Q(sqrt(d)), indexed by all of Z.

A sequence is given by its defining data (order-k recurrence with c_k != 0
plus k initial terms); closed forms are never materialized.  The classifier
reads the minimal characteristic polynomials of the sequence itself, of its
conjugate-difference and of its conjugate-sum, from recurrences they are
known to satisfy; no recurrence is fitted to a window.  P_A is the reverse
of the reduced denominator of the sequence's rational generating function,
by one exact gcd over K.  P_D and P_S divide the rational
N = P_A * conj(P_A) and are peeled off N's factors over Q, which
split_degenerate has already asked for: a sequence whose N has two roots
with a root-of-unity ratio is degenerate, and split_degenerate reads the
orders of those ratios (polyalg.witness_orders on N's primitive integer
form) and splits it into arithmetic subsequences that are not.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import InternalInvariantError, MixedFieldError, PreconditionViolated
from .memo import memoized
from .kpoly import KPoly, _kmul, _kpoly
from .polyalg import (_monic_from_ints, _over_q, _zz_exact_div, _zz_power_poly, factor_q,
                      witness_orders)
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
    """Minimal polynomial (a monic KPoly) of a sequence that satisfies the
    monic KPoly q, q(0) != 0, from its first deg q terms (QuadElems).

    With k = deg q and rev(q) of degree k, the generating function
    sum_n t_n x^n is G / rev(q), where G = rev(q) * sum_(n<k) t_n x^n mod
    x^k, and the minimal polynomial is the reverse of the reduced
    denominator rev(q) / gcd(rev(q), G), made monic (Everest, van der
    Poorten, Shparlinski and Ward, Recurrence Sequences, 2003, section 1.1);
    G = 0 is the zero sequence.  It runs on integer coordinates A + B
    sqrt(d), after the terms are scaled to one denominator, which changes no
    minimal polynomial, and the gcd is the modular one (``KPoly.gcd``).
    Certified: P divides q exactly, and P's recurrence holds at positions
    deg P .. k - 1 of the terms, which with P | q makes P annihilate the
    whole two-sided sequence.  Minimality rests on the exact gcd.
    """
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

    def residue(n):  # sum_i P_i t_(n-deg P+i), its A and B coordinates
        w = list(zip(p.A, p.B, ta[n - p.degree:n + 1], tb[n - p.degree:n + 1]))
        return (sum(a * x + d * b * y for a, b, x, y in w),
                sum(a * y + b * x for a, b, x, y in w))
    return _certified(p, q, not q % p, (n for n in range(p.degree, k) if any(residue(n))))


def _certified(p, q, divides: bool, fails):
    """p, unless it does not divide q or fails yields a position of its recurrence."""
    if not divides:
        raise InternalInvariantError(f"minimal polynomial {p} does not divide {q}")
    if (n := next(fails, None)) is not None:
        raise InternalInvariantError(
            f"minimal polynomial {p} fails the recurrence at position {n}")
    return p


def _annihilates(p, terms) -> bool:
    """Whether the integer form p's recurrence holds at positions deg p .. len(terms) - 1."""
    return not any(sum(map(operator.mul, p, terms[n + 1 - len(p):n + 1]))
                   for n in range(len(p) - 1, len(terms)))


def diff_sum_parts(r: LinRec):
    """Minimal charpolys of D_n = A_n - conj(A_n) and S_n = A_n + conj(A_n).

    Both satisfy the rational N = P_A * conj(P_A) (P_A itself when it is
    rational), and so do the rational sequences D_n / sqrt(d) and S_n, read
    as their terms' integers B_n and A_n over one denominator (the sequences
    times a constant, with the same minimal polynomials).  A divisor Q of N
    annihilates one iff Q's recurrence holds at positions deg Q .. deg N - 1
    (Q(E) t satisfies N / Q and starts with deg N - deg Q zeros), and the
    annihilators form an ideal, so a greedy peel of N's factors g^e
    (factor_q, which classify has run on N for the degeneracy split) ends at
    the minimal polynomial in any order: g is divided out, up to e times,
    while the quotient still annihilates.  Certified apart from the peel:
    P divides N exactly and its recurrence holds at positions deg P ..
    deg N - 1.  P = 1 is the zero sequence; the others are returned as
    monic rational KPolys over the sequence's field.
    Returns (P_D: KPoly | ZERO_SEQUENCE, P_S: KPoly | ZERO_SEQUENCE).
    """
    p_a = seq_min_charpoly(r)
    if isinstance(p_a, ZeroSequence):
        return ZERO_SEQUENCE, ZERO_SEQUENCE
    n_poly = _over_q(p_a)
    k = len(n_poly) - 1
    terms = [r.term(n) for n in range(k)]
    den = math.lcm(*(a.m for a in terms))
    out = []
    for ts in ([a.B * (den // a.m) for a in terms], [a.A * (den // a.m) for a in terms]):
        p = n_poly
        for g, e in factor_q(n_poly):
            for _ in range(e):
                if not _annihilates(quo := _zz_exact_div(p, g), ts):
                    break
                p = quo
        order = len(p) - 1
        _certified(p, n_poly, _zz_exact_div(n_poly, p) is not None,
                   (n for n in range(order, k) if sum(map(operator.mul, p, ts[n - order:n + 1]))))
        out.append(_monic_from_ints(p, r.d) if order else ZERO_SEQUENCE)
    return tuple(out)


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
