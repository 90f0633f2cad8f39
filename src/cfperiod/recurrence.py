"""Linear recurrence sequences over K = Q(sqrt(d)), indexed by all of Z.

A sequence is given by its defining data (order-k recurrence with c_k != 0
plus k initial terms); closed forms are never materialized.  Everything the
classifier needs is recovered from finite windows by Berlekamp-Massey over
the field: minimal characteristic polynomials of the sequence itself, of its
conjugate-difference, and of its conjugate-sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InternalInvariantError,
    MixedFieldError,
    PreconditionViolated,
    VerificationFailed,
    WindowTooShort,
)
from .memo import memoized
from .polyalg import KPoly, nondegeneracy, power_poly
from .qfield import QuadElem

BM_MARGIN = 8


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


@dataclass(frozen=True)
class SeqWindow:
    """Contiguous view values[i] = A_{start+i}."""

    start: int
    values: tuple

    def __len__(self):
        return len(self.values)


class LinRec:
    """A_n = c_1 A_{n-1} + ... + c_k A_{n-k}, c_k != 0; defined for all n in Z.

    Term evaluation is exact and memoized per instance.
    """

    __slots__ = ("d", "order", "coeffs", "initials", "_memo", "_lo", "_hi")

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
        self._lo = 0
        self._hi = len(initials) - 1

    @staticmethod
    def _coerce(c, d: int) -> QuadElem:
        if isinstance(c, QuadElem):
            if c.d != d:
                raise MixedFieldError(f"coefficient field d={c.d}, recurrence d={d}")
            return c
        return QuadElem(Fraction(c), 0, d)

    def term(self, n: int) -> QuadElem:
        memo, k, c = self._memo, self.order, self.coeffs
        while self._hi < n:
            m = self._hi + 1
            acc = c[0] * memo[m - 1]
            for i in range(1, k):
                acc = acc + c[i] * memo[m - 1 - i]
            memo[m] = acc
            self._hi = m
        while self._lo > n:
            m = self._lo - 1  # solve the recurrence at index m + k for A_m
            acc = memo[m + k]
            for i in range(k - 1):
                acc = acc - c[i] * memo[m + k - 1 - i]
            memo[m] = acc / c[k - 1]
            self._lo = m
        return memo[n]

    def window(self, start: int, count: int) -> SeqWindow:
        return SeqWindow(start, tuple(self.term(start + i) for i in range(count)))

    def __repr__(self):
        cs = ", ".join(str(c) for c in self.coeffs)
        ins = ", ".join(str(a) for a in self.initials)
        return f"LinRec(order={self.order}, d={self.d}, coeffs=[{cs}], initials=[{ins}])"


def term(r: LinRec, n: int) -> QuadElem:
    return r.term(n)


def conj_rec(r: LinRec) -> LinRec:
    return LinRec([c.conj() for c in r.coeffs],
                  [a.conj() for a in r.initials], r.d)


# ---------------------------------------------------------------------------
# Berlekamp-Massey over the coefficient field
# ---------------------------------------------------------------------------

def _berlekamp_massey(seq, zero, one):
    """Minimal LFSR (L, connection poly C with C[0]=1) generating seq."""
    C = [one]
    B = [one]
    L, m, b = 0, 1, one
    for n, s in enumerate(seq):
        delta = s
        for i in range(1, L + 1):
            delta = delta + C[i] * seq[n - i]
        if delta == 0:
            m += 1
            continue
        coef = delta / b
        T = list(C)
        need = m + len(B)
        if len(C) < need:
            C.extend([zero] * (need - len(C)))
        for i, bc in enumerate(B):
            C[m + i] = C[m + i] - coef * bc
        if 2 * L <= n:
            L = n + 1 - L
            B = T
            b = delta
            m = 1
        else:
            m += 1
    C = (C + [zero] * (L + 1))[:L + 1]
    return L, C


def min_charpoly(w: SeqWindow, degree_bound: int, margin: int = BM_MARGIN):
    """Minimal monic polynomial whose recurrence annihilates the window.

    Returns a KPoly over the window's field (or ZERO_SEQUENCE).  The fitted
    recurrence is re-verified on every window position past the fitting
    prefix; a window that no recurrence of the bound explains is an error.
    """
    if len(w) < 2 * degree_bound + margin:
        raise WindowTooShort(
            f"window of {len(w)} terms cannot certify degree bound {degree_bound}")
    vals = list(w.values)
    if all(v == 0 for v in vals):
        return ZERO_SEQUENCE
    d = vals[0].d
    zero = QuadElem(0, 0, d)
    one = QuadElem(1, 0, d)
    L, C = _berlekamp_massey(vals, zero, one)
    if L > degree_bound:
        raise VerificationFailed(
            f"window needs order {L}, exceeding the stated bound {degree_bound}")
    for n in range(L, len(vals)):
        acc = vals[n]
        for i in range(1, L + 1):
            acc = acc + C[i] * vals[n - i]
        if acc != 0:
            raise VerificationFailed(f"recovered recurrence fails at offset {n}")
    # charpoly X^L + C1 X^(L-1) + ... + CL, low-to-high
    return KPoly(list(reversed(C)), d)


def diff_sum_parts(r: LinRec):
    """Minimal charpolys of D_n = A_n - conj(A_n) and S_n = A_n + conj(A_n).

    Returns (P_D: KPoly | ZERO_SEQUENCE, P_S: RatPoly | ZERO_SEQUENCE).
    """
    bound = 2 * r.order
    terms = r.window(0, 2 * bound + BM_MARGIN).values
    p_d = min_charpoly(SeqWindow(0, tuple(a - a.conj() for a in terms)), bound)
    p_s = min_charpoly(SeqWindow(0, tuple(a + a.conj() for a in terms)), bound)
    if not isinstance(p_s, ZeroSequence):
        if not p_s.is_rational():
            raise InternalInvariantError(
                "sum-sequence charpoly has irrational coefficients")
        p_s = p_s.to_ratpoly()
    return p_d, p_s


@memoized
def seq_min_charpoly(r: LinRec):
    """Minimal characteristic polynomial of the sequence itself."""
    count = 2 * r.order + BM_MARGIN
    return min_charpoly(r.window(0, count), r.order)


def nondegenerate_rec(r: LinRec, over: str = "baseK"):
    """Root-ratio non-degeneracy of the sequence's own minimal polynomial."""
    p = seq_min_charpoly(r)
    if isinstance(p, ZeroSequence) or p.degree == 0:
        return True, []
    return nondegeneracy(p, over)


def split_degenerate(r: LinRec):
    """(d, parts): parts[j] generates (A_{dn+j})_n, each non-degenerate over Q.

    d is the lcm of the root-of-unity witness orders of the over-Q test
    (d = 1 and parts = [r] when the sequence is already non-degenerate).
    """
    ok, witnesses = nondegenerate_rec(r, "Q")
    if ok:
        return 1, [r]
    d_step = math.lcm(*witnesses)
    p = seq_min_charpoly(r)
    if isinstance(p, ZeroSequence):
        return 1, [r]
    q = power_poly(p, d_step)
    order = q.degree
    coeffs = [-q.coeffs[order - 1 - i] for i in range(order)]
    parts = []
    for j in range(d_step):
        initials = [r.term(d_step * i + j) for i in range(order)]
        part = LinRec(coeffs, initials, r.d)
        ok_part, wit = nondegenerate_rec(part, "Q")
        if not ok_part:
            raise InternalInvariantError(
                f"subsequence j={j} still degenerate (witness orders {wit})")
        parts.append(part)
    return d_step, parts
