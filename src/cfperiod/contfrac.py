"""Continued fractions of rationals and quadratic irrationals, exactly.

The quadratic walk runs on canonical surd states (P + sqrt(D))/Q with the
integer invariant Q | D - P^2.  Cycle detection needs no table of visited
states.  With D fixed, a state is determined by (P, Q), so a state recurs iff
its value is purely periodic, and by Galois' theorem that holds iff the value
is reduced (x > 1 and -1 < conj(x) < 0), a test decided on integers.  The
first reduced state x_j with j >= 1 is therefore the first state on the cycle:
j is the minimal preperiod (a_0 always counts in it), and the number of steps
until (P, Q) at x_j recurs is the minimal period.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PoleError, RationalInput, SingularMatrix, StepCapExceeded
from .qfield import QuadElem, Surd, to_surd

DEFAULT_STEP_CAP = 10_000_000


@dataclass(frozen=True)
class CFExpansion:
    preperiod: tuple[int, ...]
    period: tuple[int, ...]  # empty for rationals
    value: object  # the originating QuadElem or Fraction

    @property
    def is_periodic(self) -> bool:
        return bool(self.period)

    def quotients(self, count: int) -> list[int]:
        """First `count` partial quotients (unrolls the cycle as needed)."""
        out = list(self.preperiod[:count])
        if not self.period:
            if count > len(self.preperiod):
                raise IndexError(
                    f"finite expansion has only {len(self.preperiod)} quotients")
            return out
        i = 0
        while len(out) < count:
            out.append(self.period[i % len(self.period)])
            i += 1
        return out

    def __str__(self):
        head = list(self.preperiod)
        if not self.period:
            if len(head) == 1:
                return f"[{head[0]}]"
            return f"[{head[0]}; " + ", ".join(map(str, head[1:])) + "]"
        per = "(" + ", ".join(map(str, self.period)) + ")"
        if not head:
            return f"[{per}]"
        body = ", ".join(map(str, head[1:])) if len(head) > 1 else ""
        if body:
            return f"[{head[0]}; {body}, {per}]"
        return f"[{head[0]}; {per}]"


@dataclass(frozen=True)
class Convergent:
    n: int
    p: int
    q: int

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, self.q)


def _rational_quotients(x: Fraction) -> list[int]:
    p, q = x.numerator, x.denominator
    out = []
    while q:
        a = p // q
        out.append(a)
        p, q = q, p - a * q
    # canonical form: final quotient >= 2 unless the expansion is a single term
    if len(out) > 1 and out[-1] == 1:
        out.pop()
        out[-1] += 1
    return out


def _surd_floor(P: int, Q: int, t: int) -> int:
    # t = isqrt(D); exact floor of (P + sqrt(D))/Q for either sign of Q
    if Q > 0:
        return (P + t) // Q
    return (-P - t - 1) // (-Q)


def _surd_reduced(P: int, Q: int, t: int) -> bool:
    # x > 1 and -1 < conj(x) < 0, decided on integers (t = isqrt(D))
    return Q > 0 and P + t >= Q and P <= t and t < P + Q


def expand(x, max_steps: int = DEFAULT_STEP_CAP) -> CFExpansion:
    """Full expansion of a rational or quadratic irrational.

    Raises StepCapExceeded if the walk visits more than max_steps states;
    the exception carries the step count and the index of the first reduced
    state, from which callers can certify a period-length lower bound.
    """
    if isinstance(x, (int, Fraction)):
        return CFExpansion(tuple(_rational_quotients(Fraction(x))), (), Fraction(x))
    if isinstance(x, QuadElem) and x.is_rational():
        return CFExpansion(tuple(_rational_quotients(x.a)), (), x.a)
    surd = x if isinstance(x, Surd) else to_surd(x)
    P, Q, D = surd.P, surd.Q, surd.D
    t = math.isqrt(D)
    # a_0 always belongs to the preperiod: the cycle is anchored at the first
    # reduced state x_j with j >= 1 (so a reduced x prints as [a0; (a1..am)]).
    # A capped walk reports the first reduced index counting x_0 (0 or j) as
    # preperiod_seen, so steps - preperiod_seen bounds the period from below.
    x0_reduced = _surd_reduced(P, Q, t)
    quotients: list[int] = []
    j = 0
    while True:
        if j >= max_steps:  # x_0 .. x_{j-1} hold no reduced state, or j = 0
            raise StepCapExceeded(steps=j, preperiod_seen=j)
        a = _surd_floor(P, Q, t)
        quotients.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
        j += 1
        if _surd_reduced(P, Q, t):
            break
    # x_j and all its successors are reduced, so Q > 0 from here on
    P0, Q0 = P, Q
    append = quotients.append
    for _ in range(j, max_steps):
        a = (P + t) // Q
        append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
        if Q == Q0 and P == P0:
            return CFExpansion(tuple(quotients[:j]), tuple(quotients[j:]), x)
    raise StepCapExceeded(steps=max_steps, preperiod_seen=0 if x0_reduced else j)


def is_purely_periodic(x, max_steps: int = DEFAULT_STEP_CAP) -> bool:
    """Whether the state x_0 itself recurs in the quadratic walk.

    Independent of expand()'s preperiod convention; used as the dual route to
    the reducedness sign test.
    """
    surd = x if isinstance(x, Surd) else to_surd(x)
    P, Q, D = surd.P, surd.Q, surd.D
    start = (P, Q)
    t = math.isqrt(D)
    seen = set()
    for _ in range(max_steps):
        a = _surd_floor(P, Q, t)
        P = a * Q - P
        Q = (D - P * P) // Q
        key = (P, Q)
        if key == start:
            return True
        if key in seen:
            return False
        seen.add(key)
    raise StepCapExceeded(steps=max_steps, preperiod_seen=max_steps)


def period_length(x, max_steps: int = DEFAULT_STEP_CAP) -> int:
    """l(x): minimal period of the quotient sequence; 0 for rationals."""
    return len(expand(x, max_steps=max_steps).period)


def period_lower_bound(x, cap: int) -> tuple[int, bool]:
    """(l(x), False) if the expansion closed within cap steps, else a
    certified lower bound (steps since the first reduced state, True)."""
    try:
        return len(expand(x, max_steps=cap).period), False
    except StepCapExceeded as e:
        return e.steps - e.preperiod_seen, True


def complete_quotients(x, count: int) -> list[Surd]:
    """States x_0 .. x_{count} of the quadratic walk (x_0 is x itself)."""
    surd = x if isinstance(x, Surd) else to_surd(x)
    P, Q, D = surd.P, surd.Q, surd.D
    t = math.isqrt(D)
    out = [Surd(P, Q, D)]
    for _ in range(count):
        a = _surd_floor(P, Q, t)
        P = a * Q - P
        Q = (D - P * P) // Q
        out.append(Surd(P, Q, D))
    return out


def convergents(e: CFExpansion, count: int) -> list[Convergent]:
    """First `count` convergents p_n/q_n of the expansion."""
    qs = e.quotients(count)
    out = []
    p1, q1 = 1, 0  # p_{-1}, q_{-1}
    p2, q2 = 0, 1  # p_{-2}, q_{-2}
    for n, a in enumerate(qs):
        p, q = a * p1 + p2, a * q1 + q2
        out.append(Convergent(n, p, q))
        p2, q2, p1, q1 = p1, q1, p, q
    return out


def is_reduced(x) -> bool:
    """x > 1 with conjugate in (-1, 0); purely-periodic criterion."""
    if isinstance(x, Surd):
        return _surd_reduced(x.P, x.Q, math.isqrt(x.D))
    if isinstance(x, (int, Fraction)) or x.is_rational():
        raise RationalInput(f"is_reduced needs a quadratic irrational, got {x}")
    xc = x.conj()
    return x.sign() > 0 and (x - 1).sign() > 0 and xc.sign() < 0 and (xc + 1).sign() > 0


def mobius_apply(N, x):
    """(a*x + b)/(c*x + d) for an integer matrix N = ((a, b), (c, d))."""
    (a, b), (c, d) = N
    if a * d - b * c == 0:
        raise SingularMatrix(f"mobius matrix {N} has zero determinant")
    if isinstance(x, int):
        x = Fraction(x)
    num = a * x + b
    den = c * x + d
    if (den == 0) if isinstance(den, Fraction) else (not den):
        raise PoleError(f"mobius denominator vanishes at {x}")
    return num / den


def check_convergent_bound(x, n: int, max_steps: int = DEFAULT_STEP_CAP) -> bool:
    """Exact check of |x - p_n/q_n| <= 1/(a_{n+1} * q_n^2)."""
    e = expand(x, max_steps=max_steps)
    a_next = e.quotients(n + 2)[n + 1]
    conv = convergents(e, n + 1)[n]
    bound = Fraction(1, a_next * conv.q * conv.q)
    diff = (x - conv.as_fraction()) if isinstance(x, QuadElem) else Fraction(x) - conv.as_fraction()
    if isinstance(diff, Fraction):
        return abs(diff) <= bound
    return (diff - bound).sign() <= 0 and (diff + bound).sign() >= 0


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def check_fibonacci_bounds(x, n: int, max_steps: int = DEFAULT_STEP_CAP) -> bool:
    """Exact product/Fibonacci envelope for p_n and q_n.

    For n >= 1: prod(a_1..a_n) <= q_n <= F_{n+1} * prod(a_1..a_n), and when
    a_0 >= 1 also prod(a_0..a_n) <= p_n <= F_{n+2} * prod(a_0..a_n).
    """
    if n < 1:
        raise ValueError("fibonacci bounds need n >= 1")
    e = expand(x, max_steps=max_steps)
    qs = e.quotients(n + 1)
    conv = convergents(e, n + 1)[n]
    prod_tail = math.prod(qs[1:])
    ok = prod_tail <= conv.q <= _fib(n + 1) * prod_tail
    if qs[0] >= 1:
        prod_all = math.prod(qs)
        ok = ok and prod_all <= conv.p <= _fib(n + 2) * prod_all
    return ok
