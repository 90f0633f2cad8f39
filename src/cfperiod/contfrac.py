"""Continued fractions of rationals and quadratic irrationals, exactly.

The quadratic walk runs on canonical surd states (P + sqrt(D))/Q with the
integer invariant Q | D - P^2.  Cycle detection needs no table of visited
states.  With D fixed, a state is determined by (P, Q), so a state recurs iff
its value is purely periodic, and by Galois' theorem that holds iff the value
is reduced (x > 1 and -1 < conj(x) < 0), a test decided on integers.  The
first reduced state x_j with j >= 1 is therefore the first state on the cycle:
j is the minimal preperiod (a_0 always counts in it), and the number of steps
until (P, Q) at x_j recurs is the minimal period.

`expand` walks in Python and keeps the quotients.  `cycle_lengths` needs only
the two lengths: it walks x_0 to x_j in Python and measures the cycle from x_j
in a small C kernel (`_cfwalk.c`).  On a reduced state 0 < P <= t and
0 < Q, Q_prev <= 2t + 1, where t = isqrt(D), and the kernel steps with
Q_{k+1} = Q_{k-1} + a_k (P_k - P_{k+1}), never forming P^2 or D, so every
intermediate stays below 4t + 2 and signed 128-bit arithmetic is exact for
t < 2^124, that is D < 2^248.  The kernel checks those bounds at every step.
It takes a_k = floor((P + t)/Q) with one 64-bit division while P + t and Q
fit 64 bits; past that it takes a_k = 1 when P + t < 2Q, and otherwise a
64-bit estimate from the top words, never above a_k and corrected upward,
or a 128-bit division when Q's top word is below 2^32.

The kernel finds l in about l/2 steps when the cycle has a centre (Perron's
half-period conditions).  R(P_k, Q_k) = (P_k, Q_{k-1}) is the state
-1/conj(x_k), whose expansion is the cycle read backward (Galois), so R
reverses the walk.  A centre is a fixed point of R, an integer test: at
state k when Q_k = Q_{k-1}, between states k and k+1 when P_{k+1} = P_k.  If
one exists, R maps the cycle onto itself as a reflection of Z/l, which has
exactly two axis points, l/2 steps apart; counting positions in half-steps
(state k at 2k, the edge k|k+1 at 2k + 1), l is the distance between
consecutive centres.  The kernel first probes backward from x_j for
j + _PROBE_SLACK steps.  If it meets a centre u_b, it walks forward to the
next centre u_f and l = u_f - u_b.  If not, it walks forward as a plain walk,
checking for closure at x_j, and takes l between the first two centres it
meets, after no more than l steps; a cycle without a centre (D = 229 has two)
closes as before.  The cap is unchanged: StepCapExceeded(steps=max_steps,
preperiod_seen=seen) iff j + l > max_steps, decided without walking the cap,
since once a centre u is known, none by u + max_steps - j proves
l > max_steps - j.  The state the kernel stops on is checked exactly: it
satisfies Q Q_prev = D - P^2 and is x_j again or a centre.

The kernel is compiled with `cc` into the package's __pycache__ on first use,
never at import, as `_cfwalk-<crc>.so`, named by the CRC-32 of `_cfwalk.c`
(an edited source builds a new library); when that fails (no compiler, no
__int128, a read-only directory, a load error), or for D beyond its range,
`cycle_lengths` runs `expand` instead.
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
import subprocess
import tempfile
import zlib
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInvariantError, StepCapExceeded
from .qfield import QuadElem, Surd, to_surd

DEFAULT_STEP_CAP = 10_000_000


@dataclass(frozen=True)
class CFExpansion:
    preperiod: tuple[int, ...]
    period: tuple[int, ...]  # empty for rationals
    value: object  # the originating QuadElem or Fraction

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


def _walk_to_reduced(P: int, Q: int, D: int, t: int, max_steps: int):
    """Walk x_0 = (P + sqrt(D))/Q to the first reduced state x_j with j >= 1.

    Returns (P_j, Q_j, [a_0, ..., a_{j-1}], seen), where seen is the index of
    the first reduced state counting x_0 (0 or j): a walk capped on the cycle
    reports it as preperiod_seen, so steps - seen bounds the period from
    below.  Raises StepCapExceeded when x_j would be state max_steps or later.
    """
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
            return P, Q, quotients, 0 if x0_reduced else j


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
    P, Q, quotients, seen = _walk_to_reduced(P, Q, D, t, max_steps)
    j = len(quotients)
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
    raise StepCapExceeded(steps=max_steps, preperiod_seen=seen)


_KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_cfwalk.c")
_KERNEL_T_LIMIT = 1 << 124  # the kernel is exact for t = isqrt(D) below this
# budgets past 2^61 steps could never be walked anyway; below it the kernel's
# half-step positions stay inside int64
_KERNEL_STEP_LIMIT = 1 << 61
# the kernel probes backward from x_j for j + _PROBE_SLACK steps: on the
# scanned A_n rows the centre behind x_j is mostly within j + 1 steps, and the
# probe costs about what the walk from x_0 to x_j already did
_PROBE_SLACK = 2


def _bind(lib: str):
    """cf_cycle from the shared library at lib, with its C signature."""
    fn = ctypes.CDLL(lib).cf_cycle
    fn.argtypes = (ctypes.POINTER(ctypes.c_uint64), ctypes.c_int64, ctypes.c_int64)
    fn.restype = ctypes.c_int64
    return fn


def _load_kernel(cache_dir: str):
    """The kernel's cf_cycle, built from _cfwalk.c into cache_dir unless a
    library built from the same source is there already; None if building
    or loading fails.  The library is named by the CRC-32 of the source
    (zlib is loaded already; hashlib would cost a fresh process about 2 ms)."""
    try:
        with open(_KERNEL_SOURCE, "rb") as fh:
            crc = zlib.crc32(fh.read())
        lib = os.path.join(cache_dir, f"_cfwalk-{crc:08x}.so")
        if not os.path.exists(lib):
            os.makedirs(cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix="_cfwalk-", suffix=".tmp", dir=cache_dir)
            os.close(fd)
            try:
                subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", tmp, _KERNEL_SOURCE],
                               check=True, capture_output=True, timeout=300)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        return _bind(lib)
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None


@functools.cache
def _kernel():
    """The kernel from the package's __pycache__, or None; decided once per process."""
    return _load_kernel(os.path.join(os.path.dirname(_KERNEL_SOURCE), "__pycache__"))


def _kernel_state(state) -> tuple[int, int, int]:
    """(P, Q, Q_prev) from the kernel's state array, each a signed 128-bit
    little-endian word pair."""
    b = bytes(state)
    return (int.from_bytes(b[:16], "little", signed=True),
            int.from_bytes(b[16:32], "little", signed=True),
            int.from_bytes(b[32:48], "little", signed=True))


def cycle_lengths(x, max_steps: int = DEFAULT_STEP_CAP) -> tuple[int, int]:
    """(preperiod length, period length) of expand(x), without the quotients.

    Raises StepCapExceeded with the same steps and preperiod_seen as expand.
    """
    if isinstance(x, (int, Fraction)) or (isinstance(x, QuadElem) and x.is_rational()):
        return len(expand(x).preperiod), 0
    surd = x if isinstance(x, Surd) else to_surd(x)
    P, Q, D = surd.P, surd.Q, surd.D
    t = math.isqrt(D)
    kernel = _kernel() if t < _KERNEL_T_LIMIT else None
    if kernel is None:
        e = expand(surd, max_steps=max_steps)
        return len(e.preperiod), len(e.period)
    Pj, Qj, quotients, seen = _walk_to_reduced(P, Q, D, t, max_steps)
    j = len(quotients)
    # every value is positive and t < 2^124, so each fits 16 unsigned bytes
    state = (ctypes.c_uint64 * 8).from_buffer_copy(
        Pj.to_bytes(16, "little") + Qj.to_bytes(16, "little")
        + ((D - Pj * Pj) // Qj).to_bytes(16, "little") + t.to_bytes(16, "little"))
    ell = kernel(state, min(max_steps - j, _KERNEL_STEP_LIMIT),
                 min(j + _PROBE_SLACK, _KERNEL_STEP_LIMIT))
    P, Q, R = _kernel_state(state)
    # a closed walk stops at x_j, one measured between centres on a centre
    if ell == -2 or Q * R != D - P * P or ell > 0 and not (
            P == Pj and Q == Qj or Q == R or 2 * P % R == 0):
        raise InternalInvariantError(
            f"CF kernel left the reduced cycle of D={D} at (P, Q, Q_prev) = ({P}, {Q}, {R})")
    if ell < 0:
        raise StepCapExceeded(steps=max_steps, preperiod_seen=seen)
    return j, ell


def period_length(x, max_steps: int = DEFAULT_STEP_CAP) -> int:
    """l(x): minimal period of the quotient sequence; 0 for rationals."""
    return cycle_lengths(x, max_steps=max_steps)[1]


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


def check_convergent_bound(e: CFExpansion, n: int) -> bool:
    """Exact check of |x - p_n/q_n| <= 1/(a_{n+1} * q_n^2) for x = e.value."""
    a_next = e.quotients(n + 2)[n + 1]
    conv = convergents(e, n + 1)[n]
    bound = Fraction(1, a_next * conv.q * conv.q)
    diff = e.value - conv.as_fraction()  # e.value is a Fraction or a QuadElem
    if isinstance(diff, Fraction):
        return abs(diff) <= bound
    return (diff - bound).sign() <= 0 and (diff + bound).sign() >= 0

