"""Continued fractions of rationals and quadratic irrationals, exactly.

The quadratic walk runs on canonical surd states (P + sqrt(D))/Q with the
integer invariant Q | D - P^2.  Cycle detection needs no table of visited
states.  With D fixed, a state is determined by (P, Q), so a state recurs iff
its value is purely periodic, and by Galois' theorem that holds iff the value
is reduced (x > 1 and -1 < conj(x) < 0), a test decided on integers.  The
first reduced state x_j with j >= 1 is therefore the first state on the cycle:
j is the minimal preperiod (a_0 always counts in it), and the number of steps
until (P, Q) at x_j recurs is the minimal period.

`expand` walks in Python and keeps the quotients.  `surd_cycle_lengths` needs
only the two lengths, for a batch of states (P, Q, D): it walks each x_0 to x_j
in Python and measures every cycle from its x_j in one call of a small C
kernel (`_cfwalk.c`), whose one entry loops over the batch in order and stops
at the first capped row; `cycle_lengths(x)` is the batch of one.  On a
reduced state 0 < P <= t and 0 < Q, Q_prev <= 2t + 1, where t = isqrt(D),
and the kernel steps with Q_{k+1} = Q_{k-1} + a_k (P_k - P_{k+1}), never
forming P^2 or D, so every intermediate stays below 4t + 2 and signed 128-bit
arithmetic is exact for t < 2^124, that is D < 2^248.  The kernel checks
those bounds at every step.  It takes a_k = floor((P + t)/Q) with one 64-bit
division while P + t and Q fit 64 bits; past that it takes a_k = 1 when
P + t < 2Q, and otherwise a 64-bit estimate from the top words, never above
a_k and corrected upward, or a 128-bit division when Q's top word is below
2^32.

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
l > max_steps - j; a batch raises for its first capped row in order.  Each
state the kernel returns is checked exactly: it satisfies Q Q_prev = D - P^2
and is x_j again or a centre.

The kernel is compiled with `cc` into the package's __pycache__ on first use,
never at import, as `_cfwalk-<crc>.so`, named by the CRC-32 of `_cfwalk.c`
(an edited source builds a new library); when that fails (no compiler, no
__int128, a read-only directory, a load error), or for a row with D beyond
its range, `surd_cycle_lengths` runs `expand` instead.
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
import struct
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
# a row of the kernel's buffer: P, Q and Q_prev as (low, signed high) words,
# t skipped, the result, the probe skipped
_ROW = struct.Struct("<QqQqQq16xq8x")


def _bind(lib: str):
    """cf_cycles, the batch entry of the shared library at lib, with its C signature."""
    fn = ctypes.CDLL(lib).cf_cycles
    fn.argtypes = (ctypes.POINTER(ctypes.c_uint64), ctypes.c_int64)
    fn.restype = ctypes.c_int64
    return fn


def _load_kernel(cache_dir: str):
    """The kernel's cf_cycles, built from _cfwalk.c into cache_dir unless a
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


def _kernel_rows(buf) -> list[tuple[int, int, int, int]]:
    """(P, Q, Q_prev, result) of each row of the kernel's buffer: 10 words a
    row, P, Q and Q_prev each a signed 128-bit little-endian word pair, and
    the result a signed word."""
    return [(a | b << 64, c | d << 64, e | f << 64, rc)
            for a, b, c, d, e, f, rc in _ROW.iter_unpack(buf)]


def surd_cycle_lengths(states, max_steps: int = DEFAULT_STEP_CAP) -> list[tuple[int, int]]:
    """(preperiod length, period length) of expand(Surd(P, Q, D)) for each
    (P, Q, D) of states, in order; each must be a canonical surd state, as
    Surd checks (not checked here).

    Every row whose t = isqrt(D) is in the kernel's range is walked to x_j
    in Python and then measured in one kernel call for the whole batch; the
    other rows, or all of them when no kernel loads, run expand.  Raises
    StepCapExceeded with expand's steps and preperiod_seen for the first
    capped row in order; no row after it is measured.
    """
    kernel = _kernel()
    # a budget past _KERNEL_STEP_LIMIT is never reached; j, walked in Python,
    # is far below it
    cap = min(max_steps, _KERNEL_STEP_LIMIT)
    # rows holds, in order, a row's (P, Q, D) for expand, its index in
    # walked, or the StepCapExceeded of its walk to x_j
    rows, walked, packed = [], [], []
    for P, Q, D in states:
        t = math.isqrt(D)
        if kernel is None or t >= _KERNEL_T_LIMIT:
            rows.append((P, Q, D))
            continue
        try:
            Pj, Qj, quotients, seen = _walk_to_reduced(P, Q, D, t, max_steps)
        except StepCapExceeded as exc:
            rows.append(exc)
            break
        j = len(quotients)
        rows.append(len(walked))
        walked.append((Pj, Qj, D, j, seen))
        # P, Q, Q_prev and t, each positive and below 2^125, in 16 bytes;
        # the budget and the probe, each below 2^62, in 8
        R = (D - Pj * Pj) // Qj
        packed.append((Pj | Qj << 128 | R << 256 | t << 384 | cap - j << 512
                       | j + _PROBE_SLACK << 576).to_bytes(80, "little"))
    if walked:
        buf = (ctypes.c_uint64 * (10 * len(walked))).from_buffer_copy(b"".join(packed))
        done = kernel(buf, len(walked))
        ends = _kernel_rows(buf)
    out = []
    for row in rows:
        if type(row) is tuple:
            e = expand(Surd(*row), max_steps=max_steps)
            out.append((len(e.preperiod), len(e.period)))
            continue
        if type(row) is not int:
            raise row
        Pj, Qj, D, j, seen = walked[row]
        P, Q, R, ell = ends[row]
        if row >= done:  # past the first negative result: not walked
            ell = -2
        # a closed walk stops at x_j, one measured between centres on a centre
        if ell == -2 or Q * R != D - P * P or ell > 0 and not (
                P == Pj and Q == Qj or Q == R or 2 * P % R == 0):
            raise InternalInvariantError(
                f"CF kernel left the reduced cycle of D={D} at (P, Q, Q_prev) = ({P}, {Q}, {R})")
        if ell < 0:
            raise StepCapExceeded(steps=max_steps, preperiod_seen=seen)
        out.append((j, ell))
    return out


def cycle_lengths(x, max_steps: int = DEFAULT_STEP_CAP) -> tuple[int, int]:
    """(preperiod length, period length) of expand(x), without the quotients:
    surd_cycle_lengths of x's canonical surd, a batch of one.

    Raises StepCapExceeded with the same steps and preperiod_seen as expand.
    """
    if isinstance(x, (int, Fraction)) or (isinstance(x, QuadElem) and x.is_rational()):
        return len(expand(x).preperiod), 0
    surd = x if isinstance(x, Surd) else to_surd(x)
    return surd_cycle_lengths([(surd.P, surd.Q, surd.D)], max_steps=max_steps)[0]


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


def convergent_bound_holds(x, p: int, q: int, a_next: int) -> bool:
    """Exact check of |x - p/q| <= 1/(a_next * q^2), q > 0, for x a Fraction
    or a QuadElem (A + B sqrt(d))/m, on integers.  Times a_next q^2 m > 0 it
    reads |u + v sqrt(d)| <= m with u = a_next q (qA - pm) and v = a_next q^2 B,
    that is (u - m) + v sqrt(d) <= 0 <= (u + m) + v sqrt(d), each sign read
    from squares by QuadElem.sign."""
    if isinstance(x, Fraction):
        return abs(a_next * q * (q * x.numerator - p * x.denominator)) <= x.denominator
    m, d = x.m, x.d
    u, v = a_next * q * (q * x.A - p * m), a_next * q * q * x.B
    return QuadElem(u - m, v, d).sign() <= 0 <= QuadElem(u + m, v, d).sign()


def check_convergent_bound(e: CFExpansion, n: int) -> bool:
    """Exact check of |x - p_n/q_n| <= 1/(a_{n+1} * q_n^2) for x = e.value."""
    c = convergents(e, n + 1)[n]
    return convergent_bound_holds(e.value, c.p, c.q, e.quotients(n + 2)[n + 1])
