"""Arithmetic modulo a prime: dense polynomials, square roots, and the
primes of the modular gcd over K = Q(sqrt(d)) and over Q.

A polynomial mod p is a low-to-high list of ints in [0, p) with a nonzero
top coefficient ([] is zero).  Only the standard library is used.

* primes: deterministic Miller-Rabin (is_prime), and the supply of the
  modular gcd, the primes p = 3 (mod 4) taken downward from 2^62
  (split_primes), each with the root t = d^((p+1)/4) of d mod p when d
  splits there, so sqrt(d) maps to t and to -t (d = 1, every prime with
  t = 1, for a rational pair);
* sqrt_mod: a square root modulo an odd prime (Tonelli-Shanks);
* mul, divmod_ and gcd of polynomials mod p, gcd monic.
"""
from __future__ import annotations

import itertools
import threading

# Miller-Rabin is deterministic below 3.3 * 10^24 on the primes to 41
# (Sorenson and Webster, 2017), and below 2^64 on Sinclair's seven bases
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_MR_LIMIT = 3317044064679887385961981

_PRIMES: list[int] = []  # the primes = 3 (mod 4) below 2^62, high to low, as found
_SPLIT: dict = {}  # d -> ([(p, t), ...] found so far, [the next index into _PRIMES])
_LOCK = threading.Lock()


def is_prime(n: int) -> bool:
    """Primality of 0 <= n < 3.3 * 10^24, by Miller-Rabin on fixed bases;
    ValueError for a larger n that no base divides."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is not below {_MR_LIMIT}, the limit of the "
                         "deterministic Miller-Rabin test")
    s, r = 0, n - 1
    while not r & 1:
        s, r = s + 1, r >> 1
    for a in _MR_BASES_64 if n < 1 << 64 else _MR_BASES:
        a %= n
        if a == 0:  # n divides the base, which then says nothing
            continue
        x = pow(a, r, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(i: int) -> int:
    """The i-th prime = 3 (mod 4) below 2^62, counting down from the top
    (split_primes calls it under _LOCK)."""
    while len(_PRIMES) <= i:
        q = _PRIMES[-1] - 4 if _PRIMES else (1 << 62) - 1  # 2^62 - 1 = 3 (mod 4)
        while not is_prime(q):
            q -= 4
        _PRIMES.append(q)
    return _PRIMES[i]


def split_primes(d: int):
    """(p, t) for each prime p = 3 (mod 4) below 2^62 at which d splits,
    from the top down, without end: t = d^((p+1)/4) mod p has t^2 = d
    (mod p) exactly when d is a nonzero square mod p.  The pairs found are
    kept per d for the life of the process."""
    found, scanned = _SPLIT.setdefault(d, ([], [0]))
    for k in itertools.count():
        with _LOCK:
            while len(found) <= k:
                p = _prime(scanned[0])
                scanned[0] += 1
                t = pow(d, (p + 1) // 4, p)
                if t and t * t % p == d % p:
                    found.append((p, t))
        yield found[k]


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo an odd prime p, or None when a is no
    square there (Tonelli-Shanks; 0 for a = 0 mod p)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    s, q = 0, p - 1  # p - 1 = q 2^s, q odd
    while not q & 1:
        s, q = s + 1, q >> 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p  # the least i with t^(2^i) = 1
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _strip(f: list[int]) -> list[int]:
    while f and not f[-1]:
        f.pop()
    return f


def mul(f: list[int], g: list[int], p: int) -> list[int]:
    """f * g mod p."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _strip([c % p for c in out])


def divmod_(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """(q, r) with f = q g + r mod p and deg r < deg g, for nonzero g."""
    dg = len(g) - 1
    if len(f) <= dg:
        return [], list(f)
    inv = pow(g[-1], -1, p)
    rem, quo = list(f), [0] * (len(f) - dg)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + dg] * inv % p
        if c:
            quo[k] = c
            for j in range(dg):
                rem[k + j] = (rem[k + j] - c * g[j]) % p
    return quo, _strip(rem[:dg])


def gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """The monic gcd of f and g mod p ([] when both are zero), by Euclid."""
    while g:
        f, g = g, divmod_(f, g, p)[1]
    if not f:
        return []
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]
