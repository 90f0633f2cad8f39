"""The mod-p layer against sympy: primality, square roots, and dense
polynomial products, divisions and gcds modulo a prime (galoistools)."""
import itertools
import sys
import threading

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.ntheory.residue_ntheory import sqrt_mod as sympy_sqrt_mod
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_div, gf_gcd, gf_mul

from cfperiod import modp

# small primes, the split primes near 2^62, and primes p = 1 (mod 2^k) for
# large k, where Tonelli-Shanks runs its longest
TWO_ADIC_PRIMES = [17, 257, 65537, 7 * 2**26 + 1, 119 * 2**23 + 1, 3 * 2**30 + 1,
                   15 * 2**27 + 1, 2**64 - 2**32 + 1]
PRIMES = [3, 5, 7, 11, 13, 101, 65521] + TWO_ADIC_PRIMES + [modp._prime(i) for i in range(3)]
# Carmichael numbers, strong pseudoprimes to several small bases, the squares
# of the Wieferich primes (strong pseudoprimes to base 2), and composites that
# divide one of the bases below 2^64 (14089 = 73 * 193 divides 28178)
COMPOSITES = [561, 1105, 1729, 2465, 41041, 825265, 1093**2, 3511**2, 14089, 73**2, 5 * 13 * 97,
              3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461, 2**61 - 1 + 2, (2**31 - 1) ** 2]


def test_the_split_primes_are_3_mod_4_and_descend_from_2_to_the_62():
    primes = [modp._prime(i) for i in range(6)]
    assert primes == sorted(primes, reverse=True) and primes[0] < 2**62
    assert all(p % 4 == 3 and sympy.isprime(p) for p in primes)
    assert all(not sympy.isprime(q) for q in range(primes[0] + 4, 2**62, 4))
    for d in (2, 3, 5, 13, 7 * 11 * 13):
        for (p, t), _ in zip(modp.split_primes(d), range(4)):
            assert p in primes + [modp._prime(i) for i in range(6, 40)]
            assert t * t % p == d % p and d % p


def test_split_primes_are_shared_safely_between_threads():
    # threads extending one d's list of pairs at once all read one list, with
    # each prime once, in descending order
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    d, out = 7919, [None] * 8  # a d no other test asks for
    modp._SPLIT.pop(d, None)

    def take(i):
        out[i] = list(itertools.islice(modp.split_primes(d), 12))

    threads = [threading.Thread(target=take, args=(i,)) for i in range(len(out))]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    primes = [p for p, _t in out[0]]
    assert all(o == out[0] for o in out) and primes == sorted(set(primes), reverse=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**80) | st.sampled_from(COMPOSITES + PRIMES))
@example(2**62 - 57)
def test_is_prime_matches_sympy(n):
    assert modp.is_prime(n) == sympy.isprime(n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(PRIMES), st.integers(0, 2**64))
def test_sqrt_mod_matches_sympy(p, a):
    roots = sorted(int(t) for t in sympy_sqrt_mod(a, p, all_roots=True))
    t = modp.sqrt_mod(a, p)
    if t is None:
        assert roots == []
    else:
        assert sorted({t, (p - t) % p}) == roots


@st.composite
def polys_mod_p(draw, nonzero=False):
    p = draw(st.sampled_from(PRIMES))
    def poly():
        cs = draw(st.lists(st.integers(0, p - 1), max_size=9))
        if nonzero or draw(st.booleans()):
            cs.append(draw(st.integers(1, p - 1)))
        return modp._strip(cs)
    common = poly()  # a common factor, so that gcds are not all 1
    f, g = modp.mul(poly(), common, p), modp.mul(poly(), common, p)
    if nonzero:
        f, g = f or [1], g or [1]
    return p, f, g


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polys_mod_p())
def test_mul_and_gcd_match_galoistools(case):
    p, f, g = case
    assert modp.mul(f, g, p) == gf_mul(f[::-1], g[::-1], p, ZZ)[::-1]
    assert modp.gcd(f, g, p) == gf_gcd(f[::-1], g[::-1], p, ZZ)[::-1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polys_mod_p(nonzero=True))
def test_divmod_matches_galoistools(case):
    p, f, g = case
    q, r = gf_div(f[::-1], g[::-1], p, ZZ)
    assert modp.divmod_(f, g, p) == (q[::-1], r[::-1])
