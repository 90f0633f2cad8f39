"""Independent numeric oracles used to cross-check the exact implementations.

Everything here works from plain integers/floats through mpmath at high
precision and deliberately shares no code with the package: continued
fractions are run by floor/reciprocal on an mpf, root locations come from
polyroots, and root-of-unity detection is done by angle rationalization.
The reference quadratic walk works on plain integers and finds its cycle with
a first-repeat hash map on (P, Q), not with the reduced-state anchor that
contfrac.expand uses.
The reference cycle centres are read off the quotient period as palindromes
of its rotations, where the C kernel tests Q_k = Q_{k-1} and P_{k+1} = P_k.
The reference valuation at a split place, val_by_branch_lift, is the route
places.val left: the branch root Newton-lifted to p^k (branch_root_newton)
and A + B t read mod p^k, where the package reads ord_w off the norm and the
branch residue alone.  The reference 2-adic square root lifts one bit per
step, not by Newton steps as branch_root_newton does.
The reference field arithmetic is the Fraction-backed QuadElem that
qfield.QuadElem replaced: a frozen dataclass of two Fractions, re-checking d
on every construction.  It shares only the exception classes with the package.
The reference ratio and power polynomials are resultants, where the package
builds them from power sums.  Over Q, ratio_poly_zz is a sympy bivariate
resultant over Z, and newton_ratio_poly and newton_power_poly run Newton's
identities on Fractions, the route the package left for integer power sums
of the scaled monic forms.  Over K, two interpolation loops sample x = 1, -1, 2, ...
for the root ratios and x = 0, 1, 2, ... for the power map, and take each
sample with the Euclidean resultant below; they share only the package's
polynomial arithmetic.  ratio_poly and power_poly are the package's former
routes over K: Newton's identities on QuadElems, dividing by each k, where
the package runs them over Z on forms scaled into Z[sqrt(d)] and reads an
irrational ratio polynomial r as the traces of its power sums, those of
r * conj(r).  witness_orders_by_ratio_poly is the base-level witness test
on that former route.
The reference factorizations take the routes the package left: over Q,
sympy's factor_list on rational coefficients instead of the integer factorer
on the primitive form; over K, Yun plus the norm descent for every input
instead of splitting a rational polynomial's factors over Q.  The norm
descent is the package's former one, kept here whole: each squarefree part,
linear or irrational ones included, goes through the norm of its first
squarefree shift, whose Q-factors give the K-factors by gcd; it reaches
polyalg.factor_q but neither factor_k nor _factor_k_squarefree.
factor_q_monic calls polyalg.factor_q on a RatPoly's primitive integer form
and reads the factor forms back as the leading coefficient times monic
RatPolys, the shape factor_q_qq returns.  The reference quartic
irreducibility re-check is the package's former one on Fractions: the monic
quartic depressed by composition, with rational square roots, where the
package depresses over Z and asks for integer squares.
RatPoly is the Fraction polynomial class the package left: there a
polynomial over Q is a primitive integer form, read as a rational KPoly
where field arithmetic needs it.  _PolyBase, the coefficient-generic
polynomial algorithms RatPoly is built on, left the package too, and
ElemKPoly is the KPoly it had on them: one QuadElem per coefficient, each
normalized by its own gcd, and Euclid's gcd over K, where polyalg.KPoly
keeps integer coordinates over one denominator and takes the gcd over K by
the modular method.  The Fraction references are built on it,
and Factorization, a unit with ((factor, multiplicity), ...), is the shape
the reference factorizations return.
The reference gcd over Q is Euclid on Fractions (euclid_gcd, and with it
squarefree_part and is_squarefree), where the package takes sympy's integer
gcd on primitive integer forms and certifies its cofactors; from_roots
builds test polynomials from their roots.
The reference rational roots enumerate divisor pairs of the end coefficients
(sympy's divisors), where the package isolates real roots by Sturm counts.
The reference off-circle counts are the numeric route the package left:
certified polyroots disks at doubling precision, where the package reads the
inertia of the Schur-Cohn matrix exactly.  The reference totients come from
a sieve up to 2 b^2 + 2, where the package enumerates products of prime
powers.  The reference squarefree decomposition is Yun's algorithm, which
the package no longer needs.
The reference cyclotomic polynomials divide x^n - 1 by the Phi_d of its
proper divisors over Fractions, and is_root_of_unity compares an irreducible
factor with each Phi_n of its degree (orders from sympy's totient); the
package builds Phi_n over Z and never factors the polynomial it tests.
The reference minimal polynomials are Berlekamp-Massey over K on a window
of 2k + 8 terms (4k + 8 for the difference and sum sequences of an order-k
recurrence), re-verified on every window position, where the package reduces
the generating function of a recurrence the sequence satisfies by one exact
gcd and fits nothing.
The continued-fraction helpers take routes the package does not:
purely_periodic reads pure periodicity off the first-repeat walk, where the
package tests reducedness on integers; complete_quotients steps an element in
the field by 1/(x - floor(x)), not a (P, Q) state.  period_lower_bound reads
a certified lower bound off a capped cycle_lengths, as the periods command
does inline, and check_fibonacci_bounds is the exact product/Fibonacci
envelope of the convergents.  convergent_bound_by_field_ops decides
|x - p/q| <= 1/(a q^2) by QuadElem and Fraction arithmetic, the signs of
x - p/q -+ 1/(a q^2), where contfrac reads the same two signs off integers
scaled by a q^2 m.  sqrt_int builds sqrt(k) for test fixtures.
schinzel_rows_by_factoring is the schinzel scan by the route the CLI left:
each f(n) factored into s^2 * k and walked as the element s * sqrt(k), where
the CLI walks the surd sqrt(f(n)) and tests squares by an integer root.
The reference terms, term_by_field_steps, step the recurrence in the field,
one QuadElem multiply and add (each with its gcd) per coefficient and step,
and a division by c_k per backward step, where LinRec.term steps integer
pairs over one running denominator, for n < 0 those of the reversed
recurrence.  The
reference growth rows, growth_rows_at_arch_dps, read every row off one
log_abs at ARCH_DPS digits, its mpf pair, and print the float of its centre
by enclosure_centre, mpmath's 53-bit sum halved; places.growth_rows reads
the integer ends at ROW_DPS, computes them again at ARCH_DPS only when that
leaves the row undecided, and prints (lo + hi) / 2^(F + 1) by int / int.
WindowTooShort and VerificationFailed are raised only by the Berlekamp-Massey
reference, and ZeroRootInDenominator only by ratio_poly.
The tolerances are calibrated for the test generators in this tree (integer
coefficients of modest height), where on-circle roots are exact and
off-circle roots stay far from the unit circle at 100 digits.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from cfperiod import polyalg, qfield
from cfperiod.contfrac import CFExpansion, convergents, cycle_lengths
from cfperiod.errors import (BadFieldParameter, DivisionByZero, InternalError,
                             InternalInvariantError, MixedFieldError, NegativeInput,
                             NotIrreducible, PrecisionExhausted, PreconditionViolated,
                             StepCapExceeded, UsageError)
from cfperiod.recurrence import ZERO_SEQUENCE


def sqrt_int(k: int) -> qfield.QuadElem:
    """sqrt(k) for integer k >= 0 as an exact element (rational if square)."""
    if k < 0:
        raise NegativeInput(f"sqrt of negative integer {k}")
    if k == 0:
        return qfield.QuadElem(0, 0, 2)
    s, d0 = qfield.split_square(k)
    if d0 == 1:
        return qfield.QuadElem(s, 0, 2)
    return qfield.QuadElem(0, s, d0)


def surd_value(a: Fraction, b: Fraction, d: int, dps: int) -> mpmath.mpf:
    """a + b*sqrt(d) as an mpf, no package code involved."""
    with mpmath.workdps(dps):
        return (mpmath.mpf(a.numerator) / a.denominator
                + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(d))


def cf_quotients(x, count: int, dps: int = 200) -> list[int]:
    """First `count` partial quotients of x by floor/reciprocal on an mpf.

    Trustworthy as long as the partial quotients stay far from the precision
    horizon; 200 digits covers a few dozen steps of every fixture used here.
    """
    with mpmath.workdps(dps):
        v = mpmath.mpf(x) if not isinstance(x, mpmath.mpf) else x
        out = []
        for _ in range(count):
            a = int(mpmath.floor(v))
            out.append(a)
            frac = v - a
            if frac < mpmath.mpf(10) ** (-dps + 20):
                break
            v = 1 / frac
        return out


def surd_walk_first_repeat(P: int, Q: int, D: int, max_steps: int):
    """Reference walk of the state (P + sqrt(D))/Q, with Q | D - P^2.

    Returns ("closed", preperiod, period) with a_0 always in the preperiod,
    or ("capped", steps, preperiod_seen) when more than max_steps states
    would be visited; preperiod_seen is the index of the first reduced state
    (index 0 included), or steps if none was seen.  The cycle is found by
    remembering every state from x_1 on.  Floors and the reducedness test
    compare squares of integers with D instead of taking an integer root.
    """
    def sqrt_above(m):  # sqrt(D) > m
        return m < 0 or m * m < D

    def sqrt_below(m):  # sqrt(D) < m
        return m > 0 and m * m > D

    def exceeds(P, Q, a):  # (P + sqrt(D))/Q > a
        return sqrt_above(a * Q - P) if Q > 0 else sqrt_below(a * Q - P)

    def floor_surd(P, Q):
        # the float estimate can be off by about sqrt(D) / 2^52: bracket the
        # floor by galloping from it, then bisect, all on exact comparisons
        lo = math.floor((P + math.sqrt(D)) / Q)
        step = 1
        while not exceeds(P, Q, lo):
            lo, step = lo - step, 2 * step
        hi, step = lo + 1, 1
        while exceeds(P, Q, hi):
            lo, hi, step = hi, hi + step, 2 * step
        while hi - lo > 1:  # x > lo and x < hi
            mid = (lo + hi) // 2
            if exceeds(P, Q, mid):
                lo = mid
            else:
                hi = mid
        return lo

    def reduced(P, Q):  # x > 1 and -1 < conj(x) < 0
        return (Q > 0 and exceeds(P, Q, 1)
                and sqrt_above(P) and sqrt_below(P + Q))

    seen: dict[tuple[int, int], int] = {}
    quotients: list[int] = []
    first_reduced = -1
    while True:
        idx = len(quotients)
        if idx >= 1 and (P, Q) in seen:
            j = seen[(P, Q)]
            return "closed", tuple(quotients[:j]), tuple(quotients[j:])
        if idx >= max_steps:
            return "capped", idx, first_reduced if first_reduced >= 0 else idx
        if idx >= 1:
            seen[(P, Q)] = idx
        if first_reduced < 0 and reduced(P, Q):
            first_reduced = idx
        a = floor_surd(P, Q)
        quotients.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q


def cycle_centres(period) -> list[int]:
    """Half-step positions u in [0, 2l) of the centres of a purely periodic
    cycle with quotients a_0 .. a_{l-1} (state k at 2k, the edge between
    states k and k + 1 at 2k + 1).

    The state x_k = [a_k; a_{k+1}, ...] and -1/conj(x_k) = [a_{k-1}; a_{k-2},
    ...] (Galois) agree when the quotients read the same both ways from k:
    u = 2k when a_{k+i} = a_{k-1-i} for all i, u = 2k + 1 when
    a_{k+i} = a_{k-i}.  Quadratic in l.
    """
    a = list(period)
    n = len(a)
    rev = a[::-1]  # rev[m:] + rev[:m] reads a backward from a_{n-1-m}
    out = []
    for u in range(2 * n):
        k = u // 2
        m = (n - k if u % 2 == 0 else n - 1 - k) % n
        if a[k:] + a[:k] == rev[m:] + rev[:m]:
            out.append(u)
    return out


def two_adic_sqrt_bitwise(d: int, branch: int, k: int) -> int:
    """A root t of t^2 = d mod 2^k with t = branch mod 8, one bit at a time.

    d = 1 mod 8 and branch must be a root mod 16.  From a root t mod 2^j
    (j >= 3) exactly one of t and t + 2^(j-1) is a root mod 2^(j+1).
    """
    t = branch
    for j in range(3, k):
        if (t * t - d) % (1 << (j + 1)):
            t += 1 << (j - 1)
        if (t * t - d) % (1 << (j + 1)):
            raise AssertionError(f"bitwise lift of sqrt({d}) failed at 2^{j + 1}")
    return t % (1 << k)


def branch_root_newton(d: int, p: int, branch: int, k: int) -> int:
    """A root t of t^2 = d mod p^k on a split place's branch, by Newton steps.

    At p = 2 (branch a root mod 16) a root t mod 2^j goes to
    t - ((t^2 - d)/2) / t, a root mod 2^(2j-2) in the same class mod 2^(j-1),
    with 1/t mod 2^(j-1) lifted alongside by u <- u (2 - t u); at odd p a
    root mod p^j goes to t - (t^2 - d) / (2t), a root mod p^(2j).
    """
    pk = p ** k
    if p == 2:
        t, u, j = branch, branch, 4  # an odd t is its own inverse mod 8
        while j < k:
            j = 2 * j - 2
            mod = 1 << j
            t = (t - ((t * t - d) >> 1) * u) % mod
            u = u * (2 - t * u) % mod
    else:
        t, mod = branch % p, p
        while mod < pk:
            mod = min(mod * mod, pk)
            t = (t - (t * t - d) * pow(2 * t, -1, mod)) % mod
    t %= pk
    if (t * t - d) % pk:
        raise AssertionError(f"branch lift of sqrt({d}) failed mod {p}^{k}")
    return t


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val_by_branch_lift(x, w) -> int:
    """ord_w(x) at a split place w, by the route places.val left.

    For x = (A + B sqrt(d)) / m, ord_w(x) = v_p(A + B t) - v_p(m) with t the
    branch root lifted to p^k.  A + B sqrt(d) is integral at both places
    above p, so that ord is at most v_p(A^2 - d B^2) < k - 2, and a root mod
    p^k settles it (at p = 2 the root is the branch's only mod 2^(k-1)).
    """
    p, A, B, m = w.p, x.A, x.B, x.m
    vm = _vp(m, p)
    k = max(abs(_vp(A * A - w.d * B * B, p) - 2 * vm) + 2 * vm + 4, 8)
    s = (A + B * branch_root_newton(w.d, p, w.branch, k)) % p ** k
    v = _vp(s, p) if s else k
    if v >= k - (2 if p == 2 else 1):
        raise AssertionError(f"ord at {w} for {x} not settled mod {p}^{k}")
    return v - vm


def poly_roots(coeffs, dps: int = 100):
    """Roots of sum(coeffs[i] * x^i) via polyroots; coeffs are numbers."""
    with mpmath.workdps(dps):
        cs = [mpmath.mpmathify(c) for c in reversed(list(coeffs))]
        while cs and cs[0] == 0:
            cs.pop(0)
        if len(cs) <= 1:
            return []
        return mpmath.polyroots(cs, maxsteps=1000, extraprec=200)


def circle_counts(coeffs, dps: int = 100, band: float = 1e-40):
    """(inside, on, outside) counts of the unit-circle location of all roots.

    A root counts as "on" when ||z| - 1| < band; the generators guarantee
    that genuine on-circle roots are exact (cyclotomic factors) and genuine
    off-circle roots are separated by far more than the band.
    """
    inside = on = outside = 0
    with mpmath.workdps(dps):
        for z in poly_roots(coeffs, dps):
            m = abs(z)
            if abs(m - 1) < band:
                on += 1
            elif m < 1:
                inside += 1
            else:
                outside += 1
    return inside, on, outside


def offcircle_counts_numeric(pi, dps: int = 60) -> tuple[int, int]:
    """(inside, outside) for a factor with no unit-circle roots, numerically:
    each root of mpmath's polyroots gets a disk of radius 4 deg |pi(z)/pi'(z)|
    (a root lies within deg |pi(z)/pi'(z)|; 4x is a margin), the disks must be
    pairwise disjoint and clear of the circle, else the digits double, up to
    32x, and PrecisionExhausted is raised.  Each |z| -+ r is compared with 1
    at the working precision."""
    for trial_dps in (dps, 2 * dps, 4 * dps, 8 * dps, 16 * dps, 32 * dps):
        with mpmath.workdps(trial_dps):
            coeffs = [mpmath.mpc(qfield.to_mpf(c, trial_dps)) if isinstance(c, qfield.QuadElem)
                      else mpmath.mpc(mpmath.mpf(c.numerator) / c.denominator)
                      for c in reversed(pi.coeffs)]
            deg = len(coeffs) - 1
            dcoeffs = [c * (deg - i) for i, c in enumerate(coeffs[:-1])]
            try:
                roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=2 * trial_dps)
                radii = [4 * deg * abs(mpmath.polyval(coeffs, z) / mpmath.polyval(dcoeffs, z))
                         for z in roots]
            except (mpmath.libmp.NoConvergence, ZeroDivisionError):
                continue
            if any(abs(z1 - z2) <= r1 + r2 for i, (z1, r1) in enumerate(zip(roots, radii))
                   for z2, r2 in zip(roots[i + 1:], radii[i + 1:])):
                continue
            if all(abs(abs(z) - 1) > r for z, r in zip(roots, radii)):
                inside = sum(1 for z in roots if abs(z) < 1)
                return inside, deg - inside
    raise PrecisionExhausted(f"roots of {pi} not separated from the unit circle")


def root_of_unity_order_numeric(z, max_order: int, dps: int = 100) -> int | None:
    """Angle-rationalization order of z as a root of unity, or None.

    |z| must be within the band of 1; the angle divided by 2*pi is
    rationalized with denominator <= max_order, and the candidate order (the
    reduced denominator) is confirmed by direct powering.
    """
    with mpmath.workdps(dps):
        if abs(abs(z) - 1) > mpmath.mpf("1e-40"):
            return None
        theta = mpmath.arg(z) / (2 * mpmath.pi)
        cand = Fraction(float(theta)).limit_denominator(max_order)
        n = cand.denominator
        return n if abs(z ** n - 1) < mpmath.mpf("1e-30") else None


def ratio_witness_orders_numeric(coeff_pairs, d: int, over_q: bool,
                                 max_order: int, dps: int = 100) -> list[int]:
    """Sorted orders n such that a ratio of two distinct roots is a primitive
    n-th root of unity, numerically.

    coeff_pairs are (a: Fraction, b: Fraction) coordinates of coefficients in
    Q(sqrt(d)), ascending.  over_q additionally throws the conjugate
    polynomial's roots into the pool, mirroring ratios of Galois conjugates.
    Zero roots are left out of the pool; roots closer than the band count as
    one root, so the input's own roots should be simple.
    """
    with mpmath.workdps(dps):
        emb = [surd_value(a, b, d, dps) for a, b in coeff_pairs]
        pool = list(poly_roots(emb, dps))
        if over_q:
            conj = [surd_value(a, -b, d, dps) for a, b in coeff_pairs]
            pool += list(poly_roots(conj, dps))
        pool = [z for z in pool if abs(z) > mpmath.mpf("1e-40")]
        orders = set()
        for i, zi in enumerate(pool):
            for j, zj in enumerate(pool):
                if i == j or abs(zi - zj) < mpmath.mpf("1e-40"):
                    continue
                n = root_of_unity_order_numeric(zi / zj, max_order, dps)
                if n is not None:
                    orders.add(n)
        return sorted(orders)


_CYCLOTOMIC_CACHE: dict = {}


def cyclotomic(n: int):
    """Phi_n as a RatPoly: x^n - 1 divided exactly by the Phi_d, d | n, d < n."""
    if n in _CYCLOTOMIC_CACHE:
        return _CYCLOTOMIC_CACHE[n]
    num = RatPoly([-1] + [0] * (n - 1) + [1])  # x^n - 1
    den = RatPoly([1])
    for d in range(1, n):
        if n % d == 0:
            den = den * cyclotomic(d)
    phi = num.exact_div(den)
    _CYCLOTOMIC_CACHE[n] = phi
    return phi


def totient_sieve(limit: int) -> list[int]:
    """phi(n) for 0 <= n <= limit, by Euler's product over the primes p | n."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # untouched so far: p is prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return phi


def orders_with_totient_at_most_sieved(bound: int) -> list[tuple[int, int]]:
    """(n, phi(n)) for every n >= 1 with phi(n) <= bound, from a sieve up to
    2 bound^2 + 2 (phi(n) >= sqrt(n/2) bounds the scan)."""
    phi = totient_sieve(2 * bound * bound + 2)
    return [(n, t) for n, t in enumerate(phi) if n >= 1 and t <= bound]


@functools.lru_cache(maxsize=None)
def _orders_with_totient(m: int) -> tuple[int, ...]:
    """Every n with phi(n) = m; phi(n) >= sqrt(n/2) bounds the scan."""
    import sympy

    return tuple(n for n in range(1, 2 * m * m + 3) if sympy.totient(n) == m)


def is_root_of_unity(q) -> tuple[bool, int | None]:
    """Whether irreducible q is a cyclotomic polynomial; returns (flag, order)."""
    if q.degree < 1:
        raise PreconditionViolated(f"is_root_of_unity needs degree >= 1, got {q}")
    qm = q.monic()
    # every Phi_n is monic over Z with constant term +-1
    if abs(qm.coeffs[0]) != 1 or any(c.denominator != 1 for c in qm.coeffs):
        return False, None
    for n in _orders_with_totient(q.degree):
        if cyclotomic(n) == qm:
            return True, n
    return False, None


def cyclotomic_orders_by_factoring(r) -> list[int]:
    """Sorted n with Phi_n | r: r factored over Q, each factor tested."""
    return sorted(n for f, _m in factor_q_monic(r).factors
                  for ok, n in [is_root_of_unity(f)] if ok)


def degenerate_ratio_numeric(coeff_pairs, d: int, over_q: bool,
                             max_order: int, dps: int = 100) -> bool:
    """True iff some ratio of distinct roots is a root of unity, numerically."""
    return bool(ratio_witness_orders_numeric(coeff_pairs, d, over_q, max_order, dps))


# ---------------------------------------------------------------------------
# continued-fraction checks
# ---------------------------------------------------------------------------

def period_lower_bound(x, cap: int) -> tuple[int, bool]:
    """(l(x), False) if the expansion closed within cap steps, else a
    certified lower bound (steps since the first reduced state, True)."""
    try:
        return cycle_lengths(x, max_steps=cap)[1], False
    except StepCapExceeded as e:
        return e.steps - e.preperiod_seen, True


def schinzel_rows_by_factoring(coeffs, n_lo: int, n_hi: int) -> list[str]:
    """The output lines of `cfperiod schinzel` for the integer polynomial with
    low-to-high coefficients coeffs over [n_lo, n_hi], by the route the CLI
    left: each f(n) > 0 is factored into s^2 * k (sympy's factorint behind
    split_square), a square is k = 1, and the period is read off the element
    s * sqrt(k); the leading coefficient is covered when it is not a square."""
    deg, lead = len(coeffs) - 1, coeffs[-1]
    covered = (deg % 2 == 1) or (lead > 0 and qfield.split_square(lead)[1] != 1)
    lines = ["n,ell,flag", f"# hypothesis: {'covered' if covered else 'not covered'}"]
    running, increases = None, []
    for n in range(n_lo, n_hi + 1):
        v = sum(c * n ** i for i, c in enumerate(coeffs))
        if v < 0:
            lines.append(f"{n},,negative_skipped")
            continue
        s, k = qfield.split_square(v) if v else (0, 1)
        if k == 1:
            ell, flag = 0, "square"
        else:
            ell, flag = cycle_lengths(qfield.QuadElem(0, s, k))[1], ""
        lines.append(f"{n},{ell},{flag}")
        if running is None or ell > running:
            running = ell
            increases.append((n, ell))
    lines.extend(f"# running_max: n={n} ell={ell}" for n, ell in increases)
    return lines


def purely_periodic(x, max_steps: int = 10**7) -> bool:
    """Whether x_0 itself recurs in the walk of the irrational element x,
    read off surd_walk_first_repeat: x_0 = a_0 + 1/x_1 recurs iff the walk
    closes at x_1, with preperiod (a_0,), and the cycle ends in a_0 again."""
    s = qfield.to_surd(x)
    kind, pre, period = surd_walk_first_repeat(s.P, s.Q, s.D, max_steps)
    if kind != "closed":
        raise AssertionError(f"walk of {x} did not close within {max_steps} steps")
    return len(pre) == 1 and pre[0] == period[-1]


def complete_quotients(x, count: int) -> list:
    """x_0 .. x_count of the element x, stepped in the field:
    x_{k+1} = 1 / (x_k - floor(x_k))."""
    out = [x]
    for _ in range(count):
        x = 1 / (x - x.floor())
        out.append(x)
    return out


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def check_fibonacci_bounds(e: CFExpansion, n: int) -> bool:
    """Exact product/Fibonacci envelope for p_n and q_n of the expansion e.

    For n >= 1: prod(a_1..a_n) <= q_n <= F_{n+1} * prod(a_1..a_n), and when
    a_0 >= 1 also prod(a_0..a_n) <= p_n <= F_{n+2} * prod(a_0..a_n).
    """
    if n < 1:
        raise ValueError("fibonacci bounds need n >= 1")
    qs = e.quotients(n + 1)
    conv = convergents(e, n + 1)[n]
    prod_tail = math.prod(qs[1:])
    ok = prod_tail <= conv.q <= _fib(n + 1) * prod_tail
    if qs[0] >= 1:
        prod_all = math.prod(qs)
        ok = ok and prod_all <= conv.p <= _fib(n + 2) * prod_all
    return ok


def convergent_bound_by_field_ops(x, p: int, q: int, a_next: int) -> bool:
    """Exact check of |x - p/q| <= 1/(a_next * q^2), q > 0, for x a Fraction
    or a QuadElem, on the difference in the field."""
    bound = Fraction(1, a_next * q * q)
    diff = x - Fraction(p, q)
    if isinstance(diff, Fraction):
        return abs(diff) <= bound
    return (diff - bound).sign() <= 0 and (diff + bound).sign() >= 0


# ---------------------------------------------------------------------------
# reference field arithmetic: a + b*sqrt(d) with Fraction coordinates
# ---------------------------------------------------------------------------

def check_squarefree(d: int) -> None:
    """Raise BadFieldParameter unless d is a squarefree integer >= 2."""
    if d < 2:
        raise BadFieldParameter(f"field parameter d must be >= 2, got {d}")
    n, p = d, 2
    while p * p <= n:
        if n % (p * p) == 0:
            raise BadFieldParameter(f"field parameter d must be squarefree, got {d}")
        if n % p == 0:
            n //= p
        p += 1 if p == 2 else 2


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class QuadElem:
    """a + b*sqrt(d), exact.  b may be zero (rational embedding)."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", _as_fraction(self.a))
        object.__setattr__(self, "b", _as_fraction(self.b))
        check_squarefree(self.d)

    def _coerce(self, other) -> "QuadElem | None":
        if isinstance(other, QuadElem):
            if other.d != self.d:
                raise MixedFieldError(
                    f"mixed field parameters d={self.d} and d={other.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElem(_as_fraction(other), Fraction(0), self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.a * o.a + self.b * o.b * self.d,
                        self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadElem":
        n = self.norm()
        if n == 0:
            raise DivisionByZero(f"inverse of zero element {self!r}")
        return QuadElem(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.a == 0 and o.b == 0:
            raise DivisionByZero(f"division of {self!r} by zero")
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        base = self if e >= 0 else self.inverse()
        result = QuadElem(Fraction(1), Fraction(0), self.d)
        k = abs(e)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self) -> "QuadElem":
        return QuadElem(self.a, -self.b, self.d)

    def trace(self) -> Fraction:
        return 2 * self.a

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.d

    def is_rational(self) -> bool:
        return self.b == 0

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        sa = 1 if a > 0 else -1
        sb = 1 if b > 0 else -1
        if sa == sb:
            return sa
        # opposite signs: |a| vs |b|*sqrt(d); equality impossible (d squarefree)
        return sa if a * a > b * b * self.d else sb

    def floor(self) -> int:
        w = math.lcm(self.a.denominator, self.b.denominator)
        u = int(self.a * w)
        v = int(self.b * w)
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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

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
        return self.a != 0 or self.b != 0

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        bs = "" if self.b == 1 else ("-" if self.b == -1 else f"{self.b}*")
        tail = f"{bs}sqrt({self.d})"
        if self.a == 0:
            return tail
        op = "+" if self.b > 0 else "-"
        mag = abs(self.b)
        ms = "" if mag == 1 else f"{mag}*"
        return f"{self.a} {op} {ms}sqrt({self.d})"

    def __repr__(self):
        return f"QuadElem({self.a!r}, {self.b!r}, {self.d})"


def quad_to_surd(x: QuadElem) -> tuple[int, int, int]:
    """(P, Q, D) of the canonical (P + sqrt(D))/Q form of an irrational x."""
    w = math.lcm(x.a.denominator, x.b.denominator)
    u = int(x.a * w)
    v = int(x.b * w)
    d0 = v * v * x.d
    p0, q0 = (u, w) if v > 0 else (-u, -w)
    if (d0 - p0 * p0) % q0 == 0:
        return p0, q0, d0
    s = abs(q0)
    return p0 * s, q0 * s, d0 * s * s


def quad_to_mpf(x: QuadElem, dps: int):
    """x under the b > 0 embedding, from the Fraction coordinates."""
    with mpmath.workdps(dps):
        return (mpmath.mpf(x.a.numerator) / x.a.denominator
                + (mpmath.mpf(x.b.numerator) / x.b.denominator) * mpmath.sqrt(x.d))


# ---------------------------------------------------------------------------
# reference polynomials: Fraction coefficients, products of linear factors,
# Euclid's gcd over a field
# ---------------------------------------------------------------------------

def _sign_of(c) -> int:
    if isinstance(c, qfield.QuadElem):
        return c.sign()
    return (c > 0) - (c < 0)


class _PolyBase:
    """Shared exact algorithms; subclasses fix the coefficient field."""

    __slots__ = ("coeffs",)

    # subclasses: _zero(), _one(), _try_coeff(c) (c as a coefficient, or None
    # when c is not one), _make(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if self.is_zero:
            raise ValueError("leading coefficient of zero polynomial")
        return self.coeffs[-1]

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else self._zero()

    @staticmethod
    def _strip(coeffs: list) -> tuple:
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return tuple(coeffs)

    def _same(self, other):
        if isinstance(other, type(self)):
            return other
        c = self._try_coeff(other)
        if c is None:
            return None
        return self._make([c] if c else [])

    def __add__(self, other):
        o = self._same(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        z = self._zero()
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        for i, c in enumerate(o.coeffs):
            a[i] = a[i] + c
        return self._make(a)

    __radd__ = __add__

    def __neg__(self):
        return self._make([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._same(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._same(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._same(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return self._make([])
        z = self._zero()
        out = [z] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return self._make(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = self if e else self._make([self._one()])
        for bit in bin(e)[3:]:  # the bits below the leading one, high to low
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __divmod__(self, other):
        o = self._same(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZero("polynomial division by zero")
        if self.degree < o.degree:
            return self._make([]), self
        rem = list(self.coeffs)
        quo = [self._zero()] * (len(rem) - len(o.coeffs) + 1)
        inv_lc = self._one() / o.lc
        for k in range(len(quo) - 1, -1, -1):
            c = rem[k + o.degree] * inv_lc
            if c:
                quo[k] = c
                for j, b in enumerate(o.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return self._make(quo), self._make(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero:
            raise InternalInvariantError(f"exact division had remainder {r}")
        return q

    def monic(self):
        if self.is_zero:
            return self
        if self.lc == self._one():
            return self
        inv = self._one() / self.lc
        return self._make([c * inv for c in self.coeffs])

    def scale(self, s):
        c = self._try_coeff(s)
        return self._make([a * c for a in self.coeffs])

    def derivative(self):
        return self._make([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        acc = self._zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, other):
        o = self._same(other)
        acc = self._make([])
        for c in reversed(self.coeffs):
            acc = acc * o + self._make([c] if c else [])
        return acc

    def reverse(self):
        """x^deg * p(1/x); trailing zero coefficients of p drop out."""
        return self._make(list(reversed(self.coeffs)))

    def _coerce(self, c):
        v = self._try_coeff(c)
        if v is None:
            raise TypeError(f"cannot coerce {c!r} into {type(self).__name__} coefficient")
        return v

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
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def _format(self, var="x") -> str:
        if self.is_zero:
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
                cs = "" if c == self._one() else f"({c})*"
                parts.append(f"{cs}{xs}")
        return " + ".join(parts)

    def __str__(self):
        return self._format()


class ElemKPoly(_PolyBase):
    """Dense polynomial with QuadElem coefficients over a fixed Q(sqrt(d)):
    polyalg.KPoly as it was before it moved to integer coordinates, each
    coefficient operation normalizing its own element, with Euclid's gcd
    over K."""

    __slots__ = ("d",)

    def __init__(self, coeffs, d: int):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coeffs",
                           self._strip([self._coerce(c) for c in coeffs]))

    def __setattr__(self, *a):
        raise AttributeError("ElemKPoly is immutable")

    def _zero(self) -> qfield.QuadElem:
        return qfield.QuadElem(0, 0, self.d)

    def _one(self) -> qfield.QuadElem:
        return qfield.QuadElem(1, 0, self.d)

    def _try_coeff(self, c):
        if isinstance(c, qfield.QuadElem):
            if c.d != self.d:
                raise MixedFieldError(f"coefficient field d={c.d}, polynomial d={self.d}")
            return c
        if isinstance(c, (int, Fraction)):
            return qfield.QuadElem(c, 0, self.d)
        return None

    def _same(self, other):
        if isinstance(other, ElemKPoly):
            if other.d != self.d:
                raise MixedFieldError(f"mixed polynomial fields d={self.d}, d={other.d}")
            return other
        c = self._try_coeff(other)
        if c is None:
            return None
        return self._make([c] if c else [])

    def _make(self, coeffs) -> "ElemKPoly":
        p = ElemKPoly.__new__(ElemKPoly)
        object.__setattr__(p, "d", self.d)
        object.__setattr__(p, "coeffs", self._strip(list(coeffs)))
        return p

    def gcd(self, other) -> "ElemKPoly":
        """Monic gcd over K by Euclid, where polyalg.KPoly.gcd is modular."""
        a, b = self, self._same(other)
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def conj(self) -> "ElemKPoly":
        return self._make([c.conj() for c in self.coeffs])

    def is_rational(self) -> bool:
        return all(c.is_rational() for c in self.coeffs)

    def __hash__(self):  # that of the equal polyalg.KPoly
        return hash(self.to_kpoly())

    def __repr__(self):
        return f"KPoly({self._format()}; d={self.d})"

    @classmethod
    def of(cls, p) -> "ElemKPoly":
        """The reference copy of a polyalg.KPoly."""
        return cls(p.coeffs, p.d)

    def to_kpoly(self) -> "polyalg.KPoly":
        return polyalg.KPoly(self.coeffs, self.d)



class RatPoly(_PolyBase):
    """Dense polynomial with Fraction coefficients, low-to-high order."""

    __slots__ = ()

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs",
                           self._strip([self._coerce(c) for c in coeffs]))

    def __setattr__(self, *a):
        raise AttributeError("RatPoly is immutable")

    @staticmethod
    def _zero() -> Fraction:
        return Fraction(0)

    @staticmethod
    def _one() -> Fraction:
        return Fraction(1)

    @staticmethod
    def _try_coeff(c):
        if isinstance(c, Fraction):
            return c
        if isinstance(c, int):
            return Fraction(c)
        if isinstance(c, str):
            return Fraction(c)
        return None

    def _make(self, coeffs) -> "RatPoly":
        p = RatPoly.__new__(RatPoly)
        object.__setattr__(p, "coeffs", self._strip(list(coeffs)))
        return p

    def primitive_integer_coeffs(self) -> tuple[int, ...]:
        """The primitive integer form: integer coefficients, content 1,
        positive leading; low-to-high.  The one conversion from Fractions to
        the form every polynomial over Q is passed in, certified by the
        content scale-back: lc / form[-1] times the form is self."""
        if self.is_zero:
            raise ValueError("primitive form of zero polynomial")
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
        ints = tuple(c // g for c in ints)
        content = self.lc / ints[-1]
        if [content * c for c in ints] != list(self.coeffs):
            raise InternalInvariantError(f"content scale-back failed for {self}")
        return ints

    def lift(self, d: int) -> "polyalg.KPoly":
        return polyalg.KPoly([qfield.QuadElem(c, 0, d) for c in self.coeffs], d)

    def __repr__(self):
        return f"RatPoly({self._format()})"


@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor^mult) with monic irreducible factors."""

    unit: object
    factors: tuple  # ((poly, mult), ...)

    def distinct(self) -> list:
        return [f for f, _m in self.factors]


def to_ratpoly(p) -> RatPoly:
    """A rational KPoly's coefficients as a RatPoly."""
    if not p.is_rational():
        raise ValueError(f"{p} has irrational coefficients")
    return RatPoly([c.a for c in p.coeffs])


def from_roots(roots, d: int | None = None):
    """prod (x - r) over the roots: a RatPoly, or a KPoly over Q(sqrt(d))."""
    make = RatPoly if d is None else functools.partial(polyalg.KPoly, d=d)
    p = make([1])
    for r in roots:
        p = p * make([-r, 1])
    return p


def euclid_gcd(f, g):
    """Monic gcd by Euclid over the coefficient field (Fractions over Q,
    QuadElems over K): the route polyalg left, for the certified integer gcd
    over Q and the modular gcd over K."""
    g = f._same(g)
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


def squarefree_part(p):
    """p / gcd(p, p'), monic, by euclid_gcd."""
    if p.degree <= 0:
        return p.monic()
    return p.exact_div(euclid_gcd(p, p.derivative())).monic()


def is_squarefree(p) -> bool:
    return p.degree <= 0 or euclid_gcd(p, p.derivative()).degree == 0


# ---------------------------------------------------------------------------
# reference resultants: ratio and power polynomials
# ---------------------------------------------------------------------------

def resultant(f, g):
    """Res(f, g) over the coefficient field of f, by Euclidean descent."""
    g = f._same(g)
    zero = f.constant_term() * 0
    one = zero + 1
    if f.is_zero or g.is_zero:
        return zero
    acc = one
    while True:
        if g.degree == 0:
            return acc * g.lc ** f.degree
        if f.degree < g.degree:
            if (f.degree * g.degree) % 2 == 1:
                acc = -acc
            f, g = g, f
            continue
        r = f % g
        if r.is_zero:
            return zero
        if (f.degree * g.degree) % 2 == 1:
            acc = -acc
        acc = acc * g.lc ** (f.degree - r.degree)
        f, g = g, r


def ratio_poly_zz(p, q):
    """Res_y(q(y), p(x*y)) over Z on the primitive integer forms of two
    rational polynomials, in primitive integer form with positive leading
    coefficient: its roots are the ratios (root of p) / (root of q)."""
    import sympy

    x, y = sympy.symbols("x y")
    # exponent pairs (deg_y, deg_x): q(y) and p(x*y)
    qy = sympy.Poly.from_dict({(i, 0): c for i, c in enumerate(q.primitive_integer_coeffs())},
                              y, x, domain=sympy.ZZ)
    pxy = sympy.Poly.from_dict({(i, i): c for i, c in enumerate(p.primitive_integer_coeffs())},
                               y, x, domain=sympy.ZZ)
    res = qy.resultant(pxy)
    out = RatPoly([int(c) for c in reversed(res.all_coeffs())])
    return RatPoly(out.primitive_integer_coeffs())


def _fraction_power_sums(coeffs, count: int) -> list[Fraction]:
    """[s_1, ..., s_count] for the roots of the polynomial with rational
    coefficients `coeffs` (low-to-high), by Newton's identities on Fractions."""
    c = [Fraction(x) / coeffs[-1] for x in reversed(coeffs)]  # monic, high-to-low
    n, sums = len(c) - 1, []
    for k in range(1, count + 1):
        acc = k * c[k] if k <= n else Fraction(0)
        for j in range(1, min(k, n + 1)):
            acc += c[j] * sums[k - j - 1]
        sums.append(-acc)
    return sums


def _fraction_from_power_sums(sums) -> "RatPoly":
    """The monic polynomial whose roots have the power sums s_1, ..., s_N,
    by Newton's identities with a Fraction division by each k."""
    c = [Fraction(1)]
    for k in range(1, len(sums) + 1):
        acc = sums[k - 1]
        for j in range(1, k):
            acc += c[j] * sums[k - j - 1]
        c.append(-acc / k)
    return RatPoly(c[::-1])


def newton_ratio_poly(p, q):
    """The ratio polynomial of two rational polynomials (q(0) != 0) on
    Fractions, the package's former route over Q: s_k(alpha/beta) =
    s_k(alpha) * s_k(1/beta), with 1/beta a root of q reversed."""
    count = p.degree * q.degree
    sums = [a * b for a, b in zip(_fraction_power_sums(p.coeffs, count),
                                  _fraction_power_sums(q.coeffs[::-1], count))]
    return _fraction_from_power_sums(sums)


def newton_power_poly(p, k: int):
    """The k-th power polynomial of a rational polynomial on Fractions, the
    package's former route over Q: s_j(alpha^k) = s_(jk)(alpha)."""
    return _fraction_from_power_sums(_fraction_power_sums(p.coeffs, k * p.degree)[k - 1::k])


class ZeroRootInDenominator(UsageError):
    pass


def _like(p, coeffs):
    """A polynomial of p's class over p's field."""
    return RatPoly(coeffs) if isinstance(p, RatPoly) else type(p)(coeffs, p.d)


def _from_power_sums(sums: list, like, root_product):
    """Monic polynomial over the field of `like` (a KPoly) whose N = len(sums)
    roots have the power sums s_1, ..., s_N, by Newton's identities (k is
    invertible in characteristic 0).

    Certified: the constant term must be (-1)^N times root_product, the
    product of the roots as the caller computes it from its inputs' end
    coefficients.
    """
    c = [1]
    for k in range(1, len(sums) + 1):
        acc = sums[k - 1]
        for j in range(1, k):
            acc = acc + c[j] * sums[k - j - 1]
        c.append(-acc / k)
    out = _like(like, c[::-1])
    if out.constant_term() != (-1) ** len(sums) * root_product:
        raise InternalInvariantError(
            f"power-sum polynomial {out} has the wrong root product")
    return out


def _root_product(p):
    return (-1) ** p.degree * p.coeffs[0] / p.lc


def ratio_poly(p, q):
    """Monic polynomial over K whose roots are the ratios alpha/beta, alpha a
    root of p and beta a root of q, with multiplicity.

    Built from power sums, s_k(alpha/beta) = s_k(alpha) * s_k(1/beta), where
    1/beta runs over the roots of q.reverse() (Bostan, Flajolet, Salvy and
    Schost, "Fast computation of special resultants", 2006), with Newton's
    identities over K dividing QuadElems.
    """
    if p.degree < 1 or q.degree < 1:
        raise PreconditionViolated("ratio_poly needs two nonconstant polynomials")
    if q.constant_term() == 0:
        raise ZeroRootInDenominator("denominator polynomial has root 0")
    n = p.degree * q.degree
    sums = [a * b for a, b in zip(polyalg._power_sums(p.monic().coeffs, n),
                                  polyalg._power_sums(q.reverse().monic().coeffs, n))]
    return _from_power_sums(
        sums, p, _root_product(p) ** q.degree / _root_product(q) ** p.degree)


def power_poly(p, k: int):
    """Monic polynomial over K whose roots are the k-th powers of p's roots,
    with multiplicity: s_j(alpha^k) = s_(jk)(alpha)."""
    if p.degree < 1 or k < 1:
        raise PreconditionViolated("power_poly needs a nonconstant polynomial and k >= 1")
    sums = polyalg._power_sums(p.monic().coeffs, k * p.degree)
    return _from_power_sums(sums[k - 1::k], p, _root_product(p) ** k)


def witness_orders_by_ratio_poly(p) -> tuple[int, ...]:
    """polyalg.witness_orders at the base level of K by the route the package
    left: each pair of p's distinct K-factors gives ratio_poly over K, read
    over Q by polyalg._over_q, with the self-ratio's root 1 stripped once
    from r and twice from r * conj(r)."""
    zeros = next(i for i, c in enumerate(p.coeffs) if c)
    if zeros == p.degree:
        return ()
    base = [g for g, _m in polyalg.factor_k(_like(p, p.coeffs[zeros:]))]
    witnesses = set()
    for i, fi in enumerate(base):
        for fj in base[i:]:
            r = ratio_poly(fi, fj)
            ones = fi.degree * (1 if r.is_rational() else 2) if fi == fj else 0
            witnesses.update(polyalg._cyclotomic_orders(list(polyalg._over_q(r)), ones))
    return tuple(sorted(witnesses))


def ratio_resultant_field(pi, pj):
    """Res_y(pj(y), pi(x*y)) over K, by interpolation.

    Serves the base level of K of witness_orders only, where the ratios range
    over the roots of a K-polynomial and not over their conjugates.
    """
    di, dj = pi.degree, pj.degree
    n = di * dj + 1
    xs, ys = [], []
    c = 1
    while len(xs) < n:
        # nonzero sample points only: at x=0 the specialized pair drops degree
        # and its resultant no longer equals the generic one evaluated there
        point = Fraction(c)
        scaled = _like(pi, [coef * point ** k for k, coef in enumerate(pi.coeffs)])
        val = resultant(pj, scaled)
        xs.append(point)
        ys.append(val)
        c = -c if c > 0 else -c + 1  # 1, -1, 2, -2, ...
    # Lagrange interpolation over the field
    acc = _like(pi, [])
    for i in range(n):
        num, den = _like(pi, [1]), Fraction(1)
        for j in range(n):
            if i == j:
                continue
            num = num * _like(pi, [-xs[j], 1])
            den = den * (xs[i] - xs[j])
        acc = acc + num.scale(ys[i] / den)
    return acc


def power_map_charpoly(p, power: int):
    """Monic polynomial whose roots are the power-th powers of p's roots."""
    L = p.degree
    xs, ys = [], []
    for c in range(L + 1):
        point = qfield.QuadElem(c, 0, p.d)
        # y^power - point, degree constant in the specialization
        g = polyalg.KPoly([-point] + [0] * (power - 1) + [1], p.d)
        xs.append(point)
        ys.append(resultant(p, g))
    acc = polyalg.KPoly([], p.d)
    for i in range(L + 1):
        num = polyalg.KPoly([1], p.d)
        den = qfield.QuadElem(1, 0, p.d)
        for j in range(L + 1):
            if i == j:
                continue
            num = num * polyalg.KPoly([-xs[j], 1], p.d)
            den = den * (xs[i] - xs[j])
        acc = acc + num.scale(ys[i] / den)
    if L % 2:
        acc = -acc
    if acc.is_zero or acc.lc != 1:
        raise InternalInvariantError("power-map charpoly not monic")
    return acc


# ---------------------------------------------------------------------------
# reference factoring routes
# ---------------------------------------------------------------------------

def factor_q_qq(p):
    """Factorization over Q by sympy's factor_list on a QQ polynomial, with the
    factors made monic and sorted as polyalg.factor_q sorts them."""
    import sympy

    x = sympy.Symbol("x")
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                    x, domain="QQ")
    coeff, sympy_factors = sp.factor_list()
    unit = Fraction(int(coeff.p), int(coeff.q))
    factors = []
    for sf, mult in sympy_factors:
        f = RatPoly([Fraction(int(c.p), int(c.q)) for c in reversed(sf.all_coeffs())])
        unit *= f.lc ** mult
        factors.append((f.monic(), int(mult)))
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return Factorization(unit, tuple(factors))


def factor_q_monic(p):
    """polyalg.factor_q on the primitive integer form of a RatPoly, read back
    as factor_q_qq reads sympy's answer: p's leading coefficient times the
    monic factors, in factor_q's order."""
    factors = tuple((RatPoly([Fraction(c, f[-1]) for c in f]), m)
                    for f, m in polyalg.factor_q(p.primitive_integer_coeffs()))
    return Factorization(p.lc, factors)


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    root = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
    return root if root * root == q else None


def certify_irreducible_q_fraction(f) -> None:
    """polyalg._certify_irreducible_q on Fractions, the package's former
    route: a quartic is made monic, depressed by composing with
    x - a3/4, and its biquadratic and resolvent tests ask for rational
    square roots, where the package depresses over Z by u = 4 a4 x + a3
    and asks for integer squares."""
    deg = len(f) - 1
    if deg <= 1:
        return
    m = RatPoly([Fraction(c, f[-1]) for c in f])
    if polyalg._rational_roots(f):
        raise NotIrreducible(f"{m} has a rational root")
    if deg != 4:
        return
    a3 = m.coeffs[3]
    dep = m.compose(RatPoly([-a3 / 4, 1]))
    P, Q, R = dep.coeffs[2], dep.coeffs[1], dep.coeffs[0]
    if Q == 0:
        if _rational_sqrt(P * P - 4 * R) is not None:
            raise NotIrreducible(f"{m} splits as a biquadratic")
        g = _rational_sqrt(R)
        if g is not None and (_rational_sqrt(2 * g - P) is not None
                              or _rational_sqrt(-2 * g - P) is not None):
            raise NotIrreducible(f"{m} splits into quadratics")
        return
    resolvent = RatPoly([-Q * Q, P * P - 4 * R, 2 * P, 1])
    for z0 in polyalg._rational_roots(resolvent.primitive_integer_coeffs()):
        if z0 > 0 and _rational_sqrt(z0) is not None:
            raise NotIrreducible(f"{m} splits into quadratics (resolvent root {z0})")


def squarefree_decomposition(p):
    """Yun's algorithm; p monic, char 0.  Returns [(g_i, i)] with prod g_i^i = p."""
    out = []
    g = euclid_gcd(p, p.derivative())
    w = p.exact_div(g)
    i = 1
    while w.degree > 0:
        y = euclid_gcd(w, g)
        f = w.exact_div(y)
        if f.degree > 0:
            out.append((f.monic(), i))
        w, g = y, g.exact_div(y)
        i += 1
    return out


def norm_descent(g):
    """Monic irreducible factors over K of a squarefree g, rational or not:
    the norm of the first shift h(x) = g(x - s sqrt(d)) that is squarefree
    is factored over Q, and each factor's gcd with h is shifted back."""
    if g.degree == 1:
        return [g.monic()]
    d = g.d
    sqrt_d = qfield.QuadElem(0, 1, d)
    for s in range(1, 65):
        # shift so that the norm N(x) = h(x) * conj(h)(x) becomes squarefree
        shift = polyalg.KPoly([-(s * sqrt_d), 1], d)
        h = g.compose(shift)
        norm = h * h.conj()
        if not norm.is_rational():
            raise InternalInvariantError("norm polynomial not rational")
        nq = to_ratpoly(norm)
        if not is_squarefree(nq):
            continue
        pieces = []
        for f, _m in factor_q_monic(nq).factors:
            c = h.gcd(f.lift(d))
            if c.degree >= 1:
                pieces.append(c.monic())
        unshift = polyalg.KPoly([s * sqrt_d, 1], d)
        factors = [c.compose(unshift).monic() for c in pieces]
        prod = polyalg.KPoly([1], d)
        for f in factors:
            prod = prod * f
        if prod != g.monic():
            raise InternalInvariantError(f"factor_k multiply-back failed for {g}")
        return factors
    raise InternalInvariantError(f"no squarefree shift found for {g}")


def factor_k_norm(p):
    """Factorization over K by Yun's squarefree decomposition and the norm
    descent, for rational inputs too, sorted as polyalg.factor_k sorts."""
    factors = {}
    for g, mult in squarefree_decomposition(p.monic()):
        for f in norm_descent(g):
            factors[f] = factors.get(f, 0) + mult
    items = sorted(factors.items(),
                   key=lambda fm: (fm[0].degree, tuple((c.a, c.b) for c in fm[0].coeffs)))
    return Factorization(p.lc, tuple(items))


def rational_roots_divisors(p):
    """All rational roots (exact; divisor enumeration on the primitive form).

    A candidate num/den in lowest terms is a root iff den^n * p(num/den) = 0,
    evaluated over Z by homogeneous Horner.
    """
    from sympy import divisors

    roots = []
    ints = list(p.primitive_integer_coeffs())
    while ints[0] == 0:
        roots.append(Fraction(0))
        ints = ints[1:]
    for num in divisors(abs(ints[0])):
        for den in divisors(abs(ints[-1])):
            if math.gcd(num, den) != 1:
                continue
            for n in (num, -num):
                acc, den_pow = ints[-1], 1
                for c in reversed(ints[:-1]):
                    den_pow *= den
                    acc = acc * n + c * den_pow
                if acc == 0:
                    roots.append(Fraction(n, den))
    return roots


# ---------------------------------------------------------------------------
# reference minimal polynomials: Berlekamp-Massey over the coefficient field
# ---------------------------------------------------------------------------

BM_MARGIN = 8


class WindowTooShort(UsageError):
    pass


class VerificationFailed(InternalError):
    pass


@dataclass(frozen=True)
class SeqWindow:
    """Contiguous view values[i] = A_{start+i}."""

    start: int
    values: tuple

    def __len__(self):
        return len(self.values)


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
    zero = qfield.QuadElem(0, 0, d)
    one = qfield.QuadElem(1, 0, d)
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
    return polyalg.KPoly(list(reversed(C)), d)


def diff_sum_parts_bm(r):
    """(P_D, P_S) by Berlekamp-Massey on the first 4k + 8 terms of D and S,
    bounded by 2k for an order-k recurrence r."""
    bound = 2 * r.order
    terms = [r.term(n) for n in range(2 * bound + BM_MARGIN)]
    p_d = min_charpoly(SeqWindow(0, tuple(a - a.conj() for a in terms)), bound)
    p_s = min_charpoly(SeqWindow(0, tuple(a + a.conj() for a in terms)), bound)
    return p_d, p_s


# ---------------------------------------------------------------------------
# reference terms and growth rows: field steps, one precision
# ---------------------------------------------------------------------------

def term_by_field_steps(r, n: int):
    """A_n of the LinRec r by QuadElem arithmetic from its initials, one field
    multiply and add per coefficient and step, with no memo: forward
    A_m = sum c_i A_(m-i), backward A_m = (A_(m+k) - sum_(i<k) c_i
    A_(m+k-i)) / c_k."""
    c, k = r.coeffs, r.order
    terms = dict(enumerate(r.initials))
    for m in range(k, n + 1):
        acc = c[0] * terms[m - 1]
        for i in range(1, k):
            acc = acc + c[i] * terms[m - 1 - i]
        terms[m] = acc
    for m in range(-1, n - 1, -1):
        acc = terms[m + k]
        for i in range(k - 1):
            acc = acc - c[i] * terms[m + k - 1 - i]
        terms[m] = acc / c[k - 1]
    return terms[n]


def enclosure_centre(lo, hi) -> float:
    """float((lo + hi) / 2) for the mpf ends of a log_abs enclosure, formed
    on their tuples: lo + hi rounded to nearest at 53 bits, then halved
    exactly, with no mpf arithmetic and whatever the caller's mpmath
    precision.  The reference for the int / int centre that places forms on
    the integer ends."""
    libmp = mpmath.libmp
    total = libmp.mpf_add(lo._mpf_, hi._mpf_, 53, libmp.round_nearest)
    return libmp.to_float(libmp.mpf_shift(total, -1), rnd=libmp.round_nearest)


def growth_rows_at_arch_dps(r, v, eps, n_lo: int, n_hi: int):
    """(rows, passed) as places.growth_rows returns them, every row from one
    log_abs at ARCH_DPS digits: the printed log is the float of the
    enclosure's centre at a real place, and the tail check compares the
    enclosure's low end with (1 - eps) n log|alpha_1|_v exactly, as
    Fractions."""
    from cfperiod import places

    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise PreconditionViolated("eps must lie strictly between 0 and 1")
    if polyalg.witness_orders(places._charpoly_or_raise(r)):
        raise PreconditionViolated("growth check needs a non-degenerate sequence")
    finite = v.kind == "finite"

    def exact(x) -> Fraction:
        return Fraction(*mpmath.libmp.to_rational(x._mpf_))

    log_a1 = (places.finite_dominant_slope if finite else places.arch_dominant_log)(r, v)
    tail = n_lo + (n_hi - n_lo) // 5
    rows, passed = [], True
    for n in range(n_lo, n_hi + 1):
        a = r.term(n)
        if a == 0:
            passed = passed and n < tail
            continue
        e = places.log_abs(a, v)
        shown = e * v.f * math.log(v.p) if finite else enclosure_centre(*e)
        rows.append((n, f"{shown:.12g}"))
        if not passed or n < tail:
            continue
        passed = (e if finite else exact(e[0])) >= (1 - eps) * n * log_a1
    return rows, passed
