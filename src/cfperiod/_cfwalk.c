/* Period length of the reduced cycle of (P + sqrt(D))/Q, in about half a cycle.

   s holds P, Q, Q_prev and t = isqrt(D) as (low, high) 64-bit word pairs,
   on a reduced state x_j.  A step is Q_{k+1} = Q_{k-1} + a_k(P_k - P_{k+1})
   and never forms P^2 or D: on a reduced state 0 < P <= t and
   0 < Q, Q_prev <= 2t + 1, so every intermediate is below 4t + 2, exact on
   signed 128 bits whenever t < 2^124.  Every step, in either direction,
   checks those bounds.

   The partial quotient a = floor(n / Q), n = P + t, is taken by width.
   When n and Q both fit 64 bits, one 64-bit division (no a = 1 test: that
   branch, taken about 41% of the time, mispredicts more than the division
   costs).  Otherwise a = 1 when n < 2Q; else, with s the bit length of n's
   high word, a0 = (n >> s) / ((Q >> s) + 1) on 64 bits is at most a, and
   is corrected upward while the remainder n - a0 Q is at least Q, a step
   or two when Q >> s >= 2^32; below that, an unsigned 128-bit division.

   R(P_k, Q_k) = (P_k, Q_{k-1}) reverses the walk: stepping from
   (P_k, Q_{k-1}) reaches (P_{k-1}, Q_{k-2}).  A centre is a fixed point of
   R: at state k when Q_k = Q_{k-1}, or between states k and k+1 when
   P_{k+1} = P_k.  Positions count half-steps from x_j (state k at 2k, the
   edge k|k+1 at 2k + 1).  If a centre exists, R maps the cycle onto itself
   as a reflection of Z/l, whose two axis points are l/2 steps apart, so l
   is the distance between consecutive centres in half-steps.

   First the walk probes backward from x_j for at most `probe` steps.  If it
   meets a centre u_b <= 0, it walks forward to the next centre u_f and
   l = u_f - u_b.  Otherwise it walks forward, checking for closure at x_j
   and noting the first centre u_1 > 0; the next one gives l = u_2 - u_1.  A
   cycle without a centre closes as a plain walk.  Once a centre u is known,
   no further centre within u + max_steps proves l > max_steps, so the cap
   is decided without walking it; positions stay below 3 * 2^61 when
   max_steps and probe are at most 2^61.

   Returns l, -1 when l > max_steps, or -2 when a state leaves the reduced
   bounds.  s is overwritten with the last forward state: x_j again when the
   walk closed, and a centre when l came from centres (Q == Q_prev, or
   Q_prev | 2P when the centre is the edge just walked).

   The library exports one entry, cf_cycles, which runs cf_cycle over a
   batch of rows in order, each a state and its max_steps and probe, and
   stops at the first row that is capped (-1) or leaves the bounds (-2): a
   scan hands over its rows in one call, and its first capped row in scan
   order is the one reported. */
#include <stdint.h>

typedef __int128 i128;

static i128 get(const uint64_t *w) { return (i128)(((unsigned __int128)w[1] << 64) | w[0]); }
static void put(uint64_t *w, i128 v) { w[0] = (uint64_t)v; w[1] = (uint64_t)((unsigned __int128)v >> 64); }

/* One step of (P, Q, R = Q_prev): 1 if P is unchanged (an edge centre),
   0 if not, -2 when the new state leaves the reduced bounds.  Always
   inlined, which gcc -O2 no longer does by itself: the walk loops spend
   nearly all their time here. */
static inline __attribute__((always_inline)) int step(i128 *P, i128 *Q, i128 *R, i128 t)
{
    i128 n = *P + t, a;
    if (!((n | *Q) >> 64)) {
        a = (uint64_t)n / (uint64_t)*Q;
    } else if (n < 2 * *Q) {
        a = 1;
    } else {
        /* n >= 2Q and n >= 2^64, so n >> s < 2^64 and Q >> s < 2^63:
           (Q >> s) + 1 cannot wrap */
        int s = 64 - __builtin_clzll((uint64_t)(n >> 64));
        uint64_t q = (uint64_t)(*Q >> s);
        if (q >> 32) {
            a = (uint64_t)(n >> s) / (q + 1);
            for (i128 r = n - a * *Q; r >= *Q; r -= *Q)
                a++;
        } else {
            a = (i128)((unsigned __int128)n / (unsigned __int128)*Q);
        }
    }
    i128 Pn = a * *Q - *P, Qn = *R + a * (*P - Pn);
    int edge = Pn == *P;
    *R = *Q, *P = Pn, *Q = Qn;
    if (Pn <= 0 || Pn > t || Qn <= 0 || Qn > 2 * t + 1)
        return -2;
    return edge;
}

/* Write the state back to s and return rc. */
static int64_t leave(uint64_t *s, i128 P, i128 Q, i128 R, int64_t rc)
{
    put(s, P), put(s + 2, Q), put(s + 4, R);
    return rc;
}

/* Kept out of line: inlined into the batch loop below, gcc -O2 lays the
   walk out about 5% slower. */
static __attribute__((noinline)) int64_t cf_cycle(uint64_t *s, int64_t max_steps,
                                                  int64_t probe)
{
    i128 P = get(s), Q = get(s + 2), R = get(s + 4), t = get(s + 6);
    const i128 P0 = P, Q0 = Q;
    const int64_t none = INT64_MIN;
    int64_t c = Q == R ? 0 : none;
    i128 p = P, q = R, r = Q;  /* R(x_j): the backward walk */
    for (int64_t i = 1; c == none && i <= probe; i++) {
        int e = step(&p, &q, &r, t);
        if (e < 0)
            return leave(s, p, q, r, -2);
        c = e ? 1 - 2 * i : q == r ? -2 * i : none;
    }
    int64_t limit = c == none ? 2 * max_steps : c + max_steps;
    for (int64_t k = 1; 2 * k - 1 <= limit; k++) {
        int e = step(&P, &Q, &R, t);
        if (e < 0)
            return leave(s, P, Q, R, -2);
        int64_t u = e ? 2 * k - 1 : Q == R ? 2 * k : none;
        if (u != none && c != none)
            return leave(s, P, Q, R, u <= limit ? u - c : -1);
        if (u != none) {
            if (u >= max_steps)  /* 0 is no centre here, so l > u */
                break;
            c = u, limit = c + max_steps;
        }
        if (c == none && P == P0 && Q == Q0)
            return leave(s, P, Q, R, k);
    }
    return leave(s, P, Q, R, -1);
}

/* Row i is the 10 words at r = s + 10i: the state in r[0..7], max_steps
   in r[8] and probe in r[9], each below 2^62.  cf_cycle's result is
   written over r[8], as a two's complement word.  Stops after the first
   negative result; returns the number of rows walked. */
int64_t cf_cycles(uint64_t *s, int64_t count)
{
    for (int64_t i = 0; i < count; i++) {
        uint64_t *r = s + 10 * i;
        int64_t rc = cf_cycle(r, (int64_t)r[8], (int64_t)r[9]);
        r[8] = (uint64_t)rc;
        if (rc < 0)
            return i + 1;
    }
    return count;
}
