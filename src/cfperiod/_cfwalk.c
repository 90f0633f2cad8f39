/* Reduced cycle of the continued-fraction walk of (P + sqrt(D))/Q.

   s holds P, Q, Q_prev and t = isqrt(D) as (low, high) 64-bit word pairs,
   on a reduced state.  The walk steps with Q_{k+1} = Q_{k-1} + a_k(P_k - P_{k+1})
   and never forms P^2 or D: on a reduced state 0 < P <= t and
   0 < Q, Q_prev <= 2t + 1, so every intermediate is below 4t + 2, exact on
   signed 128 bits whenever t < 2^124.  Returns the number of steps until
   (P, Q) recurs, -1 when max_steps run out first, or -2 when a state leaves
   the reduced bounds; s is overwritten with the last state reached. */
#include <stdint.h>

typedef __int128 i128;

static i128 get(const uint64_t *w) { return (i128)(((unsigned __int128)w[1] << 64) | w[0]); }
static void put(uint64_t *w, i128 v) { w[0] = (uint64_t)v; w[1] = (uint64_t)((unsigned __int128)v >> 64); }

int64_t cf_cycle(uint64_t *s, int64_t max_steps)
{
    i128 P = get(s), Q = get(s + 2), R = get(s + 4), t = get(s + 6);
    const i128 P0 = P, Q0 = Q, lim = 2 * t + 1;
    int64_t k = 0, rc = -1;
    while (k < max_steps) {
        i128 n = P + t, a;
        if (n < 2 * Q)
            a = 1;
        else if (!(n >> 64))
            a = (uint64_t)n / (uint64_t)Q;
        else
            a = n / Q;
        i128 Pn = a * Q - P, Qn = R + a * (P - Pn);
        R = Q, P = Pn, Q = Qn, k++;
        if (P <= 0 || P > t || Q <= 0 || Q > lim) { rc = -2; break; }
        if (P == P0 && Q == Q0) { rc = k; break; }
    }
    put(s, P), put(s + 2, Q), put(s + 4, R);
    return rc;
}
