/* Native chain-walk kernel for the struct-of-arrays KRR stack.
 *
 * This is the streaming hot loop of repro.stack.soa.SoAKRRStack: for each
 * request it looks up the referenced key's slot in the flat position
 * array, records the pre-update stack distance, then walks the backward
 * update's inverse-CDF swap chain (Algorithm 2) over the flat stack
 * array.  The arithmetic computes EXACTLY the slot of
 * repro.core.updates.BackwardUpdate.apply_fused — `v = buf[bpos] * j`,
 * truncate, `y = t < v ? t : t - 1` — so for the same draw buffer the
 * kernel is draw-for-draw and slot-for-slot identical to the scalar
 * Python oracle.  The draw buffer itself is produced in Python by
 * repro.core.updates.backward_draw_block (the shared inverse-CDF block
 * transform); when it runs dry mid-chain the kernel checkpoints its full
 * state into `state` and returns 0 so the caller can refill and resume.
 *
 * The swap step is a loop-carried chain: the slot `y` drawn at step n is
 * the `j` of step n + 1, so every step waits for the previous one's
 * int->double convert, multiply and truncate.  The exact-integer
 * correction is written as `y = t`, then `y = t - 1` only when
 * `(double)t == v`.  That is the same `y` for every positive finite `v`
 * (t = trunc(v) <= v, so `t < v` fails only on equality; draws are in
 * (0, 1] and j >= 1, so v is never NaN or <= 0), but it keeps the
 * compare off the chain: `==` compiles to a branch that is almost never
 * taken (random draws hit it with odds ~1e-13 per step) and the branch
 * predictor runs ahead of it.  The ternary form, and the `!(t < v)` /
 * `t >= v` spellings, are if-converted by gcc 12 into `setbe`/`sub` (or
 * `adc`) on the chain, which costs ~4 ns a step.  That gain was measured
 * with gcc 12 only; clang was not measured, and any compiler may still
 * if-convert the branch.  Check with `cc -O3 -S`: after `mulsd` and
 * `cvttsd2si` the loop body must show the `ucomisd` feeding only
 * `jp`/`jne` jumps around the `t - 1`, and no `setbe`, `adc` or `sbb`.
 *
 * Compiled on demand by repro.stack._native via the system C compiler;
 * everything is plain int64/double arrays so the only ABI surface is
 * this one function.
 *
 * state layout (int64 x 6):
 *   [0] next_i       next request index to start (or the one mid-chain)
 *   [1] n_stack      current stack depth
 *   [2] bpos         cursor into the draw buffer
 *   [3] cur_j        0 = between accesses; >0 = interrupted chain slot
 *   [4] total_swaps  cumulative swap-set size (Fig 5.4 cost proxy)
 *   [5] cur_ref      referenced key id of the interrupted chain
 *
 * Returns 1 when all n requests are processed, 0 when the draw buffer is
 * exhausted (refill buf, reset state[2] to 0, call again).
 */

#include <stdint.h>

int64_t krr_backward_chunk(
    const int64_t *kids,      /* dense key ids, one per request */
    int64_t n,                /* number of requests in the chunk */
    int64_t *stack,           /* slot -> key id, top of stack at 0 */
    int64_t *pos,             /* key id -> slot, -1 = not resident */
    const double *buf,        /* transformed draws (1-U)^(1/K) */
    int64_t block,            /* draw buffer length */
    int64_t *distances,       /* out: pre-update distance, -1 = cold */
    int64_t *state)           /* persistent cursor state, see above */
{
    int64_t i = state[0];
    int64_t n_stack = state[1];
    int64_t bpos = state[2];
    int64_t j = state[3];
    int64_t swaps = state[4];
    int64_t ref = state[5];

    while (i < n || j > 0) {
        if (j == 0) {
            int64_t kid = kids[i];
            int64_t p = pos[kid];
            int64_t phi;
            if (p < 0) {
                stack[n_stack] = kid;
                pos[kid] = n_stack;
                n_stack++;
                phi = n_stack;
                distances[i] = -1;
            } else {
                phi = p + 1;
                distances[i] = phi;
            }
            i++;
            swaps += 1;           /* position phi always swaps */
            j = phi - 1;
            if (j == 0)
                continue;         /* referenced already on top */
            ref = stack[j];
        }
        while (j > 0) {
            double v;
            int64_t t, y, moved;
            if (bpos >= block) {
                state[0] = i; state[1] = n_stack; state[2] = bpos;
                state[3] = j; state[4] = swaps; state[5] = ref;
                return 0;         /* draws exhausted: refill and resume */
            }
            /* Zero-based inverse-CDF step: y = ceil(u^(1/K) * j) - 1,
             * u in (0, 1] makes the result land in [0, j-1] already. */
            v = buf[bpos++] * (double)j;
            t = (int64_t)v;
            y = t;
            if (__builtin_expect((double)t == v, 0))
                y = t - 1;        /* exact integer: ceil(v) - 1 = t - 1 */
            moved = stack[y];
            stack[j] = moved;
            pos[moved] = j;
            swaps += 1;
            j = y;
        }
        stack[0] = ref;
        pos[ref] = 0;
    }
    state[0] = i; state[1] = n_stack; state[2] = bpos;
    state[3] = 0; state[4] = swaps; state[5] = -1;
    return 1;
}
