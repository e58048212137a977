/* Native kernels: the struct-of-arrays KRR stack's chain walk and the
 * CSV block decoder (csv_decode_block, at the end of this file).
 *
 * The chain walk is the streaming hot loop of repro.stack.soa: for each
 * request of a "lane" (one SoA stack and its chunk of dense key ids) it
 * looks up the referenced key's slot in the flat position array, records
 * the pre-update stack distance, then walks the backward update's
 * inverse-CDF swap chain (Algorithm 2) over the flat stack array.  The
 * arithmetic computes EXACTLY the slot of the stack's pure-Python walk
 * (SoAKRRStack._walk_backward_python) — `v = buf[bpos] * j`, truncate,
 * `y = t < v ? t : t - 1`, the zero-based form of
 * repro.core.updates.BackwardUpdate.swap_positions' `ceil(u * (i - 1))` —
 * so for the same draw buffer the kernel is draw-for-draw and
 * slot-for-slot identical to the scalar Python oracle (KRRStack).  The
 * draw buffers themselves are produced in Python by
 * repro.core.updates.backward_draw_block (the shared inverse-CDF block
 * transform); when a lane's buffer runs dry mid-chain the kernel
 * checkpoints every lane it holds into its `state` and returns that
 * lane's index so the caller can refill it in place and call again.
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
 * Two chains in flight.  One chain cannot go faster than its convert,
 * multiply and truncate, but the lanes of a grid (one per MultiKRR cell)
 * have their own stacks, buffers and generators, so their chains are
 * independent.  The kernel holds two lanes at a time, one per "slot",
 * and steps both chains in the same loop so that the CPU overlaps their
 * latencies.  A slot's hot state (its `j`, buffer cursor and stack, pos
 * and buffer pointers) lives in locals so both chains stay in registers;
 * more slots spill them.  When a lane runs out of requests its slot
 * takes the next unstarted lane, in `desc` order (the caller puts the
 * heaviest lanes first).  Each lane sees only its own draws in its own
 * order, so its distances, stack and counters do not depend on which
 * lanes it shared the call with.
 *
 * Compiled on demand by repro.stack._native via the system C compiler;
 * everything is plain integer/double arrays so the only ABI surface is
 * the two exported functions.
 *
 * desc layout (int64 x 8 per lane; addresses are stored as integers):
 *   [0] kids       dense key ids, one per request (int64 *)
 *   [1] n          number of requests
 *   [2] stack      slot -> key id, top of stack at 0 (int64 *)
 *   [3] pos        key id -> slot, -1 = not resident (int64 *)
 *   [4] buf        transformed draws (1-U)^(1/K) (double *)
 *   [5] block      draw buffer length
 *   [6] distances  out: pre-update distance, -1 = cold (int64 *)
 *   [7] state      the lane's persistent cursor state (int64 *, see below)
 *
 * state layout (int64 x 6):
 *   [0] next_i       next request index to start (or the one mid-chain)
 *   [1] n_stack      current stack depth
 *   [2] bpos         cursor into the draw buffer
 *   [3] cur_j        0 = between accesses; >0 = interrupted chain slot
 *   [4] total_swaps  cumulative swap-set size (Fig 5.4 cost proxy)
 *   [5] cur_ref      referenced key id of the interrupted chain
 *
 * ctl layout (int64 x 3): [0] and [1] the lane each slot holds (-1 =
 * none), [2] the next unstarted lane.  Start a walk with {-1, -1, 0}.
 *
 * Returns -1 when every lane is done, or the index of a lane whose draw
 * buffer is exhausted (refill that lane's buf, reset its state[2] to 0,
 * call again with the same desc and ctl).
 */

#include <stdint.h>

enum { D_KIDS, D_N, D_STACK, D_POS, D_BUF, D_BLOCK, D_DIST, D_STATE, D_WORDS };

struct slot {
    int64_t lane;           /* desc index, -1 = slot empty */
    int64_t j;              /* chain slot in flight, 0 = none */
    int64_t *stack, *pos;
    const double *bp, *end; /* draw cursor and buffer end */
    const int64_t *kids;
    int64_t *dist, *state;
    int64_t i, n, n_stack, swaps, ref;
    const double *buf, *mark; /* buffer start; draws before mark are in swaps */
};

static inline void slot_open(struct slot *x, const int64_t *desc, int64_t lane)
{
    const int64_t *d = desc + lane * D_WORDS;
    int64_t *st = (int64_t *)(intptr_t)d[D_STATE];
    x->lane = lane;
    x->kids = (const int64_t *)(intptr_t)d[D_KIDS];
    x->n = d[D_N];
    x->stack = (int64_t *)(intptr_t)d[D_STACK];
    x->pos = (int64_t *)(intptr_t)d[D_POS];
    x->buf = (const double *)(intptr_t)d[D_BUF];
    x->end = x->buf + d[D_BLOCK];
    x->dist = (int64_t *)(intptr_t)d[D_DIST];
    x->state = st;
    x->i = st[0];
    x->n_stack = st[1];
    x->bp = x->mark = x->buf + st[2];
    x->j = st[3];
    x->swaps = st[4];
    x->ref = st[5];
}

static inline void slot_save(const struct slot *x)
{
    int64_t *st = x->state;
    st[0] = x->i;
    st[1] = x->n_stack;
    st[2] = x->bp - x->buf;
    st[3] = x->j;
    st[4] = x->swaps + (x->bp - x->mark);  /* one draw per chain step */
    st[5] = x->j > 0 ? x->ref : -1;
}

/* Start the slot's requests until one needs a chain walk (x->j > 0).  A
 * finished lane is saved and the slot takes the next unstarted one; with
 * none left the slot is emptied. */
static inline void slot_next_chain(
    struct slot *x, int64_t n_lanes, const int64_t *desc, int64_t *ctl)
{
    for (;;) {
        if (x->lane >= 0) {
            while (x->i < x->n) {
                int64_t kid = x->kids[x->i];
                int64_t p = x->pos[kid];
                if (p < 0) {
                    p = x->n_stack++;
                    x->stack[p] = kid;
                    x->pos[kid] = p;
                    x->dist[x->i] = -1;
                } else {
                    x->dist[x->i] = p + 1;
                }
                x->i++;
                x->swaps += 1;    /* position phi = p + 1 always swaps */
                if (p > 0) {      /* j = phi - 1; 0 = already on top */
                    x->ref = x->stack[p];
                    x->j = p;
                    return;
                }
            }
            slot_save(x);
            x->lane = -1;
        }
        if (ctl[2] >= n_lanes)
            return;
        slot_open(x, desc, ctl[2]++);
    }
}

/* One swap step: draw slot y below j, move stack[y] down to j. */
static inline int64_t swap_step(int64_t *stack, int64_t *pos, double u, int64_t j)
{
    /* Zero-based inverse-CDF step: y = ceil(u^(1/K) * j) - 1,
     * u in (0, 1] makes the result land in [0, j-1] already. */
    double v = u * (double)j;
    int64_t t = (int64_t)v;
    int64_t y = t;
    int64_t moved;
    if (__builtin_expect((double)t == v, 0))
        y = t - 1;        /* exact integer: ceil(v) - 1 = t - 1 */
    moved = stack[y];
    stack[j] = moved;
    pos[moved] = j;
    return y;
}

/* The referenced key lands on top once its chain reaches slot 0. */
static inline void slot_finish_chain(const struct slot *x)
{
    x->stack[0] = x->ref;
    x->pos[x->ref] = 0;
}

/* Checkpoint both slots and hand the spent lane back for a refill. */
static inline int64_t spent(const struct slot *x, const struct slot *y, int64_t *ctl)
{
    slot_save(x);
    if (y->lane >= 0)
        slot_save(y);
    ctl[0] = x->lane;
    ctl[1] = y->lane;
    return x->lane;
}

int64_t krr_backward_lanes(
    int64_t n_lanes,          /* number of lanes in desc */
    const int64_t *desc,      /* per-lane arrays and sizes, see above */
    int64_t *ctl)             /* slot -> lane and next lane, see above */
{
    struct slot a = {0}, b = {0}, t;
    a.lane = b.lane = -1;
    if (ctl[0] >= 0)
        slot_open(&a, desc, ctl[0]);
    if (ctl[1] >= 0)
        slot_open(&b, desc, ctl[1]);

    for (;;) {
        if (a.j == 0)
            slot_next_chain(&a, n_lanes, desc, ctl);
        if (b.j == 0)
            slot_next_chain(&b, n_lanes, desc, ctl);
        if (a.lane < 0) {
            if (b.lane < 0)
                break;
            t = a; a = b; b = t;  /* keep the one live chain in slot a */
        }
        if (a.bp >= a.end)
            return spent(&a, &b, ctl);
        if (b.lane < 0) {
            int64_t ja = a.j;
            int64_t *sa = a.stack, *pa = a.pos;
            const double *ua = a.bp;
            int64_t left = a.end - ua;
            do {
                ja = swap_step(sa, pa, *ua++, ja);
            } while (--left > 0 && ja > 0);
            a.j = ja;
            a.bp = ua;
        } else {
            int64_t ja = a.j, jb;
            int64_t *sa = a.stack, *pa = a.pos, *sb, *pb;
            const double *ua = a.bp, *ub;
            int64_t left;
            if (b.bp >= b.end)
                return spent(&b, &a, ctl);
            jb = b.j;
            sb = b.stack;
            pb = b.pos;
            ub = b.bp;
            left = a.end - ua < b.end - ub ? a.end - ua : b.end - ub;
            do {
                ja = swap_step(sa, pa, *ua++, ja);
                jb = swap_step(sb, pb, *ub++, jb);
            } while (--left > 0 && ja > 0 && jb > 0);
            a.j = ja;
            a.bp = ua;
            b.j = jb;
            b.bp = ub;
            if (jb == 0)
                slot_finish_chain(&b);
        }
        if (a.j == 0)
            slot_finish_chain(&a);
    }
    ctl[0] = ctl[1] = -1;
    return -1;
}

/* CSV block decoder: the clean-block fast path of
 * repro.workloads.io._decode_block.
 *
 * Decodes a block of whole CSV lines into the key, size and op columns
 * in one forward pass, or refuses the whole block (returns -1) so that
 * the caller parses it row by row with the reference parser
 * (_CsvRowReader).  It accepts only lines that parser reads as plain
 * values, so an accepted block decodes exactly as the rows would:
 *   - every line has n_fields fields separated by ',';
 *   - every line ends in "\n", or every line in "\r\n", and there is no
 *     other '\r' in the block;
 *   - key and size fields are 1-18 ASCII digits (below 10^18 < 2^63, so
 *     no overflow), and sizes are >= 1;
 *   - the op field is exactly get, set or delete (codes 0, 1 and 2);
 *   - fields of other columns hold only bytes from "0-9getsdl" (the
 *     clean bytes of the three columns) and may be empty.
 * Leading zeros are digits like any other ("007" is 7, as Python's
 * int() reads it).  si or oi = -1 marks an absent size or op column:
 * every size is then 1 and every op 0.
 *
 * It never writes more than cap rows (a block with more is refused) and
 * never reads at or past data + len.  Returns the row count.
 */

/* Bytes a field of an ignored column may hold. */
static inline int other_byte(uint8_t c)
{
    return (uint8_t)(c - '0') < 10 || c == 'g' || c == 'e' || c == 't'
        || c == 's' || c == 'd' || c == 'l';
}

/* A 1-18 digit unsigned decimal at *pp (advanced past it), else -1. */
static inline int64_t decimal_field(const uint8_t **pp, const uint8_t *end)
{
    const uint8_t *p = *pp;
    const uint8_t *stop = end - p > 18 ? p + 18 : end;
    uint64_t v = 0;
    unsigned d;
    while (p < stop && (d = (unsigned)*p - '0') < 10) {
        v = v * 10 + d;
        p++;
    }
    if (p == *pp || (p < end && (unsigned)*p - '0' < 10))
        return -1;        /* empty, or a 19th digit */
    *pp = p;
    return (int64_t)v;
}

/* The op code of get/set/delete at *pp (advanced past it), else -1.
 * A longer word fails the separator check that follows. */
static inline int op_field(const uint8_t **pp, const uint8_t *end)
{
    const uint8_t *p = *pp;
    int64_t left = end - p;
    if (left >= 3 && (p[0] == 'g' || p[0] == 's') && p[1] == 'e' && p[2] == 't') {
        *pp = p + 3;
        return p[0] == 's';
    }
    if (left >= 6 && p[0] == 'd' && p[1] == 'e' && p[2] == 'l' && p[3] == 'e'
        && p[4] == 't' && p[5] == 'e') {
        *pp = p + 6;
        return 2;
    }
    return -1;
}

int64_t csv_decode_block(
    const uint8_t *data,      /* the block's bytes */
    int64_t len,              /* number of bytes */
    int64_t n_fields,         /* fields per line (the header's) */
    int64_t ki,               /* key column */
    int64_t si,               /* size column, -1 = absent */
    int64_t oi,               /* op column, -1 = absent */
    int64_t *keys,            /* out: cap keys */
    int64_t *sizes,           /* out: cap sizes */
    int8_t *ops,              /* out: cap op codes */
    int64_t cap)              /* rows the outputs hold */
{
    const uint8_t *p = data, *end;
    int64_t rows = 0;
    int crlf = -1;            /* line ends: -1 none seen, 0 "\n", 1 "\r\n" */
    if (n_fields < 1 || ki < 0 || ki >= n_fields || len < 0)
        return -1;
    end = data + len;
    while (p < end) {
        int64_t key = 0, size = 1, f;
        int op = 0;
        if (rows >= cap)
            return -1;
        for (f = 0; f < n_fields; f++) {
            if (f == ki) {
                if ((key = decimal_field(&p, end)) < 0)
                    return -1;
            } else if (f == si) {
                if ((size = decimal_field(&p, end)) < 1)
                    return -1;
            } else if (f == oi) {
                if ((op = op_field(&p, end)) < 0)
                    return -1;
            } else {
                while (p < end && other_byte(*p))
                    p++;
            }
            if (p == end)
                return -1;
            if (f + 1 < n_fields && *p++ != ',')
                return -1;
        }
        if (*p == '\r') {
            if (crlf == 0 || ++p == end || *p != '\n')
                return -1;
            crlf = 1;
        } else if (*p == '\n') {
            if (crlf == 1)
                return -1;
            crlf = 0;
        } else {
            return -1;
        }
        p++;
        keys[rows] = key;
        sizes[rows] = size;
        ops[rows] = (int8_t)op;
        rows++;
    }
    return rows;
}
