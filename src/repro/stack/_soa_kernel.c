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
 * slot-for-slot identical to the scalar Python oracle (KRRStack).
 *
 * Draws.  A draw is (1 - U)^(1/K) for a uniform U of the stack's
 * generator, in blocks of `block` (repro.core.updates.DRAW_BLOCK), as
 * repro.core.updates.backward_draw_block makes them: NumPy's
 * `Generator.random`, `1.0 - u`, then NumPy's `power`.  The kernel makes
 * the first two itself when the lane's generator is PCG64: one PCG64
 * step (128-bit LCG, XSL-RR output) gives x, and U = (x >> 11) * 2^-53,
 * which is what NumPy's `random` computes; both that product and
 * `1.0 - U` are exact, so the bytes are NumPy's.  While a lane walks
 * its current block `buf`, every swap step that consumes a draw also
 * draws one uniform of the lane's next block into `next`, in the same
 * loop as the chains, so the generator's latency hides behind theirs.
 * When `buf` is spent the kernel draws what is left of the next block,
 * copies it into `buf` and returns the lane; the caller applies only the
 * power (`buf **= 1/K`, NumPy's SIMD `power`, which C cannot match bit
 * for bit) and calls again.  A lane whose generator is not PCG64 has no
 * generator words (`gen` = 0): the kernel steps a scratch state into its
 * `next` all the same (one loop, no branch on the lane's kind) but hands
 * back an untouched `buf`, which the caller refills with
 * backward_draw_block.
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
 * `jp`/`jne` (or `jp`/`je`) jumps around the `t - 1`, and no `setbe` or
 * `sbb`; the only `adc` is the PCG64 step's 128-bit add.
 *
 * Two chains in flight.  One chain cannot go faster than its convert,
 * multiply and truncate, but the lanes of a grid (one per MultiKRR cell)
 * have their own stacks, buffers and generators, so their chains are
 * independent.  The kernel holds two lanes at a time, one per "slot",
 * and steps both chains in the same loop so that the CPU overlaps their
 * latencies.  A slot's hot state (its `j`, buffer cursor, generator
 * state and stack, pos and buffer pointers) lives in locals; the
 * generator steps fill the issue slots the chains leave idle.  More
 * slots spill more of it.  When a lane runs out of requests its slot
 * takes the next unstarted lane, in `desc` order (the caller puts the
 * heaviest lanes first).  Each lane sees only its own draws in its own
 * order, so its distances, stack and counters do not depend on which
 * lanes it shared the call with.
 *
 * Compiled on demand by repro.stack._native via the system C compiler;
 * everything is plain integer/double arrays so the only ABI surface is
 * the two exported functions.
 *
 * desc layout (int64 x 10 per lane; addresses are stored as integers):
 *   [0] kids       dense key ids, one per request (int64 *)
 *   [1] n          number of requests
 *   [2] stack      slot -> key id, top of stack at 0 (int64 *)
 *   [3] pos        key id -> slot, -1 = not resident (int64 *)
 *   [4] buf        transformed draws (1-U)^(1/K) (double *)
 *   [5] block      draw buffer length
 *   [6] distances  out: pre-update distance, -1 = cold (int64 *)
 *   [7] state      the lane's persistent cursor state (int64 *, see below)
 *   [8] next       the next block's 1 - U, `block` long (double *)
 *   [9] gen        the lane's PCG64 words (uint64 *, see below), 0 = the
 *                  caller fills `buf` from another generator
 *
 * state layout (int64 x 8):
 *   [0] next_i       next request index to start (or the one mid-chain)
 *   [1] n_stack      current stack depth
 *   [2] bpos         cursor into the draw buffer
 *   [3] cur_j        0 = between accesses; >0 = interrupted chain slot
 *   [4] total_swaps  cumulative swap-set size (Fig 5.4 cost proxy)
 *   [5] cur_ref      referenced key id of the interrupted chain
 *   [6] refills      blocks handed over (BackwardUpdate's refill count)
 *   [7] npos         uniforms of the next block drawn so far; 0 at a
 *                    call's start, since the caller drops what a call
 *                    drew ahead and starts `gen` where the last block
 *                    handed over left the generator
 *
 * gen layout (uint64 x 6, 128-bit values as high and low words):
 *   [0] [1]  the generator state after the last uniform drawn
 *   [2] [3]  the generator's increment
 *   [4] [5]  out: the state after the last block handed over, which the
 *            caller writes back to the generator (start with [0] [1])
 *
 * ctl layout (int64 x 3): [0] and [1] the lane each slot holds (-1 =
 * none), [2] the next unstarted lane.  Start a walk with {-1, -1, 0}.
 *
 * Returns -1 when every lane is done, or the index of a lane whose draw
 * buffer was spent.  The kernel has reset that lane's bpos, counted the
 * refill and, for a PCG64 lane, copied the next block's 1 - U into
 * `buf`: the caller raises `buf` to 1/K (or, without `gen`, refills it
 * with backward_draw_block) and calls again with the same desc and ctl.
 */

#include <stdint.h>
#include <string.h>

enum { D_KIDS, D_N, D_STACK, D_POS, D_BUF, D_BLOCK, D_DIST, D_STATE, D_NEXT, D_GEN,
       D_WORDS };
enum { S_I, S_NSTACK, S_BPOS, S_J, S_SWAPS, S_REF, S_REFILLS, S_NPOS };
enum { G_STATE, G_INC = 2, G_BLOCK = 4 };

/* PCG64 as NumPy's pcg64.h steps it: state = state * M + inc (mod 2^128),
 * then the XSL-RR output of the new state.  With no 128-bit integer type
 * the same arithmetic runs on 64-bit halves. */
#define PCG_MUL_HI 2549297995355413924ULL
#define PCG_MUL_LO 4865540595714422341ULL

#if defined(__SIZEOF_INT128__)
typedef unsigned __int128 pcg128;

static inline pcg128 pcg_load(const uint64_t *w)
{
    return (pcg128)w[0] << 64 | w[1];
}

static inline void pcg_store(uint64_t *w, pcg128 x)
{
    w[0] = (uint64_t)(x >> 64);
    w[1] = (uint64_t)x;
}

static inline uint64_t pcg_next(pcg128 *s, pcg128 inc)
{
    pcg128 x = *s * ((pcg128)PCG_MUL_HI << 64 | PCG_MUL_LO) + inc;
    uint64_t hi = (uint64_t)(x >> 64), lo = (uint64_t)x;
    unsigned rot = (unsigned)(hi >> 58);
    *s = x;
    return (hi ^ lo) >> rot | (hi ^ lo) << (-rot & 63);
}
#else
typedef struct { uint64_t hi, lo; } pcg128;

static inline pcg128 pcg_load(const uint64_t *w)
{
    pcg128 x = {w[0], w[1]};
    return x;
}

static inline void pcg_store(uint64_t *w, pcg128 x)
{
    w[0] = x.hi;
    w[1] = x.lo;
}

/* The high 64 bits of the 128-bit product a * b. */
static inline uint64_t mul_hi64(uint64_t a, uint64_t b)
{
    uint64_t a0 = a & 0xffffffffu, a1 = a >> 32;
    uint64_t b0 = b & 0xffffffffu, b1 = b >> 32;
    uint64_t mid = a1 * b0 + (a0 * b0 >> 32);
    return a1 * b1 + (mid >> 32) + (((mid & 0xffffffffu) + a0 * b1) >> 32);
}

static inline uint64_t pcg_next(pcg128 *s, pcg128 inc)
{
    uint64_t lo = s->lo * PCG_MUL_LO;
    uint64_t hi = mul_hi64(s->lo, PCG_MUL_LO) + s->hi * PCG_MUL_LO
        + s->lo * PCG_MUL_HI;
    unsigned rot;
    lo += inc.lo;
    hi += inc.hi + (lo < inc.lo);
    s->hi = hi;
    s->lo = lo;
    rot = (unsigned)(hi >> 58);
    return (hi ^ lo) >> rot | (hi ^ lo) << (-rot & 63);
}
#endif

/* 1 - U for the generator's next uniform U, as NumPy's `random` and
 * `1.0 - u` compute it (both steps exact). */
static inline double one_minus_uniform(pcg128 *s, pcg128 inc)
{
    return 1.0 - (double)(pcg_next(s, inc) >> 11) * (1.0 / 9007199254740992.0);
}

struct slot {
    int64_t lane;           /* desc index, -1 = slot empty */
    int64_t j;              /* chain slot in flight, 0 = none */
    int64_t *stack, *pos;
    const double *bp, *end; /* draw cursor and buffer end */
    double *np;             /* cursor into next: its uniforms drawn so far */
    pcg128 g, inc;          /* generator state (scratch without gen) */
    const int64_t *kids;
    int64_t *dist, *state;
    uint64_t *gen;          /* the lane's PCG64 words, NULL = caller fills */
    int64_t i, n, n_stack, swaps, ref, refills;
    double *buf, *next;
    const double *mark;     /* draws before mark are counted in swaps */
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
    x->buf = (double *)(intptr_t)d[D_BUF];
    x->end = x->buf + d[D_BLOCK];
    x->dist = (int64_t *)(intptr_t)d[D_DIST];
    x->next = (double *)(intptr_t)d[D_NEXT];
    x->gen = (uint64_t *)(intptr_t)d[D_GEN];
    x->state = st;
    x->i = st[S_I];
    x->n_stack = st[S_NSTACK];
    x->bp = x->mark = x->buf + st[S_BPOS];
    x->j = st[S_J];
    x->swaps = st[S_SWAPS];
    x->ref = st[S_REF];
    x->refills = st[S_REFILLS];
    x->np = x->next + st[S_NPOS];
    if (x->gen) {
        x->g = pcg_load(x->gen + G_STATE);
        x->inc = pcg_load(x->gen + G_INC);
    } else {
        static const uint64_t zero[2];
        x->g = x->inc = pcg_load(zero);
    }
}

static inline void slot_save(const struct slot *x)
{
    int64_t *st = x->state;
    st[S_I] = x->i;
    st[S_NSTACK] = x->n_stack;
    st[S_BPOS] = x->bp - x->buf;
    st[S_J] = x->j;
    st[S_SWAPS] = x->swaps + (x->bp - x->mark);  /* one draw per chain step */
    st[S_REF] = x->j > 0 ? x->ref : -1;
    st[S_REFILLS] = x->refills;
    st[S_NPOS] = x->np - x->next;
    if (x->gen)
        pcg_store(x->gen + G_STATE, x->g);
}

/* Hand a spent lane its next block: draw the rest of the next block's
 * uniforms, copy them into buf and note the generator state they leave
 * behind (without gen the caller refills buf).  The caller then applies
 * the power before the lane walks on. */
static inline void slot_refill(struct slot *x)
{
    int64_t block = x->end - x->buf;
    if (x->gen) {
        double *stop = x->next + block;
        while (x->np < stop)
            *x->np++ = one_minus_uniform(&x->g, x->inc);
        memcpy(x->buf, x->next, (size_t)block * sizeof(double));
        pcg_store(x->gen + G_BLOCK, x->g);
    }
    x->swaps += x->bp - x->mark;
    x->bp = x->mark = x->buf;
    x->np = x->next;
    x->refills++;
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

/* Refill the spent lane, checkpoint both slots and hand the spent lane
 * back for its power. */
static inline int64_t spent(struct slot *x, const struct slot *y, int64_t *ctl)
{
    slot_refill(x);
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
            double *na = a.np;
            pcg128 ga = a.g, ia = a.inc;
            int64_t left = a.end - ua;
            do {
                ja = swap_step(sa, pa, *ua++, ja);
                *na++ = one_minus_uniform(&ga, ia);
            } while (--left > 0 && ja > 0);
            a.j = ja;
            a.bp = ua;
            a.np = na;
            a.g = ga;
        } else {
            int64_t ja = a.j, jb;
            int64_t *sa = a.stack, *pa = a.pos, *sb, *pb;
            const double *ua, *ub;
            double *na, *nb;
            pcg128 ga = a.g, ia = a.inc, gb, ib;
            int64_t left, i;
            if (b.bp >= b.end)
                return spent(&b, &a, ctl);
            jb = b.j;
            sb = b.stack;
            pb = b.pos;
            gb = b.g;
            ib = b.inc;
            left = a.end - a.bp < b.end - b.bp ? a.end - a.bp : b.end - b.bp;
            /* One index, counting up to 0, for both cursors and both
             * next buffers: one add a step instead of four, since the
             * generator steps leave few issue slots to spare. */
            ua = a.bp + left;
            ub = b.bp + left;
            na = a.np + left;
            nb = b.np + left;
            i = -left;
            do {
                ja = swap_step(sa, pa, ua[i], ja);
                jb = swap_step(sb, pb, ub[i], jb);
                na[i] = one_minus_uniform(&ga, ia);
                nb[i] = one_minus_uniform(&gb, ib);
            } while (++i < 0 && ja > 0 && jb > 0);
            a.j = ja;
            a.bp = ua + i;
            a.np = na + i;
            a.g = ga;
            b.j = jb;
            b.bp = ub + i;
            b.np = nb + i;
            b.g = gb;
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
