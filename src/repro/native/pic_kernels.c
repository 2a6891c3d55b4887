/* The per-particle PIC kernels and the mesh stencils as plain C loops.
 *
 * Each entry point reproduces its NumPy body's floats bit for bit: the same
 * IEEE operations per particle or node in the same order, bins added to in
 * pooled entry order (which is numpy.bincount's), and numbers its ghost slots.
 * Build without -ffast-math and with -ffp-contract=off: a fused
 * multiply-add rounds once where NumPy rounds twice.  The loops marked
 * VECTORIZED are written to run at vector width under -O3 (no branch, no
 * library call, unit stride); a vector lane rounds as the scalar
 * instruction does, so that moves no bit, and CI checks that the compiler
 * still reports each of them vectorized, in every clone (CLONED).
 * repro/native/__init__.py compares
 * every entry point with its NumPy body when the library is loaded and
 * drops the library on a mismatch.
 *
 * Both steppers' particle phases are one pass each: scatter (CIC, ghost
 * slots and deposit, one rank segment at a time while it is in cache; the
 * modern stepper's mode adds the zigzag currents) and gather_push (CIC,
 * interpolation and Boris push, PUSH_CHUNK particles at a time; the modern
 * stepper's mode interpolates on the Yee stencils and numbers the ghost
 * slots of the stencil cells, the gather's requests).  Both keep the mesh
 * data a particle touches next to each other: the deposit adds into one
 * block of the four channels per node, the gather reads E and B
 * interleaved per node, so a vertex is one cache line and one vector
 * operation.  The era's hot passes run branch-free at the widest vector
 * unit the CPU has (CLONED).  field_step and smooth are the era's field
 * solve and sources.
 *
 * Every kernel reads its arguments, writes only its output buffers (and its
 * scratch; gather_push the particles, see there) and returns
 *   OK         the outputs are the NumPy body's;
 *   FLAGGED    a float exception NumPy reports (invalid, divide by zero,
 *              overflow) was raised or an output is not finite;
 *   DECLINED   an input the loop does not cover.
 * On anything but OK the caller discards the outputs and runs the NumPy
 * body, which then produces the warning, the exception or the NaN payload
 * NumPy produces.  No index is used before it is range-checked.
 *
 * scatter and gather_push run as shards: contiguous rank segments (whole
 * segments, so an on-rank deposit of one shard never lands on a node of
 * another's) cut by the caller.  Without a team the calling thread runs
 * every shard in turn; with one, shard s runs on slot s of the team, the
 * calling thread being slot 0 and helper s a thread parked in gather_push
 * (see there) that never touches the interpreter.  Either way the outputs
 * are the same bytes (see team below).
 */
#include <fenv.h>
#include <limits.h>
#include <math.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdint.h>
#include <string.h>
#include <time.h>
#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

enum { OK = 0, FLAGGED = 1, DECLINED = 2 };

/* The entry points' argument lists, as a number: repro/native/calls.py
 * calls them through its _SIGNATURES and, before it calls anything, checks
 * this against its INTERFACE, so a library built from a copy of this file
 * edited after the process imported calls.py is not called with the old
 * arguments.  Bump both with any change to an entry point's arguments.  A
 * datum, not a function: it adds no entry point. */
const int64_t pic_kernels_interface = 3;

/* inputs are only read and outputs are buffers of their own: nothing aliases */
#define R restrict

/* A loop pass that is not inlined: in a function of its own the restrict on
 * its parameters holds, so it needs no run-time alias test to vectorize.
 * It starts on a cache line, so how its loops sit in the instruction cache
 * does not depend on the code before it in this file: with the default
 * 16 bytes, code added elsewhere moved the era gather + push by 5 % (the
 * same C, called in turn with the other build in one process). */
#define PASS __attribute__((noinline, aligned(64)))

/* The era particle passes, compiled once per vector unit: AVX-512
 * (x86-64-v4), AVX2 (x86-64-v3) and the baseline (SSE2 on x86-64); the
 * loader binds each to the widest the CPU runs.  A lane of any width
 * rounds as the scalar instruction does and -ffp-contract=off holds in
 * every clone, so all three write the same bytes.  Only GCC >= 11 on
 * x86-64 knows these targets, and the binding needs glibc's ifunc;
 * elsewhere they are plain functions.
 * -DCLONED='__attribute__((target("arch=x86-64-v3")))' (or -DCLONED= for
 * the baseline) builds one target alone, as the tests and the
 * vectorization guard do. */
#ifndef CLONED
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__GNUC__) && !defined(__clang__) && \
    __GNUC__ >= 11
#define CLONED __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define CLONED
#endif
#endif

static int finish(int64_t bad)
{
    return bad || fetestexcept(FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW) ? FLAGGED : OK;
}

/* The team of a sharded pass.  Its control block belongs to the caller
 * (repro.parallel_exec.FlatBackend keeps one per backend, zeroed, with
 * words 0 and 1 set before any helper parks): a 64-byte header, then one
 * 64-byte line per slot, so no two threads write one line.  A fan-out
 * stores the job in the header, sets pending to the helpers it posts to
 * and bumps the go word of each; a helper runs its shard and counts
 * pending down.  Waiting on a word (a helper on its go, the caller on
 * pending) spins with pause for at most SPIN_NS, then blocks on the word
 * (a futex on Linux), having said so in its asleep word; whoever changes
 * the word wakes it if it says so.  Sequentially consistent stores and
 * loads on both sides, so no wake-up is lost.  With more threads than
 * CPUs to run them, spin is 0 and every wait blocks at once.  No state
 * lives in the library: a forked process holds no team it thinks runs. */
struct team {
    int64_t spin;  /* word 0: spin before blocking (1) or block at once (0) */
    int64_t nteam; /* word 1: slots, the calling thread's included */
    const struct job *job; /* the fan-out being served; NULL dismisses */
    uint32_t seq;          /* fan-outs posted */
    _Atomic uint32_t pending; /* helpers not done with job */
    _Atomic uint32_t asleep;  /* the caller blocks on pending */
    _Atomic int32_t cpu;      /* 1 + the CPU the caller posted job from */
    char pad[64 - 2 * 8 - sizeof(void *) - 4 * 4];
};

struct helper {
    _Atomic uint32_t go;     /* the last fan-out posted to this slot */
    _Atomic uint32_t asleep; /* the helper blocks on go */
    _Atomic int32_t cpu;     /* 1 + the CPU it last ran a shard on (0: none yet) */
    char pad[64 - 3 * 4];
};

struct job {
    void (*run)(const void *args, int64_t shard);
    const void *args;
};

_Static_assert(sizeof(struct team) == 64 && sizeof(struct helper) == 64, "one line each");

/* The longest a waiting thread spins before it blocks: a step's longest gap
 * between two fan-outs at the Fig 17 size (scatter to gather + push: 1.8-1.9
 * ms in the median, 2.1-2.4 ms at the 99th percentile, 3.1 ms at most over
 * 300 steps, measured), so a helper that is busy stepping is not woken from
 * sleep, and one left idle sleeps 3 ms on. */
#define SPIN_NS 3000000

static int64_t now_ns(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (int64_t)t.tv_sec * 1000000000 + t.tv_nsec;
}

static void relax(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/* Lets a thread of the team that waits for this CPU have it: the kernel
 * may have put two of them on one CPU (a woken thread is often placed on
 * its waker's), and a spin that never yields would then wait out its own
 * window before the other one runs at all. */
static void give_way(void)
{
    sched_yield();
}

static void block_on(_Atomic uint32_t *word, uint32_t value)
{
#ifdef __linux__
    syscall(SYS_futex, word, FUTEX_WAIT_PRIVATE, value, NULL, NULL, 0);
#else
    (void)word, (void)value;
    give_way();
#endif
}

static void wake(_Atomic uint32_t *word)
{
#ifdef __linux__
    syscall(SYS_futex, word, FUTEX_WAKE_PRIVATE, INT_MAX, NULL, NULL, 0);
#else
    (void)word;
#endif
}

/* The team's plumbing runs once a call, not once a particle: compiled for
 * size, it keeps the library's build time within 10 % of what it was
 * without a team (+8 % in compiler CPU time; +10 % at -O3). */
#define PLUMBING __attribute__((cold))

/* Returns once *word is no longer value. */
static void await_change(_Atomic uint32_t *word, uint32_t value, _Atomic uint32_t *asleep, int spin)
{
    for (int64_t k = 0, until = 0; spin; k++) {
        if (atomic_load(word) != value)
            return;
        relax();
        if ((k & 255) == 255) {
            int64_t t = now_ns();
            give_way();
            until = until ? until : t + SPIN_NS;
            spin = t < until;
        }
    }
    while (atomic_load(word) == value) {
        atomic_store(asleep, 1);
        if (atomic_load(word) == value)
            block_on(word, value);
        atomic_store(asleep, 0);
    }
}

static void post(struct helper *h, uint32_t seq)
{
    atomic_store(&h->go, seq);
    if (atomic_load(&h->asleep))
        wake(&h->go);
}

/* 1 + the CPU the calling thread runs on (0: unknown).  Raw system calls
 * here and in keep_apart: the glibc wrappers need _GNU_SOURCE, which
 * triples what math.h declares and so the library's build time. */
static PLUMBING int32_t this_cpu(void)
{
#ifdef __linux__
    unsigned cpu = 0;
    return syscall(SYS_getcpu, &cpu, NULL, NULL) ? 0 : (int32_t)cpu + 1;
#else
    return 0;
#endif
}

/* Helper slot of a spinning team, about to run its shard: if it runs on a
 * CPU the caller or a lower slot runs on, it leaves it -- its affinity mask
 * less those CPUs for an instant (the kernel moves it at once), then the
 * mask as it was.  Two threads of a team on one CPU run their shards one
 * after the other, and the kernel was seen to leave a helper on its
 * caller's CPU for the life of the team (4 teams of 5). */
static PLUMBING void keep_apart(struct team *t, int64_t slot)
{
    struct helper *helpers = (struct helper *)(t + 1);
    int32_t mine = this_cpu(), taken = mine && mine == atomic_load(&t->cpu);
    for (int64_t r = 1; r < slot; r++)
        taken |= mine && mine == atomic_load(&helpers[r].cpu);
    atomic_store(&helpers[slot].cpu, mine);
#ifdef __linux__
    uint64_t mask[16] = {0}, others[16], left = 0; /* 1024 CPUs */
    if (!taken || syscall(SYS_sched_getaffinity, 0, sizeof mask, mask) < 0)
        return;
    memcpy(others, mask, sizeof mask);
    for (int64_t r = 0; r < slot; r++) {
        int32_t cpu = atomic_load(r ? &helpers[r].cpu : &t->cpu) - 1;
        if (cpu >= 0 && cpu < 1024)
            others[cpu / 64] &= ~((uint64_t)1 << (cpu % 64));
    }
    for (int k = 0; k < 16; k++)
        left |= others[k];
    if (left && !syscall(SYS_sched_setaffinity, 0, sizeof others, others)) {
        syscall(SYS_sched_setaffinity, 0, sizeof mask, mask);
        atomic_store(&helpers[slot].cpu, this_cpu());
    }
#else
    (void)taken;
#endif
}

/* Runs run(args, s) for the shards s < nshards: shard s on slot s of team,
 * or every shard on the calling thread, in order, without one. */
static void fan_out(int64_t *block, int64_t nshards, void (*run)(const void *, int64_t),
                    const void *args)
{
    struct team *t = (struct team *)block;
    struct job job = {run, args};
    if (!t) {
        for (int64_t s = 0; s < nshards; s++)
            run(args, s);
        return;
    }
    struct helper *helpers = (struct helper *)(t + 1);
    t->job = &job;
    atomic_store(&t->cpu, this_cpu());
    atomic_store(&t->pending, (uint32_t)(nshards - 1));
    t->seq++;
    for (int64_t s = 1; s < nshards; s++)
        post(helpers + s, t->seq);
    run(args, 0);
    for (uint32_t left; (left = atomic_load(&t->pending)) != 0;)
        await_change(&t->pending, left, &t->asleep, (int)t->spin);
}

/* Helper slot of team: serves its fan-outs until dismissed. */
static PLUMBING int serve(int64_t *block, int64_t slot)
{
    struct team *t = (struct team *)block;
    struct helper *me = (struct helper *)(t + 1) + slot;
    for (uint32_t seen = 0;;) {
        await_change(&me->go, seen, &me->asleep, (int)t->spin);
        seen = atomic_load(&me->go);
        const struct job *job = t->job;
        if (!job)
            return OK;
        if (t->spin)
            keep_apart(t, slot);
        job->run(job->args, slot);
        if (atomic_fetch_sub(&t->pending, 1) == 1 && atomic_load(&t->asleep))
            wake(&t->pending);
    }
}

/* Sends every helper of team home: serve returns. */
static PLUMBING int dismiss(int64_t *block)
{
    struct team *t = (struct team *)block;
    struct helper *helpers = (struct helper *)(t + 1);
    t->job = NULL;
    t->seq++;
    for (int64_t s = 1; s < t->nteam; s++)
        post(helpers + s, t->seq);
    return OK;
}

/* Whether cuts[0 .. nshards] ascend from 0 to last, and the team (if any)
 * has a slot for each shard. */
static PLUMBING int shards_fit(int64_t nshards, const int64_t *cuts, int64_t last,
                               const int64_t *block)
{
    if (nshards < 1)
        return 0;
    int64_t bad = cuts[0] != 0 || cuts[nshards] != last;
    for (int64_t s = 0; s < nshards; s++)
        bad |= cuts[s + 1] < cuts[s];
    if (block)
        bad |= nshards > ((const struct team *)block)->nteam;
    return !bad;
}

/* Whether any of a[0 .. m) is inf or NaN, i.e. has all exponent bits set:
 * adding one to the exponent field then carries into the sign bit.  An
 * integer OR, which vectorizes where a comparison of doubles does not. */
static int64_t not_finite(const double *R a, int64_t m)
{
    const uint64_t exponent = 0x7ff0000000000000u, one = 0x0010000000000000u;
    uint64_t carried = 0;
    /* VECTORIZED: not_finite */
    for (int64_t k = 0; k < m; k++) {
        uint64_t bits;
        memcpy(&bits, a + k, sizeof bits);
        carried |= (bits & exponent) + one;
    }
    return (int64_t)(carried >> 63);
}

/* mesh/grid.py::_wrap: fmod, sign fix-up, -0.0 -> +0.0, a sum that rounded
 * to `length` back to 0.  fmod returns a v inside [-0.0, length) unchanged,
 * so the usual case skips the library call. */
static double wrap(double v, double length)
{
    double w = v >= 0 && v < length ? v : fmod(v, length);
    if (w < 0)
        w += length;
    w += 0.0;
    if (w >= length)
        w = 0.0;
    return w;
}

/* Grid2D.cic_axis: cell, next cell and fractional offset along one axis. */
static int cic_axis(double v, double length, double d, int64_t ncells,
                    int64_t *c, int64_t *c1, double *t)
{
    double w = wrap(v, length) / d;
    int64_t k = 0;
    int bad = !(w >= 0 && w < 9e18); /* NaN or not castable: FLAGGED */
    if (!bad) {
        k = (int64_t)w; /* floor: w >= 0 */
        if (k > ncells - 1)
            k = ncells - 1;
    }
    *c = k;
    *c1 = k + 1 == ncells ? 0 : k + 1;
    *t = w - (double)k;
    return bad;
}

/* Whether every a[k] + offset, k < m, lies in [+0.0, hi), hi > 0: a
 * non-negative double orders as its bits do, so the sums' bits are inside
 * [0, top] when neither they nor top minus them has the sign bit set, an
 * integer OR that vectorizes where a comparison of doubles does not.  NaN
 * and anything negative (-0.0 too) are outside. */
static int64_t all_in(const double *R a, int64_t m, double offset, double hi)
{
    uint64_t carried = 0, top;
    memcpy(&top, &hi, sizeof top);
    top -= 1;
    /* VECTORIZED: all_in */
    for (int64_t k = 0; k < m; k++) {
        double b = a[k] + offset;
        uint64_t bits;
        memcpy(&bits, &b, sizeof bits);
        carried |= bits | (top - bits);
    }
    return !(carried >> 63);
}

/* The CIC of particles into rows: particle i's four vertex nodes at
 * node[v][i] and their weights at weight[v][i], in the vertex order and
 * with the floats of Grid2D.cic_vertices_weights.  Node ids are int32: the callers decline a grid of 2^31
 * nodes or more. */
struct cic_rows {
    int32_t *node[4];
    double *weight[4];
};

/* cic_axis on both axes of m positions all inside [0, l): there wrap(v) is
 * v + 0.0, and the clip and the wrap of the next cell are integer selects,
 * so the loop has no branch and runs at vector width. */
static CLONED PASS void cic_inside(int64_t m, const double *R x, const double *R y, double dx,
                                   double dy, int32_t nx, int32_t ny, int32_t *R n0,
                                   int32_t *R n1, int32_t *R n2, int32_t *R n3, double *R w0,
                                   double *R w1, double *R w2, double *R w3)
{
    /* VECTORIZED: cic inside the box */
    for (int64_t i = 0; i < m; i++) {
        double wx = (x[i] + 0.0) / dx, wy = (y[i] + 0.0) / dy;
        int32_t cx = (int32_t)wx, cy = (int32_t)wy; /* floor: w >= 0 */
        cx = cx < nx - 1 ? cx : nx - 1;
        cy = cy < ny - 1 ? cy : ny - 1;
        int32_t cx1 = cx + 1 == nx ? 0 : cx + 1, cy1 = cy + 1 == ny ? 0 : cy + 1;
        int32_t row = cy * nx, row1 = cy1 * nx;
        double tx = wx - (double)cx, ty = wy - (double)cy, ux = 1.0 - tx, uy = 1.0 - ty;
        n0[i] = row + cx;
        n1[i] = row + cx1;
        n2[i] = row1 + cx;
        n3[i] = row1 + cx1;
        w0[i] = ux * uy;
        w1[i] = tx * uy;
        w2[i] = ux * ty;
        w3[i] = tx * ty;
    }
}

/* The CIC of m particles into out: cic_inside when all of them are inside
 * the box (in a run, nearly every chunk: the push wraps what it moves),
 * cic_axis one particle at a time otherwise.  Nonzero: a position is NaN
 * or too large to cast (FLAGGED). */
static int64_t cic_into(int64_t m, const double *R x, const double *R y, double lx, double ly,
                        double dx, double dy, int64_t nx, int64_t ny, struct cic_rows out)
{
    int32_t **node = out.node;
    double **weight = out.weight;
    int64_t bad = 0;
    if (all_in(x, m, 0.0, lx) & all_in(y, m, 0.0, ly)) {
        cic_inside(m, x, y, dx, dy, (int32_t)nx, (int32_t)ny, node[0], node[1], node[2], node[3],
                   weight[0], weight[1], weight[2], weight[3]);
        return 0;
    }
    for (int64_t i = 0; i < m; i++) {
        int64_t cx, cx1, cy, cy1;
        double tx, ty;
        bad |= cic_axis(x[i], lx, dx, nx, &cx, &cx1, &tx);
        bad |= cic_axis(y[i], ly, dy, ny, &cy, &cy1, &ty);
        int64_t row = cy * nx, row1 = cy1 * nx;
        double ux = 1.0 - tx, uy = 1.0 - ty;
        node[0][i] = (int32_t)(row + cx);
        node[1][i] = (int32_t)(row + cx1);
        node[2][i] = (int32_t)(row1 + cx);
        node[3][i] = (int32_t)(row1 + cx1);
        weight[0][i] = ux * uy;
        weight[1][i] = tx * uy;
        weight[2][i] = ux * ty;
        weight[3][i] = tx * ty;
    }
    return bad;
}

/* wrap of m values all in [-l, 2 l], in place.  fmod returns a v in [-l,
 * 0) unchanged and one in [l, 2 l] as v - l, which is exact (Sterbenz):
 * so v plus a shift of l, 0 or -l, which is +0.0 for v = -0.0, and a sum
 * that rounded to l folded back to 0.  Each select is between constants,
 * added: a comparison may not guard an add, or the loop would not run at
 * vector width without AVX-512's masks. */
static CLONED PASS void wrap_near(int64_t m, double *R v, double length)
{
    /* VECTORIZED: wrap near the box */
    for (int64_t j = 0; j < m; j++) {
        double a = v[j];
        double w = a + ((a < 0 ? length : 0.0) + (length <= a ? -length : 0.0));
        v[j] = w + (length <= w ? -length : 0.0);
    }
}

/* wrap of m values in place: wrap_near when all of them are near the box
 * (where the push leaves them: v + l inside [0, 3 l), so v inside [-l, 2 l]
 * as rounding is monotonic), wrap one value at a time otherwise. */
static void wrap_all(int64_t m, double *R v, double length)
{
    if (all_in(v, m, length, 3.0 * length)) {
        wrap_near(m, v, length);
        return;
    }
    for (int64_t j = 0; j < m; j++)
        v[j] = wrap(v[j], length);
}

/* Particles the modern scatter's zigzag entries are staged at a time.  The
 * rows of a segment's (4, len) blocks lie len doubles apart, so for the
 * usual len the rows of all blocks fall in one L1 set and the eviction of
 * each other's lines makes the stores 2-3x slower; a chunk is built in a
 * small block of its own, then copied out one row at a time. */
enum { CHUNK = 64 };

/* np.remainder(a, b) for b > 0, as NumPy's npy_divmod computes it: fmod,
 * then + b when that is negative (a sum that rounds to b is not folded
 * back) and + 0.0 when it is zero.  fmod returns an a inside (0, b)
 * unchanged, so the usual case skips the call.  NumPy also forms the
 * quotient (a - fmod) / b, which overflows -- a warning -- only for an |a|
 * of limit or more; such an a, and a NaN, sets *bad. */
static double remainder_of(double a, double b, double limit, int64_t *bad)
{
    double m = a > 0 && a < b ? a : fmod(a, b);
    *bad |= !(fabs(a) < limit);
    return m < 0 ? m + b : m + 0.0;
}

/* The |a| below which remainder_of's quotient cannot overflow. */
static double remainder_limit(double b)
{
    return b < 1.0 ? b * 0x1p1022 : 0x1p1022;
}

/* cond ? a : b by a bit mask, with no branch to mispredict. */
static inline double pick(int64_t cond, double a, double b)
{
    uint64_t mask = -(uint64_t)(cond != 0), ua, ub;
    memcpy(&ua, &a, sizeof ua);
    memcpy(&ub, &b, sizeof ub);
    ub = (ua & mask) | (ub & ~mask);
    memcpy(&b, &ub, sizeof b);
    return b;
}

/* np.floor(v).astype(np.int64) for a v the caller has bounded. */
static inline int64_t floor_int(double v)
{
    int64_t k = (int64_t)v;
    return k - (v < (double)k);
}

/* np.mod(c, m) of an int64 c, m > 0: never negative.  A cell index is
 * mostly in range already, and a division is ~30 cycles. */
static inline int64_t mod_int(int64_t c, int64_t m)
{
    if (c >= 0 && c < m)
        return c;
    int64_t r = c % m;
    return r < 0 ? r + m : r;
}

/* The values of one sub-segment (xa, ya) -> (xb, yb) inside cell (cx, cy),
 * the cell as doubles: zigzag.py's segment() for column j of the chunk, rows
 * k and k + 1 of its (4, CHUNK) jx and jy value blocks. */
static inline void segment_values(int64_t j, int k, double xa, double ya, double xb, double yb,
                                  double cx, double cy, double charge, double dt, double dx,
                                  double dy, double inv_area, double (*R jx_values)[CHUNK],
                                  double (*R jy_values)[CHUNK])
{
    double fx = (charge * (xb - xa)) / dt;
    double fy = (charge * (yb - ya)) / dt;
    double wy = (0.5 * (ya + yb)) / dy - cy;
    double wx = (0.5 * (xa + xb)) / dx - cx;
    jx_values[k][j] = (fx * (1.0 - wy)) * inv_area;
    jx_values[k + 1][j] = (fx * wy) * inv_area;
    jy_values[k][j] = (fy * (1.0 - wx)) * inv_area;
    jy_values[k + 1][j] = (fy * wx) * inv_area;
}

/* The nodes of the same sub-segment: rows k and k + 1 of the jx and jy
 * node blocks. */
static inline void segment_nodes(int64_t j, int k, int64_t cx, int64_t cy, int64_t nx,
                                 int64_t ny, int64_t (*R jx_nodes)[CHUNK],
                                 int64_t (*R jy_nodes)[CHUNK])
{
    int64_t cxw = mod_int(cx, nx), row = mod_int(cy, ny) * nx;
    jx_nodes[k][j] = row + cxw;
    jx_nodes[k + 1][j] = mod_int(cy + 1, ny) * nx + cxw;
    jy_nodes[k][j] = row + cxw;
    jy_nodes[k + 1][j] = row + mod_int(cx + 1, nx);
}

/* The grid and step of a zigzag computation, with what it derives from them. */
struct zigzag_grid {
    double dt, lx, ly, dx, dy, hx, hy, lim_x, lim_y, inv_area;
    int64_t nx, ny;
};

static struct zigzag_grid zigzag_grid(double dt, double lx, double ly, double dx, double dy,
                                      int64_t nx, int64_t ny)
{
    struct zigzag_grid g = {dt,     lx,     ly,     dx,     dy,     lx / 2, ly / 2,
                            remainder_limit(lx), remainder_limit(ly), 1.0 / (dx * dy),
                            nx,     ny};
    return g;
}

/* zigzag_entries_numpy's validation of m particles: nonzero when a move is
 * NaN or not under one cell (NumPy then raises its ValueError), or a flag
 * was raised since the caller cleared them.  The shortest move along an
 * axis is np.mod(new - old + l / 2, l) - l / 2, computed as Python does.
 * A start that is not finite makes new - old + l / 2 not finite, which
 * remainder_of sets bad for; a charge that is not finite reaches a bin
 * through its first CIC weight, which is > 0, and the scatter's check of
 * the bins flags it. */
static int64_t moves_bad(int64_t m, const double *R x_old, const double *R y_old,
                         const double *R x_new, const double *R y_new,
                         const struct zigzag_grid *g)
{
    int64_t bad = 0;
    for (int64_t i = 0; i < m; i++) {
        double mx = remainder_of((x_new[i] - x_old[i]) + g->hx, g->lx, g->lim_x, &bad) - g->hx;
        double my = remainder_of((y_new[i] - y_old[i]) + g->hy, g->ly, g->lim_y, &bad) - g->hy;
        bad |= !(fabs(mx) < g->dx) | !(fabs(my) < g->dy);
    }
    return finish(bad) != OK;
}

/* zigzag_entries_numpy of m <= CHUNK particles whose moves passed
 * moves_bad: the (4, CHUNK) node and value blocks of jx and jy, in two
 * loops: the points, cells and nodes, then the values at vector width.
 * Nonzero: a value is not finite. */
static inline int64_t zigzag_chunk(int64_t m, const double *R x_old, const double *R y_old,
                                   const double *R x_new, const double *R y_new,
                                   const double *R q, const struct zigzag_grid *g,
                                   int64_t (*R jx_nodes)[CHUNK], double (*R jx_values)[CHUNK],
                                   int64_t (*R jy_nodes)[CHUNK], double (*R jy_values)[CHUNK])
{
    double dt = g->dt, lx = g->lx, ly = g->ly, dx = g->dx, dy = g->dy, hx = g->hx, hy = g->hy;
    double inv_area = g->inv_area;
    int64_t nx = g->nx, ny = g->ny, bad = 0;
    /* the start, relay and end points; the two cells */
    double x1[CHUNK], y1[CHUNK], xr[CHUNK], yr[CHUNK], x2[CHUNK], y2[CHUNK];
    double cell_x[2][CHUNK], cell_y[2][CHUNK];
    for (int64_t j = 0; j < m; j++) {
        double a1 = wrap(x_old[j], lx), b1 = wrap(y_old[j], ly);
        double a2 = a1 + (remainder_of((x_new[j] - x_old[j]) + hx, lx, g->lim_x, &bad) - hx);
        double b2 = b1 + (remainder_of((y_new[j] - y_old[j]) + hy, ly, g->lim_y, &bad) - hy);
        /* a1 in [0, lx): its cell is clipped to nx - 1 only; a2 is within
         * a cell of it, so its floor is -1 .. nx + 1 */
        int64_t c1x = floor_int(a1 / dx), c1y = floor_int(b1 / dy);
        c1x = c1x > nx - 1 ? nx - 1 : c1x;
        c1y = c1y > ny - 1 ? ny - 1 : c1y;
        int64_t c2x = floor_int(a2 / dx), c2y = floor_int(b2 / dy);
        /* Umeda's relay point: the face between the cells, or the midpoint.
         * A third to a half of the moves cross a face, so both are
         * computed and one is selected by a mask, not a branch. */
        double mid_x = 0.5 * (a1 + a2), face_x = (double)(c1x > c2x ? c1x : c2x) * dx;
        double mid_y = 0.5 * (b1 + b2), face_y = (double)(c1y > c2y ? c1y : c2y) * dy;
        x1[j] = a1, y1[j] = b1, x2[j] = a2, y2[j] = b2;
        xr[j] = pick(c1x != c2x, face_x, mid_x);
        yr[j] = pick(c1y != c2y, face_y, mid_y);
        cell_x[0][j] = (double)c1x, cell_y[0][j] = (double)c1y;
        cell_x[1][j] = (double)c2x, cell_y[1][j] = (double)c2y;
        segment_nodes(j, 0, c1x, c1y, nx, ny, jx_nodes, jy_nodes);
        segment_nodes(j, 2, c2x, c2y, nx, ny, jx_nodes, jy_nodes);
    }
    /* VECTORIZED: zigzag values */
    for (int64_t j = 0; j < m; j++) {
        segment_values(j, 0, x1[j], y1[j], xr[j], yr[j], cell_x[0][j], cell_y[0][j], q[j], dt, dx,
                       dy, inv_area, jx_values, jy_values);
        segment_values(j, 2, xr[j], yr[j], x2[j], y2[j], cell_x[1][j], cell_y[1][j], q[j], dt, dx,
                       dy, inv_area, jx_values, jy_values);
    }
    for (int r = 0; r < 4; r++)
        bad |= not_finite(jx_values[r], m) | not_finite(jy_values[r], m);
    return bad;
}

/* LSD radix sort of m non-negative keys, one byte a pass, through tmp (m
 * long): no data-dependent branch, about 4x faster than qsort or a shell
 * sort on the lists of a few dozen cells or vertices it gets. */
static void sort_ascending(int64_t *a, int64_t *tmp, int64_t m)
{
    int64_t bits = 0, *src = a, *dst = tmp;
    for (int64_t i = 0; i < m; i++)
        bits |= a[i];
    for (int shift = 0; shift < 64 && bits >> shift; shift += 8) {
        int64_t count[257] = {0}, *swap = src;
        for (int64_t i = 0; i < m; i++)
            count[((src[i] >> shift) & 255) + 1]++;
        for (int b = 0; b < 256; b++)
            count[b + 1] += count[b];
        for (int64_t i = 0; i < m; i++)
            dst[count[(src[i] >> shift) & 255]++] = src[i];
        src = dst;
        dst = swap;
    }
    if (src != a)
        memcpy(a, src, sizeof(int64_t) * (size_t)m);
}

/* Grid2D.cell_vertices of one cell id in [0, nx * ny), with one division. */
static void cell_vertices(int64_t cell, int64_t nx, int64_t ny, int64_t v[4])
{
    int64_t cy = cell / nx, cx = cell - cy * nx;
    int64_t row = cy * nx, row1 = cy + 1 == ny ? 0 : row + nx, cx1 = cx + 1 == nx ? 0 : cx + 1;
    v[0] = row + cx;
    v[1] = row + cx1;
    v[2] = row1 + cx;
    v[3] = row1 + cx1;
}

/* The tables of one ghost-slot pass (work, 5 * nnodes int64): a stamp table
 * over the cells and one over the nodes, one segment's distinct cells and
 * off-rank vertex keys, the sort's second buffer.  A table holds the
 * segment's stamp while it collects and -(id + 1) once its pairs or slots
 * are numbered, which no stamp equals. */
struct slot_tables {
    int64_t nx, ny, nnodes;
    const int64_t *owner;
    int64_t *cell_mark, *node_mark, *cells, *keys, *tmp;
};

static struct slot_tables slot_tables(int64_t nx, int64_t ny, const int64_t *owner, int64_t *work)
{
    int64_t nnodes = nx * ny;
    struct slot_tables t = {nx,   ny, nnodes, owner, work, work + nnodes, work + 2 * nnodes,
                            work + 3 * nnodes, work + 4 * nnodes};
    return t;
}

/* Whether rank segments counts[0 .. nranks) of n particles fit shards cut at
 * cuts whose first particles are starts (shards_fit both): none negative,
 * each shard's summing to its length; and owner[0 .. nnodes) none negative
 * and in no key the NumPy body would overflow int64 with: its largest is
 * ((top + 1) * (max owner + 1)) * nnodes - 1, top the last rank with any. */
static PLUMBING int segments_fit(int64_t nranks, const int64_t *counts, int64_t n,
                                 int64_t nshards, const int64_t *cuts, const int64_t *starts,
                                 int64_t *team, const int64_t *owner, int64_t nnodes)
{
    int64_t top = -1, max_owner = 0;
    if (!shards_fit(nshards, cuts, nranks, team) || !shards_fit(nshards, starts, n, team))
        return 0;
    for (int64_t s = 0; s < nshards; s++) {
        int64_t len = 0;
        for (int64_t r = cuts[s]; r < cuts[s + 1]; r++) {
            if (counts[r] < 0)
                return 0;
            len += counts[r];
            top = counts[r] ? r : top;
        }
        if (len != starts[s + 1] - starts[s])
            return 0;
    }
    for (int64_t v = 0; v < nnodes; v++) {
        if (owner[v] < 0)
            return 0;
        max_owner = owner[v] > max_owner ? owner[v] : max_owner;
    }
    return top < 0 || ((double)top + 1) * ((double)max_owner + 1) * (double)nnodes < 0x1p62;
}

/* Adds cell c to a segment's distinct cells in t->cells, m of them so far,
 * unless it bears the segment's stamp: how many there are then. */
static inline int64_t collect(struct slot_tables *t, int64_t c, int64_t stamp, int64_t m)
{
    if (t->cell_mark[c] != stamp) {
        t->cell_mark[c] = stamp;
        t->cells[m++] = c;
    }
    return m;
}

/* One segment's m distinct cells, collected in t->cells: sorts them and
 * numbers them 0, 1, ... (its pairs) in cell_mark, then collects the
 * distinct vertices of their cells that rank mine does not own, as owner *
 * nnodes + node keys, into t->keys, sorted: returns how many. */
static int64_t segment_keys(struct slot_tables *t, int64_t m, int64_t mine, int64_t stamp)
{
    int64_t q = 0, v[4];
    sort_ascending(t->cells, t->tmp, m);
    for (int64_t u = 0; u < m; u++) {
        int64_t c = t->cells[u];
        t->cell_mark[c] = -u - 1;
        cell_vertices(c, t->nx, t->ny, v);
        for (int j = 0; j < 4; j++)
            if (t->owner[v[j]] != mine && t->node_mark[v[j]] != stamp) {
                t->node_mark[v[j]] = stamp;
                t->keys[q++] = t->owner[v[j]] * t->nnodes + v[j];
            }
    }
    sort_ascending(t->keys, t->tmp, q);
    return q;
}

/* Numbers segment_keys' q keys as slots first, first + 1, ... of rank
 * (slot_ranks / slot_owners / slot_nodes) and, given dest, writes the four
 * destinations of each of the m cells there (m, 4): the node where rank
 * owns it, nnodes + its slot otherwise. */
static void segment_slots(struct slot_tables *t, int64_t m, int64_t q, int64_t first, int64_t rank,
                          int64_t *R slot_ranks, int64_t *R slot_owners, int64_t *R slot_nodes,
                          int64_t *R dest)
{
    int64_t nnodes = t->nnodes, v[4];
    for (int64_t u = 0; u < q; u++) {
        int64_t slot = first + u, owner = t->keys[u] / nnodes, node = t->keys[u] - owner * nnodes;
        t->node_mark[node] = -slot - 1;
        slot_ranks[slot] = rank;
        slot_owners[slot] = owner;
        slot_nodes[slot] = node;
    }
    for (int64_t u = 0; dest && u < m; u++) {
        cell_vertices(t->cells[u], t->nx, t->ny, v);
        for (int j = 0; j < 4; j++)
            dest[4 * u + j] = t->owner[v[j]] != rank ? nnodes - t->node_mark[v[j]] - 1 : v[j];
    }
}

/* Moves the slots of each shard down to follow the previous shard's, so all
 * are numbered 0, 1, ... in rank order as one shard would number them: shard
 * s numbered found[3 s] from per x starts[s] on, in the three rows of slots,
 * cap apart (given bins, with their four bins each).  Returns how many. */
static int64_t close_up(int64_t nshards, const int64_t *starts, int64_t per, const int64_t *found,
                        int64_t *slots, int64_t cap, double *bins)
{
    int64_t nslots = 0;
    for (int64_t s = 0; s < nshards; s++) {
        int64_t from = per * starts[s], size = found[3 * s];
        for (int row = 0; row < 3 && from != nslots; row++)
            memmove(slots + row * cap + nslots, slots + row * cap + from,
                    sizeof(int64_t) * (size_t)size);
        if (bins && from != nslots)
            memmove(bins + 4 * nslots, bins + 4 * from, sizeof(double) * 4 * (size_t)size);
        nslots += size;
    }
    return nslots;
}

/* Particles gather_push stages at a time: its fields and outputs, 11 rows
 * of PUSH_CHUNK doubles, stay in L1 (64 measured ~10 % slower). */
enum { PUSH_CHUNK = 256 };

/* Boris push arithmetic of m <= PUSH_CHUNK particles: fields ex .. bz, new
 * ux, uy, uz and the unwrapped x, y into rows 0 .. 4 of out.  Its own
 * function, so the restrict on the particle rows (which gather_push also
 * writes) holds here and the loop needs no run-time alias test to
 * vectorize. */

static CLONED PASS void push_chunk(int64_t m, const double *R x, const double *R y,
                                   const double *R ux, const double *R uy, const double *R uz,
                                   const double *R q, const double *R mass, const double *R ex,
                                   const double *R ey, const double *R ez, const double *R bx,
                                   const double *R by, const double *R bz, double dt,
                                   double (*R out)[PUSH_CHUNK])
{
    double half_dt = 0.5 * dt;
    /* VECTORIZED: gather_push arithmetic */
    for (int64_t i = 0; i < m; i++) {
        double qmdt2 = half_dt * q[i] / mass[i];
        /* half electric acceleration */
        double umx = ux[i] + qmdt2 * ex[i];
        double umy = uy[i] + qmdt2 * ey[i];
        double umz = uz[i] + qmdt2 * ez[i];
        /* magnetic rotation */
        double gamma_m = sqrt(((1.0 + umx * umx) + umy * umy) + umz * umz);
        double tx = qmdt2 * bx[i] / gamma_m;
        double ty = qmdt2 * by[i] / gamma_m;
        double tz = qmdt2 * bz[i] / gamma_m;
        double t2 = (tx * tx + ty * ty) + tz * tz;
        double sx = 2.0 * tx / (1.0 + t2);
        double sy = 2.0 * ty / (1.0 + t2);
        double sz = 2.0 * tz / (1.0 + t2);
        double upx = umx + (umy * tz - umz * ty);
        double upy = umy + (umz * tx - umx * tz);
        double upz = umz + (umx * ty - umy * tx);
        double uplusx = umx + (upy * sz - upz * sy);
        double uplusy = umy + (upz * sx - upx * sz);
        double uplusz = umz + (upx * sy - upy * sx);
        /* second half electric acceleration */
        double nux = uplusx + qmdt2 * ex[i];
        double nuy = uplusy + qmdt2 * ey[i];
        double nuz = uplusz + qmdt2 * ez[i];
        /* position update with the new momentum */
        double gamma = sqrt(((1.0 + nux * nux) + nuy * nuy) + nuz * nuz);
        out[0][i] = nux;
        out[1][i] = nuy;
        out[2][i] = nuz;
        out[3][i] = x[i] + dt * nux / gamma;
        out[4][i] = y[i] + dt * nuy / gamma;
    }
}

/* E and B at m particles from node_fields (nnodes, 8: a node's six
 * components, then two zeros), at the CIC nodes and weights of rows
 * (stride PUSH_CHUNK), into fields (6, PUSH_CHUNK).  A node's components
 * are adjacent, one 64-byte line, so each vertex adds all of them as one
 * vector: gather_from_node_values' (((0 + p0) + p1) + p2) + p3, per
 * component.  The component loop is kept a loop (not unrolled before the
 * vectorizer sees it), so that it, not the particle loop around it with a
 * gather per component, runs at vector width. */
static CLONED PASS void gather_chunk(int64_t m, const double *R node_fields,
                                     const int32_t (*R node)[PUSH_CHUNK],
                                     const double (*R weight)[PUSH_CHUNK],
                                     double (*R fields)[PUSH_CHUNK])
{
    for (int64_t j = 0; j < m; j++) {
        const double *R a0 = node_fields + 8 * (int64_t)node[0][j];
        const double *R a1 = node_fields + 8 * (int64_t)node[1][j];
        const double *R a2 = node_fields + 8 * (int64_t)node[2][j];
        const double *R a3 = node_fields + 8 * (int64_t)node[3][j];
        double w0 = weight[0][j], w1 = weight[1][j], w2 = weight[2][j], w3 = weight[3][j];
        double sum[8];
        /* VECTORIZED: interleaved sum */
#pragma GCC unroll 1
        for (int c = 0; c < 8; c++)
            sum[c] = (((0.0 + a0[c] * w0) + a1[c] * w1) + a2[c] * w2) + a3[c] * w3;
        for (int c = 0; c < 6; c++)
            fields[c][j] = sum[c];
    }
}

/* node_fields (nnodes, 8) from the six planes f0 .. f5: a node's six
 * components, then two zeros. */
static PASS void interleave(int64_t nnodes, const double *R f0, const double *R f1,
                            const double *R f2, const double *R f3, const double *R f4,
                            const double *R f5, double *R node_fields)
{
    for (int64_t k = 0; k < nnodes; k++) {
        double *R at = node_fields + 8 * k;
        at[0] = f0[k];
        at[1] = f1[k];
        at[2] = f2[k];
        at[3] = f3[k];
        at[4] = f4[k];
        at[5] = f5[k];
        at[6] = at[7] = 0.0;
    }
}

/* E and B at m <= PUSH_CHUNK particles on the Yee stencils, from
 * node_fields (nnodes, 8) into fields (6, PUSH_CHUNK), and the first vertex
 * of each of the four stencils into rows stride apart of cells: the modern
 * stepper's staggered gather.  Per axis the two shifts (none, half a cell)
 * go through cic_axis on coords - shift * d, a stencil's weights are CIC's,
 * and each component is interpolate's ncomp == 1 sum, as the NumPy body
 * gathers one component at a time.  Nonzero: a position is NaN or too
 * large to cast. */
static PASS int64_t yee_chunk(int64_t m, const double *R x, const double *R y, double lx,
                              double ly, double dx, double dy, int64_t nx, int64_t ny,
                              const double *R node_fields, double (*R fields)[PUSH_CHUNK],
                              int64_t *R cells, int64_t stride)
{
    /* the stencil of each component (ex, ey, ez, bx, by, bz) as its x and
     * y shift (0: none, 1: half a cell); the cells rows in stencil order */
    static const int shift_x[6] = {1, 0, 0, 0, 1, 1}, shift_y[6] = {0, 1, 0, 1, 0, 1};
    static const int cell_of_stencil[4][2] = {{1, 0}, {0, 1}, {0, 0}, {1, 1}};
    double shifts_x[2] = {0.0, 0.5 * dx}, shifts_y[2] = {0.0, 0.5 * dy};
    int64_t bad = 0;
    for (int64_t j = 0; j < m; j++) {
        int64_t cx[2], cx1[2], cy[2], cy1[2];
        double tx[2], ty[2];
        for (int s = 0; s < 2; s++) {
            bad |= cic_axis(x[j] - shifts_x[s], lx, dx, nx, cx + s, cx1 + s, tx + s);
            bad |= cic_axis(y[j] - shifts_y[s], ly, dy, ny, cy + s, cy1 + s, ty + s);
        }
        for (int k = 0; k < 4; k++)
            cells[k * stride + j] = cy[cell_of_stencil[k][1]] * nx + cx[cell_of_stencil[k][0]];
        for (int c = 0; c < 6; c++) {
            int sx = shift_x[c], sy = shift_y[c];
            int64_t left = cx[sx], right = cx1[sx], row = cy[sy] * nx, row1 = cy1[sy] * nx;
            double wx = tx[sx], wy = ty[sy], ux = 1.0 - wx, uy = 1.0 - wy;
            const double *v = node_fields + c;
            double even = (0.0 + v[8 * (row + left)] * (ux * uy)) + v[8 * (row1 + left)] * (ux * wy);
            double odd = (0.0 + v[8 * (row + right)] * (wx * uy)) + v[8 * (row1 + right)] * (wx * wy);
            fields[c][j] = (even + odd) + 0.0;
        }
    }
    return bad;
}

/* One gather_push call, as its shards read it. */
struct push_args {
    double *x, *y, *ux, *uy, *uz, *node_fields;
    const double *q, *mass, *planes[6];
    double dt, lx, ly, dx, dy;
    int64_t nx, ny, n, work_stride, slot_cap, nshards;
    const int64_t *counts, *node_owner, *cuts, *starts;
    int64_t *cells, *work, *slots, *out;
};

/* The most slots a particle numbers: the four vertices of each of its cells,
 * three in the modern scatter, four stencil cells in the Yee gather. */
enum { YEE_SLOTS = 12, STENCIL_SLOTS = 16 };

/* The request slots of shard s of a gather_push on the Yee stencils: per
 * rank segment, the distinct off-rank vertices of its stencil cells (rows
 * of cells), numbered as the scatter numbers a segment's from STENCIL_SLOTS
 * x the shard's first particle on, in its own row of work: how many. */
static PASS int64_t stencil_slots(const struct push_args *a, int64_t s)
{
    int64_t cap = a->slot_cap, *slots = a->slots, first = STENCIL_SLOTS * a->starts[s];
    int64_t nslots = first;
    struct slot_tables t = slot_tables(a->nx, a->ny, a->node_owner, a->work + s * a->work_stride);
    memset(t.cell_mark, 0, sizeof(int64_t) * 2 * (size_t)t.nnodes);
    for (int64_t r = a->cuts[s], i0 = a->starts[s], stamp = 1; r < a->cuts[s + 1];
         i0 += a->counts[r], r++, stamp++) {
        int64_t m = 0;
        for (int k = 0; k < 4; k++)
            for (int64_t i = i0; i < i0 + a->counts[r]; i++)
                m = collect(&t, a->cells[k * a->n + i], stamp, m);
        int64_t q = segment_keys(&t, m, r, stamp);
        segment_slots(&t, m, q, nslots, r, slots, slots + cap, slots + 2 * cap, NULL);
        nslots += q;
    }
    return nslots - first;
}

/* Part s of the interleave of a gather_push cut into k shards: nodes s
 * nnodes / k .. (s + 1) nnodes / k, so that every thread of the team copies
 * a part of the mesh before any of them gathers from it. */
static PASS void interleave_part(const void *args, int64_t s)
{
    const struct push_args *a = args;
    int64_t nnodes = a->nx * a->ny, k = a->nshards, lo = s * nnodes / k, hi = (s + 1) * nnodes / k;
    const double *const *f = a->planes;
    interleave(hi - lo, f[0] + lo, f[1] + lo, f[2] + lo, f[3] + lo, f[4] + lo, f[5] + lo,
               a->node_fields + 8 * lo);
}

/* Particles start .. end of a gather_push, PUSH_CHUNK at a time, each
 * chunk written over the particles' only once it is clean: how many were
 * written, from the first (it stops at the first chunk that is not).  The
 * fields are gathered from node_fields at the CIC or, without node_fields,
 * read from the six rows planes (yee_push_shard's, of one chunk).
 * Float flags are per thread and sticky, so one clearing serves every
 * chunk.  The arguments come as parameters, not through push_args: read
 * through a struct, every store to a particle row could alias them, and
 * the pass measured 5-7 % slower, also with the struct's fields copied
 * into restrict locals. */
static PASS int64_t push_range(int64_t start, int64_t end, double *R x, double *R y,
                               double *R ux, double *R uy, double *R uz, const double *R q,
                               const double *R mass, const double *R node_fields,
                               const double *const *planes, double dt, double lx, double ly,
                               double dx, double dy, int64_t nx, int64_t ny)
{
    double fields[6][PUSH_CHUNK], out[5][PUSH_CHUNK], weight[4][PUSH_CHUNK];
    int32_t node[4][PUSH_CHUNK];
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t i0 = start; i0 < end; i0 += PUSH_CHUNK) {
        int64_t m = end - i0 < PUSH_CHUNK ? end - i0 : PUSH_CHUNK, bad = 0;
        const double *f[6];
        if (node_fields) {
            struct cic_rows rows = {{node[0], node[1], node[2], node[3]},
                                    {weight[0], weight[1], weight[2], weight[3]}};
            bad |= cic_into(m, x + i0, y + i0, lx, ly, dx, dy, nx, ny, rows);
            gather_chunk(m, node_fields, node, weight, fields);
            for (int c = 0; c < 6; c++) {
                bad |= not_finite(fields[c], m);
                f[c] = fields[c];
            }
        } else {
            for (int c = 0; c < 6; c++)
                f[c] = planes[c] + i0;
        }
        push_chunk(m, x + i0, y + i0, ux + i0, uy + i0, uz + i0, q + i0, mass + i0, f[0], f[1],
                   f[2], f[3], f[4], f[5], dt, out);
        wrap_all(m, out[3], lx);
        wrap_all(m, out[4], ly);
        /* A NaN momentum, charge, mass or dt goes through the push quietly
         * and makes both positions NaN; wrap's v >= 0 raises FE_INVALID on
         * it where the compiler makes relational comparisons signal (GCC's
         * comisd), not where they are quiet (clang's ucomisd): this does. */
        for (int r = 0; r < 5; r++)
            bad |= not_finite(out[r], m);
        if (finish(bad) != OK)
            return i0 - start;
        double *rows[5] = {ux, uy, uz, x, y};
        for (int r = 0; r < 5; r++)
            memcpy(rows[r] + i0, out[r], sizeof(double) * (size_t)m);
    }
    return end - start;
}

/* Shard s of a gather_push: particles starts[s] .. starts[s + 1]; out[3 s]
 * is how many push_range wrote, out[3 s + 1] the nanoseconds it took. */
static PASS void push_shard(const void *args, int64_t s)
{
    const struct push_args *a = args;
    int64_t t0 = now_ns();
    a->out[3 * s] = push_range(a->starts[s], a->starts[s + 1], a->x, a->y, a->ux, a->uy, a->uz,
                               a->q, a->mass, a->node_fields, a->planes, a->dt, a->lx, a->ly,
                               a->dx, a->dy, a->nx, a->ny);
    a->out[3 * s + 1] = now_ns() - t0;
}

/* Shard s of a gather_push on the Yee stencils, as push_shard: PUSH_CHUNK
 * particles at a time, their fields and stencil cells by yee_chunk, then,
 * if those are clean, push_range on that one chunk with its fields given;
 * once every chunk is pushed, out[3 s + 2] is how many request slots
 * stencil_slots numbered. */
static PASS void yee_push_shard(const void *args, int64_t s)
{
    const struct push_args *a = args;
    int64_t t0 = now_ns(), start = a->starts[s], end = a->starts[s + 1], i0 = start, done = 0;
    double fields[6][PUSH_CHUNK];
    const double *rows[6] = {fields[0], fields[1], fields[2], fields[3], fields[4], fields[5]};
    for (; i0 < end && done == i0 - start; i0 += PUSH_CHUNK) {
        int64_t m = end - i0 < PUSH_CHUNK ? end - i0 : PUSH_CHUNK;
        feclearexcept(FE_ALL_EXCEPT);
        int64_t bad = yee_chunk(m, a->x + i0, a->y + i0, a->lx, a->ly, a->dx, a->dy, a->nx, a->ny,
                                a->node_fields, fields, a->cells + i0, a->n);
        for (int c = 0; c < 6; c++)
            bad |= not_finite(fields[c], m);
        if (finish(bad) == OK)
            done += push_range(0, m, a->x + i0, a->y + i0, a->ux + i0, a->uy + i0, a->uz + i0,
                               a->q + i0, a->mass + i0, NULL, rows, a->dt, a->lx, a->ly, a->dx,
                               a->dy, a->nx, a->ny);
    }
    a->out[3 * s] = done;
    a->out[3 * s + 2] = done == end - start ? stencil_slots(a, s) : 0;
    a->out[3 * s + 1] = now_ns() - t0;
}

/* gather_push_slice after its validation, in place: the fields at each of n
 * particles, then boris_push.  f0 .. f5 are the six (ny, nx) planes of E
 * and B: the pass first copies them into node_fields (nnodes, 8), a node's
 * six components and two zeros (with a team, each thread copies a part,
 * interleave_part, before any shard starts), and a particle's fields are
 * gather_from_node_values' from that block at its CIC (cic_into's floats,
 * from the positions before the push) -- or, given cells (4, n), the modern
 * stepper's staggered gather from it, with each particle's four stencil
 * cells written there (yee_chunk).  The particles are cut into nshards
 * shards at starts (nshards + 1 ascending offsets from 0 to n), run by team
 * (NULL: the calling thread, in order); out (nshards, 3) gets push_shard's
 * count and nanoseconds of each.  A shard whose count falls short of its
 * length stopped at a chunk that raised a flag or went non-finite
 * (FLAGGED); the caller runs the NumPy body on the rest of that shard:
 * every particle is independent, so that is the NumPy body's bytes and the
 * warnings it raises over all n (the particles written raised nothing).
 *
 * Given cells, the particles are rank segments counts[0 .. nranks) cut at
 * ranks cuts, and each shard numbers its request slots (stencil_slots, in a
 * row of work, 5 * nnodes int64, work_stride apart) into slots (3,
 * slot_cap >= STENCIL_SLOTS n): on OK, out[3 s + 2] of shard s, moved to
 * follow one another (close_up).  DECLINED, nothing written: no node_fields,
 * a grid of 2^31 nodes or more, starts that do not fit, or, given cells, a
 * slot_cap too small or segments_fit's.
 *
 * The team's own calls come here too, with no particles and no node_fields:
 * n = -s < 0 is helper s of team, which serves the team's fan-outs and
 * returns once dismissed (repro.parallel_exec starts one thread per helper
 * in such a call); n = 0 dismisses every helper of team. */
int gather_push(int64_t n, double *R x, double *R y, double *R ux, double *R uy, double *R uz,
                const double *R q, const double *R mass, double *R node_fields,
                const double *R f0, const double *R f1, const double *R f2, const double *R f3,
                const double *R f4, const double *R f5, double dt, double lx, double ly,
                double dx, double dy, int64_t nx, int64_t ny, int64_t *R cells, int64_t nranks,
                const int64_t *R counts, const int64_t *R owner, int64_t *R work,
                int64_t work_stride, int64_t *R slots, int64_t slot_cap, int64_t nshards,
                const int64_t *R cuts, const int64_t *R starts, int64_t *team, int64_t *R out)
{
    if (team && !x && !node_fields)
        return n < 0 ? serve(team, -n) : dismiss(team);
    int64_t nnodes = nx * ny;
    if (!node_fields || nnodes > INT32_MAX ||
        !(cells ? slot_cap >= STENCIL_SLOTS * n &&
                      segments_fit(nranks, counts, n, nshards, cuts, starts, team, owner, nnodes)
                : shards_fit(nshards, starts, n, team)))
        return DECLINED;
    struct push_args a = {x,  y,  ux, uy, uz, node_fields, q, mass, {f0, f1, f2, f3, f4, f5}, dt,
                          lx, ly, dx, dy, nx, ny, n, work_stride, slot_cap, nshards, counts,
                          owner, cuts, starts, cells, work, slots, out};
    fan_out(team, nshards, interleave_part, &a);
    fan_out(team, nshards, cells ? yee_push_shard : push_shard, &a);
    for (int64_t s = 0; s < nshards; s++)
        if (out[3 * s] < starts[s + 1] - starts[s])
            return FLAGGED;
    if (cells)
        close_up(nshards, starts, STENCIL_SLOTS, out + 2, slots, slot_cap, NULL);
    return OK;
}

/* The mesh stencils: MaxwellSolver._step_numpy and binomial_smooth_numpy
 * on periodic (ny, nx) planes, nx, ny >= 3.  Each row runs its interior
 * columns x = 1 .. nx - 2 as a unit-stride loop, so it runs at vector
 * width, then its two wrap columns; a node's arguments
 * are its own index i, its x neighbours xm / xp and its y neighbours ym / yp
 * (pic/maxwell.py's np.roll(a, -1) is the +1 neighbour).  Every value is
 * the NumPy body's: a centred difference is (a[+1] - a[-1]) / (2 d), and
 * each update takes its operands in the order the NumPy expression does.
 * The passes are not inlined into field_step, whose planes all lie in one
 * work block: in a function of their own the restrict on their parameters
 * holds, and the row loops need no run-time alias test to vectorize. */

/* The offsets of rows y - 1 and y + 1 of a periodic (ny, nx) plane. */
static inline int64_t row_below(int64_t y, int64_t ny, int64_t nx)
{
    return (y == 0 ? ny - 1 : y - 1) * nx;
}

static inline int64_t row_above(int64_t y, int64_t ny, int64_t nx)
{
    return (y + 1 == ny ? 0 : y + 1) * nx;
}

/* b -= (0.5 dt) curl(e), at one node; two_dx = 2 dx, two_dy = 2 dy. */
static inline void b_node(int64_t i, int64_t xm, int64_t xp, int64_t ym, int64_t yp, double h,
                          double two_dx, double two_dy, const double *R ex,
                          const double *R ey, const double *R ez, double *R bx,
                          double *R by, double *R bz)
{
    double cx = (ez[yp] - ez[ym]) / two_dy;
    double cy = -((ez[xp] - ez[xm]) / two_dx);
    double cz = (ey[xp] - ey[xm]) / two_dx - (ex[yp] - ex[ym]) / two_dy;
    bx[i] = bx[i] - h * cx;
    by[i] = by[i] - h * cy;
    bz[i] = bz[i] - h * cz;
}

static PASS void b_half_step(int64_t ny, int64_t nx, double h, double two_dx, double two_dy,
                             const double *R ex, const double *R ey, const double *R ez,
                             double *R bx, double *R by, double *R bz)
{
    for (int64_t y = 0; y < ny; y++) {
        int64_t r = y * nx, dn = row_below(y, ny, nx), up = row_above(y, ny, nx);
        /* VECTORIZED: field_step B half step */
        for (int64_t x = 1; x < nx - 1; x++)
            b_node(r + x, r + x - 1, r + x + 1, dn + x, up + x, h, two_dx, two_dy, ex, ey, ez,
                   bx, by, bz);
        b_node(r, r + nx - 1, r + 1, dn, up, h, two_dx, two_dy, ex, ey, ez, bx, by, bz);
        b_node(r + nx - 1, r + nx - 2, r, dn + nx - 1, up + nx - 1, h, two_dx, two_dy, ex, ey,
               ez, bx, by, bz);
    }
}

/* e += dt (curl(b) - (j - mean j)), at one node. */
static inline void e_node(int64_t i, int64_t xm, int64_t xp, int64_t ym, int64_t yp, double dt,
                          double two_dx, double two_dy, const double *R bx,
                          const double *R by, const double *R bz, const double *R jx,
                          const double *R jy, const double *R jz, double mx, double my,
                          double mz, double *R ex, double *R ey, double *R ez)
{
    double cx = (bz[yp] - bz[ym]) / two_dy;
    double cy = -((bz[xp] - bz[xm]) / two_dx);
    double cz = (by[xp] - by[xm]) / two_dx - (bx[yp] - bx[ym]) / two_dy;
    ex[i] = ex[i] + dt * (cx - (jx[i] - mx));
    ey[i] = ey[i] + dt * (cy - (jy[i] - my));
    ez[i] = ez[i] + dt * (cz - (jz[i] - mz));
}

static PASS void e_step(int64_t ny, int64_t nx, double dt, double two_dx, double two_dy,
                        const double *R bx, const double *R by, const double *R bz,
                        const double *R jx, const double *R jy, const double *R jz,
                        const double *R mean, double *R ex, double *R ey, double *R ez)
{
    double mx = mean[0], my = mean[1], mz = mean[2];
    for (int64_t y = 0; y < ny; y++) {
        int64_t r = y * nx, dn = row_below(y, ny, nx), up = row_above(y, ny, nx);
        /* VECTORIZED: field_step E step */
        for (int64_t x = 1; x < nx - 1; x++)
            e_node(r + x, r + x - 1, r + x + 1, dn + x, up + x, dt, two_dx, two_dy, bx, by, bz,
                   jx, jy, jz, mx, my, mz, ex, ey, ez);
        e_node(r, r + nx - 1, r + 1, dn, up, dt, two_dx, two_dy, bx, by, bz, jx, jy, jz, mx, my,
               mz, ex, ey, ez);
        e_node(r + nx - 1, r + nx - 2, r, dn + nx - 1, up + nx - 1, dt, two_dx, two_dy, bx, by,
               bz, jx, jy, jz, mx, my, mz, ex, ey, ez);
    }
}

/* MaxwellSolver.gauss_residual at one node: div e - (rho - mean rho). */
static inline double residual_node(int64_t i, int64_t xm, int64_t xp, int64_t ym, int64_t yp,
                                   double two_dx, double two_dy, const double *R ex,
                                   const double *R ey, const double *R rho, double mean_rho)
{
    return ((ex[xp] - ex[xm]) / two_dx + (ey[yp] - ey[ym]) / two_dy) - (rho[i] - mean_rho);
}

/* One Marder pass in place: res = the Gauss residual of e, then
 * e += (d dt) grad(res); scale is d * dt, as Python computed it. */
static PASS void marder_pass(int64_t ny, int64_t nx, double scale, double two_dx,
                             double two_dy, const double *R rho, double mean_rho, double *R res,
                             double *R ex, double *R ey)
{
    for (int64_t y = 0; y < ny; y++) {
        int64_t r = y * nx, dn = row_below(y, ny, nx), up = row_above(y, ny, nx);
        /* VECTORIZED: field_step Marder residual */
        for (int64_t x = 1; x < nx - 1; x++)
            res[r + x] = residual_node(r + x, r + x - 1, r + x + 1, dn + x, up + x, two_dx,
                                       two_dy, ex, ey, rho, mean_rho);
        res[r] = residual_node(r, r + nx - 1, r + 1, dn, up, two_dx, two_dy, ex, ey, rho,
                               mean_rho);
        res[r + nx - 1] = residual_node(r + nx - 1, r + nx - 2, r, dn + nx - 1, up + nx - 1,
                                        two_dx, two_dy, ex, ey, rho, mean_rho);
    }
    for (int64_t y = 0; y < ny; y++) {
        int64_t r = y * nx, dn = row_below(y, ny, nx), up = row_above(y, ny, nx);
        /* VECTORIZED: field_step Marder update */
        for (int64_t x = 1; x < nx - 1; x++) {
            ex[r + x] = ex[r + x] + scale * ((res[r + x + 1] - res[r + x - 1]) / two_dx);
            ey[r + x] = ey[r + x] + scale * ((res[up + x] - res[dn + x]) / two_dy);
        }
        ex[r] = ex[r] + scale * ((res[r + 1] - res[r + nx - 1]) / two_dx);
        ey[r] = ey[r] + scale * ((res[up] - res[dn]) / two_dy);
        ex[r + nx - 1] = ex[r + nx - 1] + scale * ((res[r] - res[r + nx - 2]) / two_dx);
        ey[r + nx - 1] = ey[r + nx - 1] + scale * ((res[up + nx - 1] - res[dn + nx - 1]) / two_dy);
    }
}

/* MaxwellSolver._step_numpy after its validation: the leapfrog step, then
 * one Marder pass.  e and b are the three (ny, nx) planes of E and of B, j
 * the three of J; mean holds the means of jx, jy, jz and rho.  The new E
 * and B are computed in work (7 planes) and copied into e and b only when
 * the whole step is OK: on anything else they are as they were. */
int field_step(int64_t ny, int64_t nx, double *ex, double *ey, double *ez, double *bx,
               double *by, double *bz, const double *jx, const double *jy, const double *jz,
               const double *rho, const double *R mean, double dx, double dy, double dt,
               double marder_scale, double *R work)
{
    int64_t nnodes = nx * ny;
    size_t plane = sizeof(double) * (size_t)nnodes;
    double *wex = work, *wey = work + nnodes, *wez = work + 2 * nnodes;
    double *wbx = work + 3 * nnodes, *wby = work + 4 * nnodes, *wbz = work + 5 * nnodes;
    double *res = work + 6 * nnodes;
    double h = 0.5 * dt, two_dx = 2.0 * dx, two_dy = 2.0 * dy;
    memcpy(wex, ex, plane);
    memcpy(wey, ey, plane);
    memcpy(wez, ez, plane);
    memcpy(wbx, bx, plane);
    memcpy(wby, by, plane);
    memcpy(wbz, bz, plane);
    feclearexcept(FE_ALL_EXCEPT);
    b_half_step(ny, nx, h, two_dx, two_dy, ex, ey, ez, wbx, wby, wbz);
    e_step(ny, nx, dt, two_dx, two_dy, wbx, wby, wbz, jx, jy, jz, mean, wex, wey, wez);
    b_half_step(ny, nx, h, two_dx, two_dy, wex, wey, wez, wbx, wby, wbz);
    marder_pass(ny, nx, marder_scale, two_dx, two_dy, rho, mean[3], res, wex, wey);
    if (finish(not_finite(work, 6 * nnodes)) != OK)
        return FLAGGED;
    memcpy(ex, wex, plane);
    memcpy(ey, wey, plane);
    memcpy(ez, wez, plane);
    memcpy(bx, wbx, plane);
    memcpy(by, wby, plane);
    memcpy(bz, wbz, plane);
    return OK;
}

/* The row pass of binomial_smooth_numpy on one row: 0.25 * ((in[x - 1] +
 * 2.0 * in[x]) + in[x + 1]). */
static PASS void smooth_row(int64_t nx, const double *R in, double *R s)
{
    /* VECTORIZED: smooth rows */
    for (int64_t x = 1; x < nx - 1; x++)
        s[x] = 0.25 * ((in[x - 1] + 2.0 * in[x]) + in[x + 1]);
    s[0] = 0.25 * ((in[nx - 1] + 2.0 * in[0]) + in[1]);
    s[nx - 1] = 0.25 * ((in[nx - 2] + 2.0 * in[nx - 1]) + in[0]);
}

/* The column pass on one row, from the row passes of rows y - 1, y, y + 1. */
static PASS void smooth_column(int64_t nx, const double *R dn, const double *R mid,
                               const double *R up, double *R o)
{
    /* VECTORIZED: smooth columns */
    for (int64_t x = 0; x < nx; x++)
        o[x] = 0.25 * ((dn[x] + 2.0 * mid[x]) + up[x]);
}

/* binomial_smooth_numpy of the k (ny, nx) planes of a into out: per plane,
 * along each row, then along each column.  rows holds three row-pass rows
 * (3 * nx), rotated down the plane; rows 0 and ny - 1 of the row pass are
 * computed twice, with the same bits and flags. */
int smooth(int64_t k, int64_t ny, int64_t nx, const double *R a, double *R rows, double *R out)
{
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t plane = 0; plane < k * ny * nx; plane += ny * nx) {
        const double *in = a + plane;
        double *dn = rows, *mid = rows + nx, *up = rows + 2 * nx;
        smooth_row(nx, in + row_below(0, ny, nx), dn);
        smooth_row(nx, in, mid);
        for (int64_t y = 0; y < ny; y++) {
            double *done = dn;
            smooth_row(nx, in + row_above(y, ny, nx), up);
            smooth_column(nx, dn, mid, up, out + plane + y * nx);
            dn = mid;
            mid = up;
            up = done;
        }
    }
    return finish(not_finite(out, k * ny * nx));
}

/* deposit's per-particle values of m particles: w q (1, ux, uy, uz) /
 * gamma, as deposit rounds them, four a particle in values (m, 4). */
static CLONED PASS void deposit_values(int64_t m, const double *R ux, const double *R uy,
                                       const double *R uz, const double *R q, const double *R w,
                                       double *R values)
{
    /* VECTORIZED: deposit values */
    for (int64_t i = 0; i < m; i++) {
        double inv_gamma = 1.0 / sqrt(((1.0 + ux[i] * ux[i]) + uy[i] * uy[i]) + uz[i] * uz[i]);
        double charge = w[i] * q[i];
        values[4 * i] = charge;
        values[4 * i + 1] = (charge * ux[i]) * inv_gamma;
        values[4 * i + 2] = (charge * uy[i]) * inv_gamma;
        values[4 * i + 3] = (charge * uz[i]) * inv_gamma;
    }
}

/* deposit's adds for the m particles of one segment, in their order: the
 * four values of particle i times the weight of vertex v (row v of weight,
 * m long) into the four channels of destination dest[4 pair + v], pair
 * being its cell's (cell_mark), in bins (destination, 4).  The channels of
 * a destination are adjacent, so each vertex is one 4-wide add.  Returns
 * the ghost entries, off[pair] a particle. */
static CLONED PASS int64_t deposit_segment(int64_t m, const double *R values,
                                           const double *R weight, const int32_t *R cell,
                                           const int64_t *R cell_mark, const int64_t *R dest,
                                           const int64_t *R off, double *R bins)
{
    int64_t entries = 0;
    for (int64_t i = 0; i < m; i++) {
        int64_t pair = -cell_mark[cell[i]] - 1;
        const int64_t *to = dest + 4 * pair;
        const double *per = values + 4 * i;
        for (int v = 0; v < 4; v++) {
            double wv = weight[v * m + i], *bin = bins + 4 * to[v], sum[4];
            for (int c = 0; c < 4; c++)
                sum[c] = bin[c] + per[c] * wv;
            for (int c = 0; c < 4; c++)
                bin[c] = sum[c];
        }
        entries += off[pair];
    }
    return entries;
}

/* One scatter call, as its shards read it. */
struct scatter_args {
    const int64_t *counts, *cuts, *starts, *node_owner;
    const double *x, *y, *ux, *uy, *uz, *q, *w, *x_old, *y_old;
    double dt, lx, ly, dx, dy;
    int64_t nranks, nx, ny, work_stride, staged_stride, slot_cap;
    int64_t *work, *slots, *tallies, *out;
    double *staged, *bins;
};

/* Shard s of a scatter: its rank segments cuts[s] .. cuts[s + 1], one at a
 * time, in its own rows of work and staged.  Its slots are numbered from 4
 * x its first particle on (no shard has more than 4 a particle, so the
 * shards' regions of slots and of the slot bins are disjoint); its on-rank
 * adds go to the nodes its ranks own, which no other shard's do.  out[3 s]
 * is how many slots it numbered, out[3 s + 1] the nanoseconds it took,
 * out[3 s + 2] its finish(). */
static PASS void scatter_shard(const void *args, int64_t s)
{
    const struct scatter_args *a = args;
    int64_t t0 = now_ns(), nx = a->nx, ny = a->ny, nnodes = nx * ny, bad = 0;
    int64_t *work = a->work + s * a->work_stride, *slots = a->slots, cap = a->slot_cap;
    struct slot_tables t = slot_tables(nx, ny, a->node_owner, work);
    int64_t *R dest = work + 5 * nnodes, *R off = work + 9 * nnodes;
    int32_t *R node = (int32_t *)(work + 10 * nnodes);
    int64_t start = a->starts[s], nslots = 4 * start;
    double *bins = a->bins, *staged = a->staged + s * a->staged_stride;
    memset(work, 0, sizeof(int64_t) * 2 * (size_t)nnodes);
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t r = a->cuts[s], i0 = start, stamp = 1; r < a->cuts[s + 1];
         i0 += a->counts[r], r++, stamp++) {
        int64_t len = a->counts[r], m = 0;
        double *R weight = staged, *R values = staged + 4 * len;
        struct cic_rows rows = {{node, node + len, node + 2 * len, node + 3 * len},
                                {weight, weight + len, weight + 2 * len, weight + 3 * len}};
        bad |= cic_into(len, a->x + i0, a->y + i0, a->lx, a->ly, a->dx, a->dy, nx, ny, rows);
        for (int64_t i = 0; i < len; i++)
            m = collect(&t, node[i], stamp, m);
        int64_t nq = segment_keys(&t, m, r, stamp);
        segment_slots(&t, m, nq, nslots, r, slots, slots + cap, slots + 2 * cap, dest);
        for (int64_t u = 0; u < m; u++)
            off[u] = (dest[4 * u] >= nnodes) + (dest[4 * u + 1] >= nnodes) +
                     (dest[4 * u + 2] >= nnodes) + (dest[4 * u + 3] >= nnodes);
        memset(bins + 4 * (nnodes + nslots), 0, sizeof(double) * 4 * (size_t)nq);
        deposit_values(len, a->ux + i0, a->uy + i0, a->uz + i0, a->q + i0, a->w + i0, values);
        a->tallies[r] = deposit_segment(len, values, weight, node, t.cell_mark, dest, off, bins);
        a->tallies[a->nranks + r] = nq;
        nslots += nq;
    }
    a->out[3 * s] = nslots - 4 * start;
    a->out[3 * s + 2] = finish(bad);
    a->out[3 * s + 1] = now_ns() - t0;
}

/* The modern scatter's CIC values of m particles of charge w q, in the
 * channel order of its bins (jx, jy, jz, rho): 0, 0, w q uz / gamma, w q,
 * as deposition_entries rounds them, four a particle in values (m, 4).
 * Adding a zero leaves a current's bin as it was: a bin starts at +0.0, and
 * a sum of doubles from there is never -0.0. */
static PASS void yee_values(int64_t m, const double *R ux, const double *R uy,
                            const double *R uz, const double *R charge, double *R values)
{
    for (int64_t i = 0; i < m; i++) {
        double inv_gamma = 1.0 / sqrt(((1.0 + ux[i] * ux[i]) + uy[i] * uy[i]) + uz[i] * uz[i]);
        values[4 * i] = 0.0;
        values[4 * i + 1] = 0.0;
        values[4 * i + 2] = (charge[i] * uz[i]) * inv_gamma;
        values[4 * i + 3] = charge[i];
    }
}

/* The zigzag entries of the m particles of one segment into the jx and jy
 * channels (0 and 1) of bins (destination, 4): entry i of row r of the jx
 * rows (zz's first four, m long each) and of the jy rows (its last four)
 * goes to vertex JX_VERTICES[r] / JY_VERTICES[r] of the pair of its
 * sub-segment's cell (row r / 2 of cell), row by row and in particle order
 * inside a row: deposit_zigzag_entries' bincount order. */
static PASS void zigzag_segment(int64_t m, const double *R zz, const int32_t *R cell,
                                const int64_t *R cell_mark, const int64_t *R dest, double *R bins)
{
    static const int jx_vertex[4] = {0, 2, 0, 2}, jy_vertex[4] = {0, 1, 0, 1};
    for (int r = 0; r < 4; r++) {
        const int32_t *R c = cell + (r / 2) * m;
        const double *R jx = zz + r * m, *R jy = zz + (4 + r) * m;
        for (int64_t i = 0; i < m; i++) {
            const int64_t *to = dest + 4 * (-cell_mark[c[i]] - 1);
            bins[4 * to[jx_vertex[r]]] += jx[i];
            bins[4 * to[jy_vertex[r]] + 1] += jy[i];
        }
    }
}

/* Shard s of the modern scatter, as scatter_shard with three cells a
 * particle: each segment's charges w q, then its moves checked (moves_bad:
 * a bad one ends the shard FLAGGED, for the NumPy body to raise), its CIC
 * at x, y and its zigzag entries from x_old, y_old to x, y (zigzag_chunk,
 * CHUNK particles at a time, into staged rows); the cells of both
 * sub-segments and the CIC cell are stamped and numbered into pairs and
 * slots (segment_keys, segment_slots), the zigzag entries added
 * (zigzag_segment), then the CIC ones (deposit_segment of yee_values).
 * Then each of the segment's slots has its currents scaled by the cell
 * area, (v dx) dy + 0.0, and is dropped when it is no vertex of a CIC pair
 * and both its currents are zero (the NumPy body's nonzero filter); the
 * slots kept move down to follow one another.  Its slots are numbered from
 * YEE_SLOTS x its first particle on. */
static PASS void yee_shard(const void *args, int64_t s)
{
    const struct scatter_args *a = args;
    int64_t t0 = now_ns(), nx = a->nx, ny = a->ny, nnodes = nx * ny, bad = 0;
    int64_t *work = a->work + s * a->work_stride, *slots = a->slots, cap = a->slot_cap;
    struct slot_tables t = slot_tables(nx, ny, a->node_owner, work);
    int64_t *R dest = work + 5 * nnodes, *R off = work + 9 * nnodes, *R cic = work + 10 * nnodes;
    int32_t *R node = (int32_t *)(work + 11 * nnodes);
    int64_t start = a->starts[s], nslots = YEE_SLOTS * start;
    double *bins = a->bins, *staged = a->staged + s * a->staged_stride, dx = a->dx, dy = a->dy;
    const double *x = a->x, *y = a->y, *x_old = a->x_old, *y_old = a->y_old;
    struct zigzag_grid g = zigzag_grid(a->dt, a->lx, a->ly, dx, dy, nx, ny);
    int64_t jx_nodes[4][CHUNK], jy_nodes[4][CHUNK];
    double jx_values[4][CHUNK], jy_values[4][CHUNK];
    memset(work, 0, sizeof(int64_t) * 2 * (size_t)nnodes);
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t r = a->cuts[s], i0 = start, stamp = 1; r < a->cuts[s + 1];
         i0 += a->counts[r], r++, stamp++) {
        int64_t len = a->counts[r], m = 0, kept = 0;
        double *R weight = staged, *R values = staged + 4 * len, *R zz = staged + 8 * len;
        double *R charge = staged + 16 * len;
        int32_t *R cell = node + 4 * len; /* the two sub-segments' cells */
        struct cic_rows rows = {{node, node + len, node + 2 * len, node + 3 * len},
                                {weight, weight + len, weight + 2 * len, weight + 3 * len}};
        for (int64_t i = 0; i < len; i++)
            charge[i] = a->w[i0 + i] * a->q[i0 + i];
        if (moves_bad(len, x_old + i0, y_old + i0, x + i0, y + i0, &g)) {
            bad = 1;
            break;
        }
        bad |= cic_into(len, x + i0, y + i0, a->lx, a->ly, dx, dy, nx, ny, rows);
        for (int64_t j0 = 0; j0 < len; j0 += CHUNK) {
            int64_t k = i0 + j0, mm = len - j0 < CHUNK ? len - j0 : CHUNK;
            bad |= zigzag_chunk(mm, x_old + k, y_old + k, x + k, y + k, charge + j0, &g,
                                jx_nodes, jx_values, jy_nodes, jy_values);
            for (int row = 0; row < 4; row++) {
                memcpy(zz + row * len + j0, jx_values[row], sizeof(double) * (size_t)mm);
                memcpy(zz + (4 + row) * len + j0, jy_values[row], sizeof(double) * (size_t)mm);
            }
            for (int64_t j = 0; j < mm; j++) {
                cell[j0 + j] = (int32_t)jx_nodes[0][j];
                cell[len + j0 + j] = (int32_t)jx_nodes[2][j];
            }
        }
        for (int row = 0; row < 3; row++)
            for (int64_t i = 0; i < len; i++)
                m = collect(&t, row < 2 ? cell[row * len + i] : node[i], stamp, m);
        int64_t nq = segment_keys(&t, m, r, stamp);
        segment_slots(&t, m, nq, nslots, r, slots, slots + cap, slots + 2 * cap, dest);
        for (int64_t u = 0; u < m; u++)
            off[u] = (dest[4 * u] >= nnodes) + (dest[4 * u + 1] >= nnodes) +
                     (dest[4 * u + 2] >= nnodes) + (dest[4 * u + 3] >= nnodes);
        memset(bins + 4 * (nnodes + nslots), 0, sizeof(double) * 4 * (size_t)nq);
        zigzag_segment(len, zz, cell, t.cell_mark, dest, bins);
        yee_values(len, a->ux + i0, a->uy + i0, a->uz + i0, charge, values);
        deposit_segment(len, values, weight, node, t.cell_mark, dest, off, bins);
        memset(cic, 0, sizeof(int64_t) * (size_t)nq);
        for (int64_t i = 0; i < len; i++) {
            const int64_t *to = dest + 4 * (-t.cell_mark[node[i]] - 1);
            for (int v = 0; v < 4; v++)
                if (to[v] >= nnodes)
                    cic[to[v] - nnodes - nslots] = 1;
        }
        for (int64_t u = 0; u < nq; u++) {
            int64_t from = nslots + u, into = nslots + kept;
            double *b = bins + 4 * (nnodes + from);
            b[0] = (b[0] * dx) * dy + 0.0;
            b[1] = (b[1] * dx) * dy + 0.0;
            if (!(cic[u] | (b[0] != 0) | (b[1] != 0)))
                continue;
            for (int row = 0; row < 3; row++)
                slots[row * cap + into] = slots[row * cap + from];
            memmove(bins + 4 * (nnodes + into), b, sizeof(double) * 4);
            kept++;
        }
        nslots += kept;
    }
    a->out[3 * s] = nslots - YEE_SLOTS * start;
    a->out[3 * s + 2] = finish(bad);
    a->out[3 * s + 1] = now_ns() - t0;
}

/* The scatter of rank segments counts[0 .. nranks) of n particles: CIC,
 * ghost slots and deposit, one segment at a time while it is in cache.  A
 * first walk of the segment computes each particle's CIC (cic_into) and
 * stamps its cell; the segment's slots are numbered (segment_keys: its
 * distinct cells' distinct off-rank vertices, sorted by owner * nnodes +
 * node; segment_slots), its pairs (distinct cells) from 0 in each
 * segment (they are not output); a second walk adds the entries as deposit
 * adds them, in the segment's particle order, into bins (nnodes +
 * slot_cap, 4): a node's four channels (on-rank sums) or a slot's at
 * nnodes + slot (zeroed as it is numbered), so each add is one 4-wide
 * vector.  tallies[r] is how many
 * ghost entries rank r's particles make (one per off-rank vertex of a
 * particle's cell), tallies[nranks + r] its slots, numbered into rows of
 * stride slot_cap (>= 4 n) of slots.
 *
 * With x_old (and y_old) the positions before the push, the scatter is the
 * modern stepper's (yee_shard): zigzag jx and jy, CIC jz and rho, channels
 * in that order, the currents scaled by the cell area ((v dx) dy on the
 * nodes), slot_cap >= YEE_SLOTS n, and no tallies.
 *
 * The segments are cut into nshards shards at the rank cuts (nshards + 1
 * ascending, from 0 to nranks), whose first particles are starts (the
 * segments' offsets at those cuts, from 0 to n), run by team (NULL: the
 * calling thread, in order; see scatter_shard).  Then the calling
 * thread moves each shard's slots and slot bins down to follow the
 * previous shard's (close_up), checks the bins once and
 * transposes the node bins into acc (4, nnodes); the slot bins, rows
 * nnodes .. nnodes + (the sum of out[3 s]) of bins, are the caller's to
 * read.  out (nshards, 3) as scatter_shard fills it.
 *
 * work and staged hold a row per shard, work_stride and staged_stride
 * apart: work 10 * nnodes int64 (slot_tables', one segment's pair
 * destinations (m, 4) and off-rank vertex counts) plus 2 per particle of
 * the longest segment (its CIC nodes, int32), staged 8 doubles a particle
 * of that segment (its CIC weights and its values); the modern scatter's
 * work 11 * nnodes (and the CIC mark of the segment's slots) plus 3 a
 * particle (and its sub-segments' cells), staged 17 (and its zigzag
 * values and charges).  DECLINED: segments that do not fit the cuts or
 * owners that do not fit the keys (segments_fit), a slot_cap too small, or
 * 2^31 nodes or more. */
int scatter(int64_t nranks, const int64_t *R counts, int64_t n, const double *R x,
            const double *R y, const double *R ux, const double *R uy, const double *R uz,
            const double *R q, const double *R w, const double *R x_old, const double *R y_old,
            double dt, double lx, double ly, double dx, double dy, int64_t nx, int64_t ny,
            const int64_t *R node_owner, int64_t *R work, int64_t work_stride, double *R staged,
            int64_t staged_stride, double *R bins, int64_t slot_cap, double *R acc,
            int64_t *R slots, int64_t *R tallies, int64_t nshards, const int64_t *R cuts,
            const int64_t *R starts, int64_t *team, int64_t *R out)
{
    struct scatter_args a = {counts, cuts,  starts, node_owner,  x,     y,           ux,
                             uy,     uz,    q,      w,           x_old, y_old,       dt,
                             lx,     ly,    dx,     dy,          nranks, nx,         ny,
                             work_stride,   staged_stride,       slot_cap,    work,
                             slots,  tallies, out,  staged,      bins};
    int64_t nnodes = nx * ny, bad = 0, per = x_old ? YEE_SLOTS : 4;
    if (!segments_fit(nranks, counts, n, nshards, cuts, starts, team, node_owner, nnodes) ||
        slot_cap < per * n || nnodes > INT32_MAX || (x_old && !y_old))
        return DECLINED;
    memset(bins, 0, sizeof(double) * 4 * (size_t)nnodes);
    fan_out(team, nshards, x_old ? yee_shard : scatter_shard, &a);
    for (int64_t s = 0; s < nshards; s++)
        bad |= out[3 * s + 2];
    int64_t nslots = close_up(nshards, starts, per, out, slots, slot_cap, bins + 4 * nnodes);
    bad |= not_finite(bins, 4 * (nnodes + nslots));
    for (int c = 0; c < 4; c++)
        for (int64_t k = 0; k < nnodes; k++)
            acc[c * nnodes + k] = bins[4 * k + c];
    for (int64_t k = 0; x_old && k < 2 * nnodes; k++)
        acc[k] = (acc[k] * dx) * dy;
    return finish(bad | not_finite(acc, 2 * nnodes));
}
