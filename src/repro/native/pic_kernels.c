/* The per-particle PIC kernels and the mesh stencils as plain C loops.
 *
 * Each entry point reproduces its NumPy body's floats bit for bit: the same
 * IEEE operations per particle or node in the same order, bins added to in
 * pooled entry order (which is numpy.bincount's); ghost_slots its integers.
 * Build without -ffast-math and with -ffp-contract=off: a fused
 * multiply-add rounds once where NumPy rounds twice.  The loops marked
 * VECTORIZED are written to run at vector width under -O3 (no branch, no
 * library call, unit stride); a vector lane rounds as the scalar
 * instruction does, so that moves no bit, and CI checks that the compiler
 * still reports each of them vectorized.  repro/native/__init__.py compares
 * every entry point with its NumPy body when the library is loaded and
 * drops the library on a mismatch.
 *
 * The era stepper's particle phases are one pass each: scatter (CIC, ghost
 * slots and deposit, one rank segment at a time while it is in cache) and
 * gather_push (CIC, interpolation and Boris push, PUSH_CHUNK particles at a
 * time).  cic and deposit serve the modern stepper and Grid2D.
 *
 * Every kernel reads its arguments, writes only its output buffers (and its
 * scratch; gather_push the particles, see there) and returns
 *   OK         the outputs are the NumPy body's;
 *   FLAGGED    a float exception NumPy reports (invalid, divide by zero,
 *              overflow) was raised or an output is not finite;
 *   BAD_INDEX  an index argument is outside its table;
 *   DECLINED   an input the loop does not cover.
 * On anything but OK the caller discards the outputs and runs the NumPy
 * body, which then produces the warning, the exception or the NaN payload
 * NumPy produces.  No index is used before it is range-checked.
 */
#include <fenv.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

enum { OK = 0, FLAGGED = 1, BAD_INDEX = 2, DECLINED = 3 };

/* inputs are only read and outputs are buffers of their own: nothing aliases */
#define R restrict

#define NOT_FINITE(v) (!(fabs(v) <= DBL_MAX))

/* A loop pass that is not inlined: in a function of its own the restrict on
 * its parameters holds, so it needs no run-time alias test to vectorize. */
#define PASS __attribute__((noinline))

static int finish(int64_t bad)
{
    return bad || fetestexcept(FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW) ? FLAGGED : OK;
}

/* Whether any of a[0 .. m) is inf or NaN, i.e. has all exponent bits set:
 * adding one to the exponent field then carries into the sign bit.  An
 * integer OR, which vectorizes where NOT_FINITE's comparison does not. */
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

/* Whether any of a[0 .. m) is outside [0, bound): negative, or with
 * bound - 1 - a[k] negative.  Unsigned, so nothing overflows; an integer
 * OR of sign bits, which vectorizes where a 64-bit comparison does not. */
static int64_t outside_of(const int64_t *R a, int64_t m, int64_t bound)
{
    uint64_t carried = 0, top = (uint64_t)bound - 1;
    /* VECTORIZED: outside_of */
    for (int64_t k = 0; k < m; k++)
        carried |= (uint64_t)a[k] | (top - (uint64_t)a[k]);
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

/* Grid2D.cic_vertices_weights -> nodes (n, 4) int64, weights (n, 4). */
int cic(int64_t n, const double *R x, const double *R y, double lx, double ly, double dx,
        double dy, int64_t nx, int64_t ny, int64_t *R nodes, double *R weights)
{
    int64_t bad = 0;
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t i = 0; i < n; i++) {
        int64_t cx, cx1, cy, cy1;
        double tx, ty;
        bad |= cic_axis(x[i], lx, dx, nx, &cx, &cx1, &tx);
        bad |= cic_axis(y[i], ly, dy, ny, &cy, &cy1, &ty);
        int64_t row = cy * nx, row1 = cy1 * nx;
        int64_t *node = nodes + 4 * i;
        node[0] = row + cx;
        node[1] = row + cx1;
        node[2] = row1 + cx;
        node[3] = row1 + cx1;
        double ux = 1.0 - tx, uy = 1.0 - ty;
        double *weight = weights + 4 * i;
        weight[0] = ux * uy;
        weight[1] = tx * uy;
        weight[2] = ux * ty;
        weight[3] = tx * ty;
    }
    return finish(bad);
}

/* deposition_entries + deposit_by_destination for one entry group: particle
 * i adds weight_v * (w q (1, ux, uy, uz) / gamma) to the destination of
 * vertex v of its pair -- a node (< nnodes, into acc (4, nnodes)) or a ghost
 * slot (into summed (4, nslots)).  Both outputs are overwritten, but not
 * before every index has passed: BAD_INDEX leaves them as they were. */
int deposit(int64_t n, const double *R weights, const double *R ux, const double *R uy,
            const double *R uz, const double *R q, const double *R w, int64_t npairs,
            const int64_t *R dest, const int64_t *R pair_of, int64_t nnodes, int64_t nslots,
            double *R acc, double *R summed)
{
    int64_t bad = 0;
    for (int64_t i = 0; i < n; i++)
        if (pair_of[i] < 0 || pair_of[i] >= npairs)
            return BAD_INDEX;
    for (int64_t k = 0; k < 4 * npairs; k++)
        if (dest[k] < 0 || dest[k] >= nnodes + nslots)
            return BAD_INDEX;
    memset(acc, 0, sizeof(double) * 4 * (size_t)nnodes);
    memset(summed, 0, sizeof(double) * 4 * (size_t)nslots);
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t i = 0; i < n; i++) {
        double inv_gamma = 1.0 / sqrt(((1.0 + ux[i] * ux[i]) + uy[i] * uy[i]) + uz[i] * uz[i]);
        double charge = w[i] * q[i];
        double per[4] = {charge, (charge * ux[i]) * inv_gamma, (charge * uy[i]) * inv_gamma,
                         (charge * uz[i]) * inv_gamma};
        const int64_t *to = dest + 4 * pair_of[i];
        for (int v = 0; v < 4; v++) {
            double weight = weights[4 * i + v];
            int64_t d = to[v];
            double *bin = d < nnodes ? acc + d : summed + (d - nnodes);
            int64_t stride = d < nnodes ? nnodes : nslots;
            for (int c = 0; c < 4; c++)
                bin[c * stride] += per[c] * weight;
        }
    }
    for (int64_t k = 0; k < 4 * nnodes; k++)
        bad |= NOT_FINITE(acc[k]);
    for (int64_t k = 0; k < 4 * nslots; k++)
        bad |= NOT_FINITE(summed[k]);
    return finish(bad);
}

/* Particles a kernel stages at a time.  Rows of one (k, n) output block
 * lie n doubles apart, so for the usual n the rows of all blocks fall in
 * one L1 set and the eviction of each other's lines makes the stores 2-3x
 * slower; a chunk is built in a small block of its own, then copied out
 * one row at a time. */
enum { CHUNK = 64 };

/* Copy rows rows of chunk (rows x CHUNK) to columns [i0, i0 + m) of the
 * (rows, n) block out. */
static void copy_out(void *R out, const void *R chunk, int rows, int64_t n, int64_t i0, int64_t m)
{
    for (int r = 0; r < rows; r++)
        memcpy((char *)out + 8 * (r * n + i0), (const char *)chunk + 8 * r * CHUNK, 8 * (size_t)m);
}

/* ParallelYeePIC._interpolate: the six staggered components of E and B at n
 * particles, eb (6, n), and the first vertex of each of the four stencils,
 * cells (4, n).  Per axis the two shifts (none, half a cell) go through
 * cic_axis on coords - shift * d, a stencil's weights are cic's, and each
 * component is interpolate's ncomp == 1 sum from its row of node_values
 * (6, nnodes): one component per call, as the NumPy body rounds.  A
 * position or field value that is not finite is FLAGGED before anything is
 * written. */
int yee_gather(int64_t n, const double *R x, const double *R y, double lx, double ly, double dx,
               double dy, int64_t nx, int64_t ny, const double *R node_values, double *R eb,
               int64_t *R cells)
{
    /* the stencil of each component (ex, ey, ez, bx, by, bz) as its x and
     * y shift (0: none, 1: half a cell); the cells rows in stencil order */
    static const int shift_x[6] = {1, 0, 0, 0, 1, 1}, shift_y[6] = {0, 1, 0, 1, 0, 1};
    static const int cell_of_stencil[4][2] = {{1, 0}, {0, 1}, {0, 0}, {1, 1}};
    int64_t bad = 0, nnodes = nx * ny;
    double shifts_x[2] = {0.0, 0.5 * dx}, shifts_y[2] = {0.0, 0.5 * dy};
    double stage_eb[6][CHUNK];
    int64_t stage_cells[4][CHUNK];
    if (not_finite(x, n) | not_finite(y, n) | not_finite(node_values, 6 * nnodes))
        return FLAGGED; /* before anything is written */
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t i0 = 0; i0 < n; i0 += CHUNK) {
        int64_t m = n - i0 < CHUNK ? n - i0 : CHUNK;
        for (int64_t j = 0; j < m; j++) {
            int64_t cx[2], cx1[2], cy[2], cy1[2];
            double tx[2], ty[2];
            for (int s = 0; s < 2; s++) {
                bad |= cic_axis(x[i0 + j] - shifts_x[s], lx, dx, nx, cx + s, cx1 + s, tx + s);
                bad |= cic_axis(y[i0 + j] - shifts_y[s], ly, dy, ny, cy + s, cy1 + s, ty + s);
            }
            for (int k = 0; k < 4; k++)
                stage_cells[k][j] = cy[cell_of_stencil[k][1]] * nx + cx[cell_of_stencil[k][0]];
            for (int c = 0; c < 6; c++) {
                int sx = shift_x[c], sy = shift_y[c];
                int64_t left = cx[sx], right = cx1[sx], row = cy[sy] * nx, row1 = cy1[sy] * nx;
                double wx = tx[sx], wy = ty[sy], ux = 1.0 - wx, uy = 1.0 - wy;
                const double *v = node_values + c * nnodes;
                double even = (0.0 + v[row + left] * (ux * uy)) + v[row1 + left] * (ux * wy);
                double odd = (0.0 + v[row + right] * (wx * uy)) + v[row1 + right] * (wx * wy);
                stage_eb[c][j] = (even + odd) + 0.0;
            }
        }
        for (int c = 0; c < 6; c++)
            bad |= not_finite(stage_eb[c], m);
        copy_out(eb, stage_eb, 6, n, i0, m);
        copy_out(cells, stage_cells, 4, n, i0, m);
    }
    return finish(bad);
}

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

/* zigzag_entries after its validation: the (4, n) node and value blocks of
 * jx and jy.  The shortest move along an axis is np.mod(new - old + l / 2,
 * l) - l / 2, computed as Python does.  A first pass finds every move and
 * DECLINES, writing nothing, when one is NaN or not under one cell (NumPy
 * then raises its ValueError), a start or a charge is not finite, or a flag
 * was raised; the second recomputes the moves and writes the entries, CHUNK
 * particles at a time, in two loops: the points, cells and nodes, then the
 * values at vector width. */
int zigzag(int64_t n, const double *R x_old, const double *R y_old, const double *R x_new,
           const double *R y_new, const double *R charge, double dt, double lx, double ly,
           double dx, double dy, int64_t nx, int64_t ny, int64_t *R jx_nodes,
           double *R jx_values, int64_t *R jy_nodes, double *R jy_values)
{
    int64_t bad = 0;
    double hx = lx / 2, hy = ly / 2, lim_x = remainder_limit(lx), lim_y = remainder_limit(ly);
    double inv_area = 1.0 / (dx * dy);
    /* per chunk: the start, relay and end points; the two cells */
    double x1[CHUNK], y1[CHUNK], xr[CHUNK], yr[CHUNK], x2[CHUNK], y2[CHUNK];
    double cell_x[2][CHUNK], cell_y[2][CHUNK];
    int64_t stage_jx_nodes[4][CHUNK], stage_jy_nodes[4][CHUNK];
    double stage_jx_values[4][CHUNK], stage_jy_values[4][CHUNK];
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t i = 0; i < n; i++) {
        double mx = remainder_of((x_new[i] - x_old[i]) + hx, lx, lim_x, &bad) - hx;
        double my = remainder_of((y_new[i] - y_old[i]) + hy, ly, lim_y, &bad) - hy;
        bad |= !(fabs(mx) < dx) | !(fabs(my) < dy) | NOT_FINITE(x_old[i]) | NOT_FINITE(y_old[i]) |
               NOT_FINITE(charge[i]);
    }
    if (finish(bad) != OK)
        return DECLINED;
    for (int64_t i0 = 0; i0 < n; i0 += CHUNK) {
        int64_t m = n - i0 < CHUNK ? n - i0 : CHUNK;
        const double *R q = charge + i0;
        for (int64_t j = 0; j < m; j++) {
            int64_t i = i0 + j;
            double a1 = wrap(x_old[i], lx), b1 = wrap(y_old[i], ly);
            double a2 = a1 + (remainder_of((x_new[i] - x_old[i]) + hx, lx, lim_x, &bad) - hx);
            double b2 = b1 + (remainder_of((y_new[i] - y_old[i]) + hy, ly, lim_y, &bad) - hy);
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
            segment_nodes(j, 0, c1x, c1y, nx, ny, stage_jx_nodes, stage_jy_nodes);
            segment_nodes(j, 2, c2x, c2y, nx, ny, stage_jx_nodes, stage_jy_nodes);
        }
        /* VECTORIZED: zigzag values */
        for (int64_t j = 0; j < m; j++) {
            segment_values(j, 0, x1[j], y1[j], xr[j], yr[j], cell_x[0][j], cell_y[0][j], q[j], dt,
                           dx, dy, inv_area, stage_jx_values, stage_jy_values);
            segment_values(j, 2, xr[j], yr[j], x2[j], y2[j], cell_x[1][j], cell_y[1][j], q[j], dt,
                           dx, dy, inv_area, stage_jx_values, stage_jy_values);
        }
        for (int r = 0; r < 4; r++)
            bad |= not_finite(stage_jx_values[r], m) | not_finite(stage_jy_values[r], m);
        copy_out(jx_nodes, stage_jx_nodes, 4, n, i0, m);
        copy_out(jx_values, stage_jx_values, 4, n, i0, m);
        copy_out(jy_nodes, stage_jy_nodes, 4, n, i0, m);
        copy_out(jy_values, stage_jy_values, 4, n, i0, m);
    }
    return finish(bad);
}

/* One zigzag entry into its bin: a node (< nnodes, into acc) or a ghost
 * slot (into summed). */
static inline void bin_add(int64_t d, double v, int64_t nnodes, double *R acc, double *R summed)
{
    if (d < nnodes)
        acc[d] += v;
    else
        summed[d - nnodes] += v;
}

/* deposit_by_destination for the two zigzag components, jx (c = 0) and jy
 * (c = 1): entry i of row r of values (2, 4, n) goes to dest[4 *
 * pair_of[r / 2][i] + vertex[c][r]] -- a node (< nnodes, into row c of acc
 * (2, nnodes)) or a ghost slot (into row c of summed (2, nslots)) -- added
 * row by row, in entry order inside a row, to bins zeroed first:
 * bincount's order.  The two components share the pair lookup and their
 * sums are independent, so their chains of adds into one bin overlap.
 * BAD_INDEX when a pair (of the first two pair_of rows), a vertex or a
 * destination is outside its table, FLAGGED when a value is not finite:
 * either before an output is written. */
int zigzag_bin(int64_t n, const double *R values, const int64_t *R vertex, int64_t npairs,
               const int64_t *R dest, const int64_t *R pair_of, int64_t nnodes, int64_t nslots,
               double *R acc, double *R summed)
{
    int64_t outside = outside_of(pair_of, 2 * n, npairs) |
                      outside_of(dest, 4 * npairs, nnodes + nslots) | outside_of(vertex, 8, 4);
    if (outside)
        return BAD_INDEX;
    if (not_finite(values, 8 * n))
        return FLAGGED; /* before anything is written */
    memset(acc, 0, sizeof(double) * 2 * (size_t)nnodes);
    memset(summed, 0, sizeof(double) * 2 * (size_t)nslots);
    feclearexcept(FE_ALL_EXCEPT);
    for (int r = 0; r < 4; r++) {
        const int64_t *pairs = pair_of + (r / 2) * n;
        const int64_t *to_x = dest + vertex[r], *to_y = dest + vertex[4 + r];
        const double *jx = values + r * n, *jy = values + (4 + r) * n;
        for (int64_t i = 0; i < n; i++) {
            int64_t p = 4 * pairs[i];
            bin_add(to_x[p], jx[i], nnodes, acc, summed);
            bin_add(to_y[p], jy[i], nnodes, acc + nnodes, summed + nslots);
        }
    }
    return finish(not_finite(acc, 2 * nnodes) | not_finite(summed, 2 * nslots));
}

/* Particles gather_push stages at a time: its fields and outputs, 11 rows
 * of PUSH_CHUNK doubles, stay in L1 (64 measured ~10 % slower). */
enum { PUSH_CHUNK = 256 };

/* Boris push arithmetic of m <= PUSH_CHUNK particles: fields ex .. bz, new
 * ux, uy, uz and the unwrapped x, y into rows 0 .. 4 of out.  Its own
 * function, so the restrict on the particle rows (which gather_push also
 * writes) holds here and the loop needs no run-time alias test to
 * vectorize. */

static PASS void push_chunk(int64_t m, const double *R x, const double *R y, const double *R ux,
                            const double *R uy, const double *R uz, const double *R q,
                            const double *R mass, const double *R ex, const double *R ey,
                            const double *R ez, const double *R bx, const double *R by,
                            const double *R bz, double dt, double (*R out)[PUSH_CHUNK])
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

/* gather_push_slice after its validation, in place: the fields at each of n
 * particles, then boris_push.  With gather set, f holds the six (ny, nx)
 * planes of E and B and a particle's fields are gather_from_node_values' at
 * its CIC (cic's floats, from the positions before the push):
 * einsum("nvc,nv->cn") zero-fills and, for six components, loops them
 * innermost, so a value is (((0 + p0) + p1) + p2) + p3.  Without it f holds
 * the six rows of n fields, as boris_push takes e and b.  PUSH_CHUNK
 * particles at a time: their new ux, uy, uz, x, y are built in a staging
 * block and written over the particles' only once the chunk is clean.  At
 * the first chunk that is not, *done is the count written before it, the
 * rest untouched, and the caller runs the NumPy body on the rest: every
 * particle is independent, so that is the NumPy body's bytes and the
 * warnings it raises over all n (the particles written raised nothing). */
int gather_push(int64_t n, double *R x, double *R y, double *R ux, double *R uy, double *R uz,
                const double *R q, const double *R mass, int64_t gather, const double *R f0,
                const double *R f1, const double *R f2, const double *R f3, const double *R f4,
                const double *R f5, double dt, double lx, double ly, double dx, double dy,
                int64_t nx, int64_t ny, int64_t *R done)
{
    const double *planes[6] = {f0, f1, f2, f3, f4, f5};
    double fields[6][PUSH_CHUNK], out[5][PUSH_CHUNK];
    /* flags are sticky and the pass stops at the first chunk that raised
     * one, so one clearing serves every chunk */
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t i0 = 0; i0 < n; i0 += PUSH_CHUNK) {
        int64_t m = n - i0 < PUSH_CHUNK ? n - i0 : PUSH_CHUNK, bad = 0;
        const double *f[6];
        if (gather) {
            for (int64_t j = 0; j < m; j++) {
                int64_t cx, cx1, cy, cy1;
                double tx, ty;
                bad |= cic_axis(x[i0 + j], lx, dx, nx, &cx, &cx1, &tx);
                bad |= cic_axis(y[i0 + j], ly, dy, ny, &cy, &cy1, &ty);
                double ux_ = 1.0 - tx, uy_ = 1.0 - ty;
                double w0 = ux_ * uy_, w1 = tx * uy_, w2 = ux_ * ty, w3 = tx * ty;
                int64_t row = cy * nx, row1 = cy1 * nx;
                for (int c = 0; c < 6; c++) {
                    const double *v = planes[c];
                    double sum = v[row + cx] * w0 + 0.0;
                    sum = v[row + cx1] * w1 + sum;
                    sum = v[row1 + cx] * w2 + sum;
                    fields[c][j] = v[row1 + cx1] * w3 + sum;
                }
            }
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
        for (int64_t j = 0; j < m; j++) {
            out[3][j] = wrap(out[3][j], lx);
            out[4][j] = wrap(out[4][j], ly);
        }
        for (int r = 0; r < 5; r++)
            bad |= not_finite(out[r], m);
        if (finish(bad) != OK) {
            *done = i0;
            return FLAGGED;
        }
        double *rows[5] = {ux, uy, uz, x, y};
        for (int r = 0; r < 5; r++)
            memcpy(rows[r] + i0, out[r], sizeof(double) * (size_t)m);
    }
    *done = n;
    return OK;
}

/* The mesh stencils: MaxwellSolver._step_numpy and one pass of
 * binomial_smooth_numpy on periodic (ny, nx) planes, nx, ny >= 3.  Each
 * row runs its interior columns x = 1 .. nx - 2 as a unit-stride loop, so
 * it runs at vector width, then its two wrap columns; a node's arguments
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

/* MaxwellSolver._step_numpy after its validation.  e and b are the three
 * (ny, nx) planes of E and of B, j the three of J; mean holds the means of
 * jx, jy, jz and rho (zeros where the solver does not subtract them: x - 0.0
 * is x).  The new E and B are computed in work (7 planes) and copied into e
 * and b only when the whole step is OK: on anything else they are as they
 * were. */
int field_step(int64_t ny, int64_t nx, double *ex, double *ey, double *ez, double *bx,
               double *by, double *bz, const double *jx, const double *jy, const double *jz,
               const double *rho, const double *R mean, double dx, double dy, double dt,
               double marder_scale, int64_t marder_passes, double *R work)
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
    for (int64_t pass = 0; pass < marder_passes; pass++)
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

/* One pass of binomial_smooth_numpy into out: along each row, then along
 * each column.  rows holds three row-pass rows (3 * nx), rotated down the
 * grid; rows 0 and ny - 1 of the row pass are computed twice, with the same
 * bits and flags. */
int smooth(int64_t ny, int64_t nx, const double *R a, double *R rows, double *R out)
{
    double *dn = rows, *mid = rows + nx, *up = rows + 2 * nx;
    feclearexcept(FE_ALL_EXCEPT);
    smooth_row(nx, a + row_below(0, ny, nx), dn);
    smooth_row(nx, a, mid);
    for (int64_t y = 0; y < ny; y++) {
        double *done = dn;
        smooth_row(nx, a + row_above(y, ny, nx), up);
        smooth_column(nx, dn, mid, up, out + y * nx);
        dn = mid;
        mid = up;
        up = done;
    }
    return finish(not_finite(out, nx * ny));
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

/* OK, or DECLINED for a negative owner or keys the NumPy body would
 * overflow int64 with: its largest is ((top + 1) * (max owner + 1)) * nnodes
 * - 1, top being the largest rank with particles (-1: none). */
static int owners_fit(const int64_t *R owner, int64_t nnodes, int64_t top)
{
    int64_t max_owner = 0;
    for (int64_t v = 0; v < nnodes; v++) {
        if (owner[v] < 0)
            return DECLINED;
        max_owner = owner[v] > max_owner ? owner[v] : max_owner;
    }
    if (top >= 0 && ((double)top + 1) * ((double)max_owner + 1) * (double)nnodes >= 0x1p62)
        return DECLINED;
    return OK;
}

/* One segment's m distinct cells, collected in t->cells: sorts them and
 * numbers them first, first + 1, ... in cell_mark, then collects the
 * distinct vertices of their cells that rank mine does not own, as owner *
 * nnodes + node keys, into t->keys, sorted: returns how many. */
static int64_t segment_keys(struct slot_tables *t, int64_t m, int64_t first, int64_t mine,
                            int64_t stamp)
{
    int64_t q = 0, v[4];
    sort_ascending(t->cells, t->tmp, m);
    for (int64_t u = 0; u < m; u++) {
        int64_t c = t->cells[u];
        t->cell_mark[c] = -(first + u) - 1;
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
 * (slot_ranks / slot_owners / slot_nodes) and writes the four destinations
 * of each of the m cells into dest (m, 4): the node where rank mine owns it,
 * nnodes + its slot otherwise. */
static void segment_slots(struct slot_tables *t, int64_t m, int64_t q, int64_t first, int64_t rank,
                          int64_t mine, int64_t *R slot_ranks, int64_t *R slot_owners,
                          int64_t *R slot_nodes, int64_t *R dest)
{
    int64_t nnodes = t->nnodes, v[4];
    for (int64_t u = 0; u < q; u++) {
        int64_t slot = first + u, owner = t->keys[u] / nnodes, node = t->keys[u] - owner * nnodes;
        t->node_mark[node] = -slot - 1;
        slot_ranks[slot] = rank;
        slot_owners[slot] = owner;
        slot_nodes[slot] = node;
    }
    for (int64_t u = 0; u < m; u++) {
        cell_vertices(t->cells[u], t->nx, t->ny, v);
        for (int j = 0; j < 4; j++)
            dest[4 * u + j] = t->owner[v[j]] != mine ? nnodes - t->node_mark[v[j]] - 1 : v[j];
    }
}

/* ghost_slots: the distinct (rank, cell) pairs of k rows of n cells
 * (particle i of rank ranks[i], counted from r0) in (rank, cell) order and
 * each entry's pair in pair_of (k, n); per pair vertex in dest (npairs, 4)
 * its node where the pair's rank owns it, nnodes + slot otherwise, the
 * slots being the distinct off-rank (rank, node) pairs in (rank, owner,
 * node) order (rows slot_ranks, slot_owners, slot_nodes of slots (3,
 * slot_cap)); sizes = (npairs, nslots).
 *
 * The ranks ascend (a pool's rank segments), so each rank is one segment
 * and its pairs and slots are found on it alone: its distinct cells by the
 * cell stamp table, then sorted; its pairs' distinct off-rank vertices by
 * the node stamp table, then sorted by owner * nnodes + node.  One walk of
 * the cells per segment collects them, a second writes pair_of.  No walk
 * counts first: a segment of m entries has at most m pairs and 4 m slots,
 * so dest holds pair_cap >= k n pairs and slots slot_cap >= 4 k n, sized
 * before the pass.  BAD_INDEX: a cell outside the grid; DECLINED: ranks
 * negative or descending, owners_fit's, or blocks smaller than that. */
int ghost_slots(int64_t k, int64_t n, const int64_t *R ranks, const int64_t *R cells,
                int64_t nx, int64_t ny, const int64_t *R node_owner, int64_t r0,
                int64_t *R work, int64_t pair_cap, int64_t slot_cap, int64_t *R sizes,
                int64_t *R pair_of, int64_t *R dest, int64_t *R slots)
{
    struct slot_tables t = slot_tables(nx, ny, node_owner, work);
    int64_t npairs = 0, nslots = 0, stamp = 0, descending = n && ranks[0] < 0;
    if (outside_of(cells, k * n, t.nnodes))
        return BAD_INDEX;
    for (int64_t i = 1; i < n; i++)
        descending |= ranks[i] < ranks[i - 1];
    if (descending || owners_fit(node_owner, t.nnodes, n ? ranks[n - 1] : -1) != OK ||
        pair_cap < k * n || slot_cap < 4 * k * n)
        return DECLINED;
    memset(work, 0, sizeof(int64_t) * 2 * (size_t)t.nnodes);
    for (int64_t s = 0, e; s < n; s = e) {
        int64_t rank = ranks[s], m = 0;
        for (e = s + 1; e < n && ranks[e] == rank; e++)
            ;
        stamp++;
        for (int64_t j = 0; j < k; j++)
            for (int64_t i = s; i < e; i++) {
                int64_t c = cells[j * n + i];
                if (t.cell_mark[c] != stamp) {
                    t.cell_mark[c] = stamp;
                    t.cells[m++] = c;
                }
            }
        int64_t q = segment_keys(&t, m, npairs, rank + r0, stamp);
        for (int64_t j = 0; j < k; j++)
            for (int64_t i = s; i < e; i++)
                pair_of[j * n + i] = -t.cell_mark[cells[j * n + i]] - 1;
        segment_slots(&t, m, q, nslots, rank, rank + r0, slots, slots + slot_cap,
                      slots + 2 * slot_cap, dest + 4 * npairs);
        npairs += m;
        nslots += q;
    }
    sizes[0] = npairs;
    sizes[1] = nslots;
    return OK;
}

/* The era scatter of rank segments counts[0 .. nranks) of n particles,
 * ranks counted from r0: cic, ghost_slots and deposit, one segment at a
 * time while it is in cache.  A first walk of the segment computes each
 * particle's CIC (cic's floats, kept in cell_of and weight_of) and stamps
 * its cell; the segment's pairs and slots are numbered as ghost_slots
 * numbers them (pairs from 0 in each segment: they are not output); a
 * second walk adds the entries as deposit adds them, in the segment's
 * particle order: acc (4, nnodes) gets the on-rank sums, rows of stride
 * slot_cap (>= 4 n) of summed the slots' (zeroed as they are numbered).
 * tallies[r] is how many ghost entries rank r's particles make (one per
 * off-rank vertex of a particle's cell), tallies[nranks + r] its slots;
 * *nslots the slots of all.
 *
 * work is 10 * nnodes int64 (slot_tables', one segment's pair
 * destinations (m, 4) and off-rank vertex counts) plus the longest
 * segment's cell_of; weight_of is 4 doubles per particle of that segment.
 * DECLINED: negative counts or a sum other than n, owners_fit's, or
 * slot_cap < 4 n. */
int scatter(int64_t nranks, const int64_t *R counts, int64_t n, const double *R x,
            const double *R y, const double *R ux, const double *R uy, const double *R uz,
            const double *R q, const double *R w, double lx, double ly, double dx, double dy,
            int64_t nx, int64_t ny, const int64_t *R node_owner, int64_t r0, int64_t *R work,
            double *R weight_of, int64_t slot_cap, int64_t *R nslots_out, double *R acc,
            double *R summed, int64_t *R slots, int64_t *R tallies)
{
    struct slot_tables t = slot_tables(nx, ny, node_owner, work);
    int64_t nnodes = t.nnodes, bad = 0, top = -1, total = 0, nslots = 0;
    int64_t *R dest = work + 5 * nnodes, *R off = work + 9 * nnodes;
    int64_t *R cell_of = work + 10 * nnodes;
    for (int64_t r = 0; r < nranks; r++) {
        if (counts[r] < 0)
            return DECLINED;
        total += counts[r];
        top = counts[r] ? r : top;
    }
    if (total != n || owners_fit(node_owner, nnodes, top) != OK || slot_cap < 4 * n)
        return DECLINED;
    memset(work, 0, sizeof(int64_t) * 2 * (size_t)nnodes);
    memset(acc, 0, sizeof(double) * 4 * (size_t)nnodes);
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t r = 0, s = 0, stamp = 1; r < nranks; s += counts[r], r++, stamp++) {
        int64_t len = counts[r], m = 0, mine = r + r0, entries = 0;
        for (int64_t i = 0; i < len; i++) {
            int64_t cx, cx1, cy, cy1;
            double tx, ty;
            bad |= cic_axis(x[s + i], lx, dx, nx, &cx, &cx1, &tx);
            bad |= cic_axis(y[s + i], ly, dy, ny, &cy, &cy1, &ty);
            double ux_ = 1.0 - tx, uy_ = 1.0 - ty, *weight = weight_of + 4 * i;
            weight[0] = ux_ * uy_;
            weight[1] = tx * uy_;
            weight[2] = ux_ * ty;
            weight[3] = tx * ty;
            int64_t c = cell_of[i] = cy * nx + cx;
            if (t.cell_mark[c] != stamp) {
                t.cell_mark[c] = stamp;
                t.cells[m++] = c;
            }
        }
        int64_t nq = segment_keys(&t, m, 0, mine, stamp);
        segment_slots(&t, m, nq, nslots, r, mine, slots, slots + slot_cap, slots + 2 * slot_cap,
                      dest);
        for (int64_t u = 0; u < m; u++)
            off[u] = (dest[4 * u] >= nnodes) + (dest[4 * u + 1] >= nnodes) +
                     (dest[4 * u + 2] >= nnodes) + (dest[4 * u + 3] >= nnodes);
        for (int c = 0; c < 4; c++)
            memset(summed + c * slot_cap + nslots, 0, sizeof(double) * (size_t)nq);
        for (int64_t i = 0; i < len; i++) {
            int64_t j = s + i, pair = -t.cell_mark[cell_of[i]] - 1;
            double inv_gamma = 1.0 / sqrt(((1.0 + ux[j] * ux[j]) + uy[j] * uy[j]) + uz[j] * uz[j]);
            double charge = w[j] * q[j];
            double per[4] = {charge, (charge * ux[j]) * inv_gamma, (charge * uy[j]) * inv_gamma,
                             (charge * uz[j]) * inv_gamma};
            const int64_t *to = dest + 4 * pair;
            for (int v = 0; v < 4; v++) {
                double weight = weight_of[4 * i + v];
                int64_t d = to[v];
                double *bin = d < nnodes ? acc + d : summed + (d - nnodes);
                int64_t stride = d < nnodes ? nnodes : slot_cap;
                for (int c = 0; c < 4; c++)
                    bin[c * stride] += per[c] * weight;
            }
            entries += off[pair];
        }
        tallies[r] = entries;
        tallies[nranks + r] = nq;
        nslots += nq;
    }
    *nslots_out = nslots;
    bad |= not_finite(acc, 4 * nnodes);
    for (int c = 0; c < 4; c++)
        bad |= not_finite(summed + c * slot_cap, nslots);
    return finish(bad);
}
