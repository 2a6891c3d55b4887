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
 * Every kernel is pure: it reads its arguments, writes only its output
 * buffers (and ghost_slots its scratch) and returns
 *   OK         the outputs are the NumPy body's;
 *   FLAGGED    a float exception NumPy reports (invalid, divide by zero,
 *              overflow) was raised or an output is not finite;
 *   BAD_INDEX  an index argument is outside its table;
 *   DECLINED   an input the loop does not cover (ghost_slots only).
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

static int finish(int64_t bad)
{
    return bad || fetestexcept(FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW) ? FLAGGED : OK;
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

/* gather_from_node_values: out (ncomp, n) from node-major by_node (nnodes,
 * ncomp).  einsum("nvc,nv->cn") zero-fills and then, for ncomp >= 2, loops
 * the components innermost, so a value is (((0 + p0) + p1) + p2) + p3; for
 * ncomp == 1 its inner loop is the four vertices through a two-lane
 * accumulator, ((0 + p0) + p2) + ((0 + p1) + p3), added to the zero. */
int interpolate(int64_t n, int64_t ncomp, int64_t nnodes, const double *R by_node,
                const int64_t *R nodes, const double *R weights, double *R out)
{
    int64_t bad = 0;
    for (int64_t k = 0; k < 4 * n; k++)
        if (nodes[k] < 0 || nodes[k] >= nnodes)
            return BAD_INDEX;
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t i = 0; i < n; i++) {
        const int64_t *node = nodes + 4 * i;
        const double *weight = weights + 4 * i;
        if (ncomp == 1) {
            double even = (0.0 + by_node[node[0]] * weight[0]) + by_node[node[2]] * weight[2];
            double odd = (0.0 + by_node[node[1]] * weight[1]) + by_node[node[3]] * weight[3];
            out[i] = (even + odd) + 0.0;
            bad |= NOT_FINITE(out[i]);
            continue;
        }
        const double *row0 = by_node + node[0] * ncomp, *row1 = by_node + node[1] * ncomp;
        const double *row2 = by_node + node[2] * ncomp, *row3 = by_node + node[3] * ncomp;
        for (int64_t c = 0; c < ncomp; c++) {
            double sum = row0[c] * weight[0] + 0.0;
            sum = row1[c] * weight[1] + sum;
            sum = row2[c] * weight[2] + sum;
            sum = row3[c] * weight[3] + sum;
            out[c * n + i] = sum;
            bad |= NOT_FINITE(sum);
        }
    }
    return finish(bad);
}

/* boris_push after its validation: e, b are (3, n); out is (5, n), the new
 * ux, uy, uz, x, y.  The particle arrays are not written.  Two passes: the
 * arithmetic has no branch and no library call, so it runs at vector width
 * and leaves the positions unwrapped; the second pass wraps and checks. */
int boris_push(int64_t n, const double *R x, const double *R y, const double *R ux,
               const double *R uy, const double *R uz, const double *R q, const double *R m,
               const double *R e, const double *R b, double dt, double lx, double ly,
               double *R out)
{
    int64_t bad = 0;
    double half_dt = 0.5 * dt;
    const double *R ex = e, *R ey = e + n, *R ez = e + 2 * n;
    const double *R bx = b, *R by = b + n, *R bz = b + 2 * n;
    double *R oux = out, *R ouy = out + n, *R ouz = out + 2 * n, *R ox = out + 3 * n,
           *R oy = out + 4 * n;
    feclearexcept(FE_ALL_EXCEPT);
    /* VECTORIZED: boris_push arithmetic */
    for (int64_t i = 0; i < n; i++) {
        double qmdt2 = half_dt * q[i] / m[i];
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
        oux[i] = nux;
        ouy[i] = nuy;
        ouz[i] = nuz;
        ox[i] = x[i] + dt * nux / gamma;
        oy[i] = y[i] + dt * nuy / gamma;
    }
    for (int64_t i = 0; i < n; i++) {
        ox[i] = wrap(ox[i], lx);
        oy[i] = wrap(oy[i], ly);
        bad |= NOT_FINITE(oux[i]) | NOT_FINITE(ouy[i]) | NOT_FINITE(ouz[i]) | NOT_FINITE(ox[i]) |
               NOT_FINITE(oy[i]);
    }
    return finish(bad);
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
#define PASS __attribute__((noinline))

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

/* ghost_slots: the distinct (rank, cell) pairs of k rows of n cells
 * (particle i of rank ranks[i], counted from r0) in (rank, cell) order and
 * each entry's pair in pair_of (k, n); per pair vertex in dest (npairs, 4)
 * its node where the pair's rank owns it, nnodes + slot otherwise, the
 * slots being the distinct off-rank (rank, node) pairs in (rank, owner,
 * node) order (slot_ranks / slot_owners / slot_nodes).
 *
 * The ranks ascend (a pool's rank segments), so each rank is one segment
 * and its pairs and slots are found on it alone: its distinct cells by a
 * stamp table, then sorted; its pairs' distinct off-rank vertices by a
 * second stamp table, then sorted by owner * nnodes + node.  The tables
 * hold the segment's stamp while it collects and -(id + 1) once its pairs
 * or slots are numbered, which no stamp equals.  work is 5 * nnodes int64:
 * the two tables, one segment's cells and off-rank vertices, and the sort's
 * second buffer.
 *
 * Called first with pair_of == NULL: validates, clears the tables and
 * counts, sizes = (npairs, nslots, segments).  BAD_INDEX: a cell outside
 * the grid; DECLINED: ranks negative or descending, a negative owner, or
 * keys the NumPy body would overflow int64 with.  Called again on the same
 * arguments with outputs of the counted sizes: fills them (stamps continue
 * after the count's, so the tables need no second clearing). */
int ghost_slots(int64_t k, int64_t n, const int64_t *R ranks, const int64_t *R cells,
                int64_t nx, int64_t ny, const int64_t *R node_owner, int64_t r0,
                int64_t *R work, int64_t *R sizes, int64_t *R pair_of, int64_t *R dest,
                int64_t *R slot_ranks, int64_t *R slot_owners, int64_t *R slot_nodes)
{
    int64_t nnodes = nx * ny;
    int64_t *cell_mark = work, *node_mark = work + nnodes;
    int64_t *seg_cells = work + 2 * nnodes, *seg_keys = work + 3 * nnodes, *tmp = work + 4 * nnodes;
    int fill = pair_of != NULL;
    int64_t stamp = fill ? sizes[2] : 0, npairs = 0, nslots = 0;
    if (!fill) {
        int64_t max_owner = 0;
        for (int64_t v = 0; v < nnodes; v++) {
            if (node_owner[v] < 0)
                return DECLINED;
            max_owner = node_owner[v] > max_owner ? node_owner[v] : max_owner;
        }
        /* the largest NumPy key is ((rank + 1) * (max owner + 1)) * nnodes - 1;
         * ranks[n - 1] is the largest rank once the walk found them ascending */
        if (n && ((double)ranks[n - 1] + 1) * ((double)max_owner + 1) * (double)nnodes >= 0x1p62)
            return DECLINED;
        memset(work, 0, sizeof(int64_t) * 2 * (size_t)nnodes);
    }
    for (int64_t s = 0, e; s < n; s = e) {
        int64_t rank = ranks[s], m = 0, q = 0, v[4];
        for (e = s + 1; e < n && ranks[e] == rank; e++)
            ;
        if (!fill && (rank < 0 || (e < n && ranks[e] < rank)))
            return DECLINED;
        int64_t mine = rank + r0;
        stamp++;
        for (int64_t j = 0; j < k; j++)
            for (int64_t i = s; i < e; i++) {
                int64_t c = cells[j * n + i];
                if (!fill && (c < 0 || c >= nnodes))
                    return BAD_INDEX;
                if (cell_mark[c] != stamp) {
                    cell_mark[c] = stamp;
                    seg_cells[m++] = c;
                }
            }
        if (fill) {
            sort_ascending(seg_cells, tmp, m);
            for (int64_t t = 0; t < m; t++)
                cell_mark[seg_cells[t]] = -(npairs + t) - 1;
            for (int64_t j = 0; j < k; j++)
                for (int64_t i = s; i < e; i++)
                    pair_of[j * n + i] = -cell_mark[cells[j * n + i]] - 1;
        }
        for (int64_t t = 0; t < m; t++) {
            cell_vertices(seg_cells[t], nx, ny, v);
            for (int c = 0; c < 4; c++)
                if (node_owner[v[c]] != mine && node_mark[v[c]] != stamp) {
                    node_mark[v[c]] = stamp;
                    seg_keys[q++] = node_owner[v[c]] * nnodes + v[c];
                }
        }
        if (fill) {
            sort_ascending(seg_keys, tmp, q);
            for (int64_t u = 0; u < q; u++) {
                int64_t slot = nslots + u, owner = seg_keys[u] / nnodes;
                int64_t node = seg_keys[u] - owner * nnodes;
                node_mark[node] = -slot - 1;
                slot_ranks[slot] = rank;
                slot_owners[slot] = owner;
                slot_nodes[slot] = node;
            }
            for (int64_t t = 0; t < m; t++) {
                int64_t *to = dest + 4 * (npairs + t);
                cell_vertices(seg_cells[t], nx, ny, v);
                for (int c = 0; c < 4; c++)
                    to[c] = node_owner[v[c]] != mine ? nnodes - node_mark[v[c]] - 1 : v[c];
            }
        }
        npairs += m;
        nslots += q;
    }
    if (!fill) {
        sizes[0] = npairs;
        sizes[1] = nslots;
        sizes[2] = stamp;
    }
    return OK;
}
