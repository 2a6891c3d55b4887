/* The four per-particle PIC kernels as plain C loops.
 *
 * Each entry point reproduces its NumPy body's floats bit for bit: the same
 * IEEE operations per particle in the same order, bins added to in pooled
 * entry order (which is numpy.bincount's).  Build without -ffast-math and
 * with -ffp-contract=off: a fused multiply-add rounds once where NumPy
 * rounds twice.  repro/native/__init__.py compares every entry point with
 * its NumPy body when the library is loaded and drops the library on a
 * mismatch.
 *
 * Every kernel is pure: it reads its arguments, writes only its output
 * buffers and returns
 *   OK         the outputs are the NumPy body's;
 *   FLAGGED    a float exception NumPy reports (invalid, divide by zero,
 *              overflow) was raised or an output is not finite;
 *   BAD_INDEX  an index argument is outside its table.
 * On anything but OK the caller discards the outputs and runs the NumPy
 * body, which then produces the warning, the exception or the NaN payload
 * NumPy produces.  No index is used before it is range-checked.
 */
#include <fenv.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

enum { OK = 0, FLAGGED = 1, BAD_INDEX = 2 };

/* inputs are only read and outputs are fresh buffers: nothing aliases */
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
 * ux, uy, uz, x, y.  The particle arrays are not written. */
int boris_push(int64_t n, const double *R x, const double *R y, const double *R ux,
               const double *R uy, const double *R uz, const double *R q, const double *R m,
               const double *R e, const double *R b, double dt, double lx, double ly,
               double *R out)
{
    int64_t bad = 0;
    double half_dt = 0.5 * dt;
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t i = 0; i < n; i++) {
        double qmdt2 = half_dt * q[i] / m[i];
        /* half electric acceleration */
        double umx = ux[i] + qmdt2 * e[i];
        double umy = uy[i] + qmdt2 * e[n + i];
        double umz = uz[i] + qmdt2 * e[2 * n + i];
        /* magnetic rotation */
        double gamma_m = sqrt(((1.0 + umx * umx) + umy * umy) + umz * umz);
        double tx = qmdt2 * b[i] / gamma_m;
        double ty = qmdt2 * b[n + i] / gamma_m;
        double tz = qmdt2 * b[2 * n + i] / gamma_m;
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
        double nux = uplusx + qmdt2 * e[i];
        double nuy = uplusy + qmdt2 * e[n + i];
        double nuz = uplusz + qmdt2 * e[2 * n + i];
        /* position update with the new momentum */
        double gamma = sqrt(((1.0 + nux * nux) + nuy * nuy) + nuz * nuz);
        double nx = wrap(x[i] + dt * nux / gamma, lx);
        double ny = wrap(y[i] + dt * nuy / gamma, ly);
        out[i] = nux;
        out[n + i] = nuy;
        out[2 * n + i] = nuz;
        out[3 * n + i] = nx;
        out[4 * n + i] = ny;
        bad |= NOT_FINITE(nux) | NOT_FINITE(nuy) | NOT_FINITE(nuz) | NOT_FINITE(nx) | NOT_FINITE(ny);
    }
    return finish(bad);
}
