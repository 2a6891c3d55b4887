/* The per-particle PIC kernels as plain C loops.
 *
 * Each entry point reproduces its NumPy body's floats bit for bit: the same
 * IEEE operations per particle in the same order, bins added to in pooled
 * entry order (which is numpy.bincount's); ghost_slots its integers.  Build
 * without -ffast-math and with -ffp-contract=off: a fused multiply-add
 * rounds once where NumPy rounds twice.  repro/native/__init__.py compares
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
