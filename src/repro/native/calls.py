"""The ctypes face of ``pic_kernels.c`` and its load-time self-check.

Every :class:`Kernels` method answers ``None`` (``False`` for the push)
when the caller has to run the NumPy body instead: an argument is not a
C-contiguous array of the expected dtype and shape (no silent copies —
least of all of in-place outputs), or the C loop reported a float
exception, a non-finite result, an out-of-range index or an input it
does not cover, which NumPy then turns into its own warning, exception,
NaN or answer.  The C loops write only output buffers — fresh ones, or
the caller's ``out`` / the deposit's ``acc``: a bad index leaves ``acc``
untouched (the NumPy body then raises, as it always did, before
writing), a flagged call leaves an output for the NumPy body to refill.
The two in-place kernels, the push and the field step, work in a kept
block and write the caller's arrays only once the whole call is clean.
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np

__all__ = ["Kernels", "self_check"]

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_SIGNATURES = {
    "cic": (_I64, _PTR, _PTR, _F64, _F64, _F64, _F64, _I64, _I64, _PTR, _PTR),
    "deposit": (_I64, *[_PTR] * 6, _I64, _PTR, _PTR, _I64, _I64, _PTR, _PTR),
    "interpolate": (_I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR),
    "boris_push": (_I64, *[_PTR] * 9, _F64, _F64, _F64, _PTR),
    "ghost_slots": (_I64, _I64, _PTR, _PTR, _I64, _I64, _PTR, _I64, *[_PTR] * 7),
    "field_step": (_I64, _I64, *[_PTR] * 11, _F64, _F64, _F64, _F64, _I64, _PTR),
    "smooth": (_I64, _I64, _PTR, _PTR, _PTR),
}
#: field_step's plane arguments, in its order
_FIELD_PLANES = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz", "rho")


def _plain(dtype, shape, *arrays) -> bool:
    """Every array is a C-contiguous ndarray of this dtype and shape."""
    return all(
        isinstance(a, np.ndarray) and a.dtype == dtype and a.shape == shape and a.flags.c_contiguous
        for a in arrays
    )


def _ptr(*arrays):
    return [a.ctypes.data for a in arrays]


class Kernels:
    """The seven entry points of a loaded ``pic_kernels`` library."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib  # keeps the library mapped
        # scratch blocks kept per thread and only ever grown: the push's
        # staging block (40 bytes per particle), ghost_slots' tables (40
        # bytes per node), the field step's seven planes (56 bytes per node)
        # and the smoothing's three rows.  A fresh block per call is
        # page-faulted in every step, ~0.7 ms of a ~10 ms Fig 17 iteration
        # for the push's (7/8 pairs,
        # benchmarks/results/pr22_native_kernels.json "staging_block")
        self._scratch = threading.local()
        for name, argtypes in _SIGNATURES.items():
            entry = getattr(lib, name)
            entry.argtypes, entry.restype = argtypes, ctypes.c_int
            setattr(self, "_" + name, entry)

    def _block(self, name: str, size: int, dtype) -> np.ndarray:
        """This thread's scratch block ``name``, ``size`` elements of it."""
        block = getattr(self._scratch, name, None)
        if block is None or block.size < size:
            block = np.empty(size, dtype=dtype)
            setattr(self._scratch, name, block)
        return block[:size]

    def cic(self, grid, x, y, out=None):
        """``Grid2D.cic_vertices_weights``: ``(nodes, weights)`` — ``out`` if
        given — or ``None``."""
        if not (isinstance(x, np.ndarray) and x.ndim == 1 and _plain(np.float64, x.shape, x, y)):
            return None
        n = x.shape[0]
        nodes, weights = out or (np.empty((n, 4), dtype=np.int64), np.empty((n, 4)))
        if not (_plain(np.int64, (n, 4), nodes) and _plain(np.float64, (n, 4), weights)):
            return None
        failed = self._cic(
            n, *_ptr(x, y), grid.lx, grid.ly, grid.dx, grid.dy, grid.nx, grid.ny,
            *_ptr(nodes, weights),
        )  # fmt: skip
        return None if failed else (nodes, weights)

    def deposit(self, parts, weights, dest, pair_of, acc, nslots):
        """Deposit one CIC entry group by destination into ``acc``
        ``(4, nnodes)``; the ``(4, nslots)`` ghost-slot sums or ``None``."""
        n, nnodes = parts.n, acc.shape[-1]
        columns = (parts.ux, parts.uy, parts.uz, parts.q, parts.w)
        if not (
            _plain(np.float64, (n,), *columns)
            and _plain(np.float64, (n, 4), weights)
            and _plain(np.float64, (4, nnodes), acc)
            and _plain(np.int64, (n,), pair_of)
            and _plain(np.int64, (len(dest), 4), dest)
        ):
            return None
        summed = np.empty((4, nslots))
        failed = self._deposit(
            n, *_ptr(weights, *columns), len(dest), *_ptr(dest, pair_of), nnodes, nslots,
            *_ptr(acc, summed),
        )  # fmt: skip
        return None if failed else summed

    def interpolate(self, by_node, nodes, weights, out=None):
        """``gather_from_node_values`` on node-major values: ``(ncomp, n)`` —
        ``out`` if given — or ``None``."""
        n = len(nodes)
        if not (
            _plain(np.int64, (n, 4), nodes)
            and _plain(np.float64, (n, 4), weights)
            and by_node.ndim == 2
            and _plain(np.float64, by_node.shape, by_node)
        ):
            return None
        nnodes, ncomp = by_node.shape
        out = np.empty((ncomp, n)) if out is None else out
        if not _plain(np.float64, (ncomp, n), out):
            return None
        failed = self._interpolate(n, ncomp, nnodes, *_ptr(by_node, nodes, weights, out))
        return None if failed else out

    def boris_push(self, grid, parts, e, b, dt) -> bool:
        """``boris_push`` after its validation, in place; ``False``: nothing written."""
        n = parts.n
        columns = (parts.x, parts.y, parts.ux, parts.uy, parts.uz, parts.q, parts.m)
        if not (_plain(np.float64, (n,), *columns) and _plain(np.float64, (3, n), e, b)):
            return False
        out = self._block("push", 5 * n, np.float64).reshape(5, n)
        if self._boris_push(n, *_ptr(*columns, e, b), dt, grid.lx, grid.ly, out.ctypes.data):
            return False
        parts.ux[:], parts.uy[:], parts.uz[:], parts.x[:], parts.y[:] = out
        return True

    def ghost_slots(self, grid, node_owner, particle_ranks, cells, r0):
        """``ghost_slots``: ``(ranks, owners, nodes, dest, pair_of)`` or ``None``.

        Two calls into the C pass — one counts pairs and slots, one fills
        outputs allocated to exactly those sizes."""
        if not (
            isinstance(cells, np.ndarray)
            and cells.ndim == 2
            and _plain(np.int64, cells.shape, cells)
            and _plain(np.int64, cells.shape[1:], particle_ranks)
            and _plain(np.int64, (grid.nnodes,), node_owner)
        ):
            return None
        k, n = cells.shape
        sizes = np.empty(3, dtype=np.int64)
        work = self._block("ghost_slots", 5 * grid.nnodes, np.int64)
        given = (
            k, n, *_ptr(particle_ranks, cells), grid.nx, grid.ny, node_owner.ctypes.data, int(r0),
            *_ptr(work, sizes),
        )  # fmt: skip
        if self._ghost_slots(*given, None, None, None, None, None):
            return None
        npairs, nslots = int(sizes[0]), int(sizes[1])
        pair_of, dest = np.empty((k, n), dtype=np.int64), np.empty((npairs, 4), dtype=np.int64)
        ranks, owners, nodes = np.empty((3, nslots), dtype=np.int64)
        self._ghost_slots(*given, *_ptr(pair_of, dest, ranks, owners, nodes))
        return ranks, owners, nodes, dest, pair_of

    def field_step(self, solver, fields, dt) -> bool:
        """``MaxwellSolver.step`` after its validation, in place; ``False``:
        nothing written.  The planes must be ten distinct C-contiguous
        float64 ``(ny, nx)`` arrays, E and B writeable, ``nx, ny >= 3``."""
        planes = [getattr(fields, name) for name in _FIELD_PLANES]
        shape = getattr(planes[0], "shape", ())
        if not (
            len(shape) == 2
            and min(shape) >= 3
            and _plain(np.float64, shape, *planes)
            and all(a.flags.writeable for a in planes[:6])
        ):
            return False
        starts = sorted(a.ctypes.data for a in planes)
        if any(b - a < planes[0].nbytes for a, b in zip(starts, starts[1:])):
            return False  # shared memory: the NumPy body's in-place order matters
        passes, subtract = solver.marder_passes, solver.subtract_mean_current
        with np.errstate(all="ignore"):  # a non-finite mean is the NumPy body's to warn about
            means = [j.mean() if subtract else 0.0 for j in planes[6:9]]
            means = np.array(means + [planes[9].mean() if passes else 0.0])
        if not np.isfinite(means).all():
            return False
        scale = solver.marder_scale(dt) if passes else 0.0
        work = self._block("field_step", 7 * planes[0].size, np.float64)
        grid = solver.grid
        return not self._field_step(
            *shape, *_ptr(*planes, means), grid.dx, grid.dy, dt, scale, passes, work.ctypes.data
        )

    def smooth(self, a):
        """One pass of ``binomial_smooth``: a fresh ``(ny, nx)`` array or ``None``."""
        shape = getattr(a, "shape", ())
        if not (len(shape) == 2 and min(shape) >= 3 and _plain(np.float64, shape, a)):
            return None
        out = np.empty(shape)
        rows = self._block("smooth", 3 * shape[1], np.float64)
        return None if self._smooth(*shape, *_ptr(a, rows, out)) else out


def self_check(found: Kernels) -> str | None:
    """Name the first entry point whose bytes differ from its NumPy body's.

    Known answers on 257 particles of a non-square grid: positions on the
    edges and far outside, signed zeros among the field values, both
    einsum association orders (``ncomp`` 1 and 6), ghost slots of three
    cell rows over five ranks (one empty) counted from ``r0 = 1``; a field
    step with the solver's defaults and one with raw currents and two
    Marder passes, and a smoothing pass, on that grid's planes.
    """
    from repro.mesh.fields import FieldState
    from repro.mesh.grid import Grid2D
    from repro.particles.arrays import ParticleArray
    from repro.parallel_exec.kernels import deposit_numpy
    from repro.pic.deposition import ghost_slots_numpy
    from repro.pic.interpolation import interpolate_numpy
    from repro.pic.maxwell import MaxwellSolver
    from repro.pic.push import push_numpy
    from repro.pic.smoothing import binomial_smooth_numpy

    def same(got, want) -> bool:
        """Byte equality of two array tuples; a declined call (``None``) is a mismatch."""
        return got is not None and all(
            g is not None and g.tobytes() == w.tobytes() for g, w in zip(got, want)
        )

    rng = np.random.default_rng(22)
    grid, n, dt = Grid2D(16, 8, lx=10.0, ly=3.0), 257, 0.37
    x, y = rng.uniform(-25.0, 35.0, (2, n))
    x[:5] = 0.0, grid.lx, -1e-18, -0.0, 1e8 * grid.lx
    u = rng.normal(0.0, 0.8, (3, n))
    parts = ParticleArray(
        x, y, *u, rng.choice([-1.0, 1.0], n), rng.uniform(0.5, 2.0, n), rng.random(n), np.arange(n)
    )
    vertices = grid.cic_from_axes(grid.cic_axis(x, 0), grid.cic_axis(y, 1))
    if not same(found.cic(grid, x, y), vertices):
        return "cic"
    nodes, weights = vertices

    ranks = np.repeat(np.arange(5), [60, 0, 97, 50, 50])
    cells = np.stack((nodes[:, 0], nodes[:, 3], rng.integers(0, grid.ncells, n)))
    owner = rng.integers(0, 6, grid.nnodes)
    got = found.ghost_slots(grid, owner, ranks, cells, 1)
    if not same(got, ghost_slots_numpy(grid, owner, ranks, cells, 1)):
        return "ghost_slots"

    npairs, nslots = 40, 13
    dest = rng.integers(0, grid.nnodes + nslots, (npairs, 4))
    pair_of = rng.integers(0, npairs, n)
    acc, want_acc = np.empty((2, 4, grid.nnodes))
    want_summed = deposit_numpy(grid, parts, vertices, dest, pair_of, want_acc, nslots)
    summed = found.deposit(parts, weights, dest, pair_of, acc, nslots)
    if not same((summed, acc), (want_summed, want_acc)):
        return "deposit"

    fields = rng.normal(0.0, 1.0, (6, grid.nnodes))
    fields[:, :9] = 0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 1.0
    for rows in (fields, fields[4:5]):
        by_node = np.ascontiguousarray(rows.T)
        got = found.interpolate(by_node, nodes, weights)
        if not same((got,), (interpolate_numpy(by_node, nodes, weights),)):
            return "interpolate"

    pushed, want = parts.copy(), parts.copy()
    e, b = fields[:3].take(nodes[:, 0], axis=1), fields[3:].take(nodes[:, 3], axis=1)
    push_numpy(grid, want, e, b, dt)
    columns = ("x", "y", "ux", "uy", "uz")
    if not found.boris_push(grid, pushed, e, b, dt) or not same(
        [getattr(pushed, c) for c in columns], [getattr(want, c) for c in columns]
    ):
        return "boris_push"

    planes = rng.normal(0.0, 1.0, (10, grid.ny, grid.nx))
    planes[:, 0, :4] = 0.0, -0.0, -0.0, 0.0
    raw = MaxwellSolver(grid, subtract_mean_current=False, marder_passes=2)
    for solver in (MaxwellSolver(grid), raw):
        stepped, want = FieldState(*planes.copy()), FieldState(*planes.copy())
        solver._step_numpy(want, 0.2)
        if not found.field_step(solver, stepped, 0.2) or not same(
            [getattr(stepped, c) for c in _FIELD_PLANES], [getattr(want, c) for c in _FIELD_PLANES]
        ):
            return "field_step"
    if not same((found.smooth(planes[9]),), (binomial_smooth_numpy(planes[9]),)):
        return "smooth"
    return None
