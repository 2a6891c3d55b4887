"""The ctypes face of ``pic_kernels.c`` and its load-time self-check.

Every :class:`Kernels` method answers ``None`` (``0`` particles for the
push) when the caller has to run the NumPy body instead: an argument is
not a C-contiguous array of the expected dtype and shape (no silent copies
— least of all of in-place outputs), or the C loop reported a float
exception, a non-finite result, an out-of-range index or an input it
does not cover, which NumPy then turns into its own warning, exception,
NaN or answer.  The C loops write only output buffers — fresh ones, or
the caller's ``out`` / the deposit's ``acc``: a bad index leaves ``acc``
untouched (the NumPy body then raises, as it always did, before
writing), a flagged call leaves an output for the NumPy body to refill.
The field step works in a kept block and writes the caller's planes only
once the whole call is clean.  The push writes the particles a chunk at a
time, each chunk once it is clean, and answers how many it wrote: the
NumPy body pushes the rest, which for per-particle arithmetic is its bytes
and its warnings over all of them.
"""

from __future__ import annotations

import ctypes
import mmap
import threading

import numpy as np

__all__ = ["Kernels", "self_check"]

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_SIGNATURES = {
    "cic": (_I64, _PTR, _PTR, _F64, _F64, _F64, _F64, _I64, _I64, _PTR, _PTR),
    "deposit": (_I64, *[_PTR] * 6, _I64, _PTR, _PTR, _I64, _I64, _PTR, _PTR),
    "scatter": (
        _I64, _PTR, _I64, *[_PTR] * 7, *[_F64] * 4, _I64, _I64, _PTR, _I64, _PTR, _PTR, _I64,
        *[_PTR] * 5,
    ),  # fmt: skip
    "gather_push": (_I64, *[_PTR] * 7, _I64, *[_PTR] * 6, *[_F64] * 5, _I64, _I64, _PTR),
    "ghost_slots": (_I64, _I64, _PTR, _PTR, _I64, _I64, _PTR, _I64, _PTR, _I64, _I64, *[_PTR] * 4),
    "field_step": (_I64, _I64, *[_PTR] * 11, _F64, _F64, _F64, _F64, _I64, _PTR),
    "smooth": (_I64, _I64, _PTR, _PTR, _PTR),
    "yee_gather": (_I64, _PTR, _PTR, _F64, _F64, _F64, _F64, _I64, _I64, _PTR, _PTR, _PTR),
    "zigzag": (_I64, *[_PTR] * 5, *[_F64] * 5, _I64, _I64, *[_PTR] * 4),
    "zigzag_bin": (_I64, _PTR, _PTR, _I64, _PTR, _PTR, _I64, _I64, _PTR, _PTR),
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
    """The ten entry points of a loaded ``pic_kernels`` library."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib  # keeps the library mapped
        # scratch blocks kept per thread and only ever grown: the stamp
        # tables of ghost_slots and scatter (40 and 80 bytes per node), the
        # slot outputs they number into, the field step's seven planes (56
        # bytes per node) and the smoothing's three rows.  A fresh block per
        # call is page-faulted in every step (~0.7 ms of a ~10 ms Fig 17
        # iteration for a 40-byte-per-particle block, 7/8 pairs,
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

    def _rows(self, name: str, rows: int, width: int, dtype) -> np.ndarray:
        """This thread's ``(rows, w)`` output block ``name``, ``w >= width``.

        Sized to a bound the kernel cannot exceed and mapped on its own
        anonymous pages: the kernel writes the front of each row, and only
        pages written are ever resident (NumPy would ask for transparent
        huge pages on a block this large, each a 2 MB fault).  The pages
        are private: a forked process (a job-service worker) gets its own
        copy on write, never pages a sibling is writing too."""
        block = getattr(self._scratch, name, None)
        if block is None or block.shape[1] < width:
            itemsize = np.dtype(dtype).itemsize
            flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
            pages = mmap.mmap(-1, max(rows * width * itemsize, 1), flags=flags)
            block = np.frombuffer(pages, dtype, rows * width).reshape(rows, width)
            setattr(self._scratch, name, block)
        return block

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

    def scatter(self, grid, parts, counts, r0, node_owner, acc):
        """``scatter_numpy`` of the rank segments ``counts`` (ranks from
        ``r0``), ``acc`` ``(4, nnodes)`` filled: ``(summed, slot ranks, slot
        owners, slot nodes, entries per rank, slots per rank)`` or ``None``.

        One call into the C pass, which writes the slots into this thread's
        kept blocks, sized before it to the most slots ``n`` particles can
        have; the slots found are copied out."""
        n, nnodes, nranks = parts.n, grid.nnodes, len(counts)
        columns = (parts.x, parts.y, parts.ux, parts.uy, parts.uz, parts.q, parts.w)
        if not (
            _plain(np.float64, (n,), *columns)
            and _plain(np.int64, (nranks,), counts)
            and _plain(np.int64, (nnodes,), node_owner)
            and _plain(np.float64, (4, nnodes), acc)
        ):
            return None
        longest = max(int(counts.max()), 0) if nranks else 0
        work = self._block("scatter", 10 * nnodes + longest, np.int64)
        weights = self._block("scatter_weights", 4 * longest, np.float64)
        # at most four slots a particle: their sums, then ranks, owners, nodes
        block = self._rows("scatter_slots", 7, 4 * n, np.float64)
        summed, slots = block[:4], block[4:].view(np.int64)
        nslots, tallies = np.zeros(1, dtype=np.int64), np.empty(2 * nranks, dtype=np.int64)
        if self._scatter(
            nranks, counts.ctypes.data, n, *_ptr(*columns), grid.lx, grid.ly, grid.dx, grid.dy,
            grid.nx, grid.ny, node_owner.ctypes.data, int(r0), *_ptr(work, weights),
            summed.shape[1], *_ptr(nslots, acc, summed, slots, tallies),
        ):  # fmt: skip
            return None
        nslots = int(nslots[0])
        ranks, owners, nodes = slots[:, :nslots].copy()
        return summed[:, :nslots].copy(), ranks, owners, nodes, tallies[:nranks], tallies[nranks:]

    def gather_push(self, grid, parts, planes, dt) -> int:
        """``gather_push_slice`` after its validation, in place, from the six
        ``(ny, nx)`` ``planes`` of E and B: how many particles, from the
        first, hold the NumPy body's bytes (the rest are untouched)."""
        if not (len(planes) == 6 and _plain(np.float64, grid.shape, *planes)):
            return 0
        return self._push(grid, parts, True, planes, dt)

    def boris_push(self, grid, parts, e, b, dt) -> int:
        """``boris_push`` after its validation, in place: how many particles,
        from the first, hold the NumPy body's bytes (the rest are untouched)."""
        if not (
            _plain(np.float64, (3, parts.n), e, b)
            and not np.may_share_memory(e, parts.block)
            and not np.may_share_memory(b, parts.block)
        ):
            return 0
        return self._push(grid, parts, False, (*e, *b), dt)

    def _push(self, grid, parts, gather: bool, fields, dt) -> int:
        n = parts.n
        columns = (parts.x, parts.y, parts.ux, parts.uy, parts.uz, parts.q, parts.m)
        if not (_plain(np.float64, (n,), *columns) and all(a.flags.writeable for a in columns[:5])):
            return 0
        done = np.zeros(1, dtype=np.int64)
        self._gather_push(
            n, *_ptr(*columns), gather, *_ptr(*fields), dt, grid.lx, grid.ly, grid.dx, grid.dy,
            grid.nx, grid.ny, done.ctypes.data,
        )  # fmt: skip
        return int(done[0])

    def ghost_slots(self, grid, node_owner, particle_ranks, cells, r0):
        """``ghost_slots``: ``(ranks, owners, nodes, dest, pair_of)`` or ``None``.

        One call into the C pass, which numbers pairs and slots into this
        thread's kept blocks, sized before it to the most pairs and slots
        ``k n`` entries can have; those found are copied out."""
        if not (
            isinstance(cells, np.ndarray)
            and cells.ndim == 2
            and _plain(np.int64, cells.shape, cells)
            and _plain(np.int64, cells.shape[1:], particle_ranks)
            and _plain(np.int64, (grid.nnodes,), node_owner)
        ):
            return None
        k, n = cells.shape
        sizes, pair_of = np.zeros(2, dtype=np.int64), np.empty((k, n), dtype=np.int64)
        work = self._block("ghost_slots", 5 * grid.nnodes, np.int64)
        # at most one pair and four slots an entry
        dest = self._rows("pairs", 4, k * n, np.int64)
        slots = self._rows("slots", 3, 4 * k * n, np.int64)
        if self._ghost_slots(
            k, n, *_ptr(particle_ranks, cells), grid.nx, grid.ny, node_owner.ctypes.data, int(r0),
            work.ctypes.data, dest.size // 4, slots.shape[1], *_ptr(sizes, pair_of, dest, slots),
        ):  # fmt: skip
            return None
        npairs, nslots = int(sizes[0]), int(sizes[1])
        ranks, owners, nodes = slots[:, :nslots].copy()
        return ranks, owners, nodes, dest.ravel()[: 4 * npairs].reshape(npairs, 4).copy(), pair_of

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

    def yee_gather(self, grid, x, y, node_values, eb, cells) -> bool:
        """The modern stepper's staggered gather into ``eb`` ``(6, n)`` and
        ``cells`` ``(4, n)``; ``False``: run the NumPy body."""
        n = x.shape[0] if isinstance(x, np.ndarray) and x.ndim == 1 else -1
        if not (
            _plain(np.float64, (n,), x, y)
            and _plain(np.float64, (6, grid.nnodes), node_values)
            and _plain(np.float64, (6, n), eb)
            and _plain(np.int64, (4, n), cells)
        ):
            return False
        return not self._yee_gather(
            n, *_ptr(x, y), grid.lx, grid.ly, grid.dx, grid.dy, grid.nx, grid.ny,
            *_ptr(node_values, eb, cells),
        )  # fmt: skip

    def zigzag(self, grid, x_old, y_old, x_new, y_new, charge, dt, out=None):
        """``zigzag_entries_numpy``: the ``(4, n)`` jx nodes, jx values, jy
        nodes and jy values — ``out`` if given — or ``None``.  A move of a
        cell or more, or a NaN one, is declined before anything is written."""
        n = x_old.shape[0] if isinstance(x_old, np.ndarray) and x_old.ndim == 1 else -1
        if not _plain(np.float64, (n,), x_old, y_old, x_new, y_new, charge):
            return None
        blocks = out or (
            np.empty((4, n), dtype=np.int64), np.empty((4, n)),
            np.empty((4, n), dtype=np.int64), np.empty((4, n)),
        )  # fmt: skip
        if not (
            _plain(np.int64, (4, n), blocks[0], blocks[2])
            and _plain(np.float64, (4, n), blocks[1], blocks[3])
        ):
            return None
        failed = self._zigzag(
            n, *_ptr(x_old, y_old, x_new, y_new, charge), dt, grid.lx, grid.ly, grid.dx, grid.dy,
            grid.nx, grid.ny, *_ptr(*blocks),
        )  # fmt: skip
        return None if failed else blocks

    def zigzag_bin(self, values, vertices, dest, pair_of, acc, summed) -> bool:
        """``deposit_zigzag_entries_numpy`` of the jx and jy lists ``values``
        ``(2, 4 n)`` into ``acc`` ``(2, nnodes)`` and ``summed`` ``(2,
        nslots)``; ``False``: run the NumPy body (a bad index or a value
        that is not finite leaves both as they were)."""
        n = pair_of.shape[1] if isinstance(pair_of, np.ndarray) and pair_of.ndim == 2 else -1
        vertices = np.asarray(vertices, dtype=np.int64)
        if not (
            n >= 0
            and len(pair_of) >= 2
            and _plain(np.int64, pair_of.shape, pair_of)
            and _plain(np.float64, (2, 4 * n), values)
            and _plain(np.int64, (2, 4), vertices)
            and isinstance(dest, np.ndarray)
            and _plain(np.int64, (len(dest), 4), dest)
            and all(isinstance(a, np.ndarray) and a.ndim == 2 for a in (acc, summed))
            and _plain(np.float64, (2, acc.shape[1]), acc)
            and _plain(np.float64, (2, summed.shape[1]), summed)
        ):
            return False
        return not self._zigzag_bin(
            n, *_ptr(values, vertices), len(dest), *_ptr(dest, pair_of), acc.shape[1],
            summed.shape[1], *_ptr(acc, summed),
        )  # fmt: skip


def self_check(found: Kernels) -> str | None:
    """Name the first entry point whose bytes differ from its NumPy body's.

    Known answers on 257 particles of a non-square grid: positions on the
    edges and far outside, signed zeros among the field values, ghost slots
    of three cell rows over five ranks (one empty) counted from ``r0 = 1``
    and the scatter of the same segments; the gather + push of those
    particles from node values and the push from given fields; the
    staggered gather of those positions, their zigzag entries for moves up
    to the longest one under a cell (some across the periodic seam, one of
    zero charge) and both components binned by those ghost slots; a
    field step with the solver's defaults and one with raw currents and
    two Marder passes, and a smoothing pass, on that grid's planes.
    """
    from repro.mesh.fields import FieldState
    from repro.mesh.grid import Grid2D
    from repro.particles.arrays import ParticleArray
    from repro.parallel_exec.kernels import deposit_numpy, gather_push_numpy, scatter_numpy
    from repro.pic.deposition import ghost_slots_numpy
    from repro.pic.maxwell import MaxwellSolver
    from repro.pic.parallel_yee import staggered_gather_numpy
    from repro.pic.push import push_numpy
    from repro.pic.smoothing import binomial_smooth_numpy
    from repro.pic.zigzag import (
        JX_VERTICES,
        JY_VERTICES,
        deposit_zigzag_entries_numpy,
        zigzag_entries_numpy,
    )

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
    slots = ghost_slots_numpy(grid, owner, ranks, cells, 1)
    if not same(got, slots):
        return "ghost_slots"

    npairs, nslots = 40, 13
    dest = rng.integers(0, grid.nnodes + nslots, (npairs, 4))
    pair_of = rng.integers(0, npairs, n)
    acc, want_acc = np.empty((2, 4, grid.nnodes))
    want_summed = deposit_numpy(grid, parts, vertices, dest, pair_of, want_acc, nslots)
    summed = found.deposit(parts, weights, dest, pair_of, acc, nslots)
    if not same((summed, acc), (want_summed, want_acc)):
        return "deposit"

    counts = np.array([60, 0, 97, 50, 50], dtype=np.int64)
    acc, want_acc = np.empty((2, 4, grid.nnodes))
    want = scatter_numpy(grid, parts, counts, 1, owner, want_acc)
    if not same(found.scatter(grid, parts, counts, 1, owner, acc), want) or not same(
        (acc,), (want_acc,)
    ):
        return "scatter"

    fields = rng.normal(0.0, 1.0, (6, grid.nnodes))
    fields[:, :9] = 0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 1.0
    planes = fields.reshape(6, *grid.shape)
    pushed, want = parts.copy(), parts.copy()
    gather_push_numpy(grid, want, planes, dt)
    columns = ("x", "y", "ux", "uy", "uz")
    if found.gather_push(grid, pushed, planes, dt) != n or not same(
        [getattr(pushed, c) for c in columns], [getattr(want, c) for c in columns]
    ):
        return "gather_push"

    eb, cells = np.empty((6, n)), np.empty((4, n), dtype=np.int64)
    want = np.empty((6, n)), np.empty((4, n), dtype=np.int64)
    staggered_gather_numpy(grid, x, y, fields, *want)
    if not (found.yee_gather(grid, x, y, fields, eb, cells) and same((eb, cells), want)):
        return "yee_gather"

    moves = rng.uniform(-0.999, 0.999, (2, n)) * [[grid.dx], [grid.dy]]
    x_old, y_old = x.copy(), y.copy()
    x_old[5:7], y_old[5:7] = (0.0, -0.0), (-0.0, 0.0)
    # the longest moves under a cell that np.mod(move + l / 2, l) resolves
    longest = np.subtract([grid.dx, grid.dy], np.spacing([grid.lx, grid.ly]))
    moves[:, 5:7] = longest[:, None] * [1, -1]
    x_new, y_new = x_old + moves[0], y_old + moves[1]
    x_new[2:4] -= grid.lx  # the same moves, across the periodic seam
    charge = parts.w * parts.q
    charge[4] = 0.0
    zigzag = (grid, x_old, y_old, x_new, y_new, charge, dt)
    entries = found.zigzag(*zigzag)
    want = zigzag_entries_numpy(*zigzag)
    if not same(entries, want):
        return "zigzag"
    values = np.stack((want[1].ravel(), want[3].ravel()))
    acc, want_acc = np.empty((2, 2, grid.nnodes))
    summed, want_summed = np.empty((2, 2, slots.nodes.size))
    deposit_zigzag_entries_numpy(values, slots.dest, slots.pair_of, want_acc, want_summed)
    vertices = (JX_VERTICES, JY_VERTICES)
    if not (
        found.zigzag_bin(values, vertices, slots.dest, slots.pair_of, acc, summed)
        and same((acc, summed), (want_acc, want_summed))
    ):
        return "zigzag_bin"

    pushed, want = parts.copy(), parts.copy()
    e, b = fields[:3].take(nodes[:, 0], axis=1), fields[3:].take(nodes[:, 3], axis=1)
    push_numpy(grid, want, e, b, dt)
    if found.boris_push(grid, pushed, e, b, dt) != n or not same(
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
