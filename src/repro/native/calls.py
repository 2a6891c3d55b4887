"""The ctypes face of ``pic_kernels.c`` and its load-time self-check.

Every :class:`Kernels` method answers ``None`` (``0`` particles for the
push) when the caller has to run the NumPy body instead: an argument is
not a C-contiguous array of the expected dtype and shape (no silent copies
— least of all of in-place outputs), or the C loop reported a float
exception, a non-finite result, an out-of-range index or an input it
does not cover, which NumPy then turns into its own warning, exception,
NaN or answer.  The C loops write only output buffers — fresh ones, or
the caller's ``out`` / the scatter's ``acc`` / the Yee gather's
``cells``: a flagged call leaves an output for the NumPy body to refill.
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
from typing import NamedTuple

import numpy as np

__all__ = ["Kernels", "Shards", "team_block", "self_check"]

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_SIGNATURES = {
    "cic": (_I64, _PTR, _PTR, _F64, _F64, _F64, _F64, _I64, _I64, _PTR, _PTR),
    "scatter": (
        _I64, _PTR, _I64, *[_PTR] * 9, *[_F64] * 5, _I64, _I64, _PTR, _PTR, _I64, _PTR, _I64, _PTR,
        _I64, *[_PTR] * 3, _I64, *[_PTR] * 4,
    ),  # fmt: skip
    "gather_push": (_I64, *[_PTR] * 14, *[_F64] * 5, _I64, _I64, _PTR, _I64, *[_PTR] * 3),
    "ghost_slots": (_I64, _I64, _PTR, _PTR, _I64, _I64, _PTR, _PTR, _I64, _I64, *[_PTR] * 4),
    "field_step": (_I64, _I64, *[_PTR] * 11, _F64, _F64, _F64, _F64, _I64, _PTR),
    "smooth": (_I64, _I64, _PTR, _PTR, _PTR),
    "zigzag": (_I64, *[_PTR] * 5, *[_F64] * 5, _I64, _I64, *[_PTR] * 4),
}
#: per scatter mode (era, modern): the kept int64 words per node and per
#: particle of the longest segment in a shard's work row, its staged doubles
#: per particle, and the most slots a particle numbers
_SCATTER_SIZES = {False: (10, 2, 8, 4), True: (11, 3, 17, 12)}
#: field_step's plane arguments, in its order
_FIELD_PLANES = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz", "rho")


#: pic_kernels.c's return codes after which a pass's outputs are read
OK, FLAGGED = 0, 1


def team_block(nteam: int, spin: bool) -> np.ndarray:
    """A control block for a team of ``nteam`` slots, the calling thread's
    included (pic_kernels.c's ``struct team``): a 64-byte header, then a
    64-byte line per slot, zeroed, on pages of its own; word 0 says whether
    its threads spin before they block, word 1 is ``nteam``."""
    pages = mmap.mmap(-1, 64 * (nteam + 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    block = np.frombuffer(pages, np.int64)
    block[:2] = int(spin), nteam
    return block


class Shards(NamedTuple):
    """How a sharded pass is cut and who runs its shards."""

    ranks: np.ndarray  #: ``(k + 1,)`` int64 rank cuts, ascending from 0 to ``p``
    starts: np.ndarray  #: ``(k + 1,)`` int64 particle offsets of those cuts
    team: np.ndarray | None  #: a team of >= k slots (``None``: this thread, in order)
    #: ``(k, 3)`` int64, per shard: the count the pass reports, its nanoseconds, its status
    out: np.ndarray

    @classmethod
    def one(cls, nranks: int, n: int) -> Shards:
        """One shard over everything, run by the calling thread."""
        return cls(np.array([0, nranks]), np.array([0, n]), None, np.zeros((1, 3), np.int64))

    def plain(self) -> bool:
        """Every array is one the C pass can take (:func:`_plain`)."""
        k = len(self.out)
        return (
            (self.team is None or _plain(np.int64, self.team.shape, self.team))
            and _plain(np.int64, (k + 1,), self.ranks, self.starts)
            and _plain(np.int64, (k, 3), self.out)
        )

    def pointers(self, *cuts: str) -> list:
        """The ``cuts`` (``"ranks"``, ``"starts"``), team and out arguments
        of the C pass."""
        team = None if self.team is None else self.team.ctypes.data
        return [*(getattr(self, c).ctypes.data for c in cuts), team, self.out.ctypes.data]


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
        # scratch blocks kept per thread and only ever grown: the stamp
        # tables of ghost_slots and scatter (40 and 80 bytes per node), the
        # slot outputs they number into, the node block (64 bytes per node),
        # the field step's seven planes (56 bytes per node) and the
        # smoothing's three rows.  A fresh block per call is page-faulted in
        # every step (~0.7 ms of a ~10 ms Fig 17 iteration for a
        # 40-byte-per-particle block, 7/8 pairs,
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
        if block is None or block.shape[0] < rows or block.shape[1] < width:
            itemsize = np.dtype(dtype).itemsize
            flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
            pages = mmap.mmap(-1, max(rows * width * itemsize, 1), flags=flags)
            block = np.frombuffer(pages, dtype, rows * width).reshape(rows, width)
            setattr(self._scratch, name, block)
        return block[:rows]

    def _nodes(self, size: int) -> np.ndarray:
        """This thread's node block, ``size`` doubles of it: the scatter's
        node-interleaved bins while it runs, then the gather's
        node-interleaved fields (:meth:`gather_push`) until its push is
        done — a thread runs one at a time, so they share the pages."""
        return self._rows("nodes", 1, size, np.float64)[0, :size]

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

    def scatter(self, grid, parts, counts, node_owner, acc, shards=None, moved=None):
        """``scatter_numpy`` of the rank segments ``counts`` — with ``moved``
        ``(x_old, y_old, dt)``, ``scatter_yee_numpy`` — ``acc`` ``(4,
        nnodes)`` filled: ``(summed, slot ranks, slot owners, slot nodes,
        entries per rank, slots per rank)`` (the tallies ``None`` for the
        modern scatter) or ``None``.

        One call into the C pass, cut at ``shards.ranks`` (the particles
        at ``shards.starts``) and run by ``shards.team`` (:class:`Shards`;
        ``None``: one shard, this thread), which deposits into this
        thread's node block (:meth:`_nodes`) and numbers the slots into its
        kept rows, both sized before it to the most slots ``n`` particles
        can have, and gives each shard a row of its kept scratch (only the
        pages written become resident); the slots found are copied out, the
        slot sums from their bins."""
        n, nnodes, nranks = parts.n, grid.nnodes, len(counts)
        columns = (parts.x, parts.y, parts.ux, parts.uy, parts.uz, parts.q, parts.w)
        old, dt = ((), 0.0) if moved is None else (moved[:2], moved[2])
        if not (
            _plain(np.float64, (n,), *columns, *old)
            and _plain(np.int64, (nranks,), counts)
            and _plain(np.int64, (nnodes,), node_owner)
            and _plain(np.float64, (4, nnodes), acc)
            and (shards is None or shards.plain())
        ):
            return None
        shards = shards or Shards.one(nranks, n)
        k = len(shards.out)
        longest = max(int(counts.max()), 0) if nranks else 0
        per_node, per_particle, staged_per_particle, per_slot = _SCATTER_SIZES[moved is not None]
        # per shard: the slot tables, then the longest segment's cells (int32)
        work = self._rows("scatter", k, per_node * nnodes + per_particle * longest, np.int64)
        # ... and its CIC weights and deposit values (and zigzag values, charges)
        staged = self._rows("scatter_staged", k, staged_per_particle * longest, np.float64)
        # four channels a node, then four a slot
        bins = self._nodes(4 * (nnodes + per_slot * n))
        # the slots' ranks, owners, nodes
        slots = self._rows("scatter_slots", 3, per_slot * n, np.int64)
        tallies = np.empty(2 * nranks, dtype=np.int64)
        if self._scatter(
            nranks, counts.ctypes.data, n, *_ptr(*columns, *old), *[None] * (2 - len(old)),
            float(dt), grid.lx, grid.ly, grid.dx, grid.dy, grid.nx, grid.ny,
            node_owner.ctypes.data, work.ctypes.data, work.shape[1], staged.ctypes.data,
            staged.shape[1], bins.ctypes.data, slots.shape[1],
            *_ptr(acc, slots, tallies), k, *shards.pointers("ranks", "starts"),
        ):  # fmt: skip
            return None
        nslots = int(shards.out[:, 0].sum())
        ranks, owners, nodes = slots[:, :nslots].copy()
        summed = bins[4 * nnodes : 4 * (nnodes + nslots)].reshape(nslots, 4).T.copy()
        if moved is not None:
            return summed, ranks, owners, nodes, None, None
        return summed, ranks, owners, nodes, tallies[:nranks], tallies[nranks:]

    def gather_push(self, grid, parts, planes, dt, shards=None, cells=None):
        """``gather_push_slice`` after its validation, in place, from the
        six ``(ny, nx)`` ``planes`` of E and B (given ``cells`` ``(4, n)``,
        on the Yee stencils, whose cells it writes there), in one call into
        the C pass,
        cut at ``shards.starts`` and run by ``shards.team`` (:class:`Shards`;
        ``None``: one shard, this thread): the planes interleaved per node,
        ``(nnodes, 8)`` in this thread's node block (:meth:`_nodes`), and in
        ``shards.out[:, 0]`` per shard how many of its particles, from its
        first, hold the NumPy body's bytes (the rest are untouched);
        ``None``: nothing written."""
        shards = shards or Shards.one(1, parts.n)
        columns = self._columns(parts)
        if not (
            columns is not None
            and len(planes) == 6
            and _plain(np.float64, grid.shape, *planes)
            and (cells is None or _plain(np.int64, (4, parts.n), cells))
            and shards.plain()
        ):
            return None
        block = self._nodes(8 * grid.nnodes)
        status = self._call_push(grid, parts.n, columns, block, _ptr(*planes), dt, shards, cells)
        return None if status not in (OK, FLAGGED) else block.reshape(grid.nnodes, 8)

    def boris_push(self, grid, parts, e, b, dt) -> int:
        """``boris_push`` after its validation, in place: how many particles,
        from the first, hold the NumPy body's bytes (the rest are untouched)."""
        if not (
            _plain(np.float64, (3, parts.n), e, b)
            and not np.may_share_memory(e, parts.block)
            and not np.may_share_memory(b, parts.block)
        ):
            return 0
        columns, shards = self._columns(parts), Shards.one(1, parts.n)
        if columns is None:
            return 0
        self._call_push(grid, parts.n, columns, None, _ptr(*e, *b), dt, shards, None)
        return int(shards.out[0, 0])

    @staticmethod
    def _columns(parts):
        """The particle columns the push reads and writes, or ``None``."""
        n = parts.n
        columns = (parts.x, parts.y, parts.ux, parts.uy, parts.uz, parts.q, parts.m)
        if not (_plain(np.float64, (n,), *columns) and all(a.flags.writeable for a in columns[:5])):
            return None
        return columns

    def _call_push(self, grid, n, columns, node_fields, rows, dt, shards, cells) -> int:
        """The C pass's status."""
        return self._gather_push(
            n, *_ptr(*columns),
            None if node_fields is None else node_fields.ctypes.data, *rows, dt, grid.lx, grid.ly,
            grid.dx, grid.dy, grid.nx, grid.ny, None if cells is None else cells.ctypes.data,
            len(shards.out), *shards.pointers("starts"),
        )  # fmt: skip

    def park(self, team: np.ndarray, slot: int) -> None:
        """Serve as helper ``slot`` of the team whose control block is
        ``team`` (:func:`team_block`) until :meth:`dismiss`: the calling
        thread stays inside the C pass, off the interpreter, all along."""
        self._gather_push(-slot, *[None] * 14, *[0.0] * 5, 0, 0, None, 0, None, team.ctypes.data, None)

    def dismiss(self, team: np.ndarray) -> None:
        """Send every helper of ``team`` home: their :meth:`park` returns."""
        self._gather_push(0, *[None] * 14, *[0.0] * 5, 0, 0, None, 0, None, team.ctypes.data, None)

    def ghost_slots(self, grid, node_owner, particle_ranks, cells):
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
            k, n, *_ptr(particle_ranks, cells), grid.nx, grid.ny, node_owner.ctypes.data,
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


def self_check(found: Kernels) -> str | None:
    """Name the first entry point whose bytes differ from its NumPy body's.

    Known answers on 513 particles of a non-square grid: first one
    gather + push chunk (``PUSH_CHUNK`` = 256) all inside the box, so the
    branch-free CIC and wrap passes run (at 0.0, -0.0, the largest double
    below the box's length, in the cells on the periodic seam, pushed from
    0 to just below it and at random), then positions on the edges and far
    outside, which take the scalar ones; ghost slots of three cell rows
    over five ranks (one empty) and the scatter of the same segments, the
    first all inside the box, as one shard and as three run in turn; the
    gather + push of those particles from node values (interleaved as
    NumPy does it), on the CIC and on the Yee stencils, also in those
    three shards, and the push from given fields; zigzag entries for moves
    up to the longest one under a cell (some across the periodic seam, one
    of zero charge) and the modern scatter of those moves, in those
    shards; a field step with the solver's defaults and one with raw
    currents and two Marder passes, and a smoothing pass, on that grid's
    planes.
    """
    from repro.mesh.fields import FieldState
    from repro.mesh.grid import Grid2D
    from repro.particles.arrays import ParticleArray
    from repro.parallel_exec.kernels import (
        gather_push_numpy,
        node_fields_numpy,
        scatter_numpy,
        scatter_yee_numpy,
    )
    from repro.pic.deposition import ghost_slots_numpy
    from repro.pic.maxwell import MaxwellSolver
    from repro.pic.push import push_numpy
    from repro.pic.smoothing import binomial_smooth_numpy
    from repro.pic.zigzag import zigzag_entries_numpy

    def same(got, want) -> bool:
        """Byte equality of two array tuples; a declined call (``None``) is a mismatch."""
        return got is not None and all(
            g is not None and g.tobytes() == w.tobytes() for g, w in zip(got, want)
        )

    rng = np.random.default_rng(22)
    grid, dt, inside = Grid2D(16, 8, lx=10.0, ly=3.0), 0.37, 256
    x, y = rng.uniform(-25.0, 35.0, (2, 2 * inside + 1))
    n = x.size
    for a, length, d in ((x, grid.lx, grid.dx), (y, grid.ly, grid.dy)):
        a[:inside] = rng.uniform(0.0, length, inside)
        seam = rng.uniform(length - d, length, 8)  # the last cell: its next one wraps to 0
        a[:11] = 0.0, -0.0, np.nextafter(length, 0.0), *seam
        a[inside : inside + 5] = 0.0, length, -1e-18, -0.0, 1e8 * length
    y[:11] = np.roll(y[:11], 4)  # other pairs of x and y cells
    u = rng.normal(0.0, 0.8, (3, n))
    # on node 0, where the fields vanish, pushed to just below 0 along x
    # and along y: a wrap whose sum with l rounds to l and folds to 0
    x[11:13], y[11:13], u[:, 11:13] = 0.0, 0.0, [[-1e-17, 0.0], [0.0, -1e-17], [0.0, 0.0]]
    q, m, w = rng.choice([-1.0, 1.0], n), rng.uniform(0.5, 2.0, n), rng.random(n)
    parts = ParticleArray(x, y, *u, q, m, w, np.arange(n))
    vertices = grid.cic_from_axes(grid.cic_axis(x, 0), grid.cic_axis(y, 1))
    if not same(found.cic(grid, x, y), vertices):
        return "cic"
    nodes = vertices[0]

    counts = np.array([200, 0, 113, 50, n - 363], dtype=np.int64)  # the first all inside
    ranks = np.repeat(np.arange(5), counts)
    cells = np.stack((nodes[:, 0], nodes[:, 3], rng.integers(0, grid.ncells, n)))
    owner = rng.integers(0, 6, grid.nnodes)
    if not same(found.ghost_slots(grid, owner, ranks, cells), ghost_slots_numpy(grid, owner, ranks, cells)):
        return "ghost_slots"

    offsets = np.concatenate(([0], np.cumsum(counts)))
    sharded = [np.array(cuts) for cuts in ([0, 5], [0, 1, 3, 5])]  # one shard; three in turn

    def shards(cuts) -> Shards:
        return Shards(cuts, offsets[cuts], None, np.zeros((len(cuts) - 1, 3), np.int64))

    def scattered(particles, moved=None) -> bool:
        """Whether each cut of the compiled scatter has its NumPy body's bytes."""
        acc, want_acc = np.empty((2, 4, grid.nnodes))
        if moved is None:
            want = scatter_numpy(grid, particles, counts, owner, want_acc)
        else:
            want = scatter_yee_numpy(grid, particles, counts, owner, want_acc, *moved)[:4]
        for cuts in sharded:
            got = found.scatter(grid, particles, counts, owner, acc, shards(cuts), moved)
            if not (same(got and got[: len(want)], want) and same((acc,), (want_acc,))):
                return False
        return True

    if not scattered(parts):
        return "scatter"

    fields = rng.normal(0.0, 1.0, (6, grid.nnodes))
    fields[:, :9] = 0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 1.0
    planes = fields.reshape(6, *grid.shape)
    by_node = node_fields_numpy(planes, np.empty((grid.nnodes, 8)))
    columns = ("x", "y", "ux", "uy", "uz")
    for yee in (False, True):
        want, want_cells = parts.copy(), np.empty((4, n), dtype=np.int64) if yee else None
        gather_push_numpy(grid, want, by_node, dt, want_cells)
        for cuts in sharded:
            pushed, cut = parts.copy(), shards(cuts)
            cells = np.empty((4, n), dtype=np.int64) if yee else None
            got = found.gather_push(grid, pushed, planes, dt, cut, cells)
            if not (
                same((got,), (by_node,))
                and (cut.out[:, 0] == np.diff(cut.starts)).all()
                and same([getattr(pushed, c) for c in columns], [getattr(want, c) for c in columns])
                and (not yee or same((cells,), (want_cells,)))
            ):
                return "gather_push"

    moves = rng.uniform(-0.999, 0.999, (2, n)) * [[grid.dx], [grid.dy]]
    x_old, y_old = x.copy(), y.copy()
    x_old[5:7], y_old[5:7] = (0.0, -0.0), (-0.0, 0.0)
    # the longest moves under a cell that np.mod(move + l / 2, l) resolves
    longest = np.subtract([grid.dx, grid.dy], np.spacing([grid.lx, grid.ly]))
    moves[:, 5:7] = longest[:, None] * [1, -1]
    x_new, y_new = x_old + moves[0], y_old + moves[1]
    x_new[2:4] -= grid.lx  # the same moves, across the periodic seam
    w[4] = 0.0
    charge = w * q
    zigzag = (grid, x_old, y_old, x_new, y_new, charge, dt)
    if not same(found.zigzag(*zigzag), zigzag_entries_numpy(*zigzag)):
        return "zigzag"
    if not scattered(ParticleArray(x_new, y_new, *u, q, m, w, np.arange(n)), (x_old, y_old, dt)):
        return "scatter"

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
