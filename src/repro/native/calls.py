"""The ctypes face of ``pic_kernels.c`` and its load-time self-check.

Every :class:`Kernels` method answers ``None`` (``False`` for the field
step) when the caller has to run the NumPy body instead: an argument is
not a C-contiguous array of the expected dtype and shape (no silent copies
— least of all of in-place outputs), or the C loop reported a float
exception, a non-finite result, an out-of-range index or an input it
does not cover, which NumPy then turns into its own warning, exception,
NaN or answer.  The C loops write only output buffers — fresh ones, or
the scatter's ``acc`` / the Yee gather's ``cells``: a flagged call
leaves an output for the NumPy body to refill.  The field step works in
a kept block and writes the caller's planes only once the whole call is
clean.  The gather + push writes the particles a chunk at a time, each
chunk once it is clean, and reports per shard how many it wrote: the
NumPy body pushes the rest, which for per-particle arithmetic is its bytes
and its warnings over all of them.
"""

from __future__ import annotations

import ctypes
import mmap
import threading
from typing import NamedTuple

import numpy as np

__all__ = ["Kernels", "Shards", "team_block", "self_check", "INTERFACE"]

#: the ``pic_kernels_interface`` of a library built from the source that
#: :data:`_SIGNATURES` describes (bump both with any change of arguments)
INTERFACE = 3

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_SIGNATURES = {
    "scatter": (
        _I64, _PTR, _I64, *[_PTR] * 9, *[_F64] * 5, _I64, _I64, _PTR, _PTR, _I64, _PTR, _I64, _PTR,
        _I64, *[_PTR] * 3, _I64, *[_PTR] * 4,
    ),  # fmt: skip
    "gather_push": (
        _I64, *[_PTR] * 14, *[_F64] * 5, _I64, _I64, _PTR, _I64, *[_PTR] * 3, _I64, _PTR, _I64,
        _I64, *[_PTR] * 4,
    ),  # fmt: skip
    "field_step": (_I64, _I64, *[_PTR] * 11, _F64, _F64, _F64, _F64, _PTR),
    "smooth": (_I64, _I64, _I64, _PTR, _PTR, _PTR),
}
#: per scatter mode (era, modern): the kept int64 words per node and per
#: particle of the longest segment in a shard's work row, its staged doubles
#: per particle, and the most slots a particle numbers
_SCATTER_SIZES = {False: (10, 2, 8, 4), True: (11, 3, 17, 12)}
#: the Yee gather's: int64 words per node of a shard's work row, most slots a particle numbers
_STENCIL_SIZES = (5, 16)
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
    #: ``(k, 3)`` int64, per shard: the count the pass reports, its nanoseconds,
    #: and its status (scatter) or the request slots it numbered (Yee gather_push)
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
    """The four entry points of a loaded ``pic_kernels`` library."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib  # keeps the library mapped
        # scratch blocks kept per thread and only ever grown: the shards'
        # stamp tables (80 bytes per node, the Yee gather's in the first
        # 40), the slot outputs, the node block (64 bytes per node),
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
        work = self._rows("work", k, per_node * nnodes + per_particle * longest, np.int64)
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

    def gather_push(self, grid, parts, planes, dt, shards, cells=None, counts=None, owner=None):
        """``gather_push_slice`` after its validation, in place, from the
        six ``(ny, nx)`` ``planes`` of E and B (given ``cells`` ``(4, n)``,
        on the Yee stencils, whose cells it writes there), in one call into
        the C pass, cut at ``shards.starts`` and run by ``shards.team``
        (:class:`Shards`): ``(fields, slots)``, the planes interleaved per
        node, ``(nnodes, 8)`` in this thread's node block (:meth:`_nodes`),
        and, given ``cells`` and every shard pushed, the request slots of
        the rank segments ``counts`` under ``owner``, numbered into kept
        rows sized before the pass and copied out (else ``None``);
        in ``shards.out[:, 0]`` per shard how many of its particles, from
        its first, hold the NumPy body's bytes (the rest are untouched);
        ``None``: nothing written."""
        n, k = parts.n, len(shards.out)
        columns = (parts.x, parts.y, parts.ux, parts.uy, parts.uz, parts.q, parts.m)
        yee = cells is not None
        if not (
            _plain(np.float64, (n,), *columns)
            and all(a.flags.writeable for a in columns[:5])
            and len(planes) == 6
            and _plain(np.float64, grid.shape, *planes)
            and shards.plain()
            and (
                not yee
                or _plain(np.int64, (4, n), cells)
                and _plain(np.int64, (int(shards.ranks[-1]),), counts)
                and _plain(np.int64, (grid.nnodes,), owner)
            )
        ):
            return None
        block, stencils = self._nodes(8 * grid.nnodes), [None, 0, None, None, None, 0, None, 0]
        if yee:  # the work rows are the scatter's, whose slot tables come first
            work = self._rows("work", k, _STENCIL_SIZES[0] * grid.nnodes, np.int64)
            slots = self._rows("slots", 3, _STENCIL_SIZES[1] * n, np.int64)
            stencils = [cells.ctypes.data, len(counts), *_ptr(counts, owner, work)]
            stencils += [work.shape[1], slots.ctypes.data, slots.shape[1]]
        status = self._gather_push(
            n, *_ptr(*columns, block, *planes), dt, grid.lx, grid.ly, grid.dx, grid.dy, grid.nx,
            grid.ny, *stencils, k, *shards.pointers("ranks", "starts"),
        )  # fmt: skip
        if status not in (OK, FLAGGED):
            return None
        found = tuple(slots[:, : shards.out[:, 2].sum()].copy()) if yee and status == OK else None
        return block.reshape(grid.nnodes, 8), found

    def _team_call(self, n: int, team: np.ndarray) -> None:
        """``gather_push`` without particles or node block: the team's calls."""
        args = [None if kind is _PTR else 0 for kind in _SIGNATURES["gather_push"]]
        args[0], args[-2] = n, team.ctypes.data
        self._gather_push(*args)

    def park(self, team: np.ndarray, slot: int) -> None:
        """Serve as helper ``slot`` of the team whose control block is
        ``team`` (:func:`team_block`) until :meth:`dismiss`: the calling
        thread stays inside the C pass, off the interpreter, all along."""
        self._team_call(-slot, team)

    def dismiss(self, team: np.ndarray) -> None:
        """Send every helper of ``team`` home: their :meth:`park` returns."""
        self._team_call(0, team)

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
        with np.errstate(all="ignore"):  # a non-finite mean is the NumPy body's to warn about
            means = np.array([a.mean() for a in planes[6:]])
        if not np.isfinite(means).all():
            return False
        work = self._block("field_step", 7 * planes[0].size, np.float64)
        grid, scale = solver.grid, solver.marder_scale(dt)
        return not self._field_step(
            *shape, *_ptr(*planes, means), grid.dx, grid.dy, dt, scale, work.ctypes.data
        )

    def smooth(self, a):
        """``binomial_smooth``: a fresh array or ``None``; ``a`` is one
        ``(ny, nx)`` plane or a ``(k, ny, nx)`` block of them."""
        shape = getattr(a, "shape", ())
        if not (len(shape) in (2, 3) and min(shape[-2:]) >= 3 and _plain(np.float64, shape, a)):
            return None
        k, ny, nx = (1, *shape) if len(shape) == 2 else shape
        out = np.empty(shape)
        rows = self._block("smooth", 3 * nx, np.float64)
        return None if self._smooth(k, ny, nx, *_ptr(a, rows, out)) else out


def self_check(found: Kernels) -> str | None:
    """Name the first entry point whose bytes differ from its NumPy body's.

    Known answers on 513 particles of a non-square grid: first one
    gather + push chunk (``PUSH_CHUNK`` = 256) all inside the box, so the
    branch-free CIC and wrap passes run (at 0.0, -0.0, the largest double
    below the box's length, in the cells on the periodic seam, pushed from
    0 to just below it and at random), then positions on the edges and far
    outside, which take the scalar ones; the scatter of those particles
    as five rank segments (one empty, the first all inside the box; a
    sixth rank owns nodes and holds none), as one shard and as three run
    in turn; the gather + push of those particles from node values
    (interleaved as NumPy does it), on the CIC and on the Yee stencils
    (with the request slots of the stencil cells), also in those three
    shards; the modern scatter of moves up to the longest one under
    a cell (some across the periodic seam, one of zero charge), in those
    shards; a field step and a smoothing pass of four planes, on that
    grid's planes.
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
    from repro.pic.smoothing import binomial_smooth_numpy

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

    counts = np.array([200, 0, 113, 50, n - 363], dtype=np.int64)  # the first all inside
    owner = rng.integers(0, 6, grid.nnodes)  # rank 5 owns nodes and holds no particle
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
        if yee:
            ranks = np.repeat(np.arange(5), counts)
            want_slots = ghost_slots_numpy(grid, owner, ranks, want_cells)[:3]
        for cuts in sharded:
            pushed, cut = parts.copy(), shards(cuts)
            cells = np.empty((4, n), dtype=np.int64) if yee else None
            got = found.gather_push(grid, pushed, planes, dt, cut, cells, counts, owner)
            if not (
                got is not None
                and same((got[0],), (by_node,))
                and (cut.out[:, 0] == np.diff(cut.starts)).all()
                and same([getattr(pushed, c) for c in columns], [getattr(want, c) for c in columns])
                and (not yee or same((cells,), (want_cells,)) and same(got[1], want_slots))
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
    if not scattered(ParticleArray(x_new, y_new, *u, q, m, w, np.arange(n)), (x_old, y_old, dt)):
        return "scatter"

    planes = rng.normal(0.0, 1.0, (10, grid.ny, grid.nx))
    planes[:, 0, :4] = 0.0, -0.0, -0.0, 0.0
    solver = MaxwellSolver(grid)
    stepped, want = FieldState(*planes.copy()), FieldState(*planes.copy())
    solver._step_numpy(want, 0.2)
    if not found.field_step(solver, stepped, 0.2) or not same(
        [getattr(stepped, c) for c in _FIELD_PLANES], [getattr(want, c) for c in _FIELD_PLANES]
    ):
        return "field_step"
    if not same((found.smooth(planes[6:]),), (binomial_smooth_numpy(planes[6:]),)):
        return "smooth"
    return None
