"""Segment kernels shared by the in-process path and the shard threads.

Every function here operates on a contiguous *rank-segment range* of the
particle pool and is written so that running it once over ``[0, p)``
(in-process execution) produces bit-identical results to running it
over any partition of ``[0, p)`` into shards (the compiled passes'
team, :mod:`repro.parallel_exec.backend`) — the determinism contract of
DESIGN.md §5.5:

* per-element kernels (CIC vertices, deposition entries, field gather,
  Boris push) are chunk-oblivious by construction;
* the only true floating-point reductions — on-rank deposition
  accumulation and ghost duplicate-removal sums — never mix ranks.  A
  node's on-rank ("mine") entries all come from the one rank that owns
  it, so per-rank partials have **disjoint support**: one bincount over
  a shard's pooled entries adds, per node, exactly the owner's entries
  in pool order, so shards deposit into one block without a race.
  Ghost sums are keyed by ``(rank, node)``.  Shards are unions of whole
  rank segments, so the addition sequence per node never depends on the
  worker count — at O(entries + nodes) per call, with no per-rank or
  per-shard copy of the mesh.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import native
from repro.machine.batch import MessageBatch
from repro.native.calls import Shards
from repro.particles.arrays import ParticleArray
from repro.pic.deposition import (
    CHANNELS,
    deposit_by_destination,
    deposition_entries,
    ghost_slots_numpy,
)
from repro.pic.interpolation import interpolate_numpy
from repro.pic.push import push_numpy
from repro.pic.zigzag import deposit_zigzag_entries, zigzag_entries_numpy
from repro.util import require

__all__ = [
    "scatter_segment",
    "scatter_numpy",
    "scatter_yee_numpy",
    "deposit_numpy",
    "merge_ghost_messages",
    "reduce_rank_rows",
    "node_fields_numpy",
    "gather_push_slice",
    "gather_push_numpy",
    "STENCILS",
    "staggered_gather_numpy",
]

#: The four distinct Yee stencils as ``(x shift, y shift)`` in cells, each
#: with the rows of the ``(ex, ey, ez, bx, by, bz)`` block it interpolates.
STENCILS = (
    ((0.5, 0.0), (0, 4)),  # ex, by
    ((0.0, 0.5), (1, 3)),  # ey, bx
    ((0.0, 0.0), (2,)),  # ez
    ((0.5, 0.5), (5,)),  # bz
)

#: the NumPy bodies' CIC and field blocks, kept per calling thread and only
#: ever grown: fresh ones would be allocated and page-faulted in every step
_scratch = threading.local()


def _kept(name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """This thread's C-contiguous ``shape`` block ``name``."""
    size = int(np.prod(shape))
    block = getattr(_scratch, name, None)
    if block is None or block.size < size:
        block = np.empty(size, dtype=dtype)
        setattr(_scratch, name, block)
    return block[:size].reshape(shape)


def _cic_numpy(grid, parts):
    """The particles' CIC ``(nodes, weights)``, NumPy's, in kept blocks."""
    out = (_kept("cic_nodes", (parts.n, 4), np.int64), _kept("cic_weights", (parts.n, 4)))
    return grid.cic_from_axes(grid.cic_axis(parts.x, 0), grid.cic_axis(parts.y, 1), out)


def scatter_segment(
    grid,
    parts: ParticleArray,
    counts: np.ndarray,
    node_owner: np.ndarray,
    out_row: np.ndarray,
    shards=None,
    moved=None,
):
    """Deposition work for the pool's rank segments, ``counts`` per rank.

    Owner lookup and duplicate removal run on the distinct ``(rank,
    cell)`` pairs (:func:`~repro.pic.deposition.ghost_slots`), never on
    the entries; every entry is then added to its destination in pooled
    entry order, so the floats are those of per-rank ghost tables.  One
    compiled pass of :mod:`repro.native` does CIC, ghost slots and
    deposit a rank segment at a time, while the segment is in cache;
    :func:`scatter_numpy` is its NumPy body, bit for bit the same.

    Parameters
    ----------
    parts:
        The pooled particles.
    counts:
        Per-rank particle counts (int64).
    node_owner:
        Global node-ownership map.
    out_row:
        ``(nchannels, nnodes)`` output — the on-rank deposition, which
        callers add via :func:`reduce_rank_rows`.
    shards:
        A :class:`~repro.native.calls.Shards` cutting the compiled pass at
        rank cuts for a team to run (one call, one output, whatever the
        cut); ``None`` and the NumPy body: the calling thread, in one go.
    moved:
        ``(x_old, y_old, dt)``, the positions before the latest push of
        ``dt``: the modern stepper's scatter (:func:`scatter_yee_numpy`),
        channels ``(jx, jy, jz, rho)``; ``None``: the era's, channels
        :data:`~repro.pic.deposition.CHANNELS`.

    Returns
    -------
    (out_row, entries_per_rank, uniq_per_rank, batch):
        ``out_row`` filled; ``entries_per_rank`` / ``uniq_per_rank`` —
        ghost-table tallies per rank (``None`` for the modern scatter);
        ``batch`` — the coalesced ghost messages (node ids ascending
        inside each message).
    """
    compiled = native.kernels()
    args = (grid, parts, counts, node_owner, out_row)
    found = compiled.scatter(*args, shards, moved) if compiled is not None else None
    if found is None:
        found = scatter_numpy(*args) if moved is None else scatter_yee_numpy(*args, *moved)
    summed, ranks, owners, nodes, entries_per_rank, uniq_per_rank = found
    batch = MessageBatch.coalesce(ranks, owners, nodes, summed)
    return out_row, entries_per_rank, uniq_per_rank, batch


def scatter_numpy(grid, parts, counts, node_owner, out_row):
    """The NumPy body of :func:`scatter_segment`, fallback and oracle of the
    compiled pass: the CIC evaluation, :func:`~repro.pic.deposition.ghost_slots_numpy`
    of the particles' cells and :func:`deposit_numpy`.  Fills ``out_row``
    and returns ``(summed, slot ranks, slot owners, slot nodes,
    entries_per_rank, uniq_per_rank)``."""
    nranks = int(counts.shape[0])
    vertices = _cic_numpy(grid, parts)
    particle_ranks = np.repeat(np.arange(nranks, dtype=np.int64), counts)
    cells = np.ascontiguousarray(vertices[0][:, :1].T)
    slots = ghost_slots_numpy(grid, node_owner, particle_ranks, cells)
    pair_of = slots.pair_of[0]
    summed = deposit_numpy(grid, parts, vertices, slots.dest, pair_of, out_row, slots.nodes.size)
    # a particle brings one ghost entry per off-rank vertex of its pair's
    # cell; a rank's pairs are one block of the (rank, cell) numbering, from
    # the smallest pair among its particles on (no particle-sized temporary)
    per_pair = np.bincount(pair_of, minlength=len(slots.dest))
    per_pair *= (slots.dest >= grid.nnodes).sum(axis=1)
    held = np.flatnonzero(counts)
    entries_per_rank = np.zeros(nranks, dtype=np.int64)
    if held.size:
        starts = np.cumsum(counts)[held] - counts[held]
        entries_per_rank[held] = np.add.reduceat(per_pair, np.minimum.reduceat(pair_of, starts))
    uniq_per_rank = np.bincount(slots.ranks, minlength=nranks)
    return summed, slots.ranks, slots.owners, slots.nodes, entries_per_rank, uniq_per_rank


def scatter_yee_numpy(grid, parts, counts, node_owner, out_row, x_old, y_old, dt):
    """The modern stepper's scatter as NumPy does it, fallback and oracle of
    the compiled pass's modern mode: zigzag ``jx``/``jy`` of the moves
    ``(x_old, y_old) -> (parts.x, parts.y)`` and CIC ``jz``/``rho`` at the
    new positions, into ``out_row`` ``(4, nnodes)`` in that channel order.

    The floats are the per-rank formulation's because the summation
    order is.  That formulation sums a rank's zigzag entries onto a dense
    mesh (sub-segment, face, particle order), multiplies by the cell area,
    turns the nonzeros into entries and feeds them with the CIC entries
    through an owner split and a ghost table.  Here an on-rank node
    receives its owner's entries only, so one bincount over the pooled
    on-rank entries is every rank's dense sum at the nodes it owns;
    off-rank entries are summed per ``(rank, node)`` slot in pooled entry
    order, which inside a slot is that same order.  The entry groups (jx,
    jy, CIC) fill disjoint channels, so they share one slot set (the
    pairs of both sub-segments' cells and the CIC cell) and none is padded
    with the others' rows; a slot left with nothing but currents that
    cancelled to exactly zero is dropped, as the dense form's nonzero
    filter drops it.  Returns ``(summed, slot ranks, slot owners, slot
    nodes, None, None)``.
    """
    nnodes, n = grid.nnodes, parts.n
    charge = np.multiply(parts.w, parts.q, out=_kept("charge", (n,)))
    # the jx and jy entry blocks of zigzag_entries_numpy, as (2, 4, n)
    nodes = _kept("zigzag_nodes", (2, 4, n), np.int64)
    values = _kept("zigzag_values", (2, 4, n))
    zigzag_entries_numpy(
        grid, x_old, y_old, parts.x, parts.y, charge, dt,
        out=(nodes[0], values[0], nodes[1], values[1]),
    )  # fmt: skip
    vertices = _cic_numpy(grid, parts)
    # the cells the entries hang off: both sub-segments', then the CIC one
    cells = _kept("scatter_cells", (3, n), np.int64)
    cells[0], cells[1], cells[2] = nodes[0, 0], nodes[0, 2], vertices[0][:, 0]
    particle_ranks = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    slots = ghost_slots_numpy(grid, node_owner, particle_ranks, cells)
    dest, pair_of = slots.dest, slots.pair_of
    summed = np.empty((4, slots.nodes.size))
    deposit_zigzag_entries(values.reshape(2, -1), dest, pair_of, out_row[:2], summed[:2])
    _, cic_values = deposition_entries(grid, parts, vertices, channels=(3, 0))
    deposit_by_destination(
        dest[pair_of[2]].ravel(), cic_values.reshape(2, -1), out_row[2:], summed[2:]
    )
    # the slots under a CIC entry: the off-rank vertices of the CIC pairs
    has_cic = np.zeros(nnodes + slots.nodes.size, dtype=bool)
    has_cic[dest[pair_of[2]]] = True
    out_row[:2] *= grid.dx
    out_row[:2] *= grid.dy
    # + 0.0: a product that underflowed to -0.0 reads +0.0 from a ghost table
    summed[:2] = summed[:2] * grid.dx * grid.dy + 0.0
    keep = has_cic[nnodes:] | (summed[0] != 0) | (summed[1] != 0)
    return summed[:, keep], slots.ranks[keep], slots.owners[keep], slots.nodes[keep], None, None


def deposit_numpy(grid, parts, vertices, dest, pair_of, out_row, nslots: int) -> np.ndarray:
    """The deposit of :func:`scatter_numpy`, also the NumPy body of the
    compiled ``deposit`` loop: the ``(4, n, 4)`` entry values, each
    entry's destination ``dest[pair_of]``, one ``bincount`` per channel.
    Fills ``out_row`` and returns the ``(4, nslots)`` ghost-slot sums."""
    _, values = deposition_entries(grid, parts, vertices)
    summed = np.empty((len(CHANNELS), nslots))
    deposit_by_destination(
        dest[pair_of].ravel(), values.reshape(len(CHANNELS), -1), out_row, summed
    )
    return summed


def merge_ghost_messages(acc: np.ndarray, batch: MessageBatch) -> None:
    """Add the *received* ghost messages into ``acc`` (``(nchannels, nnodes)``).

    Replays the per-rank oracle's order — destinations in rank order,
    sources sorted, ``acc[c] += bincount(ids, vals[c])`` per message — in
    one bincount per channel seeded with ``acc``.  Ids are unique inside
    a message and every entry of a node has that node's owner as
    destination, so the batch's ``(src, dst, node)`` order already hands
    each node its entries by ascending source: the oracle's ``((mine +
    v_src1) + v_src2) ...`` association, hence its floats, bit for bit
    (also when faults damaged what arrived).
    """
    nnodes = acc.shape[1]
    all_ids = np.concatenate((np.arange(nnodes), batch.ids))
    for c in range(acc.shape[0]):
        acc[c] = np.bincount(
            all_ids, weights=np.concatenate((acc[c], batch.values[c])), minlength=nnodes
        )


def reduce_rank_rows(rows: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """Add the deposition rows ``(nrows, nchannels, nnodes)`` into ``acc``.

    Rows of disjoint rank sets: a node is deposited on-rank only by its
    owner, so at most one row is nonzero per node and the sum is exact in
    any order, equals the per-rank oracle's (``tests/_looped_oracle.py``)
    ``for r in range(p): acc += bincount(rank r)``, and is independent
    of how ranks were cut into rows or shards.
    """
    for row in rows:
        acc += row
    return acc


def node_fields_numpy(planes, out: np.ndarray) -> np.ndarray:
    """The six ``(ny, nx)`` ``planes`` of E and B interleaved per node, into
    ``out`` ``(nnodes, 8)``: a node's six components then two zeros, one
    64-byte line that a vertex reads as one vector.  The NumPy body of the
    interleave that :func:`gather_push_slice` runs once per call."""
    out[:, :6] = np.reshape(planes, (6, -1)).T
    out[:, 6:] = 0.0
    return out


def gather_push_slice(grid, parts: ParticleArray, planes, dt: float, shards=None, cells=None):
    """Field gather + Boris push of the pooled particles ``parts``, in place,
    from the six ``(ny, nx)`` ``planes`` of E and B.

    Both operations are per-particle independent, so any cut of the pool
    produces bit-identical results.  One compiled pass of :mod:`repro.native`
    interleaves the planes per node (:func:`node_fields_numpy`: one copy of
    the mesh, which every shard reads), recomputes each particle's CIC from
    its positions (the scatter's, as positions only change here) — or,
    given ``cells`` ``(4, n)``, its four Yee stencils, whose cells it writes
    there (:func:`staggered_gather_numpy`) — interpolates and pushes, a
    chunk of particles at a time.  It is cut
    into ``shards`` (:class:`~repro.native.calls.Shards`) for their team
    to run (``None``: one shard, the calling thread); each shard reports
    how far it got, and where one stopped, at a chunk that raised a float
    exception or went non-finite, :func:`gather_push_numpy` pushes the rest
    of it, in shard order, on the calling thread.  Without the compiled
    pass, :func:`gather_push_numpy` over all of ``parts``: the shards laid
    end to end.
    """
    _check_push(parts, dt)
    if not parts.n:
        return
    compiled, shards = native.kernels(), shards or Shards.one(1, parts.n)
    found = compiled and compiled.gather_push(grid, parts, planes, float(dt), shards, cells)
    if found is None:
        fields = node_fields_numpy(planes, _kept("node_fields", (grid.nnodes, 8)))
        gather_push_numpy(grid, parts, fields, dt, cells)
        return
    for (start, end), done in zip(zip(shards.starts, shards.starts[1:]), shards.out[:, 0]):
        if start + done < end:
            rest = slice(int(start + done), int(end))
            stencils = None if cells is None else cells[:, rest]
            gather_push_numpy(grid, parts.slice_view(rest.start, rest.stop), found, dt, stencils)


def _check_push(parts: ParticleArray, dt: float) -> None:
    require(dt > 0, f"dt must be > 0, got {dt}")
    if parts.n and parts.m.min() <= 0:
        raise ValueError("boris_push requires strictly positive particle masses")


def gather_push_numpy(grid, parts: ParticleArray, fields: np.ndarray, dt: float, cells=None):
    """The NumPy body of :func:`gather_push_slice` after its validation,
    fallback and oracle of the compiled pass: the CIC evaluation, the
    interpolation of :func:`~repro.pic.interpolation.gather_from_node_values`
    from the first six columns of ``fields`` (given ``cells``,
    :func:`staggered_gather_numpy`) and ``push_numpy``."""
    eb = _kept("fields", (6, parts.n))
    if cells is not None:
        staggered_gather_numpy(grid, parts.x, parts.y, fields, eb, cells)
    else:
        nodes, weights = _cic_numpy(grid, parts)
        interpolate_numpy(fields[:, :6], nodes, weights, out=eb)
    push_numpy(grid, parts, eb[:3], eb[3:], dt)


def staggered_gather_numpy(grid, x, y, fields: np.ndarray, eb: np.ndarray, cells) -> None:
    """The six Yee-staggered components at ``(x, y)`` into ``eb`` ``(6, n)``,
    from the first six columns of the node block ``fields`` ``(nnodes, 8)``,
    and each stencil's cell (first vertex) into ``cells`` ``(4, n)``: the
    modern stepper's gather, and the interpolation of the compiled pass's
    Yee mode as NumPy does it.

    The six components share the four :data:`STENCILS` and those share two
    shifts per axis, so each axis is wrapped and floored once per shift.
    One stencil is alive at a time, and one component is interpolated per
    call, as the per-rank formulation rounds.
    """
    axes = {
        (axis, shift): grid.cic_axis(coords - shift * d, axis)
        for axis, coords, d in ((0, x, grid.dx), (1, y, grid.dy))
        for shift in (0.0, 0.5)
    }
    for k, ((sx, sy), rows) in enumerate(STENCILS):
        nodes, weights = grid.cic_from_axes(axes[0, sx], axes[1, sy])
        for row in rows:
            eb[row] = interpolate_numpy(fields[:, row : row + 1], nodes, weights)[0]
        cells[k] = nodes[:, 0]
