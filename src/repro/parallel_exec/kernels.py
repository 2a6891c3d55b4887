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
from repro.util import require

__all__ = [
    "scatter_segment",
    "scatter_numpy",
    "deposit_numpy",
    "merge_ghost_messages",
    "reduce_rank_rows",
    "node_fields_numpy",
    "gather_push_slice",
    "gather_push_numpy",
]

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
    r0: int,
    node_owner: np.ndarray,
    out_row: np.ndarray,
    shards=None,
):
    """Deposition work for the rank segments ``[r0, r0 + len(counts))``.

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
        The pooled particles of these segments (a contiguous pool slice).
    counts:
        Per-rank particle counts of the covered segments (int64).
    r0:
        Global rank id of the first covered segment.
    node_owner:
        Global node-ownership map.
    out_row:
        ``(nchannels, nnodes)`` output — the covered ranks' on-rank
        deposition, which callers add via :func:`reduce_rank_rows`.
    shards:
        A :class:`~repro.native.calls.Shards` cutting the compiled pass at
        rank cuts for a team to run (one call, one output, whatever the
        cut); ``None`` and the NumPy body: the calling thread, in one go.

    Returns
    -------
    (out_row, entries_per_rank, uniq_per_rank, batch):
        ``out_row`` filled; ``entries_per_rank`` / ``uniq_per_rank`` —
        ghost-table tallies per covered rank; ``batch`` — the coalesced
        ghost messages (global ranks, node ids ascending inside each
        message).
    """
    compiled = native.kernels()
    args = (grid, parts, counts, r0, node_owner, out_row)
    found = compiled.scatter(*args, shards) if compiled is not None else None
    summed, ranks, owners, nodes, entries_per_rank, uniq_per_rank = found or scatter_numpy(*args)
    batch = MessageBatch.coalesce(ranks + np.int64(r0), owners, nodes, summed)
    return out_row, entries_per_rank, uniq_per_rank, batch


def scatter_numpy(grid, parts, counts, r0, node_owner, out_row):
    """The NumPy body of :func:`scatter_segment`, fallback and oracle of the
    compiled pass: the CIC evaluation, :func:`~repro.pic.deposition.ghost_slots_numpy`
    of the particles' cells and :func:`deposit_numpy`.  Fills ``out_row``
    and returns ``(summed, slot ranks, slot owners, slot nodes,
    entries_per_rank, uniq_per_rank)``, ranks counted from ``r0``."""
    nranks = int(counts.shape[0])
    vertices = _cic_numpy(grid, parts)
    particle_ranks = np.repeat(np.arange(nranks, dtype=np.int64), counts)
    cells = np.ascontiguousarray(vertices[0][:, :1].T)
    slots = ghost_slots_numpy(grid, node_owner, particle_ranks, cells, r0)
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


def gather_push_slice(grid, parts: ParticleArray, planes, dt: float, shards=None) -> None:
    """Field gather + Boris push of the pooled particles ``parts``, in place,
    from the six ``(ny, nx)`` ``planes`` of E and B.

    Both operations are per-particle independent, so any cut of the pool
    produces bit-identical results.  One compiled pass of :mod:`repro.native`
    interleaves the planes per node (:func:`node_fields_numpy`: one copy of
    the mesh, which every shard reads), recomputes each particle's CIC from
    its positions (the scatter's, as positions only change here),
    interpolates and pushes, a chunk of particles at a time.  It is cut
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
    found = compiled and compiled.gather_push(grid, parts, planes, float(dt), shards)
    if found is None:
        fields = node_fields_numpy(planes, _kept("node_fields", (grid.nnodes, 8)))
        gather_push_numpy(grid, parts, fields, dt)
        return
    for (start, end), done in zip(zip(shards.starts, shards.starts[1:]), shards.out[:, 0]):
        if start + done < end:
            gather_push_numpy(grid, parts.slice_view(int(start + done), int(end)), found, dt)


def _check_push(parts: ParticleArray, dt: float) -> None:
    require(dt > 0, f"dt must be > 0, got {dt}")
    if parts.n and parts.m.min() <= 0:
        raise ValueError("boris_push requires strictly positive particle masses")


def gather_push_numpy(grid, parts: ParticleArray, fields: np.ndarray, dt: float) -> None:
    """The NumPy body of :func:`gather_push_slice` after its validation,
    fallback and oracle of the compiled pass: the CIC evaluation, the
    interpolation of :func:`~repro.pic.interpolation.gather_from_node_values`
    from the first six columns of ``fields`` and ``push_numpy``."""
    nodes, weights = _cic_numpy(grid, parts)
    eb = interpolate_numpy(fields[:, :6], nodes, weights, out=_kept("fields", (6, parts.n)))
    push_numpy(grid, parts, eb[:3], eb[3:], dt)
