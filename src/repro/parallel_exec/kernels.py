"""Segment kernels shared by the in-process path and the shard threads.

Every function here operates on a contiguous *rank-segment range* of the
particle pool and is written so that running it once over ``[0, p)``
(in-process execution) produces bit-identical results to running it
over any partition of ``[0, p)`` into shards (the thread backend) —
the determinism contract of DESIGN.md §5.5:

* per-element kernels (CIC vertices, deposition entries, field gather,
  Boris push) are chunk-oblivious by construction;
* the only true floating-point reductions — on-rank deposition
  accumulation and ghost duplicate-removal sums — never mix ranks.  A
  node's on-rank ("mine") entries all come from the one rank that owns
  it, so per-rank partials have **disjoint support**: one bincount over
  a shard's pooled entries adds, per node, exactly the owner's entries
  in pool order, and :func:`reduce_rank_rows` only ever adds zeros to
  it.  Ghost sums are keyed by ``(rank, node)``.  Worker shards are
  unions of whole rank segments, so the addition sequence per node
  never depends on the worker count — at O(entries + nodes) per shard,
  with no per-rank copy of the mesh.
"""

from __future__ import annotations

import numpy as np

from repro import native
from repro.machine.batch import MessageBatch
from repro.particles.arrays import ParticleArray
from repro.pic.deposition import CHANNELS, deposit_by_destination, deposition_entries, ghost_slots
from repro.pic.interpolation import gather_from_node_values
from repro.pic.push import boris_push

__all__ = [
    "scatter_segment",
    "deposit_numpy",
    "merge_ghost_messages",
    "reduce_rank_rows",
    "gather_push_slice",
]


def scatter_segment(
    grid,
    parts: ParticleArray,
    counts: np.ndarray,
    r0: int,
    node_owner: np.ndarray,
    out_row: np.ndarray,
    cic_out: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Deposition work for the rank segments ``[r0, r0 + len(counts))``.

    Owner lookup and duplicate removal run on the distinct ``(rank,
    cell)`` pairs (:func:`~repro.pic.deposition.ghost_slots`), never on
    the entries; every entry is then added to its destination in pooled
    entry order, so the floats are those of per-rank ghost tables — by
    the compiled ``deposit`` loop of :mod:`repro.native`, which never
    materialises the entries, or by its NumPy body
    (:func:`deposit_numpy`), bit for bit the same.  ``cic_out``: the
    ``(nodes, weights)`` buffers the CIC evaluation is written into.

    Parameters
    ----------
    parts:
        The pooled particles of these segments (a contiguous pool slice).
    counts:
        Per-rank particle counts of the covered segments.
    r0:
        Global rank id of the first covered segment.
    node_owner:
        Global node-ownership map.
    out_row:
        ``(nchannels, nnodes)`` output — the covered ranks' on-rank
        deposition.  Callers add shard rows via :func:`reduce_rank_rows`.

    Returns
    -------
    (cic, entries_per_rank, uniq_per_rank, batch):
        ``cic`` — the ``(nodes, weights)`` CIC evaluation (reused by the
        gather); ``entries_per_rank`` / ``uniq_per_rank`` — ghost-table
        tallies per covered rank; ``batch`` — the coalesced ghost
        messages (global ranks, node ids ascending inside each message).
    """
    nranks = int(counts.shape[0])
    vertices = grid.cic_vertices_weights(parts.x, parts.y, out=cic_out)
    particle_ranks = np.repeat(np.arange(nranks, dtype=np.int64), counts)
    cells = np.ascontiguousarray(vertices[0][:, :1].T)
    slots = ghost_slots(grid, node_owner, particle_ranks, cells, r0)
    deposit_args = (slots.dest, slots.pair_of[0], out_row, slots.nodes.size)
    compiled = native.kernels()
    summed = compiled.deposit(parts, vertices[1], *deposit_args) if compiled is not None else None
    if summed is None:
        summed = deposit_numpy(grid, parts, vertices, *deposit_args)
    # a particle brings one ghost entry per off-rank vertex of its pair's
    # cell; a rank's pairs are one block of the (rank, cell) numbering, from
    # the smallest pair among its particles on (no particle-sized temporary)
    pair_of = slots.pair_of[0]
    per_pair = np.bincount(pair_of, minlength=len(slots.dest))
    per_pair *= (slots.dest >= grid.nnodes).sum(axis=1)
    held = np.flatnonzero(counts)
    entries_per_rank = np.zeros(nranks, dtype=np.int64)
    if held.size:
        starts = np.cumsum(counts)[held] - counts[held]
        entries_per_rank[held] = np.add.reduceat(per_pair, np.minimum.reduceat(pair_of, starts))
    uniq_per_rank = np.bincount(slots.ranks, minlength=nranks)
    batch = MessageBatch.coalesce(slots.ranks + np.int64(r0), slots.owners, slots.nodes, summed)
    return vertices, entries_per_rank, uniq_per_rank, batch


def deposit_numpy(grid, parts, vertices, dest, pair_of, out_row, nslots: int) -> np.ndarray:
    """The NumPy body of the deposit in :func:`scatter_segment`, fallback
    and oracle of the compiled loop: the ``(4, n, 4)`` entry values, each
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
    """Add the per-shard deposition rows ``(nshards, nchannels, nnodes)``.

    Shards cover disjoint rank sets and a node is deposited on-rank only
    by its owner, so at most one row is nonzero per node: the sum is
    exact in any order, equals the per-rank oracle's
    (``tests/_looped_oracle.py``)
    ``for r in range(p): acc += bincount(rank r)``, and is independent
    of how ranks were sharded across workers.
    """
    for row in rows:
        acc += row
    return acc


def gather_push_slice(
    grid,
    parts: ParticleArray,
    node_values: np.ndarray,
    dt: float,
    cic: tuple[np.ndarray, np.ndarray] | None = None,
    out: np.ndarray | None = None,
) -> None:
    """Field gather + Boris push for one contiguous pool slice, in place.

    Both operations are per-particle independent, so any slicing of the
    pool produces bit-identical results.  ``cic`` reuses the scatter's
    vertex evaluation for these particles (positions are unchanged
    between the phases); ``out`` is the ``(6, n)`` buffer the
    interpolated fields are written into.
    """
    if parts.n == 0:
        return
    if cic is None:
        cic = grid.cic_vertices_weights(parts.x, parts.y)
    nodes, weights = cic
    eb = gather_from_node_values(node_values, nodes, weights, out=out)
    boris_push(grid, parts, eb[:3], eb[3:], dt)
