"""Segment kernels shared by the in-process path and the worker pool.

Every function here operates on a contiguous *rank-segment range* of the
particle pool and is written so that running it once over ``[0, p)``
(in-process execution) produces bit-identical results to running it
over any partition of ``[0, p)`` into shards (the worker backend) —
the determinism contract of DESIGN.md §5.5:

* per-element kernels (CIC vertices, deposition entries, field gather,
  Boris push, key classification) are chunk-oblivious by construction;
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

from repro.particles.arrays import MATRIX_COLUMNS, ParticleArray
from repro.pic.deposition import CHANNELS, deposition_entries, ghost_slots
from repro.pic.interpolation import gather_from_node_values
from repro.pic.push import boris_push

__all__ = [
    "scatter_segment",
    "deposit_on_rank",
    "deposit_by_slot",
    "ghost_messages",
    "merge_ghost_messages",
    "reduce_rank_rows",
    "gather_push_slice",
    "classify_chunk",
    "partition_segment_by_dest",
    "fill_sorted_matrix",
]


def scatter_segment(
    grid,
    parts: ParticleArray,
    counts: np.ndarray,
    r0: int,
    node_owner: np.ndarray,
    nnodes: int,
    out_row: np.ndarray,
):
    """Deposition work for the rank segments ``[r0, r0 + len(counts))``.

    Owner lookup and duplicate removal run on the distinct ``(rank,
    cell)`` pairs (:func:`~repro.pic.deposition.ghost_slots`), never on
    the entries; :func:`deposit_by_slot` then sums in pooled entry order,
    so the floats are those of per-rank ghost tables.

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
    nnodes:
        ``grid.nnodes`` (part of the shard-call signature; the ghost
        keys take their stride from ``grid``).
    out_row:
        ``(nchannels, nnodes)`` output — the covered ranks' on-rank
        deposition (see :func:`deposit_on_rank`).  Callers add shard
        rows via :func:`reduce_rank_rows`.

    Returns
    -------
    (cic, entries_per_rank, uniq_per_rank, messages):
        ``cic`` — the ``(nodes, weights)`` CIC evaluation (reused by the
        gather); ``entries_per_rank`` / ``uniq_per_rank`` — ghost-table
        tallies per covered rank; ``messages`` — per covered rank, a
        list of ``(owner, ids, values)`` coalesced ghost messages with
        node ids ascending inside each message.
    """
    nranks = int(counts.shape[0])
    nchannels = len(CHANNELS)
    vertices = grid.cic_vertices_weights(parts.x, parts.y)
    nodes, values = deposition_entries(grid, parts, vertices)
    particle_ranks = np.repeat(np.arange(nranks, dtype=np.int64), counts)
    uniq_ranks, uniq_nodes, slot, pair_of = ghost_slots(
        grid, node_owner, particle_ranks, nodes[:, :1].T, r0
    )
    summed = np.empty((nchannels, uniq_nodes.size))
    ghost_idx, _ = deposit_by_slot(
        slot[pair_of[0]].ravel(), nodes.ravel(), values.reshape(nchannels, -1), out_row, summed
    )
    # ghost_idx ascends and rank r's entries are [4 * offsets[r], 4 * offsets[r + 1])
    bounds = 4 * np.concatenate(([0], np.cumsum(counts)))
    entries_per_rank = np.diff(np.searchsorted(ghost_idx, bounds))
    uniq_per_rank = np.bincount(uniq_ranks, minlength=nranks)
    messages = ghost_messages(node_owner, nranks, uniq_ranks, uniq_nodes, summed)
    return vertices, entries_per_rank, uniq_per_rank, messages


def deposit_on_rank(
    ghost: np.ndarray, nodes: np.ndarray, values: np.ndarray, out_rows: np.ndarray
) -> np.ndarray:
    """Sum the entries whose depositing rank owns their node; return the rest.

    ``ghost`` marks the off-rank entries.  ``out_rows`` (``(nchannels,
    nnodes)``, overwritten) receives one bincount per channel over the
    others.  Every node's on-rank ("mine") entries come from the one
    rank that owns it and arrive in pool order, so no rank key is needed
    to keep ranks apart and the row equals the rank-ordered sum of
    per-rank bincounts bit for bit.  Returns the ghost entries' indices.
    """
    ghost_idx = np.flatnonzero(ghost)
    if ghost_idx.size:
        mine_idx = np.flatnonzero(~ghost)
        nodes = nodes.take(mine_idx)
        values = values.take(mine_idx, axis=1)
    for c in range(values.shape[0]):
        out_rows[c] = np.bincount(nodes, weights=values[c], minlength=out_rows.shape[1])
    return ghost_idx


def deposit_by_slot(
    slots: np.ndarray, nodes: np.ndarray, values: np.ndarray, acc: np.ndarray, summed: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum one entry group: on-rank entries (``slots < 0``) by node into
    ``acc`` (:func:`deposit_on_rank`), the others by ghost slot
    (:func:`~repro.pic.deposition.ghost_slots`) into ``summed``, both
    ``(nchannels, ...)``, overwritten, and both in entry order — inside a
    slot that is the order the depositing rank's own ghost table would
    have added in.  Returns the ghost entries' indices and slots."""
    ghost_idx = deposit_on_rank(slots >= 0, nodes, values, acc)
    slots = slots.take(ghost_idx)
    for c in range(len(values)):
        summed[c] = np.bincount(slots, weights=values[c].take(ghost_idx), minlength=summed.shape[1])
    return ghost_idx, slots


def ghost_messages(
    node_owner: np.ndarray,
    nranks: int,
    uniq_ranks: np.ndarray,
    uniq_nodes: np.ndarray,
    summed: np.ndarray,
) -> list[list[tuple[int, np.ndarray, np.ndarray]]]:
    """Coalesce deduplicated ghost entries into one message per (rank, owner).

    The entries arrive sorted by ``(rank, node)``
    (:func:`~repro.pic.deposition.ghost_slots`); one stable sort by
    ``(rank, owner)`` groups them into messages and keeps node ids
    ascending inside each.  Returns, per rank, its ``(owner, ids,
    values)`` messages in ascending owner order.
    """
    messages: list[list[tuple[int, np.ndarray, np.ndarray]]] = [[] for _ in range(nranks)]
    if uniq_nodes.size == 0:
        return messages
    stride = np.int64(node_owner.max()) + 1
    key = uniq_ranks * stride + node_owner[uniq_nodes]
    order = np.argsort(key, kind="stable")
    key = key.take(order)
    ids = uniq_nodes.take(order)
    vals = summed.take(order, axis=1)
    bounds = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1], [True])))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        rank, owner = divmod(int(key[lo]), int(stride))
        messages[rank].append(
            (owner, np.ascontiguousarray(ids[lo:hi]), np.ascontiguousarray(vals[:, lo:hi]))
        )
    return messages


def merge_ghost_messages(acc: np.ndarray, recv: list[dict]) -> np.ndarray:
    """Add the *received* ghost messages into ``acc`` (``(nchannels, nnodes)``).

    Replays the per-rank oracle's order — destinations in rank order,
    sources sorted, ``acc[c] += bincount(ids, vals[c])`` per message — in
    one bincount per channel: ids are unique inside a message, so seeding
    the bincount with ``acc`` and appending the messages gives every node
    the oracle's ``((mine + v_src1) + v_src2) ...`` association, hence
    its floats, bit for bit (also when faults damaged what arrived).
    Returns the number of merged entries per destination rank.
    """
    nnodes = acc.shape[1]
    merge_ops = np.zeros(len(recv))
    merge_ids = [np.arange(nnodes)]
    merge_vals = [acc]
    for r, inbox in enumerate(recv):
        for _, (ids, vals) in sorted(inbox.items()):
            merge_ids.append(ids)
            merge_vals.append(vals)
            merge_ops[r] += ids.size
    all_ids = np.concatenate(merge_ids)
    all_vals = np.concatenate(merge_vals, axis=1)
    for c in range(acc.shape[0]):
        acc[c] = np.bincount(all_ids, weights=all_vals[c], minlength=nnodes)
    return merge_ops


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
) -> None:
    """Field gather + Boris push for one contiguous pool slice, in place.

    Both operations are per-particle independent, so any slicing of the
    pool produces bit-identical results.  ``cic`` reuses the scatter's
    vertex evaluation for these particles (positions are unchanged
    between the phases).
    """
    if parts.n == 0:
        return
    if cic is None:
        cic = grid.cic_vertices_weights(parts.x, parts.y)
    nodes, weights = cic
    eb = gather_from_node_values(node_values, nodes, weights)
    boris_push(grid, parts, eb[:3], eb[3:], dt)


def classify_chunk(
    keys: np.ndarray,
    rank_of: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    splitters: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Incremental-sort classification of one chunk of elements.

    Returns ``(dest, same)``: the destination rank under the previous
    epoch's splitters and the still-in-own-bucket mask.  Pure
    per-element work (binary search + two comparisons).
    """
    dest = np.searchsorted(splitters, keys, side="left").astype(np.int64)
    same = (dest == rank_of) & (keys >= lows) & (keys <= highs)
    return dest, same


def partition_segment_by_dest(dest: np.ndarray):
    """Stable destination sort of one source-rank segment.

    Returns ``(order, uniq_dests, starts)`` — identical to restricting
    the pooled global stable sort by ``src * p + dest`` to this source
    segment (every key in a segment shares the ``src`` term).
    """
    order = np.argsort(dest, kind="stable")
    uniq, starts = np.unique(dest.take(order), return_index=True)
    return order, uniq, starts


def fill_sorted_matrix(parts: ParticleArray, order: np.ndarray, out: np.ndarray) -> None:
    """Write ``parts`` rows permuted by ``order`` into a transport matrix.

    Equivalent to ``parts.to_matrix().take(order, axis=0)`` without the
    intermediate copy; ``out`` is ``(n, 9)`` float64 (ids are cast, exact
    up to 2**53).
    """
    for j, name in enumerate(MATRIX_COLUMNS):
        out[:, j] = getattr(parts, name)[order]
