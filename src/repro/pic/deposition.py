"""Scatter phase: cloud-in-cell charge and current deposition.

Each particle contributes to the 4 vertex nodes of its cell with
bilinear weights (the paper's Figure 3 ``Scatter()``), vectorized with
``numpy.bincount`` over flattened (node, weight*value) entry lists.

The entry-list form (:func:`deposition_entries`) is shared with the
parallel scatter, which must split entries into on-rank accumulation and
off-rank *ghost* contributions before communicating.

The parallel scatter runs deposition once over *all* ranks' pooled
particles.  Every entry is a vertex of its particle's cell, and a few
thousand distinct ``(rank, cell)`` pairs stand for hundreds of thousands
of entries, so the ghost bookkeeping — owner lookup, duplicate removal,
the unique off-rank ``(rank, node)`` *slots* — runs on the pairs
(:func:`ghost_slots`); an entry reaches its destination (its node, or
its slot) by table lookup and one ``bincount`` per channel sums on-rank
entries and duplicates at once (:func:`deposit_by_destination`), in
pooled entry order, which inside a slot is the order that rank's own
ghost table would have used.

Association contract: an entry is "mine" when the depositing rank owns
its node, so all of a node's on-rank entries come from one rank and the
per-rank partials have *disjoint support*.  The per-rank oracle
(``tests/_looped_oracle.py``) adds one bincount per rank; the pooled
scatter (and the shard threads' :mod:`repro.parallel_exec.kernels`)
runs one bincount over the pooled entries of a shard.  Either way a node
sees exactly its owner's entries in pool order plus zeros, so deposition
results are bit-identical to the oracle and across worker counts, not
merely close (DESIGN.md §5.5) — and nothing materialises a per-rank copy
of the mesh.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro import native
from repro.mesh.grid import Grid2D
from repro.particles.arrays import ParticleArray

__all__ = [
    "deposition_entries",
    "accumulate_entries",
    "deposit_charge_current",
    "pooled_ghost_keys",
    "GhostSlots",
    "ghost_slots",
    "ghost_slots_numpy",
    "deposit_by_destination",
]

#: Deposited source channels, in the order of the values matrix rows.
CHANNELS = ("rho", "jx", "jy", "jz")


def deposition_entries(
    grid: Grid2D,
    particles: ParticleArray,
    vertices: tuple[np.ndarray, np.ndarray] | None = None,
    channels: tuple[int, ...] = (0, 1, 2, 3),
) -> tuple[np.ndarray, np.ndarray]:
    """Compute per-(particle, vertex) deposition entries.

    Parameters
    ----------
    vertices:
        Optional precomputed ``(nodes, weights)`` from
        :meth:`~repro.mesh.grid.Grid2D.cic_vertices_weights` for these
        particles' current positions — the parallel stepper shares one
        CIC evaluation between its scatter and gather phases.
    channels:
        Which of :data:`CHANNELS` to build, as indices, in output row
        order (the charge-conserving stepper reads only jz and rho).

    Returns
    -------
    nodes:
        int64 array of shape ``(n, 4)`` — target node ids.
    values:
        float64 array of shape ``(len(channels), n, 4)`` — deposited
        amounts per channel (default rho, jx, jy, jz) per particle per
        vertex, i.e. ``weight_vertex * w * q * (1, vx, vy, vz)``.
    """
    if vertices is None:
        nodes, weights = grid.cic_vertices_weights(particles.x, particles.y)
    else:
        nodes, weights = vertices
    inv_gamma = 1.0 / particles.gamma()
    charge = particles.w * particles.q
    momenta = (None, particles.ux, particles.uy, particles.uz)
    per_particle = np.stack(
        [charge if c == 0 else charge * momenta[c] * inv_gamma for c in channels]
    )  # (channels, n)
    values = per_particle[:, :, None] * weights[None, :, :]  # (channels, n, 4)
    return nodes, values


def accumulate_entries(
    nnodes: int, nodes: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Sum entry lists onto the node grid.

    Parameters
    ----------
    nnodes:
        Total node count.
    nodes:
        int64 target node ids, any shape.
    values:
        float64 amounts with shape ``(4,) + nodes.shape``.

    Returns
    -------
    numpy.ndarray
        ``(4, nnodes)`` accumulated channels.
    """
    flat_nodes = np.asarray(nodes, dtype=np.int64).ravel()
    out = np.empty((len(CHANNELS), nnodes))
    for c in range(len(CHANNELS)):
        out[c] = np.bincount(flat_nodes, weights=values[c].ravel(), minlength=nnodes)
    return out


def pooled_ghost_keys(
    nnodes: int, entry_ranks: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``(rank, node)`` pairs of a pooled entry list.

    Keys every pair as ``rank * nnodes + node`` — O(entries) memory,
    never a rank-by-mesh block — and returns ``(uniq_nodes, uniq_ranks,
    inverse)``: the pairs sorted by rank then node, and each entry's
    index into them.
    """
    uniq, inverse = np.unique(entry_ranks * np.int64(nnodes) + nodes, return_inverse=True)
    uniq_ranks, uniq_nodes = np.divmod(uniq, np.int64(nnodes))
    return uniq_nodes, uniq_ranks, inverse


class GhostSlots(NamedTuple):
    """What :func:`ghost_slots` found."""

    ranks: np.ndarray  #: ``(nslots,)`` depositing rank of each off-rank slot
    owners: np.ndarray  #: ``(nslots,)`` rank that owns the slot's node
    nodes: np.ndarray  #: ``(nslots,)`` the slot's node
    #: ``(npairs, 4)`` per pair vertex, in :meth:`Grid2D.cell_vertices`
    #: order: the node where the pair's rank owns it, ``nnodes + slot`` otherwise
    dest: np.ndarray
    pair_of: np.ndarray  #: ``(k, n)`` each particle's pair per cell row


def ghost_slots(
    grid: Grid2D, node_owner: np.ndarray, particle_ranks: np.ndarray, cells: np.ndarray
) -> GhostSlots:
    """Ghost slots of the distinct ``(rank, cell)`` pairs behind ``cells``.

    Every stencil or deposition entry is a vertex of its particle's
    cell, so owner lookup and duplicate removal run on the pairs, never
    on the entries.  The pairs are numbered in ``(rank, cell)`` order and
    the off-rank ``(rank, node)`` pairs in ``(rank, owner, node)`` order,
    so each run of equal ``(rank, owner)`` is one coalesced message with
    ascending node ids and the slots are a
    :class:`~repro.machine.batch.MessageBatch` as they stand.

    ``node_owner`` is the ownership map, ``particle_ranks`` ``(n,)`` each
    particle's rank, ``cells`` ``(k, n)`` cell ids per particle, one row
    per entry group.  One compiled pass when
    :mod:`repro.native` is active and the ranks ascend, as a pool's do
    (O(entries) plus a sort of each rank's few distinct cells and
    off-rank vertices); :func:`ghost_slots_numpy` otherwise, with the
    same bytes.
    """
    compiled = native.kernels()
    args = (grid, node_owner, particle_ranks, cells)
    found = compiled.ghost_slots(*args) if compiled is not None else None
    return ghost_slots_numpy(*args) if found is None else GhostSlots(*found)


def ghost_slots_numpy(
    grid: Grid2D, node_owner: np.ndarray, particle_ranks: np.ndarray, cells: np.ndarray
) -> GhostSlots:
    """The NumPy body of :func:`ghost_slots`, fallback and oracle of the
    compiled pass: one ``np.unique`` over the particles' ``rank * nnodes
    + cell`` keys, one over the pairs' off-rank ``(rank, owner, node)``
    vertex keys.  A cell id outside the grid is an ``IndexError`` (its
    key would silently alias another rank's)."""
    if cells.size and not 0 <= cells.min() <= cells.max() < grid.ncells:
        raise IndexError(f"cell ids outside [0, {grid.ncells})")
    nnodes = np.int64(grid.nnodes)
    pair_cells, pair_ranks, pair_of = pooled_ghost_keys(
        nnodes, np.tile(particle_ranks, len(cells)), cells.ravel()
    )
    dest = grid.cell_vertices(pair_cells)
    owners = node_owner[dest]
    off = owners != pair_ranks[:, None]
    stride = np.int64(node_owner.max()) + 1
    rank_owner = np.broadcast_to(pair_ranks[:, None], off.shape)[off] * stride + owners[off]
    slot_nodes, rank_owner, inverse = pooled_ghost_keys(nnodes, rank_owner, dest[off])
    dest[off] = nnodes + inverse
    ranks, owners = np.divmod(rank_owner, stride)
    return GhostSlots(ranks, owners, slot_nodes, dest, pair_of.reshape(cells.shape))


def deposit_by_destination(
    dest: np.ndarray, values: np.ndarray, acc: np.ndarray, summed: np.ndarray
) -> None:
    """Sum one entry group by :attr:`GhostSlots.dest`, one ``bincount`` per
    channel: on-rank sums into ``acc`` ``(nchannels, nnodes)``, ghost
    slots' into ``summed`` ``(nchannels, nslots)``, both overwritten.

    Bins are disjoint and each is added to in entry order: a node sees
    its owner's entries in pool order (the rank-ordered sum of per-rank
    bincounts), a slot its rank's entries in the order that rank's own
    ghost table would have added them.
    """
    nnodes = acc.shape[1]
    for c in range(len(values)):
        both = np.bincount(dest, weights=values[c], minlength=nnodes + summed.shape[1])
        acc[c] = both[:nnodes]
        summed[c] = both[nnodes:]


def deposit_charge_current(
    grid: Grid2D, particles: ParticleArray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Full sequential scatter: deposit rho, jx, jy, jz onto the grid.

    Returns the four ``(ny, nx)`` arrays.  Deposited densities are per
    cell area (divided by ``dx * dy``) so a mean-density-1 plasma gives
    ``rho ~ -1``.
    """
    nodes, values = deposition_entries(grid, particles)
    acc = accumulate_entries(grid.nnodes, nodes, values)
    scale = 1.0 / (grid.dx * grid.dy)
    shaped = (acc * scale).reshape(len(CHANNELS), grid.ny, grid.nx)
    return shaped[0], shaped[1], shaped[2], shaped[3]
