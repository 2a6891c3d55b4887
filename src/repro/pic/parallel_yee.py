"""Parallel charge-conserving PIC: the modern loop on the 1996 machinery.

:class:`ParallelYeePIC` runs the Yee + zigzag loop of
:class:`repro.pic.yee.YeePIC` SPMD over the virtual machine, reusing the
paper's distribution framework (curve-block decomposition, aligned
particle partitions, ghost tables, halo schedules).  It demonstrates
that the paper's *data-distribution* contribution is independent of the
*kernel* generation: alignment pays off identically for a 2003-style
charge-conserving loop.

Communication structure per iteration:

1. **Gather (request/reply).**  The modern loop gathers *before* it
   scatters, so there is no scatter-derived ghost schedule to reuse
   (the paper's trick).  Instead each rank sends every owner the list
   of off-rank nodes its particles need (the union over the staggered
   component stencils), and owners reply with the six component values
   — the classic inspector/executor pattern, two message rounds.
2. **Push** — local.
3. **Scatter.**  Zigzag current entries (face-centred Jx, Jy) and CIC
   charge entries split into on-rank accumulation and per-component
   ghost tables; one coalesced message per destination.
4. **Field solve.**  Halo exchange of the six staggered components,
   then the Yee update, charged per owned node.

The discrete Gauss law holds to machine precision in the parallel runs
too — property-tested, along with numerical equivalence to the
sequential :class:`YeePIC`.

Pooled execution
----------------
As in :class:`~repro.pic.parallel.ParallelPIC`, all ranks' particles
live in one :class:`~repro.particles.arrays.ParticlePool` and every
phase is one vectorized pass over it; what a rank sends and is charged
is recovered from ``(rank, node)`` keys and segment boundaries.  The
formulation this replaced — each phase a ``for r in range(p)`` loop over
that rank's arrays and its own ghost table — is the oracle
``tests/_looped_oracle.py::LoopedYeePIC``, against which messages, op
charges, virtual clocks, particles and fields are pinned *equal*
(``tests/test_yee_pooled_parity.py``; the summation-order arguments are
in :meth:`ParallelYeePIC.scatter` and DESIGN.md §5.1).  Nothing here
allocates a rank-by-mesh block: memory is O(entries + nodes).
"""

from __future__ import annotations

import numpy as np

from repro.machine.batch import MessageBatch
from repro.machine.virtual import VirtualMachine
from repro.mesh.decomposition import MeshDecomposition
from repro.mesh.grid import Grid2D
from repro.obs.profile import maybe_section
from repro.parallel_exec.kernels import merge_ghost_messages
from repro.particles.arrays import ParticleArray, ParticlePool
from repro.pic.deposition import deposit_by_destination, deposition_entries, ghost_slots
from repro.pic.interpolation import gather_from_node_values
from repro.pic.parallel import PooledParticles
from repro.pic.push import boris_push
from repro.pic.yee import YeeSolver

# The pooled scatter needs the entry lists, not their dense sum; the dense
# form stays a module attribute because the e2e recorder
# (benchmarks/e2e/layers.py) rebinds it in this module by name.
from repro.pic.zigzag import (  # noqa: F401
    JX_VERTICES,
    JY_VERTICES,
    deposit_current_zigzag,
    zigzag_entries,
)
from repro.util import require

__all__ = ["ParallelYeePIC"]

#: The four distinct staggered stencils as ``(x shift, y shift)`` in
#: cells, each with the rows of the gathered ``(ex, ey, ez, bx, by, bz)``
#: block it interpolates.
_STENCILS = (
    ((0.5, 0.0), (0, 4)),  # ex, by
    ((0.0, 0.5), (1, 3)),  # ey, bx
    ((0.0, 0.0), (2,)),  # ez
    ((0.5, 0.5), (5,)),  # bz
)


class ParallelYeePIC(PooledParticles):
    """SPMD charge-conserving PIC stepper on a :class:`VirtualMachine`.

    One iteration is gather + push, scatter, field solve; an installed
    guard runs after the push and after the scatter.  Parameters mirror
    :class:`repro.pic.parallel.ParallelPIC` (Lagrangian movement only —
    combine with the usual :class:`~repro.core.redistribution.Redistributor`
    for dynamic redistribution).
    """

    SOLVER = YeeSolver
    PHASES = ("gather_push", "scatter", "field_solve")

    def __init__(
        self,
        vm: VirtualMachine,
        grid: Grid2D,
        decomp: MeshDecomposition,
        local_particles: list[ParticleArray],
        *,
        dt: float | None = None,
        ghost_table: str = "hash",
    ) -> None:
        require(ghost_table in ("hash", "direct"), f"unknown ghost table kind {ghost_table!r}")
        super().__init__(vm, grid, decomp, local_particles, dt)
        # ``(pool, x, y)`` before the latest push, consumed by the scatter
        self._pre_push: tuple[ParticlePool, np.ndarray, np.ndarray] | None = None
        # consistent electrostatic initial condition (setup)
        self._distributed_rho()
        self.fields.ex, self.fields.ey = self.solver.initial_e_from_rho(self.fields.rho)
        # what the latest gather's reply round delivered (see last_gather_replies)
        self._last_replies: MessageBatch | None = None

    # ------------------------------------------------------------------
    @property
    def last_gather_replies(self) -> list[dict[int, tuple[np.ndarray, np.ndarray]]]:
        """Test hook: ``[requester][owner]``, the ``(ids, values)`` last replied."""
        return self._received(self._last_replies)

    def _exchange_ghosts(self, acc: np.ndarray, slots, summed, ops_per_particle: float) -> None:
        """Send the slot sums as coalesced messages; merge what arrives into ``acc``."""
        vm = self.vm
        batch = MessageBatch.coalesce(slots.ranks, slots.owners, slots.nodes, summed)
        vm.charge_ops("scatter", ops_per_particle * self._pool.counts.astype(float))
        with maybe_section(self.profiler, "ghost_merge"):
            merge_ghost_messages(acc, vm.exchange(batch))

    def _distributed_rho(self) -> None:
        """CIC charge deposition with ghost communication (rho only)."""
        grid = self.grid
        pool = self.pool
        parts = pool.array
        acc = np.empty((1, grid.nnodes))
        with self.vm.phase("scatter"):
            nodes, weights = grid.cic_vertices_weights(parts.x, parts.y)
            values = (weights * (parts.w * parts.q)[:, None]).reshape(1, -1)
            cells = np.ascontiguousarray(nodes[:, :1].T)
            slots = ghost_slots(grid, self.node_owner, pool.rank_of_particles(), cells)
            summed = np.empty((1, slots.nodes.size))
            deposit_by_destination(slots.dest[slots.pair_of[0]].ravel(), values, acc, summed)
            self._exchange_ghosts(acc, slots, summed, 4.0)
        self.fields.rho = (acc[0] / (grid.dx * grid.dy)).reshape(grid.shape)

    # ------------------------------------------------------------------
    # gather (request/reply) + push
    # ------------------------------------------------------------------
    def _interpolate(self, pool: ParticlePool, node_values: np.ndarray, eb: np.ndarray):
        """Fill ``eb`` (6, n); return the ``(4, n)`` cells of the stencils.

        The six components share four stencils and those share two
        shifts per axis, so each axis is wrapped and floored once per
        shift.  One stencil is alive at a time.
        """
        grid = self.grid
        parts = pool.array
        cached, self._cic_pool_cache = self._cic_pool_cache, None  # the push moves particles
        axes = {
            (axis, shift): grid.cic_axis(coords - shift * d, axis)
            for axis, coords, d in ((0, parts.x, grid.dx), (1, parts.y, grid.dy))
            for shift in (0.0, 0.5)
        }
        cells = np.empty((len(_STENCILS), pool.n), dtype=np.int64)
        for k, ((sx, sy), rows) in enumerate(_STENCILS):
            if sx == sy == 0.0 and cached is not None and cached[0] is pool:
                nodes, weights = cached[1:]
            else:
                nodes, weights = grid.cic_from_axes(axes[0, sx], axes[1, sy])
            for row in rows:  # one component per call, as the per-rank formulation rounds
                eb[row] = gather_from_node_values(node_values[row : row + 1], nodes, weights)[0]
            cells[k] = nodes[:, 0]
        return cells

    def gather_push(self) -> None:
        """Fetch off-rank field values, interpolate, push.

        A rank's request list is the sorted unique off-rank nodes of its
        particles' stencils, cut by owner — pooled: the sorted unique
        off-rank ``(rank, node)`` pairs (:func:`~repro.pic.deposition.ghost_slots`),
        which come out in ``(rank, owner, node)`` order: a batch as they stand.
        Interpolation and push are per-particle independent, so one call
        over the pool equals ``p`` calls over its segments bit for bit.
        """
        vm = self.vm
        prof = self.profiler
        pool = self.pool
        parts = pool.array
        node_values = self._field_node_values()
        eb = np.empty((6, pool.n))
        with vm.phase("gather"):
            with maybe_section(prof, "interpolate"):
                cells = self._interpolate(pool, node_values, eb)
            with maybe_section(prof, "exchange"):
                slots = ghost_slots(self.grid, self.node_owner, pool.rank_of_particles(), cells)
                vm.charge_ops("gather", 4.0 * pool.counts.astype(float))
                # round 1: requests (node-id lists)
                requests = MessageBatch.coalesce(slots.ranks, slots.owners, slots.nodes)
                incoming = vm.exchange(requests)
                # round 2: replies (six component values per requested node)
                # (the particles read the same values from the global
                # arrays; tests verify the replies equal the owners' data)
                self._last_replies = vm.exchange(
                    incoming.reply(node_values.take(incoming.ids, axis=1))
                )
        with vm.phase("push"):
            vm.charge_ops("push", pool.counts.astype(float))
            self._pre_push = (pool, parts.x.copy(), parts.y.copy())
            with maybe_section(prof, "boris_push"):
                if pool.n:
                    boris_push(self.grid, parts, eb[:3], eb[3:], self.dt)

    # ------------------------------------------------------------------
    # scatter phase (zigzag currents + CIC charge)
    # ------------------------------------------------------------------
    def scatter(self) -> None:
        """Deposit zigzag ``jx``/``jy`` and CIC ``jz``/``rho`` of the latest push.

        The floats are the per-rank formulation's because the summation
        order is.  That formulation sums a rank's zigzag entries onto a
        dense mesh (sub-segment, face, particle order), multiplies by the
        cell area, turns the nonzeros into entries and feeds them with
        the CIC entries through an owner split and a ghost table.  Here
        an on-rank node receives its owner's entries only, so one
        bincount over the pooled on-rank entries is every rank's dense
        sum at the nodes it owns; off-rank entries are summed per
        ``(rank, node)`` slot in pooled entry order, which inside a slot
        is that same order.  The entry groups (jx, jy, CIC) fill disjoint
        channels, so they share one slot set and none is padded with the
        others' rows; a slot left with nothing but currents that
        cancelled to exactly zero is dropped, as the dense form's nonzero
        filter drops it.
        """
        grid = self.grid
        nnodes = grid.nnodes
        require(self._pre_push is not None, "scatter() follows gather_push()")
        (pool, x_old, y_old), self._pre_push = self._pre_push, None
        require(pool.owns(self.particles), "particles were replaced between push and scatter")
        parts = pool.array
        n = pool.n
        acc = np.empty((4, nnodes))  # jx, jy, jz, rho (jx/jy face-centred)
        with self.vm.phase("scatter"):
            with maybe_section(self.profiler, "deposit"):
                jx_nodes, jx_values, jy_nodes, jy_values = zigzag_entries(
                    grid, x_old, y_old, parts.x, parts.y, parts.w * parts.q, self.dt
                )
                vertices = grid.cic_vertices_weights(parts.x, parts.y)
                self._cic_pool_cache = (pool,) + vertices
                cic_nodes = vertices[0]
                # the cells the entries hang off: both sub-segments', then the CIC one
                cells = np.stack((jx_nodes[:n], jx_nodes[2 * n : 3 * n], cic_nodes[:, 0]))
                slots = ghost_slots(grid, self.node_owner, pool.rank_of_particles(), cells)
                dest, pair_of = slots.dest, slots.pair_of
                summed = np.empty((4, slots.nodes.size))
                # one group alive at a time: its entries die before the next one's are born
                segment_pair = pair_of[:2].repeat(2, axis=0)  # per zigzag entry row
                entry_dest = dest[segment_pair, np.reshape(JX_VERTICES, (4, 1))].ravel()
                deposit_by_destination(entry_dest, jx_values[None], acc[:1], summed[:1])
                del jx_nodes, jx_values
                entry_dest = dest[segment_pair, np.reshape(JY_VERTICES, (4, 1))].ravel()
                deposit_by_destination(entry_dest, jy_values[None], acc[1:2], summed[1:2])
                del jy_nodes, jy_values, segment_pair
                _, cic_values = deposition_entries(grid, parts, vertices, channels=(3, 0))
                deposit_by_destination(
                    dest[pair_of[2]].ravel(), cic_values.reshape(2, -1), acc[2:], summed[2:]
                )
                del cic_values, entry_dest
                # the slots under a CIC entry: the off-rank vertices of the CIC pairs
                cic_pairs = np.zeros(len(dest), dtype=bool)
                cic_pairs[pair_of[2]] = True
                has_cic = np.zeros(nnodes + slots.nodes.size, dtype=bool)
                has_cic[dest[cic_pairs]] = True
                acc[:2] *= grid.dx
                acc[:2] *= grid.dy
                # + 0.0: a product that underflowed to -0.0 reads +0.0 from a ghost table
                summed[:2] = summed[:2] * grid.dx * grid.dy + 0.0
                keep = has_cic[nnodes:] | (summed[0] != 0) | (summed[1] != 0)
                if not keep.all():
                    slots = slots._replace(
                        ranks=slots.ranks[keep], owners=slots.owners[keep], nodes=slots.nodes[keep]
                    )
                    summed = summed[:, keep]
            self._exchange_ghosts(acc, slots, summed, 8.0)
        scale = 1.0 / (grid.dx * grid.dy)
        self.fields.jx = (acc[0] * scale).reshape(grid.shape)
        self.fields.jy = (acc[1] * scale).reshape(grid.shape)
        self.fields.jz = (acc[2] * scale).reshape(grid.shape)
        self.fields.rho = (acc[3] * scale).reshape(grid.shape)

    # ------------------------------------------------------------------
    def gauss_error(self) -> float:
        """Max |div E - rho| (machine precision by construction)."""
        return float(
            np.abs(self.solver.gauss_residual(self.fields, self.fields.rho)).max()
        )
