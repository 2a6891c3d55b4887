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

from repro import native
from repro.machine.batch import MessageBatch
from repro.machine.virtual import VirtualMachine
from repro.mesh.decomposition import MeshDecomposition
from repro.mesh.grid import Grid2D
from repro.parallel_exec.kernels import merge_ghost_messages
from repro.particles.arrays import ParticleArray, ParticlePool
from repro.pic.deposition import deposit_by_destination, deposition_entries, ghost_slots

# The e2e recorder (benchmarks/e2e/layers.py) rebinds deposition_entries,
# deposit_current_zigzag, gather_from_node_values and boris_push in this
# module by name, so they stay module attributes: the pooled scatter needs
# the entry lists, not the dense zigzag sum, and the staggered gather's
# NumPy body calls the interpolation's own body.
from repro.pic.interpolation import gather_from_node_values, interpolate_numpy  # noqa: F401
from repro.pic.parallel import PooledParticles
from repro.pic.push import boris_push
from repro.pic.yee import YeeSolver
from repro.pic.zigzag import (  # noqa: F401
    deposit_current_zigzag,
    deposit_zigzag_entries,
    zigzag_entries,
)
from repro.util import require

__all__ = ["ParallelYeePIC", "staggered_gather", "staggered_gather_numpy"]

#: The four distinct staggered stencils as ``(x shift, y shift)`` in
#: cells, each with the rows of the gathered ``(ex, ey, ez, bx, by, bz)``
#: block it interpolates.
_STENCILS = (
    ((0.5, 0.0), (0, 4)),  # ex, by
    ((0.0, 0.5), (1, 3)),  # ey, bx
    ((0.0, 0.0), (2,)),  # ez
    ((0.5, 0.5), (5,)),  # bz
)


def staggered_gather(
    grid: Grid2D,
    x: np.ndarray,
    y: np.ndarray,
    node_values: np.ndarray,
    eb: np.ndarray,
    cells: np.ndarray,
) -> None:
    """The six Yee-staggered components at ``(x, y)`` into ``eb`` ``(6, n)``,
    each stencil's cell (first vertex) into ``cells`` ``(4, n)``.

    ``node_values`` is ``(6, nnodes)``, one row per component.  One
    compiled pass when :mod:`repro.native` is active, with the bytes of
    :func:`staggered_gather_numpy` either way.
    """
    compiled = native.kernels()
    if compiled is None or not compiled.yee_gather(grid, x, y, node_values, eb, cells):
        staggered_gather_numpy(grid, x, y, node_values, eb, cells)


def staggered_gather_numpy(grid, x, y, node_values, eb, cells) -> None:
    """The NumPy body of :func:`staggered_gather`, fallback and oracle of
    the compiled pass (NumPy bodies only: the load-time self-check runs it).

    The six components share four stencils (:data:`_STENCILS`) and those
    share two shifts per axis, so each axis is wrapped and floored once per
    shift.  One stencil is alive at a time.
    """
    axes = {
        (axis, shift): grid.cic_axis(coords - shift * d, axis)
        for axis, coords, d in ((0, x, grid.dx), (1, y, grid.dy))
        for shift in (0.0, 0.5)
    }
    for k, ((sx, sy), rows) in enumerate(_STENCILS):
        nodes, weights = grid.cic_from_axes(axes[0, sx], axes[1, sy])
        for row in rows:  # one component per call, as the per-rank formulation rounds
            by_node = np.ascontiguousarray(node_values[row : row + 1].T)
            eb[row] = interpolate_numpy(by_node, nodes, weights)[0]
        cells[k] = nodes[:, 0]


class ParallelYeePIC(PooledParticles):
    """SPMD charge-conserving PIC stepper on a :class:`VirtualMachine`.

    One iteration is gather + push, scatter, field solve; an installed
    guard runs after the push and after the scatter.  Parameters mirror
    :class:`repro.pic.parallel.ParallelPIC` (Lagrangian movement only —
    combine with the usual :class:`~repro.core.redistribution.Redistributor`
    for dynamic redistribution).  ``ghost_table`` is validated as there,
    but this stepper keeps no per-rank ghost tables — its ghost sums are
    keyed by ``(rank, node)`` slots — so the choice changes neither its
    messages nor its accounting.

    The per-particle outputs (the interpolated fields, the stencil and
    scatter cells, the pre-push positions, the zigzag entry blocks and the
    CIC evaluation) live in blocks kept across steps and only ever grown,
    as the era stepper's do: fresh ones are page-faulted in every step.
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
        vm.charge_ops("scatter", ops_per_particle * self.pool.counts.astype(float))
        with vm.section("ghost_merge"):
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
    def _interpolate(self, pool: ParticlePool, node_values: np.ndarray):
        """The ``(6, n)`` fields at the pool's particles and the ``(4, n)``
        cells of their stencils (:func:`staggered_gather`), in kept blocks."""
        eb = self._kept("eb", (6, pool.n))
        cells = self._kept("cells", (len(_STENCILS), pool.n), np.int64)
        parts = pool.array
        staggered_gather(self.grid, parts.x, parts.y, node_values, eb, cells)
        return eb, cells

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
        pool = self.pool
        parts = pool.array
        node_values = self._field_node_values()
        with vm.phase("gather"):
            with vm.section("interpolate"):
                eb, cells = self._interpolate(pool, node_values)
            with vm.section("exchange"):
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
            x_old, y_old = self._kept("pre_push", (2, pool.n))
            np.copyto(x_old, parts.x)
            np.copyto(y_old, parts.y)
            self._pre_push = (pool, x_old, y_old)
            with vm.section("boris_push"):
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
        require(pool is self.pool, "particles were replaced between push and scatter")
        parts = pool.array
        n = pool.n
        acc = np.empty((4, nnodes))  # jx, jy, jz, rho (jx/jy face-centred)
        with self.vm.phase("scatter"):
            with self.vm.section("deposit"):
                charge = np.multiply(parts.w, parts.q, out=self._kept("charge", (n,)))
                # the jx and jy entry blocks of zigzag_entries, as (2, 4, n)
                nodes = self._kept("zigzag_nodes", (2, 4, n), np.int64)
                values = self._kept("zigzag_values", (2, 4, n))
                zigzag_entries(
                    grid, x_old, y_old, parts.x, parts.y, charge, self.dt,
                    out=(nodes[0], values[0], nodes[1], values[1]),
                )  # fmt: skip
                cic_nodes = self._kept("cic_nodes", (n, 4), np.int64)
                cic_out = (cic_nodes, self._kept("cic_weights", (n, 4)))
                vertices = grid.cic_vertices_weights(parts.x, parts.y, out=cic_out)
                # the cells the entries hang off: both sub-segments', then the CIC one
                cells = self._kept("scatter_cells", (3, n), np.int64)
                cells[0], cells[1], cells[2] = nodes[0, 0], nodes[0, 2], vertices[0][:, 0]
                slots = ghost_slots(grid, self.node_owner, pool.rank_of_particles(), cells)
                dest, pair_of = slots.dest, slots.pair_of
                summed = np.empty((4, slots.nodes.size))
                deposit_zigzag_entries(values.reshape(2, -1), dest, pair_of, acc[:2], summed[:2])
                self._deposit_cic(parts, vertices, dest, pair_of[2], acc, summed)
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

    def _deposit_cic(self, parts, vertices, dest, pair_of, acc, summed) -> None:
        """The CIC group: jz and rho (deposit channels 3 and 0) into rows 2
        and 3 of ``acc`` and ``summed``.  The compiled ``deposit`` computes
        all four channels, into a kept block, with the bytes of the entry
        lists and their ``bincount``s below."""
        compiled = native.kernels()
        both = self._kept("cic_acc", acc.shape)
        args = (dest, pair_of, both, summed.shape[1])
        found = compiled.deposit(parts, vertices[1], *args) if compiled is not None else None
        if found is None:
            _, cic_values = deposition_entries(self.grid, parts, vertices, channels=(3, 0))
            deposit_by_destination(
                dest[pair_of].ravel(), cic_values.reshape(2, -1), acc[2:], summed[2:]
            )
        else:
            acc[2], acc[3], summed[2], summed[3] = both[3], both[0], found[3], found[0]

    # ------------------------------------------------------------------
    def gauss_error(self) -> float:
        """Max |div E - rho| (machine precision by construction)."""
        return float(
            np.abs(self.solver.gauss_residual(self.fields, self.fields.rho)).max()
        )
