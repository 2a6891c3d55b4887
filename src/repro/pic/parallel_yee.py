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
   charge entries split into on-rank accumulation and ghost sums keyed
   by ``(rank, node)`` slots; one coalesced message per destination.
4. **Field solve.**  Halo exchange of the six staggered components,
   then the Yee update, charged per owned node.

The particle work of 1-3, the gather's request list included, is the
era stepper's two compiled passes in their modern modes
(:func:`~repro.parallel_exec.kernels.gather_push_slice`,
:func:`~repro.parallel_exec.kernels.scatter_segment`), sharded on the
simulation's backend alike.

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
from repro.parallel_exec.kernels import (
    STENCILS,
    gather_push_slice,
    merge_ghost_messages,
    scatter_segment,
)
from repro.particles.arrays import ParticleArray, ParticlePool
from repro.pic.deposition import CHANNELS

# The e2e recorder (benchmarks/e2e/layers.py) rebinds deposition_entries,
# deposit_current_zigzag, gather_from_node_values and boris_push in this
# module by name, so they stay module attributes, although the modern
# stepper's particle phases are the compiled scatter and gather + push.
from repro.pic.deposition import deposition_entries  # noqa: F401
from repro.pic.interpolation import gather_from_node_values  # noqa: F401
from repro.pic.parallel import PooledParticles
from repro.pic.push import boris_push  # noqa: F401
from repro.pic.yee import YeeSolver
from repro.pic.zigzag import deposit_current_zigzag  # noqa: F401
from repro.util import require

__all__ = ["ParallelYeePIC"]


class ParallelYeePIC(PooledParticles):
    """SPMD charge-conserving PIC stepper on a :class:`VirtualMachine`.

    One iteration is gather + push, scatter, field solve; an installed
    guard runs after the push and after the scatter.  Parameters mirror
    :class:`repro.pic.parallel.ParallelPIC` (Lagrangian movement only —
    combine with the usual :class:`~repro.core.redistribution.Redistributor`
    for dynamic redistribution), ``backend`` included: both particle
    phases are the era stepper's compiled passes in their modern modes,
    sharded on its team alike.  It takes no ``ghost_table``: it keeps no
    per-rank ghost tables, its ghost sums being keyed by ``(rank, node)``
    slots.

    The stencil cells and the pre-push positions live in blocks kept
    across steps and only ever grown, as the era stepper's do: fresh ones
    are page-faulted in every step.
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
        backend=None,
    ) -> None:
        super().__init__(vm, grid, decomp, local_particles, dt, backend)
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

    def _exchange_ghosts(self, acc: np.ndarray, batch: MessageBatch, ops: float) -> None:
        """Send the ghost messages ``batch``; merge what arrives into ``acc``."""
        vm = self.vm
        vm.charge_ops("scatter", ops * self.pool.counts.astype(float))
        with vm.section("ghost_merge"):
            merge_ghost_messages(acc, vm.exchange(batch))

    def _distributed_rho(self) -> None:
        """CIC charge deposition with ghost communication (rho only): the
        era scatter pass, of which the charge channel is kept and sent."""
        grid = self.grid
        pool = self.pool
        acc = np.empty((len(CHANNELS), grid.nnodes))
        with self.vm.phase("scatter"):
            _, _, _, sent = scatter_segment(grid, pool.array, pool.counts, self.node_owner, acc)
            batch = MessageBatch(sent.src, sent.dst, sent.offsets, sent.ids, sent.values[:1])
            self._exchange_ghosts(acc[:1], batch, 4.0)
        self.fields.rho = (acc[0] / (grid.dx * grid.dy)).reshape(grid.shape)

    # ------------------------------------------------------------------
    # gather (request/reply) + push
    # ------------------------------------------------------------------
    def gather_push(self) -> None:
        """Interpolate and push, with the request/reply round that fetches
        the off-rank field values.

        The staggered interpolation and the push are one compiled pass over
        the pool (:func:`~repro.parallel_exec.kernels.gather_push_slice` in
        its Yee mode), which any cut of the pool gives bit for bit: the
        particles read the global arrays, so the pass runs first.  A rank's
        request list is the sorted unique off-rank nodes of its particles'
        stencils, cut by owner — pooled: the sorted unique off-rank
        ``(rank, node)`` pairs of their four stencil cells, which the same
        pass numbers, shard by shard, once the shard is pushed, in
        ``(rank, owner, node)`` order: a batch as they stand.  The machine
        is charged the exchange, then the push, as an SPMD program runs
        them; a rank that fails at this gather fails before the push, so a
        salvaged run restarts the iteration from unpushed particles.
        """
        vm = self.vm
        pool = self.pool
        parts = pool.array
        f = self.fields
        planes = (f.ex, f.ey, f.ez, f.bx, f.by, f.bz)
        cells = self._kept("cells", (len(STENCILS), pool.n), np.int64)
        with vm.phase("gather"):
            vm.charge_ops("gather", 4.0 * pool.counts.astype(float))
            if vm.fault_injector is not None:  # what the request round would raise
                vm.fault_injector.pre_exchange(vm)
            x_old, y_old = self._kept("pre_push", (2, pool.n))
            np.copyto(x_old, parts.x)
            np.copyto(y_old, parts.y)
            self._pre_push = (pool, x_old, y_old)
            with vm.section("gather_push"):
                if self.backend is not None:
                    slots = self.backend.gather_push(pool, planes, self.dt, cells, self.node_owner)
                else:
                    slots = gather_push_slice(
                        self.grid, parts, planes, self.dt, None, cells, pool.counts, self.node_owner
                    )
            with vm.section("exchange"):
                # round 1: requests (node-id lists)
                requests = MessageBatch.coalesce(*slots)
                incoming = vm.exchange(requests)
                # round 2: replies (six component values per requested node;
                # tests verify the replies equal the owners' data)
                values = np.stack([np.ravel(a).take(incoming.ids) for a in planes])
                self._last_replies = vm.exchange(incoming.reply(values))
        with vm.phase("push"):
            vm.charge_ops("push", pool.counts.astype(float))

    # ------------------------------------------------------------------
    # scatter phase (zigzag currents + CIC charge)
    # ------------------------------------------------------------------
    def scatter(self) -> None:
        """Deposit zigzag ``jx``/``jy`` and CIC ``jz``/``rho`` of the latest push.

        One compiled pass over the pool's rank segments in its modern mode
        (:func:`~repro.parallel_exec.kernels.scatter_segment` with the
        pre-push positions; :func:`~repro.parallel_exec.kernels.scatter_yee_numpy`
        is its NumPy body and says why the floats are the per-rank
        formulation's), then the ghost exchange and merge.
        """
        grid = self.grid
        require(self._pre_push is not None, "scatter() follows gather_push()")
        (pool, x_old, y_old), self._pre_push = self._pre_push, None
        require(pool is self.pool, "particles were replaced between push and scatter")
        moved = (x_old, y_old, self.dt)
        with self.vm.phase("scatter"):
            with self.vm.section("deposit"):
                if self.backend is not None:
                    rows, _, _, batch = self.backend.scatter(pool, self.node_owner, moved)
                    acc = rows[0]
                else:
                    acc = np.empty((4, grid.nnodes))  # jx, jy, jz, rho (jx/jy face-centred)
                    _, _, _, batch = scatter_segment(
                        grid, pool.array, pool.counts, self.node_owner, acc, moved=moved
                    )
            self._exchange_ghosts(acc, batch, 8.0)
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
