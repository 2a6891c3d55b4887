"""Parallel PIC: the four phases SPMD over the virtual machine.

Implements the paper's target configuration — direct **Lagrangian**
particle movement with **independent partitioning** — plus the direct
**Eulerian** alternative for the Table 1 strategy comparison:

* Scatter: each rank deposits its particles' contributions; entries for
  nodes owned by other ranks pass through a ghost table (duplicate
  removal + coalescing into one message per destination) before the
  all-to-many exchange.
* Field solve: one halo exchange of the node fields along subdomain
  boundaries, then the FDTD update, charged per owned node.
* Gather: owners return E and B at exactly the ghost nodes recorded in
  the scatter phase (the paper's "same ghost grid points ... the
  communication behavior is just the inverse of the scatter phase"),
  then each rank interpolates and
* Push: advances its particles (no communication under Lagrangian
  movement; under Eulerian movement particles migrate to the owner of
  their new cell each step).

Field arrays are held once per machine (not once per rank) with
ownership semantics: every value a rank reads across a subdomain
boundary is *physically communicated* first, and the integration tests
assert that the received buffers equal the owners' data and that the
whole parallel run matches :class:`repro.pic.sequential.SequentialPIC`.

Pooled execution
----------------
All ranks' particles live in one
:class:`~repro.particles.arrays.ParticlePool` with segment offsets, and
scatter / gather / push / Eulerian migration each run as *single*
vectorized NumPy passes over the pool (owner/ghost split and duplicate
removal on the distinct ``(rank, cell)`` pairs the particles occupy,
one ``bincount`` per channel over the resulting ghost slots, one Boris
push).  Per-rank results are recovered from the slots' rank order and
by slicing at segment boundaries.

The reference formulation — every phase iterating ``for r in range(p)``
over that rank's arrays, exactly as a real SPMD program would — is the
per-rank oracle (``tests/_looped_oracle.py``).  The pooled passes are
**accounting-invariant** against it: the same per-rank op counts charged
in the same order, byte-identical messages, hence equal ``vm.elapsed()``,
``vm.ops`` and communication statistics, and bit-equal particles and
fields.  ``tests/test_engine_parity.py`` pins this contract.
"""

from __future__ import annotations

import math

import numpy as np

from repro.machine.batch import MessageBatch
from repro.machine.virtual import VirtualMachine
from repro.mesh.decomposition import MeshDecomposition
from repro.mesh.fields import FieldState
from repro.mesh.halo import HaloSchedule
from repro.particles.arrays import ParticleArray, ParticlePool
from repro.pic.deposition import CHANNELS
from repro.pic.ghost import GHOST_TABLES

# The e2e recorder (benchmarks/e2e/layers.py) rebinds gather_from_node_values
# and boris_push in this module by name, so they stay module attributes
# although the era gather + push is one compiled pass (gather_push_slice).
from repro.pic.interpolation import gather_from_node_values  # noqa: F401
from repro.pic.maxwell import MaxwellSolver
from repro.pic.poisson import PoissonSolver
from repro.pic.push import boris_push  # noqa: F401
from repro.pic.smoothing import binomial_smooth
from repro.machine.collectives import exchange_by_destination_pooled
from repro.parallel_exec.kernels import (
    gather_push_slice,
    merge_ghost_messages,
    reduce_rank_rows,
    scatter_segment,
)
from repro.util import require

__all__ = ["ParallelPIC", "PooledParticles"]


class PooledParticles:
    """A distributed stepper: one particle pool, one machine, one phase loop.

    The base owns what every pooled stepper has — the machine, mesh and
    decomposition, the particle ``pool`` (``particles`` is a read-only
    view of it), the fields with their halo schedule and ownership maps,
    the solver and its time step, the dormant ``guard`` hook — and runs
    :meth:`step` over the phase order a subclass declares in ``PHASES``.
    A subclass supplies the bodies that differ (``scatter``,
    ``gather_push``) and names its Maxwell-type solver in ``SOLVER``.

    Parameters
    ----------
    vm:
        The virtual machine (defines ``p`` and the cost model).
    grid:
        Mesh geometry.
    decomp:
        Mesh decomposition (ownership of cells/nodes).
    local_particles:
        Initial per-rank particle sets (length ``vm.p``), or a
        :class:`~repro.particles.arrays.ParticlePool` adopted as it is.
    dt:
        Time step; defaults to 90% of the solver's CFL limit.
    backend:
        A :class:`~repro.parallel_exec.FlatBackend` whose team runs the
        compiled particle passes (``None``: the calling thread); results
        are bit-identical either way (DESIGN.md §5.5).  The caller keeps
        ownership (:class:`~repro.pic.simulation.Simulation` shares one
        across rank-failure recoveries) and closes it.
    """

    #: solver class, called with the grid (``cfl_limit`` / ``validate_dt`` / ``step``)
    SOLVER = None
    #: names of the phase methods of one :meth:`step`, in order
    PHASES: tuple[str, ...] = ()
    #: guard hook that runs right after a phase: the two points where
    #: transport faults or kernel bugs would otherwise silently poison the
    #: physics (deposited sources finite; particles conserved and finite)
    GUARD_HOOKS = {"scatter": "after_scatter", "gather_push": "after_push"}
    #: keep the latest halo delivery in ``last_halo`` (tests); off by default
    collect_debug = False
    _last_halo: MessageBatch | None = None

    def __init__(
        self,
        vm: VirtualMachine,
        grid,
        decomp: MeshDecomposition,
        local_particles: list[ParticleArray] | ParticlePool,
        dt: float | None,
        backend=None,
    ) -> None:
        self.vm = vm
        #: shard-thread execution backend (None = in-process kernels)
        self.backend = backend
        self.grid = grid
        self.set_decomposition(decomp)
        # the flat blocks behind _kept, by name
        self._blocks: dict[str, np.ndarray] = {}
        #: all ranks' particles; assigning a new pool (the redistributor's,
        #: a checkpoint's, a migration's) installs it as it is
        self.pool = (
            local_particles
            if isinstance(local_particles, ParticlePool)
            else ParticlePool.from_ranks(list(local_particles))
        )
        require(self.pool.p == vm.p, "need one particle set per rank")
        self.solver = self.SOLVER(grid)
        self.dt = dt if dt is not None else 0.9 * self.solver.cfl_limit()
        self.solver.validate_dt(self.dt)
        self.fields = FieldState.zeros(grid)
        self.iteration = 0
        #: optional :class:`repro.util.guards.InvariantGuard` run at the
        #: ``GUARD_HOOKS`` of :meth:`step`; ``None`` (default) keeps the
        #: hot path free of guard work.
        self.guard = None

    def set_decomposition(self, decomp: MeshDecomposition) -> None:
        """Install a new mesh decomposition (adaptive rebalancing).

        The caller is responsible for having migrated field node values
        and particles (see :class:`repro.core.adaptive.AdaptiveMeshRebalancer`);
        this method refreshes the ownership map, node counts, and halo
        schedule.
        """
        require(decomp.p == self.vm.p, "decomposition and machine rank counts differ")
        require(decomp.grid is self.grid or decomp.grid.shape == self.grid.shape,
                "decomposition must cover the same grid")
        self.decomp = decomp
        self.node_owner = decomp.owner_map
        self.node_counts = decomp.node_counts().astype(float)
        self.halo = HaloSchedule(decomp)

    @property
    def particles(self) -> list[ParticleArray]:
        """Per-rank zero-copy views of ``pool`` (read-only: assign ``pool``)."""
        return self.pool.views

    def _kept(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """The C-contiguous ``shape`` buffer ``name``, kept across steps: the
        front of a flat block that is only ever grown.  A step's fresh 1-2 MB
        per-particle outputs were page-faulted in, ~700 faults a Fig 17 step."""
        size = math.prod(shape)
        block = self._blocks.get(name)
        if block is None or block.size < size:
            block = self._blocks[name] = np.empty(size, dtype=dtype)
        return block[:size].reshape(shape)

    def _field_node_values(self) -> np.ndarray:
        """``(6, nnodes)`` E and B of ``self.fields``, one row per component."""
        f = self.fields
        return np.stack(
            [f.ex.ravel(), f.ey.ravel(), f.ez.ravel(), f.bx.ravel(), f.by.ravel(), f.bz.ravel()]
        )

    def _received(self, batch: MessageBatch | None) -> list[dict]:
        """``[receiver][sender]`` dict view of a delivered batch (tests, debugging)."""
        return [] if batch is None else batch.to_dicts(self.vm.p, received=True)

    @property
    def last_halo(self) -> list[dict[int, np.ndarray]]:
        """``[r][owner]``: the halo values rank ``r`` last received."""
        return self._received(self._last_halo)

    def field_solve(self) -> None:
        """Halo exchange of the six field components, then the solver's update."""
        vm = self.vm
        with vm.phase("field"):
            delivered = self.halo.exchange(vm, self._field_node_values(), ncomponents=6)
            if self.collect_debug:
                self._last_halo = delivered
            vm.charge_ops("field", self.node_counts)
            self.solver.step(self.fields, self.dt)

    def step(self) -> None:
        """One full iteration: the ``PHASES`` in order, guard hooks in between."""
        guard = self.guard
        for phase in self.PHASES:
            getattr(self, phase)()
            if guard is not None and phase in self.GUARD_HOOKS:
                getattr(guard, self.GUARD_HOOKS[phase])(self)
        self.iteration += 1

    def close(self) -> None:
        """Let go of the backend (idempotent); its creator closes it."""
        self.backend = None

    def all_particles(self) -> ParticleArray:
        """All particles concatenated (rank order) — for verification."""
        return self.pool.array.copy()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(p={self.vm.p}, grid={self.grid!r}, "
            f"n={self.pool.n})"
        )


class ParallelPIC(PooledParticles):
    """SPMD PIC stepper on a :class:`VirtualMachine`.

    One iteration is scatter, field solve, gather + push; an installed
    guard runs after the scatter and after the push.

    Parameters
    ----------
    vm, grid, decomp, local_particles, dt, backend:
        As for :class:`PooledParticles`.
    ghost_table:
        Duplicate-removal table kind, ``"hash"`` or ``"direct"``: sets
        the table operations charged per ghost entry.
    movement:
        ``"lagrangian"`` (fixed assignment; the paper's choice) or
        ``"eulerian"`` (migrate to cell owners every step).
    smoothing_passes:
        Binomial-filter passes on the deposited sources (default 1,
        matching :class:`repro.pic.sequential.SequentialPIC`).  The
        filter is a nearest-neighbour stencil whose halo needs are
        covered by the field-solve exchange; its compute is charged to
        the scatter phase.
    field_solver:
        ``"maxwell"`` (the paper's local FDTD solve with halo exchange)
        or ``"electrostatic"`` (global FFT Poisson solve each step; the
        row/column transpose is physically exchanged through the
        machine — the global-communication pattern of the
        replicated-mesh codes the paper contrasts against).
    collect_debug:
        When True, retain the most recent halo / gather deliveries in
        ``last_halo`` / ``last_gather_messages`` for tests that verify
        communicated values equal the owners' data.  Off by default so
        benchmarks and long runs do not hold per-step communication
        buffers alive.
    """

    SOLVER = MaxwellSolver
    PHASES = ("scatter", "field_solve", "gather_push")

    def __init__(
        self,
        vm: VirtualMachine,
        grid,
        decomp: MeshDecomposition,
        local_particles: list[ParticleArray],
        *,
        dt: float | None = None,
        ghost_table: str = "hash",
        movement: str = "lagrangian",
        smoothing_passes: int = 1,
        field_solver: str = "maxwell",
        backend=None,
        collect_debug: bool = False,
    ) -> None:
        require(movement in ("lagrangian", "eulerian"), f"unknown movement {movement!r}")
        require(smoothing_passes >= 0, "smoothing_passes must be >= 0")
        require(
            field_solver in ("maxwell", "electrostatic"),
            f"unknown field_solver {field_solver!r}",
        )
        super().__init__(vm, grid, decomp, local_particles, dt, backend)
        self.smoothing_passes = smoothing_passes
        self.field_solver = field_solver
        self.movement = movement
        self.collect_debug = collect_debug
        self.poisson = PoissonSolver(grid) if field_solver == "electrostatic" else None
        require(ghost_table in GHOST_TABLES, f"unknown ghost table kind {ghost_table!r}")
        self.ghost_table = ghost_table
        # Per-rank ghost tallies, the stats a per-rank table would keep:
        # cumulative entries and table ops, and the unique nodes of each
        # rank's latest scatter that had ghost entries.
        self.ghost_entries = np.zeros(vm.p, dtype=np.int64)
        self.ghost_ops = np.zeros(vm.p)
        self.ghost_unique = np.zeros(vm.p, dtype=np.int64)
        # Ghost schedule of the latest scatter: the ids of the messages it
        # sent (rank r -> owner), none yet; the gather replies along its transpose.
        self._ghost_schedule = MessageBatch.coalesce(*np.empty((3, 0), dtype=np.int64))
        # What the latest gather exchange delivered, kept only when
        # collect_debug=True (see last_gather_messages).
        self._last_gather: MessageBatch | None = None

    # ------------------------------------------------------------------
    # dict views of the exchanges (tests and debugging; built on demand)
    # ------------------------------------------------------------------
    @property
    def _ghost_nodes(self) -> list[dict[int, np.ndarray]]:
        """``[r][owner]``: node ids rank ``r`` contributed to in the latest
        scatter that ``owner`` owns."""
        return self._ghost_schedule.to_dicts(self.vm.p)

    @property
    def last_gather_messages(self) -> list[dict[int, tuple[np.ndarray, np.ndarray]]]:
        """``[r][owner]``: the ``(ids, values)`` rank ``r`` last got back."""
        return self._received(self._last_gather)

    # ------------------------------------------------------------------
    # scatter phase
    # ------------------------------------------------------------------
    def scatter(self) -> None:
        """Deposit rho and J with ghost-point communication."""
        # Two calls, not one body: the accumulation's pooled entry and
        # merge buffers die with its frame before the sources are scaled
        # and smoothed, which measurably matters to the allocator.
        self._finish_scatter(self._accumulate_sources())

    def _accumulate_sources(self) -> np.ndarray:
        """The deposited and ghost-merged channels, ``(4, nnodes)``.

        One vectorized pass over all ranks' particles, bit for bit the
        per-rank oracle's messages, accounting and floats at O(entries +
        nodes) host cost: on-rank entries of a node all come from its
        owner and ghost entries are summed per ``(rank, node)`` slot, both
        in pool order (:func:`~repro.pic.deposition.deposit_by_destination`),
        independent of how a thread backend shards the pool; what
        *arrives* is merged by one seeded bincount
        (:func:`~repro.parallel_exec.kernels.merge_ghost_messages`).
        """
        vm = self.vm
        grid = self.grid
        nnodes = grid.nnodes
        p = vm.p
        nchannels = len(CHANNELS)
        pool = self.pool
        counts = pool.counts
        acc = np.zeros((nchannels, nnodes))
        backend = self.backend
        with vm.phase("scatter"):
            with vm.section("deposit"):
                if backend is not None:
                    rows, entries_per_rank, uniq_per_rank, batch = backend.scatter(
                        pool, self.node_owner
                    )
                else:
                    rows = np.empty((1, nchannels, nnodes))
                    _, entries_per_rank, uniq_per_rank, batch = scatter_segment(
                        grid, pool.array, counts, self.node_owner, rows[0]
                    )
            with vm.section("reduce"):
                reduce_rank_rows(rows, acc)

            # integer-valued float64: the ops a per-rank table charges, exactly
            table_ops = GHOST_TABLES[self.ghost_table].OPS_PER_ENTRY * entries_per_rank
            self.ghost_entries += entries_per_rank
            self.ghost_ops += table_ops
            np.copyto(self.ghost_unique, uniq_per_rank, where=entries_per_rank > 0)
            vm.charge_ops("scatter", 4.0 * counts.astype(float))
            vm.charge_ops("table", table_ops)

            with vm.section("ghost_merge"):
                # what was *received*: faults may have damaged it
                recv = vm.exchange(batch)
                merge_ghost_messages(acc, recv)
                vm.charge_ops("table", np.bincount(recv.dst, weights=recv.counts, minlength=p))

        self._ghost_schedule = MessageBatch(batch.src, batch.dst, batch.offsets, batch.ids)
        return acc

    def _finish_scatter(self, acc: np.ndarray) -> None:
        """Scale, smooth, and install the deposited sources."""
        vm = self.vm
        grid = self.grid
        scale = 1.0 / (grid.dx * grid.dy)
        shaped = (acc * scale).reshape(len(CHANNELS), grid.ny, grid.nx)
        k = self.smoothing_passes
        if k:
            with vm.phase("scatter"):
                # nearest-neighbour filter: one op per node per channel/pass
                vm.charge_ops("field", self.node_counts * len(CHANNELS) * k)
        self.fields.rho = binomial_smooth(shaped[0], k)
        self.fields.jx = binomial_smooth(shaped[1], k)
        self.fields.jy = binomial_smooth(shaped[2], k)
        self.fields.jz = binomial_smooth(shaped[3], k)

    # ------------------------------------------------------------------
    # field-solve phase
    # ------------------------------------------------------------------
    def field_solve(self) -> None:
        """Advance the fields: local FDTD (default) or global Poisson."""
        if self.field_solver == "electrostatic":
            self._field_solve_electrostatic()
        else:
            super().field_solve()

    def _field_solve_electrostatic(self) -> None:
        """Global FFT Poisson solve with a physically-exchanged transpose.

        A distributed 2-D FFT over row-block storage needs one global
        transpose in each direction; we exchange the real row-block
        pieces of rho through the machine (an all-to-all of ``m / p^2``
        blocks, rank ``r`` sending its rows' column block ``d`` to rank
        ``d``) before and after the solve, charging the FFT's
        ``O((m / p) log m)`` butterflies per rank.
        """
        vm = self.vm
        grid = self.grid
        with vm.phase("field"):
            # all-to-all transpose of the row-blocked rho, both ways: one
            # message per (row block, column block), the block row-major
            rho = self.fields.rho
            ny, nx = rho.shape
            ranks = np.arange(vm.p)
            row_block = np.repeat(ranks, np.diff(np.linspace(0, ny, vm.p + 1).astype(int)))
            col_block = np.repeat(ranks, np.diff(np.linspace(0, nx, vm.p + 1).astype(int)))
            ys, xs = np.divmod(np.arange(rho.size), nx)
            order = np.lexsort((xs, ys, col_block[xs], row_block[ys]))
            src, dst = row_block[ys.take(order)], col_block[xs.take(order)]
            transpose = MessageBatch.coalesce(src, dst, values=rho.ravel().take(order)[None, :])
            vm.exchange(transpose)  # forward transpose
            vm.exchange(transpose)  # inverse transpose (same volume)
            m = grid.nnodes
            vm.charge_ops("field", (m / vm.p) * np.log2(max(m, 2)) / 4.0)
            phi = self.poisson.solve_fft(self.fields.rho)
            self.fields.ex, self.fields.ey = self.poisson.electric_field(phi)

    # ------------------------------------------------------------------
    # gather + push phases
    # ------------------------------------------------------------------
    def gather_push(self) -> None:
        """Return ghost-node fields to contributors, interpolate, push.

        The ghost-field exchange is the inverse of the scatter's: owners
        send E, B at the ghost nodes each contributor registered this
        iteration — the scatter batch transposed and filled by one
        ``take``, message for message the per-rank oracle's.  The
        interpolation and the push are then one pass over the pool
        (:func:`~repro.parallel_exec.kernels.gather_push_slice`), charged
        to the gather and push phases as two.  Both are per-particle
        independent, so running them once over the pool is bit-identical
        to per-rank execution.
        """
        vm = self.vm
        pool = self.pool
        f = self.fields
        planes = (f.ex, f.ey, f.ez, f.bx, f.by, f.bz)
        with vm.phase("gather"):
            schedule = self._ghost_schedule
            values = np.stack([np.ravel(a).take(schedule.ids) for a in planes])
            recv = vm.exchange(schedule.reply(values))
            if self.collect_debug:
                self._last_gather = recv
            vm.charge_ops("gather", 4.0 * pool.counts.astype(float))
        with vm.phase("push"):
            vm.charge_ops("push", pool.counts.astype(float))
            with vm.section("gather_push"):
                if self.backend is not None:
                    self.backend.gather_push(pool, planes, self.dt)
                else:
                    gather_push_slice(self.grid, pool.array, planes, self.dt)
        if self.movement == "eulerian":
            self._migrate_eulerian()

    def _migrate_eulerian(self) -> None:
        """Move particles to the owner of their (new) cell.

        One owner lookup and one sorted exchange of the pool's block.
        """
        vm = self.vm
        with vm.phase("migration"):
            pool = self.pool
            with vm.section("partition"):
                parts = pool.array
                cells = self.grid.cell_id_of_positions(parts.x, parts.y)
                owner = self.decomp.owner_of_cells(cells)
            vm.charge_ops("index", pool.counts.astype(float))
            with vm.section("exchange"):
                (block,), offsets = exchange_by_destination_pooled(
                    vm, (parts.block,), owner, pool.offsets
                )
                self.pool = ParticlePool(ParticleArray.from_block(block), offsets)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def total_energy(self) -> float:
        """Field energy plus particle kinetic energy."""
        kinetic = sum(p.kinetic_energy() for p in self.particles)
        return self.fields.field_energy(self.grid) + kinetic

    def __repr__(self) -> str:
        return f"{super().__repr__()[:-1]}, movement={self.movement!r})"
