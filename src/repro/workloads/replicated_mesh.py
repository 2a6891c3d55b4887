"""Replicated-mesh parallel PIC (Lubeck & Faber's scheme, paper §3).

The paper motivates its distributed-mesh design by contrast with the
earlier direct-Lagrangian implementation of Lubeck and Faber (iPSC/1),
which *replicates* the whole mesh on every processor:

* Scatter — every rank deposits its particles into a private full-mesh
  copy, then a **global element-wise sum** combines the copies.
* Field solve — each rank updates an ``m / p`` share of the mesh, then a
  **global concatenation** broadcasts the full field arrays back to all
  ranks.
* Gather and push — purely local (each rank has every node's fields).

No alignment, ghost tables, or redistribution are needed — but the two
global operations move the whole mesh every iteration, so communication
grows with ``m`` regardless of how well particles are placed.  The paper
notes this "is an efficient algorithm for small hypercubes" while "for
large hypercubes the communication due to global operations ... dominates";
the ``ablation_replicated_mesh`` experiment of :mod:`repro.workloads.paper`,
this module's only consumer besides its own test, reproduces that
crossover against :class:`repro.pic.parallel.ParallelPIC`; the scheme
is the baseline the paper argues against, not one of the package's
steppers.
"""

from __future__ import annotations

import numpy as np

from repro.machine.virtual import VirtualMachine
from repro.mesh.fields import FieldState
from repro.mesh.grid import Grid2D
from repro.particles.arrays import ParticleArray
from repro.pic.deposition import CHANNELS, deposition_entries
from repro.pic.interpolation import gather_from_node_values
from repro.pic.maxwell import MaxwellSolver
from repro.pic.push import boris_push
from repro.pic.smoothing import binomial_smooth
from repro.util import require

__all__ = ["ReplicatedMeshPIC"]


class ReplicatedMeshPIC:
    """Direct-Lagrangian PIC with a fully replicated mesh.

    Parameters mirror :class:`repro.pic.parallel.ParallelPIC` where they
    apply; there is no decomposition (every rank owns a full copy) and no
    redistribution (placement is irrelevant to communication).
    """

    def __init__(
        self,
        vm: VirtualMachine,
        grid: Grid2D,
        local_particles: list[ParticleArray],
        *,
        dt: float | None = None,
        smoothing_passes: int = 1,
    ) -> None:
        require(len(local_particles) == vm.p, "need one particle set per rank")
        require(smoothing_passes >= 0, "smoothing_passes must be >= 0")
        self.vm = vm
        self.grid = grid
        self.particles = list(local_particles)
        self.fields = FieldState.zeros(grid)
        self.solver = MaxwellSolver(grid)
        self.dt = dt if dt is not None else 0.9 * self.solver.cfl_limit()
        self.solver.validate_dt(self.dt)
        self.smoothing_passes = smoothing_passes
        self.iteration = 0

    # ------------------------------------------------------------------
    def scatter(self) -> None:
        """Per-rank deposition into private copies + global sum."""
        vm = self.vm
        grid = self.grid
        nnodes = grid.nnodes
        with vm.phase("scatter"):
            partials = []
            for r in range(vm.p):
                parts = self.particles[r]
                acc = np.zeros((len(CHANNELS), nnodes))
                if parts.n:
                    nodes, values = deposition_entries(grid, parts)
                    flat = nodes.ravel()
                    vals = values.reshape(len(CHANNELS), -1)
                    for c in range(len(CHANNELS)):
                        acc[c] = np.bincount(flat, weights=vals[c], minlength=nnodes)
                partials.append(acc)
            vm.charge_ops("scatter", np.array([4.0 * p.n for p in self.particles]))
            # Global element-wise sum over all ranks' full-mesh copies:
            # every iteration moves the whole source array set.
            summed = vm.allreduce(partials, op="sum")[0]
        scale = 1.0 / (grid.dx * grid.dy)
        shaped = (summed * scale).reshape(len(CHANNELS), grid.ny, grid.nx)
        k = self.smoothing_passes
        self.fields.rho = binomial_smooth(shaped[0], k)
        self.fields.jx = binomial_smooth(shaped[1], k)
        self.fields.jy = binomial_smooth(shaped[2], k)
        self.fields.jz = binomial_smooth(shaped[3], k)

    def field_solve(self) -> None:
        """Partitioned update + global concatenation of the results."""
        vm = self.vm
        grid = self.grid
        with vm.phase("field"):
            # each rank updates m/p nodes...
            vm.charge_ops("field", np.full(vm.p, grid.nnodes / vm.p))
            self.solver.step(self.fields, self.dt)
            # ...then all ranks receive the full updated field arrays
            # (global concatenation, 6 components x m nodes).
            slices = np.array_split(self._field_node_values(), vm.p, axis=1)
            vm.allgather(list(slices))

    def _field_node_values(self) -> np.ndarray:
        f = self.fields
        return np.stack(
            [f.ex.ravel(), f.ey.ravel(), f.ez.ravel(), f.bx.ravel(), f.by.ravel(), f.bz.ravel()]
        )

    def gather_push(self) -> None:
        """Local interpolation and push — no communication at all."""
        vm = self.vm
        grid = self.grid
        node_values = self._field_node_values()
        with vm.phase("gather"):
            vm.charge_ops("gather", np.array([4.0 * p.n for p in self.particles]))
            eb = []
            for r in range(vm.p):
                parts = self.particles[r]
                nodes, weights = grid.cic_vertices_weights(parts.x, parts.y)
                eb.append(gather_from_node_values(node_values, nodes, weights))
        with vm.phase("push"):
            vm.charge_ops("push", np.array([float(p.n) for p in self.particles]))
            for r in range(vm.p):
                if self.particles[r].n:
                    boris_push(grid, self.particles[r], eb[r][:3], eb[r][3:], self.dt)

    def step(self) -> None:
        """One full iteration."""
        self.scatter()
        self.field_solve()
        self.gather_push()
        self.iteration += 1

    def all_particles(self) -> ParticleArray:
        """All particles concatenated in rank order."""
        return ParticleArray.concat(self.particles)

    def __repr__(self) -> str:
        return f"ReplicatedMeshPIC(p={self.vm.p}, grid={self.grid!r})"
