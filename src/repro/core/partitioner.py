"""Index-based particle partitioning (paper §5.1).

``ParticlePartitioner`` implements the two-step distribution algorithm:

1. **Particle indexing** — each particle is assigned the index of its
   enclosing cell under the chosen space-filling curve (Hilbert by
   default).
2. **Sorting** — particles are globally sorted by index and split into
   ``p`` equal contiguous slices, one per processor.

Because the mesh is decomposed along the *same* curve
(:class:`repro.mesh.decomposition.CurveBlockDecomposition`), a close to
uniform particle distribution automatically aligns each rank's particle
subdomain with its mesh subdomain.
"""

from __future__ import annotations

import numpy as np

from repro.indexing import IndexingScheme, get_scheme
from repro.machine.virtual import VirtualMachine
from repro.mesh.decomposition import balanced_splits
from repro.mesh.grid import Grid2D
from repro.particles.arrays import ParticleArray, ParticlePool
from repro.particles.sort import KeyedBlock, parallel_sample_sort
from repro.core.load_balance import order_maintaining_balance
from repro.util import require

__all__ = ["ParticlePartitioner"]


class ParticlePartitioner:
    """Curve-index-based distributor of a particle array over ranks.

    Parameters
    ----------
    grid:
        Mesh geometry — supplies the cell of each particle.
    scheme:
        Indexing scheme (instance or registry name).
    """

    def __init__(self, grid: Grid2D, scheme: str | IndexingScheme = "hilbert") -> None:
        self.grid = grid
        self.scheme = get_scheme(scheme)
        # Curve *position* of each cell (dense rank along the curve), so
        # particle keys are comparable to mesh-decomposition curve bounds.
        self._cell_positions = self.scheme.positions(grid.nx, grid.ny)

    # ------------------------------------------------------------------
    def particle_keys(self, particles: ParticleArray) -> np.ndarray:
        """Curve position of each particle's enclosing cell."""
        cells = self.grid.cell_id_of_positions(particles.x, particles.y)
        return self._cell_positions[cells]

    def charge_indexing(self, vm: VirtualMachine, counts: np.ndarray) -> None:
        """Charge the per-rank cost of indexing ``counts`` particles."""
        vm.charge_ops("index", np.asarray(counts, dtype=float))

    # ------------------------------------------------------------------
    def initial_partition(self, particles: ParticleArray, p: int) -> list[ParticleArray]:
        """Sequential (setup-time) distribution: sort globally, split equally.

        Used to create the t=0 assignment; runtime redistribution goes
        through :class:`repro.core.redistribution.Redistributor`.
        """
        require(p >= 1, "p must be >= 1")
        keys = self.particle_keys(particles)
        ordered = particles.sorted_by(keys)
        bounds = balanced_splits(ordered.n, p)
        return [
            ordered.take(np.arange(bounds[r], bounds[r + 1]))
            for r in range(p)
        ]

    def distribute(self, vm: VirtualMachine, pool: ParticlePool) -> KeyedBlock:
        """Full runtime distribution: index, parallel sample sort, balance.

        This is the from-scratch algorithm (paper §5.1 "Sorting"); the
        cheaper incremental path is
        :meth:`repro.core.redistribution.Redistributor.redistribute`.
        Returns the particle block with its keys, sorted and balanced
        over ``vm.p`` ranks.
        """
        require(pool.p == vm.p, "need one particle segment per rank")
        keys = self.particle_keys(pool.array)
        self.charge_indexing(vm, pool.counts)
        block, _ = parallel_sample_sort(vm, KeyedBlock(pool.array.block, keys, pool.offsets))
        return order_maintaining_balance(vm, block)
