"""Adaptive mesh rebalancing: the Eulerian answer to load imbalance.

The paper balances particle load by *moving particles between fixed
mesh blocks* (direct Lagrangian + redistribution).  The dual approach —
which the descendants of this work (WarpX, PIConGPU) adopted — keeps
particles with their cells (direct Eulerian, so scatter/gather are
always local) and instead *moves the block boundaries along the
space-filling curve* so every rank owns an (approximately) equal number
of particles.

:class:`AdaptiveMeshRebalancer` implements that: given the current
per-cell particle counts it computes new curve bounds at the particle
quantiles, migrates the field values of reassigned nodes (physically,
through the machine), and installs the new decomposition into a running
:class:`~repro.pic.parallel.ParallelPIC`.  The particles follow at the
next Eulerian migration step.

The price, relative to the paper's scheme, is field imbalance: cells
per rank become unequal (bounded by ``max_cell_ratio``), so the field
solve slows on crowded ranks — the trade the paper's Table 1 row
"particle partitioning" describes.  The ``ablation_adaptive_eulerian``
experiment of ``python -m repro paper`` compares both schemes
end-to-end.
"""

from __future__ import annotations

import numpy as np

from repro.indexing import IndexingScheme, get_scheme
from repro.machine.batch import MessageBatch
from repro.machine.virtual import VirtualMachine
from repro.mesh.decomposition import CurveBlockDecomposition, balanced_splits
from repro.mesh.grid import Grid2D
from repro.pic.parallel import ParallelPIC
from repro.util import require

__all__ = ["AdaptiveMeshRebalancer"]


class AdaptiveMeshRebalancer:
    """Recomputes curve-block mesh bounds from particle load.

    Parameters
    ----------
    grid, scheme:
        Mesh geometry and the space-filling curve (shared with the
        decomposition being rebalanced).
    max_cell_ratio:
        Upper bound on ``cells(rank) / mean`` after rebalancing; quantile
        bounds are relaxed toward the balanced split until satisfied, so
        the field solve can never degrade past this factor.
    """

    def __init__(
        self,
        grid: Grid2D,
        scheme: str | IndexingScheme = "hilbert",
        *,
        max_cell_ratio: float = 4.0,
    ) -> None:
        require(max_cell_ratio >= 1.0, "max_cell_ratio must be >= 1")
        self.grid = grid
        self.scheme = get_scheme(scheme)
        self.max_cell_ratio = max_cell_ratio
        # curve position of every cell, and cells in curve order
        self._positions = self.scheme.positions(grid.nx, grid.ny)
        order = np.empty(grid.ncells, dtype=np.int64)
        order[self._positions] = np.arange(grid.ncells)
        self._cells_in_curve_order = order

    # ------------------------------------------------------------------
    def quantile_bounds(self, cell_particle_counts: np.ndarray, p: int) -> np.ndarray:
        """Curve-position bounds putting ~equal particles in each run.

        ``cell_particle_counts`` is indexed by row-major cell id.
        """
        counts = np.asarray(cell_particle_counts, dtype=np.int64)
        require(counts.shape == (self.grid.ncells,), "need one count per cell")
        along_curve = counts[self._cells_in_curve_order]
        cumulative = np.cumsum(along_curve)
        total = int(cumulative[-1]) if cumulative.size else 0
        bounds = np.empty(p + 1, dtype=np.int64)
        bounds[0] = 0
        bounds[p] = self.grid.ncells
        if total == 0:
            return balanced_splits(self.grid.ncells, p)
        targets = (np.arange(1, p) * total) / p
        bounds[1:p] = np.searchsorted(cumulative, targets, side="left") + 1
        bounds = np.maximum.accumulate(np.clip(bounds, 0, self.grid.ncells))
        return self._enforce_cell_ratio(bounds, p)

    def _enforce_cell_ratio(self, bounds: np.ndarray, p: int) -> np.ndarray:
        """Clamp run widths to ``max_cell_ratio * mean`` with two passes.

        The forward pass caps each run from the left; the backward pass
        raises lower bounds so the tail runs also respect the cap.
        Quantile positions are preserved wherever feasible — only
        oversized (particle-poor) runs shrink.
        """
        cap = int(np.ceil(self.max_cell_ratio * self.grid.ncells / p))
        out = bounds.astype(np.int64).copy()
        for r in range(1, p + 1):
            out[r] = min(max(out[r], out[r - 1]), out[r - 1] + cap)
        out[p] = self.grid.ncells
        for r in range(p - 1, 0, -1):
            out[r] = max(out[r], out[r + 1] - cap)
        return out

    # ------------------------------------------------------------------
    def rebalance(self, pic: ParallelPIC) -> float:
        """Rebalance a running Eulerian :class:`ParallelPIC` in place.

        Measures (and returns) the virtual cost: counting, the bounds
        collective, migration of reassigned field nodes, and the
        particle migration that realigns ownership.
        """
        vm = pic.vm
        require(pic.movement == "eulerian", "adaptive rebalancing requires Eulerian movement")
        t0 = vm.elapsed()
        with vm.phase("rebalance"):
            # per-rank cell occupancy of local particles -> global counts
            partial = []
            for r in range(vm.p):
                parts = pic.particles[r]
                cells = self.grid.cell_id_of_positions(parts.x, parts.y)
                partial.append(np.bincount(cells, minlength=self.grid.ncells))
            vm.charge_ops("index", np.array([float(p.n) for p in pic.particles]))
            counts = vm.allreduce(partial, op="sum")[0]

            bounds = self.quantile_bounds(counts, vm.p)
            new_decomp = CurveBlockDecomposition(
                self.grid, vm.p, self.scheme, bounds=bounds
            )

            # physically migrate field node values whose owner changed
            old_owner = pic.node_owner
            new_owner = new_decomp.owner_map
            moved = np.flatnonzero(old_owner != new_owner)
            if moved.size:
                # one message per (old owner, new owner), node ids ascending
                moved = moved.take(np.lexsort((new_owner[moved], old_owner[moved])))
                node_values = np.concatenate(
                    [pic._field_node_values(), pic.fields.rho.ravel()[None, :]]
                )
                vm.exchange(
                    MessageBatch.coalesce(
                        old_owner[moved], new_owner[moved], moved, node_values.take(moved, axis=1)
                    )
                )

            pic.set_decomposition(new_decomp)
            # realign particle ownership with the new cell owners
            pic._migrate_eulerian()
        return vm.elapsed() - t0
