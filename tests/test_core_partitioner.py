"""Tests for curve-index-based particle partitioning."""

import numpy as np
import pytest

from repro.core import ParticlePartitioner
from repro.machine import MachineModel, VirtualMachine
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.particles import ParticleArray, ParticlePool, gaussian_blob, uniform_plasma
from tests._looped_oracle import per_rank


class TestParticleKeys:
    def test_keys_are_cell_curve_positions(self, grid):
        part = ParticlePartitioner(grid, "hilbert")
        parts = uniform_plasma(grid, 100, rng=0)
        keys = part.particle_keys(parts)
        cells = grid.cell_id_of_positions(parts.x, parts.y)
        pos = part.scheme.positions(grid.nx, grid.ny)
        assert np.array_equal(keys, pos[cells])

    def test_same_cell_same_key(self, grid):
        part = ParticlePartitioner(grid)
        a = ParticleArray.empty(2)
        a.x[:] = [3.1, 3.9]
        a.y[:] = [2.1, 2.9]
        keys = part.particle_keys(a)
        assert keys[0] == keys[1]


class TestInitialPartition:
    def test_balanced_counts(self, grid):
        part = ParticlePartitioner(grid)
        parts = gaussian_blob(grid, 1001, rng=1)
        local = part.initial_partition(parts, 4)
        counts = [lp.n for lp in local]
        assert sum(counts) == 1001
        assert max(counts) - min(counts) <= 1

    def test_rank_slices_sorted_and_ordered(self, grid):
        part = ParticlePartitioner(grid)
        parts = uniform_plasma(grid, 512, rng=2)
        local = part.initial_partition(parts, 4)
        prev_max = -1
        for lp in local:
            keys = part.particle_keys(lp)
            assert np.all(np.diff(keys) >= 0)
            if keys.size:
                assert keys[0] >= prev_max
                prev_max = keys[-1]

    def test_no_particles_lost(self, grid):
        part = ParticlePartitioner(grid)
        parts = uniform_plasma(grid, 777, rng=3)
        local = part.initial_partition(parts, 8)
        all_ids = np.sort(np.concatenate([lp.ids for lp in local]))
        assert np.array_equal(all_ids, np.arange(777))

    def test_alignment_with_mesh_decomposition(self):
        """For a near-uniform distribution, most particles land on the
        rank that owns their cell — the paper's alignment claim."""
        grid = Grid2D(32, 32)
        parts = uniform_plasma(grid, 32 * 32 * 4, rng=4)
        part = ParticlePartitioner(grid, "hilbert")
        decomp = CurveBlockDecomposition(grid, 16, "hilbert")
        local = part.initial_partition(parts, 16)
        aligned = 0
        for r, lp in enumerate(local):
            cells = grid.cell_id_of_positions(lp.x, lp.y)
            aligned += (decomp.owner_of_cells(cells) == r).sum()
        assert aligned / parts.n > 0.8


class TestDistribute:
    def test_matches_initial_partition(self, grid):
        """The runtime (sample sort) distribution must produce the same
        global order as the setup-time sequential one."""
        parts = uniform_plasma(grid, 600, rng=5)
        part = ParticlePartitioner(grid)
        vm = VirtualMachine(4, MachineModel.cm5())
        scattered = [parts.take(np.arange(r, parts.n, 4)) for r in range(4)]
        block = part.distribute(vm, ParticlePool.from_ranks(scattered))
        # the keys travel with their particles
        moved = ParticleArray.from_block(block.values)
        assert np.array_equal(block.keys, part.particle_keys(moved))
        ref = part.initial_partition(parts, 4)
        for keys_got, want in zip(per_rank(block)[0], ref):
            assert keys_got.size == want.n
            keys_want = np.sort(part.particle_keys(want))
            assert np.array_equal(np.sort(keys_got), keys_want)

    def test_charges_time(self, grid):
        parts = uniform_plasma(grid, 400, rng=6)
        part = ParticlePartitioner(grid)
        vm = VirtualMachine(4, MachineModel.cm5())
        part.distribute(vm, ParticlePool.from_ranks(part.initial_partition(parts, 4)))
        assert vm.elapsed() > 0
