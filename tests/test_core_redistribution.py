"""Tests for the redistribution driver."""

import numpy as np
import pytest

from repro.core import ParticlePartitioner, Redistributor
from repro.machine import MachineModel, VirtualMachine
from repro.mesh import Grid2D
from repro.particles import gaussian_blob, uniform_plasma
from repro.pic.push import boris_push


@pytest.fixture
def setup(grid):
    vm = VirtualMachine(4, MachineModel.cm5())
    partitioner = ParticlePartitioner(grid, "hilbert")
    redis = Redistributor(partitioner, nbuckets=8)
    particles = uniform_plasma(grid, 800, vth=0.3, rng=0)
    local = partitioner.initial_partition(particles, 4)
    return vm, partitioner, redis, local


def drift(grid, local, steps=3):
    """Move particles ballistically so keys change."""
    e = np.zeros((3, 0))
    for parts in local:
        ef = np.zeros((3, parts.n))
        bf = np.zeros((3, parts.n))
        for _ in range(steps):
            boris_push(grid, parts, ef, bf, dt=1.0)


class TestInitialize:
    def test_produces_balanced_sorted_ranks(self, grid, setup):
        vm, partitioner, redis, local = setup
        result = redis.initialize(vm, local)
        counts = [p.n for p in result.particles]
        assert max(counts) - min(counts) <= 1
        assert result.cost > 0

    def test_redistribute_requires_initialize(self, grid, setup):
        vm, partitioner, redis, local = setup
        with pytest.raises(ValueError, match="initialize"):
            redis.redistribute(vm, local)


class TestRedistribute:
    def test_restores_sorted_balanced_state(self, grid, setup):
        vm, partitioner, redis, local = setup
        local = redis.initialize(vm, local).particles
        drift(grid, local)
        result = redis.redistribute(vm, local)
        counts = [p.n for p in result.particles]
        assert max(counts) - min(counts) <= 1
        prev_max = -1
        for parts in result.particles:
            keys = partitioner.particle_keys(parts)
            assert np.all(np.diff(keys) >= 0)
            if keys.size:
                assert keys[0] >= prev_max
                prev_max = keys[-1]

    def test_no_particles_lost(self, grid, setup):
        vm, partitioner, redis, local = setup
        local = redis.initialize(vm, local).particles
        drift(grid, local)
        result = redis.redistribute(vm, local)
        ids = np.sort(np.concatenate([p.ids for p in result.particles]))
        assert np.array_equal(ids, np.arange(800))

    def test_attributes_preserved(self, grid, setup):
        """Momenta travel intact with their particles."""
        vm, partitioner, redis, local = setup
        local = redis.initialize(vm, local).particles
        by_id = {}
        for parts in local:
            for i in range(parts.n):
                by_id[int(parts.ids[i])] = (parts.ux[i], parts.uy[i])
        drift(grid, local, steps=1)
        result = redis.redistribute(vm, local)
        for parts in result.particles:
            for i in range(parts.n):
                ux, uy = by_id[int(parts.ids[i])]
                assert parts.ux[i] == pytest.approx(ux)
                assert parts.uy[i] == pytest.approx(uy)

    def test_cost_measured(self, grid, setup):
        vm, partitioner, redis, local = setup
        local = redis.initialize(vm, local).particles
        drift(grid, local)
        result = redis.redistribute(vm, local)
        assert result.cost > 0

    def test_repeated_epochs(self, grid, setup):
        vm, partitioner, redis, local = setup
        local = redis.initialize(vm, local).particles
        for _ in range(4):
            drift(grid, local)
            local = redis.redistribute(vm, local).particles
        ids = np.sort(np.concatenate([p.ids for p in local]))
        assert np.array_equal(ids, np.arange(800))

    def test_count_change_detected(self, grid, setup):
        vm, partitioner, redis, local = setup
        local = redis.initialize(vm, local).particles
        local[0] = local[0].take(np.arange(local[0].n - 1))
        with pytest.raises(ValueError, match="count changed"):
            redis.redistribute(vm, local)

    def test_improves_alignment_for_drifted_blob(self, grid):
        """After heavy drift, redistribution must reduce the ghost-node
        count (the quantity driving scatter traffic)."""
        from repro.core.alignment import ghost_node_counts
        from repro.mesh import CurveBlockDecomposition

        vm = VirtualMachine(4, MachineModel.cm5())
        partitioner = ParticlePartitioner(grid, "hilbert")
        decomp = CurveBlockDecomposition(grid, 4, "hilbert")
        redis = Redistributor(partitioner)
        particles = gaussian_blob(grid, 1000, vth=0.5, rng=1)
        local = redis.initialize(vm, partitioner.initial_partition(particles, 4)).particles
        drift(grid, local, steps=10)
        before = ghost_node_counts(local, grid, decomp).sum()
        local = redis.redistribute(vm, local).particles
        after = ghost_node_counts(local, grid, decomp).sum()
        assert after < before


class TestFullRedistribute:
    def test_equivalent_result_to_incremental(self, grid, setup):
        vm, partitioner, redis, local = setup
        local = redis.initialize(vm, local).particles
        drift(grid, local)
        snapshot = [p.copy() for p in local]
        inc = redis.redistribute(vm, [p.copy() for p in snapshot])

        vm2 = VirtualMachine(4, MachineModel.cm5())
        redis2 = Redistributor(partitioner)
        full = redis2.initialize(vm2, [p.copy() for p in snapshot])
        # Equal-key ties may fall on different sides of a rank boundary,
        # so compare per-rank key multisets and the global id multiset.
        for a, b in zip(inc.particles, full.particles):
            assert a.n == b.n
            assert np.array_equal(
                np.sort(partitioner.particle_keys(a)),
                np.sort(partitioner.particle_keys(b)),
            )
        all_inc = np.sort(np.concatenate([p.ids for p in inc.particles]))
        all_full = np.sort(np.concatenate([p.ids for p in full.particles]))
        assert np.array_equal(all_inc, all_full)
