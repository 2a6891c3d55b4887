"""Tests for the redistribution driver."""

import tracemalloc

import numpy as np
import pytest

from repro.core import ParticlePartitioner, Redistributor
from repro.machine import MachineModel, VirtualMachine
from repro.mesh import Grid2D
from repro.mesh.fields import FieldState
from repro.particles import ParticleArray, ParticlePool, gaussian_blob, uniform_plasma
from repro.pic.checkpoint import save_checkpoint
from repro.pic.push import boris_push


@pytest.fixture
def setup(grid):
    vm = VirtualMachine(4, MachineModel.cm5())
    partitioner = ParticlePartitioner(grid, "hilbert")
    redis = Redistributor(partitioner, nbuckets=8)
    particles = uniform_plasma(grid, 800, vth=0.3, rng=0)
    local = ParticlePool.from_ranks(partitioner.initial_partition(particles, 4))
    return vm, partitioner, redis, local


def drift(grid, pool, steps=3):
    """Move particles ballistically so keys change."""
    ef = np.zeros((3, pool.n))
    bf = np.zeros((3, pool.n))
    for _ in range(steps):
        boris_push(grid, pool.array, ef, bf, dt=1.0)


class TestInitialize:
    def test_produces_balanced_sorted_ranks(self, grid, setup):
        vm, partitioner, redis, local = setup
        result = redis.initialize(vm, local)
        counts = result.pool.counts
        assert max(counts) - min(counts) <= 1
        assert result.cost > 0

    def test_redistribute_requires_initialize(self, grid, setup):
        vm, partitioner, redis, local = setup
        with pytest.raises(ValueError, match="initialize"):
            redis.redistribute(vm, local)


class TestRedistribute:
    def test_restores_sorted_balanced_state(self, grid, setup):
        vm, partitioner, redis, local = setup
        local = redis.initialize(vm, local).pool
        drift(grid, local)
        result = redis.redistribute(vm, local)
        counts = result.pool.counts
        assert max(counts) - min(counts) <= 1
        prev_max = -1
        for parts in result.pool.views:
            keys = partitioner.particle_keys(parts)
            assert np.all(np.diff(keys) >= 0)
            if keys.size:
                assert keys[0] >= prev_max
                prev_max = keys[-1]

    def test_no_particles_lost(self, grid, setup):
        vm, partitioner, redis, local = setup
        local = redis.initialize(vm, local).pool
        drift(grid, local)
        result = redis.redistribute(vm, local)
        ids = np.sort(result.pool.array.ids)
        assert np.array_equal(ids, np.arange(800))

    def test_attributes_preserved(self, grid, setup):
        """Momenta travel intact with their particles."""
        vm, partitioner, redis, local = setup
        local = redis.initialize(vm, local).pool
        by_id = {}
        for parts in local.views:
            for i in range(parts.n):
                by_id[int(parts.ids[i])] = (parts.ux[i], parts.uy[i])
        drift(grid, local, steps=1)
        result = redis.redistribute(vm, local)
        for parts in result.pool.views:
            for i in range(parts.n):
                ux, uy = by_id[int(parts.ids[i])]
                assert parts.ux[i] == pytest.approx(ux)
                assert parts.uy[i] == pytest.approx(uy)

    def test_cost_measured(self, grid, setup):
        vm, partitioner, redis, local = setup
        local = redis.initialize(vm, local).pool
        drift(grid, local)
        result = redis.redistribute(vm, local)
        assert result.cost > 0

    def test_repeated_epochs(self, grid, setup):
        vm, partitioner, redis, local = setup
        local = redis.initialize(vm, local).pool
        for _ in range(4):
            drift(grid, local)
            local = redis.redistribute(vm, local).pool
        ids = np.sort(local.array.ids)
        assert np.array_equal(ids, np.arange(800))

    def test_count_change_detected(self, grid, setup):
        vm, partitioner, redis, local = setup
        local = redis.initialize(vm, local).pool
        parts = local.views
        parts[0] = parts[0].take(np.arange(parts[0].n - 1))
        local = ParticlePool.from_ranks(parts)
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
        local = ParticlePool.from_ranks(partitioner.initial_partition(particles, 4))
        local = redis.initialize(vm, local).pool
        drift(grid, local, steps=10)
        before = ghost_node_counts(local.views, grid, decomp).sum()
        local = redis.redistribute(vm, local).pool
        after = ghost_node_counts(local.views, grid, decomp).sum()
        assert after < before


class TestFullRedistribute:
    def test_equivalent_result_to_incremental(self, grid, setup):
        vm, partitioner, redis, local = setup
        local = redis.initialize(vm, local).pool
        drift(grid, local)
        inc = redis.redistribute(vm, ParticlePool.from_ranks(local.views))

        vm2 = VirtualMachine(4, MachineModel.cm5())
        redis2 = Redistributor(partitioner)
        full = redis2.initialize(vm2, ParticlePool.from_ranks(local.views))
        # Equal-key ties may fall on different sides of a rank boundary,
        # so compare per-rank key multisets and the global id multiset.
        for a, b in zip(inc.pool.views, full.pool.views):
            assert a.n == b.n
            assert np.array_equal(
                np.sort(partitioner.particle_keys(a)),
                np.sort(partitioner.particle_keys(b)),
            )
        all_inc = np.sort(inc.pool.array.ids)
        all_full = np.sort(full.pool.array.ids)
        assert np.array_equal(all_inc, all_full)


class TestSortKeyDtype:
    @pytest.mark.parametrize("p", [1, 4])
    def test_keys_stay_int64_through_an_epoch_without_rank_moves(self, tmp_path, p):
        """An epoch that moves no particle to another rank exchanges nothing;
        that must not turn the sort keys (and so a checkpoint's
        ``sort_keys``) into float64."""
        grid = Grid2D(32, 32)
        rng = np.random.default_rng(p)
        cells = rng.choice(grid.ncells, 256, replace=False)  # one particle per cell: no key ties
        zeros = np.zeros(cells.size)
        particles = ParticleArray(
            cells % grid.nx + 0.5, cells // grid.nx + 0.5, zeros, zeros, zeros,
            zeros - 1.0, zeros + 1.0, zeros + 1.0, np.arange(cells.size),
        )  # fmt: skip
        vm = VirtualMachine(p, MachineModel.cm5())
        partitioner = ParticlePartitioner(grid, "hilbert")
        redis = Redistributor(partitioner, nbuckets=4)
        pool = ParticlePool.from_ranks(partitioner.initial_partition(particles, p))
        pool = redis.initialize(vm, pool).pool
        pool.array.x[:] = np.mod(pool.array.x + 7.0, grid.lx)  # drift: still one per cell
        pool = redis.redistribute(vm, pool).pool
        result = redis.redistribute(vm, pool)  # the keys have not changed since
        assert result.stats.moved_rank == 0
        keys = redis.export_keys()
        assert keys.dtype == np.int64
        assert np.array_equal(keys, partitioner.particle_keys(result.pool.array))
        path = save_checkpoint(
            tmp_path / "ck", grid, FieldState.zeros(grid), result.pool.views, 3, sort_keys=keys
        )
        with np.load(path) as data:
            assert data["sort_keys"].dtype == np.int64


class TestIdsNearTwoToThe53:
    """Ids ride in the block's float64 row, exact up to 2**53 (the
    constructor refuses 2**53 + 1: ``tests/test_particles_arrays.py``)."""

    def test_two_to_the_53_survives_a_redistribution(self, grid):
        vm = VirtualMachine(3, MachineModel.cm5())
        partitioner = ParticlePartitioner(grid, "hilbert")
        redis = Redistributor(partitioner, nbuckets=4)
        base = uniform_plasma(grid, 90, vth=0.3, rng=2)
        ids = 2**53 - np.arange(90, dtype=np.int64)[::-1]  # the top id is 2**53 itself
        particles = ParticleArray(
            base.x, base.y, base.ux, base.uy, base.uz, base.q, base.m, base.w, ids
        )
        pool = redis.initialize(
            vm, ParticlePool.from_ranks(partitioner.initial_partition(particles, 3))
        ).pool
        drift(grid, pool)
        out = redis.redistribute(vm, pool).pool
        assert np.array_equal(np.sort(out.array.ids), ids)


def _fig17(**overrides):
    from repro.pic import Simulation, SimulationConfig

    config = dict(
        nx=128, ny=64, nparticles=32768, p=32, distribution="irregular", policy="static", seed=3
    )
    return Simulation(SimulationConfig(**{**config, **overrides}))


def _traced_peak(call):
    """``call()`` and the bytes it allocated at its peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemory:
    """Transient memory in particle states: bytes of the pool's ``(9, n)`` block."""

    def _one_redistribution(self, sim):
        sim.run(2)
        pool = sim.pic.pool
        state = pool.array.block.nbytes
        result, peak = _traced_peak(lambda: sim.redistributor.redistribute(sim.vm, pool))
        assert result.pool.n == pool.n
        assert peak < 2.5 * state, f"peak {peak / state:.2f} particle states"
        return state

    def test_one_redistribution_at_fig17_size(self):
        """One redistribution of the Fig 17 run (32768 particles, p = 32)
        peaks below 2.5 particle states — the new block, what moves off
        rank and the int64 index vectors of the merge (the row-matrix
        pipeline peaked at 4.1) — and the redistributor keeps no particle
        data between epochs: its state is the sorted keys and each
        element's bucket key range."""
        sim = _fig17()
        state = self._one_redistribution(sim)
        kept = [a for a in vars(sim.redistributor._state).values() if isinstance(a, np.ndarray)]
        assert all(a.ndim == 1 and a.dtype == np.int64 for a in kept)
        assert sum(a.nbytes for a in kept) < state / 2

    def test_one_redistribution_at_table2_size(self):
        """Table 2's largest cell (65536 particles, p = 128): the same
        bound (the row-matrix pipeline peaked at 4.1)."""
        self._one_redistribution(_fig17(nx=256, ny=128, nparticles=65536, p=128))

    def test_one_eulerian_migration(self):
        """One Eulerian migration, right after a push, gathers the block
        once, in arrival order: below 1.5 particle states (3.7 with the
        row matrix)."""
        sim = _fig17(
            distribution="uniform", movement="eulerian", partitioning="grid",
            field_solver="electrostatic", ghost_table="direct",
        )  # fmt: skip
        sim.run(2)
        pic = sim.pic
        migrate, peaks = pic._migrate_eulerian, []
        pic._migrate_eulerian = lambda: peaks.append(_traced_peak(migrate)[1])
        before = pic.pool.array.ids
        sim.run(1)
        state = pic.pool.array.block.nbytes
        assert len(peaks) == 1 and not np.array_equal(before, pic.pool.array.ids)  # some moved
        assert peaks[0] < 1.5 * state, f"peak {peaks[0] / state:.2f} particle states"
