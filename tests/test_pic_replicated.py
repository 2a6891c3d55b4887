"""Tests for the replicated-mesh baseline (Lubeck & Faber scheme)."""

import numpy as np
import pytest

from repro.core import ParticlePartitioner
from repro.machine import MachineModel, VirtualMachine
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.particles import uniform_plasma
from repro.pic import ParallelPIC, SequentialPIC
from benchmarks.replicated_mesh import ReplicatedMeshPIC


def build(grid, particles, p=4):
    vm = VirtualMachine(p, MachineModel.cm5())
    # placement is irrelevant for the replicated scheme: round-robin
    local = [particles.take(np.arange(r, particles.n, p)) for r in range(p)]
    return vm, ReplicatedMeshPIC(vm, grid, local)


class TestEquivalence:
    def test_matches_sequential(self):
        grid = Grid2D(16, 16)
        particles = uniform_plasma(grid, 1024, rng=0)
        vm, pic = build(grid, particles)
        seq = SequentialPIC(grid, particles.copy(), dt=pic.dt)
        for _ in range(8):
            pic.step()
            seq.step()
        par = pic.all_particles()
        po, so = np.argsort(par.ids), np.argsort(seq.particles.ids)
        np.testing.assert_allclose(par.x[po], seq.particles.x[so], atol=1e-9)
        np.testing.assert_allclose(pic.fields.ez, seq.fields.ez, atol=1e-9)

    def test_placement_does_not_matter_physically(self):
        grid = Grid2D(16, 8)
        particles = uniform_plasma(grid, 512, rng=1)
        _, by_roundrobin = build(grid, particles)
        vm2 = VirtualMachine(4, MachineModel.cm5())
        aligned = ParticlePartitioner(grid).initial_partition(particles, 4)
        by_curve = ReplicatedMeshPIC(vm2, grid, aligned, dt=by_roundrobin.dt)
        for _ in range(5):
            by_roundrobin.step()
            by_curve.step()
        a = by_roundrobin.all_particles()
        b = by_curve.all_particles()
        oa, ob = np.argsort(a.ids), np.argsort(b.ids)
        np.testing.assert_allclose(a.x[oa], b.x[ob], atol=1e-9)


class TestCommunicationStructure:
    def test_scatter_volume_proportional_to_mesh(self):
        """The global sum moves the whole source set regardless of how
        many particles there are."""
        particles_small = uniform_plasma(Grid2D(16, 16), 256, rng=2)
        particles_large = uniform_plasma(Grid2D(16, 16), 4096, rng=2)
        vols = []
        for particles in (particles_small, particles_large):
            vm, pic = build(Grid2D(16, 16), particles)
            pic.step()
            vols.append(vm.stats.phase("scatter").bytes_sent.max())
        assert vols[0] == vols[1]

    def test_gather_push_no_communication(self):
        grid = Grid2D(16, 16)
        particles = uniform_plasma(grid, 512, rng=3)
        vm, pic = build(grid, particles)
        pic.step()
        assert vm.stats.phase("gather").total_msgs == 0
        assert vm.stats.phase("push").total_msgs == 0

    def test_global_ops_dominate_at_scale(self):
        """The paper's point: for large p the replicated scheme's
        communication time dwarfs the distributed scheme's."""
        grid = Grid2D(32, 32)
        particles = uniform_plasma(grid, 4096, rng=4)

        def comm_time(p, scheme):
            vm = VirtualMachine(p, MachineModel.cm5())
            if scheme == "replicated":
                local = [particles.take(np.arange(r, particles.n, p)) for r in range(p)]
                pic = ReplicatedMeshPIC(vm, grid, local)
            else:
                decomp = CurveBlockDecomposition(grid, p, "hilbert")
                local = ParticlePartitioner(grid).initial_partition(particles, p)
                pic = ParallelPIC(vm, grid, decomp, local)
            for _ in range(3):
                pic.step()
            return vm.comm_time.max()

        assert comm_time(32, "replicated") > 2 * comm_time(32, "distributed")


class TestValidation:
    def test_rank_count_mismatch(self):
        grid = Grid2D(8, 8)
        vm = VirtualMachine(4)
        with pytest.raises(ValueError):
            ReplicatedMeshPIC(vm, grid, [uniform_plasma(grid, 8, rng=0)])

    def test_empty_rank_tolerated(self):
        grid = Grid2D(8, 8)
        vm = VirtualMachine(2)
        particles = uniform_plasma(grid, 64, rng=5)
        from repro.particles import ParticleArray

        pic = ReplicatedMeshPIC(vm, grid, [particles, ParticleArray.empty(0)])
        pic.step()
        assert pic.iteration == 1
