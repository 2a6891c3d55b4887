"""Tests for the parallel charge-conserving (Yee + zigzag) stepper."""

import numpy as np
import pytest

from repro.core import ParticlePartitioner
from repro.machine import MachineModel, VirtualMachine
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.particles import ParticleArray, gaussian_blob, uniform_plasma
from repro.pic.parallel_yee import ParallelYeePIC
from repro.pic.yee import YeePIC


def build(grid, particles, p=4, scheme="hilbert", **kwargs):
    vm = VirtualMachine(p, MachineModel.cm5())
    decomp = CurveBlockDecomposition(grid, p, scheme)
    local = ParticlePartitioner(grid, scheme).initial_partition(particles, p)
    return vm, ParallelYeePIC(vm, grid, decomp, local, **kwargs)


class TestEquivalence:
    @pytest.mark.parametrize("dist,seed", [("uniform", 0), ("blob", 1)])
    def test_matches_sequential_yee(self, dist, seed):
        grid = Grid2D(16, 16)
        sampler = uniform_plasma if dist == "uniform" else gaussian_blob
        particles = sampler(grid, 1024, density=1.0, rng=seed)
        vm, par = build(grid, particles)
        seq = YeePIC(grid, particles.copy(), dt=par.dt)
        for _ in range(8):
            par.step()
            seq.step()
        a = par.all_particles()
        oa, ob = np.argsort(a.ids), np.argsort(seq.particles.ids)
        np.testing.assert_allclose(a.x[oa], seq.particles.x[ob], atol=1e-9)
        np.testing.assert_allclose(a.ux[oa], seq.particles.ux[ob], atol=1e-9)
        np.testing.assert_allclose(par.fields.ex, seq.fields.ex, atol=1e-9)
        np.testing.assert_allclose(par.fields.bz, seq.fields.bz, atol=1e-9)
        np.testing.assert_allclose(par.fields.rho, seq.fields.rho, atol=1e-9)

    def test_single_rank(self):
        grid = Grid2D(8, 8)
        particles = uniform_plasma(grid, 128, rng=3)
        vm, par = build(grid, particles, p=1)
        par.step()
        assert vm.comm_time.max() == 0.0


class TestChargeConservation:
    def test_gauss_machine_precision_in_parallel(self):
        grid = Grid2D(16, 16)
        particles = gaussian_blob(grid, 2048, density=1.0, rng=4)
        vm, par = build(grid, particles, p=4)
        assert par.gauss_error() < 1e-12
        for _ in range(20):
            par.step()
        assert par.gauss_error() < 1e-12

    def test_div_b_machine_precision(self):
        grid = Grid2D(16, 16)
        particles = uniform_plasma(grid, 1024, density=1.0, rng=5)
        vm, par = build(grid, particles, p=4)
        for _ in range(10):
            par.step()
        assert par.solver.divergence_b(par.fields) < 1e-13


class TestCommunicationStructure:
    def test_gather_is_two_rounds(self):
        """Request + reply: gather-phase message count is roughly twice
        a one-round exchange with the same partner structure."""
        grid = Grid2D(16, 16)
        particles = gaussian_blob(grid, 2048, rng=6)
        vm, par = build(grid, particles, p=4)
        par.step()
        gather = vm.stats.phase("gather")
        scatter = vm.stats.phase("scatter")
        assert gather.total_msgs > scatter.total_msgs

    def test_gather_replies_carry_owner_values(self):
        grid = Grid2D(16, 16)
        particles = gaussian_blob(grid, 1024, rng=7)
        vm, par = build(grid, particles, p=4)
        par.step()
        node_values = par._field_node_values()
        seen = False
        for requester in range(vm.p):
            for owner, (ids, vals) in par.last_gather_replies[requester].items():
                assert np.all(par.node_owner[ids] == owner)
                seen = True
        assert seen

    def test_alignment_reduces_traffic(self):
        """Curve-aligned particle placement produces less scatter+gather
        traffic than a round-robin placement — the paper's thesis, on
        the modern kernel."""
        grid = Grid2D(32, 32)
        particles = gaussian_blob(grid, 4096, rng=8)

        def traffic(local):
            vm = VirtualMachine(8, MachineModel.cm5())
            decomp = CurveBlockDecomposition(grid, 8, "hilbert")
            pic = ParallelYeePIC(vm, grid, decomp, local)
            pic.step()
            return (
                vm.stats.phase("scatter").total_bytes
                + vm.stats.phase("gather").total_bytes
            )

        aligned = ParticlePartitioner(grid, "hilbert").initial_partition(particles, 8)
        scattered = [particles.take(np.arange(r, particles.n, 8)) for r in range(8)]
        assert traffic(aligned) < 0.5 * traffic(scattered)


class TestValidation:
    def test_rank_count_mismatch(self):
        grid = Grid2D(8, 8)
        vm = VirtualMachine(4)
        decomp = CurveBlockDecomposition(grid, 2)
        with pytest.raises(ValueError):
            ParallelYeePIC(vm, grid, decomp, [ParticleArray.empty(0)] * 4)

    def test_empty_rank_tolerated(self):
        grid = Grid2D(8, 8)
        vm = VirtualMachine(2)
        decomp = CurveBlockDecomposition(grid, 2)
        parts = uniform_plasma(grid, 64, rng=9)
        pic = ParallelYeePIC(vm, grid, decomp, [parts, ParticleArray.empty(0)])
        pic.step()
        assert pic.iteration == 1
