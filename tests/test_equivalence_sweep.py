"""Property-based pooled-vs-oracle-vs-sequential equivalence sweep.

Hypothesis draws random small configurations (grid shape, particle
count, rank count, indexing scheme, ghost table, decomposition kind,
movement, field solver, worker count, step count, a poisoned-scatter
toggle) and asserts that the parallel PIC equals its per-rank oracle
(``tests/_looped_oracle.py``) bit for bit and reproduces the sequential
reference — the strongest single invariant in the library.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ParticlePartitioner
from repro.machine import MachineModel, VirtualMachine
from repro.machine.faults import FaultEvent, FaultPlan
from repro.mesh import (
    BlockDecomposition,
    CurveBlockDecomposition,
    Grid2D,
    ScatterDecomposition,
)
from repro.particles import gaussian_blob, uniform_plasma
from repro.pic import ParallelPIC, SequentialPIC
from tests._looped_oracle import STEPPERS, LoopedPIC

@st.composite
def configurations(draw):
    nx = draw(st.sampled_from([8, 12, 16]))
    ny = draw(st.sampled_from([8, 10, 16]))
    n = draw(st.integers(16, 400))
    p = draw(st.sampled_from([1, 2, 3, 4, 6]))
    scheme = draw(st.sampled_from(["hilbert", "snake", "rowmajor", "morton"]))
    table = draw(st.sampled_from(["hash", "direct"]))
    decomp_kind = draw(st.sampled_from(["curve", "block", "scatter"]))
    movement = draw(st.sampled_from(["lagrangian", "eulerian"]))
    field_solver = draw(st.sampled_from(["maxwell", "electrostatic"]))
    workers = draw(st.sampled_from([0, 1, 2, 4]))
    dist = draw(st.sampled_from(["uniform", "blob"]))
    seed = draw(st.integers(0, 10**6))
    steps = draw(st.integers(1, 4))
    poison = draw(st.booleans())
    return (nx, ny, n, p, scheme, table, decomp_kind, movement, field_solver,
            workers, dist, seed, steps, poison)


def _assert_bit_equal(pic, oracle):
    """Pooled stepper vs per-rank oracle: state and accounting, exactly."""
    par, ref = pic.all_particles(), oracle.all_particles()
    po, ro = np.argsort(par.ids), np.argsort(ref.ids)
    np.testing.assert_array_equal(par.ids[po], ref.ids[ro])
    for attr in ("x", "y", "ux", "uy", "uz"):
        np.testing.assert_array_equal(getattr(par, attr)[po], getattr(ref, attr)[ro])
    for field in ("ex", "ey", "ez", "bx", "by", "bz", "rho", "jx", "jy", "jz"):
        np.testing.assert_array_equal(
            getattr(pic.fields, field), getattr(oracle.fields, field)
        )  # NaNs (poison) compare equal position-wise
    assert pic.vm.elapsed() == oracle.vm.elapsed()
    np.testing.assert_array_equal(pic.vm.clocks, oracle.vm.clocks)
    assert pic.vm.ops.as_dict() == oracle.vm.ops.as_dict()


class TestEquivalenceSweep:
    @given(cfg=configurations())
    @settings(max_examples=25, deadline=None)
    def test_parallel_equals_sequential(self, cfg):
        """pooled (any worker count) == per-rank oracle, bit for bit, and
        both reproduce the sequential reference; with ``poison`` the last
        scatter runs on a machine that damages every message, where only
        the pooled-vs-oracle half applies."""
        (nx, ny, n, p, scheme, table, decomp_kind, movement, field_solver,
         workers, dist, seed, steps, poison) = cfg
        grid = Grid2D(nx, ny)
        sampler = uniform_plasma if dist == "uniform" else gaussian_blob
        particles = sampler(grid, n, rng=seed)

        if decomp_kind == "curve":
            decomp = CurveBlockDecomposition(grid, p, scheme)
        elif decomp_kind == "block":
            decomp = BlockDecomposition(grid, p)
        else:
            decomp = ScatterDecomposition(grid, p)
        local = ParticlePartitioner(grid, scheme).initial_partition(particles, p)
        kwargs = dict(ghost_table=table, movement=movement, field_solver=field_solver)
        pic = ParallelPIC(
            VirtualMachine(p, MachineModel.cm5()), grid, decomp,
            [part.copy() for part in local], workers=workers, **kwargs,
        )
        oracle = LoopedPIC(VirtualMachine(p, MachineModel.cm5()), grid, decomp, local, **kwargs)
        seq = SequentialPIC(grid, particles.copy(), dt=pic.dt, field_solver=field_solver)
        try:
            for _ in range(steps - poison):
                pic.step()
                oracle.step()
                seq.step()
            if poison:
                plan = FaultPlan(events=(FaultEvent(kind="poison", phase="scatter"),))
                pic.vm.install_faults(plan)
                oracle.vm.install_faults(plan)
                pic.scatter()
                oracle.scatter()
            _assert_bit_equal(pic, oracle)

            par = pic.all_particles()
            assert par.n == seq.particles.n
            po = np.argsort(par.ids)
            so = np.argsort(seq.particles.ids)
            np.testing.assert_allclose(par.x[po], seq.particles.x[so], atol=1e-9)
            np.testing.assert_allclose(par.y[po], seq.particles.y[so], atol=1e-9)
            np.testing.assert_allclose(par.ux[po], seq.particles.ux[so], atol=1e-9)
            np.testing.assert_allclose(pic.fields.ez, seq.fields.ez, atol=1e-9)
            if not poison:  # the poisoned scatter's sources carry NaNs
                np.testing.assert_allclose(pic.fields.rho, seq.fields.rho, atol=1e-9)
        finally:
            pic.close()


class TestFullMatrix:
    """Deterministic full sweep of stepper x movement x scheme x ranks.

    Every combination of {looped (the oracle), flat (``ParallelPIC``)} x
    {lagrangian, eulerian} x
    {hilbert, snake, morton, rowmajor} x {1, 3, 4} ranks must reproduce
    the sequential reference.  Agreement is pinned at ``atol=1e-12`` —
    far below any physical scale in the run but above the ~1e-16
    summation-order noise of ``bincount`` deposition, which reorders the
    same additions the sequential code performs (true bit-equality holds
    for particle trajectories at p=1 only by accident of that ordering).
    """

    @pytest.mark.parametrize("p", [1, 3, 4])
    @pytest.mark.parametrize("scheme", ["hilbert", "snake", "morton", "rowmajor"])
    @pytest.mark.parametrize("movement", ["lagrangian", "eulerian"])
    @pytest.mark.parametrize("engine", ["looped", "flat"])
    def test_matrix(self, engine, movement, scheme, p):
        grid = Grid2D(16, 12)
        particles = uniform_plasma(grid, 300, rng=7)
        vm = VirtualMachine(p, MachineModel.cm5())
        decomp = CurveBlockDecomposition(grid, p, scheme)
        local = ParticlePartitioner(grid, scheme).initial_partition(particles, p)
        pic = STEPPERS[engine](vm, grid, decomp, local, movement=movement)
        seq = SequentialPIC(grid, particles.copy(), dt=pic.dt)
        for _ in range(3):
            pic.step()
            seq.step()

        par = pic.all_particles()
        assert par.n == seq.particles.n
        po = np.argsort(par.ids)
        so = np.argsort(seq.particles.ids)
        np.testing.assert_array_equal(par.ids[po], seq.particles.ids[so])
        for attr in ("x", "y", "ux", "uy", "uz"):
            np.testing.assert_allclose(
                getattr(par, attr)[po],
                getattr(seq.particles, attr)[so],
                atol=1e-12,
                err_msg=f"particle {attr} diverged",
            )
        for field in ("ex", "ey", "ez", "bz", "rho", "jx", "jy"):
            np.testing.assert_allclose(
                getattr(pic.fields, field),
                getattr(seq.fields, field),
                atol=1e-12,
                err_msg=f"field {field} diverged",
            )
