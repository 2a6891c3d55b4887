"""Pooled engine vs its per-rank oracle: the accounting-invariance contract.

``ParallelPIC`` replaces ``for r in range(p)`` phase loops with single
pooled kernels, but the virtual machine must not be able to tell the
difference: identical virtual time, identical per-category op counts,
identical per-rank clocks, and identical per-phase message statistics
as the per-rank loops kept in ``tests/_looped_oracle.py``.  Physical
state (particles, fields) is pinned at ``atol=1e-12`` against the
oracle; since the pooled scatter adopted the per-rank deposition
association the two actually agree bit-for-bit, and the shard-thread
backend (``workers=N``) is *required* to: sharding may never perturb a
single bit of state or accounting (DESIGN.md §5.5).

In this file ``"looped"`` names the oracle (``LoopedPIC``) and
``"flat"`` the product stepper (``ParallelPIC``).
"""

import numpy as np
import pytest

from repro.core import ParticlePartitioner
from repro.machine import FaultEvent, FaultPlan, MachineModel, VirtualMachine
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.particles import ParticleArray, ParticlePool, gaussian_blob, uniform_plasma
from repro.pic import ParallelPIC, Simulation, SimulationConfig
from tests._looped_oracle import STEPPERS, LoopedSimulation

def _build(engine, *, p=6, movement="lagrangian", ghost_table="hash",
           field_solver="maxwell", n=1200, rng=21, **kwargs):
    grid = Grid2D(24, 16)
    particles = gaussian_blob(grid, n, rng=rng)
    vm = VirtualMachine(p, MachineModel.cm5())
    decomp = CurveBlockDecomposition(grid, p, "hilbert")
    local = ParticlePartitioner(grid, "hilbert").initial_partition(particles, p)
    pic = STEPPERS[engine](
        vm, grid, decomp, local,
        movement=movement, ghost_table=ghost_table,
        field_solver=field_solver, **kwargs,
    )
    return vm, pic


def _assert_accounting_equal(vm_l, vm_f):
    assert vm_f.elapsed() == vm_l.elapsed()
    np.testing.assert_array_equal(vm_f.clocks, vm_l.clocks)
    np.testing.assert_array_equal(vm_f.compute_time, vm_l.compute_time)
    np.testing.assert_array_equal(vm_f.comm_time, vm_l.comm_time)
    assert vm_f.ops.as_dict() == vm_l.ops.as_dict()
    assert set(vm_f.phase_time) == set(vm_l.phase_time)
    for name in vm_l.phase_time:
        np.testing.assert_array_equal(vm_f.phase_time[name], vm_l.phase_time[name])
    assert vm_f.stats.phases() == vm_l.stats.phases()
    for name in vm_l.stats.phases():
        rec_l, rec_f = vm_l.stats.phase(name), vm_f.stats.phase(name)
        for attr in ("msgs_sent", "msgs_recv", "bytes_sent", "bytes_recv"):
            np.testing.assert_array_equal(
                getattr(rec_f, attr), getattr(rec_l, attr),
                err_msg=f"phase {name}: {attr} differs from the oracle",
            )


class TestAccountingInvariance:
    """vm.elapsed(), vm.ops, and comm stats must agree to the last bit."""

    @pytest.mark.parametrize("ghost_table", ["hash", "direct"])
    @pytest.mark.parametrize("movement", ["lagrangian", "eulerian"])
    def test_movement_and_table_matrix(self, movement, ghost_table):
        vm_l, pic_l = _build("looped", movement=movement, ghost_table=ghost_table)
        vm_f, pic_f = _build("flat", movement=movement, ghost_table=ghost_table)
        for _ in range(4):
            pic_l.step()
            pic_f.step()
        _assert_accounting_equal(vm_l, vm_f)

    @pytest.mark.parametrize("p", [1, 2, 7, 16])
    def test_rank_counts(self, p):
        vm_l, pic_l = _build("looped", p=p)
        vm_f, pic_f = _build("flat", p=p)
        for _ in range(3):
            pic_l.step()
            pic_f.step()
        _assert_accounting_equal(vm_l, vm_f)

    def test_electrostatic_solver(self):
        vm_l, pic_l = _build("looped", field_solver="electrostatic")
        vm_f, pic_f = _build("flat", field_solver="electrostatic")
        for _ in range(3):
            pic_l.step()
            pic_f.step()
        _assert_accounting_equal(vm_l, vm_f)

    def test_ghost_table_stats_match(self):
        """The pooled stepper's per-rank tally arrays are the oracle's table stats."""
        for ghost_table in ("hash", "direct"):
            _, pic_l = _build("looped", ghost_table=ghost_table)
            _, pic_f = _build("flat", ghost_table=ghost_table)
            for _ in range(3):
                pic_l.step()
                pic_f.step()
            stats = [t.stats for t in pic_l.ghost_tables]
            assert pic_f.ghost_entries.tolist() == [s.entries for s in stats]
            assert pic_f.ghost_unique.tolist() == [s.unique_nodes for s in stats]
            assert pic_f.ghost_ops.tolist() == [s.ops for s in stats]
            assert pic_f.ghost_entries.sum() > 0


class TestPhysicalParity:
    """Particles and fields agree with the oracle at 1e-12."""

    @pytest.mark.parametrize("movement", ["lagrangian", "eulerian"])
    def test_state_matches(self, movement):
        _, pic_l = _build("looped", movement=movement)
        _, pic_f = _build("flat", movement=movement)
        for _ in range(5):
            pic_l.step()
            pic_f.step()
        par_l, par_f = pic_l.all_particles(), pic_f.all_particles()
        assert par_f.n == par_l.n
        ol, of = np.argsort(par_l.ids), np.argsort(par_f.ids)
        np.testing.assert_array_equal(par_f.ids[of], par_l.ids[ol])
        for attr in ("x", "y", "ux", "uy", "uz"):
            np.testing.assert_allclose(
                getattr(par_f, attr)[of], getattr(par_l, attr)[ol], atol=1e-12,
                err_msg=f"particle {attr} diverged from the oracle",
            )
        for field in ("ex", "ey", "ez", "bx", "by", "bz", "rho", "jx", "jy", "jz"):
            np.testing.assert_allclose(
                getattr(pic_f.fields, field), getattr(pic_l.fields, field),
                atol=1e-12, err_msg=f"field {field} diverged from the oracle",
            )

    def test_ghost_schedule_identical(self):
        """The pooled scatter's message schedule equals the oracle's."""
        _, pic_l = _build("looped")
        _, pic_f = _build("flat")
        pic_l.scatter()
        pic_f.scatter()
        for gl, gf in zip(pic_l._ghost_nodes, pic_f._ghost_nodes):
            assert sorted(gl) == sorted(gf)
            for owner in gl:
                np.testing.assert_array_equal(gf[owner], gl[owner])


class TestWholeRunParity:
    def test_dynamic_policy_run_with_rank_kill(self, tmp_path):
        """The driver over the oracle stepper produces the same *document*
        — nothing popped — through redistributions and a rank-kill
        recovery from the last checkpoint."""
        cfg = dict(nx=32, ny=16, nparticles=2048, p=6, distribution="irregular",
                   policy="dynamic", seed=1)
        plan = FaultPlan(events=(FaultEvent(kind="kill", rank=2, iteration=6),))
        docs = []
        for sim_cls in (LoopedSimulation, Simulation):
            sim = sim_cls(SimulationConfig(**cfg)).install_faults(plan)
            result = sim.run(
                12, checkpoint_every=4, checkpoint_path=tmp_path / f"{sim_cls.__name__}.npz"
            )
            assert result.n_recoveries == 1 and result.n_redistributions >= 1
            docs.append(result.to_dict())
        assert docs[0] == docs[1]


class TestMulticoreParity:
    """workers=N must be *bit-identical* to in-process execution — accounting
    AND physical state — for every worker count (DESIGN.md §5.5)."""

    def _assert_state_identical(self, pic_a, pic_b):
        par_a, par_b = pic_a.all_particles(), pic_b.all_particles()
        assert par_b.n == par_a.n
        oa, ob = np.argsort(par_a.ids), np.argsort(par_b.ids)
        np.testing.assert_array_equal(par_b.ids[ob], par_a.ids[oa])
        for attr in ("x", "y", "ux", "uy", "uz"):
            np.testing.assert_array_equal(
                getattr(par_b, attr)[ob], getattr(par_a, attr)[oa],
                err_msg=f"particle {attr} not bit-identical across worker counts",
            )
        for field in ("ex", "ey", "ez", "bx", "by", "bz", "rho"):
            np.testing.assert_array_equal(
                getattr(pic_b.fields, field), getattr(pic_a.fields, field),
                err_msg=f"field {field} not bit-identical across worker counts",
            )

    @pytest.mark.parametrize("movement", ["lagrangian", "eulerian"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_bit_identical(self, workers, movement):
        vm_s, pic_s = _build("flat", movement=movement)
        vm_w, pic_w = _build("flat", movement=movement, workers=workers)
        try:
            for _ in range(4):
                pic_s.step()
                pic_w.step()
            _assert_accounting_equal(vm_s, vm_w)
            self._assert_state_identical(pic_s, pic_w)
        finally:
            pic_w.close()

    def test_three_way_accounting(self):
        """oracle ≡ pooled ≡ pooled+workers on the same virtual machine run."""
        vm_l, pic_l = _build("looped")
        vm_f, pic_f = _build("flat")
        vm_w, pic_w = _build("flat", workers=2)
        try:
            for _ in range(4):
                pic_l.step()
                pic_f.step()
                pic_w.step()
            _assert_accounting_equal(vm_l, vm_f)
            _assert_accounting_equal(vm_l, vm_w)
            self._assert_state_identical(pic_f, pic_w)
        finally:
            pic_w.close()

    def test_workers_survive_repartition(self):
        """Pool rebuilds (redistribution-style) keep worker runs identical."""
        _, pic_s = _build("flat")
        _, pic_w = _build("flat", workers=2)
        try:
            for _ in range(2):
                pic_s.step()
                pic_w.step()
            pic_s.pool = ParticlePool.from_ranks([p.copy() for p in pic_s.particles])
            pic_w.pool = ParticlePool.from_ranks([p.copy() for p in pic_w.particles])
            for _ in range(2):
                pic_s.step()
                pic_w.step()
            self._assert_state_identical(pic_s, pic_w)
        finally:
            pic_w.close()


class TestPoolLifecycle:
    def test_particles_are_the_pool(self):
        """``particles`` is a read-only view of ``pool``; assigning a pool
        (as the redistributor does) is what replaces the particles."""
        _, pic = _build("flat")
        pic.step()
        with pytest.raises(AttributeError):
            pic.particles = [p.copy() for p in pic.particles]
        new = ParticlePool.from_ranks([p.copy() for p in pic.particles[::-1]])
        pic.pool = new
        assert pic.pool is new and pic.particles is new.views
        pic.step()
        assert pic.pool is new
        assert all(view.block.base is new.array.block for view in pic.particles)

    def test_pool_round_trip(self):
        grid = Grid2D(8, 8)
        particles = uniform_plasma(grid, 200, rng=5)
        parts = [particles.take(np.arange(i * 50, (i + 1) * 50)) for i in range(4)]
        pool = ParticlePool.from_ranks(parts)
        assert pool.p == 4 and pool.n == 200
        np.testing.assert_array_equal(pool.counts, [50, 50, 50, 50])
        for r in range(4):
            np.testing.assert_array_equal(pool.views[r].ids, parts[r].ids)
            np.testing.assert_array_equal(pool.views[r].x, parts[r].x)

    def test_empty_segments(self):
        parts = [ParticleArray.empty(0) for _ in range(3)]
        pool = ParticlePool.from_ranks(parts)
        assert pool.n == 0
        np.testing.assert_array_equal(pool.counts, [0, 0, 0])


class TestDebugHooks:
    def test_hooks_empty_by_default(self):
        _, pic = _build("flat")
        pic.step()
        assert pic.last_halo == []
        assert pic.last_gather_messages == []

    @pytest.mark.parametrize("engine", ["looped", "flat"])
    def test_hooks_populated_when_requested(self, engine):
        vm, pic = _build(engine, collect_debug=True)
        pic.step()
        assert len(pic.last_gather_messages) == vm.p
        assert len(pic.last_halo) == vm.p


class TestValidation:
    def test_unknown_engine_rejected(self):
        """The option is gone, not hidden: ``engine=`` is an unknown argument."""
        vm, pic = _build("flat")
        with pytest.raises(TypeError, match="engine"):
            ParallelPIC(vm, pic.grid, pic.decomp, pic.particles, engine="flat")
        assert not hasattr(pic, "engine")
