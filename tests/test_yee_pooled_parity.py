"""Pooled modern (Yee + zigzag) stepper vs its per-rank oracle, bit for bit.

``ParallelYeePIC`` runs gather, push, scatter and the setup charge
deposition as single vectorized passes over the particle pool;
``tests/_looped_oracle.py::LoopedYeePIC`` keeps the ``for r in range(p)``
bodies they replaced.  The virtual machine must not be able to tell them
apart — equal ``vm.elapsed()``, per-rank clocks, op counts, per-phase
message statistics and gather replies — and neither must the physics:
particles and all ten field arrays are compared by bytes, through
redistributions, injected faults, rank-failure recovery and resume.

The kernels both steppers call were re-derived as well (axis-separable
CIC, an ``fmod`` wrap, zigzag as entry lists); they are pinned bit-equal
to copies of the formulations they replaced, and two ``tracemalloc``
pins keep the pooled step's memory O(entries + nodes).
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.bench import CASES, run_cases
from repro.core import ParticlePartitioner
from repro.machine import FaultEvent, FaultPlan, MachineModel, VirtualMachine
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.parallel_exec import create_backend
from repro.particles import ParticleArray, ParticlePool, gaussian_blob, uniform_plasma
from repro.pic import ParallelPIC, Simulation, SimulationConfig
from repro.pic.interpolation import gather_from_node_values
from repro.pic.parallel_yee import ParallelYeePIC
from repro.pic.yee import staggered_cic
from repro.pic.zigzag import deposit_current_zigzag
from tests._looped_oracle import (
    YEE_STEPPERS,
    LoopedSimulation,
    reference_cic_vertices_weights,
    reference_deposit_current_zigzag,
    reference_gather_from_node_values,
    reference_wrap_positions,
)
from tests.test_engine_parity import _assert_accounting_equal

FIELDS = ("ex", "ey", "ez", "bx", "by", "bz", "rho", "jx", "jy", "jz")


def _pair(grid, local, p, ghost_table="hash", **kwargs):
    """The oracle, on per-rank ghost tables of kind ``ghost_table``, and the
    pooled stepper, which keeps none, over copies of ``local``."""
    steppers = []
    for kind in ("looped", "flat"):
        vm = VirtualMachine(p, MachineModel.cm5())
        decomp = CurveBlockDecomposition(grid, p, "hilbert")
        parts = [part.copy() for part in local]
        tables = dict(ghost_table=ghost_table) if kind == "looped" else {}
        steppers.append(YEE_STEPPERS[kind](vm, grid, decomp, parts, **tables, **kwargs))
    return steppers


def _partitioned(grid, n, p, rng=5, sampler=gaussian_blob):
    return ParticlePartitioner(grid, "hilbert").initial_partition(sampler(grid, n, rng=rng), p)


def _assert_same_bytes(pooled, oracle):
    """Per-rank particle columns and the ten field arrays, byte for byte."""
    assert len(pooled.particles) == len(oracle.particles)
    for mine, ref in zip(pooled.particles, oracle.particles):
        for name in ParticleArray.__slots__:
            assert getattr(mine, name).tobytes() == getattr(ref, name).tobytes(), name
    for name in FIELDS:
        mine, ref = getattr(pooled.fields, name), getattr(oracle.fields, name)
        assert mine.shape == ref.shape and mine.tobytes() == ref.tobytes(), name


def _assert_same_replies(pooled, oracle):
    """``last_gather_replies``: same keys in the same order, same payload bytes."""
    assert len(pooled.last_gather_replies) == len(oracle.last_gather_replies)
    for mine, ref in zip(pooled.last_gather_replies, oracle.last_gather_replies):
        assert list(mine) == list(ref)
        for src in ref:
            for got, want in zip(mine[src], ref[src]):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def _assert_parity(pooled, oracle):
    _assert_accounting_equal(oracle.vm, pooled.vm)
    _assert_same_bytes(pooled, oracle)
    _assert_same_replies(pooled, oracle)


def _step_both(pooled, oracle, steps):
    for _ in range(steps):
        oracle.step()
        pooled.step()
        _assert_parity(pooled, oracle)


# ----------------------------------------------------------------------
# the stepper
# ----------------------------------------------------------------------
class TestStepperParity:
    @pytest.mark.parametrize("ghost_table", ["hash", "direct"])
    @pytest.mark.parametrize("p", [1, 2, 7, 16])
    def test_ranks_and_tables(self, p, ghost_table):
        grid = Grid2D(24, 16)
        oracle, pooled = _pair(grid, _partitioned(grid, 1500, p), p, ghost_table=ghost_table)
        _assert_parity(pooled, oracle)  # the setup charge deposition
        _step_both(pooled, oracle, 4)

    def test_non_unit_cells(self):
        """``* dx * dy`` and ``* (dx * dy)`` only coincide on unit cells,
        which is all ``Simulation`` builds."""
        grid = Grid2D(16, 8, lx=10.0, ly=3.0)
        oracle, pooled = _pair(grid, _partitioned(grid, 1200, 7), 7)
        _step_both(pooled, oracle, 5)

    def test_empty_ranks(self):
        grid = Grid2D(16, 8)
        local = _partitioned(grid, 600, 3, sampler=uniform_plasma)
        local = [local[0], ParticleArray.empty(0), local[1], ParticleArray.empty(0), local[2]]
        oracle, pooled = _pair(grid, local, 5)
        _step_both(pooled, oracle, 3)

    def test_one_rank_holds_everything(self):
        grid = Grid2D(16, 8)
        everything = uniform_plasma(grid, 500, rng=8)
        local = [ParticleArray.empty(0)] * 2 + [everything] + [ParticleArray.empty(0)] * 3
        oracle, pooled = _pair(grid, local, 6)
        _step_both(pooled, oracle, 3)

    def test_no_particles_at_all(self):
        grid = Grid2D(8, 8)
        oracle, pooled = _pair(grid, [ParticleArray.empty(0)] * 3, 3)
        _step_both(pooled, oracle, 2)

    @pytest.mark.parametrize("kind", ["poison", "drop"])
    @pytest.mark.parametrize("phase", ["scatter", "gather"])
    def test_damaged_messages(self, kind, phase):
        """What is merged and replied to is what *arrived*; a drop only costs."""
        grid = Grid2D(24, 16)
        oracle, pooled = _pair(grid, _partitioned(grid, 1500, 6), 6)
        _step_both(pooled, oracle, 2)
        plan = FaultPlan(events=(FaultEvent(kind=kind, phase=phase, src=1),))
        oracle.vm.install_faults(plan)
        pooled.vm.install_faults(plan)
        # one step: after a poisoned scatter the NaNs reach the index casts
        _step_both(pooled, oracle, 1)
        assert np.isnan(pooled.fields.jx).any() == (kind == "poison" and phase == "scatter")

    def test_particles_swapped_between_steps(self):
        """The driver replaces ``pic.pool`` on redistribution: the cached
        unshifted stencil is not reused."""
        grid = Grid2D(24, 16)
        oracle, pooled = _pair(grid, _partitioned(grid, 1500, 4), 4)
        _step_both(pooled, oracle, 2)
        for stepper in (oracle, pooled):
            moved = [part.copy() for part in stepper.particles]
            stepper.pool = ParticlePool.from_ranks(moved[1:] + moved[:1])
        _step_both(pooled, oracle, 2)

    def test_scatter_needs_a_push(self):
        grid = Grid2D(8, 8)
        _, pooled = _pair(grid, _partitioned(grid, 64, 2), 2)
        with pytest.raises(ValueError, match="follows gather_push"):
            pooled.scatter()

    @given(
        p=st.sampled_from([1, 2, 3, 5, 8]),
        n=st.integers(0, 500),
        seed=st.integers(0, 10**6),
        steps=st.integers(1, 4),
        ghost_table=st.sampled_from(["hash", "direct"]),
        poison=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_property(self, p, n, seed, steps, ghost_table, poison):
        grid = Grid2D(12, 10, lx=9.0, ly=10.0)
        local = _partitioned(grid, n, p, rng=seed, sampler=uniform_plasma)
        oracle, pooled = _pair(grid, local, p, ghost_table=ghost_table)
        _step_both(pooled, oracle, steps - poison)
        if poison:  # the last step runs on a machine that damages every message
            plan = FaultPlan(events=(FaultEvent(kind="poison"),))
            oracle.vm.install_faults(plan)
            pooled.vm.install_faults(plan)
            _step_both(pooled, oracle, 1)


# ----------------------------------------------------------------------
# the driver over it
# ----------------------------------------------------------------------
def _config(**kwargs):
    base = dict(nx=32, ny=16, nparticles=2048, p=4, distribution="irregular",
                kernel="modern", seed=1)  # fmt: skip
    base.update(kwargs)
    return SimulationConfig(**base)


def _assert_runs_equal(sim, ref, result, ref_result):
    assert result.to_dict() == ref_result.to_dict()
    assert sim.vm.state_dict() == ref.vm.state_dict()
    _assert_parity(sim.pic, ref.pic)


class TestDriverParity:
    @pytest.mark.parametrize("policy", ["static", "periodic:2", "dynamic"])
    @pytest.mark.parametrize("ghost_table", ["hash", "direct"])
    @pytest.mark.parametrize("p", [1, 2, 7, 16])
    def test_policy_matrix(self, p, ghost_table, policy):
        config = _config(p=p, ghost_table=ghost_table, policy=policy)
        ref, sim = LoopedSimulation(config), Simulation(config)
        _assert_runs_equal(sim, ref, sim.run(6), ref.run(6))

    def test_whole_document_dynamic_run(self):
        config = _config(p=6, policy="dynamic")
        ref, sim = LoopedSimulation(config), Simulation(config)
        ref_result, result = ref.run(12), sim.run(12)
        assert result.n_redistributions >= 1
        _assert_runs_equal(sim, ref, result, ref_result)

    def test_rank_kill_and_checkpoint_recovery(self, tmp_path):
        plan = FaultPlan(events=(FaultEvent(kind="kill", rank=2, iteration=6),))
        runs = []
        for sim_cls in (LoopedSimulation, Simulation):
            sim = sim_cls(_config(p=6, policy="dynamic")).install_faults(plan)
            result = sim.run(
                12, checkpoint_every=4, checkpoint_path=tmp_path / f"{sim_cls.__name__}.npz"
            )
            assert result.n_recoveries == 1
            runs.append((sim, result))
        (ref, ref_result), (sim, result) = runs
        _assert_runs_equal(sim, ref, result, ref_result)

    def test_resume_mid_run(self, tmp_path):
        """Either stepper resumes the other's checkpoint to the same end state."""
        config = _config(policy="periodic:2")
        full_ref = LoopedSimulation(config)
        full_result = full_ref.run(8)
        first = Simulation(config)
        first.run(3)
        path = first.checkpoint(tmp_path / "ck.npz")
        for sim_cls in (Simulation, LoopedSimulation):
            resumed = sim_cls.from_checkpoint(path)
            result = resumed.run(5)
            assert result.total_time == full_result.total_time
            assert resumed.vm.state_dict() == full_ref.vm.state_dict()
            _assert_same_bytes(resumed.pic, full_ref.pic)


# ----------------------------------------------------------------------
# guards and profiler hooks
# ----------------------------------------------------------------------
_POISON_AT_2 = FaultPlan(events=(FaultEvent(kind="poison", iteration=2, phase="scatter"),))


class TestGuards:
    def test_strict_raises_at_the_poisoned_iteration(self):
        from repro.util.errors import SimulationIntegrityError

        sim = Simulation(_config(guards="strict")).install_faults(_POISON_AT_2)
        with pytest.raises(SimulationIntegrityError, match=r"\[scatter\] non-finite .* 'jx'"):
            sim.run(5)
        assert sim.pic.iteration == 2

    def test_warn_reports_and_continues(self):
        sim = Simulation(_config(guards="warn")).install_faults(_POISON_AT_2)
        with pytest.warns(UserWarning) as caught:
            sim.run(3)
        assert [str(w.message) for w in caught] == [
            "invariant violation: [scatter] non-finite values in field 'jx'"
        ]
        # the NaNs then travel fields -> particles -> index casts, each reported
        with pytest.warns() as caught:
            sim.run(1)
        user = [str(w.message) for w in caught if w.category is UserWarning]
        assert user == [
            "invariant violation: [push] non-finite particle position/momentum",
            "invariant violation: [push] non-finite values in field 'ex'",
            "invariant violation: [scatter] non-finite values in field 'rho'",
        ]
        others = [w for w in caught if w.category is not UserWarning]
        assert others and all(
            w.category is RuntimeWarning and "invalid value encountered in cast" in str(w.message)
            for w in others
        )
        assert len(sim.guard.violations) == 4

    def test_guard_changes_nothing_without_faults(self):
        off, strict = Simulation(_config(guards="off")), Simulation(_config(guards="strict"))
        r_off, r_strict = off.run(5), strict.run(5)
        assert r_off.total_time == r_strict.total_time
        assert off.vm.state_dict() == strict.vm.state_dict()
        _assert_same_bytes(off.pic, strict.pic)
        assert strict.guard.violations == []


class TestProfilerSections:
    def test_kernel_sections_and_identical_result(self, tmp_path):
        plain, profiled = Simulation(_config()), Simulation(_config())
        profiled.enable_profiling()
        assert profiled.run(4).to_dict() == plain.run(4).to_dict()
        profiled.save_profile(tmp_path)
        folded = (tmp_path / "profile.folded").read_text()
        for frame in ("gather;gather_push", "gather;exchange", "scatter;deposit",
                      "scatter;ghost_merge"):  # fmt: skip
            assert f"{frame} " in folded


# ----------------------------------------------------------------------
# the bench tripwire case
# ----------------------------------------------------------------------
def test_bench_case_matches_the_oracle():
    """``modern_step_p32``'s vm seconds / op counts are the oracle's."""
    (case,) = [c for c in CASES if c.name == "modern_step_p32"]
    config = case.setup().config
    looped = dataclasses.replace(case, setup=lambda: LoopedSimulation(config))
    assert run_cases([case]).cases == run_cases([looped]).cases


# ----------------------------------------------------------------------
# the kernels, against the formulations they replaced
# ----------------------------------------------------------------------
_GRIDS = [Grid2D(32, 16), Grid2D(16, 8, lx=10.0, ly=3.0), Grid2D(7, 5, lx=1.0, ly=2.5)]


def _positions(grid, n, rng):
    """Random, boundary and out-of-box positions."""
    x = rng.uniform(-2 * grid.lx, 3 * grid.lx, n)
    y = rng.uniform(-2 * grid.ly, 3 * grid.ly, n)
    x[:7] = [grid.lx, -1e-18, np.nextafter(grid.lx, 0), 0.0, -0.0, 2 * grid.lx, -grid.lx]
    y[:7] = [grid.ly, -1e-18, np.nextafter(grid.ly, 0), -0.0, 0.0, -grid.ly, 3 * grid.ly]
    return x, y


class TestKernelsBitEqual:
    @pytest.mark.parametrize("grid", _GRIDS, ids=repr)
    def test_wrap_and_cic(self, grid):
        rng = np.random.default_rng(0)
        for n in (0, 7, 2000):
            x, y = _positions(grid, max(n, 7), rng)
            x, y = x[:n], y[:n]
            for got, want in zip(grid.wrap_positions(x, y), reference_wrap_positions(grid, x, y)):
                assert got.tobytes() == want.tobytes()
            for sx, sy in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)):
                nodes, weights = staggered_cic(grid, x, y, sx, sy)
                ref_nodes, ref_weights = reference_cic_vertices_weights(
                    grid, x - sx * grid.dx, y - sy * grid.dy
                )
                assert nodes.dtype == ref_nodes.dtype and nodes.shape == ref_nodes.shape
                assert nodes.tobytes() == ref_nodes.tobytes()
                assert weights.tobytes() == ref_weights.tobytes()
            if n:
                nodes, _ = grid.cic_vertices_weights(x, y)
                np.testing.assert_array_equal(grid.cell_vertices(nodes[:, 0]), nodes)

    @pytest.mark.parametrize("grid", _GRIDS, ids=repr)
    def test_zigzag_dense(self, grid):
        rng = np.random.default_rng(1)
        for n in (0, 7, 3000):
            x, y = _positions(grid, max(n, 7), rng)
            x, y = x[:n], y[:n]
            move_x = rng.uniform(-0.99, 0.99, n) * grid.dx
            move_y = rng.uniform(-0.99, 0.99, n) * grid.dy
            move_x[::3] = 0.0  # particles that stay in their column
            x_new, y_new = grid.wrap_positions(x + move_x, y + move_y)
            charge = rng.normal(size=n)
            args = (grid, x, y, x_new, y_new, charge, 0.3)
            try:
                want = reference_deposit_current_zigzag(*args)
            except ValueError:  # a rounded move of exactly one cell
                with pytest.raises(ValueError, match="less than one cell"):
                    deposit_current_zigzag(*args)
                continue
            for got, ref in zip(deposit_current_zigzag(*args), want):
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("grid", _GRIDS, ids=repr)
    def test_gather_from_node_major_rows(self, grid):
        """Reading node-major rows hands einsum the fancy index's memory
        layout, so the interpolated floats are that formulation's."""
        rng = np.random.default_rng(2)
        for ncomp in (1, 2, 3, 6):
            magnitude = 10.0 ** rng.uniform(-8, 8, (ncomp, grid.nnodes))
            node_values = rng.normal(size=(ncomp, grid.nnodes)) * magnitude
            for n in (0, 7, 2000):
                x, y = _positions(grid, max(n, 7), rng)
                nodes, weights = grid.cic_vertices_weights(x[:n], y[:n])
                blocks = [node_values] + [node_values[row : row + 1] for row in range(ncomp)]
                for block in blocks:
                    got = gather_from_node_values(block, nodes, weights)
                    want = reference_gather_from_node_values(block, nodes, weights)
                    assert got.shape == want.shape == (len(block), n)
                    assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# memory: O(entries + nodes), never a rank-by-mesh block
# ----------------------------------------------------------------------
def _step_peak(stepper) -> int:
    """``tracemalloc`` peak of one ``step()`` above what was live before it."""
    stepper.step()  # pools, caches and lazily built schedules exist now
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        stepper.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


class TestMemoryPins:
    # measured step() peaks at the Fig 17 size, in bytes: on the compiled
    # kernels (the era scatter's (4, n, 4) entry block, the gather's
    # (n, 4, ncomp) block and ghost_slots' sort keys are never built) and on
    # their NumPy bodies; the era stepper's CIC and interpolation outputs,
    # and the modern stepper's stencil cells, pre-push positions and (on the
    # NumPy bodies) zigzag entries, are kept across steps, so no step
    # allocates them
    @pytest.mark.parametrize(
        "cls, compiled, numpy_bodies, workers",
        [
            (ParallelPIC, 1_597_668, 7_469_356, 0),
            (ParallelYeePIC, 1_452_096, 8_393_808, 0),
            (ParallelPIC, 1_597_668, 7_469_356, 2),
        ],
        ids=["era", "modern", "era-workers2"],
    )
    def test_step_peak_at_fig17_size(self, cls, compiled, numpy_bodies, workers):
        """128x64, 32768 particles, p=32: each pooled step stays within
        10 % of the peak it was measured at.  Shard threads work on the
        one pool, no second copy of it: the in-process pin plus the
        ``(nshards, 4, nnodes)`` rows block holds for them too."""
        measured = numpy_bodies if native.kernels() is None else compiled
        grid, p = Grid2D(128, 64), 32
        vm = VirtualMachine(p, MachineModel.cm5())
        decomp = CurveBlockDecomposition(grid, p, "hilbert")
        backend = create_backend(workers, grid)
        stepper = cls(vm, grid, decomp, _partitioned(grid, 32768, p), backend=backend)
        try:
            peak = _step_peak(stepper)
        finally:
            if backend is not None:
                backend.close()
        allowed = 1.1 * measured + workers * 4 * grid.nnodes * 8
        assert peak <= allowed, f"{cls.__name__}.step() peaked at {peak} B"

    def test_no_rank_by_mesh_block(self):
        """Many ranks, a large mesh, few particles: one float64 per
        (rank, node) would dwarf everything the step really needs."""
        grid, p = Grid2D(256, 128), 64
        vm = VirtualMachine(p, MachineModel.cm5())
        decomp = CurveBlockDecomposition(grid, p, "hilbert")
        pooled = ParallelYeePIC(vm, grid, decomp, _partitioned(grid, 4096, p))
        assert _step_peak(pooled) < p * grid.nnodes * 8
