"""The tripwire's cases: :data:`CASES`, run in list order.

Every case runs on a :class:`~repro.machine.VirtualMachine` and reports
the cost-model virtual seconds and abstract op counts its body charged.
Sizes are chosen so one run of all of them finishes in a few seconds —
cheap enough to gate every PR — while still exercising the real
vectorized kernels on non-trivial data.  A stateful case (steps, runs,
the redistributor epoch) observes its first invocation on a fresh
fixture.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.bench.core import BenchCase, BenchObservation
from repro.core.incremental_sort import BucketState, bucket_incremental_sort
from repro.core.redistribution import Redistributor
from repro.core.partitioner import ParticlePartitioner
from repro.indexing import hilbert_xy_to_d
from repro.machine import MachineModel, VirtualMachine
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.particles import gaussian_blob
from repro.particles.arrays import ParticlePool
from repro.particles.sort import KeyedBlock, parallel_sample_sort
from repro.pic import ParallelPIC, Simulation, SimulationConfig
from repro.pic.ghost import make_ghost_table

__all__ = ["CASES"]

#: Shared problem size of the PIC-phase cases.  p = 32 with 256
#: particles per rank is the regime the pooled kernels exist for.
_P = 32
_NX, _NY = 64, 32
_NPART = 8192
_SEED = 3


def _observe(vm: VirtualMachine, body) -> BenchObservation:
    """Run ``body`` and report the vm-time / op-count deltas it caused."""
    ops_before = vm.ops.as_dict()
    t0 = vm.elapsed()
    body()
    ops_after = vm.ops.as_dict()
    deltas = {
        k: v - ops_before.get(k, 0.0)
        for k, v in ops_after.items()
        if v - ops_before.get(k, 0.0) > 0.0
    }
    return BenchObservation(vm_seconds=vm.elapsed() - t0, op_counts=deltas)


def _build_pic(movement: str = "lagrangian", p: int = _P, **kwargs) -> ParallelPIC:
    grid = Grid2D(_NX, _NY)
    particles = gaussian_blob(grid, _NPART, rng=_SEED)
    vm = VirtualMachine(p, MachineModel.cm5())
    decomp = CurveBlockDecomposition(grid, p, "hilbert")
    if movement == "eulerian":
        cells = grid.cell_id_of_positions(particles.x, particles.y)
        owners = decomp.owner_of_cells(cells)
        local = [particles.take(np.flatnonzero(owners == r)) for r in range(p)]
    else:
        local = ParticlePartitioner(grid, "hilbert").initial_partition(particles, p)
    return ParallelPIC(vm, grid, decomp, local, movement=movement, **kwargs)


def _config(**kwargs) -> SimulationConfig:
    """The irregular p = 32 driver run of the Simulation cases."""
    base = dict(nx=_NX, ny=_NY, nparticles=_NPART, p=_P, distribution="irregular", seed=_SEED)
    return SimulationConfig(**{**base, **kwargs})


# ----------------------------------------------------------------------
# PIC phase cases
# ----------------------------------------------------------------------
def _scatter(pic: ParallelPIC) -> BenchObservation:
    """Parallel scatter (deposition + ghost exchange)."""
    return _observe(pic.vm, pic.scatter)


def _solved_pic() -> ParallelPIC:
    pic = _build_pic()
    pic.scatter()
    pic.field_solve()
    return pic


def _gather_push(pic: ParallelPIC) -> BenchObservation:
    """Parallel gather + push (+ Eulerian cell-owner migration when Eulerian)."""
    return _observe(pic.vm, pic.gather_push)


def _step(pic: ParallelPIC) -> BenchObservation:
    """One full PIC step (scatter/field/gather/push)."""
    return _observe(pic.vm, pic.step)


def _electrostatic_fixture() -> ParallelPIC:
    pic = _build_pic(p=32, field_solver="electrostatic")
    pic.scatter()  # populate rho so the solve works on real sources
    return pic


def _field_solve(pic: ParallelPIC) -> BenchObservation:
    """Global FFT Poisson solve with all-to-all transpose."""
    return _observe(pic.vm, pic.field_solve)


def _migration_fixture() -> ParallelPIC:
    pic = _build_pic("eulerian", p=32)
    pic.scatter()
    pic.field_solve()
    return pic


# ----------------------------------------------------------------------
# redistribution-core cases
# ----------------------------------------------------------------------
def _sort_fixture(drift: int, p: int = 16, n_per: int = 4000):
    rng = np.random.default_rng(_SEED)
    keys = np.sort(rng.integers(0, 10**6, p * n_per))
    offsets = np.arange(p + 1) * n_per
    state = BucketState.build(keys, offsets, 16)
    drifts = [rng.integers(-drift, drift + 1, n_per) for _ in range(p)]  # one draw per rank
    new_keys = np.maximum(keys + np.concatenate(drifts), 0)
    values = np.tile(keys, (7, 1)).astype(float)
    return VirtualMachine(p, MachineModel.cm5()), state, KeyedBlock(values, new_keys, offsets)


def _resort(ctx) -> BenchObservation:
    """Bucket incremental sort of the drifted keys."""
    vm, state, block = ctx
    return _observe(vm, lambda: bucket_incremental_sort(vm, state, block))


def _sample_sort(ctx) -> BenchObservation:
    """Parallel sample sort of the same keyed rows (baseline)."""
    vm, _, block = ctx
    return _observe(vm, lambda: parallel_sample_sort(vm, block))


def _redistributor_fixture():
    grid = Grid2D(_NX, _NY)
    particles = gaussian_blob(grid, _NPART, rng=_SEED)
    vm = VirtualMachine(_P, MachineModel.cm5())
    partitioner = ParticlePartitioner(grid, "hilbert")
    redis = Redistributor(partitioner, nbuckets=16)
    local = partitioner.initial_partition(particles, _P)
    result = redis.initialize(vm, ParticlePool.from_ranks(local))
    rng = np.random.default_rng(_SEED)
    return {"vm": vm, "redis": redis, "pool": result.pool, "rng": rng, "grid": grid}


def _redistributor_epoch(ctx) -> BenchObservation:
    """Full Redistributor epoch (index + incremental sort + balance) under small drift."""
    vm, redis, rng, grid = ctx["vm"], ctx["redis"], ctx["rng"], ctx["grid"]
    for parts in ctx["pool"].views:
        parts.x[:] = np.mod(parts.x + rng.normal(0.0, 0.05 * grid.dx, parts.n), grid.lx)

    def body():
        ctx["pool"] = redis.redistribute(vm, ctx["pool"]).pool

    return _observe(vm, body)


# ----------------------------------------------------------------------
# kernel / table micro-cases
# ----------------------------------------------------------------------
def _hilbert_fixture():
    return (
        VirtualMachine(1, MachineModel.cm5()),
        np.random.default_rng(_SEED).integers(0, 256, 200_000),
        np.random.default_rng(_SEED + 1).integers(0, 256, 200_000),
    )


def _hilbert_keys(ctx) -> BenchObservation:
    """2-D Hilbert indexing of 200k cell coordinates."""
    vm, x, y = ctx

    def body():
        hilbert_xy_to_d(8, x, y)
        vm.charge_ops("index", float(x.size))

    return _observe(vm, body)


def _ghost_fixture(kind: str):
    grid = Grid2D(128, 64)
    rng = np.random.default_rng(_SEED)
    nodes = rng.integers(0, grid.nnodes, 60_000)
    values = rng.random((4, nodes.size))
    table = make_ghost_table(kind, grid.nnodes, 4)
    return VirtualMachine(1, MachineModel.cm5()), table, nodes, values


def _ghost_body(ctx) -> BenchObservation:
    """Ghost table: accumulate + duplicate-removal flush."""
    vm, table, nodes, values = ctx

    def body():
        before = table.stats.ops
        table.accumulate(nodes, values)
        table.flush()
        vm.charge_ops("table", table.stats.ops - before)

    return _observe(vm, body)


# ----------------------------------------------------------------------
# simulation-driver cases
# ----------------------------------------------------------------------
def _simulation_smoke(sim: Simulation) -> BenchObservation:
    """10 iterations of the full Simulation driver, dynamic policy."""
    return _observe(sim.vm, lambda: sim.run(10))


def _modern_step(sim: Simulation) -> BenchObservation:
    """3 iterations of the modern (Yee + zigzag) kernel at p=32, irregular."""
    return _observe(sim.vm, lambda: sim.run(3))


def _recovery_smoke(_ctx) -> BenchObservation:
    """p=32 run with a rank kill at iteration 4: detect, shrink, restore, replay."""
    from repro.machine.faults import FaultEvent, FaultPlan

    sim = Simulation(_config(policy="dynamic"))
    sim.install_faults(FaultPlan(events=(FaultEvent(kind="kill", rank=5, iteration=4),)))
    with tempfile.TemporaryDirectory(prefix="repro_bench_rec_") as tmp:
        result = sim.run(6, checkpoint_every=2, checkpoint_path=Path(tmp) / "ck.npz")
    if result.n_recoveries != 1:
        raise RuntimeError(f"expected one recovery, got {result.n_recoveries}")
    # recovery swapped sim.vm for the shrunk machine (which carried the
    # old elapsed/ops forward), so report its cumulative totals directly
    return BenchObservation(vm_seconds=sim.vm.elapsed(), op_counts=sim.vm.ops.as_dict())


#: Every case, in run order.
CASES = [
    BenchCase("scatter_static", _scatter, _build_pic),
    BenchCase("gather_push_static", _gather_push, _solved_pic),
    BenchCase("step_static_lagrangian", _step, _build_pic),
    BenchCase("step_eulerian", _step, lambda: _build_pic("eulerian")),
    BenchCase("field_solve_electrostatic_p32", _field_solve, _electrostatic_fixture),
    BenchCase("eulerian_migration_p32", _gather_push, _migration_fixture),
    BenchCase("incremental_resort_small_drift", _resort, lambda: _sort_fixture(drift=200)),
    BenchCase("incremental_resort_large_drift", _resort, lambda: _sort_fixture(drift=100_000)),
    BenchCase("from_scratch_sample_sort", _sample_sort, lambda: _sort_fixture(drift=200)),
    BenchCase("redistributor_epoch_drift", _redistributor_epoch, _redistributor_fixture),
    BenchCase("hilbert_cell_keys", _hilbert_keys, _hilbert_fixture),
    BenchCase("ghost_table_hash", _ghost_body, lambda: _ghost_fixture("hash")),
    BenchCase("ghost_table_direct", _ghost_body, lambda: _ghost_fixture("direct")),
    BenchCase(
        "simulation_smoke_dynamic",
        _simulation_smoke,
        lambda: Simulation(_config(nx=32, ny=16, nparticles=2048, p=4, policy="dynamic")),
    ),
    BenchCase("modern_step_p32", _modern_step, lambda: Simulation(_config(kernel="modern"))),
    BenchCase("recovery_smoke_p32", _recovery_smoke),
]
