"""The exact-resume contract (DESIGN.md §5.2).

Checkpoint at iteration k, restore with ``Simulation.from_checkpoint``,
run the rest: the result must equal the uninterrupted run *exactly* —
per-iteration records, virtual times, comm-stat series, redistribution
schedule and costs — and the physical state must match at atol=0.
"""

import numpy as np
import pytest

from repro.pic import Simulation, SimulationConfig
from tests._looped_oracle import SIMULATIONS

TOTAL = 8
SPLIT = 4


def _config(**overrides) -> SimulationConfig:
    base = dict(
        nx=32,
        ny=16,
        nparticles=1024,
        p=4,
        distribution="irregular",
        vth=0.3,
        seed=3,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _assert_results_identical(full, resumed):
    assert len(full.records) == len(resumed.records)
    for a, b in zip(full.records, resumed.records):
        assert a == b, f"iteration {a.iteration}: {a} != {b}"
    assert full.total_time == resumed.total_time
    assert full.computation_time == resumed.computation_time
    assert full.n_redistributions == resumed.n_redistributions
    assert full.redistribution_time == resumed.redistribution_time
    assert full.phase_breakdown == resumed.phase_breakdown
    assert np.array_equal(full.scatter_max_bytes, resumed.scatter_max_bytes)
    assert np.array_equal(full.scatter_max_msgs, resumed.scatter_max_msgs)
    assert full.to_dict() == resumed.to_dict()


def _assert_state_identical(sim_a, sim_b):
    assert len(sim_a.pic.particles) == len(sim_b.pic.particles)
    for parts_a, parts_b in zip(sim_a.pic.particles, sim_b.pic.particles):
        assert np.array_equal(parts_a.ids, parts_b.ids)
        assert np.array_equal(parts_a.block, parts_b.block)
    for name in ("ex", "ey", "ez", "bx", "by", "bz", "rho"):
        assert np.array_equal(
            getattr(sim_a.pic.fields, name), getattr(sim_b.pic.fields, name)
        ), f"field {name} diverged"
    assert np.array_equal(sim_a.vm.clocks, sim_b.vm.clocks)
    assert np.array_equal(sim_a.vm.compute_time, sim_b.vm.compute_time)
    assert sim_a.vm.ops.as_dict() == sim_b.vm.ops.as_dict()


def _run_split(config, sim_cls=Simulation) -> tuple:
    """Return (uninterrupted sim+result, resumed sim+result) for config."""
    full_sim = sim_cls(config)
    full = full_sim.run(TOTAL)

    first = sim_cls(config)
    first.run(SPLIT)
    path = None

    import tempfile
    from pathlib import Path

    tmp = Path(tempfile.mkdtemp(prefix="repro_resume_"))
    path = first.checkpoint(tmp / "ck.npz")

    resumed_sim = sim_cls.from_checkpoint(path)
    resumed = resumed_sim.run(TOTAL - SPLIT)
    return full_sim, full, resumed_sim, resumed


@pytest.mark.parametrize("engine", ["flat", "looped"])
@pytest.mark.parametrize("movement", ["lagrangian", "eulerian"])
@pytest.mark.parametrize("policy", ["static", "periodic:3", "dynamic"])
def test_era_kernel_matrix(engine, movement, policy):
    """``looped`` runs the same driver over the per-rank oracle stepper."""
    config = _config(movement=movement, policy=policy)
    full_sim, full, resumed_sim, resumed = _run_split(config, SIMULATIONS[engine])
    _assert_results_identical(full, resumed)
    _assert_state_identical(full_sim, resumed_sim)


@pytest.mark.parametrize("policy", ["static", "periodic:3", "dynamic"])
def test_modern_kernel(policy):
    config = _config(kernel="modern", policy=policy)
    full_sim, full, resumed_sim, resumed = _run_split(config)
    _assert_results_identical(full, resumed)
    _assert_state_identical(full_sim, resumed_sim)


def test_adaptive_rebalancing_bounds_restored():
    """Adaptive partitioning moves decomposition bounds at runtime; the
    checkpoint must carry them or the resumed ownership map diverges."""
    config = _config(movement="eulerian", partitioning="adaptive", policy="periodic:3")
    full_sim, full, resumed_sim, resumed = _run_split(config)
    _assert_results_identical(full, resumed)
    _assert_state_identical(full_sim, resumed_sim)
    assert np.array_equal(
        full_sim.decomp.curve_bounds, resumed_sim.decomp.curve_bounds
    )


def test_resume_of_resume():
    """Chained checkpoints: 3 + 3 + 2 equals the uninterrupted 8."""
    import tempfile
    from pathlib import Path

    config = _config(policy="dynamic")
    full = Simulation(config).run(TOTAL)

    tmp = Path(tempfile.mkdtemp(prefix="repro_chain_"))
    sim = Simulation(config)
    sim.run(3)
    sim.checkpoint(tmp / "a.npz")
    sim = Simulation.from_checkpoint(tmp / "a.npz")
    sim.run(3)
    sim.checkpoint(tmp / "b.npz")
    sim = Simulation.from_checkpoint(tmp / "b.npz")
    resumed = sim.run(2)
    _assert_results_identical(full, resumed)


def test_checkpoint_every_writes_during_run(tmp_path):
    config = _config()
    sim = Simulation(config)
    path = tmp_path / "periodic.npz"
    sim.run(6, checkpoint_every=3, checkpoint_path=path)
    assert path.exists()
    resumed = Simulation.from_checkpoint(path)
    # last write happened at iteration 6
    assert resumed.iteration == 6
    assert len(resumed.records) == 6


def test_checkpoint_every_requires_path():
    sim = Simulation(_config())
    with pytest.raises(ValueError, match="checkpoint_path"):
        sim.run(2, checkpoint_every=1)


def test_setup_cost_survives():
    config = _config(policy="dynamic")
    sim = Simulation(config)
    sim.run(2)
    import tempfile
    from pathlib import Path

    path = sim.checkpoint(Path(tempfile.mkdtemp(prefix="repro_sc_")) / "ck")
    resumed = Simulation.from_checkpoint(path)
    assert resumed._setup_cost == sim._setup_cost
