"""Nothing a ``workers=N`` run starts outlives it.

``Simulation.close()`` / ``__exit__`` and ``FlatBackend.close()`` join the
helper threads of the backend's team: afterwards the process has the
threads, the kernel tasks and the children it had before — after a clean
run, after a run that raised mid-step (from the driver and from the NumPy
body of a shard), and after a rank-failure recovery that rebuilt the
stepper around the same backend.
"""

import os
import threading
import time
from pathlib import Path

import pytest

import repro.parallel_exec.kernels as kernels_module
from repro import native
from repro.machine import FaultEvent, FaultPlan
from repro.pic import Simulation
from repro.util.errors import SimulationIntegrityError
from tests.test_parallel_exec import _cfg

pytestmark = pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc")


def _census():
    """(Python threads, kernel tasks, child processes) of this process."""
    me, children = str(os.getpid()), set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                fields = Path("/proc", entry, "stat").read_text().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue  # gone while we looked
            if fields[1] == me:
                children.add(int(entry))
    return threading.active_count(), set(os.listdir("/proc/self/task")), children


def _assert_back_to(before) -> None:
    """``join()`` returns when the thread has left Python; the kernel reaps
    its task a moment later, so the census may need a few milliseconds."""
    deadline = time.monotonic() + 5.0
    while (now := _census()) != before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert now == before


def _clean_run(tmp_path, monkeypatch):
    with Simulation(_cfg(), workers=2) as sim:
        sim.run(3)
        assert threading.active_count() > 1 or native.kernels() is None  # the helper runs


def _guard_raises_mid_step(tmp_path, monkeypatch):
    plan = FaultPlan(events=(FaultEvent(kind="poison", iteration=2, phase="scatter"),))
    with pytest.raises(SimulationIntegrityError):
        with Simulation(_cfg(guards="strict"), workers=2) as sim:
            sim.install_faults(plan)
            sim.run(4)


def _shard_raises_mid_step(tmp_path, monkeypatch):
    """The last shard of the second gather + push stops short (as at a
    float flag), and the NumPy body that pushes the rest of it raises."""
    from repro.native.calls import Kernels

    if native.kernels() is None:
        pytest.skip("the NumPy bodies push every shard to its end")
    real, steps = Kernels.gather_push, []

    def short(self, grid, parts, planes, dt, shards, *stencils):
        found = real(self, grid, parts, planes, dt, shards, *stencils)
        steps.append(1)
        if len(steps) == 2:
            shards.out[-1, 0] = 0
        return found

    def failing(*args):
        raise FloatingPointError("injected")

    monkeypatch.setattr(Kernels, "gather_push", short)
    monkeypatch.setattr(kernels_module, "gather_push_numpy", failing)
    with pytest.raises(FloatingPointError, match="injected"):
        with Simulation(_cfg(), workers=2) as sim:
            sim.run(4)
    assert len(steps) == 2


def _rank_failure_recovery(tmp_path, monkeypatch):
    plan = FaultPlan(events=(FaultEvent(kind="kill", rank=2, iteration=3),))
    sim = Simulation(_cfg(), workers=2)
    try:
        sim.install_faults(plan)
        result = sim.run(5, checkpoint_every=2, checkpoint_path=tmp_path / "ck.npz")
        assert result.n_recoveries == 1 and sim.pic.backend is sim.backend
    finally:
        sim.close()
    sim.close()  # idempotent


@pytest.mark.parametrize(
    "scenario",
    [_clean_run, _guard_raises_mid_step, _shard_raises_mid_step, _rank_failure_recovery],
    ids=lambda fn: fn.__name__.strip("_"),
)
def test_no_thread_and_no_child_left_behind(scenario, tmp_path, monkeypatch):
    before = _census()
    scenario(tmp_path, monkeypatch)
    _assert_back_to(before)


def test_a_stepper_leaves_its_backend_to_whoever_made_it():
    """Closing a stepper lets go of the backend; closing the backend joins
    its team (twice is once)."""
    from repro.core import ParticlePartitioner
    from repro.machine import MachineModel, VirtualMachine
    from repro.mesh import CurveBlockDecomposition, Grid2D
    from repro.parallel_exec import create_backend
    from repro.particles import gaussian_blob
    from repro.pic import ParallelPIC

    before = _census()
    grid, p = Grid2D(16, 12), 4
    local = ParticlePartitioner(grid, "hilbert").initial_partition(
        gaussian_blob(grid, 600, rng=5), p
    )
    backend = create_backend(3, grid)
    pic = ParallelPIC(
        VirtualMachine(p, MachineModel.cm5()), grid, CurveBlockDecomposition(grid, p, "hilbert"),
        local, backend=backend,
    )  # fmt: skip
    pic.step()
    helpers = 2 if native.kernels() is not None else 0
    pic.close()
    assert pic.backend is None and threading.active_count() == before[0] + helpers
    backend.close()
    backend.close()  # idempotent
    _assert_back_to(before)
