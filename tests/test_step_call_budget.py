"""One ``step()`` costs a fixed number of Python-level calls, whatever ``p`` is.

The pooled steppers run every phase as whole-array passes and ship every
exchange as one :class:`~repro.machine.batch.MessageBatch`; nothing on
the fault-free path may loop over ranks or messages (the number of
messages grows like ``p`` times the neighbours of a subdomain).  The
tripwire counts the ``call`` / ``c_call`` events ``sys.setprofile``
reports for one step at a fixed mesh and particle count and compares
``p = 8`` with ``p = 32``.  Nothing is left per rank: the particles are
one pool whose per-rank views are built only when something reads them,
and the ghost tallies are per-rank arrays, so a step may add at most one
call per added rank.  The Eulerian stepper migrates every particle each
step into a new pool and is held to the same bound.  On a two-worker
backend (either stepper) the helper thread that runs the second shard
makes no Python-level call at all: it stays inside the compiled pass, so
every call counted is the stepping thread's.  No wall clock is read.

A redistribution (paper Fig 12: index, incremental sort, balance, bucket
rebuild) runs the same way, as whole-pool passes with every particle
exchange one batch, and is held to the same bound; the per-rank pipeline
it replaced made 426 calls per added rank.
"""

import sys
import threading
from collections import Counter

import pytest

from repro import native
from repro.core import ParticlePartitioner
from repro.machine import MachineModel, VirtualMachine
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.parallel_exec import create_backend
from repro.particles import gaussian_blob
from repro.pic import ParallelPIC, Simulation, SimulationConfig
from repro.pic.parallel_yee import ParallelYeePIC

#: Python-level calls a step may add per added rank (see the module docstring)
CALLS_PER_RANK = 1
#: ... and a redistribution
REDISTRIBUTION_CALLS_PER_RANK = 1


def _calls_of_one_step(stepper_cls, p, workers=0, **kwargs):
    grid = Grid2D(64, 32)
    vm = VirtualMachine(p, MachineModel.cm5())
    decomp = CurveBlockDecomposition(grid, p, "hilbert")
    local = ParticlePartitioner(grid, "hilbert").initial_partition(
        gaussian_blob(grid, 4096, rng=11), p
    )
    calls = Counter()  # per thread: no increment is shared
    counting = False

    def count(frame, event, arg):
        if counting and event in ("call", "c_call"):
            calls[threading.get_ident()] += 1

    threading.setprofile(count)  # the shard threads, started with the backend, count too
    backend = create_backend(workers, grid)
    pic = stepper_cls(vm, grid, decomp, local, backend=backend, **kwargs)
    try:
        pic.step()  # fills the caches
        sys.setprofile(count)
        counting = True
        pic.step()
    finally:
        counting = False  # the helpers leave the C pass and Python in close()
        sys.setprofile(None)
        threading.setprofile(None)
        if backend is not None:
            backend.close()
    assert list(calls) == [threading.get_ident()], "a thread besides the stepping one ran Python"
    messages = vm.stats.phase("scatter").total_msgs + vm.stats.phase("field").total_msgs
    return sum(calls.values()), messages


@pytest.mark.parametrize(
    "stepper_cls, kwargs",
    [
        (ParallelPIC, {}),
        (ParallelYeePIC, {}),
        (ParallelPIC, {"workers": 2}),
        (ParallelYeePIC, {"workers": 2}),
        (ParallelPIC, {"movement": "eulerian"}),
    ],
    ids=[
        "ParallelPIC", "ParallelYeePIC", "ParallelPIC-workers2", "ParallelYeePIC-workers2",
        "ParallelPIC-eulerian",
    ],  # fmt: skip
)
def test_step_calls_do_not_grow_with_messages(stepper_cls, kwargs):
    calls_8, messages_8 = _calls_of_one_step(stepper_cls, 8, **kwargs)
    calls_32, messages_32 = _calls_of_one_step(stepper_cls, 32, **kwargs)
    assert messages_32 > 3 * messages_8, "the p = 32 run does not exchange more messages"
    assert calls_32 - calls_8 <= CALLS_PER_RANK * (32 - 8), (
        f"one step made {calls_8} Python-level calls at p = 8 and {calls_32} at p = 32 "
        f"({messages_8} -> {messages_32} messages): something loops over ranks or messages"
    )


#: Python-level calls of one warm ParallelYeePIC step at p = 8, per kernel
#: path and worker count, as measured on CPython 3.11 (the compiled gather
#: numbers its request slots with no call of their own) ...
YEE_STEP_CALLS = {
    ("compiled", 0): 1124, ("compiled", 2): 1188, ("numpy", 0): 1431, ("numpy", 2): 1475,
}  # fmt: skip
#: ... and the slack a different interpreter or NumPy may take
YEE_STEP_SLACK = 25


@pytest.mark.parametrize("workers", [0, 2])
def test_a_yee_step_keeps_its_call_count(workers):
    pinned = YEE_STEP_CALLS["compiled" if native.kernels() is not None else "numpy", workers]
    calls, _ = _calls_of_one_step(ParallelYeePIC, 8, workers=workers)
    assert calls <= pinned + YEE_STEP_SLACK, (
        f"one ParallelYeePIC step at workers={workers} made {calls} Python-level calls, "
        f"pinned at {pinned} + {YEE_STEP_SLACK}"
    )


def _calls_of_one_redistribution(p):
    sim = Simulation(
        SimulationConfig(nx=64, ny=32, nparticles=4096, p=p, distribution="irregular", seed=3)
    )
    sim.run(2)  # the particles drift off their epoch-0 order; the stats epoch resets
    pool, calls = sim.pic.pool, 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        sim.redistributor.redistribute(sim.vm, pool)
    finally:
        sys.setprofile(None)
    return calls, sim.vm.stats.phase("redistribution").total_msgs


def test_redistribution_calls_do_not_grow_with_ranks():
    calls_8, messages_8 = _calls_of_one_redistribution(8)
    calls_32, messages_32 = _calls_of_one_redistribution(32)
    assert messages_32 > messages_8, "the p = 32 redistribution does not exchange more messages"
    assert calls_32 - calls_8 <= REDISTRIBUTION_CALLS_PER_RANK * (32 - 8), (
        f"one redistribution made {calls_8} Python-level calls at p = 8 and {calls_32} at "
        f"p = 32: something loops over ranks or messages"
    )


#: Python-level calls telemetry may add to one iteration (its ``result()`` included)
TELEMETRY_CALLS_PER_ITERATION = 150
#: ... profiling (two host clock reads and one row per phase and per kernel section)
PROFILING_CALLS_PER_ITERATION = 60
#: ... both: the rows they share carry both clocks
OBSERVED_CALLS_PER_ITERATION = 175


def _calls_of_a_run(*enable, iterations=20):
    sim = Simulation(
        SimulationConfig(nx=64, ny=32, nparticles=8192, p=32, distribution="irregular",
                         policy="dynamic", seed=3)  # fmt: skip
    )
    for observer in enable:
        getattr(sim, f"enable_{observer}")()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        sim.run(iterations)  # ends in sim.result(), which folds the telemetry records
    finally:
        sys.setprofile(None)
    return calls


def _observer_calls_per_iteration(*enable):
    _calls_of_a_run(iterations=2)  # loads the kernels, fills the caches
    bare, observed = _calls_of_a_run(), _calls_of_a_run(*enable)
    return (observed - bare) / 20, bare, observed


def test_telemetry_calls_per_iteration():
    """Telemetry's hooks (records, spans, the aggregates fold) stay a small
    fixed number of calls per iteration at the CI overhead gate's config."""
    per_iteration, bare, observed = _observer_calls_per_iteration("telemetry")
    assert per_iteration <= TELEMETRY_CALLS_PER_ITERATION, (
        f"telemetry added {per_iteration:.1f} Python-level calls per iteration "
        f"({bare} bare, {observed} observed over 20 iterations)"
    )


def test_profiling_calls_per_iteration():
    """Profiling records host rows on the phase recorder and folds them when
    exported or past a row bound, so a profiled iteration stays within a few
    calls a row."""
    per_iteration, bare, observed = _observer_calls_per_iteration("profiling")
    assert per_iteration <= PROFILING_CALLS_PER_ITERATION, (
        f"profiling added {per_iteration:.1f} Python-level calls per iteration "
        f"({bare} bare, {observed} profiled over 20 iterations)"
    )


def test_both_observers_calls_per_iteration():
    """Telemetry and profiling share one row per phase, so together they cost
    about telemetry's calls plus the host clock reads and section rows."""
    per_iteration, bare, observed = _observer_calls_per_iteration("telemetry", "profiling")
    assert per_iteration <= OBSERVED_CALLS_PER_ITERATION, (
        f"telemetry and profiling added {per_iteration:.1f} Python-level calls per "
        f"iteration ({bare} bare, {observed} observed over 20 iterations)"
    )
