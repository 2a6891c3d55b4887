"""One ``step()`` costs a fixed number of Python-level calls, whatever ``p`` is.

The pooled steppers run every phase as whole-array passes and ship every
exchange as one :class:`~repro.machine.batch.MessageBatch`; nothing on
the fault-free path may loop over messages (their number grows like
``p`` times the neighbours of a subdomain).  The tripwire counts the
``call`` / ``c_call`` events ``sys.setprofile`` reports for one step at
a fixed mesh and particle count and compares ``p = 8`` with ``p = 32``.
What legitimately remains per *rank* — one ``GhostTable.account_pooled``
per rank with ghost entries and the identity check of the pool's views —
is a handful of calls per rank; one message used to cost more than that,
and a rank exchanges with several neighbours three times a step.  No
wall clock is read.
"""

import sys

import pytest

from repro.core import ParticlePartitioner
from repro.machine import MachineModel, VirtualMachine
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.particles import gaussian_blob
from repro.pic import ParallelPIC
from repro.pic.parallel_yee import ParallelYeePIC

#: Python-level calls a step may add per added rank (see the module docstring)
CALLS_PER_RANK = 6


def _calls_of_one_step(stepper_cls, p):
    grid = Grid2D(64, 32)
    vm = VirtualMachine(p, MachineModel.cm5())
    decomp = CurveBlockDecomposition(grid, p, "hilbert")
    local = ParticlePartitioner(grid, "hilbert").initial_partition(
        gaussian_blob(grid, 4096, rng=11), p
    )
    pic = stepper_cls(vm, grid, decomp, local)
    pic.step()  # builds the pool, fills the caches
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        pic.step()
    finally:
        sys.setprofile(None)
    messages = vm.stats.phase("scatter").total_msgs + vm.stats.phase("field").total_msgs
    return calls, messages


@pytest.mark.parametrize("stepper_cls", [ParallelPIC, ParallelYeePIC])
def test_step_calls_do_not_grow_with_messages(stepper_cls):
    calls_8, messages_8 = _calls_of_one_step(stepper_cls, 8)
    calls_32, messages_32 = _calls_of_one_step(stepper_cls, 32)
    assert messages_32 > 3 * messages_8, "the p = 32 run does not exchange more messages"
    assert calls_32 - calls_8 <= CALLS_PER_RANK * (32 - 8), (
        f"one step made {calls_8} Python-level calls at p = 8 and {calls_32} at p = 32 "
        f"({messages_8} -> {messages_32} messages): something loops over ranks or messages"
    )
