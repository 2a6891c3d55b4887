"""A run's aggregates are a fold of its records, equal to a registry fed live.

Hypothesis drives random sequences of the telemetry hooks — iterations
(with and without ghost tallies or a redistribution), SAR decisions,
guard violations, machine shrinks and one-off events, zero iterations
and decisions still pending at the summary included — into a
:class:`~repro.telemetry.RunTelemetry` and into the live registry it
used to keep (``tests/_registry_oracle.py``), and compares the JSON of
the two aggregate blocks byte for byte.
"""

import json
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import PhaseComm
from repro.telemetry import RunTelemetry
from repro.util.opcount import OpCounter
from tests._registry_oracle import LiveRegistry

P = 4
_seconds = st.floats(0.0, 10.0, allow_nan=False)
_hooks = st.sampled_from(["iteration", "iteration", "iteration", "sar", "guard", "shrink", "event"])


class _Machine:
    """What the hooks read of a virtual machine and a stepper."""

    def __init__(self, ghost: bool) -> None:
        self.vm = SimpleNamespace(p=P, ops=OpCounter(), t=0.0)
        self.vm.elapsed = lambda: self.vm.t
        self.pic = SimpleNamespace(pool=SimpleNamespace(counts=np.zeros(P, dtype=np.int64)))
        if ghost:
            for name in ("ghost_entries", "ghost_ops", "ghost_unique"):
                setattr(self.pic, name, np.zeros(P))

    def step(self, data) -> tuple[dict, bool, float]:
        """Advance the clocks, op counts, loads and ghost tallies; draw the traffic."""
        vm, pic, p = self.vm, self.pic, self.vm.p
        vm.t += data.draw(_seconds)
        vm.ops.add(data.draw(st.sampled_from(["scatter", "push"])), data.draw(_seconds))
        pic.pool.counts = np.array(data.draw(st.lists(st.integers(0, 50), min_size=p, max_size=p)))
        if hasattr(pic, "ghost_entries"):
            rebuilt = data.draw(st.booleans())  # a recovery restarts the stepper's tallies
            for name in ("ghost_entries", "ghost_ops", "ghost_unique"):
                tallies = getattr(pic, name)
                tallies *= not rebuilt
                tallies[:p] += data.draw(st.integers(0, 9))
        phases = data.draw(st.lists(st.sampled_from(["scatter", "field", "gather"]), unique=True))
        epoch = {
            phase: PhaseComm(np.array(data.draw(st.lists(
                st.integers(0, 1000), min_size=4 * p, max_size=4 * p))).reshape(4, p))
            for phase in phases
        }  # fmt: skip
        return epoch, data.draw(st.booleans()), data.draw(_seconds)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ghost=st.booleans(), hooks=st.lists(_hooks, max_size=12))
def test_aggregates_equal_a_live_registry(data, ghost, hooks):
    machine = _Machine(ghost)
    vm = machine.vm
    tel, live = RunTelemetry(P), LiveRegistry()
    iterations = 0
    for hook in hooks:
        if hook == "iteration":
            tel.set_iteration(iterations)
            tel.begin_iteration(vm, machine.pic)
            epoch, redistributed, cost = machine.step(data)
            record = tel.end_iteration(
                vm, machine.pic, iteration=iterations, phase_time={"scatter": 1.0},
                comm_epochs=[epoch], redistributed=redistributed, redistribution_cost=cost,
            )  # fmt: skip
            live.end_iteration(record, p=vm.p)
            iterations += 1
        elif hook == "sar":
            decision = {"iteration": iterations, "fired": data.draw(st.booleans())}
            if data.draw(st.booleans()):
                del decision["fired"]
            tel.record_sar_decision(decision)
            live.record_sar_decision(decision)
        elif hook == "guard":
            tel.record_guard_violation("conservation")
            live.record_guard_violation()
        elif hook == "shrink" and vm.p > 1:
            vm.p -= 1
            tel.on_shrink(vm.p, dead_rank=0, iteration=iterations, t=vm.t)
            live.on_shrink()
        elif hook == "event":
            kind = data.draw(st.sampled_from(["checkpoint", "rank_failure", "recovery", "timeout"]))
            tel.record_event(kind, t=vm.t, iteration=iterations)
    expected = json.dumps(live.snapshot())
    assert json.dumps(tel.aggregates()) == expected
    summary = tel.summary()
    assert summary["iterations"] == iterations
    assert json.dumps(summary["aggregates"]) == expected
