"""The per-iteration phase increment of a run (telemetry's ``phase_time``)."""

from __future__ import annotations

from repro.machine.virtual import VirtualMachine

__all__ = ["PhaseTrace"]


class PhaseTrace:
    """Each phase's max-over-ranks time since the previous :meth:`snapshot`.

    The driver calls :meth:`snapshot` once per iteration and hands the row
    to telemetry, whose iteration records are the run's history.  Rank-
    failure recovery swaps in a shrunk machine whose phase tables carry
    the failed machine's maxima, so :meth:`rebind` keeps the baseline: the
    next row holds exactly the time charged since the last snapshot.
    """

    def __init__(self, vm: VirtualMachine) -> None:
        self.vm = vm
        # time charged before the trace existed (setup, a restored
        # checkpoint) belongs to no row
        self._last: dict[str, float] = vm.phase_breakdown()

    def rebind(self, vm: VirtualMachine) -> None:
        """Continue on ``vm`` (the shrunk machine of a recovery)."""
        self.vm = vm

    def snapshot(self) -> dict[str, float]:
        """This iteration's per-phase time increments."""
        current = self.vm.phase_breakdown()
        increment = {
            phase: current.get(phase, 0.0) - self._last.get(phase, 0.0)
            for phase in set(current) | set(self._last)
        }
        self._last = current
        return increment
