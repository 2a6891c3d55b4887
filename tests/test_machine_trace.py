"""Tests for the per-iteration phase increments and the report's phase profile."""

import numpy as np
import pytest

from repro.machine import MachineModel, VirtualMachine
from repro.machine.trace import PhaseTrace
from repro.telemetry.report import render_phase_profile


@pytest.fixture
def traced_vm():
    vm = VirtualMachine(2, MachineModel.cm5())
    trace = PhaseTrace(vm)
    rows = []
    for _ in range(5):
        with vm.phase("scatter"):
            vm.charge_ops("scatter", 100)
        with vm.phase("push"):
            vm.charge_ops("push", 50)
        rows.append(trace.snapshot())
    return vm, trace, rows


def _snapshots(vm, trace, phases, iterations=1):
    """Charge each of ``phases`` once per iteration; the snapshot rows."""
    rows = []
    for _ in range(iterations):
        for phase in phases:
            with vm.phase(phase):
                vm.charge_ops("push", 10)
        rows.append(trace.snapshot())
    return rows


class TestSnapshots:
    def test_row_count(self, traced_vm):
        _, trace, rows = traced_vm
        assert len(rows) == 5
        assert not hasattr(trace, "rows")  # the history is the caller's to keep

    def test_increments_not_cumulative(self, traced_vm):
        _, _, rows = traced_vm
        scatter = np.array([row["scatter"] for row in rows])
        assert np.allclose(scatter, scatter[0])
        assert scatter[0] > 0

    def test_totals_match_vm(self, traced_vm):
        vm, _, rows = traced_vm
        breakdown = vm.phase_breakdown()
        for phase in ("scatter", "push"):
            assert sum(row[phase] for row in rows) == pytest.approx(breakdown[phase])

    def test_phases_sorted(self, traced_vm):
        _, _, rows = traced_vm
        assert render_phase_profile(rows).splitlines()[1] == "P=push, S=scatter"

    def test_unseen_phase_series_zero(self, traced_vm):
        _, _, rows = traced_vm
        assert sum(row.get("gather", 0.0) for row in rows) == 0


class TestRender:
    def test_render_contains_glyphs(self, traced_vm):
        _, _, rows = traced_vm
        out = render_phase_profile(rows, width=10)
        assert "S=scatter" in out and "P=push" in out
        assert "S" in out.splitlines()[-2] or "P" in out.splitlines()[-2]

    def test_render_empty_raises(self):
        with pytest.raises(ValueError):
            render_phase_profile([])

    def test_unknown_phase_gets_x_glyph(self):
        vm = VirtualMachine(2)
        rows = _snapshots(vm, PhaseTrace(vm), ["mystery"])
        assert "X=mystery" in render_phase_profile(rows)

    def test_migration_glyph(self):
        vm = VirtualMachine(2)
        rows = _snapshots(vm, PhaseTrace(vm), ["migration"])
        assert "M=migration" in render_phase_profile(rows)

    def test_columns_sum_to_bar_height(self):
        """Largest-remainder apportionment: every non-empty column stacks
        exactly bar_height glyphs — no blank rows from rounding loss."""
        vm = VirtualMachine(2)
        # Three phases with shares 1/3 each: naive per-phase rounding gives
        # 3+3+3 = 9 of 10 glyphs, leaving a hole at the top of the bar.
        rows = _snapshots(vm, PhaseTrace(vm), ["scatter", "push", "gather"], iterations=4)
        out = render_phase_profile(rows, width=4)
        bar_lines = [line[1:] for line in out.splitlines()[2:-1]]  # strip axis
        assert len(bar_lines) == 10
        for col in range(len(bar_lines[0])):
            glyphs = [line[col] for line in bar_lines]
            assert " " not in glyphs, f"column {col} lost glyphs to rounding"

    def test_render_with_simulation(self):
        """Profile a real mini-run from its telemetry records."""
        from repro.pic import Simulation, SimulationConfig

        sim = Simulation(SimulationConfig(nx=16, ny=16, nparticles=512, p=4, seed=0))
        sim.enable_telemetry()
        sim.run(5)
        rows = [rec["phase_time"] for rec in sim.telemetry.records if rec["type"] == "iteration"]
        assert len(rows) == 5
        out = render_phase_profile(rows)
        for phase in ("scatter", "field", "gather", "push"):
            assert phase in out
