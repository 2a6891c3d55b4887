"""Tests for the per-iteration phase increments and the report's phase profile."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.machine import MachineModel, VirtualMachine
from repro.machine.trace import PhaseTrace
from repro.telemetry.report import _PHASE_GLYPHS, _sparkline, render_phase_profile


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

    def test_every_phase_of_the_package_has_a_glyph_of_its_own(self):
        """Each label the package opens a machine phase with (``.phase("...")``
        under ``src/``) is drawn with a glyph of its own, never the catch-all."""
        import repro

        source = Path(repro.__file__).parent
        labels = {
            label
            for path in source.rglob("*.py")
            for label in re.findall(r'\.phase\("([^"]+)"', path.read_text())
        }
        assert {"scatter", "recovery", "rebalance"} <= labels
        assert labels <= set(_PHASE_GLYPHS), labels - set(_PHASE_GLYPHS)
        glyphs = list(_PHASE_GLYPHS.values())
        assert "X" not in glyphs and len(set(glyphs)) == len(glyphs)
        vm = VirtualMachine(2)
        rows = _snapshots(vm, PhaseTrace(vm), ["recovery", "rebalance"])
        assert render_phase_profile(rows).splitlines()[1] == "B=rebalance, V=recovery"

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

    def test_sparkline_draws_variation_below_the_printed_precision_flat(self):
        """An imbalance that went 1.0 -> 1.00049 prints as 1.000 throughout:
        its line is flat, not full height."""
        line = _sparkline([1.0] * 5 + [1.00049] * 5)
        assert len(set(line)) == 1

    @pytest.mark.parametrize("top", [1.01, 1.5, 40.0])
    def test_sparkline_draws_a_change_of_one_percent_full_height(self, top):
        for values in ([1.0] * 5 + [top] * 5, [top] * 5 + [1.0] * 5):
            line = _sparkline(values)
            assert set(line) == {".", "@"} and line.count("@") == 5

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
