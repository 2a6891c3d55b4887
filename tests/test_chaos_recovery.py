"""Chaos-matrix and rank-failure-recovery tests (DESIGN.md §5.3).

The contract under test: whatever fault the plan injects, the run either
finishes with a state satisfying the same conservation invariants as an
undisturbed run — bit-exact transport recovery for drop/duplicate/
corrupt, atol=1e-12 checkpoint-restore recovery for rank kills — or it
raises a typed exception.  Never a silent wrong answer.
"""

import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.machine import FaultEvent, FaultPlan
from repro.pic import Simulation, SimulationConfig
from repro.util.errors import FaultError, ReproError, SimulationIntegrityError
from tests._looped_oracle import SIMULATIONS

_BASE = dict(
    nx=32,
    ny=16,
    nparticles=2048,
    p=6,
    distribution="irregular",
    policy="periodic:5",
    seed=1,
)
_NITERS = 12
_KILL_ITER = 7

_SUMMARY_KEYS = (
    "total_charge",
    "x_sum",
    "y_sum",
    "ux_sum",
    "uy_sum",
    "uz_sum",
    "rho_sum",
    "e_energy",
    "b_energy",
)


def _config(**kw):
    merged = dict(_BASE)
    merged.update(kw)
    return SimulationConfig(**merged)


def _fault_free(engine):
    return SIMULATIONS[engine](_config()).run(_NITERS)


def _assert_summaries_close(actual, expected, atol=1e-12):
    assert actual["n_particles"] == expected["n_particles"]
    for key in _SUMMARY_KEYS:
        assert actual[key] == pytest.approx(expected[key], abs=atol), key


_FAULTS = {
    "drop": FaultEvent(kind="drop", src=0, iteration=4),
    "duplicate": FaultEvent(kind="duplicate", src=2, dst=1, iteration=5),
    "corrupt": FaultEvent(kind="corrupt", dst=3, iteration=6, phase="gather"),
    "rank-kill": FaultEvent(kind="kill", rank=2, iteration=_KILL_ITER),
}


class TestChaosMatrix:
    """{flat, looped} x {drop, duplicate, corrupt, rank-kill} x {warn, strict}."""

    @pytest.mark.parametrize("engine", ["flat", "looped"])
    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    @pytest.mark.parametrize("guards", ["warn", "strict"])
    def test_exact_recovery_or_typed_error(self, engine, fault, guards, tmp_path):
        reference = _fault_free(engine)
        sim = SIMULATIONS[engine](_config(guards=guards))
        sim.install_faults(FaultPlan(events=(_FAULTS[fault],)))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                result = sim.run(
                    _NITERS,
                    checkpoint_every=3,
                    checkpoint_path=tmp_path / "ck.npz",
                )
        except ReproError:
            return  # a typed failure is an acceptable outcome; silence is not
        # the run finished: it must carry the fault on the clock and
        # match the fault-free physics
        assert result.total_time > reference.total_time
        _assert_summaries_close(result.final_state, reference.final_state)
        assert sim.guard.violations == []
        if fault == "rank-kill":
            assert result.n_recoveries == 1
            assert sim.config.p == _BASE["p"] - 1
        else:
            assert result.n_recoveries == 0

    @pytest.mark.parametrize("guards", ["warn", "strict"])
    def test_poison_never_silent(self, guards):
        """Undetectable transport corruption must surface through guards."""
        sim = Simulation(_config(guards=guards))
        sim.install_faults(
            FaultPlan(events=(FaultEvent(kind="poison", iteration=3, phase="scatter"),))
        )
        if guards == "strict":
            with pytest.raises(SimulationIntegrityError):
                sim.run(_NITERS)
        else:
            with pytest.warns(UserWarning, match="invariant violation"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    try:
                        sim.run(5)
                    except ReproError:
                        pass
            assert sim.guard.violations


class TestCheckpointRecoveryEquivalence:
    """The acceptance contract: kill at iteration k with checkpoint_every
    <= k finishes identical (atol=1e-12) to the fault-free run."""

    @pytest.mark.parametrize("engine", ["flat", "looped"])
    def test_recovery_matches_fault_free(self, engine, tmp_path):
        reference = _fault_free(engine)
        sim = SIMULATIONS[engine](_config())
        sim.install_faults(
            FaultPlan(events=(FaultEvent(kind="kill", rank=2, iteration=_KILL_ITER),))
        )
        result = sim.run(_NITERS, checkpoint_every=3, checkpoint_path=tmp_path / "ck.npz")
        assert result.n_recoveries == 1
        assert sim.config.p == _BASE["p"] - 1
        assert result.final_state["iteration"] == _NITERS
        _assert_summaries_close(result.final_state, reference.final_state)

    @pytest.mark.parametrize("engine", ["flat", "looped"])
    def test_recovery_time_on_the_clock(self, engine, tmp_path):
        reference = _fault_free(engine)
        sim = SIMULATIONS[engine](_config())
        plan = FaultPlan(events=(FaultEvent(kind="kill", rank=2, iteration=_KILL_ITER),))
        sim.install_faults(plan)
        result = sim.run(_NITERS, checkpoint_every=3, checkpoint_path=tmp_path / "ck.npz")
        # detection + restore + replay all stay on the virtual clock ...
        assert result.total_time > reference.total_time
        assert result.recovery_time > plan.detect_timeout
        # ... and detection/restore are visible in the phase breakdown
        assert result.phase_breakdown["recovery"] >= plan.detect_timeout

    def test_live_salvage_without_checkpoint(self):
        """No checkpoint: the dead rank's particles are redistributed from
        the live pool; conservation invariants must still hold."""
        sim = Simulation(_config(guards="strict"))
        sim.install_faults(
            FaultPlan(events=(FaultEvent(kind="kill", rank=3, iteration=6),))
        )
        result = sim.run(_NITERS)
        assert result.n_recoveries == 1
        assert sim.config.p == _BASE["p"] - 1
        assert sim.guard.violations == []
        fs = result.final_state
        assert fs["n_particles"] == _BASE["nparticles"]
        assert fs["iteration"] == _NITERS

    def test_double_failure(self, tmp_path):
        """Two kills at different iterations: shrink twice, still exact."""
        reference = _fault_free("flat")
        sim = Simulation(_config())
        sim.install_faults(
            FaultPlan(
                events=(
                    FaultEvent(kind="kill", rank=1, iteration=5),
                    FaultEvent(kind="kill", rank=4, iteration=9),
                )
            )
        )
        result = sim.run(_NITERS, checkpoint_every=2, checkpoint_path=tmp_path / "ck.npz")
        assert result.n_recoveries == 2
        assert sim.config.p == _BASE["p"] - 2
        _assert_summaries_close(result.final_state, reference.final_state)

    def test_unrecoverable_without_plan_propagates(self):
        """RankFailure with no plan installed must not be swallowed."""
        from repro.machine.faults import FaultInjector

        sim = Simulation(_config())
        # install an injector directly on the machine, bypassing
        # Simulation.install_faults — the driver has no plan to recover with
        sim.vm.install_faults(
            FaultInjector(FaultPlan(events=(FaultEvent(kind="kill", rank=0, iteration=2),)))
        )
        with pytest.raises(FaultError):
            sim.run(_NITERS)


class TestZeroCostWhenOff:
    """With no faults and guards off, the machinery must be invisible."""

    def test_accounting_bit_identical_with_empty_plan(self):
        plain = Simulation(_config())
        wired = Simulation(_config())
        wired.install_faults(FaultPlan())  # installed but empty
        r_plain, r_wired = plain.run(6), wired.run(6)
        assert r_plain.total_time == r_wired.total_time
        assert plain.vm.state_dict() == wired.vm.state_dict()

    def test_guard_overhead_under_two_percent(self):
        """Guards off + an empty fault plan cost under 2% of a plain run's calls.

        What the wired machine adds is a handful of *dormant* hooks — the
        injector's per-iteration tag, a per-exchange "any message fault
        scheduled?" and a per-charge slowdown factor of 1 — and the budget
        is stated on what they are made of: Python-level calls, counted with
        ``sys.setprofile`` as in ``tests/test_step_call_budget.py``.  The
        count is deterministic (a wall-clock ratio of two ~15 ms runs is
        not, on a shared host), it is O(1) per iteration — the same at
        p = 32 as at p = 8, nothing loops over ranks or messages — and at
        the scale the 2% budget was set for it stays inside it.
        """

        def calls(p, install_empty_plan):
            sim = Simulation(_config(nparticles=4096, p=p))
            if install_empty_plan:
                sim.install_faults(FaultPlan())
            sim.run(1)  # builds the pool, loads the kernels
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                if event in ("call", "c_call"):
                    count += 1

            sys.setprofile(profile)
            try:
                sim.run(4)
            finally:
                sys.setprofile(None)
            return count

        base, wired = calls(8, False), calls(8, True)
        assert 0 < wired - base <= 0.02 * base, (
            f"fault machinery overhead above 2%: {wired} vs {base} calls"
        )
        assert calls(32, True) - calls(32, False) == wired - base, (
            "the dormant fault hooks cost more calls on a larger machine"
        )


class TestRecoveredStackIsAssembledLikeAFreshOne:
    """``recover`` and ``__init__`` build the stack through one method."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(policy="dynamic"),
            dict(movement="eulerian", partitioning="adaptive"),
            dict(kernel="modern"),
        ],
        ids=["lagrangian-dynamic", "eulerian-adaptive", "modern"],
    )
    def test_same_wiring_as_fresh_construction(self, overrides):
        cfg = _config(guards="strict", **overrides)

        def observed(config):
            sim = Simulation(config)
            sim.enable_telemetry()
            sim.enable_profiling()
            return sim

        def wiring(sim):
            tel = sim.telemetry
            return {
                "p": (sim.config.p, sim.vm.p, sim.decomp.p, len(sim.pic.particles)),
                "redistributor": type(sim.redistributor),
                "rebalancer": type(sim.rebalancer),
                "pic": type(sim.pic),
                "pic.decomp": sim.pic.decomp is sim.decomp,
                "pic.guard": sim.pic.guard is sim.guard and type(sim.guard),
                "guard.on_violation": sim.guard.on_violation == tel.record_guard_violation,
                "vm.tracer": sim.vm.tracer is tel.tracer,
                "policy.decision_sink": sim.policy.decision_sink == tel.record_sar_decision,
            }

        sim = observed(cfg)
        sim.install_faults(FaultPlan(events=(FaultEvent(kind="kill", rank=2, iteration=3),)))
        result = sim.run(6)
        assert result.n_recoveries == 1
        fresh = observed(replace(cfg, p=cfg.p - 1))
        assert wiring(sim) == wiring(fresh)
        assert all(wiring(fresh).values())


class TestRecoveryIsObservedOnBothClocks:
    """The trace and the profile read the one phase recorder, so a rank's
    death shows up in both: every phase the Chrome trace draws at the top
    level is a root frame of the folded profile, ``recovery`` included."""

    @pytest.mark.parametrize("kernel", ["era", "modern"])
    def test_trace_roots_are_profile_roots(self, kernel, tmp_path):
        sim = Simulation(_config(kernel=kernel))
        tel = sim.enable_telemetry()
        sim.enable_profiling()
        kill = FaultEvent(kind="kill", rank=2, iteration=_KILL_ITER)
        sim.install_faults(FaultPlan(events=(kill,)))
        assert sim.run(_NITERS).n_recoveries == 1
        sim.save_profile(tmp_path)
        trace_roots = {
            ev["name"] for ev in tel.to_chrome()["traceEvents"]
            if ev["ph"] == "X" and ev["args"]["depth"] == 1
        }  # fmt: skip
        folded = (tmp_path / "profile.folded").read_text().splitlines()
        profile_roots = {line.rsplit(" ", 1)[0].split(";")[0] for line in folded}
        assert "recovery" in trace_roots
        assert trace_roots <= profile_roots, trace_roots - profile_roots
