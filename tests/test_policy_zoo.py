"""Tests for the extended policy zoo, the spec registry, and the three
decision-path bugfixes (registry round-trip, SAR window anchor, unknown
op-category accounting)."""

import json
import warnings

import pytest

from repro.core.policies import (
    CostModelPredictivePolicy,
    DynamicSARPolicy,
    ImbalanceThresholdPolicy,
    OnlineTunedSAR,
    OptimalPlannerPolicy,
    Param,
    PeriodicPolicy,
    RedistributionPolicy,
    StaticPolicy,
    available_policies,
    make_policy,
    policy_entry,
    policy_from_state,
    policy_spec,
    register_policy,
    replay_decision,
)
from repro.machine.model import MachineModel
from repro.machine.virtual import VirtualMachine


# ----------------------------------------------------------------------
# Bugfix 1: every policy resolves through one registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_zoo_policies_registered(self):
        assert set(available_policies()) >= {
            "static", "periodic", "dynamic",
            "sar-ewma", "costmodel", "imbalance", "planner",
        }

    @pytest.mark.parametrize("spec", [
        "static",
        "periodic:25",
        "dynamic",
        "sar-ewma",
        "sar-ewma:alpha=0.7",
        "costmodel:horizon=20,alpha=0.9",
        "imbalance:threshold=1.4,hysteresis=0.2",
        "planner:horizon=100,window=32",
    ])
    def test_spec_round_trips_through_registry(self, spec):
        """make_policy -> policy_spec -> make_policy is the identity on
        canonical specs — and state_dict -> policy_from_state restores
        the same class with the same canonical spec."""
        policy = make_policy(spec)
        canonical = policy_spec(policy)
        again = make_policy(canonical)
        assert type(again) is type(policy)
        assert policy_spec(again) == canonical
        restored = policy_from_state(policy.state_dict())
        assert type(restored) is type(policy)
        assert policy_spec(restored) == canonical

    def test_unregistered_instance_spec_raises(self):
        """Bugfix 1 regression: policy_spec used to fall back to
        type(policy).__name__, which make_policy then rejected — a spec
        that could never round-trip.  Now it raises with guidance."""

        class HomegrownPolicy(RedistributionPolicy):
            name = "homegrown"

            def should_redistribute(self, iteration):
                return False

        with pytest.raises(ValueError, match="register_policy"):
            policy_spec(HomegrownPolicy())

    def test_registered_custom_policy_round_trips(self):
        """A third-party @register_policy class gets spec parsing,
        canonical rendering, state restore, and replay with no extra
        wiring (the contract Bugfix 1 establishes)."""

        @register_policy
        class EveryOtherPolicy(RedistributionPolicy):
            name = "every-other-test"
            PARAMS = {"phase": Param(int, 0)}

            def __init__(self, phase=0):
                self.phase = phase

            def should_redistribute(self, iteration):
                fired = iteration % 2 == self.phase
                self._emit({"policy": self.name, "iteration": iteration,
                            "phase": self.phase, "fired": fired})
                return fired

            @classmethod
            def replay(cls, record):
                return record["iteration"] % 2 == record["phase"]

            def state_dict(self):
                return {"type": type(self).__name__, "phase": self.phase}

            def load_state(self, state):
                self.phase = int(state["phase"])

        policy = make_policy("every-other-test:phase=1")
        assert policy_spec(policy) == "every-other-test:1" or policy_spec(policy) == "every-other-test:phase=1"
        restored = policy_from_state(policy.state_dict())
        assert isinstance(restored, EveryOtherPolicy) and restored.phase == 1
        assert replay_decision({"policy": "every-other-test", "iteration": 3,
                                "phase": 1, "fired": True})

    def test_unknown_parameter_raises(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            make_policy("sar-ewma:beta=2")

    def test_duplicate_parameter_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_policy("costmodel:horizon=5,horizon=6")

    def test_name_clash_raises(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_policy
            class Impostor(RedistributionPolicy):
                name = "dynamic"

                def should_redistribute(self, iteration):
                    return False

    def test_policy_entry_lists_alternatives(self):
        with pytest.raises(ValueError, match="registered:"):
            policy_entry("sometimes")


# ----------------------------------------------------------------------
# Bugfix 2: SAR window anchors to the minimum, not the first iteration
# ----------------------------------------------------------------------
class TestSARWindowAnchor:
    def test_slow_first_iteration_no_longer_suppresses_sar(self):
        """Regression for the t0 pin: with t0 frozen at an anomalously
        slow first post-redistribution iteration, the rise (t1 - t0)
        stayed negative forever and SAR never fired again."""
        policy = DynamicSARPolicy(initial_cost=2.0)
        policy.record_redistribution(-1, 2.0)
        policy.record_iteration(0, 10.0)  # checkpoint write / recovery blip
        policy.record_iteration(1, 1.0)   # true balanced time
        policy.record_iteration(2, 2.0)
        assert not policy.should_redistribute(2)  # rise 1 * span 1 = 1 < 2
        policy.record_iteration(3, 3.0)   # rise 2 * span 2 = 4 >= 2
        assert policy.should_redistribute(3)

    def test_minimum_anchor_matches_paper_on_monotone_series(self):
        """On a monotone-rising series (the paper's assumption) the
        minimum IS the first iteration, so Eq. 1 behaves identically."""
        policy = DynamicSARPolicy(initial_cost=4.0)
        policy.record_iteration(0, 1.0)
        policy.record_iteration(1, 2.0)
        assert not policy.should_redistribute(1)
        policy.record_iteration(2, 3.0)
        assert policy.should_redistribute(2)

    def test_anchor_state_survives_checkpoint(self):
        original = DynamicSARPolicy(initial_cost=2.0)
        original.record_iteration(0, 10.0)
        original.record_iteration(1, 1.0)
        restored = policy_from_state(json.loads(json.dumps(original.state_dict())))
        for p in (original, restored):
            p.record_iteration(2, 3.0)
        assert original.should_redistribute(2) == restored.should_redistribute(2)
        assert original.state_dict() == restored.state_dict()


# ----------------------------------------------------------------------
# Bugfix 3: unknown op categories are never silently charged
# ----------------------------------------------------------------------
class TestUnknownOpCategory:
    def test_warns_once_and_charges_unit_weight(self):
        model = MachineModel.cm5()
        with pytest.warns(UserWarning, match="unknown op category 'scatterr'"):
            cost = model.compute_cost("scatterr", 100)
        assert cost == pytest.approx(100 * model.delta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second charge must stay silent
            model.compute_cost("scatterr", 100)

    def test_strict_raises(self):
        model = MachineModel.cm5()
        with pytest.raises(ValueError, match="unknown op category"):
            model.compute_cost("scatterr", 100, strict=True)

    def test_known_categories_unchanged(self):
        model = MachineModel.cm5()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.compute_cost("scatter", 10) == pytest.approx(
                10 * model.op_weights["scatter"] * model.delta
            )

    def test_strict_ops_machine(self):
        vm = VirtualMachine(2, MachineModel.cm5(), strict_ops=True)
        vm.charge_ops("push", 10.0)  # known: fine
        with pytest.raises(ValueError, match="unknown op category"):
            vm.charge_ops("pussh", 10.0)

    def test_simulation_strict_guards_wires_strict_ops(self):
        from repro.pic import Simulation, SimulationConfig

        sim = Simulation(SimulationConfig(
            nx=16, ny=8, nparticles=256, p=2, guards="strict"))
        assert sim.vm.strict_ops
        relaxed = Simulation(SimulationConfig(nx=16, ny=8, nparticles=256, p=2))
        assert not relaxed.vm.strict_ops


# ----------------------------------------------------------------------
# zoo policy behaviour
# ----------------------------------------------------------------------
class TestOnlineTunedSAR:
    def test_ewma_blends_costs(self):
        policy = OnlineTunedSAR(alpha=0.5)
        policy.record_redistribution(-1, 4.0)   # seed sets it directly
        assert policy.redistribution_cost == 4.0
        policy.record_redistribution(3, 8.0)    # 0.5*8 + 0.5*4
        assert policy.redistribution_cost == pytest.approx(6.0)

    def test_one_cheap_outlier_does_not_collapse_threshold(self):
        plain = DynamicSARPolicy(initial_cost=10.0)
        tuned = OnlineTunedSAR(alpha=0.3, initial_cost=10.0)
        tuned.record_redistribution(-1, 10.0)
        for p in (plain, tuned):
            p.record_redistribution(5, 0.01)   # fluke near-free redistribution
        assert plain.redistribution_cost == pytest.approx(0.01)
        assert tuned.redistribution_cost > 5.0  # EWMA keeps the history

    def test_decision_records_carry_own_name(self):
        policy = OnlineTunedSAR()
        seen = []
        policy.decision_sink = seen.append
        policy.record_iteration(0, 1.0)
        policy.should_redistribute(0)
        assert seen[0]["policy"] == "sar-ewma"
        assert replay_decision(seen[0]) == seen[0]["fired"]


class TestCostModelPredictive:
    def test_fires_when_projection_beats_cost(self):
        policy = CostModelPredictivePolicy(horizon=10, initial_cost=5.0)
        policy.record_iteration(0, 1.0)
        policy.record_iteration(1, 1.4)
        # rise 0.4 * horizon 10 = 4 < 5
        assert not policy.should_redistribute(1)
        policy.record_iteration(2, 1.6)
        # rise 0.6 * horizon 10 = 6 >= 5
        assert policy.should_redistribute(2)

    def test_model_floor_bounds_fluke_costs(self):
        policy = CostModelPredictivePolicy(horizon=10)
        vm = VirtualMachine(8, MachineModel.cm5())
        policy.bind(vm)
        policy.record_redistribution(0, 0.0)  # measured "free" — implausible
        floor = 2.0 * vm.model.tau * 7
        policy.record_iteration(1, 1.0)
        policy.record_iteration(2, 1.0 + floor / 10 / 2)  # saving = floor/2 < floor
        seen = []
        policy.decision_sink = seen.append
        assert not policy.should_redistribute(2)
        assert seen[0]["threshold"] == pytest.approx(floor)

    def test_bind_is_transient(self):
        policy = CostModelPredictivePolicy(horizon=10)
        policy.bind(VirtualMachine(8, MachineModel.cm5()))
        state = policy.state_dict()
        restored = policy_from_state(state)
        assert restored._model is None  # environment never serializes
        assert restored.state_dict() == state


class TestImbalanceThreshold:
    def test_fires_on_threshold_crossing(self):
        policy = ImbalanceThresholdPolicy(threshold=1.5, hysteresis=0.25)
        policy.record_load(0, [10, 10, 10, 10])
        assert not policy.should_redistribute(0)
        policy.record_load(1, [25, 5, 5, 5])  # imbalance 2.5
        assert policy.should_redistribute(1)

    def test_hysteresis_disarms_until_recovery(self):
        policy = ImbalanceThresholdPolicy(threshold=1.5, hysteresis=0.25)
        policy.record_load(0, [20, 4, 4, 4])   # imbalance 2.5 -> fire
        assert policy.should_redistribute(0)
        policy.record_redistribution(0, 1.0)
        policy.record_load(1, [13, 7, 6, 6])   # 1.625: still over, but disarmed
        assert not policy.should_redistribute(1)
        policy.record_load(2, [9, 8, 8, 7])    # 1.125 <= 1.25: re-arms
        policy.record_load(3, [20, 4, 4, 4])
        assert policy.should_redistribute(3)

    def test_hysteresis_rearms_on_escalation(self):
        """A rebalance that does not help must not deadlock the policy:
        the imbalance escalating past the last-fire level re-arms it."""
        policy = ImbalanceThresholdPolicy(threshold=1.5, hysteresis=0.25)
        policy.record_load(0, [20, 4, 4, 4])   # 2.5 -> fire
        assert policy.should_redistribute(0)
        policy.record_redistribution(0, 1.0)
        policy.record_load(1, [22, 4, 3, 3])   # 2.75 >= 2.5 + 0.25: re-arm
        assert policy.should_redistribute(1)

    def test_needs_load_flag(self):
        assert ImbalanceThresholdPolicy.needs_load
        assert not DynamicSARPolicy.needs_load

    def test_state_round_trip_preserves_arming(self):
        policy = ImbalanceThresholdPolicy(threshold=1.5, hysteresis=0.25)
        policy.record_load(0, [20, 4, 4, 4])
        policy.should_redistribute(0)
        policy.record_redistribution(0, 1.0)
        restored = policy_from_state(json.loads(json.dumps(policy.state_dict())))
        for p in (policy, restored):
            p.record_load(1, [13, 7, 6, 6])
        assert policy.should_redistribute(1) == restored.should_redistribute(1) == False  # noqa: E712

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            ImbalanceThresholdPolicy(threshold=0.9)
        with pytest.raises(ValueError):
            ImbalanceThresholdPolicy(hysteresis=-0.1)


class TestOptimalPlanner:
    def test_waits_for_optimal_period(self):
        # degradation slope a = 0.1 s/iter, cost C = 2.0 s
        # n* = sqrt(2C/a) = sqrt(40) ~ 6.32 -> fires at elapsed >= 6.32
        policy = OptimalPlannerPolicy(initial_cost=2.0)
        fired_at = None
        for it in range(12):
            policy.record_iteration(it, 1.0 + 0.1 * it)
            if policy.should_redistribute(it):
                fired_at = it
                break
        assert fired_at == 6  # elapsed = it + 1 = 7 >= 6.32

    def test_no_fire_without_degradation(self):
        policy = OptimalPlannerPolicy(initial_cost=2.0)
        for it in range(10):
            policy.record_iteration(it, 1.0)
            assert not policy.should_redistribute(it)

    def test_scipy_matches_closed_form(self):
        from repro.core.policies.zoo import _optimal_period

        n_star, optimizer = _optimal_period(2.0, 0.1, 200)
        assert n_star == pytest.approx((2 * 2.0 / 0.1) ** 0.5, abs=1e-3)
        # one optimizer on every host: the logged n_star is part of the
        # replayable decision record
        assert optimizer == "closed-form"

    def test_history_window_is_bounded(self):
        policy = OptimalPlannerPolicy(window=8)
        for it in range(50):
            policy.record_iteration(it, 1.0 + 0.01 * it)
        assert len(policy.state_dict()["hist_i"]) == 8

    def test_plan_survives_checkpoint(self):
        policy = OptimalPlannerPolicy(initial_cost=2.0)
        for it in range(4):
            policy.record_iteration(it, 1.0 + 0.1 * it)
        restored = policy_from_state(json.loads(json.dumps(policy.state_dict())))
        for it in range(4, 10):
            for p in (policy, restored):
                p.record_iteration(it, 1.0 + 0.1 * it)
            assert policy.should_redistribute(it) == restored.should_redistribute(it)


# ----------------------------------------------------------------------
# decision records: schema + report
# ----------------------------------------------------------------------
class TestDecisionRecords:
    def test_schema_rejects_malformed_decision(self):
        from repro.telemetry.schema import TelemetrySchemaError, validate_metrics

        lines = [
            json.dumps({"type": "header", "schema": "repro-metrics/1", "p": 2,
                        "config": {}}),
            json.dumps({"type": "iteration", "iteration": 0, "p": 2,
                        "t_iter": 0.1, "phase_time": {}, "particles_per_rank": [1, 1],
                        "imbalance": 1.0, "comm": {},
                        "sar_decisions": [{"iteration": 0, "fired": False}],
                        "redistributed": False, "redistribution_cost": 0.0}),
            json.dumps({"type": "summary", "aggregates": {}}),
        ]
        with pytest.raises(TelemetrySchemaError, match="policy"):
            validate_metrics(lines)

    def test_replay_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown policy"):
            replay_decision({"policy": "oracular", "iteration": 0, "fired": True})

    def test_report_renders_decision_comparison(self):
        from repro.pic import Simulation, SimulationConfig
        from repro.telemetry.report import render_decision_comparison, render_report
        from repro.telemetry.schema import validate_metrics

        runs = []
        for spec in ("dynamic", "periodic:4"):
            sim = Simulation(SimulationConfig(
                nx=16, ny=8, nparticles=512, p=2,
                distribution="irregular", policy=spec, seed=1))
            tel = sim.enable_telemetry()
            sim.run(6)
            runs.append((spec, validate_metrics(tel.lines())))
        text = render_decision_comparison(runs)
        assert "dynamic" in text and "periodic" in text
        single = render_report(runs[0][1], label="dynamic")
        assert "replay check" in single
        assert "REPLAY-MISMATCH" not in single


# ----------------------------------------------------------------------
# property: state_dict equivalence + record replayability on random traces
# ----------------------------------------------------------------------
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

#: one default-constructible spec per registered policy class
_PROPERTY_SPECS = (
    "static",
    "periodic:3",
    "dynamic",
    "sar-ewma:alpha=0.4",
    "costmodel:horizon=5",
    "imbalance:threshold=1.3,hysteresis=0.2",
    "planner:horizon=20,window=8",
)

_step = st.tuples(
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False),
    st.lists(st.integers(min_value=0, max_value=50), min_size=4, max_size=4).filter(
        lambda c: sum(c) > 0
    ),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
)


# ----------------------------------------------------------------------
# a traced run of every policy audits its own decisions
# ----------------------------------------------------------------------
class TestTracedRunAudit:
    @pytest.mark.parametrize("spec", _PROPERTY_SPECS)
    def test_decisions_validate_replay_and_round_trip(self, spec):
        from repro.pic import Simulation, SimulationConfig, config_from_dict, config_to_dict
        from repro.telemetry.schema import validate_metrics

        cfg = SimulationConfig(nx=16, ny=8, nparticles=512, p=4,
                               distribution="irregular", policy=spec, seed=3)  # fmt: skip
        assert policy_spec(config_from_dict(config_to_dict(cfg)).policy) == policy_spec(cfg.policy)
        sim = Simulation(cfg)
        telemetry = sim.enable_telemetry()
        sim.run(12)
        parsed = validate_metrics(telemetry.lines())
        decisions = [d for rec in parsed.iterations for d in rec["sar_decisions"]]
        assert len(decisions) == 12  # one record per evaluation, fired or not
        for record in decisions:
            assert replay_decision(record) == record["fired"], record


class TestPolicyProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        spec=st.sampled_from(_PROPERTY_SPECS),
        trace=st.lists(_step, min_size=1, max_size=30),
        fork_at=st.integers(min_value=0, max_value=29),
    )
    def test_restored_policy_decides_identically(self, spec, trace, fork_at):
        """A policy restored from a (JSON-round-tripped) state_dict at any
        point of a random trace makes bit-identical decisions from there
        on, and every emitted decision record replays to its own verdict."""
        policy = make_policy(spec)
        records = []
        policy.decision_sink = records.append
        restored = None
        for it, (t_iter, counts, cost) in enumerate(trace):
            if it == fork_at:
                state = json.loads(json.dumps(policy.state_dict()))
                restored = policy_from_state(state)
                restored.decision_sink = records.append
                assert restored.state_dict() == policy.state_dict()
            targets = (policy,) if restored is None else (policy, restored)
            decisions = []
            for p in targets:
                p.record_iteration(it, t_iter)
                if p.needs_load:
                    p.record_load(it, counts)
                decisions.append(p.should_redistribute(it))
            assert len(set(decisions)) == 1, (
                f"{spec}: restored policy diverged at iteration {it}"
            )
            if decisions[0]:
                for p in targets:
                    p.record_redistribution(it, cost)
        if restored is not None:
            assert restored.state_dict() == policy.state_dict()
        for record in records:
            assert replay_decision(record) == record["fired"], record


# ----------------------------------------------------------------------
# checkpoint/resume: a zoo policy makes identical decisions after resume
# ----------------------------------------------------------------------
class TestZooPolicyResume:
    @pytest.mark.parametrize("spec", ["sar-ewma", "planner:horizon=50,window=16"])
    def test_resume_reproduces_decisions(self, spec, tmp_path):
        from repro.pic import Simulation, SimulationConfig

        cfg = SimulationConfig(
            nx=32, ny=16, nparticles=2048, p=4,
            distribution="irregular", policy=spec, seed=1)
        straight = Simulation(cfg)
        straight_result = straight.run(10)

        ck = tmp_path / "ck.npz"
        first = Simulation(cfg)
        first.run(5)
        first.checkpoint(ck)
        resumed = Simulation.from_checkpoint(ck)
        resumed_result = resumed.run(5)

        assert resumed_result.total_time == straight_result.total_time
        assert [r.redistributed for r in resumed_result.records] == [
            r.redistributed for r in straight_result.records
        ]
        assert resumed.policy.state_dict() == straight.policy.state_dict()
