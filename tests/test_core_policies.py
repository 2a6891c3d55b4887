"""Tests for redistribution decision policies (paper §5.2)."""

import pytest

from repro.core import DynamicSARPolicy, PeriodicPolicy, StaticPolicy, make_policy
from repro.core.policies import RedistributionPolicy, policy_from_state, policy_spec


class TestStatic:
    def test_never_triggers(self):
        policy = StaticPolicy()
        for it in range(100):
            policy.record_iteration(it, 1.0 + it)
            assert not policy.should_redistribute(it)


class TestPeriodic:
    def test_fires_every_k(self):
        policy = PeriodicPolicy(5)
        fired = [it for it in range(20) if policy.should_redistribute(it)]
        assert fired == [4, 9, 14, 19]

    def test_period_one_fires_always(self):
        policy = PeriodicPolicy(1)
        assert all(policy.should_redistribute(it) for it in range(5))

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            PeriodicPolicy(0)


class TestDynamicSAR:
    def test_no_trigger_before_observations(self):
        assert not DynamicSARPolicy().should_redistribute(0)

    def test_no_trigger_on_flat_times(self):
        policy = DynamicSARPolicy(initial_cost=1.0)
        for it in range(10):
            policy.record_iteration(it, 2.0)
        assert not policy.should_redistribute(9)

    def test_triggers_per_equation_one(self):
        """(t1 - t0) * (i1 - i0) >= T_redistribution."""
        policy = DynamicSARPolicy(initial_cost=4.0)
        policy.record_iteration(0, 1.0)  # i0 = 0, t0 = 1
        policy.record_iteration(1, 2.0)  # rise 1 * span 1 = 1 < 4
        assert not policy.should_redistribute(1)
        policy.record_iteration(2, 3.0)  # rise 2 * span 2 = 4 >= 4
        assert policy.should_redistribute(2)

    def test_cost_update_resets_window(self):
        policy = DynamicSARPolicy(initial_cost=0.5)
        policy.record_iteration(0, 1.0)
        policy.record_iteration(1, 3.0)
        assert policy.should_redistribute(1)
        policy.record_redistribution(1, 10.0)
        policy.record_iteration(2, 1.0)
        policy.record_iteration(3, 2.0)
        # rise 1 * span 1 = 1 < new cost 10
        assert not policy.should_redistribute(3)

    def test_expensive_redistribution_raises_threshold(self):
        cheap = DynamicSARPolicy(initial_cost=0.1)
        dear = DynamicSARPolicy(initial_cost=100.0)
        for policy in (cheap, dear):
            policy.record_iteration(0, 1.0)
            policy.record_iteration(1, 1.5)
        assert cheap.should_redistribute(1)
        assert not dear.should_redistribute(1)

    def test_decreasing_time_never_triggers(self):
        policy = DynamicSARPolicy(initial_cost=0.0)
        policy.record_iteration(0, 5.0)
        policy.record_iteration(1, 4.0)
        assert not policy.should_redistribute(1)

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            DynamicSARPolicy(initial_cost=-1.0)


class TestSARCadence:
    """Eq. 1 against its closed form (paper §5.2).

    Iteration time rises linearly, ``t = t0 + g * j`` for the j-th
    iteration since the last redistribution, and a redistribution costs
    T.  SAR then fires when ``g * j**2 >= T``, every ~sqrt(T/g)
    iterations, and pays ``1.5 * sqrt(g*T)`` per iteration above t0; the
    best fixed period sqrt(2T/g) pays ``sqrt(2) * sqrt(g*T)``: a ratio
    of 3 / (2 sqrt 2) ~= 1.061.
    """

    T0 = 0.1

    def sar_cycles(self, T, g, iterations=2000):
        """Gap (iterations) of every complete SAR cycle and its overhead above t0."""
        policy = DynamicSARPolicy(initial_cost=T)
        cycles, start = [], 0
        for it in range(iterations):
            policy.record_iteration(it, self.T0 + g * (it - start))
            if policy.should_redistribute(it):
                policy.record_redistribution(it, T)
                gap = it + 1 - start
                cycles.append((gap, g * gap * (gap - 1) / 2 + T))
                start = it + 1
        return cycles

    @pytest.mark.parametrize("T, g", [(1.0, 1e-3), (2.5, 1e-3), (0.75, 1e-3), (9.0, 1e-3)])
    def test_fires_every_sqrt_T_over_g(self, T, g):
        cycles = self.sar_cycles(T, g)
        assert len(cycles) >= 5
        predicted = (T / g) ** 0.5
        for gap, _ in cycles:
            assert abs(gap - predicted) <= 0.1 * predicted

    @pytest.mark.parametrize("T, g", [(1.0, 1e-3), (2.5, 1e-3), (0.75, 1e-3), (9.0, 1e-3)])
    def test_costs_at_most_10_percent_over_the_best_period(self, T, g):
        cycles = self.sar_cycles(T, g)
        sar = sum(cost for _, cost in cycles) / sum(gap for gap, _ in cycles)

        def fixed(k):  # overhead per iteration of redistributing every k iterations
            return g * (k - 1) / 2 + T / k

        best = min(range(1, 1000), key=fixed)
        assert abs(best - (2 * T / g) ** 0.5) <= 1
        assert 1.0 <= sar / fixed(best) <= 1.1


class TestMakePolicy:
    def test_specs(self):
        assert isinstance(make_policy("static"), StaticPolicy)
        assert isinstance(make_policy("dynamic"), DynamicSARPolicy)
        periodic = make_policy("periodic:25")
        assert isinstance(periodic, PeriodicPolicy) and periodic.period == 25

    def test_instance_passthrough(self):
        policy = StaticPolicy()
        assert make_policy(policy) is policy

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("sometimes")

    def test_bad_period_string(self):
        with pytest.raises(ValueError):
            make_policy("periodic:x")


class TestStateRoundtrip:
    """Checkpointed policy state must reproduce the same future decisions."""

    def test_dynamic_mid_history_decisions_match(self):
        original = DynamicSARPolicy(initial_cost=4.0)
        original.record_iteration(0, 1.0)
        original.record_iteration(1, 2.0)  # window now (0, 1.0), (1, 2.0)

        restored = policy_from_state(original.state_dict())
        assert isinstance(restored, DynamicSARPolicy)
        assert restored.redistribution_cost == original.redistribution_cost

        # Both see the same next observation and must agree at every step.
        for policy in (original, restored):
            policy.record_iteration(2, 3.0)  # rise 2 * span 2 = 4 >= 4
        assert original.should_redistribute(2)
        assert restored.should_redistribute(2)

    def test_dynamic_cost_and_window_survive(self):
        original = DynamicSARPolicy(initial_cost=0.5)
        original.record_iteration(0, 1.0)
        original.record_redistribution(0, 7.25)
        original.record_iteration(1, 2.0)

        state = original.state_dict()
        restored = policy_from_state(state)
        assert restored.redistribution_cost == 7.25
        assert restored.state_dict() == state

    def test_dynamic_empty_window(self):
        restored = policy_from_state(DynamicSARPolicy().state_dict())
        assert not restored.should_redistribute(0)

    def test_periodic_roundtrip(self):
        restored = policy_from_state(PeriodicPolicy(5).state_dict())
        assert isinstance(restored, PeriodicPolicy) and restored.period == 5
        fired = [it for it in range(20) if restored.should_redistribute(it)]
        assert fired == [4, 9, 14, 19]

    def test_static_roundtrip(self):
        assert isinstance(policy_from_state(StaticPolicy().state_dict()), StaticPolicy)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown policy type"):
            policy_from_state({"type": "OracularPolicy"})

    def test_periodic_bad_state_rejected(self):
        with pytest.raises(ValueError):
            policy_from_state({"type": "PeriodicPolicy", "period": 0})

    def test_policy_spec_canonical(self):
        assert policy_spec(StaticPolicy()) == "static"
        assert policy_spec(PeriodicPolicy(25)) == "periodic:25"
        assert policy_spec(DynamicSARPolicy()) == "dynamic"
        # spec string feeds straight back into make_policy
        assert make_policy(policy_spec(PeriodicPolicy(7))).period == 7
