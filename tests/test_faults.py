"""Tests for the fault-injection machinery (repro.machine.faults)."""

import json

import numpy as np
import pytest

from repro.machine import FaultEvent, FaultInjector, FaultPlan, MachineModel, VirtualMachine
from repro.machine.collectives import exchange_by_destination_pooled
from repro.util.errors import (
    FaultError,
    InvalidRankError,
    MessageLost,
    RankFailure,
)


def _vm(p=4):
    return VirtualMachine(p, MachineModel.cm5())


def _send(p, nbytes_per_row=8):
    """Every rank sends one row to its right neighbour."""
    send = [dict() for _ in range(p)]
    for src in range(p):
        send[src][(src + 1) % p] = np.full(3, float(src))
    return send


def _plan(*events, **kw):
    return FaultPlan(events=tuple(events), **kw)


class TestFaultPlanSerialization:
    def test_roundtrip(self):
        plan = _plan(
            FaultEvent(kind="kill", rank=2, iteration=5),
            FaultEvent(kind="drop", src=0, dst=1, iteration=3, phase="scatter", count=2),
            FaultEvent(kind="slowdown", rank=1, iteration=4, count=3, factor=2.5),
            retry_timeout=1e-3,
            detect_timeout=1e-2,
            max_retries=5,
        )
        back = FaultPlan.from_dict(plan.to_dict())
        assert back == plan

    def test_json_file_roundtrip(self, tmp_path):
        plan = _plan(FaultEvent(kind="corrupt", dst=3, iteration=7))
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert FaultPlan.from_json(path) == plan

    def test_example_plan_parses(self):
        from pathlib import Path

        example = Path(__file__).resolve().parents[1] / "examples" / "faults.json"
        plan = FaultPlan.from_json(example)
        assert any(e.kind == "kill" for e in plan.events)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(kind="meteor", rank=0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault event keys"):
            FaultEvent.from_dict({"kind": "drop", "severity": 11})
        with pytest.raises(ValueError, match="unknown fault plan keys"):
            FaultPlan.from_dict({"happens": []})

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json(path)
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json(path)

    def test_kill_needs_rank(self):
        with pytest.raises(ValueError, match="victim rank"):
            FaultEvent(kind="kill")

    def test_survivor_plan_remaps(self):
        plan = _plan(
            FaultEvent(kind="kill", rank=2, iteration=5),
            FaultEvent(kind="slowdown", rank=3, iteration=0, count=0),
            FaultEvent(kind="drop", src=1, dst=2),  # targets the dead rank
            FaultEvent(kind="corrupt", src=3, dst=0),
        )
        surv = plan.survivor_plan(2)
        kinds = [e.kind for e in surv.events]
        assert "kill" not in kinds  # the fired kill is removed
        assert "drop" not in kinds  # dead-rank message events dropped
        slow = next(e for e in surv.events if e.kind == "slowdown")
        assert slow.rank == 2  # 3 shifts down past the dead rank
        corrupt = next(e for e in surv.events if e.kind == "corrupt")
        assert (corrupt.src, corrupt.dst) == (2, 0)


class TestInstall:
    def test_install_accepts_plan_injector_none(self):
        vm = _vm()
        plan = _plan(FaultEvent(kind="duplicate", src=0))
        vm.install_faults(plan)
        assert isinstance(vm.fault_injector, FaultInjector)
        vm.install_faults(FaultInjector(plan))
        assert vm.fault_injector.plan == plan
        vm.install_faults(None)
        assert vm.fault_injector is None

    def test_install_rejects_garbage(self):
        with pytest.raises(TypeError, match="FaultPlan"):
            _vm().install_faults({"kind": "drop"})


class TestZeroCostWhenOff:
    def test_empty_plan_is_accounting_identical(self):
        """An installed-but-empty plan charges exactly like no plan."""
        clean, empty = _vm(), _vm()
        empty.install_faults(FaultPlan())
        for vm in (clean, empty):
            with vm.phase("scatter"):
                vm.alltoallv(_send(vm.p))
                vm.charge_ops("push", 1000.0)
                vm.allreduce([np.ones(4)] * vm.p)
                vm.allgather([np.arange(r + 1) for r in range(vm.p)])
        assert clean.elapsed() == empty.elapsed()
        assert clean.state_dict() == empty.state_dict()


class TestTransportFaults:
    def test_drop_charges_retries_and_delivers(self):
        clean, faulty = _vm(), _vm()
        faulty.install_faults(_plan(FaultEvent(kind="drop", src=0, dst=1, count=2)))
        r_clean = clean.alltoallv(_send(4))
        r_faulty = faulty.alltoallv(_send(4))
        np.testing.assert_array_equal(r_clean[1][0], r_faulty[1][0])  # payload intact
        assert faulty.elapsed() > clean.elapsed()
        # two retransmissions recorded on top of the clean message count
        assert (
            faulty.stats.phase("default").total_msgs
            == clean.stats.phase("default").total_msgs + 2
        )

    def test_drop_beyond_max_retries_raises(self):
        vm = _vm()
        vm.install_faults(_plan(FaultEvent(kind="drop", src=0, dst=1, count=5), max_retries=3))
        with pytest.raises(MessageLost) as err:
            vm.alltoallv(_send(4))
        assert err.value.src == 0 and err.value.dst == 1

    def test_duplicate_and_corrupt_cost_but_do_not_damage(self):
        for kind in ("duplicate", "corrupt"):
            clean, faulty = _vm(), _vm()
            faulty.install_faults(_plan(FaultEvent(kind=kind, src=2, dst=3)))
            r_clean = clean.alltoallv(_send(4))
            r_faulty = faulty.alltoallv(_send(4))
            np.testing.assert_array_equal(r_clean[3][2], r_faulty[3][2])
            assert faulty.elapsed() > clean.elapsed(), kind
            assert (
                faulty.stats.phase("default").total_msgs
                > clean.stats.phase("default").total_msgs
            ), kind

    def test_corrupt_records_nack_to_sender(self):
        vm = _vm()
        vm.install_faults(_plan(FaultEvent(kind="corrupt", src=2, dst=3)))
        vm.alltoallv(_send(4))
        # the 8-byte NACK travels dst -> src
        assert vm.stats.phase("default").bytes_recv[2] >= 8

    def test_poison_damages_float_payload_only(self):
        vm = _vm()
        vm.install_faults(_plan(FaultEvent(kind="poison", src=0, dst=1)))
        send = [dict() for _ in range(4)]
        send[0][1] = (np.arange(3, dtype=float), np.arange(3, dtype=np.int64))
        recv = vm.alltoallv(send)
        floats, ints = recv[1][0]
        assert np.isnan(floats[0]) and np.isfinite(floats[1:]).all()
        np.testing.assert_array_equal(ints, np.arange(3))  # addressing untouched

    def test_exchange_stats_equal_per_message_recording(self):
        """``alltoallv`` logs an exchange's traffic once; the ledger is the
        one ``record_message`` per delivered message would have written,
        around the injector's own retransmission records — also for the
        messages delivered before one is lost for good."""
        p = 4
        send = [dict() for _ in range(p)]
        for src in range(p):
            send[src][src] = np.ones(5)  # self-send: free, not a message
            for hop in (1, 2):
                dst = (src + hop) % p
                send[src][dst] = (np.arange(src + hop), np.full((2, src + hop), 1.5))

        def nbytes(src, dst):
            return 24 * ((dst - src) % p + src)

        events = (
            FaultEvent(kind="drop", src=0, dst=1, count=2),  # two retransmissions
            FaultEvent(kind="duplicate", src=1, dst=3),
            FaultEvent(kind="corrupt", src=2, dst=3),  # NACK + retransmission
        )
        extra = {(0, 1): [(0, 1)] * 2, (1, 3): [(1, 3)], (2, 3): [(3, 2), (2, 3)]}

        def per_message(lost=None):
            vm = _vm(p)
            with vm.phase("scatter"):
                for src in range(p):
                    for dst in send[src]:
                        if (src, dst) == lost:
                            return vm.stats
                        if dst != src:
                            for a, b in extra.get((src, dst), ()):
                                size = 8 if (a, b) == (dst, src) else nbytes(src, dst)
                                vm.stats.record_message("scatter", a, b, size)
                            vm.stats.record_message("scatter", src, dst, nbytes(src, dst))
            return vm.stats

        vm = _vm(p).install_faults(_plan(*events))
        with vm.phase("scatter"):
            vm.alltoallv(send)
        assert vm.stats.state_dict() == per_message().state_dict()
        assert vm.stats.phase("scatter").total_msgs == 2 * p + 5

        lossy = _vm(p).install_faults(
            _plan(*events, FaultEvent(kind="drop", src=2, dst=0, count=9), max_retries=3)
        )
        with lossy.phase("scatter"), pytest.raises(MessageLost):
            lossy.alltoallv(send)
        assert lossy.stats.state_dict() == per_message(lost=(2, 0)).state_dict()
        assert lossy.stats.phase("scatter").total_msgs > 0

        quiet = _vm(p)
        quiet.alltoallv([{r: np.ones(2)} for r in range(p)])  # self-sends only
        assert quiet.stats.state_dict() == {}

    def test_phase_filter(self):
        vm = _vm()
        vm.install_faults(_plan(FaultEvent(kind="poison", phase="scatter")))
        with vm.phase("gather"):
            recv = vm.alltoallv(_send(4))
        assert np.isfinite(recv[1][0]).all()  # wrong phase: no damage

    def test_self_sends_are_immune(self):
        vm = _vm()
        vm.install_faults(_plan(FaultEvent(kind="poison", src=1, dst=1)))
        send = [dict() for _ in range(4)]
        send[1][1] = np.ones(3)
        recv = vm.alltoallv(send)
        assert np.isfinite(recv[1][1]).all()

    def test_collective_fault_costs_extra(self):
        clean, faulty = _vm(), _vm()
        faulty.install_faults(_plan(FaultEvent(kind="drop", iteration=0)))
        for vm in (clean, faulty):
            vm.allreduce([np.ones(8)] * vm.p)
        assert faulty.elapsed() > clean.elapsed()


class TestKillAndSlowdown:
    def test_kill_raises_rank_failure_with_detection_charge(self):
        vm = _vm()
        vm.install_faults(_plan(FaultEvent(kind="kill", rank=2, iteration=0)))
        with pytest.raises(RankFailure) as err:
            vm.alltoallv(_send(4))
        assert err.value.rank == 2
        assert vm.phase_time["recovery"].max() == pytest.approx(
            vm.fault_injector.plan.detect_timeout
        )

    def test_kill_waits_for_its_iteration(self):
        vm = _vm()
        vm.install_faults(_plan(FaultEvent(kind="kill", rank=1, iteration=5)))
        vm.fault_injector.set_iteration(4)
        vm.alltoallv(_send(4))  # survives: not yet due
        vm.fault_injector.set_iteration(5)
        with pytest.raises(RankFailure):
            vm.alltoallv(_send(4))

    def test_kill_out_of_range_is_typed_error(self):
        vm = _vm(2)
        vm.install_faults(_plan(FaultEvent(kind="kill", rank=7)))
        with pytest.raises(FaultError, match="p=2"):
            vm.alltoallv([dict(), {0: np.ones(2)}])

    def test_slowdown_scales_only_victim(self):
        clean, slow = _vm(), _vm()
        slow.install_faults(
            _plan(FaultEvent(kind="slowdown", rank=1, iteration=0, count=2, factor=3.0))
        )
        for vm in (clean, slow):
            vm.charge_ops("push", 1000.0)
        assert slow.clocks[1] == pytest.approx(3.0 * clean.clocks[1])
        assert slow.clocks[0] == pytest.approx(clean.clocks[0])
        # expires after `count` iterations
        slow.fault_injector.set_iteration(2)
        before = slow.clocks.copy()
        clean_before = clean.clocks.copy()
        slow.charge_ops("push", 1000.0)
        clean.charge_ops("push", 1000.0)
        np.testing.assert_allclose(slow.clocks - before, clean.clocks - clean_before)


class TestExchangeValidation:
    def test_pooled_rejects_out_of_range_destinations(self):
        vm = _vm(3)
        values = np.ones((2, 4))
        offsets = np.array([0, 2, 3, 4])
        for bad in (np.array([0, 3, 1, 2]), np.array([0, -1, 1, 2])):
            with pytest.raises(InvalidRankError, match="out of range"):
                exchange_by_destination_pooled(vm, (values,), bad, offsets)

    def test_per_rank_exchange_rejects_bad_destinations(self):
        # rank 0's second row is pooled row 1
        vm = _vm(2)
        with pytest.raises(InvalidRankError, match="row 1: dest 5"):
            exchange_by_destination_pooled(vm, (np.ones(3),), np.array([0, 5, 1]), [0, 2, 3])

    def test_invalid_rank_error_is_value_error(self):
        # pre-existing `except ValueError` call sites keep working
        assert issubclass(InvalidRankError, ValueError)
