"""Tests for per-phase, per-rank communication statistics."""

import json

import numpy as np
import pytest

from repro.machine import CommStats, PhaseComm


class TestPhaseComm:
    def test_zeros(self):
        rec = PhaseComm.zeros(4)
        assert rec.max_msgs == 0 and rec.max_bytes == 0

    def test_max_is_over_both_directions(self):
        rec = PhaseComm.zeros(3)
        rec.bytes_sent[0] = 10
        rec.bytes_recv[2] = 25
        assert rec.max_bytes == 25
        rec.msgs_sent[1] = 7
        assert rec.max_msgs == 7

    def test_add(self):
        a = PhaseComm.zeros(2)
        b = PhaseComm.zeros(2)
        a.bytes_sent[0] = 5
        b.bytes_sent[0] = 3
        a.add(b)
        assert a.bytes_sent[0] == 8

    def test_copy_is_deep(self):
        a = PhaseComm.zeros(2)
        b = a.copy()
        b.bytes_sent[0] = 99
        assert a.bytes_sent[0] == 0

    def test_totals(self):
        rec = PhaseComm.zeros(2)
        rec.bytes_sent[:] = [3, 4]
        rec.msgs_sent[:] = [1, 2]
        assert rec.total_bytes == 7 and rec.total_msgs == 3

    def test_to_dict(self):
        """Totals are of what was sent; maxima are over both directions."""
        rec = PhaseComm.zeros(3)
        rec.block[:] = [[1, 2, 0], [0, 0, 5], [10, 20, 0], [0, 0, 40]]
        assert json.dumps(rec.to_dict()) == json.dumps(
            {"msgs": 3, "bytes": 30, "max_msgs": 5, "max_bytes": 40}
        )


class TestCommStats:
    def test_record_message_both_ends(self):
        stats = CommStats(4)
        stats.record_message("scatter", src=1, dst=2, nbytes=100)
        rec = stats.phase("scatter")
        assert rec.msgs_sent[1] == 1 and rec.msgs_recv[2] == 1
        assert rec.bytes_sent[1] == 100 and rec.bytes_recv[2] == 100

    def test_phases_accumulate_independently(self):
        stats = CommStats(2)
        stats.record_message("scatter", 0, 1, 10)
        stats.record_message("gather", 1, 0, 20)
        assert stats.phase("scatter").total_bytes == 10
        assert stats.phase("gather").total_bytes == 20
        assert stats.phases() == ["gather", "scatter"]

    def test_unknown_phase_is_zeros(self):
        assert CommStats(2).phase("nope").max_bytes == 0

    def test_snapshot_epoch_resets(self):
        stats = CommStats(2)
        stats.record_message("scatter", 0, 1, 10)
        snap = stats.snapshot_epoch()
        assert snap["scatter"].total_bytes == 10
        assert stats.phase("scatter").total_bytes == 0

    def test_record_collective(self):
        stats = CommStats(3)
        stats.record_collective("redistribution", np.array([10, 20, 30]))
        rec = stats.phase("redistribution")
        assert rec.bytes_sent.tolist() == [10, 20, 30]
        assert np.all(rec.bytes_recv == 60)
        assert np.all(rec.msgs_sent == 1)

    def test_rank_range_checked(self):
        with pytest.raises(ValueError):
            CommStats(2).record_message("x", 0, 5, 1)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            CommStats(2).record_message("x", 0, 1, -1)

    def test_state_round_trip(self):
        stats = CommStats(3)
        stats.record_message("scatter", 0, 2, 10)
        stats.record_collective("field", np.array([1, 2, 3]))
        state = json.loads(json.dumps(stats.state_dict()))
        assert state["scatter"] == {"msgs_sent": [1, 0, 0], "msgs_recv": [0, 0, 1],
                                    "bytes_sent": [10, 0, 0], "bytes_recv": [0, 0, 10]}
        restored = CommStats(3)
        restored.load_state(state)
        assert restored.state_dict() == state
        with pytest.raises(ValueError, match="4 rows of length p=2"):
            CommStats(2).load_state(state)

    def test_reset(self):
        stats = CommStats(2)
        stats.record_message("x", 0, 1, 5)
        stats.reset()
        assert stats.phases() == []
