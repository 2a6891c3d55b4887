"""Tests for the higher-level communication patterns."""

import numpy as np
import pytest

from repro.machine.collectives import (
    alltoall_concat,
    exchange_by_destination,
)


class TestAlltoallConcat:
    def test_concatenates_in_source_order(self, vm4):
        send = [dict() for _ in range(4)]
        send[2][0] = np.array([20.0])
        send[1][0] = np.array([10.0, 11.0])
        out = alltoall_concat(vm4, send)
        assert np.array_equal(out[0], [10.0, 11.0, 20.0])

    def test_empty_receive_matches_payload_shape(self, vm4):
        send = [dict() for _ in range(4)]
        send[0][1] = np.zeros((2, 9))
        out = alltoall_concat(vm4, send)
        assert out[3].shape == (0, 9)

    def test_all_empty_exchange(self, vm4):
        out = alltoall_concat(vm4, [dict() for _ in range(4)])
        assert all(o.size == 0 for o in out)


class TestExchangeByDestination:
    def test_routing(self, vm4):
        arrays = [np.arange(4.0).reshape(4, 1) + 10 * r for r in range(4)]
        dests = [np.array([0, 1, 2, 3]) for _ in range(4)]
        out = exchange_by_destination(vm4, arrays, dests)
        # rank 1 receives element index 1 from every rank, source order
        assert np.array_equal(out[1].ravel(), [1.0, 11.0, 21.0, 31.0])

    def test_stable_within_source(self, vm4):
        arrays = [np.array([[1.0], [2.0], [3.0]])] + [np.zeros((0, 1))] * 3
        dests = [np.array([2, 2, 2])] + [np.zeros(0, dtype=np.int64)] * 3
        out = exchange_by_destination(vm4, arrays, dests)
        assert np.array_equal(out[2].ravel(), [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self, vm4):
        arrays = [np.zeros((2, 1))] * 4
        dests = [np.zeros(3, dtype=np.int64)] * 4
        with pytest.raises(ValueError, match="length mismatch"):
            exchange_by_destination(vm4, arrays, dests)

    def test_bad_destination_rejected(self, vm4):
        arrays = [np.zeros((1, 1))] * 4
        dests = [np.array([7])] + [np.zeros(1, dtype=np.int64)] * 3
        with pytest.raises(ValueError, match="destination out of range"):
            exchange_by_destination(vm4, arrays, dests)

    def test_conservation(self, vm4):
        """Every row sent is received exactly once."""
        rng = np.random.default_rng(0)
        arrays = [rng.random((20, 3)) for _ in range(4)]
        dests = [rng.integers(0, 4, 20) for _ in range(4)]
        out = exchange_by_destination(vm4, arrays, dests)
        total_in = np.concatenate(arrays).sum()
        total_out = sum(o.sum() for o in out)
        assert total_out == pytest.approx(total_in)
        assert sum(o.shape[0] for o in out) == 80
