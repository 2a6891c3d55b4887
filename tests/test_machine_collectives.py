"""Tests for the higher-level communication patterns."""

import numpy as np
import pytest

from repro.machine.collectives import exchange_by_destination_pooled


def _route(vm, arrays, dests):
    """Per-rank ``arrays`` (entries along the last axis) pooled, routed by
    ``dests``, and cut back per rank."""
    offsets = np.cumsum([0] + [a.shape[-1] for a in arrays])
    (values,), out_offsets = exchange_by_destination_pooled(
        vm, (np.concatenate(arrays, axis=-1),), np.concatenate(dests), offsets
    )
    return np.split(values, out_offsets[1:-1], axis=-1)


class TestAlltoallConcat:
    """The per-destination concatenation the pooled router returns."""

    def test_concatenates_in_source_order(self, vm4):
        arrays = [np.zeros(0), np.array([10.0, 11.0]), np.array([20.0]), np.zeros(0)]
        dests = [np.zeros(len(a), dtype=np.int64) for a in arrays]
        out = _route(vm4, arrays, dests)
        assert np.array_equal(out[0], [10.0, 11.0, 20.0])

    def test_empty_receive_matches_payload_shape(self, vm4):
        arrays = [np.zeros((9, 2))] + [np.zeros((9, 0))] * 3
        dests = [np.ones(2, dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * 3
        out = _route(vm4, arrays, dests)
        assert out[3].shape == (9, 0)

    def test_all_empty_exchange(self, vm4):
        keys = np.zeros(0, dtype=np.int64)
        (values, got), offsets = exchange_by_destination_pooled(
            vm4, (np.zeros((9, 0)), keys), keys, np.zeros(5, dtype=np.int64)
        )
        assert values.shape == (9, 0) and got.dtype == np.int64  # no float64 template
        assert offsets.tolist() == [0] * 5


class TestExchangeByDestination:
    def test_routing(self, vm4):
        arrays = [np.arange(4.0).reshape(1, 4) + 10 * r for r in range(4)]
        dests = [np.array([0, 1, 2, 3]) for _ in range(4)]
        out = _route(vm4, arrays, dests)
        # rank 1 receives element index 1 from every rank, source order
        assert np.array_equal(out[1].ravel(), [1.0, 11.0, 21.0, 31.0])

    def test_stable_within_source(self, vm4):
        arrays = [np.array([[1.0, 2.0, 3.0]])] + [np.zeros((1, 0))] * 3
        dests = [np.array([2, 2, 2])] + [np.zeros(0, dtype=np.int64)] * 3
        out = _route(vm4, arrays, dests)
        assert np.array_equal(out[2].ravel(), [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self, vm4):
        with pytest.raises(ValueError, match="length mismatch"):
            exchange_by_destination_pooled(
                vm4, (np.zeros((1, 8)),), np.zeros(12, dtype=np.int64), np.arange(5) * 3
            )

    def test_bad_destination_rejected(self, vm4):
        arrays = [np.zeros((1, 1))] * 4
        dests = [np.array([7])] + [np.zeros(1, dtype=np.int64)] * 3
        with pytest.raises(ValueError, match="destination out of range"):
            _route(vm4, arrays, dests)

    def test_conservation(self, vm4):
        """Every row sent is received exactly once."""
        rng = np.random.default_rng(0)
        arrays = [rng.random((3, 20)) for _ in range(4)]
        dests = [rng.integers(0, 4, 20) for _ in range(4)]
        out = _route(vm4, arrays, dests)
        total_in = np.concatenate(arrays).sum()
        total_out = sum(o.sum() for o in out)
        assert total_out == pytest.approx(total_in)
        assert sum(o.shape[-1] for o in out) == 80
