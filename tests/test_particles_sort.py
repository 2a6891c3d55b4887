"""Tests for parallel sample sort and sorting primitives."""

import numpy as np
import pytest

from repro.machine import MachineModel, VirtualMachine
from repro.particles.sort import KeyedBlock, parallel_sample_sort, regular_samples
from tests._looped_oracle import keyed_block, per_rank


class TestRegularSamples:
    def test_spacing(self):
        keys = np.arange(100)
        samples = regular_samples(keys, 4)
        assert samples.size == 4
        assert np.all(np.diff(samples) > 0)

    def test_short_array(self):
        assert regular_samples(np.array([5, 6]), 10).size == 2

    def test_empty(self):
        assert regular_samples(np.array([]), 3).size == 0

    def test_bad_count(self):
        with pytest.raises(ValueError):
            regular_samples(np.arange(5), 0)


class TestLocalSort:
    """Every rank's entries stably sorted by key, all ranks in one pass."""

    def test_stable(self):
        keys = np.array([2, 1, 2, 1, 5, 0])
        values = np.arange(6).reshape(1, 6)
        out = KeyedBlock(values, keys, np.array([0, 4, 6])).sorted_within_ranks()
        assert out.keys.tolist() == [1, 1, 2, 2, 0, 5]
        assert out.values.ravel().tolist() == [1, 3, 0, 2, 5, 4]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            KeyedBlock(np.zeros((1, 4)), np.arange(3), np.array([0, 4])).sorted_within_ranks()


class TestParallelSampleSort:
    @staticmethod
    def _random_input(p, n_per, seed=0):
        rng = np.random.default_rng(seed)
        keys = [rng.integers(0, 10000, n_per).astype(np.int64) for _ in range(p)]
        payloads = [k.reshape(1, -1).astype(float) for k in keys]
        return keys, payloads

    def test_global_order(self):
        vm = VirtualMachine(4, MachineModel.cm5())
        keys, payloads = self._random_input(4, 200)
        block, splitters = parallel_sample_sort(vm, keyed_block(keys, payloads))
        keys_out, payloads_out = per_rank(block)
        merged = np.concatenate(keys_out)
        assert np.array_equal(merged, np.sort(np.concatenate(keys)))
        assert splitters.size == 3

    def test_payload_follows_keys(self):
        vm = VirtualMachine(4, MachineModel.cm5())
        keys, payloads = self._random_input(4, 100, seed=1)
        block, _ = parallel_sample_sort(vm, keyed_block(keys, payloads))
        keys_out, payloads_out = per_rank(block)
        for k, m in zip(keys_out, payloads_out):
            assert np.array_equal(k.astype(float), m.ravel())

    def test_nothing_lost(self):
        vm = VirtualMachine(8, MachineModel.cm5())
        keys, payloads = self._random_input(8, 50, seed=2)
        block, _ = parallel_sample_sort(vm, keyed_block(keys, payloads))
        keys_out, _ = per_rank(block)
        assert sum(k.size for k in keys_out) == 400

    def test_roughly_balanced(self):
        vm = VirtualMachine(4, MachineModel.cm5())
        keys, payloads = self._random_input(4, 1000, seed=3)
        block, _ = parallel_sample_sort(vm, keyed_block(keys, payloads))
        keys_out, _ = per_rank(block)
        counts = np.array([k.size for k in keys_out])
        assert counts.max() < 2.0 * counts.mean()

    def test_charges_time(self):
        vm = VirtualMachine(4, MachineModel.cm5())
        keys, payloads = self._random_input(4, 100)
        parallel_sample_sort(vm, keyed_block(keys, payloads))
        assert vm.compute_time.max() > 0 and vm.comm_time.max() > 0

    def test_empty_ranks_tolerated(self):
        vm = VirtualMachine(4, MachineModel.cm5())
        keys = [np.arange(100, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.arange(50, dtype=np.int64), np.empty(0, dtype=np.int64)]
        payloads = [k.reshape(1, -1).astype(float) for k in keys]
        block, _ = parallel_sample_sort(vm, keyed_block(keys, payloads))
        keys_out, _ = per_rank(block)
        assert sum(k.size for k in keys_out) == 150
        assert np.array_equal(np.concatenate(keys_out), np.sort(np.concatenate(keys)))

    def test_single_rank(self):
        vm = VirtualMachine(1, MachineModel.cm5())
        keys = [np.array([3, 1, 2], dtype=np.int64)]
        payloads = [keys[0].reshape(1, -1).astype(float)]
        block, splitters = parallel_sample_sort(vm, keyed_block(keys, payloads))
        keys_out, payloads_out = per_rank(block)
        assert keys_out[0].tolist() == [1, 2, 3]
        assert splitters.size == 0

    def test_duplicate_keys(self):
        vm = VirtualMachine(4, MachineModel.cm5())
        keys = [np.full(100, 7, dtype=np.int64) for _ in range(4)]
        payloads = [np.arange(100.0).reshape(1, -1) for _ in range(4)]
        block, _ = parallel_sample_sort(vm, keyed_block(keys, payloads))
        keys_out, _ = per_rank(block)
        assert sum(k.size for k in keys_out) == 400
        assert np.all(np.concatenate(keys_out) == 7)
