"""Tests for bucket-based incremental sorting (paper Figure 12)."""

import numpy as np
import pytest

from repro.core.incremental_sort import BucketState, bucket_incremental_sort
from repro.machine import MachineModel, VirtualMachine
from repro.particles.sort import KeyedBlock
from tests._looped_oracle import per_rank


def make_state(p, n_per, nbuckets=4, seed=0):
    """A sorted balanced state of ``p * n_per`` keys."""
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.integers(0, 100000, p * n_per))
    return BucketState.build(keys, np.arange(p + 1) * n_per, nbuckets)


def moved(state, new_keys):
    """The state's payload (its keys as floats, one row) under ``new_keys``."""
    return KeyedBlock(state.keys.reshape(1, -1).astype(float), new_keys, state.offsets)


class TestBucketState:
    def test_build_offsets(self):
        # 10 elements in 4 buckets: sizes 3, 3, 2, 2
        state = BucketState.build(np.arange(10), [0, 10], 4)
        assert state.elem_lows.tolist() == [0, 0, 0, 3, 3, 3, 6, 6, 8, 8]
        assert state.elem_highs.tolist() == [2, 2, 2, 5, 5, 5, 7, 7, 9, 9]
        assert state.nbuckets == 4

    def test_bucket_key_ranges(self):
        keys = np.array([1, 2, 5, 9, 20, 30])
        state = BucketState.build(keys, [0, 6], 2)
        assert state.elem_lows.tolist() == [1, 1, 1, 9, 9, 9]
        assert state.elem_highs.tolist() == [5, 5, 5, 30, 30, 30]
        # per rank: two ranks of three, one bucket each
        state = BucketState.build(keys, [0, 3, 6], 2)
        assert state.elem_lows.tolist() == [1, 1, 5, 9, 9, 30]
        assert state.elem_highs.tolist() == [2, 2, 5, 20, 20, 30]

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            BucketState.build(np.array([3, 1]), [0, 2], 2)
        # a descent across a rank boundary is fine
        BucketState.build(np.array([3, 1]), [0, 1, 2], 2)

    def test_empty_state(self):
        state = BucketState.build(np.empty(0, dtype=np.int64), [0, 0, 0], 4)
        assert state.n == 0
        assert state.upper_keys.tolist() == [np.iinfo(np.int64).min] * 2

    def test_upper_key(self):
        state = BucketState.build(np.array([1, 7, 3]), [0, 2, 2, 3], 2)
        assert state.upper_keys.tolist() == [7, np.iinfo(np.int64).min, 3]


class TestIncrementalSort:
    def test_identity_when_keys_unchanged(self):
        vm = VirtualMachine(4, MachineModel.cm5())
        state = make_state(4, 50)
        out, stats = bucket_incremental_sort(vm, state, moved(state, state.keys.copy()))
        assert stats.moved_rank == 0
        assert stats.same_bucket == 200
        assert np.array_equal(out.keys, state.keys)
        assert np.array_equal(out.offsets, state.offsets)

    def test_globally_sorted_after_perturbation(self):
        vm = VirtualMachine(4, MachineModel.cm5())
        state = make_state(4, 100, seed=1)
        rng = np.random.default_rng(2)
        new_keys = state.keys + rng.integers(-500, 500, state.n)
        out, stats = bucket_incremental_sort(vm, state, moved(state, new_keys))
        assert np.array_equal(out.keys, np.sort(new_keys))
        assert stats.total == 400

    def test_payload_follows_keys(self):
        vm = VirtualMachine(4, MachineModel.cm5())
        state = make_state(4, 50, seed=3)
        # payload column = original key; perturb keys, payload should ride along
        rng = np.random.default_rng(4)
        new_keys = state.keys + rng.integers(-100, 100, state.n)
        expected_pairs = sorted(zip(new_keys, state.keys.astype(float)))
        out, _ = bucket_incremental_sort(vm, state, moved(state, new_keys))
        got_payload = out.values[0]
        exp_keys = np.array([k for k, _ in expected_pairs])
        assert np.array_equal(out.keys, exp_keys)
        # payloads may tie-swap only among equal keys
        for k in np.unique(out.keys):
            sel = out.keys == k
            exp_vals = sorted(v for kk, v in expected_pairs if kk == k)
            assert sorted(got_payload[sel].tolist()) == exp_vals

    def test_classification_counts(self):
        """Small perturbations mostly stay in their bucket; big ones move
        rank — the cost gradient the incremental algorithm exploits."""
        vm = VirtualMachine(4, MachineModel.cm5())
        state = make_state(4, 200, nbuckets=8, seed=5)
        _, stats_small = bucket_incremental_sort(vm, state, moved(state, state.keys + 1))

        rng = np.random.default_rng(6)
        big = rng.permutation(state.keys)
        _, stats_big = bucket_incremental_sort(vm, state, moved(state, big))
        assert stats_small.moved_rank < stats_big.moved_rank
        assert stats_small.same_bucket > stats_big.same_bucket

    def test_cheaper_than_full_sort_when_drift_small(self):
        """Virtual cost of incremental sort under small drift must be
        below a from-scratch sample sort of the same data (Fig 11)."""
        from repro.particles.sort import parallel_sample_sort

        p, n_per = 8, 500
        state = make_state(p, n_per, seed=7)
        block = moved(state, state.keys + 2)

        vm_inc = VirtualMachine(p, MachineModel.cm5())
        bucket_incremental_sort(vm_inc, state, block)

        vm_full = VirtualMachine(p, MachineModel.cm5())
        parallel_sample_sort(vm_full, block)
        assert vm_inc.elapsed() < vm_full.elapsed()

    def test_more_buckets_cheapen_bucket_moves(self):
        """Elements that change bucket pay O(log L) classification but a
        cheaper per-bucket re-sort; with perturbations that move elements
        between buckets, more buckets must not *increase* total cost and
        should reduce the re-sort component."""
        costs = {}
        for nbuckets in (2, 32):
            vm = VirtualMachine(4, MachineModel.cm5())
            state = make_state(4, 1000, nbuckets=nbuckets, seed=11)
            rng = np.random.default_rng(12)
            new_keys = state.keys + rng.integers(-2000, 2000, state.n)
            bucket_incremental_sort(vm, state, moved(state, new_keys))
            costs[nbuckets] = vm.compute_time.max()
        assert costs[32] < costs[2]

    def test_empty_rank_handled(self):
        vm = VirtualMachine(3, MachineModel.cm5())
        state = BucketState.build(np.array([1, 2, 3, 10, 11]), [0, 3, 3, 5], 2)
        out, _ = bucket_incremental_sort(vm, state, moved(state, state.keys.copy()))
        assert np.array_equal(out.keys, [1, 2, 3, 10, 11])
        assert [k.tolist() for k in per_rank(out)[0]] == [[1, 2, 3], [], [10, 11]]

    def test_length_mismatch_rejected(self):
        vm = VirtualMachine(2, MachineModel.cm5())
        state = make_state(2, 10)
        bad = KeyedBlock(np.zeros((1, 15)), state.keys[:15], np.array([0, 5, 15]))
        with pytest.raises(ValueError, match="length mismatch"):
            bucket_incremental_sort(vm, state, bad)
