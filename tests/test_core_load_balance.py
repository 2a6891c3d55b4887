"""Tests for order-maintaining load balance."""

import numpy as np
import pytest

from repro.core import order_maintaining_balance
from repro.machine import MachineModel, VirtualMachine
from tests._looped_oracle import keyed_block, per_rank


def unbalanced_input(p, counts, seed=0):
    rng = np.random.default_rng(seed)
    total = sum(counts)
    all_keys = np.sort(rng.integers(0, 10**6, total))
    keys, payloads = [], []
    start = 0
    for c in counts:
        k = all_keys[start : start + c]
        keys.append(k)
        payloads.append(k.reshape(1, -1).astype(float))
        start += c
    return keys, payloads


class TestBalance:
    def test_counts_equalized(self):
        vm = VirtualMachine(4, MachineModel.cm5())
        keys, payloads = unbalanced_input(4, [100, 0, 300, 1])
        out = order_maintaining_balance(vm, keyed_block(keys, payloads))
        out_keys, out_payloads = per_rank(out)
        counts = [k.size for k in out_keys]
        assert max(counts) - min(counts) <= 1
        assert sum(counts) == 401

    def test_global_order_unchanged(self):
        vm = VirtualMachine(4, MachineModel.cm5())
        keys, payloads = unbalanced_input(4, [10, 200, 5, 85], seed=1)
        before = np.concatenate(keys)
        out_keys, _ = per_rank(order_maintaining_balance(vm, keyed_block(keys, payloads)))
        assert np.array_equal(np.concatenate(out_keys), before)

    def test_payload_rides_with_keys(self):
        vm = VirtualMachine(4, MachineModel.cm5())
        keys, payloads = unbalanced_input(4, [50, 0, 0, 50], seed=2)
        out = order_maintaining_balance(vm, keyed_block(keys, payloads))
        out_keys, out_payloads = per_rank(out)
        for k, m in zip(out_keys, out_payloads):
            assert np.array_equal(k.astype(float), m.ravel())

    def test_already_balanced_no_movement(self):
        vm = VirtualMachine(4, MachineModel.cm5())
        keys, payloads = unbalanced_input(4, [25, 25, 25, 25], seed=3)
        order_maintaining_balance(vm, keyed_block(keys, payloads))
        # allgather of counts is collective, but no point-to-point moves
        assert vm.stats.phase("default").total_msgs <= 2 * vm.p  # collective only

    def test_single_rank(self):
        vm = VirtualMachine(1, MachineModel.cm5())
        keys, payloads = unbalanced_input(1, [42], seed=4)
        out_keys, _ = per_rank(order_maintaining_balance(vm, keyed_block(keys, payloads)))
        assert out_keys[0].size == 42

    def test_all_on_one_rank(self):
        vm = VirtualMachine(4, MachineModel.cm5())
        keys, payloads = unbalanced_input(4, [400, 0, 0, 0], seed=5)
        out_keys, _ = per_rank(order_maintaining_balance(vm, keyed_block(keys, payloads)))
        assert [k.size for k in out_keys] == [100, 100, 100, 100]

    def test_wrong_length_rejected(self):
        vm = VirtualMachine(4, MachineModel.cm5())
        with pytest.raises(ValueError):
            order_maintaining_balance(vm, keyed_block([np.zeros(1)], [np.zeros((1, 1))]))
