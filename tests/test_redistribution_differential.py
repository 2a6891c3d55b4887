"""Differential test: incremental redistribution vs from-scratch sort.

The paper's whole premise (Figure 12) is that the bucket incremental
sort is a *cheaper implementation of the same function* as the
from-scratch sample sort.  These tests drive both paths over randomized
multi-epoch drifts and require the outputs to agree exactly: per-rank
sorted order, rebuilt bucket boundaries, and rank assignment.

Two levels are covered:

* ``bucket_incremental_sort`` + ``order_maintaining_balance`` on unique
  integer keys, compared row-for-row against a plain global
  ``argsort`` + balanced split (unique keys make the reference unique,
  so the match must be exact);
* ``Redistributor.redistribute`` on real particles, compared against the
  from-scratch ``ParticlePartitioner.distribute`` on copies of the same
  drifted sets (duplicate cell keys allow tied particles to permute, so
  the comparison canonicalizes rows by ``(key, id)``).
"""

import numpy as np
import pytest

from repro.core import ParticlePartitioner, Redistributor
from repro.core.incremental_sort import BucketState, bucket_incremental_sort
from repro.core.load_balance import order_maintaining_balance
from repro.machine import MachineModel, VirtualMachine
from repro.mesh import Grid2D
from repro.mesh.decomposition import balanced_splits
from repro.particles import ParticleArray, ParticlePool, uniform_plasma
from repro.particles.sort import KeyedBlock


def _reference_sort(keys, values, p):
    """From-scratch reference: global stable sort + balanced split."""
    order = np.argsort(keys, kind="stable")
    return KeyedBlock(
        values.take(order, axis=1), keys.take(order), balanced_splits(keys.shape[0], p)
    )


def _incremental_epoch(vm, state, values, new_keys):
    block, stats = bucket_incremental_sort(vm, state, KeyedBlock(values, new_keys, state.offsets))
    return order_maintaining_balance(vm, block), stats


def _assert_blocks_equal(got, want):
    np.testing.assert_array_equal(got.keys, want.keys)
    np.testing.assert_array_equal(got.values, want.values)
    np.testing.assert_array_equal(got.offsets, want.offsets)


class TestKeyLevelDifferential:
    """Unique keys: the reference is unique, so equality must be exact."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_multi_epoch_random_drift(self, p, seed):
        rng = np.random.default_rng(seed)
        n = 40 * p
        nbuckets = 4
        vm = VirtualMachine(p, MachineModel.cm5())

        # Epoch 0: a sorted balanced distribution of a random permutation
        # of the key universe.
        universe = np.sort(rng.choice(10 * n, size=n, replace=False)).astype(np.int64)
        rows = np.arange(n, dtype=np.float64).reshape(1, -1)
        state = BucketState.build(universe, balanced_splits(n, p), nbuckets)

        for _ in range(5):
            # Drift: permute a random subset of the key values, keeping
            # them unique (each element keeps its payload row).
            moved = rng.random(n) < 0.3
            shuffled = state.keys.copy()
            shuffled[moved] = rng.permutation(state.keys[moved])

            ref = _reference_sort(shuffled, rows, p)
            out, _ = _incremental_epoch(vm, state, rows, shuffled)
            _assert_blocks_equal(out, ref)
            # Rebuilt bucket ranges match a from-scratch build.
            got = BucketState.build(out.keys, out.offsets, nbuckets)
            want = BucketState.build(ref.keys, ref.offsets, nbuckets)
            np.testing.assert_array_equal(got.elem_lows, want.elem_lows)
            np.testing.assert_array_equal(got.elem_highs, want.elem_highs)
            state, rows = got, out.values

    @pytest.mark.parametrize("p", [2, 4])
    def test_no_movement_epoch(self, p):
        """Identical keys: nothing crosses a rank, output == input."""
        n = 24 * p
        vm = VirtualMachine(p, MachineModel.cm5())
        keys = np.arange(0, 2 * n, 2, dtype=np.int64)
        rows = np.arange(n, dtype=np.float64).reshape(1, -1)
        state = BucketState.build(keys, balanced_splits(n, p), 3)

        out, stats = _incremental_epoch(vm, state, rows, keys)
        assert stats.moved_rank == 0
        assert stats.moved_bucket == 0
        assert stats.same_bucket == n
        _assert_blocks_equal(out, KeyedBlock(rows, keys, state.offsets))

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_all_off_rank_epoch(self, p):
        """Rotate every rank's keys to the next rank: 100% off-rank
        traffic must still reproduce the from-scratch sort."""
        n = 16 * p
        vm = VirtualMachine(p, MachineModel.cm5())
        keys = np.arange(n, dtype=np.int64)
        rows = 100.0 + keys.astype(np.float64).reshape(1, -1)
        state = BucketState.build(keys, balanced_splits(n, p), 4)

        first = state.offsets[1]  # rank 0's count: every rank takes its successor's keys
        new_keys = np.roll(keys, -first)
        out, stats = _incremental_epoch(vm, state, rows, new_keys)
        assert stats.moved_rank == n
        assert stats.same_bucket == 0
        _assert_blocks_equal(out, _reference_sort(new_keys, rows, p))


class TestRedistributorDifferential:
    """Particle-level: incremental vs from-scratch on the same drifts."""

    @staticmethod
    def _canonical(partitioner, particles):
        """Global block sorted by (key, id) — the unique canonical form
        shared by every correct sorted-balanced distribution."""
        keys = partitioner.particle_keys(particles)
        order = np.lexsort((particles.ids, keys))
        return keys.take(order), particles.block.take(order, axis=1)

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("scheme", ["hilbert", "rowmajor"])
    def test_multi_epoch_drift_matches_full(self, p, scheme):
        rng = np.random.default_rng(11)
        grid = Grid2D(16, 12)
        partitioner = ParticlePartitioner(grid, scheme)
        particles = uniform_plasma(grid, 60 * p, rng=5)
        local = ParticlePool.from_ranks(partitioner.initial_partition(particles, p))

        vm = VirtualMachine(p, MachineModel.cm5())
        redist = Redistributor(partitioner, nbuckets=8)
        current = redist.initialize(vm, local).pool

        for _ in range(4):
            # Random drift applied identically to both pipelines.
            for parts in current.views:
                parts.x[:], parts.y[:] = grid.wrap_positions(
                    parts.x + rng.normal(0, 1.5, parts.n),
                    parts.y + rng.normal(0, 1.5, parts.n),
                )
            snapshot = ParticlePool.from_ranks(current.views)

            inc = redist.redistribute(vm, current).pool
            vm_full = VirtualMachine(p, MachineModel.cm5())
            full = partitioner.distribute(vm_full, snapshot)

            # Rank assignment: same per-rank counts and one sorted key
            # sequence (forced identical up to key ties).
            np.testing.assert_array_equal(inc.offsets, full.offsets)
            np.testing.assert_array_equal(partitioner.particle_keys(inc.array), full.keys)
            # Full contents agree after canonicalizing key ties.
            ik, im = self._canonical(partitioner, inc.array)
            fk, fm = self._canonical(partitioner, ParticleArray.from_block(full.values))
            np.testing.assert_array_equal(ik, fk)
            np.testing.assert_array_equal(im, fm)
            current = inc
