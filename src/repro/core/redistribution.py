"""Runtime particle redistribution driver (paper Figure 12, top level).

``Particle_Redistribution`` in the paper is: Hilbert-base indexing →
bucket incremental sorting → order-maintaining load balance → rebuild
bucket boundaries.  :class:`Redistributor` packages that pipeline over
one :class:`~repro.particles.arrays.ParticlePool`, carries the pooled
:class:`~repro.core.incremental_sort.BucketState` (sorted keys and
per-element bucket ranges, no particle rows) between epochs, and
measures each redistribution's virtual cost (the ``T_redistribution``
the dynamic policy trades against).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.incremental_sort import (
    BucketState,
    IncrementalSortStats,
    bucket_incremental_sort,
)
from repro.core.load_balance import order_maintaining_balance
from repro.core.partitioner import ParticlePartitioner
from repro.machine.virtual import VirtualMachine
from repro.particles.arrays import ParticleArray, ParticlePool
from repro.particles.sort import KeyedBlock
from repro.util import require

__all__ = ["Redistributor", "RedistributionResult"]


@dataclass
class RedistributionResult:
    """Outcome of one redistribution epoch."""

    pool: ParticlePool  #: the new particle pool, to install as it is
    cost: float  #: virtual seconds spent (compute + communication)
    stats: IncrementalSortStats  #: classification tallies (incremental path)


class Redistributor:
    """Maintains sorted order and rebalances particles across ranks.

    Parameters
    ----------
    partitioner:
        Supplies particle keys (cell curve positions).
    nbuckets:
        ``L`` buckets per rank for the incremental sort (paper Fig 12).
    """

    #: no classification hook exists; ``benchmarks/e2e/layers.py`` reads
    #: this attribute to decide whether to time one
    classifier = None

    def __init__(self, partitioner: ParticlePartitioner, *, nbuckets: int = 16) -> None:
        require(nbuckets >= 1, "nbuckets must be >= 1")
        self.partitioner = partitioner
        self.nbuckets = nbuckets
        self._state: BucketState | None = None

    def _adopt(self, block: KeyedBlock) -> ParticlePool:
        """Rebuild the bucket state from ``block``; its values are the new pool."""
        self._state = BucketState.build(block.keys, block.offsets, self.nbuckets)
        return ParticlePool(ParticleArray.from_block(block.values), block.offsets)

    # ------------------------------------------------------------------
    def initialize(self, vm: VirtualMachine, pool: ParticlePool) -> RedistributionResult:
        """Set up epoch 0 with the from-scratch distribution algorithm.

        Runs the full index + parallel sample sort + balance pipeline on
        ``vm`` (charged under phase ``"redistribution"``) and installs
        the bucket state.  The measured cost seeds the dynamic policy's
        ``T_redistribution`` estimate.
        """
        t0 = vm.elapsed()
        with vm.phase("redistribution"):
            pool = self._adopt(self.partitioner.distribute(vm, pool))
        return RedistributionResult(pool, vm.elapsed() - t0, IncrementalSortStats())

    def redistribute(self, vm: VirtualMachine, pool: ParticlePool) -> RedistributionResult:
        """Incremental redistribution of the current particle pool.

        ``pool`` must hold the particles the previous epoch produced, in
        the same order — its rows correspond to the stored bucket state;
        only the *positions* (hence keys) have changed.
        """
        state = self._state
        require(state is not None, "initialize() must run before redistribute()")
        require(
            pool.p == vm.p and np.array_equal(pool.offsets, state.offsets),
            "particle count changed outside redistribution",
        )
        t0 = vm.elapsed()
        with vm.phase("redistribution"):
            keys = self.partitioner.particle_keys(pool.array)
            self.partitioner.charge_indexing(vm, pool.counts)
            block, stats = bucket_incremental_sort(
                vm, state, KeyedBlock(pool.array.block, keys, pool.offsets)
            )
            pool = self._adopt(order_maintaining_balance(vm, block))
        return RedistributionResult(pool, vm.elapsed() - t0, stats)

    # ------------------------------------------------------------------
    # exact-resume checkpoint support
    # ------------------------------------------------------------------
    def export_keys(self) -> np.ndarray | None:
        """Build-time sort keys of the current bucket state, aligned with
        the pooled particles.

        These are the keys as of the last (re)distribution epoch — they
        cannot be recomputed from current particle positions (the
        particles have moved since), so checkpoints must carry them for
        a resumed run's incremental sort to classify identically.
        Returns ``None`` before :meth:`initialize`.
        """
        return None if self._state is None else self._state.keys.copy()

    def restore_keys(self, keys: np.ndarray, pool: ParticlePool) -> None:
        """Rebuild the bucket state from checkpointed build-time keys.

        ``pool`` holds the restored particles; its rows are in the same
        order as at the epoch that produced ``keys`` (redistribution is
        the only thing that reorders a rank, and it rebuilds the state).
        Bucket ranges are derived from the keys exactly as
        :meth:`BucketState.build` did originally, so classification
        decisions are bit-identical.
        """
        keys = np.asarray(keys)
        require(
            keys.shape == (pool.n,),
            f"restored keys ({keys.shape[0]}) and particles ({pool.n}) disagree",
        )
        self._state = BucketState.build(keys, pool.offsets, self.nbuckets)
