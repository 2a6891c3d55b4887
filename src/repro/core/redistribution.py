"""Runtime particle redistribution driver (paper Figure 12, top level).

``Particle_Redistribution`` in the paper is: Hilbert-base indexing →
bucket incremental sorting → order-maintaining load balance → rebuild
bucket boundaries.  :class:`Redistributor` packages that pipeline,
carries the per-rank :class:`~repro.core.incremental_sort.BucketState`
between epochs, and measures each redistribution's virtual cost (the
``T_redistribution`` the dynamic policy trades against).
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
from repro.particles.arrays import ParticleArray
from repro.util import require

__all__ = ["Redistributor", "RedistributionResult"]


@dataclass
class RedistributionResult:
    """Outcome of one redistribution epoch."""

    particles: list[ParticleArray]  #: new per-rank particle sets
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
    classifier:
        Optional classification hook forwarded to
        :func:`bucket_incremental_sort`; bit-identical results either
        way.  ``Simulation`` passes none (ROADMAP item 4(d)).
    """

    def __init__(
        self,
        partitioner: ParticlePartitioner,
        *,
        nbuckets: int = 16,
        classifier=None,
    ) -> None:
        require(nbuckets >= 1, "nbuckets must be >= 1")
        self.partitioner = partitioner
        self.nbuckets = nbuckets
        self.classifier = classifier
        self._states: list[BucketState] | None = None

    # ------------------------------------------------------------------
    def initialize(self, vm: VirtualMachine, local_particles: list[ParticleArray]) -> RedistributionResult:
        """Set up epoch 0 with the from-scratch distribution algorithm.

        Runs the full index + parallel sample sort + balance pipeline on
        ``vm`` (charged under phase ``"redistribution"``) and installs
        the bucket states.  The measured cost seeds the dynamic policy's
        ``T_redistribution`` estimate.
        """
        t0 = vm.elapsed()
        with vm.phase("redistribution"):
            particles = self.partitioner.distribute(vm, local_particles)
            self._install_states(particles)
        return RedistributionResult(particles, vm.elapsed() - t0, IncrementalSortStats())

    def _install_states(self, particles: list[ParticleArray]) -> None:
        states = []
        for parts in particles:
            keys = self.partitioner.particle_keys(parts)
            if keys.size > 1 and np.any(np.diff(keys) < 0):  # pragma: no cover - invariant
                raise AssertionError("distribution must produce key-sorted ranks")
            states.append(BucketState.build(keys, parts.to_matrix(), self.nbuckets))
        self._states = states

    # ------------------------------------------------------------------
    def redistribute(self, vm: VirtualMachine, local_particles: list[ParticleArray]) -> RedistributionResult:
        """Incremental redistribution of the current particle sets.

        ``local_particles`` must be the same sets (same order) produced
        by the previous epoch — their rows correspond to the stored
        bucket states; only the *positions* (hence keys) have changed.
        """
        require(self._states is not None, "initialize() must run before redistribute()")
        states = self._states
        require(len(local_particles) == vm.p, "need one particle set per rank")
        t0 = vm.elapsed()
        with vm.phase("redistribution"):
            new_keys = []
            counts = np.zeros(vm.p)
            for r, parts in enumerate(local_particles):
                require(
                    parts.n == states[r].n,
                    f"rank {r}: particle count changed outside redistribution",
                )
                # Refresh the payload matrix: positions/momenta moved.
                states[r].payload = parts.to_matrix()
                new_keys.append(self.partitioner.particle_keys(parts))
                counts[r] = parts.n
            self.partitioner.charge_indexing(vm, counts)
            keys_out, payloads_out, stats = bucket_incremental_sort(
                vm, states, new_keys, classifier=self.classifier
            )
            keys_bal, payloads_bal = order_maintaining_balance(vm, keys_out, payloads_out)
            particles = [ParticleArray.from_matrix(mat) for mat in payloads_bal]
            self._states = [
                BucketState.build(keys_bal[r], payloads_bal[r], self.nbuckets)
                for r in range(vm.p)
            ]
        return RedistributionResult(particles, vm.elapsed() - t0, stats)

    # ------------------------------------------------------------------
    # exact-resume checkpoint support
    # ------------------------------------------------------------------
    def export_keys(self) -> list[np.ndarray] | None:
        """Per-rank build-time sort keys of the current bucket states.

        These are the keys as of the last (re)distribution epoch — they
        cannot be recomputed from current particle positions (the
        particles have moved since), so checkpoints must carry them for
        a resumed run's incremental sort to classify identically.
        Returns ``None`` before :meth:`initialize`.
        """
        if self._states is None:
            return None
        return [state.keys.copy() for state in self._states]

    def restore_keys(
        self, keys: list[np.ndarray], local_particles: list[ParticleArray]
    ) -> None:
        """Rebuild the bucket states from checkpointed build-time keys.

        ``local_particles`` are the restored per-rank sets; their rows
        are in the same order as at the epoch that produced ``keys``
        (redistribution is the only thing that reorders a rank, and it
        rebuilds the states).  Bucket offsets and key ranges are derived
        from the keys exactly as :meth:`BucketState.build` did
        originally, so classification decisions are bit-identical.
        """
        require(len(keys) == len(local_particles), "need one key array per rank")
        states = []
        for rank_keys, parts in zip(keys, local_particles):
            rank_keys = np.asarray(rank_keys)
            require(
                rank_keys.shape[0] == parts.n,
                f"restored keys ({rank_keys.shape[0]}) and particles ({parts.n}) disagree",
            )
            states.append(BucketState.build(rank_keys, parts.to_matrix(), self.nbuckets))
        self._states = states
