"""Bucket-based incremental sorting (paper Figure 12, after [10]).

Redistribution does not sort from scratch: particle movement is
incremental, so the previous epoch's sorted order and bucket boundaries
classify most particles cheaply:

* **same bucket** — the new key still falls inside the element's
  previous bucket: O(1) classification, no movement;
* **same rank, different bucket** — binary search over the rank's ``L``
  local bucket boundaries: O(log L);
* **off-rank** — binary search over the ``p`` global rank boundaries
  (the previous epoch's partition): O(log p), and the element joins the
  all-to-many exchange.

Only the off-rank elements are communicated; received elements are
sorted and merged with the (per-bucket re-sorted) kept elements.  Every
step runs once over all ranks' elements pooled, with per-rank charges
computed from ``bincount`` tallies.  The cost advantage over the
from-scratch sample sort is property-tested and measured by the
``ablation_incremental_sort`` experiment of ``python -m repro paper``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.collectives import exchange_by_destination_pooled
from repro.machine.virtual import VirtualMachine
from repro.particles.sort import KeyedBlock
from repro.util import require

__all__ = ["BucketState", "bucket_incremental_sort", "IncrementalSortStats"]


@dataclass
class IncrementalSortStats:
    """Classification tallies of one incremental sort epoch (all ranks)."""

    same_bucket: int = 0
    moved_bucket: int = 0
    moved_rank: int = 0

    @property
    def total(self) -> int:
        """All classified elements."""
        return self.same_bucket + self.moved_bucket + self.moved_rank


@dataclass
class BucketState:
    """Every rank's sorted run divided into ``L`` buckets, pooled.

    Attributes
    ----------
    keys:
        Sorted keys of each rank's elements as of the last epoch, rank
        ``r``'s at ``[offsets[r], offsets[r + 1])``.
    offsets:
        Rank segment boundaries, length ``p + 1``.
    nbuckets:
        ``L``, the buckets per rank.
    elem_lows, elem_highs:
        Key range of the bucket each element sat in at build time.
        Classification (Fig 12 line 10) only ever asks "is my new key
        still inside my old bucket's range?", so these replace a
        per-epoch search over the bucket boundaries with two vectorized
        comparisons.
    """

    keys: np.ndarray
    offsets: np.ndarray
    nbuckets: int
    elem_lows: np.ndarray
    elem_highs: np.ndarray

    @classmethod
    def build(cls, keys: np.ndarray, offsets: np.ndarray, nbuckets: int) -> "BucketState":
        """Divide each rank's sorted run into ``nbuckets`` equal buckets
        (Fig 12 lines 4–6) — the first ``n_r % L`` one element larger, as
        :func:`~repro.mesh.decomposition.balanced_splits` cuts — in one
        pass over all ranks."""
        require(nbuckets >= 1, "nbuckets must be >= 1")
        keys = np.asarray(keys)
        offsets = np.asarray(offsets, dtype=np.int64)
        require(keys.ndim == 1, "keys must be 1-D")
        require(offsets.ndim == 1 and offsets[0] == 0, "offsets must be 1-D and start at 0")
        require(offsets[-1] == keys.shape[0], "keys/offsets length mismatch")
        descending = np.diff(keys) < 0
        inner = offsets[1:-1]  # a descent from one rank to the next is fine
        descending[inner[(inner > 0) & (inner < keys.shape[0])] - 1] = False
        if descending.any():
            raise ValueError("BucketState.build requires each rank's keys sorted")
        base, extra = np.divmod(np.diff(offsets), nbuckets)
        sizes = base[:, None] + (np.arange(nbuckets) < extra[:, None])
        starts = (offsets[:-1, None] + np.cumsum(sizes, axis=1) - sizes).ravel()
        sizes = sizes.ravel()
        bucket = np.repeat(np.arange(sizes.shape[0]), sizes)
        return cls(
            keys,
            offsets,
            nbuckets,
            keys.take(starts.take(bucket)),
            keys.take(starts.take(bucket) + sizes.take(bucket) - 1),
        )

    @property
    def n(self) -> int:
        """Number of elements, all ranks."""
        return int(self.keys.shape[0])

    @property
    def counts(self) -> np.ndarray:
        """Elements per rank."""
        return np.diff(self.offsets)

    @property
    def upper_keys(self) -> np.ndarray:
        """Every rank's top key (``localBound[L-1]``), ``int64`` min if empty."""
        tops = self.keys.take(np.maximum(self.offsets[1:] - 1, 0)) if self.n else self.counts
        return np.where(self.counts > 0, tops, np.iinfo(np.int64).min).astype(np.int64)


def bucket_incremental_sort(
    vm: VirtualMachine,
    state: BucketState,
    block: KeyedBlock,
) -> tuple[KeyedBlock, IncrementalSortStats]:
    """One epoch of incremental redistribution (paper Figure 12).

    Parameters
    ----------
    vm:
        Virtual machine; classification/sort compute and the all-to-many
        exchange are charged under its current phase.
    state:
        The :class:`BucketState` of the previous epoch.
    block:
        The ranks' entries with their freshly computed keys, aligned with
        ``state`` (same offsets, same entry order as ``state.keys``).

    Returns
    -------
    (block, stats):
        Every rank's entries sorted by key in a new block, re-pooled so
        that the rank-order concatenation is globally sorted, plus
        classification tallies.  Counts are generally unbalanced; follow with
        :func:`repro.core.load_balance.order_maintaining_balance`.
    """
    p = vm.p
    require(state.offsets.shape[0] == p + 1, "need one state segment per rank")
    keys = block.keys
    require(
        keys.shape[0] == block.values.shape[-1] == state.n
        and np.array_equal(block.offsets, state.offsets),
        "new keys/values length mismatch with the state",
    )
    counts = state.counts

    # Line 1 of Bucket_incremental_sorting: global concatenation of the
    # previous epoch's rank boundaries, forward-filled over empty ranks
    # so boundaries are monotone.
    uppers = state.upper_keys
    vm.allgather(list(uppers), nbytes_each=np.full(p, uppers.itemsize))
    splitters = np.maximum.accumulate(uppers)[: p - 1]

    # Classification (Fig 12 lines 8-19); the charged per-rank op counts
    # come from bincount tallies of the pooled tests.
    rank_of = block.rank_of_entries()
    dest = np.searchsorted(splitters, keys, side="left").astype(np.int64)
    off = dest != rank_of
    same = ~off & (keys >= state.elem_lows) & (keys <= state.elem_highs)
    n_off = np.bincount(rank_of[off], minlength=p).astype(np.int64)
    n_same = np.bincount(rank_of[same], minlength=p).astype(np.int64)
    n_moved = counts - n_off - n_same
    nb = np.full(p, max(state.nbuckets, 2))
    stats = IncrementalSortStats(int(n_same.sum()), int(n_moved.sum()), int(n_off.sum()))
    vm.charge_ops(
        "sort",
        n_same.astype(float)
        + n_moved.astype(float) * np.log2(nb)
        + n_off.astype(float) * np.log2(max(p, 2)),
    )

    # All-to-many exchange of the off-rank elements (line 20).
    off_idx = np.flatnonzero(off)
    (recv_values, recv_keys), recv_offsets = exchange_by_destination_pooled(
        vm,
        (block.values.take(off_idx, axis=-1), keys.take(off_idx)),
        dest.take(off_idx),
        np.concatenate(([0], np.cumsum(n_off))),
    )

    # Per-bucket re-sort of kept elements + sort of received + merge
    # (lines 21-24): each rank's kept elements followed by what it
    # received, stably sorted by key.  The *charged* cost reflects the
    # bucket algorithm: kept elements pay log of the bucket size,
    # received pay a full sort, the merge pays linear work.
    keep_idx = np.flatnonzero(~off)
    n_recv = np.diff(recv_offsets)
    merged_keys = np.concatenate((keys.take(keep_idx), recv_keys))
    order = np.lexsort(
        (merged_keys, np.concatenate((rank_of.take(keep_idx), np.repeat(np.arange(p), n_recv))))
    )
    # output column j is column source[j] of [kept | received], gathered a
    # row at a time ("clip": the indices are in range; ``out`` unbuffered)
    source = np.concatenate((keep_idx, keys.shape[0] + np.arange(recv_keys.shape[0]))).take(order)
    out = np.empty((block.values.shape[0], source.shape[0]), dtype=block.values.dtype)
    for row, own, received in zip(out, block.values, recv_values):
        np.take(np.concatenate((own, received)), source, out=row, mode="clip")
    kept = (counts - n_off).astype(float)
    n_out = counts - n_off + n_recv
    vm.charge_ops(
        "sort",
        kept * np.log2(np.maximum(kept / nb, 2.0))
        + n_recv * np.log2(np.maximum(n_recv, 2))
        + n_out,
    )
    out_offsets = np.concatenate(([0], np.cumsum(n_out)))
    return KeyedBlock(out, merged_keys.take(order), out_offsets), stats
