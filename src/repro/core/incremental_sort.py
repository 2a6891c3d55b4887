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
sorted and merged with the (per-bucket re-sorted) kept elements.  The
cost advantage over the from-scratch sample sort is property-tested and
measured by ``benchmarks/bench_ablation_incremental_sort.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.collectives import exchange_by_destination
from repro.machine.virtual import VirtualMachine
from repro.mesh.decomposition import balanced_splits
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
    """Per-rank sorted run divided into ``L`` buckets.

    Attributes
    ----------
    keys:
        Sorted keys of the rank's elements (as of the last epoch).
    payload:
        Rows aligned with ``keys``.
    bucket_offsets:
        Element-index boundaries of the buckets, length ``L + 1``.
    bucket_lows, bucket_highs:
        Key ranges covered by each bucket at build time.
    """

    keys: np.ndarray
    payload: np.ndarray
    bucket_offsets: np.ndarray
    bucket_lows: np.ndarray
    bucket_highs: np.ndarray

    def __post_init__(self) -> None:
        # Per-element key range of the bucket each element sat in at
        # build time.  Classification (Fig 12 line 10) only ever asks
        # "is my new key still inside my old bucket's range?", so these
        # expanded arrays replace a per-epoch searchsorted over all
        # elements with two vectorized comparisons.
        sizes = np.diff(self.bucket_offsets)
        buckets = np.repeat(np.arange(sizes.shape[0]), sizes)
        self.elem_lows = self.bucket_lows[buckets]
        self.elem_highs = self.bucket_highs[buckets]

    @classmethod
    def build(cls, keys: np.ndarray, payload: np.ndarray, nbuckets: int) -> "BucketState":
        """Divide a sorted run into ``nbuckets`` equal buckets (Fig 12 lines 4–6)."""
        require(nbuckets >= 1, "nbuckets must be >= 1")
        keys = np.asarray(keys)
        require(keys.ndim == 1, "keys must be 1-D")
        require(payload.shape[0] == keys.shape[0], "keys/payload length mismatch")
        if keys.size > 1 and np.any(np.diff(keys) < 0):
            raise ValueError("BucketState.build requires sorted keys")
        offsets = balanced_splits(keys.shape[0], nbuckets)
        lows = np.empty(nbuckets, dtype=keys.dtype if keys.size else np.int64)
        highs = np.empty_like(lows)
        for b in range(nbuckets):
            lo, hi = offsets[b], offsets[b + 1]
            if hi > lo:
                lows[b] = keys[lo]
                highs[b] = keys[hi - 1]
            else:  # empty bucket: impossible range so nothing matches it
                lows[b] = 1
                highs[b] = 0
        return cls(keys, payload, offsets, lows, highs)

    @property
    def n(self) -> int:
        """Number of elements."""
        return int(self.keys.shape[0])

    @property
    def nbuckets(self) -> int:
        """Number of buckets ``L``."""
        return int(self.bucket_offsets.shape[0] - 1)

    @property
    def upper_key(self) -> np.ndarray:
        """The rank's top key (``localBound[L-1]``), or ``-inf`` if empty."""
        return self.keys[-1] if self.n else np.int64(np.iinfo(np.int64).min)


def bucket_incremental_sort(
    vm: VirtualMachine,
    states: list[BucketState],
    new_keys: list[np.ndarray],
    *,
    classifier=None,
) -> tuple[list[np.ndarray], list[np.ndarray], IncrementalSortStats]:
    """One epoch of incremental redistribution (paper Figure 12).

    Parameters
    ----------
    vm:
        Virtual machine; classification/sort compute and the all-to-many
        exchange are charged under its current phase.
    states:
        Per-rank :class:`BucketState` from the previous epoch.
    new_keys:
        Per-rank freshly computed keys, aligned with each state's rows
        (same length and order as ``state.keys``).
    classifier:
        Optional ``(keys, rank_of, lows, highs, splitters) ->
        (dest, same)`` hook replacing the in-process classification
        pass.  Classification is
        pure per-element integer work, so any implementation chunking is
        bit-identical to the serial pass — results and charges do not
        depend on it.

    Returns
    -------
    (keys, payloads, stats):
        Per-rank sorted keys and payload rows whose rank-order
        concatenation is globally sorted, plus classification tallies.
        Counts are generally unbalanced; follow with
        :func:`repro.core.load_balance.order_maintaining_balance`.
    """
    p = vm.p
    require(len(states) == p and len(new_keys) == p, "need one state/keys per rank")

    # Line 1 of Bucket_incremental_sorting: global concatenation of the
    # previous epoch's rank boundaries.
    uppers = vm.allgather([state.upper_key for state in states])[0]
    uppers = np.asarray(uppers, dtype=np.int64)
    # Forward-fill empty ranks so boundaries are monotone.
    uppers = np.maximum.accumulate(uppers)
    splitters = uppers[: p - 1]

    # Classification (Fig 12 lines 8-19), pooled: every rank's new keys
    # are concatenated into one flat array with segment offsets and the
    # searchsorted / bucket-range tests run once over the pool instead of
    # p times.  The charged per-rank op counts are computed from the same
    # formula on bincount tallies, so accounting is identical to the
    # per-rank loop this replaces.
    stats = IncrementalSortStats()
    per_rank_keys: list[np.ndarray] = []
    for r in range(p):
        keys_r = np.asarray(new_keys[r])
        require(keys_r.shape[0] == states[r].n, f"rank {r}: new_keys length mismatch")
        per_rank_keys.append(keys_r)
    counts = np.array([state.n for state in states], dtype=np.int64)
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    keys_all = np.concatenate(per_rank_keys)
    rank_of = np.repeat(np.arange(p, dtype=np.int64), counts)
    lows_all = np.concatenate([state.elem_lows for state in states])
    highs_all = np.concatenate([state.elem_highs for state in states])
    if classifier is not None:
        dest_all, same_all = classifier(keys_all, rank_of, lows_all, highs_all, splitters)
        off_all = dest_all != rank_of
    else:
        dest_all = np.searchsorted(splitters, keys_all, side="left").astype(np.int64)
        off_all = dest_all != rank_of
        same_all = ~off_all & (keys_all >= lows_all) & (keys_all <= highs_all)
    n_off_arr = np.bincount(rank_of[off_all], minlength=p).astype(np.int64)
    n_same_arr = np.bincount(rank_of[same_all], minlength=p).astype(np.int64)
    n_moved_arr = counts - n_off_arr - n_same_arr
    nb_arr = np.maximum([state.nbuckets for state in states], 2)
    stats.same_bucket = int(n_same_arr.sum())
    stats.moved_bucket = int(n_moved_arr.sum())
    stats.moved_rank = int(n_off_arr.sum())
    class_ops = (
        n_same_arr.astype(float)
        + n_moved_arr.astype(float) * np.log2(nb_arr)
        + n_off_arr.astype(float) * np.log2(max(p, 2))
    )

    kept_keys: list[np.ndarray] = []
    kept_payloads: list[np.ndarray] = []
    send_keys: list[np.ndarray] = []
    send_payloads: list[np.ndarray] = []
    send_dests: list[np.ndarray] = []
    for r in range(p):
        state = states[r]
        keys = per_rank_keys[r]
        off = off_all[offsets[r] : offsets[r + 1]]
        dest = dest_all[offsets[r] : offsets[r + 1]]
        if n_off_arr[r]:
            off_idx = np.flatnonzero(off)
            keep_idx = np.flatnonzero(~off)
            kept_keys.append(keys.take(keep_idx))
            kept_payloads.append(state.payload.take(keep_idx, axis=0))
            send_keys.append(keys.take(off_idx).reshape(-1, 1))
            send_payloads.append(state.payload.take(off_idx, axis=0))
            send_dests.append(dest.take(off_idx))
        else:
            kept_keys.append(keys)
            kept_payloads.append(state.payload)
            send_keys.append(keys[:0].reshape(-1, 1))
            send_payloads.append(state.payload[:0])
            send_dests.append(dest[:0])
    vm.charge_ops("sort", class_ops)

    # All-to-many exchange of the off-rank elements (line 20).
    recv_payloads = exchange_by_destination(vm, send_payloads, send_dests)
    recv_keys = exchange_by_destination(vm, send_keys, send_dests)

    # Per-bucket re-sort of kept elements + sort of received + merge
    # (lines 21-24).  The real arrays are sorted outright; the *charged*
    # cost reflects the bucket algorithm: kept elements pay log of the
    # bucket size, received pay a full sort, the merge pays linear work.
    out_keys: list[np.ndarray] = []
    out_payloads: list[np.ndarray] = []
    sort_ops = np.zeros(p)
    for r in range(p):
        rkeys = recv_keys[r].reshape(-1)
        rpay = recv_payloads[r]
        if rpay.ndim == 1:
            rpay = rpay.reshape(0, states[r].payload.shape[1])
        keys = np.concatenate([kept_keys[r], rkeys])
        pay = np.concatenate([kept_payloads[r], rpay])
        if keys.shape[0] > 1 and np.any(keys[1:] < keys[:-1]):
            order = np.argsort(keys, kind="stable")
            keys = keys.take(order)
            pay = pay.take(order, axis=0)
        out_keys.append(keys)
        out_payloads.append(pay)
        nb = max(states[r].nbuckets, 2)
        bucket_size = max(kept_keys[r].shape[0] / nb, 2.0)
        sort_ops[r] = (
            kept_keys[r].shape[0] * np.log2(bucket_size)
            + rkeys.shape[0] * np.log2(max(rkeys.shape[0], 2))
            + keys.shape[0]  # merge
        )
    vm.charge_ops("sort", sort_ops)
    return out_keys, out_payloads, stats
