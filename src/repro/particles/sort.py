"""Parallel sorting of keyed particle data on the virtual machine.

:func:`parallel_sample_sort` is the from-scratch distribution algorithm
(paper §5.1 "Sorting"): sample-based splitter selection, all-to-many
routing, and local sort.  The *incremental* variant that reuses the
previous epoch's order lives in :mod:`repro.core.incremental_sort`; this
module provides the shared primitives and the pooled block
(:class:`KeyedBlock`) every stage of the pipeline takes and returns.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.machine.collectives import exchange_by_destination_pooled
from repro.machine.virtual import VirtualMachine
from repro.util import require

__all__ = [
    "KeyedBlock",
    "regular_samples",
    "parallel_sample_sort",
]


class KeyedBlock(NamedTuple):
    """All ranks' keyed entries as one pooled block.

    Rank ``r`` holds columns ``[offsets[r], offsets[r + 1])`` of the
    ``(width, n)`` ``values`` (the ``(9, n)`` particle block, or any
    payload) and the aligned int64 ``keys``; ``offsets`` has ``p + 1``.
    """

    values: np.ndarray
    keys: np.ndarray
    offsets: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        """Entries per rank (int64, length ``p``)."""
        return np.diff(self.offsets)

    def rank_of_entries(self) -> np.ndarray:
        """Owning rank of every entry."""
        return np.repeat(np.arange(self.counts.shape[0], dtype=np.int64), self.counts)

    def sorted_within_ranks(self) -> "KeyedBlock":
        """Each rank's entries stably sorted by key: what ``p`` per-rank
        stable sorts give, in one ``lexsort``."""
        order = np.lexsort((self.keys, self.rank_of_entries()))
        return KeyedBlock(self.values.take(order, axis=-1), self.keys.take(order), self.offsets)


def regular_samples(sorted_keys: np.ndarray, nsamples: int) -> np.ndarray:
    """Pick ``nsamples`` regularly spaced samples from a sorted key array.

    Fewer samples are returned when the array is shorter than requested.
    """
    require(nsamples >= 1, f"nsamples must be >= 1, got {nsamples}")
    n = sorted_keys.shape[0]
    if n == 0:
        return sorted_keys[:0]
    take = min(nsamples, n)
    idx = (np.arange(1, take + 1) * n) // (take + 1)
    idx = np.clip(idx, 0, n - 1)
    return sorted_keys[idx]


def parallel_sample_sort(
    vm: VirtualMachine,
    block: KeyedBlock,
    *,
    oversample: int = 4,
) -> tuple[KeyedBlock, np.ndarray]:
    """Globally sort keyed entries across ranks by sample sort.

    Parameters
    ----------
    vm:
        The virtual machine; costs are charged under its current phase.
    block:
        The ranks' keyed entries, pooled (:class:`KeyedBlock`).
    oversample:
        Samples per rank = ``oversample * p`` (regular sampling of the
        locally sorted keys), traded against splitter quality.

    Returns
    -------
    (block, splitters):
        The entries re-pooled so that every rank's slice is sorted and the
        rank-order concatenation is globally sorted, plus the ``p - 1``
        global splitters used.  Counts per rank are *approximately*
        equal (sample sort property); follow with
        :func:`repro.core.load_balance.order_maintaining_balance` for
        exact balance.
    """
    p = vm.p
    require(block.offsets.shape[0] == p + 1, "need one keys/values segment per rank")
    require(block.keys.shape[0] == block.values.shape[-1], "keys/values length mismatch")
    # 1. local sort (charged as n log n comparisons per rank)
    block = block.sorted_within_ranks()
    nlocal = block.counts.astype(float)
    vm.charge_ops("sort", nlocal * np.log2(np.maximum(nlocal, 2.0)))

    # 2. sample and pick global splitters (concatenation collective)
    ranks = np.split(block.keys, block.offsets[1:-1])
    samples = [regular_samples(keys, oversample * p) for keys in ranks]
    all_samples = np.sort(np.concatenate(vm.allgather(samples)[0]))
    if all_samples.size >= p - 1 and p > 1:
        splitters = all_samples[(np.arange(1, p) * all_samples.size) // p]
    else:
        splitters = all_samples[: max(p - 1, 0)]

    # 3. route entries to destination ranks
    dests = np.searchsorted(splitters, block.keys, side="right").astype(np.int64)
    vm.charge_ops("sort", nlocal * np.log2(max(p, 2)))
    (values, keys), offsets = exchange_by_destination_pooled(
        vm, (block.values, block.keys), dests, block.offsets
    )

    # 4. final local sort of received entries
    out = KeyedBlock(values, keys, offsets).sorted_within_ranks()
    counts = out.counts.astype(float)
    vm.charge_ops("sort", counts * np.log2(np.maximum(counts, 2.0)))
    return out, splitters
