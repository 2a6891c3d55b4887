"""Parallel sorting of keyed particle data on the virtual machine.

:func:`parallel_sample_sort` is the from-scratch distribution algorithm
(paper §5.1 "Sorting"): sample-based splitter selection, all-to-many
routing, and local sort.  The *incremental* variant that reuses the
previous epoch's order lives in :mod:`repro.core.incremental_sort`; this
module provides the shared primitives and the pooled block
(:class:`KeyedRows`) every stage of the pipeline takes and returns.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.machine.collectives import exchange_by_destination_pooled
from repro.machine.virtual import VirtualMachine
from repro.util import require

__all__ = [
    "KeyedRows",
    "regular_samples",
    "parallel_sample_sort",
]


class KeyedRows(NamedTuple):
    """All ranks' keyed rows as one pooled block.

    Rank ``r`` holds ``rows[offsets[r]:offsets[r + 1]]`` (particle
    transport rows, ``(n, 9)``, or any row payload) and the aligned
    ``keys`` (int64 curve positions); ``offsets`` has ``p + 1`` entries.
    """

    rows: np.ndarray
    keys: np.ndarray
    offsets: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        """Rows per rank (int64, length ``p``)."""
        return np.diff(self.offsets)

    def rank_of_rows(self) -> np.ndarray:
        """Owning rank of every row."""
        return np.repeat(np.arange(self.counts.shape[0], dtype=np.int64), self.counts)

    def sorted_within_ranks(self) -> "KeyedRows":
        """Each rank's rows stably sorted by key: what ``p`` per-rank
        stable sorts give, in one ``lexsort``."""
        order = np.lexsort((self.keys, self.rank_of_rows()))
        return KeyedRows(self.rows.take(order, axis=0), self.keys.take(order), self.offsets)


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
    block: KeyedRows,
    *,
    oversample: int = 4,
) -> tuple[KeyedRows, np.ndarray]:
    """Globally sort keyed rows across ranks by sample sort.

    Parameters
    ----------
    vm:
        The virtual machine; costs are charged under its current phase.
    block:
        The ranks' keyed rows, pooled (:class:`KeyedRows`).
    oversample:
        Samples per rank = ``oversample * p`` (regular sampling of the
        locally sorted keys), traded against splitter quality.

    Returns
    -------
    (block, splitters):
        The rows re-pooled so that every rank's slice is sorted and the
        rank-order concatenation is globally sorted, plus the ``p - 1``
        global splitters used.  Counts per rank are *approximately*
        equal (sample sort property); follow with
        :func:`repro.core.load_balance.order_maintaining_balance` for
        exact balance.
    """
    p = vm.p
    require(block.offsets.shape[0] == p + 1, "need one keys/rows segment per rank")
    require(block.keys.shape[0] == block.rows.shape[0], "keys/rows length mismatch")
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

    # 3. route rows to destination ranks
    dests = np.searchsorted(splitters, block.keys, side="right").astype(np.int64)
    vm.charge_ops("sort", nlocal * np.log2(max(p, 2)))
    (rows, keys), offsets = exchange_by_destination_pooled(
        vm, (block.rows, block.keys), dests, block.offsets
    )

    # 4. final local sort of received rows
    out = KeyedRows(rows, keys, offsets).sorted_within_ranks()
    counts = out.counts.astype(float)
    vm.charge_ops("sort", counts * np.log2(np.maximum(counts, 2.0)))
    return out, splitters
