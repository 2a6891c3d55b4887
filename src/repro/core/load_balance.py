"""Order-maintaining load balance (paper §5.1, after [10]).

After a (sample or incremental) sort the per-rank counts are only
approximately equal.  The order-maintaining balance step moves surplus
elements to neighbouring positions of the *global concatenated order* so
that every rank ends with the balanced count and the global order is
unchanged: element ``g`` of the concatenation simply moves to the rank
whose balanced slice contains ``g``.
"""

from __future__ import annotations

import numpy as np

from repro.machine.collectives import exchange_by_destination_pooled
from repro.machine.virtual import VirtualMachine
from repro.mesh.decomposition import balanced_splits
from repro.particles.sort import KeyedBlock
from repro.util import require

__all__ = ["order_maintaining_balance"]


def order_maintaining_balance(vm: VirtualMachine, block: KeyedBlock) -> KeyedBlock:
    """Equalize per-rank counts without disturbing the global order.

    Parameters
    ----------
    vm:
        Virtual machine (costs charged under the current phase).
    block:
        Keyed entries whose rank-order concatenation is globally sorted.

    Returns
    -------
    KeyedBlock
        The same entries in the same order, re-cut so that counts differ by
        at most one.  The pooled input already is in the ``(destination,
        source)`` order the exchange delivers, so the block comes back as
        it is (copied only if a fault replaced a payload).
    """
    p = vm.p
    require(block.offsets.shape[0] == p + 1, "need one keys/values segment per rank")
    require(block.keys.shape[0] == block.values.shape[-1], "keys/values length mismatch")
    counts = block.counts
    # Every rank learns all counts (global concatenation of scalars).
    vm.allgather(counts.tolist(), nbytes_each=np.full(p, counts.itemsize))
    target_bounds = balanced_splits(int(counts.sum()), p)

    # Destination of each element by its global position.
    dests = np.searchsorted(target_bounds, np.arange(block.keys.shape[0]), side="right") - 1
    vm.charge_ops("sort", counts.astype(float))  # position computation

    (values, keys), offsets = exchange_by_destination_pooled(
        vm, (block.values, block.keys), dests, block.offsets
    )
    if not np.array_equal(offsets, target_bounds):  # pragma: no cover - invariant guard
        raise AssertionError(f"balance produced offsets {offsets}, expected {target_bounds}")
    return KeyedBlock(values, keys, offsets)
