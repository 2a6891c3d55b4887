"""Higher-level communication patterns built on the virtual machine.

:func:`exchange_by_destination_pooled` is the paper's
``All-to-many_COMM`` on a send-list table, driven from one flat pool of
entries with segment offsets: one stable sort by ``(source, destination)``
groups every rank's entries into one message per pair, each array crosses
the machine as one :class:`~repro.machine.batch.MessageBatch`, and what
arrives comes back pooled the same way.  Particle migration, the sample
sort, the incremental sort and the order-maintaining balance all route
through it.
"""

from __future__ import annotations

import numpy as np

from repro.machine.batch import MessageBatch
from repro.machine.virtual import VirtualMachine
from repro.util import require
from repro.util.errors import InvalidRankError

__all__ = ["exchange_by_destination_pooled"]


def exchange_by_destination_pooled(
    vm: VirtualMachine,
    arrays,
    destinations: np.ndarray,
    offsets: np.ndarray,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Route every pooled entry to the rank named by ``destinations``.

    Parameters
    ----------
    arrays:
        Entry-aligned pooled arrays with the entries along the last axis
        (``(..., n)`` each, e.g. the ``(9, n)`` particle block and its
        ``(n,)`` sort keys), rank-segment ordered: rank ``r``'s entries
        are ``[offsets[r], offsets[r + 1])``.  Each crosses the machine
        as its own exchange, in the order given.
    destinations:
        int64 destination rank per entry.
    offsets:
        Segment boundaries, length ``vm.p + 1``.

    Returns
    -------
    (delivered, offsets):
        Per array, the delivered entries pooled in ``(destination,
        source)`` order — stable within a source — and the new segment
        offsets.  A message is a ``(width, k)`` column range: a particle
        message holds the bytes of its ``(k, 9)`` rows transposed.
        Entries already in delivered order (the balance step's) are
        returned as they are unless a fault replaced a payload.
    """
    p = vm.p
    arrays = [np.asarray(a) for a in arrays]
    destinations = np.asarray(destinations, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    require(offsets.shape[0] == p + 1, "offsets must have p + 1 entries")
    require(
        all(a.shape[-1] == destinations.shape[0] == offsets[-1] for a in arrays),
        "entries/destinations length mismatch with the pooled segments",
    )
    bad = np.flatnonzero((destinations < 0) | (destinations >= p))
    if bad.size:  # a typed error naming the rows, not a wrapped negative rank
        examples = ", ".join(f"row {i}: dest {destinations[i]}" for i in bad[:3])
        raise InvalidRankError(
            "exchange_by_destination_pooled: destination out of range "
            f"[0, {p}) for {bad.size} row(s) ({examples})"
        )
    messages, gather, counts = _arrival_plan(destinations, offsets, p)
    delivered = []
    for entries in arrays:
        if gather is not None:
            entries = entries.take(gather, axis=-1)
        values = entries.reshape(int(np.prod(entries.shape[:-1])), entries.shape[-1])
        batch = MessageBatch(messages.src, messages.dst, messages.offsets, values=values)
        delivered.append(vm.exchange(batch).values.reshape(entries.shape))
    return delivered, np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


def _arrival_plan(destinations: np.ndarray, offsets: np.ndarray, p: int):
    """The messages in arrival ``(dst, src)`` order, the one gather that
    lays the entries out so (``None``: already so) and the entries per
    destination.  A stable sort keeps each source's order; the machine
    walks a batch by source, then destination, so it meets the messages
    as in ``(src, dst)`` order."""
    src = np.repeat(np.arange(p, dtype=np.int64), np.diff(offsets))
    grouped = np.all((src[1:] > src[:-1]) | (destinations[1:] >= destinations[:-1]))
    gather = None if grouped else np.lexsort((destinations, src))
    if gather is not None:
        src, destinations = src.take(gather), destinations.take(gather)
    messages = MessageBatch.coalesce(src, destinations)
    arrival = np.lexsort((messages.src, messages.dst))
    if not np.array_equal(arrival, np.arange(arrival.size)):
        counts = messages.counts[arrival]
        ends = np.cumsum(counts)
        entries = np.repeat(messages.offsets[arrival] - ends + counts, counts) + np.arange(ends[-1])
        gather = entries if gather is None else gather.take(entries)
        messages = MessageBatch(
            messages.src[arrival], messages.dst[arrival], np.concatenate(([0], ends))
        )
    return messages, gather, np.bincount(destinations, minlength=p)
