"""Higher-level communication patterns built on the virtual machine.

:func:`exchange_by_destination_pooled` is the paper's
``All-to-many_COMM`` on a send-list table, driven from one flat pool of
rows with segment offsets: one stable sort by ``(source, destination)``
groups every rank's rows into one message per pair, each row-aligned
array crosses the machine as one
:class:`~repro.machine.batch.MessageBatch`, and what arrives comes back
pooled the same way.  Particle migration, the sample sort, the
incremental sort and the order-maintaining balance all route through it.
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
    """Route every pooled row to the rank named by ``destinations``.

    Parameters
    ----------
    arrays:
        Row-aligned pooled arrays (``(n, ...)`` each, e.g. the particle
        rows and their sort keys), rank-segment ordered: rank ``r``'s
        rows are ``[offsets[r], offsets[r + 1])``.  Each crosses the
        machine as its own exchange, in the order given.
    destinations:
        int64 destination rank per row.
    offsets:
        Segment boundaries, length ``vm.p + 1``.

    Returns
    -------
    (delivered, offsets):
        Per array, the delivered rows pooled in ``(destination, source)``
        order — stable within a source — and the new segment offsets.
        A message carries a source's rows for one destination as the
        ``(width, k)`` transpose of its ``(k, width)`` rows, so its bytes
        and its first float are those of the rows themselves.  Rows that
        are already grouped by ``(source, destination)`` and arrive
        grouped by ``(destination, source)`` (the balance step's) are
        returned as they are unless a fault replaced a payload.
    """
    p = vm.p
    arrays = [np.asarray(a) for a in arrays]
    destinations = np.asarray(destinations, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    require(offsets.shape[0] == p + 1, "offsets must have p + 1 entries")
    require(
        all(a.shape[0] == destinations.shape[0] == offsets[-1] for a in arrays),
        "rows/destinations length mismatch with the pooled segments",
    )
    bad = np.flatnonzero((destinations < 0) | (destinations >= p))
    if bad.size:  # a typed error naming the rows, not a wrapped negative rank
        examples = ", ".join(f"row {i}: dest {destinations[i]}" for i in bad[:3])
        raise InvalidRankError(
            "exchange_by_destination_pooled: destination out of range "
            f"[0, {p}) for {bad.size} row(s) ({examples})"
        )
    src = np.repeat(np.arange(p, dtype=np.int64), np.diff(offsets))
    # the one stable sort: within a source segment the order among that
    # source's rows is the per-rank stable sort by destination alone
    grouped = np.all((src[1:] > src[:-1]) | (destinations[1:] >= destinations[:-1]))
    order = None if grouped else np.lexsort((destinations, src))
    if order is not None:
        src, destinations = src.take(order), destinations.take(order)
    messages = MessageBatch.coalesce(src, destinations)
    arrival = np.lexsort((messages.src, messages.dst))
    in_place = np.array_equal(arrival, np.arange(arrival.size))
    if not in_place:  # entry indices of the messages taken in (dst, src) order
        counts, ends = messages.counts[arrival], np.cumsum(messages.counts[arrival])
        arrival = np.repeat(messages.offsets[arrival] - ends + counts, counts) + np.arange(ends[-1])
    delivered = []
    for rows in arrays:
        if order is not None:
            rows = rows.take(order, axis=0)
        values = rows.reshape(rows.shape[0], int(np.prod(rows.shape[1:]))).T
        batch = MessageBatch(messages.src, messages.dst, messages.offsets, values=values)
        received = vm.exchange(batch).values.T.reshape(rows.shape)
        delivered.append(received if in_place else received.take(arrival, axis=0))
    counts = np.bincount(destinations, minlength=p)
    return delivered, np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
